"""Memory-Access-Vector features for SimPoint clustering.

Basic Block Vectors see only *code* similarity; two intervals running
the same loop over different working sets land in the same cluster even
when their memory behaviour — and therefore their IPC — differs.  MAVs
(memory access vectors, cf. the MAV-augmented SimPoint variants in
related work) close that gap with features from the *data* side.

The VM's cheap window onto data behaviour is the MMU's TLB-fill slow
path: every fill names the virtual page being touched, and fills are
deterministic and engine-invariant (the parity tests pin vm_stats
across all three engines).  :class:`MavCollector` hooks
``MMU.fill_log`` during the profiling pass and condenses each
interval's fill sequence into two histograms:

* **page touches** — ``{vpn: fills}``, which pages and how hard;
* **fill strides** — log2-bucketed ``|vpn delta|`` between successive
  fills (bucket 0 = refill of the same page), separating streaming
  from pointer-chasing intervals that touch similar page sets.

:func:`mav_matrix` turns the histograms into a dense per-interval
block (columns from *sorted* key sets — permutation-stable by
construction) that is concatenated onto the BBV block behind
``SimPointConfig.mav`` and fed to the existing k-means clusterer.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

#: stride histogram buckets: 0 = same page, k = bit_length(|delta|)
#: capped at the last bucket (strides beyond 2^14 pages are one class)
STRIDE_BUCKETS = 16


def stride_bucket(delta: int) -> int:
    """Log2 bucket of one fill-to-fill VPN distance."""
    if delta == 0:
        return 0
    return min(abs(delta).bit_length(), STRIDE_BUCKETS - 1)


def touch_histograms(fills: Sequence[int]
                     ) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Page-touch and stride histograms of one interval's fill log."""
    pages: Dict[int, int] = {}
    strides: Dict[int, int] = {}
    previous = None
    for vpn in fills:
        pages[vpn] = pages.get(vpn, 0) + 1
        if previous is not None:
            bucket = stride_bucket(vpn - previous)
            strides[bucket] = strides.get(bucket, 0) + 1
        previous = vpn
    return pages, strides


class MavCollector:
    """Per-interval MAV features riding a profiling pass.

    One shared fill log is attached to every MMU of the profiled
    machine (an SMP guest's harts fill into the same log, in the
    deterministic gang-scheduled order the controller dispatches
    them), and :meth:`close_interval` drains it into the histograms.
    """

    def __init__(self):
        self.page_hists: List[Dict[int, int]] = []
        self.stride_hists: List[Dict[int, int]] = []
        self._log: List[int] = []
        self._mmus: List = []

    def attach(self, harts: Sequence) -> None:
        """Point every hart's MMU at the one shared fill log."""
        self._mmus = [hart.mmu for hart in harts]
        for mmu in self._mmus:
            mmu.fill_log = self._log

    def detach(self) -> None:
        for mmu in self._mmus:
            mmu.fill_log = None
        self._mmus = []

    def close_interval(self) -> None:
        """Fold the pending fill log into one interval's histograms."""
        pages, strides = touch_histograms(self._log)
        self.page_hists.append(pages)
        self.stride_hists.append(strides)
        # the MMUs hold a reference to this exact list: clear in place
        self._log.clear()

    def discard_pending(self) -> None:
        """Drop fills of an interval the BBV collector rejected."""
        self._log.clear()


def mav_matrix(page_hists: Sequence[Dict[int, int]],
               stride_hists: Sequence[Dict[int, int]],
               weight: float = 1.0) -> np.ndarray:
    """Dense (intervals x features) MAV block.

    Columns are the union of touched pages (ascending VPN) followed by
    the stride buckets (ascending bucket id); each half is
    L1-normalised per row — mirroring the BBV normalisation, so one
    long interval cannot dominate — then scaled by ``weight`` (the
    MAV-vs-BBV balance knob).  Column order depends only on the sorted
    key sets, never on dict insertion order: feature vectors are
    permutation-stable.
    """
    rows = len(page_hists)
    if rows == 0:
        return np.zeros((0, 0))
    if len(stride_hists) != rows:
        raise ValueError("page and stride histograms must align")
    page_ids = sorted({vpn for hist in page_hists for vpn in hist})
    bucket_ids = sorted({bucket for hist in stride_hists
                         for bucket in hist})
    page_index = {vpn: column for column, vpn in enumerate(page_ids)}
    bucket_index = {bucket: column
                    for column, bucket in enumerate(bucket_ids)}
    pages = np.zeros((rows, len(page_ids)))
    strides = np.zeros((rows, len(bucket_ids)))
    for row in range(rows):
        for vpn, count in page_hists[row].items():
            pages[row, page_index[vpn]] = count
        for bucket, count in stride_hists[row].items():
            strides[row, bucket_index[bucket]] = count
    for block in (pages, strides):
        if block.shape[1]:
            norms = block.sum(axis=1, keepdims=True)
            norms[norms == 0] = 1.0
            block /= norms
    return np.hstack([pages, strides]) * weight
