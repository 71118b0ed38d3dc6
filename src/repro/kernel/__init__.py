"""Thin guest kernel: syscalls, demand paging, program loading."""

from .checkpoint import Checkpoint, restore, take
from .loader import GLOBALS_BASE, STACK_SIZE, STACK_TOP, load_program
from .syscalls import (CHANNEL_CONSOLE, Kernel, SYS_BLK_READ, SYS_BLK_WRITE,
                       SYS_BRK, SYS_CAS, SYS_EXIT, SYS_MAP, SYS_NET_RECV,
                       SYS_NET_SEND, SYS_READ, SYS_TIME, SYS_UNMAP,
                       SYS_WRITE, SYS_YIELD)
from .system import (BLOCK_BASE, CONSOLE_BASE, NIC_BASE, System,
                     TIMER_BASE, boot)

__all__ = [
    "Checkpoint", "restore", "take",
    "GLOBALS_BASE", "STACK_SIZE", "STACK_TOP", "load_program",
    "CHANNEL_CONSOLE", "Kernel", "SYS_BLK_READ", "SYS_BLK_WRITE",
    "SYS_BRK", "SYS_CAS", "SYS_EXIT", "SYS_MAP", "SYS_NET_RECV",
    "SYS_NET_SEND", "SYS_READ", "SYS_TIME", "SYS_UNMAP", "SYS_WRITE",
    "SYS_YIELD",
    "BLOCK_BASE", "CONSOLE_BASE", "NIC_BASE", "System", "TIMER_BASE",
    "boot",
]
