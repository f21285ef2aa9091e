"""The process-wide glibc malloc policy the engine runs under.

Every execution allocates its selection vectors, masks, join tables
and gathered columns afresh and frees them when the result is dropped.
Under glibc's default policy a freed array above the mmap threshold is
unmapped, and heap memory above the trim threshold is returned to the
kernel, so the next execution's arrays of the same sizes fault their
pages in again: about a third of a plan-cache execution went to those
minor faults (docs/INTERNALS.md, "Engine memory").

:func:`keep_freed_arrays_mapped` sets both thresholds once, so that
arrays up to :data:`MMAP_THRESHOLD` come from a heap that stays mapped
between executions.  Both calls are needed: setting either freezes
glibc's dynamic threshold, and a trim threshold alone pins the mmap
threshold at its 128 KiB default.  The setting is process-wide and
glibc-only (DESIGN.md #10); on another libc, or when the environment
already sets glibc's malloc tunables, nothing is changed.
"""

from __future__ import annotations

import ctypes
import os
import platform
from collections.abc import Mapping

#: ``mallopt`` parameter numbers, from glibc's ``<malloc.h>``.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

#: 32 MiB: glibc's ``DEFAULT_MMAP_THRESHOLD_MAX`` on 64-bit, the largest
#: value ``mallopt(M_MMAP_THRESHOLD)`` accepts there and the ceiling its
#: own dynamic threshold climbs to.
MMAP_THRESHOLD = 32 * 1024 * 1024

#: 64 MiB: twice :data:`MMAP_THRESHOLD`, the ratio glibc's dynamic
#: policy keeps between the two, so freeing one array of the largest
#: heap-allocated size does not hand the heap's top back to the kernel.
TRIM_THRESHOLD = 64 * 1024 * 1024

#: Environment variables through which a user sets glibc's thresholds.
_USER_VARIABLES = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")


def policy_applies(environ: Mapping[str, str]) -> bool:
    """Whether :func:`keep_freed_arrays_mapped` changes anything here:
    the libc is glibc and ``environ`` sets none of its malloc tunables."""
    if platform.libc_ver()[0] != "glibc":
        return False
    if "glibc.malloc." in environ.get("GLIBC_TUNABLES", ""):
        return False
    return not any(name in environ for name in _USER_VARIABLES)


def keep_freed_arrays_mapped() -> bool:
    """Set glibc's mmap and trim thresholds for this process.

    Returns whether both were set; False, with nothing changed, where
    :func:`policy_applies` is False.
    """
    if not policy_applies(os.environ):
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # The trim threshold only after the mmap threshold took: set alone,
    # it would pin the mmap threshold at 128 KiB (a 32-bit glibc
    # rejects 32 MiB).
    return (
        mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
        and mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1
    )
