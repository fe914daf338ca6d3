"""Host fingerprint and the null fsync device the workloads run on.

A result is only comparable with another taken on the same class of
host, so every run records what it ran on: the CPU count, the Python
version, the filesystem of its run directory with that directory's
probed fsync latency, and a fixed pure-Python speed probe taken before
and after the run.  The probe makes a host regime switch visible in the
data; no metric is divided by it and no run is dropped because of it.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import platform
import statistics
import time
from pathlib import Path
from typing import Iterator

#: statfs(2) ``f_type`` magic numbers of the filesystems worth naming.
_FS_MAGIC = {
    0xEF53: "ext4",
    0x01021994: "tmpfs",
    0x58465342: "xfs",
    0x9123683E: "btrfs",
    0x794C7630: "overlayfs",
    0x6969: "nfs",
    0x2FC12FC1: "zfs",
    0x65735546: "fuse",
}

#: Iterations of the speed probe's loop (about 20 ms on a 2020s core).
_PROBE_LOOPS = 200_000


class _StatFs(ctypes.Structure):
    # Only f_type is read; the padding covers the rest of struct statfs.
    _fields_ = [("f_type", ctypes.c_long), ("_rest", ctypes.c_byte * 256)]


def filesystem_type(path: Path) -> str:
    """The filesystem holding ``path``, from statfs(2)'s magic number."""
    libc = ctypes.CDLL(None, use_errno=True)  # the interpreter's own libc
    libc.statfs.argtypes = [ctypes.c_char_p, ctypes.POINTER(_StatFs)]
    libc.statfs.restype = ctypes.c_int
    buf = _StatFs()
    if libc.statfs(os.fsencode(path), ctypes.byref(buf)) != 0:
        return "unknown"
    magic = buf.f_type & 0xFFFFFFFF
    return _FS_MAGIC.get(magic, f"0x{magic:x}")


def probe_fsync_ms(directory: Path, samples: int = 40) -> dict[str, float]:
    """p50/p90 latency of a 4 KiB write + fsync in ``directory``."""
    path = directory / "fsync-probe.bin"
    block = b"\0" * 4096
    latencies = []
    with open(path, "wb") as handle:
        for __ in range(samples):
            handle.write(block)
            handle.flush()
            started = time.perf_counter()
            os.fsync(handle.fileno())
            latencies.append((time.perf_counter() - started) * 1e3)
    path.unlink()
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {"p50": statistics.median(latencies), "p90": deciles[8]}


def speed_probe_ms() -> float:
    """Median of three timings of a fixed pure-Python loop."""
    timings = []
    for __ in range(3):
        started = time.perf_counter()
        acc = 0
        for i in range(_PROBE_LOOPS):
            acc = (acc * 31 + i) % 1_000_003
        timings.append((time.perf_counter() - started) * 1e3)
    return statistics.median(timings)


def fingerprint(run_dir: Path) -> dict[str, object]:
    """What this run ran on (taken before the workload starts)."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        cpus = os.cpu_count() or 0
    return {
        "nproc": cpus,
        "python": platform.python_version(),
        "run_dir_fs": filesystem_type(run_dir),
        "run_dir_fsync_ms": probe_fsync_ms(run_dir),
        "speed_probe_before_ms": speed_probe_ms(),
    }


def _null_fsync(fd: int) -> None:
    """fsync on a device with nothing to flush (what tmpfs does)."""
    if not isinstance(fd, int):
        raise TypeError(f"fsync expects a file descriptor, got {fd!r}")


@contextlib.contextmanager
def null_fsync() -> Iterator[None]:
    """Run the enclosed code on a null fsync device.

    This emulates a RAM-backed filesystem: the program still makes every
    fsync call (its counters still count them) but the call returns at
    once, as it does on tmpfs.  The benchmark may not write outside its
    checkout, so it cannot simply move the run directory to
    ``/dev/shm``.  On the checkout's disk, fsync latency moved the
    wall-clock metrics too much from run to run (README.md, "Fsync
    device").
    """
    real = os.fsync
    os.fsync = _null_fsync
    try:
        yield
    finally:
        os.fsync = real
