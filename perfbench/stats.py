"""Latency summaries and the environment record every output carries."""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time
from pathlib import Path

#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10

#: Normalized times read as if the calibration kernel took exactly this long.
CAL_REF_NS = 5_000_000
#: The kernel's array matches the 18-qubit state of the largest workload.
_CAL_AMPS = 1 << 18


def calibration_ns() -> int:
    """Wall time of a fixed kernel: interpreter work plus a numpy gather and
    scatter over a 4 MiB amplitude array, about 5 ms on the reference host.

    The benchmark runs it between ops.  Host speed on a shared VM drifts by
    up to 2x over seconds to minutes, and this kernel slows down with it;
    it runs no qaccel code, so a change to the program cannot move it.
    """
    import numpy as np

    amps = np.zeros(_CAL_AMPS, dtype=np.complex128)
    amps[::16] = 1.0
    start = time.perf_counter_ns()
    acc = 0
    table = {}
    for k in range(6_000):
        acc += k * k
        table[k & 255] = acc
    nz = np.flatnonzero(amps)
    out = np.zeros_like(amps)
    out[nz ^ 1] += amps[nz] * 0.5
    return time.perf_counter_ns() - start


def p50(samples: list[float]) -> float:
    return statistics.median(samples)


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, sample count).  The sorted sample at index i
    has n-1-i samples beyond it, so the answer is index n-1-TAIL_BEYOND, the
    nearest-rank percentile 100*(n-TAIL_BEYOND)/n.  With too few samples
    for any such percentile the maximum is returned as percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    i = n - 1 - TAIL_BEYOND
    if i < 0:
        return ordered[-1], 100.0, n
    return ordered[i], 100.0 * (i + 1) / n, n


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> dict:
    import numpy as np

    info: dict = {"env": {k: os.environ[k] for k in
                          ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
                          if k in os.environ}}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"] = deps.get("name")
        info["version"] = deps.get("version")
    except (KeyError, TypeError, ValueError):
        pass
    info["threads"] = _openblas_threads(Path(np.__file__).parent.parent / "numpy.libs")
    return info


def _openblas_threads(libs: Path) -> int | None:
    """Thread count of the OpenBLAS bundled with numpy wheels, if any."""
    import ctypes

    for lib in sorted(libs.glob("libscipy_openblas*")):
        try:
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.argtypes = []
        fn.restype = ctypes.c_int
        return int(fn())
    return None


def environment(root: Path) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "blas": _blas(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "git_commit": _git_commit(root),
    }
