"""Benchmark of the ZipServ reproduction: codec speed, simulator speed and
simulated serving results, on four seeded workloads.

Run from the repository root::

    python3 perfbench/run.py --workload colocated_saturated --seed 1 \\
        --seconds 20 --trace 0

Workloads: ``colocated_saturated``, ``fleet_sessions_traced``,
``capacity_auto_codec``, ``codec_roundtrip`` (see ``perfbench/DESIGN.md``).
``--trace 1`` makes the per-layer run instead of the end-to-end one.
Pure Python over ``src/`` and ``benchmarks/``; nothing to build.
"""

import ctypes
import os
import sys
from pathlib import Path

# glibc mallopt() parameters.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _prepare() -> None:
    # BLAS/OpenMP threads are capped at the CPUs this process may use,
    # before numpy is first imported.
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = threads
    here = Path(__file__).resolve().parent
    root = here.parent
    sys.path[:0] = [str(root / "src"), str(root / "benchmarks"), str(here)]
    _steady_malloc()


def _steady_malloc() -> None:
    """Keep freed heap memory in the process and serve every allocation
    under 16 MiB from the heap.  With glibc's defaults, whether a codec's
    temporary arrays come back as fresh pages depends on what the process
    allocated and freed before: after a serve run, TCA-TBE decodes took
    five times the page faults and ran 30% slower.  Does nothing where
    ``mallopt`` is missing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(_M_TRIM_THRESHOLD, 1 << 30)
    mallopt(_M_MMAP_THRESHOLD, 16 << 20)


if __name__ == "__main__":
    _prepare()
    from harness import main

    raise SystemExit(main())
