"""Fixed loops of the benchmark's own code that time the machine's speed.

The host this benchmark runs on shares its cores' caches and execution units
with other guests, so the same pass runs up to 1.9 times slower from one
second to the next, and a whole run can fall in a slow phase.  The worker
times one of these loops after every pass.  A loop does the same work every
time and never calls ``cavity_rpm``, so its time moves only with the
machine, and the ratio of a pass to the loops beside it is the pass's cost
at a fixed speed.  Each loop exercises the kind of work that dominates the
workloads it calibrates (see ``workloads.CALIBRATION``), since the slow
phases slow interpreted code, small-array NumPy, large-array exponentials
and large LAPACK solves by different factors.

``REFERENCE_S`` converts a ratio back to seconds: it is each loop's median
time on the machine whose figures README.md gives, so a calibrated time
reads as the seconds the pass takes there at that loop's median speed.
"""

from __future__ import annotations

import time

import numpy as np

_VECTOR = np.linspace(-1.0, 1.0, 4001)
_TIMES = np.linspace(0.0, 50.0, 8192)
_ENERGIES = np.linspace(-3.0, 3.0, 101)
_rng = np.random.default_rng(0)
_TRIDIAGONAL = (_rng.standard_normal(2000), _rng.standard_normal(1999))


def python_loop():
    """Interpreted integer arithmetic, as in argument parsing and formatting."""
    total = 0
    for i in range(300_000):
        total += i * i % 7
    return total


def numpy_loop():
    """Elementwise arithmetic on a 4001-point array, as in the recursion."""
    y = _VECTOR.copy()
    for _ in range(2500):
        y = y * 0.999 + 1.0 / (y + 3.0)
    return y


def exp_loop():
    """Complex exponentials of an 8192 x 101 outer product, as in time synthesis."""
    for _ in range(3):
        phases = np.exp(-1j * np.outer(_TIMES, _ENERGIES))
    return phases.sum(axis=1)


def lapack_loop():
    """Eigenvalues and eigenvectors of one fixed 2000 x 2000 tridiagonal matrix."""
    import scipy.linalg  # here, so workloads that never use it do not pay for it

    return scipy.linalg.eigh_tridiagonal(*_TRIDIAGONAL)


LOOPS = {"python": python_loop, "numpy": numpy_loop, "exp": exp_loop,
         "lapack": lapack_loop}

# median seconds of each loop on the machine of README.md's figures
REFERENCE_S = {"python": 0.0368, "numpy": 0.0370, "exp": 0.120, "lapack": 0.0775}


def time_loop(kind: str) -> list[float]:
    """``[wall_s, cpu_s]`` of one run of the loop of ``kind``."""
    loop = LOOPS[kind]
    w0, c0 = time.perf_counter(), time.process_time()
    loop()
    return [time.perf_counter() - w0, time.process_time() - c0]
