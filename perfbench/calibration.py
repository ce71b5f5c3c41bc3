"""Machine-speed calibration, timed beside the program.

On a shared machine the CPU speed a process gets drifts with the other
tenants' load: on a shared 2-core Intel Xeon machine, the same run took
anywhere from 6.2 s to 10.4 s within ten minutes, far more
than any regression bound can absorb. A fixed kernel of the same kind of
work as the program (small dense solves and elementwise updates driven
from Python, as in its interior-point loops) is timed around every run.
Each timing is then reported at the reference speed,

    reported = measured * REFERENCE_S / kernel

with ``kernel`` the mean of the kernel times taken right before and right
after a run (right after, for a set-up timing): the drift moves within
seconds, so a median over the whole run follows it much worse. The kernel is benchmark code, so no
change to the program moves it.
"""

import time

import numpy as np

# Typical kernel time on that machine; it only fixes the unit, any
# constant would do.
REFERENCE_S = 0.07
ITERATIONS = 2400


def _problem():
    rng = np.random.default_rng(20181130)
    return rng.standard_normal((48, 12))


_A = _problem()


def kernel_seconds():
    """Wall time of one fixed pass of the kernel."""
    A = _A
    x = np.zeros(A.shape[1])
    d = np.ones(A.shape[0])
    eye = np.eye(A.shape[1])
    t0 = time.perf_counter()
    for _ in range(ITERATIONS):
        M = (A.T * d) @ A + eye
        r = A.T @ (d - 0.1 * (A @ x))
        x = np.linalg.solve(M, r)
        d = 1.0 / (1.0 + (A @ x) ** 2)
    elapsed = time.perf_counter() - t0
    if not np.all(np.isfinite(x)):
        raise RuntimeError("calibration kernel diverged")
    return elapsed
