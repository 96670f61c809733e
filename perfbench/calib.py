"""Machine-speed calibration.

The benchmark runs on shared hosts whose speed drifts: on a 2-vCPU cloud VM
the same `simulate` job took 16 to 31 ms in successive 2-second windows,
with process CPU time tracking wall time, so the drift is the host, not the
job.  A fixed kernel of the operations swposobs spends its time in (small
numpy products, float formatting, dict and list work) runs before every job.
Reported times are wall times scaled to a reference speed at which one
kernel sample takes ``REF_S``: each time is multiplied by ``REF_S`` over the
median of the kernel samples taken around it.  On that VM the ratio of job
to kernel time held within a few percent while raw times moved by 50%.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_S = 4e-3
# Kernel samples on each side of a job whose median scales it.
WINDOW = 1

_A = np.arange(400.0).reshape(20, 20) / 400.0


def sample() -> float:
    """Seconds one kernel run takes now."""
    start = time.perf_counter()
    z = np.ones(20)
    acc = 0
    for _ in range(200):
        z = _A @ z
        z = z / z.max()
        acc += len(",".join([f"{v:.12e}" for v in z[:10]]))
        acc += sum({j: 2 * j for j in range(10)}.values())
    return time.perf_counter() - start


def scale(seconds: list, cals: list) -> list:
    """Scale each time by REF_S over the median calibration of its neighbourhood."""
    return [s * REF_S / statistics.median(cals[max(0, i - WINDOW):i + WINDOW + 1])
            for i, s in enumerate(seconds)]
