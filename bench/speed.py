"""Machine-speed probe for normalising times on a shared, noisy host.

On a host whose cores are shared with other tenants the same job can take
1.1 s in one minute and 1.8 s in the next (measured with `adskg verify all`
on a shared 2-vCPU Xeon host).  The benchmark therefore runs a fixed probe
before and after every job, outside the timed region, and reports each job
time scaled by REF_S / (probe time around that job): seconds at the speed
at which the probe takes REF_S.  The probe mixes the kinds of work the jobs
do and never calls adskg, so a change to adskg moves the scaled times fully.
"""

from __future__ import annotations

import time

import numpy as np

REF_S = 0.016                # probe time on the reference host (2-vCPU Xeon, idle)
_SMALL = np.linspace(0.1, 1.0, 7)
_LARGE = np.exp(1j * np.linspace(0.0, 1.0, 131072))   # 2 MiB, one core's L2


def probe() -> float:
    """Wall seconds of one fixed mix, in about equal shares of time, of
    scalar Python arithmetic (as in the series loops), numpy calls on
    scalars (as in pointwise synthesis) and complex array updates (as in
    grid sampling)."""
    t0 = time.perf_counter()
    for _ in range(36):
        term = total = 1.0
        for k in range(600):
            term *= (2.3 + k) * (-1.7 + k) / ((3.1 + k) * (k + 1.0)) * 0.6
            total += term
    acc = 0j
    for i in range(5000):
        acc += np.exp(1j * 0.3 * i) * np.cos(_SMALL[i % 7]) ** 2
    grid = np.zeros_like(_LARGE)
    for i in range(6):
        grid += (0.5 + i) * _LARGE * _LARGE
    return time.perf_counter() - t0


class SpeedLog:
    """A probe before every job and one after the last; a job's scale
    factor comes from the probes on either side of it."""

    def __init__(self):
        self.probes: list[float] = []

    def before_job(self) -> int:
        """Take the probe that precedes a job; returns its index."""
        self.probes.append(probe())
        return len(self.probes) - 1

    def close(self):
        self.probes.append(probe())

    def scale(self, index: int) -> float:
        """REF_S over the mean of the probes around the job."""
        around = self.probes[index:index + 2]
        return REF_S / (sum(around) / len(around))
