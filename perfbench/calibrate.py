"""Machine-speed calibration.

The reference machine, a shared 2-core x86-64 VM, shares its cores
with other tenants, and its speed drifts by 20-60% over seconds to
minutes.  CPU time drifts with wall time, so the slowdown is in the
core itself, not in scheduling.  Raw op times therefore spread by up to
20-30% between runs of the same code.

A fixed probe that does not touch bift, timed between ops, tracks that
drift.  Each op's wall time is rescaled by ``REFERENCE_S / median of
the probes taken within a second of the op``, which gives its time at
reference speed.  Over two sets of ten runs per workload, the quartile
spread of median latency was 0.05-0.21 raw and 0.015-0.077 at reference
speed (perfbench/NOTES.md).  The raw values are kept in the result detail.

The probe mixes the kinds of work bift does: float formatting and list
building as in the report serializer, dict inserts as in report
assembly, small Hermitian eigensolves and short streaming array passes.
It makes no multi-threaded BLAS call, so it measures the core and not
BLAS thread scheduling.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Probe time at reference speed: about its median on the reference
# machine.  Only the scale of the reported numbers
# depends on it.
REFERENCE_S = 2.0e-3

_rng = np.random.default_rng(12345)
_ROWS = _rng.random((20, 50)).tolist()
_HERM = [_rng.standard_normal((8, 8)) for _ in range(4)]
_STREAM = _rng.random(1 << 16)


def probe() -> float:
    """Seconds for one fixed unit of mixed work."""
    t0 = time.perf_counter()
    out = []
    for row in _ROWS:
        for x in row:
            out.append("    " + f"{x:.15g}" + ",\n")
    "".join(out)
    table = {}
    for i in range(300):
        table[f"k{i}"] = i
    for herm in _HERM:
        np.linalg.eigh(herm + herm.T)
    for _ in range(2):
        np.sum(np.where(_STREAM > 0.5, _STREAM * _STREAM, 0.0))
    return time.perf_counter() - t0


def speed_factor() -> float:
    """Reference-speed factor from five probes taken now."""
    return REFERENCE_S / statistics.median(probe() for _ in range(5))


class SpeedGauge:
    """Probe samples taken between ops, at most one per ``EVERY`` seconds
    so the probe stays a small share of a run."""

    EVERY = 0.05
    WINDOW = 1.0

    def __init__(self):
        self.times: list[float] = []
        self.seconds: list[float] = []
        self._last = -float("inf")

    def maybe_sample(self) -> None:
        now = time.perf_counter()
        if now - self._last >= self.EVERY:
            self.times.append(now)
            self.seconds.append(probe())
            self._last = time.perf_counter()

    def factor_at(self, t: float) -> float:
        """Multiply raw seconds at time ``t`` by this to get seconds at
        reference speed.  Uses the probes within ``WINDOW`` seconds of
        ``t``, or the nearest four when fewer are that close."""
        lo = bisect.bisect_left(self.times, t - self.WINDOW)
        hi = bisect.bisect_right(self.times, t + self.WINDOW)
        if hi - lo < 3:
            i = bisect.bisect_left(self.times, t)
            lo, hi = max(0, i - 2), min(len(self.times), i + 2)
        return REFERENCE_S / statistics.median(self.seconds[lo:hi])

    def rescale(self, latencies: list[float], starts: list[float]) -> list[float]:
        return [x * self.factor_at(t) for x, t in zip(latencies, starts)]
