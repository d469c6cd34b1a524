"""Host-speed probe: a fixed reference loop timed around and during a measurement.

The CPU speed of a shared host changes by up to about 1.7x, for seconds to
minutes at a time, whatever the program does, so wall times taken minutes
apart spread by up to 30%. A measurement is therefore taken together with
timings of a reference loop on the same CPU: before it, after it, and every
PROBE_PERIOD_S seconds during it (on SIGALRM, in the measuring thread). Its
nominal time is its wall time, less the time of those samples, times the
mean of REFERENCE_S / (reference time): the time it would have taken at the
speed at which the loop takes REFERENCE_S.
"""

from __future__ import annotations

import contextlib
import signal
import time

PROBE_PERIOD_S = 0.2
REFERENCE_ITERATIONS = 1_500
REFERENCE_S = 1.3e-3   # one loop at full speed on a 2.1 GHz Xeon VM (Python 3.11)


def reference_loop() -> float:
    """Small frozensets, dict comprehensions and float products, like the
    package's closed forms, so its time tracks theirs when the host slows."""
    out = []
    for i in range(REFERENCE_ITERATIONS):
        members = frozenset((i % 13, i % 7, i % 5))
        share = {m: m * 0.5 for m in members}
        out.append(sum(share.values()) * (1.0 - 0.3))
    return sum(out)


def nominal_seconds(wall: float, refs) -> float:
    """`wall` rescaled to full host speed, from the reference times `refs`."""
    return wall * REFERENCE_S * sum(1.0 / r for r in refs) / len(refs)


class SpeedProbe:
    """Reference-loop timings taken around and during one measurement."""

    def __init__(self) -> None:
        self.refs: list[float] = []
        self.paused = 0.0   # seconds spent in samples since during() began

    def sample(self, *_) -> None:
        start = time.perf_counter()
        reference_loop()
        took = time.perf_counter() - start
        self.refs.append(took)
        self.paused += took

    @contextlib.contextmanager
    def during(self):
        self.paused = 0.0
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
