"""Calibrated timing of one operation against the reference loop.

The machine this benchmark was written on switches between speed states
that last from a tenth of a second to a few seconds (on a 2-CPU shared
host the same loop took 5 and 9 µs per step minutes apart, with CPU time
equal to wall time).  A reference loop timed once per round therefore
misjudges the speed a decode actually ran at.  ``Clock.measure`` instead
samples the speed *during* the operation: a SIGALRM timer runs a short probe
of the reference loop every ``PROBE_INTERVAL_S`` inside the operation, and
one longer probe runs on each side of it.  The probes' time is subtracted
from the operation's, and the operation's cost is its remaining time divided
by the mean probe step.
"""

from __future__ import annotations

import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass

from reference import ReferenceLoop

EDGE_STEPS = 512
PROBE_STEPS = 32
PROBE_INTERVAL_S = 0.005


@dataclass
class Timing:
    seconds: float = 0.0  # wall time of the operation, probes excluded
    step: float = 0.0  # seconds per reference step while it ran

    @property
    def cost(self) -> float:
        """The operation's time in reference steps."""
        return self.seconds / self.step


class Clock:
    def __init__(self, probes: bool = True) -> None:
        """With ``probes=False`` only the edge probes run, so that nothing
        interrupts the operation (the traced run attributes every
        microsecond inside it to a layer)."""
        self.loop = ReferenceLoop()
        self.probes = probes
        self._ref_s = 0.0
        self._ref_steps = 0
        self._probe_wall = 0.0

    def _probe(self, signum, frame) -> None:
        start = time.perf_counter()
        self._ref_s += self.loop.run(PROBE_STEPS)
        self._ref_steps += PROBE_STEPS
        self._probe_wall += time.perf_counter() - start

    @contextmanager
    def measure(self):
        timing = Timing()
        self._ref_s = self.loop.run(EDGE_STEPS)
        self._ref_steps = EDGE_STEPS
        self._probe_wall = 0.0
        if self.probes:
            previous = signal.signal(signal.SIGALRM, self._probe)
            signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        start = time.perf_counter()
        try:
            yield timing
        finally:
            elapsed = time.perf_counter() - start
            if self.probes:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            self._ref_s += self.loop.run(EDGE_STEPS)
            self._ref_steps += EDGE_STEPS
            timing.seconds = elapsed - self._probe_wall
            timing.step = self._ref_s / self._ref_steps
