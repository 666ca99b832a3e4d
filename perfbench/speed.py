"""Host-speed reference: corrects op times for the host's changing speed.

On a shared host the same code runs 20-80% slower for seconds or
minutes at a time while other tenants load the physical cores (this
shows in process CPU time as well as wall time, so it is not time spent
descheduled).  The benchmark therefore times a fixed pure-Python
reference loop, :func:`reference`, right before the ops, and scales each
op's CPU time by ``REFERENCE_S / (the reference's latest CPU time)``:
the op's time at the speed the host has when uncontended.  The
reference uses nothing from the repository, so no change to the
program under test can move it.
"""
from __future__ import annotations

import difflib
import time

#: CPU time of :func:`reference` on an uncontended host (Intel Xeon,
#: 2 vCPUs, Python 3.11); sets the scale of every corrected time.
REFERENCE_S = 0.0038
#: a probe runs before an op once this much CPU time has passed since
#: the previous probe (speed shifts last seconds, ops take 0.2 ms-1 s).
PROBE_EVERY_S = 0.05
_A = "the quick brown fox jumps over the lazy dog " * 6
_B = "the quick brown cat jumps over the lazy dogs " * 6


def reference() -> float:
    """Pure-Python standard-library work (``difflib`` sequence
    matching: calls, attribute lookups, dicts, lists, small ints).  Of
    the loops tried, its time tracked the host's speed changes closest
    on all three workloads."""
    total = 0.0
    for _ in range(15):
        total += difflib.SequenceMatcher(None, _A, _B).ratio()
        total += difflib.SequenceMatcher(None, _B, _A).ratio()
    return total


class SpeedProbe:
    """The host's current speed, as a factor that turns a measured CPU
    time into the time the host would take uncontended."""

    def __init__(self) -> None:
        self.factor = 1.0
        self._last = None

    def probe(self) -> None:
        start = time.process_time()
        reference()
        self._last = time.process_time()
        self.factor = REFERENCE_S / (self._last - start)

    def refresh(self) -> None:
        """Probe if the last probe is more than PROBE_EVERY_S old."""
        if self._last is None or (
            time.process_time() - self._last >= PROBE_EVERY_S
        ):
            self.probe()


def fastest_reference() -> float:
    """The least CPU time of five reference loops: the speed probe of a
    process that just started, whose first loops also pay for growing
    its heap."""
    best = float("inf")
    for _ in range(5):
        start = time.process_time()
        reference()
        best = min(best, time.process_time() - start)
    return best
