"""Timing scaled to a reference speed of the core.

On a shared host the speed of a core swings by up to 2x with other
tenants' load, for tens of milliseconds or for minutes at a time.  A
fixed reference loop, timed every INTERVAL_S while the benchmark runs,
tracks that speed: the loop does the same kind of pure-Python work as
cellres (small objects with slots, tuple comprehensions, generator
tests, tuple-keyed dicts and sets, sorting, integer arithmetic) and none
of cellres's code, so no change to the package moves it.

``ScaledClock.now()`` counts the seconds the process spent outside the
loop, each stretch scaled by REFERENCE_S over the loop time measured at
its start: the time the work would have taken at the reference speed.
REFERENCE_S is the loop's time on an unslowed core of the baseline host
(a 2.1 GHz Xeon vCPU, Python 3.11), so on that host scaled seconds read
like seconds measured when nothing else runs.

The loop is timed from a SIGALRM handler, so it also runs inside long
calls such as one ``cellres verify`` or ``gen_corpus()``.
"""

import signal
from time import perf_counter

REFERENCE_S = 0.00072
ROUNDS = 2
INTERVAL_S = 0.01


class _Vec:
    __slots__ = ("e",)

    def __init__(self, e):
        e = tuple(int(a) for a in e)
        if any(a < 0 for a in e):
            raise ValueError(e)
        self.e = e

    def lcm(self, other):
        return _Vec(max(a, b) for a, b in zip(self.e, other.e))

    def divides(self, other):
        return all(a <= b for a, b in zip(self.e, other.e))


_BASE = [_Vec((i * 7 + j * 3) % 4 for j in range(8)) for i in range(12)]


def _loop():
    seen = {}
    for i, u in enumerate(_BASE):
        for v in _BASE[i:]:
            w = u.lcm(v)
            key = w.e
            seen[key] = seen.get(key, 0) + sum(key) * (i + 1)
    ordered = sorted(seen, key=lambda k: (sum(k), k))
    below = {k for k in ordered if _Vec(k).divides(_BASE[0].lcm(_BASE[-1]))}
    return len(ordered) + len(below) + sum(seen.values()) % 7


def speed(rounds=ROUNDS):
    """Seconds for `rounds` runs of the reference loop."""
    t0 = perf_counter()
    for _ in range(rounds):
        _loop()
    return perf_counter() - t0


class ScaledClock:
    """Scaled seconds of work, with the reference loop timed every
    INTERVAL_S of wall time while the clock is entered as a context
    manager."""

    def __init__(self):
        self.loops = []  # every reference-loop time, in order
        self._scaled = 0.0
        self._factor = 1.0
        self._since = perf_counter()
        self._busy = False
        self._previous = None

    def _calibrate(self):
        self._scaled += (perf_counter() - self._since) * self._factor
        loop = speed()
        self.loops.append(loop)
        self._factor = REFERENCE_S / loop
        self._since = perf_counter()

    def _on_alarm(self, signum, frame):
        if not self._busy:
            self._busy = True
            try:
                self._calibrate()
            finally:
                self._busy = False

    def __enter__(self):
        self._calibrate()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def now(self):
        """Scaled seconds of work so far; only differences mean anything."""
        while True:
            seen = len(self.loops)
            value = self._scaled + (perf_counter() - self._since) * self._factor
            if len(self.loops) == seen:  # no calibration ran meanwhile
                return value
