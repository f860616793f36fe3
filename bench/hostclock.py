"""A clock that runs at the host's unimpeded speed.

On a shared host a vCPU runs at full speed most of the time and at about
half speed for stretches of a few seconds, when something else holds the
physical core.  Wall time then measures the neighbours as much as the
program.  This clock takes a timer signal every ``PERIOD_S`` seconds and, in
the handler, times a fixed piece of exact rational arithmetic (the *probe*)
on the same thread.  The slice of time since the previous probe is scaled by
``NOMINAL_PROBE_S`` over the probe's time, so a slice run at half speed
counts half.  Time spent in the probes themselves is left out.

The probe is rational arithmetic because it slows down under contention as
chainflow does.  A bare integer loop was tried first: under load it slowed
less than the program, so the scaled times still rose with the load.

The reading is in seconds at the speed where the probe takes
``NOMINAL_PROBE_S``, its typical time on the unloaded 2-core x86-64 host the
benchmark was written on.  On another machine the readings differ by a
constant factor, so compare them only with readings from the same machine.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

PERIOD_S = 0.02
PROBE_TERMS = 40
WARM_TERMS = 10
NOMINAL_PROBE_S = 80e-6


def _harmonic(terms: int) -> float:
    """Seconds to sum the first ``terms`` terms of the harmonic series
    exactly."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, terms):
        acc += Fraction(1, i)
    return time.perf_counter() - t0


def _probe() -> float:
    """The probe's time, independent of the program it interrupts: the
    garbage collector is off, so a collection of the program's heap is not
    charged to the probe, and a short untimed sum first brings the probe's
    code back into the caches."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _harmonic(WARM_TERMS)
        return _harmonic(PROBE_TERMS)
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """Host-speed time since ``start()``; ``now()`` reads it."""

    def __init__(self):
        self.scaled = 0.0     # scaled seconds up to ``last_t``
        self.last_t = None    # end of the latest probe
        self.speed = 1.0      # NOMINAL_PROBE_S / latest probe time
        self.probes = 0

    def start(self):
        self.last_t = time.perf_counter()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.speed = NOMINAL_PROBE_S / _probe()
        self.scaled += (t0 - self.last_t) * self.speed
        self.last_t = time.perf_counter()
        self.probes += 1

    def now(self) -> float:
        """Scaled seconds since ``start()``; the time since the latest probe
        is scaled by that probe's speed."""
        return self.scaled + (time.perf_counter() - self.last_t) * self.speed
