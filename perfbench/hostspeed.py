"""How fast the host runs Python right now, and timings scaled to a fixed speed.

A shared host runs the same code at speeds that differ by up to 2x, and
it switches between them within seconds or stays slow for minutes.  CPU
time slows with wall time, so neither clock tells a slower program from a
slower host.  So while the benchmark times calls, a timer signal runs one
unit of fixed calibration work every ``INTERVAL`` seconds, and each call is
scaled by the speed of the units that ran during it:

    reference time = wall time * units per second then / REF_UNITS_PER_S

A reference second is the time a call would take on a host that runs
``REF_UNITS_PER_S`` units a second: about the speed of a shared 2-vCPU
Linux VM with Python 3.11 when it is not slowed.  A unit is ``Fraction``
arithmetic, the same kind of interpreter work as the program's own, so
both slow down together.  Nothing in the
program can change the speed of a unit, and the units' own time is taken
out of the call's wall time.

Set-up time is mostly process start and imports, which slow down unlike
arithmetic does.  So a set-up is scaled instead by the start time of a
bare interpreter, measured just before and just after it, against
``REF_BARE_S``.
"""
from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

REF_UNITS_PER_S = 2500.0

#: seconds a bare interpreter (``python3 -c pass``) takes to start and exit
#: on the reference host
REF_BARE_S = 0.05

#: seconds between two calibration units while a ``Meter`` runs
INTERVAL = 0.01


def unit() -> Fraction:
    """One unit of calibration work: about 0.4 ms at the reference speed."""
    acc = Fraction(0)
    for i in range(1, 40):
        f = Fraction(i % 97 + 1, i % 89 + 2)
        acc = (acc + f * f) / (1 + Fraction(1, i))
    return acc


class Meter:
    """Samples the host's speed every ``INTERVAL`` seconds while entered.

    The samples run from a ``SIGALRM`` handler, so they land inside long
    calls as well as between short ones.  Use from the main thread only.
    """

    def __init__(self):
        self.ticks: list[tuple[float, float]] = []  # (start, end) of each unit
        self._old = None

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        unit()
        self.ticks.append((t0, perf_counter()))

    def __enter__(self) -> Meter:
        self._tick(signal.SIGALRM, None)  # so that every call has a sample before it
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def mark(self) -> tuple[int, float]:
        """Where a call starts; pass it to ``since`` when the call returns."""
        k = len(self.ticks)
        return k, perf_counter()

    def since(self, mark: tuple[int, float]) -> tuple[float, float]:
        """(wall, reference) seconds of the call that started at ``mark``.

        Units that ran inside the call are taken out of its wall time.  The
        speed is the mean over those units and the last one before the call,
        so a call shorter than the interval takes the speed just before it.
        """
        k, t0 = mark
        t1 = perf_counter()
        inside = [(a, b) for a, b in self.ticks[k:] if t0 <= a and b <= t1]
        wall = t1 - t0 - sum(b - a for a, b in inside)
        rates = [1 / (b - a) for a, b in self.ticks[k - 1:k] + inside]
        return wall, wall * (sum(rates) / len(rates)) / REF_UNITS_PER_S
