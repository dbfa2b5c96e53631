"""Rescales wall time to a fixed machine speed, from inside the measured process.

On a host shared with other tenants the speed of a vCPU changes within
milliseconds and drifts over minutes (1.5x and more), so the same cold run
takes very different wall times.  While a measurement runs, an interval
timer interrupts it after every INTERVAL_S of its wall time and runs one gauge
piece: a fixed, stdlib-only kernel (rational polynomial products, like
askeykit's hot path, but independent of askeykit, so no change to the
package moves it).  Each stretch of the measured code lies between two
gauge pieces; it is divided by their mean time and multiplied by REF_S,
the time one gauge piece takes on the reference machine.  The sum is the
measurement's time on a machine running at the reference speed, in
seconds.  The gauge pieces themselves are left out of every time.
"""

from __future__ import annotations

import gc
import signal
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.01
# One gauge piece on a 2-vCPU KVM guest (Sapphire Rapids, CPython 3.11) at
# its fast state; only the scale of the rescaled times depends on it.
REF_S = 3.0e-4
SIZE = 9  # polynomial length in the gauge kernel


def kernel(k: int) -> list:
    """The gauge piece: one product of two rational polynomials of length SIZE."""
    a = [Fraction(3 * i + k + 1, 7 * i + 5) for i in range(SIZE)]
    b = [Fraction(i * i - 11, 2 * i + 3 + k) for i in range(SIZE)]
    out = [Fraction(0)] * (2 * SIZE - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class Gauge:
    """Gauge pieces before, during (every INTERVAL_S) and after a measurement."""

    def __init__(self):
        self.pieces = []  # (start, end) of every gauge piece
        self.active = False

    def _piece(self) -> None:
        enabled = gc.isenabled()
        gc.disable()  # the kernel's garbage never triggers the program's collections
        start = perf_counter()
        kernel(len(self.pieces))
        self.pieces.append((start, perf_counter()))
        if enabled:
            gc.enable()

    def _on_alarm(self, signum, frame) -> None:
        # A signal that arrived just before __exit__ disarmed the timer can be
        # handled after it; it must not arm the timer again.
        if self.active:
            self._piece()
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def __enter__(self) -> "Gauge":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._piece()
        self.active = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        self.active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._piece()

    def wall_s(self) -> float:
        """Wall time between the first and the last gauge piece, without the pieces."""
        return sum(b[0] - a[1] for a, b in zip(self.pieces, self.pieces[1:]))

    def rescaled_s(self) -> float:
        """wall_s at the reference speed."""
        total = 0.0
        for a, b in zip(self.pieces, self.pieces[1:]):
            gauge = (a[1] - a[0] + b[1] - b[0]) / 2
            total += (b[0] - a[1]) / gauge
        return total * REF_S
