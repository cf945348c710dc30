"""Host-speed calibration for the end-to-end times.

On a shared virtual machine the same work can run up to 2x slower for
stretches longer than a run, so raw times from two runs differ by more than
the changes they should tell apart.  Between operations the loop times a
fixed calibration unit: benchmark code only, built from the kinds of work the
program does: Python arithmetic, 4 x 4 complex determinants and einsum
contractions, and arithmetic on a complex vector.  An operation's host factor
is the median time of the units taken around it divided by NOMINAL_S, and its
time is divided by that.  The end-to-end times thus read as times on a host
where the unit takes NOMINAL_S.
"""
from __future__ import annotations

import bisect
import statistics

import numpy as np

NOMINAL_S = 8.5e-4     # unit time on the unloaded 2-core x86-64 VM it was tuned on
CAL_EVERY_S = 0.05     # one unit owed per this much loop time, about 2% extra work
MAX_BURST = 20
WINDOW_S = 0.25        # units this close to an operation judge the host it ran on

_rng = np.random.default_rng(0)
_MATS = _rng.standard_normal((32, 4, 4)) + 1j * _rng.standard_normal((32, 4, 4))
_C3 = _rng.standard_normal((4, 4, 4)) + 1j * _rng.standard_normal((4, 4, 4))
_W = _rng.standard_normal(4) + 1j * _rng.standard_normal(4)
_VEC = _rng.standard_normal(8192) + 1j * _rng.standard_normal(8192)


def unit() -> complex:
    """The fixed calibration work, three parts of about equal time: Python
    arithmetic, small LAPACK and einsum calls, and vector arithmetic."""
    x = 0.0
    for i in range(5000):
        x = x * 0.5 + i
    acc = complex(x)
    for m in _MATS:
        acc += np.linalg.det(m)
        acc += complex(np.einsum("abc,a,b,c->", _C3, _W, _W, _W))
    z = _VEC
    for _ in range(3):
        z = z * _VEC + _VEC
        z = z / (np.abs(z) + 1)
    return acc + complex(z[0])


class Calibrator:
    """Unit times taken between operations, with the clock time each ended."""

    def __init__(self, clock):
        self.clock = clock
        self.samples: list[tuple[float, float]] = []

    def maybe_sample(self) -> None:
        """Take the units owed: one per CAL_EVERY_S since the last one, at
        least one at the start and at most MAX_BURST at once, so that a long
        operation is followed by enough units to judge the host it ran on."""
        owed = 1 if not self.samples else \
            int((self.clock() - self.samples[-1][0]) / CAL_EVERY_S)
        for _ in range(min(owed, MAX_BURST)):
            t0 = self.clock()
            unit()
            t1 = self.clock()
            self.samples.append((t1, t1 - t0))

    def factor(self, start: float, end: float) -> float:
        """Host factor of an operation or set-up probe that ran from
        ``start`` to ``end``: the median time of the units taken within
        WINDOW_S of it, and of the last one before that, over NOMINAL_S."""
        times = [t for t, _ in self.samples]
        lo = max(bisect.bisect_left(times, start - WINDOW_S) - 1, 0)
        hi = bisect.bisect_right(times, end + WINDOW_S)
        return statistics.median(s for _, s in self.samples[lo:hi]) / NOMINAL_S
