"""Fixed reference kernel that turns wall times into drift-corrected times.

The machine this benchmark runs on changes speed: the same cold command can
take 40% longer one minute than the next, process CPU time moves with wall
time, and each worker may land on a virtual CPU in a faster or slower state.
Each worker therefore runs a window of this kernel immediately before and
after every timed call (in a long-lived session, around every few points'
calls), and a call's time is reported as
``wall * NOMINAL_REF_S / mean(window before, window after)``.  A window is
REF_RUNS kernel runs and reports their mean run time.

The kernel is pure stdlib ``Fraction`` arithmetic, the same instruction mix
as littleq's exact ring (big-integer products and gcds), and never touches
littleq, so a change to littleq cannot change it.  Changing the kernel,
REF_RUNS or ``NOMINAL_REF_S`` changes every corrected metric: do none of
these without measuring a new baseline.
"""
from __future__ import annotations

import time
from fractions import Fraction

NOMINAL_REF_S = 0.04
"""Scale of corrected times: a corrected time is what the call would take on
a machine where one kernel run takes exactly this long."""

_A = [Fraction(3 * i + 1, 7 * i + 5) for i in range(40)]
_B = [Fraction(5 * i + 2, 11 * i + 3) for i in range(40)]
_REPEATS = 4
REF_RUNS = 4


def ref_kernel() -> list[Fraction]:
    """Product of two 40-term polynomials with Fraction coefficients, 4 times."""
    out: list[Fraction] = []
    for _ in range(_REPEATS):
        out = [Fraction(0)] * (len(_A) + len(_B) - 1)
        for i, a in enumerate(_A):
            for j, b in enumerate(_B):
                out[i + j] += a * b
    return out


def timed_ref() -> float:
    """Mean wall time of one kernel run over a window of REF_RUNS runs, in seconds."""
    start = time.perf_counter()
    for _ in range(REF_RUNS):
        ref_kernel()
    return (time.perf_counter() - start) / REF_RUNS


def speed_factor(windows: list[float]) -> float:
    """Factor that rescales a wall time measured between ``windows`` (window
    times, in seconds) to the nominal machine speed."""
    return NOMINAL_REF_S * len(windows) / sum(windows)
