"""The three workloads: which parameter points each runs and how.

A point is the argument list shared by the four commands, e.g.
``["--family", "lqJacobi", "--type", "2", ...]``; an operation is one
command at one point.

- ``deep`` and ``type1`` are fixed points run cold: every command in its own
  fresh interpreter, as a command-line user runs them.
- ``sweep`` is 24 light points per session, one for each family x type x D,
  all four commands at every point in one long-lived interpreter, so caches
  carry over between commands and points; every session starts in a fresh
  interpreter.  The points come from a pool whose references were recorded
  once (``record_refs.py``); the seed picks which, for SWEEP_SESSIONS
  sessions that a run goes through in turn.
"""
from __future__ import annotations

import random
from fractions import Fraction

COMMANDS = ("construct", "verify", "table", "zeros")


def point(family: str, ctype: int, q, a, b, dset, nmax: int) -> list[str]:
    return [
        "--family", family, "--type", str(ctype),
        "--q", str(Fraction(q)), "--a", str(Fraction(a)), "--b", str(Fraction(b)),
        "--indices", ",".join(map(str, dset)), "--nmax", str(nmax),
    ]


# largest determinants (5x5 Bareiss), largest coefficients, zeros of degree
# 10-18 and the deformed residual checks; D={3,5,7,9} takes 16 s a pass,
# which leaves too few passes in a run
DEEP = point("lqJacobi", 2, "1/2", "1/3", "1/4096", (1, 3, 5, 7), 8)
# the type I engine and its Casoratian-level orthogonality weight
TYPE1 = point("lqJacobi", 1, "1/2", "1/64", "1/3", (2, 3, 4), 8)

SWEEP_BLOCKS = tuple((f, t) for f in ("lqJacobi", "lqLaguerre") for t in (1, 2))
SWEEP_DSETS = ((1,), (2,), (3,), (1, 2), (1, 3), (2, 3))
SWEEP_NMAX = 4
# distinct sessions in a sweep run; two fit in a 30 s run
SWEEP_SESSIONS = 2
# A point's cost grows steeply with q and with a / a_max (a_max = 1 for
# type II, q^(1+dmax) for type I): the orthogonality sums converge like
# (aq)^x.  Drawn freely, one costly point could double a session, and which
# D meets which q would move every per-command figure with the seed.  So q
# and a / a_max stay at most 1/2, and in every block (family x type) the i-th
# D set always gets the i-th (q, a band) shape; the seed draws a and b.
SWEEP_Q = ("1/4", "1/3", "1/2")
SWEEP_A_BANDS = (("0", "1/4"), ("1/4", "1/2"))
SWEEP_SHAPES = tuple((q, band) for q in SWEEP_Q for band in range(len(SWEEP_A_BANDS)))
SWEEP_CELLS = tuple((family, ctype, dset, shape) for family, ctype in SWEEP_BLOCKS
                    for dset, shape in zip(SWEEP_DSETS, SWEEP_SHAPES, strict=True))


def cell_key(family: str, ctype: int, dset, shape) -> str:
    q, band = shape
    return "%s|%d|%s|q=%s|band=%d" % (family, ctype, ",".join(map(str, dset)), q, band)


def sweep_sessions(rng: random.Random, pool: dict[str, list[list[str]]]) -> list[list[list[str]]]:
    """The 24 points of each of a sweep run's SWEEP_SESSIONS sessions, one
    per cell; within a cell every session gets another pool entry (the pool
    can hold a point more than once)."""
    picks = [rng.sample(pool[cell_key(*cell)], SWEEP_SESSIONS) for cell in SWEEP_CELLS]
    return [[entries[i] for entries in picks] for i in range(SWEEP_SESSIONS)]


def workload_passes(name: str, seed: int, pool: dict) -> list[list[list[str]]]:
    """The distinct passes of a run, each a list of points.  A run makes at
    least this many passes and then cycles through them until its time is
    up, so the operations it checks depend on the seed alone, not on how
    many passes fit in the time."""
    if name == "sweep":
        return sweep_sessions(random.Random(seed), pool)
    return [{"deep": [DEEP], "type1": [TYPE1]}[name]]


WORKLOADS = ("deep", "type1", "sweep")
COLD = ("deep", "type1")
