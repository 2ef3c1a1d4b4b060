"""Draw the sweep pool and record the reference outputs of every point.

Run from the repository root, at the commit whose outputs are the reference:

    PYTHONPATH=src python3 qbench/record_refs.py

It writes ``qbench/refs.json``: the sweep pool (POOL_PER_CELL points for each
family x type x D x shape cell) and, for every point of every workload, the
canonical form (``check.canonical``) of each command's result.  A command
that raises records ``null``: the benchmark then counts it as a failed
operation for as long as it keeps raising.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from check import canonical
from workloads import (
    COMMANDS, DEEP, SWEEP_A_BANDS, SWEEP_CELLS, SWEEP_NMAX, TYPE1, cell_key, point,
)

POOL_SEED = 2402
POOL_PER_CELL = 6
REFS = Path(__file__).resolve().parent / "refs.json"


def _is_power(x: Fraction, q: Fraction) -> bool:
    return any(x == q ** m for m in range(-64, 65))


def draw_point(rng: random.Random, family: str, ctype: int, dset, shape) -> list[str]:
    """One point of a cell, drawn like ``littleq.verify._random_valid_params``
    with a / a_max inside the shape's band.

    Only the two coincidences the README documents are redrawn: b = q^j and
    b = a q^m.  Everything else the strict ranges accept is kept, including
    a = q for type II.
    """
    q = Fraction(shape[0])
    low, high = (Fraction(x) for x in SWEEP_A_BANDS[shape[1]])
    dmax = max(dset)
    while True:
        aden, bden = rng.randint(3, 13), rng.randint(3, 13)
        afrac = Fraction(rng.randint(1, aden - 1), aden)
        bfrac = Fraction(rng.randint(1, bden - 1), bden)
        if not low < afrac <= high:
            continue
        if ctype == 1:
            a, b = afrac * q ** (1 + dmax), bfrac
        else:
            a, b = afrac, bfrac * q ** (1 + dmax)
        if family == "lqLaguerre":
            b = Fraction(0)
        elif _is_power(b, q) or _is_power(b / a, q):
            continue
        return point(family, ctype, q, a, b, dset, SWEEP_NMAX)


def draw_pool() -> dict[str, list[list[str]]]:
    rng = random.Random(POOL_SEED)
    return {cell_key(*cell): [draw_point(rng, *cell) for _ in range(POOL_PER_CELL)]
            for cell in SWEEP_CELLS}


def record(argv: list[str], cli) -> dict:
    """Canonical result of each command at one point."""
    refs = {}
    for command in COMMANDS:
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([command, *argv])
        except Exception as exc:  # recorded as "no reference", see module doc
            print("raised %s: littleq %s %s" % (type(exc).__name__, command, " ".join(argv)),
                  file=sys.stderr)
            refs[command] = None
        else:
            refs[command] = canonical(command, code, out.getvalue())
    return refs


def main() -> int:
    import littleq.cli as cli

    pool = draw_pool()
    points = [DEEP, TYPE1] + [p for entries in pool.values() for p in entries]
    refs = {" ".join(argv): record(argv, cli) for argv in points}
    REFS.write_text(json.dumps({"sweep_pool": pool, "refs": refs}, indent=0, sort_keys=True,
                               separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
