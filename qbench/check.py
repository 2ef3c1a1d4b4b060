"""Reference comparison of littleq command outputs.

Each command's output is reduced to the canonical form the project promises
to keep unchanged (ROADMAP aim 2):

- ``construct``: the output, byte for byte (kept as a SHA-256);
- ``verify``: exit code, overall verdict and the sorted (name, status) list;
  witness and bound text are excluded;
- ``table``: per row ``n``, ``exact_num``, ``exact_den`` and ``status``
  (kept as a SHA-256);
- ``zeros``: row count, the ``physical`` flags, and each root rounded to
  ``ZERO_PLACES`` decimal places, well inside the 77 printed digits.

References are these canonical forms recorded by ``record_refs.py``.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
from decimal import Context, Decimal

DOCUMENTED_EXIT_CODES = (0, 1, 2, 3)
ZERO_PLACES = 32
_DECIMAL = Context(prec=200)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _fixed(value: str) -> str:
    rounded = Decimal(value).quantize(Decimal(1).scaleb(-ZERO_PLACES), context=_DECIMAL)
    return str(abs(rounded) if rounded == 0 else rounded)


def canonical(command: str, code: int, stdout: str) -> dict:
    """Canonical form of one command's result; raises if the output is malformed."""
    if code not in (0, 1) or command == "construct":
        return {"exit": code, "sha256": _sha(stdout)}
    if command == "verify":
        report = json.loads(stdout)
        pairs = sorted([c["name"], c["status"]] for c in report["checks"])
        return {
            "exit": code,
            "overall": report["overall"],
            "checks_sha256": _sha(json.dumps(pairs)),
            "not_pass": [p for p in pairs if p[1] != "pass"],
        }
    rows = list(csv.DictReader(io.StringIO(stdout)))
    if command == "table":
        kept = [[r["n"], r["exact_num"], r["exact_den"], r["status"]] for r in rows]
        return {"exit": code, "rows_sha256": _sha(json.dumps(kept))}
    if command == "zeros":
        values = ";".join("%s,%s" % (_fixed(r["real"]), _fixed(r["imag"])) for r in rows)
        return {
            "exit": code,
            "rows": len(rows),
            "physical": "".join(r["physical"] for r in rows),
            "values_sha256": _sha(values),
        }
    raise ValueError("unknown command %r" % command)


def judge(command: str, result: dict, reference: dict | None) -> tuple[str, str] | None:
    """Why one operation failed, as (kind, detail), or None when it succeeded.

    ``result`` is a worker sample: ``error`` (an uncaught exception), or
    ``code`` and ``stdout``.  Kinds are ``exception``, ``exit`` (an
    undocumented exit code) and ``wrong`` (output that disagrees with the
    reference).  ``reference`` is None for a point whose command raised when
    the references were recorded; such an operation succeeds only if it now
    exits 0 with well-formed output and, for ``verify``, a passing verdict.
    """
    if result.get("error"):
        return "exception", result["error"]
    code = result["code"]
    if code not in DOCUMENTED_EXIT_CODES:
        return "exit", "undocumented exit code %r" % (code,)
    try:
        got = canonical(command, code, result["stdout"])
    except (ValueError, KeyError, ArithmeticError) as exc:
        return "wrong", "malformed output: %s" % exc
    if reference is None:
        if code != 0 or got.get("overall", "pass") != "pass":
            return "wrong", "no reference recorded; exit %d" % code
        return None
    if got != reference:
        return "wrong", "got %s, reference %s" % (
            json.dumps(got, sort_keys=True), json.dumps(reference, sort_keys=True))
    return None
