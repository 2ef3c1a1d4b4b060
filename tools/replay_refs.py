"""Replay every reference operation of qbench/refs.json and digest its output.

An operation is one command (construct, verify, table, zeros) at one
reference point.  Each runs in this process through ``littleq.cli.main``,
and its digest is the sha256 of the exit code, stdout and stderr, so two
trees that print the same bytes give the same digests.  Run from the
repository root:

    PYTHONPATH=src python3 tools/replay_refs.py --out digests.json
    python3 tools/replay_refs.py --compare before.json after.json

``--compare`` lists the operations whose digests differ (or that only one
file has) and exits 1 if there are any.  ``--commands`` limits either mode
to some commands, so one command's operations can be checked on their own:

    PYTHONPATH=src python3 tools/replay_refs.py --commands zeros --out zeros.json
    python3 tools/replay_refs.py --commands zeros --compare tools/refs_digests.json zeros.json
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

COMMANDS = ("construct", "verify", "table", "zeros")
REFS = Path(__file__).resolve().parent.parent / "qbench" / "refs.json"


def digest(code, out: str, err: str) -> str:
    blob = json.dumps([code, out, err]).encode()
    return hashlib.sha256(blob).hexdigest()


def run_one(main, argv: list[str]) -> str:
    """Digest of one operation; an exception counts as its type name."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:
            code = "raised %s" % type(exc).__name__
    return digest(code, out.getvalue(), err.getvalue())


def replay(points: list[str], commands=COMMANDS) -> dict[str, str]:
    """{"<command> <point>": digest} for every point x command."""
    from littleq.cli import main

    return {
        "%s %s" % (command, point): run_one(main, [command, *point.split(" ")])
        for point in points
        for command in commands
    }


def compare(a: dict[str, str], b: dict[str, str]) -> list[str]:
    """The operations whose digests differ or that only one side has."""
    return sorted(op for op in a.keys() | b.keys() if a.get(op) != b.get(op))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", type=Path, help="write the digests here (default stdout)")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                    help="compare two digest files instead of replaying")
    ap.add_argument("--commands", nargs="+", choices=COMMANDS, default=COMMANDS,
                    help="replay or compare only these commands (default all)")
    args = ap.parse_args(argv)
    if args.compare:
        a, b = ({op: h for op, h in json.loads(path.read_text()).items()
                 if op.split(" ")[0] in args.commands} for path in args.compare)
        differ = compare(a, b)
        for op in differ:
            print(op)
        print("%d of %d operations differ" % (len(differ), len(a.keys() | b.keys())),
              file=sys.stderr)
        return 1 if differ else 0
    points = sorted(json.loads(REFS.read_text())["refs"])
    text = json.dumps(replay(points, args.commands), indent=0, sort_keys=True) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
