"""Command-line front end: construct polynomials, run verification suites,
emit coefficient tables and reports as JSON/CSV with stable schemas.

Rationals cross the boundary as exact "num/den" strings; floating point
appears only in the zeros and table numeric columns, always at an explicit
printed precision, so identical configurations produce byte-identical output.

A command followed only by exact long options with valid values is parsed from
the OPTIONS table without building argparse's parser (about 5 ms of a cold
command); help, usage, abbreviations and every error still come from argparse.

Exit codes: 0 success, 1 verification failure, 2 invalid input (including a
parameter coincidence: a Casoratian vanishing identically or, outside verify,
a collapsed virtual-state degree), 3 internal invariant breach (a division
that theory says is exact was not).
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from typing import NamedTuple

from .base import CType, Family, Params
from .darboux import IndexSet, denominator_poly, level_poly
from .dyadic import nstr, nstr_ratio
from .exact import (
    DegenerateCasoratianError,
    EtaPoly,
    InvalidParamsError,
    LittleQError,
    NonExactDivisionError,
    fmt_rational,
)
from .verify import SUITES, orthogonality_data, polynomial_roots, run_suite
from .virtual import degree_drop

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INVALID = 2
EXIT_INTERNAL = 3


def parse_rational(text: str) -> Fraction:
    """Exact rational from 'p/q', integer, or decimal/scientific literal."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidParamsError("cannot parse rational %r" % text) from exc


def parse_indices(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError as exc:
        raise InvalidParamsError("cannot parse index list %r" % text) from exc


class RunConfig(NamedTuple):
    """Parsed invocation; parse -> print round-trips exactly."""

    command: str
    family: Family
    ctype: CType
    q: Fraction
    a: Fraction
    b: Fraction
    indices: tuple[int, ...]
    nmax: int
    eps: Fraction
    xmax: int
    prec_bits: int
    output: str
    seed: int
    suite: str

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "family": self.family.value,
            "type": int(self.ctype),
            "q": fmt_rational(self.q),
            "a": fmt_rational(self.a),
            "b": fmt_rational(self.b),
            "indices": list(self.indices),
            "nmax": self.nmax,
            "eps": fmt_rational(self.eps),
            "xmax": self.xmax,
            "prec_bits": self.prec_bits,
            "out": self.output,
            "seed": self.seed,
            "suite": self.suite,
        }

    def params(self) -> Params:
        dmax = max(self.indices) if self.indices else 0
        b = self.b if self.family == Family.LQ_JACOBI else Fraction(0)
        return Params(self.family, self.q, self.a, b, self.ctype, dmax)

    def index_set(self) -> IndexSet:
        return IndexSet(self.indices)


# the options of every command as (flag, add_argument keywords), read by both
# build_parser and parse_direct: each flag's type, choices and default live here
OPTIONS = (
    ("--family", {"choices": [f.value for f in Family], "default": Family.LQ_JACOBI.value}),
    ("--type", {"dest": "ctype", "type": int, "choices": (1, 2), "default": 2}),
    ("--q", {"default": "1/2", "help": "base, exact rational in (0,1)"}),
    ("--a", {"default": "1/3", "help": "parameter a, exact rational"}),
    ("--b", {"default": "1/16", "help": "parameter b (ignored for little q-Laguerre)"}),
    ("--indices", {"default": "2",
                   "help": "comma list of virtual-state indices, e.g. '1,3'; empty for none"}),
    ("--nmax", {"type": int, "default": 4}),
    ("--eps", {"default": "1e-24",
               "help": "positive exact decimal, accepted and checked; no check reads it"}),
    ("--xmax", {"type": int, "default": 60}),
    ("--prec-bits", {"dest": "prec_bits", "type": int, "default": 256}),
    ("--out", {"choices": ("json", "csv"), "default": None,
               "help": "output format (default: json for construct/verify, csv otherwise)"}),
    ("--seed", {"type": int, "default": 0}),
    ("--suite", {"default": "all", "choices": ("all",) + SUITES,
                 "help": "verification subset; 'shifts' is an alias of 'deformed'"}),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="littleq",
        description="Multi-indexed little q-Jacobi / q-Laguerre polynomials, exactly.",
    )
    shared = argparse.ArgumentParser(add_help=False)  # the options of every command
    for flag, keywords in OPTIONS:
        shared.add_argument(flag, **keywords)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in COMMANDS.items():
        sub.add_parser(name, help=help_text, parents=[shared])
    return parser


def parse_direct(argv: list[str]) -> argparse.Namespace | None:
    """The Namespace build_parser().parse_args(argv) returns, when argv is a
    command name followed only by exact long options of OPTIONS, each with a
    valid value given as '--opt value' (the value not starting with '-') or as
    '--opt=value'; None for any other argv, which argparse alone decides."""
    if not argv or argv[0] not in COMMANDS:
        return None
    options = {flag: (keywords.get("dest", flag[2:].replace("-", "_")), keywords)
               for flag, keywords in OPTIONS}
    args = argparse.Namespace(
        command=argv[0], **{dest: keywords.get("default") for dest, keywords in options.values()})
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        if not eq:
            value = next(tokens, "-")  # a missing value is declined like '-…'
            if value.startswith("-"):
                return None
        if flag not in options:
            return None
        dest, keywords = options[flag]
        try:
            value = keywords.get("type", str)(value)
        except ValueError:
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        setattr(args, dest, value)
    return args


def config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.nmax < 0:
        raise InvalidParamsError("nmax must be >= 0")
    return RunConfig(
        command=args.command,
        family=Family(args.family),
        ctype=CType(args.ctype),
        q=parse_rational(args.q),
        a=parse_rational(args.a),
        b=parse_rational(args.b),
        indices=parse_indices(args.indices),
        nmax=args.nmax,
        eps=parse_rational(args.eps),
        xmax=args.xmax,
        prec_bits=args.prec_bits,
        output=args.out or COMMANDS[args.command][1],
        seed=args.seed,
        suite=args.suite,
    )


def _poly_entry(poly: EtaPoly, d: IndexSet, x: int, **head) -> dict:
    """The JSON entry of one polynomial: head, then its eta coefficients as
    [num, den] strings, ell_D, and its leading coefficient and values at x and
    at infinity (y -> 0 is eta -> 1) as exact rationals."""
    return {
        **head,
        "basis": "eta",
        "coeffs": [[str(c.numerator), str(c.denominator)]
                   for c in (poly.coeffs if not poly.is_zero else (Fraction(0),))],
        "ell_D": d.degree_offset,
        "leading": fmt_rational(poly.leading),
        "value_at_" + ("0" if x == 0 else "minus1"): fmt_rational(poly.eval_int(x)),
        "value_at_inf": fmt_rational(poly.eval_eta(1)),
    }


def cmd_construct(cfg: RunConfig) -> tuple[str, int]:
    p = cfg.params()
    d = cfg.index_set()
    obj = {
        "family": cfg.family.value,
        "type": int(cfg.ctype),
        "q": fmt_rational(cfg.q),
        "a": fmt_rational(cfg.a),
        "b": fmt_rational(p.b),
        "D": list(d.indices),
        "normalized": cfg.ctype == CType.TYPE_II,
        "polynomials": [_poly_entry(level_poly(d, n, p), d, 0, n=n) for n in range(cfg.nmax + 1)],
    }
    if cfg.ctype == CType.TYPE_II:
        obj["denominator"] = _poly_entry(denominator_poly(d, p), d, -1)
    return json.dumps(obj, indent=2) + "\n", EXIT_OK


def cmd_verify(cfg: RunConfig) -> tuple[str, int]:
    suites = SUITES if cfg.suite == "all" else (cfg.suite,)
    report = run_suite(
        cfg.index_set(),
        cfg.params(),
        nmax=cfg.nmax,
        eps=cfg.eps,
        xmax=cfg.xmax,
        prec_bits=cfg.prec_bits,
        suites=suites,
        seed=cfg.seed,
    )
    obj = report.to_dict()
    obj["config"] = cfg.to_dict()
    code = EXIT_OK if report.overall == "pass" else EXIT_VERIFY_FAIL
    return json.dumps(obj, indent=2) + "\n", code


def _ratio_str(v: Fraction, dps: int) -> str:
    return nstr_ratio(v, 128, dps)


def cmd_zeros(cfg: RunConfig) -> tuple[str, int]:
    p = cfg.params()
    d = cfg.index_set()
    n = cfg.nmax
    roots = polynomial_roots(d, n, p, cfg.prec_bits)
    dps = max(15, int(cfg.prec_bits * 0.30103))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["index", "real", "imag", "physical", "precision_dps"])
    for i, (r, physical) in enumerate(roots):
        writer.writerow([i, nstr(r.real, dps), nstr(r.imag, dps), int(physical), dps])
    return buf.getvalue(), EXIT_OK


def cmd_table(cfg: RunConfig) -> tuple[str, int]:
    p = cfg.params()
    d = cfg.index_set()
    if cfg.eps <= 0:  # checked as for verify, although no row reads it
        raise InvalidParamsError("eps must be positive")
    data = orthogonality_data(d, p, cfg.nmax)
    dps = 30
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "snn_over_s00", "exact_num", "exact_den", "status", "precision_dps"])
    code = EXIT_OK
    for n in range(cfg.nmax + 1):
        target, cert = data.targets[n], data.pair_sum(n, n)
        code = code if cert.ok else EXIT_VERIFY_FAIL
        writer.writerow([n, _ratio_str(target, dps) if cert.ok else "", target.numerator,
                         target.denominator, "pass" if cert.ok else "fail", dps])
    return buf.getvalue(), code


# each command's help text, the one output format it prints and its handler
COMMANDS = {
    "construct": ("emit polynomial coefficient tables as JSON", "json", cmd_construct),
    "verify": ("run the verification suite and emit a JSON report", "json", cmd_verify),
    "zeros": ("emit a CSV of the zeros of one polynomial", "csv", cmd_zeros),
    "table": ("emit a CSV of squared-norm ratios", "csv", cmd_table),
}

_PARSER: argparse.ArgumentParser | None = None  # built when parse_direct first declines


def main(argv: list[str] | None = None) -> int:
    global _PARSER
    argv = sys.argv[1:] if argv is None else argv
    args = parse_direct(argv)
    if args is None:
        _PARSER = _PARSER or build_parser()
        try:
            args = _PARSER.parse_args(argv)
        except SystemExit as exc:
            return EXIT_INVALID if exc.code not in (0, None) else 0
    try:
        cfg = config_from_args(args)
        _, native, handler = COMMANDS[cfg.command]
        if cfg.output != native:
            raise InvalidParamsError("%s emits %s output only" % (cfg.command, native))
        text, code = handler(cfg)
        # after the command, so that a Casoratian vanishing identically is named as
        # such; verify reports a collapsed degree through its failed checks
        v = None if cfg.command == "verify" else degree_drop(cfg.params())
        if v is not None:
            raise InvalidParamsError(
                "parameter coincidence: b = a q^m collapses the degree of virtual state %d" % v)
    except InvalidParamsError as exc:
        print("invalid input: %s" % exc, file=sys.stderr)
        return EXIT_INVALID
    except DegenerateCasoratianError as exc:
        # a parameter coincidence such as b = a q^m, not an internal fault
        print("invalid input: parameter coincidence: %s" % exc, file=sys.stderr)
        return EXIT_INVALID
    except NonExactDivisionError as exc:
        print("internal invariant breach: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL
    except LittleQError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_VERIFY_FAIL
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
