"""Command-line front end: construct polynomials, run verification suites,
emit coefficient tables and reports as JSON/CSV with stable schemas.

Rationals cross the boundary as exact "num/den" strings; floating point
appears only in the zeros and table numeric columns, always at an explicit
printed precision, so identical configurations produce byte-identical output.

Exit codes: 0 success, 1 verification failure, 2 invalid input, 3 internal
invariant breach (a division that theory says is exact was not).
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .base import CType, Family, Params
from .darboux import IndexSet, denominator_poly, level_poly
from .exact import (
    DegenerateCasoratianError,
    EtaPoly,
    InvalidParamsError,
    LittleQError,
    NonExactDivisionError,
)
from .verify import SUITES, OrthogonalityData, polynomial_roots, run_suite

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


def fmt_rational(x: Fraction) -> str:
    return "%d/%d" % (x.numerator, x.denominator)


@dataclass(frozen=True)
class RunConfig:
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="littleq",
        description="Multi-indexed little q-Jacobi / q-Laguerre polynomials, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("construct", "emit polynomial coefficient tables as JSON"),
        ("verify", "run the verification suite and emit a JSON report"),
        ("zeros", "emit a CSV of the zeros of one polynomial"),
        ("table", "emit a CSV of squared-norm ratios"),
    ):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--family", choices=[f.value for f in Family],
                        default=Family.LQ_JACOBI.value)
        sp.add_argument("--type", dest="ctype", type=int, choices=(1, 2), default=2)
        sp.add_argument("--q", default="1/2", help="base, exact rational in (0,1)")
        sp.add_argument("--a", default="1/3", help="parameter a, exact rational")
        sp.add_argument("--b", default="1/16",
                        help="parameter b (ignored for little q-Laguerre)")
        sp.add_argument("--indices", default="2",
                        help="comma list of virtual-state indices, e.g. '1,3'; empty for none")
        sp.add_argument("--nmax", type=int, default=4)
        sp.add_argument("--eps", default="1e-24",
                        help="orthogonality tail target, exact decimal")
        sp.add_argument("--xmax", type=int, default=60)
        sp.add_argument("--prec-bits", dest="prec_bits", type=int, default=256)
        sp.add_argument("--out", choices=("json", "csv"), default=None,
                        help="output format (default: json for construct/verify, csv otherwise)")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--suite", default="all",
                        choices=("all",) + SUITES, help="verification subset")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    default_out = "json" if args.command in ("construct", "verify") else "csv"
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
        output=args.out or default_out,
        seed=args.seed,
        suite=args.suite,
    )


def _coeff_pairs(poly: EtaPoly) -> list[list[str]]:
    return [
        [str(c.numerator), str(c.denominator)]
        for c in (poly.coeffs if not poly.is_zero else (Fraction(0),))
    ]


def cmd_construct(cfg: RunConfig) -> tuple[str, int]:
    p = cfg.params()
    d = cfg.index_set()
    polys = []
    for n in range(cfg.nmax + 1):
        poly = level_poly(d, n, p)
        poly_y = poly.to_laurent()
        polys.append(
            {
                "n": n,
                "basis": "eta",
                "coeffs": _coeff_pairs(poly),
                "ell_D": d.degree_offset,
                "leading": fmt_rational(poly.leading),
                "value_at_0": fmt_rational(poly.eval_int(0)),
                "value_at_inf": fmt_rational(poly_y.at_infinity()),
            }
        )
    obj = {
        "family": cfg.family.value,
        "type": int(cfg.ctype),
        "q": fmt_rational(cfg.q),
        "a": fmt_rational(cfg.a),
        "b": fmt_rational(p.b),
        "D": list(d.indices),
        "normalized": cfg.ctype == CType.TYPE_II,
        "polynomials": polys,
    }
    if cfg.ctype == CType.TYPE_II:
        xi = denominator_poly(d, p)
        obj["denominator"] = {
            "basis": "eta",
            "coeffs": _coeff_pairs(xi),
            "ell_D": d.degree_offset,
            "leading": fmt_rational(xi.leading),
            "value_at_minus1": fmt_rational(xi.eval_int(-1)),
            "value_at_inf": fmt_rational(xi.to_laurent().at_infinity()),
        }
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


def _dps(prec_bits: int) -> int:
    return max(15, int(prec_bits * 0.30103))


def _mpf_str(v, dps: int) -> str:
    return mpmath.nstr(v, dps, strip_zeros=False)


def cmd_zeros(cfg: RunConfig) -> tuple[str, int]:
    p = cfg.params()
    d = cfg.index_set()
    n = cfg.nmax
    roots = polynomial_roots(d, n, p, cfg.prec_bits)
    dps = _dps(cfg.prec_bits)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["index", "real", "imag", "physical", "precision_dps"])
    with mpmath.workprec(cfg.prec_bits):
        for i, (r, physical) in enumerate(roots):
            writer.writerow(
                [i, _mpf_str(r.real, dps), _mpf_str(r.imag, dps),
                 int(physical), dps]
            )
    return buf.getvalue(), EXIT_OK


def cmd_table(cfg: RunConfig) -> tuple[str, int]:
    p = cfg.params()
    d = cfg.index_set()
    data = OrthogonalityData(d, p, cfg.nmax, cfg.eps)
    diag = [data.pair_sum(n, n) for n in range(cfg.nmax + 1)]
    dps = 30
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["n", "snn_over_s00", "exact_num", "exact_den", "abs_bound",
         "truncation_x", "status", "precision_dps"]
    )
    code = EXIT_OK
    with mpmath.workprec(128):
        for n in range(cfg.nmax + 1):
            got, target, bound, ok = data.diag_ratio(n, diag)
            if not ok:
                code = EXIT_VERIFY_FAIL
            writer.writerow(
                [
                    n,
                    _mpf_str(mpmath.mpf(got.numerator) / got.denominator, dps),
                    str(target.numerator),
                    str(target.denominator),
                    _mpf_str(mpmath.mpf(bound.numerator) / bound.denominator, 3),
                    diag[n].truncation_x,
                    "pass" if ok else "fail",
                    dps,
                ]
            )
    return buf.getvalue(), code


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code not in (0, None) else 0
    try:
        cfg = config_from_args(args)
        native = {"construct": "json", "verify": "json",
                  "zeros": "csv", "table": "csv"}[cfg.command]
        if cfg.output != native:
            raise InvalidParamsError(
                "%s emits %s output only" % (cfg.command, native)
            )
        handler = {
            "construct": cmd_construct,
            "verify": cmd_verify,
            "zeros": cmd_zeros,
            "table": cmd_table,
        }[cfg.command]
        text, code = handler(cfg)
    except InvalidParamsError as exc:
        print("invalid input: %s" % exc, file=sys.stderr)
        return EXIT_INVALID
    except (NonExactDivisionError, DegenerateCasoratianError) as exc:
        print("internal invariant breach: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL
    except LittleQError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_VERIFY_FAIL
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
