"""Verification suite: exact identity checks, certified orthogonality sums,
numeric zero location and interlacing, positivity scans.

Exact checks pass only when a residual object is identically zero.  The
infinite orthogonality sums are handled with exact partial sums plus a
certified geometric tail: the term ratio is computed exactly and must stay
below rho < 1 for eight consecutive lattice points before the bound
last_term * rho / (1 - rho) is trusted.  Zero location is the only place
floating point enters, at a caller-chosen precision with residual control.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import mpmath

from .base import (
    CType,
    Family,
    Params,
    backward_shift_apply,
    eigen_at_infinity,
    eigen_leading,
    eigen_series_value,
    eigenpoly,
    eigenpoly_y,
    energy,
    forward_shift_apply,
    groundstate_sq,
    hamiltonian_apply,
    norm_abs_approx,
    norm_ratio,
    potential_b,
    potential_d,
    tilde_delta,
)
from .darboux import (
    IndexSet,
    deformed_eigencheck,
    deformed_backward_check,
    deformed_forward_check,
    deformed_norm_sq,
    deformed_potentials,
    denominator_leading,
    denominator_poly,
    denominator_poly_y,
    infinity_values,
    level_poly,
    lowest_matches_denominator,
    multi_indexed_leading,
    multi_indexed_poly,
    multi_indexed_poly_y,
    psi_deformed_sq,
    typeI_eigen_numerator,
    typeI_single_poly,
    typeII_single_poly,
    xi_casoratian,
)
from .exact import (
    InvalidParamsError,
    LaurentPoly,
    LittleQError,
    NonConvergenceError,
    RootFindingFailureError,
)
from .virtual import (
    groundstate_ratio,
    nu_ratio_poly,
    virtual_data,
    virtual_energy,
    virtual_energy_prime,
    virtual_groundstate_sq,
    virtual_poly_y,
    xi_diffeq_residual,
    xi_leading,
    xi_series_value,
)

SUITES = (
    "base",
    "virtual",
    "deformed",
    "shifts",
    "structural",
    "reflection",
    "ortho",
    "zeros",
    "positivity",
)


@dataclass
class CheckResult:
    name: str
    status: str  # pass | fail | warn
    witness: str
    bound: str | None = None

    def to_dict(self) -> dict:
        out = {"name": self.name, "status": self.status, "witness": self.witness}
        if self.bound is not None:
            out["bound"] = self.bound
        return out


@dataclass
class TailBound:
    truncation_x: int
    partial_sum: Fraction
    ratio_bound: Fraction
    tail_estimate: Fraction


@dataclass
class VerificationReport:
    checks: list[CheckResult]
    params_echo: dict
    dset_echo: list[int]

    @property
    def overall(self) -> str:
        return "fail" if any(c.status == "fail" for c in self.checks) else "pass"

    def to_dict(self) -> dict:
        return {
            "overall": self.overall,
            "params": self.params_echo,
            "indices": list(self.dset_echo),
            "checks": [c.to_dict() for c in sorted(self.checks, key=lambda c: c.name)],
        }


def _fmt(x: Fraction) -> str:
    return "%d/%d" % (x.numerator, x.denominator)


def _residual_check(name: str, residual) -> CheckResult:
    zero = residual.is_zero if hasattr(residual, "is_zero") else residual == 0
    terms = 0 if zero else (
        len(residual.coeffs) if hasattr(residual, "coeffs") else 1
    )
    return CheckResult(
        name,
        "pass" if zero else "fail",
        "residual identically zero" if zero else "residual has %d terms" % terms,
    )


def _equal_check(name: str, lhs, rhs, witness: str = "") -> CheckResult:
    ok = lhs == rhs
    w = witness or ("%s == %s" % (lhs, rhs) if ok else "%s != %s" % (lhs, rhs))
    return CheckResult(name, "pass" if ok else "fail", w)


# ---------------------------------------------------------------------------
# orthogonality with certified tails
# ---------------------------------------------------------------------------


def _certified_sum(
    term: Callable[[int], Fraction],
    rho: Fraction,
    eps: Fraction,
    max_terms: int = 500,
) -> TailBound:
    """Exact partial sum with a certified geometric tail estimate.

    Extends the truncation until |t(x+1)| <= rho |t(x)| held for the last 8
    consecutive steps and the resulting bound |t(X)| rho/(1-rho) drops below
    eps.  Raises NonConvergenceError if no such window appears.
    """
    if not 0 < rho < 1:
        raise NonConvergenceError("ratio bound rho=%s is not < 1" % rho)
    total = Fraction(0)
    prev: Fraction | None = None
    consec = 0
    t = Fraction(0)
    for x in range(max_terms + 1):
        t = term(x)
        total += t
        if prev is not None:
            if prev != 0 and abs(t) <= rho * abs(prev):
                consec += 1
            else:
                consec = 0
        prev = t
        if consec >= 8:
            tail = abs(t) * rho / (1 - rho)
            if tail <= eps:
                return TailBound(x, total, rho, tail)
    raise NonConvergenceError(
        "no certified geometric window within %d terms" % max_terms
    )


@dataclass
class OrthoRow:
    """Diagonal orthogonality data for one level."""

    n: int
    partial: Fraction
    tail: Fraction
    truncation_x: int
    exact_ratio: Fraction  # S_nn / S_00 target


class OrthogonalityData:
    """Exact partial sums of the deformed orthogonality relation.

    For the type II construction the summand is
    w(x) P_n(x) P_m(x) with w(x) = groundstate_sq(x; shifted) /
    (Xi(x) Xi(x-1)); for type I it is the Casoratian-level equivalent with
    the ground-state ratio squared absorbed.  Diagonal terms are positive, so
    partial sums are lower bounds and the certified tail gives an interval.
    """

    def __init__(self, d: IndexSet, p: Params, nmax: int, eps: Fraction):
        self.d = d
        self.p = p
        self.nmax = nmax
        self.eps = Fraction(eps)
        m = d.size
        q = p.q
        if p.ctype == CType.TYPE_II:
            xi = denominator_poly_y(d, p)
            polys = [multi_indexed_poly_y(d, n, p) for n in range(nmax + 1)]

            def weight(x: int) -> Fraction:
                return groundstate_sq(x, p.shift(tilde=m)) / (
                    xi.eval_int(x) * xi.eval_int(x - 1)
                )

            rho = (1 + p.a) / 2
        else:
            w_cas = xi_casoratian(d, p)
            polys = [typeI_eigen_numerator(d, n, p) for n in range(nmax + 1)]
            bp = virtual_data(p).bprime_new

            def weight(x: int) -> Fraction:
                out = groundstate_sq(x, p)
                for j in range(1, m + 1):
                    out *= bp.eval_int(x + j - 1)
                return out / (w_cas.eval_int(x) * w_cas.eval_int(x + 1))

            rho = (1 + p.a * q ** (-m)) / 2
        self.weight = weight
        self.polys = polys
        self.rho = rho

    def pair_sum(self, n: int, m: int) -> TailBound:
        pn, pm = self.polys[n], self.polys[m]
        return _certified_sum(
            lambda x: self.weight(x) * pn.eval_int(x) * pm.eval_int(x),
            self.rho,
            self.eps,
        )

    def exact_diag_ratio(self, n: int) -> Fraction:
        """Target value of S_nn / S_00 from the closed-form norm constants."""
        p, d = self.p, self.d
        out = 1 / norm_ratio(n, p)
        if p.ctype == CType.TYPE_II:
            return out * deformed_norm_sq(d, 0, p) / deformed_norm_sq(d, n, p)
        for dj in d.indices:
            out *= (energy(n, p) - virtual_energy(dj, p)) / (-virtual_energy(dj, p))
        return out

    def diag_ratio(
        self, n: int, diag: Sequence[TailBound]
    ) -> tuple[Fraction, Fraction, Fraction, bool]:
        """(S_nn/S_00, its target, the bound, verdict) from the diagonal sums.

        The bound rel * |target| takes rel from both certified tails; the
        verdict is |S_nn/S_00 - target| <= bound.
        """
        snn, s00 = diag[n], diag[0]
        target = self.exact_diag_ratio(n)
        rel = 2 * (
            snn.tail_estimate / snn.partial_sum + s00.tail_estimate / s00.partial_sum
        )
        got = snn.partial_sum / s00.partial_sum
        bound = rel * abs(target)
        return got, target, bound, abs(got - target) <= bound

    def absolute_target(self, factors: int = 256) -> Fraction:
        """Approximate absolute value of S_00 via truncated infinite products."""
        p, d = self.p, self.d
        d0_abs, _ = norm_abs_approx(0, p, factors)
        if p.ctype == CType.TYPE_II:
            return 1 / (d0_abs * deformed_norm_sq(d, 0, p))
        out = 1 / d0_abs
        for dj in d.indices:
            out *= -virtual_energy(dj, p)
        return out


def orthogonality_check(
    d: IndexSet, p: Params, nmax: int, eps: Fraction
) -> list[CheckResult]:
    """Orthogonality fragment: off-diagonal tails, diagonal ratios, one
    absolute cross-check of the lowest norm against truncated products."""
    eps = Fraction(eps)
    if eps <= 0:
        raise InvalidParamsError("eps must be positive")
    checks: list[CheckResult] = []
    try:
        data = OrthogonalityData(d, p, nmax, eps)
    except LittleQError as exc:
        return [CheckResult("ortho_setup", "fail", "%s: %s" % (type(exc).__name__, exc))]
    diag = [data.pair_sum(n, n) for n in range(nmax + 1)]
    for n in range(nmax + 1):
        for m in range(n + 1, nmax + 1):
            tb = data.pair_sum(n, m)
            ok = abs(tb.partial_sum) <= tb.tail_estimate
            checks.append(
                CheckResult(
                    "ortho_offdiag_n%d_m%d" % (n, m),
                    "pass" if ok else "fail",
                    "|partial|=%s at x<=%d" % (float(abs(tb.partial_sum)), tb.truncation_x),
                    bound=str(float(tb.tail_estimate)),
                )
            )
    for n in range(1, nmax + 1):
        got, target, bound, ok = data.diag_ratio(n, diag)
        checks.append(
            CheckResult(
                "ortho_diag_ratio_n%d" % n,
                "pass" if ok else "fail",
                "S_nn/S_00 %s target %s" % (float(got), float(target)),
                bound=str(float(bound)),
            )
        )
    s00 = diag[0]
    target0 = data.absolute_target()
    ok = abs(float(s00.partial_sum) / float(target0) - 1) <= 1e-12
    checks.append(
        CheckResult(
            "ortho_absolute_s00",
            "pass" if ok else "fail",
            "S_00=%s vs %s (256-factor products)" % (float(s00.partial_sum), float(target0)),
            bound="1e-12",
        )
    )
    return checks


# ---------------------------------------------------------------------------
# zeros and interlacing
# ---------------------------------------------------------------------------


def polynomial_roots(d: IndexSet, n: int, p: Params, prec_bits: int = 256):
    """High-precision roots in eta of the level-n polynomial, Newton-polished.

    Returns a list of (root: mpc, physical: bool) sorted by real part; the
    residual at every root must stay below 1e-30 on the scale of the leading
    coefficient or RootFindingFailureError is raised.
    """
    if prec_bits < 128:
        raise InvalidParamsError("prec_bits must be >= 128")
    poly = level_poly(d, n, p)
    if poly.degree < 1:
        return []
    with mpmath.workprec(prec_bits):
        coeffs = [
            mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator)
            for c in reversed(poly.coeffs)
        ]
        roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=prec_bits)

        def val(z, cs):
            acc = mpmath.mpc(0)
            for c in cs:
                acc = acc * z + c
            return acc

        dcoeffs = [c * (len(coeffs) - 1 - i) for i, c in enumerate(coeffs[:-1])]
        polished = []
        for r in roots:
            der = val(r, dcoeffs)
            if der != 0:
                r = r - val(r, coeffs) / der
            polished.append(r)
        lc = abs(coeffs[0])
        out = []
        for r in polished:
            scale = lc * max(1, abs(r)) ** poly.degree
            if abs(val(r, coeffs)) > mpmath.mpf("1e-30") * scale:
                raise RootFindingFailureError(
                    "root residual above tolerance at %s" % r
                )
            physical = abs(r.imag) < mpmath.mpf("1e-20") and 0 <= r.real < 1
            out.append((r, physical))
        out.sort(key=lambda t: (mpmath.mpf(t[0].real), mpmath.mpf(t[0].imag)))
        return out


def zeros_report(d: IndexSet, n: int, p: Params, prec_bits: int = 256) -> dict:
    """Counts of physical ([0,1)) vs unphysical zeros and the interlacing
    verdict against level n+1."""
    roots = polynomial_roots(d, n, p, prec_bits)
    phys = sorted(float(r.real) for r, ok in roots if ok)
    unphys = sum(1 for _, ok in roots if not ok)
    roots_next = polynomial_roots(d, n + 1, p, prec_bits)
    phys_next = sorted(float(r.real) for r, ok in roots_next if ok)
    interlaced = len(phys_next) == len(phys) + 1
    if interlaced:
        for i, z in enumerate(phys):
            if not (phys_next[i] < z < phys_next[i + 1]):
                interlaced = False
                break
    return {
        "physical": len(phys),
        "unphysical": unphys,
        "interlaced_with_next": interlaced,
    }


# ---------------------------------------------------------------------------
# positivity scans
# ---------------------------------------------------------------------------


def positivity_scan(d: IndexSet, p: Params, xmax: int) -> list[CheckResult]:
    """Exact sign scans of the denominator polynomial, the Casoratian, and
    the deformed potentials over the integer window.

    In the extended parameter range (type II little q-Jacobi with b <= 0) a
    failed scan is reported as a warning, since positivity is only proved in
    the strict range.
    """
    if xmax < 10:
        raise InvalidParamsError("xmax must be >= 10")
    soft = "warn" if not p.strict_range else "fail"
    checks: list[CheckResult] = []
    pots = deformed_potentials(d, p)
    if p.ctype == CType.TYPE_II:
        xi = denominator_poly_y(d, p)
        bad = [x for x in range(-1, xmax + 1) if xi.eval_int(x) <= 0]
        checks.append(
            CheckResult(
                "positivity_denominator",
                "pass" if not bad else soft,
                "positive on [-1,%d]" % xmax if not bad else "sign failure at x=%s" % bad[:3],
            )
        )
    # type II starts at x = -1: Xi(x-1) enters the weight at x = 0
    lo = -1 if p.ctype == CType.TYPE_II else 0
    w = xi_casoratian(d, p)
    signs = {(v > 0) - (v < 0) for v in map(w.eval_int, range(lo, xmax + 1))}
    ok = len(signs) == 1 and 0 not in signs
    checks.append(
        CheckResult(
            "positivity_casoratian_sign",
            "pass" if ok else soft,
            "definite sign on [%d,%d]" % (lo, xmax) if ok else "signs %s" % sorted(signs),
        )
    )
    bad_b = [x for x in range(0, xmax + 1) if pots.b_value(x) <= 0]
    bad_d = [x for x in range(1, xmax + 1) if pots.d_value(x) <= 0]
    d0 = pots.d_value(0)
    checks.append(
        CheckResult(
            "positivity_potential_up",
            "pass" if not bad_b else soft,
            "positive on [0,%d]" % xmax if not bad_b else "failure at x=%s" % bad_b[:3],
        )
    )
    checks.append(
        CheckResult(
            "positivity_potential_down",
            "pass" if not bad_d else soft,
            "positive on [1,%d]" % xmax if not bad_d else "failure at x=%s" % bad_d[:3],
        )
    )
    checks.append(_equal_check("positivity_down_at_origin", d0, Fraction(0)))
    return checks


# ---------------------------------------------------------------------------
# structural identity checks
# ---------------------------------------------------------------------------


def _random_valid_params(
    rng: random.Random, family: Family, ctype: CType, dmax: int
) -> Params:
    """Random exact rational parameter point in the validated (strict) range."""
    for _ in range(200):
        den = rng.randint(3, 11)
        q = Fraction(rng.randint(2, den - 1), den)
        aden = rng.randint(3, 13)
        afrac = Fraction(rng.randint(1, aden - 1), aden)
        bden = rng.randint(3, 13)
        bfrac = Fraction(rng.randint(1, bden - 1), bden)
        if ctype == CType.TYPE_I:
            a = afrac * q ** (1 + dmax)
            b = bfrac if family == Family.LQ_JACOBI else Fraction(0)
        else:
            a = afrac
            b = bfrac * q ** (1 + dmax) if family == Family.LQ_JACOBI else Fraction(0)
        try:
            p = Params(family, q, a, b, ctype, dmax)
            # probe the constructions that could hit parameter coincidences:
            # q^j normalization poles and a q^m degree degeneracies
            for v in range(dmax + 1):
                virtual_poly_y(v, p)
                if xi_leading(v, p) == 0:
                    raise InvalidParamsError("degenerate leading coefficient")
            if ctype == CType.TYPE_II and family == Family.LQ_JACOBI:
                denominator_leading(IndexSet.of(dmax or 1), p)
            return p
        except (InvalidParamsError, ZeroDivisionError):
            continue
    raise NonConvergenceError("could not draw valid random parameters")


def structural_checks(
    d: IndexSet, p: Params, nmax: int, rng: random.Random
) -> list[CheckResult]:
    """Permutation invariance, index-zero reduction, the b -> 0 family limit,
    the single-index type I/II relation, and the deformed ground-state
    product identity."""
    checks: list[CheckResult] = []
    q = p.q
    # permutation invariance (needs at least two indices)
    if d.size >= 2:
        perm = list(d.indices)
        rng.shuffle(perm)
        if perm == list(d.indices):
            perm = perm[::-1]
        dp = IndexSet.raw(perm)
        pa, pb = deformed_potentials(d, p), deformed_potentials(dp, p)
        ok_b = (pa.b_num * pb.b_den - pb.b_num * pa.b_den).is_zero
        ok_d = (pa.d_num * pb.d_den - pb.d_num * pa.d_den).is_zero
        checks.append(
            CheckResult(
                "structural_permutation_potentials",
                "pass" if ok_b and ok_d else "fail",
                "order %s vs %s" % (list(d.indices), perm),
            )
        )
        if p.ctype == CType.TYPE_II:
            x1 = denominator_poly_y(d, p)
            x2 = denominator_poly_y(dp, p)
        else:
            x1 = xi_casoratian(d, p)
            x2 = xi_casoratian(dp, p)
        ok = (x1 - x2).is_zero or (x1 + x2).is_zero
        checks.append(
            CheckResult(
                "structural_permutation_denominator",
                "pass" if ok else "fail",
                "equal up to sign" if ok else "differs beyond sign",
            )
        )
    # index-zero reduction: D + {0} at lambda == {d_j - 1} at lambda + tilde
    if p.ctype == CType.TYPE_II:
        dbig = IndexSet.raw(tuple(d.indices) + (0,))
        dred = IndexSet.raw(tuple(dj - 1 for dj in d.indices))
        try:
            for n in range(min(nmax, 2) + 1):
                lhs = multi_indexed_poly_y(dbig, n, p)
                rhs = multi_indexed_poly_y(dred, n, p.shift(tilde=1))
                if not (lhs - rhs).is_zero:
                    checks.append(
                        CheckResult("structural_reduction", "fail",
                                    "mismatch at n=%d" % n)
                    )
                    break
            else:
                checks.append(
                    CheckResult(
                        "structural_reduction",
                        "pass",
                        "index set %s reduces to %s" % (dbig, dred),
                    )
                )
        except LittleQError as exc:
            checks.append(
                CheckResult("structural_reduction", "fail", "%s" % exc)
            )
    # deformed ground-state product identity
    if p.ctype == CType.TYPE_II:
        pots = deformed_potentials(d, p)
        p0 = multi_indexed_poly(d, 0, p)
        acc = Fraction(1)
        ok = psi_deformed_sq(0, d, p) == 1
        for x in range(1, 21):
            acc *= pots.b_value(x - 1) / pots.d_value(x)
            if psi_deformed_sq(x, d, p) * p0.eval_int(x) ** 2 != acc:
                ok = False
                break
        checks.append(
            CheckResult(
                "structural_groundstate_product",
                "pass" if ok else "fail",
                "hop-ratio product matches on x <= 20",
            )
        )
    # b -> 0 limit (little q-Jacobi only): linear coefficientwise convergence
    if (
        p.family == Family.LQ_JACOBI
        and p.ctype == CType.TYPE_II
        and Fraction(1, 2 ** 10) < q ** (1 + p.dmax)
    ):
        lag = Params(Family.LQ_LAGUERRE, q, p.a, 0, CType.TYPE_II, p.dmax)
        devs = []
        for k in (10, 14, 18):
            bk = Fraction(1, 2 ** k)
            pj = Params(Family.LQ_JACOBI, q, p.a, bk, CType.TYPE_II, p.dmax)
            dev = Fraction(0)
            for n in range(min(nmax, 2) + 1):
                pja = multi_indexed_poly(d, n, pj)
                pla = multi_indexed_poly(d, n, lag)
                top = max(pja.degree, pla.degree)
                dev = max(
                    dev,
                    max(abs(pja.coeff(i) - pla.coeff(i)) for i in range(top + 1)),
                )
            devs.append(dev)
        ratios = [float(devs[1] / devs[0]), float(devs[2] / devs[1])]
        ok = all(2 ** -4.5 <= r <= 2 ** -3.5 for r in ratios)
        checks.append(
            CheckResult(
                "structural_blimit_linear",
                "pass" if ok else "fail",
                "deviation ratios %s per 4 halvings" % ratios,
                bound="[2^-4.5, 2^-3.5]",
            )
        )
    # single-index type I/II relation at shifted parameters
    fam = p.family
    sa1, sb1 = tilde_delta(fam, CType.TYPE_I)
    try:
        twin = (
            p
            if p.ctype == CType.TYPE_II
            else Params(fam, q, p.a, p.b, CType.TYPE_II, dmax=1)
        )
    except InvalidParamsError:
        twin = None  # the type II side is out of range at this point
    if twin is not None:
        status, wit = "pass", "equal for n <= %d" % min(nmax, 4)
        pm = twin.shift(tilde=-1)
        try:
            for n in range(min(nmax, 4) + 1):
                try:
                    rhs = multi_indexed_poly_y(IndexSet.of(1), n, pm)
                except InvalidParamsError as exc:
                    # a coincidence such as a = q puts the shifted point on a pole
                    status, wit = "warn", "degenerate shifted point (%s)" % exc
                    break
                lhs = typeI_single_poly(
                    1,
                    n,
                    fam,
                    q,
                    p.a * q ** (-sa1),
                    p.b * q ** (-sb1) if fam == Family.LQ_JACOBI else Fraction(0),
                )
                if not (lhs - rhs).is_zero:
                    status, wit = "fail", "mismatch at n=%d" % n
                    break
        except LittleQError as exc:
            status, wit = "fail", str(exc)
        checks.append(CheckResult("structural_type_i_ii_single_index", status, wit))
    return checks


def reflection_checks(p: Params, nmax: int = 2) -> list[CheckResult]:
    """Coordinate-and-base reversal of the single-index type I polynomial for
    D = {2}: must reproduce the type II polynomial for n = 0, 1 and must fail
    for n = 2 (a degenerate normalization also counts as failure)."""
    if p.family != Family.LQ_JACOBI or p.ctype != CType.TYPE_II:
        return []
    checks = []
    d2 = IndexSet.of(2)
    for n in range(max(nmax, 2) + 1):
        try:
            refl = typeI_single_poly(
                2, n, Family.LQ_JACOBI, 1 / p.q, p.a, p.b
            ).coeff_dict()
            same = refl == multi_indexed_poly_y(d2, n, p).coeff_dict()
            wit = "coefficients %s" % ("match" if same else "differ")
        except InvalidParamsError as exc:
            same = False
            wit = "degenerate reversal (%s)" % exc
        expected = n <= 1
        checks.append(
            CheckResult(
                "reflection_n%d_%s" % (n, "matches" if expected else "differs"),
                "pass" if same == expected else "fail",
                wit,
            )
        )
    return checks


# ---------------------------------------------------------------------------
# the orchestrated suite
# ---------------------------------------------------------------------------


def _base_checks(p: Params, nmax: int, rng: random.Random) -> list[CheckResult]:
    checks = []
    ntop = max(nmax, 8)
    ok_eig = ok_deg = ok_norm = ok_lead = ok_inf = True
    for n in range(ntop + 1):
        f = eigenpoly_y(n, p)
        if not (hamiltonian_apply(f, p) - f.scale(energy(n, p))).is_zero:
            ok_eig = False
        e = eigenpoly(n, p)
        ok_deg &= e.degree == n
        ok_norm &= e.eval_int(0) == 1
        ok_lead &= e.is_zero or e.leading == eigen_leading(n, p)
        ok_inf &= f.at_infinity() == eigen_at_infinity(n, p)
    checks.append(
        CheckResult("base_eigen_equation", "pass" if ok_eig else "fail",
                    "zero residual for n <= %d" % ntop)
    )
    checks.append(
        CheckResult("base_degree_norm_leading_infinity",
                    "pass" if ok_deg and ok_norm and ok_lead and ok_inf else "fail",
                    "n <= %d" % ntop)
    )
    ok_f = ok_b = True
    p_up = p.shift(delta=1)
    for n in range(ntop + 1):
        f = eigenpoly_y(n, p)
        lhs = forward_shift_apply(f, p)
        rhs = eigenpoly_y(n - 1, p_up).scale(energy(n, p))
        ok_f &= (lhs - rhs).is_zero
        if n >= 1:
            lhs2 = backward_shift_apply(eigenpoly_y(n - 1, p_up), p)
            ok_b &= (lhs2 - f).is_zero
    checks.append(CheckResult("base_forward_shift", "pass" if ok_f else "fail",
                              "n <= %d" % ntop))
    checks.append(CheckResult("base_backward_shift", "pass" if ok_b else "fail",
                              "n <= %d" % ntop))
    ok_series = all(
        eigenpoly_y(n, p).eval_int(x) == eigen_series_value(n, p, x)
        for n in range(5)
        for x in range(5)
    )
    checks.append(CheckResult("base_series_oracle", "pass" if ok_series else "fail",
                              "alternative hypergeometric route, n,x <= 4"))
    # random-parameter eigen identity
    ok_rand = True
    for _ in range(3):
        pr = _random_valid_params(rng, p.family, p.ctype, p.dmax)
        for n in range(4):
            f = eigenpoly_y(n, pr)
            if not (hamiltonian_apply(f, pr) - f.scale(energy(n, pr))).is_zero:
                ok_rand = False
    checks.append(CheckResult("base_eigen_random_params",
                              "pass" if ok_rand else "fail",
                              "3 random parameter points, n <= 3"))
    return checks


def _virtual_checks(p: Params, rng: random.Random) -> list[CheckResult]:
    checks = []
    vd = virtual_data(p)
    bpol, dpol = potential_b(p), potential_d(p)
    r1 = bpol * dpol.shift(1) - vd.bprime_new * vd.dprime_new.shift(1)
    checks.append(_residual_check("virtual_factor_product", r1))
    r2 = bpol + dpol - vd.bprime_new - vd.dprime_new - LaurentPoly.const(p.q, vd.alpha_prime)
    checks.append(_residual_check("virtual_factor_sum", r2))
    checks.append(
        _equal_check(
            "virtual_alpha_prime_negative",
            vd.alpha_prime < 0,
            True,
            "alpha' = %s" % vd.alpha_prime,
        )
    )
    vtop = max(p.dmax, 2)
    ok_deg = ok_norm = ok_diffeq = ok_energy = ok_neg = True
    for v in range(vtop + 1):
        try:
            xi = virtual_poly_y(v, p)
        except InvalidParamsError:
            continue
        ok_deg &= xi.to_eta().degree == v
        if p.ctype == CType.TYPE_II:
            ok_norm &= xi.eval_int(-1) == 1
        else:
            ok_norm &= xi.eval_int(0) == 1
        ok_diffeq &= xi_diffeq_residual(v, p).is_zero
        ok_energy &= virtual_energy(v, p) == virtual_energy_prime(v, p) + vd.alpha_prime
        if v <= p.dmax:
            ok_neg &= virtual_energy(v, p) < 0
    checks.append(CheckResult("virtual_poly_degree_norm",
                              "pass" if ok_deg and ok_norm else "fail",
                              "v <= %d" % vtop))
    checks.append(CheckResult("virtual_difference_equation",
                              "pass" if ok_diffeq else "fail", "v <= %d" % vtop))
    checks.append(CheckResult("virtual_energy_two_routes",
                              "pass" if ok_energy and ok_neg else "fail",
                              "additive split holds; energies negative for v <= dmax"))
    # positivity window of the virtual-state polynomials
    lo = -1 if p.ctype == CType.TYPE_II else 0
    soft = "fail" if p.strict_range else "warn"
    ok_pos = True
    for v in range(min(p.dmax, 5) + 1):
        try:
            xi = virtual_poly_y(v, p)
        except InvalidParamsError:
            continue
        ok_pos &= all(xi.eval_int(x) > 0 for x in range(lo, 61))
    checks.append(CheckResult("virtual_poly_positive",
                              "pass" if ok_pos else soft,
                              "x in [%d, 60], v <= min(dmax,5)" % lo))
    # ground-state ratio identities
    ok_nu = all(
        groundstate_ratio(x, p) ** 2 * virtual_groundstate_sq(x, p)
        == groundstate_sq(x, p)
        for x in range(0, 11)
    )
    checks.append(CheckResult("virtual_groundstate_ratio",
                              "pass" if ok_nu else "fail", "x <= 10"))
    if p.ctype == CType.TYPE_II:
        ok_r = True
        for m in (1, 2):
            for j in range(1, m + 2):
                r = nu_ratio_poly(j, m, p)
                for x in range(j - 1, j + 5):
                    lhs = r.eval_int(x)
                    rhs = groundstate_ratio(x - j + 1, p) / groundstate_ratio(
                        x, p.shift(tilde=m)
                    )
                    ok_r &= lhs == rhs
        checks.append(CheckResult("virtual_ratio_poly_two_routes",
                                  "pass" if ok_r else "fail", "m <= 2"))
        if p.family == Family.LQ_JACOBI and p.b != 0:
            ok_s = all(
                virtual_poly_y(v, p).eval_int(x) == xi_series_value(v, p, x)
                for v in range(min(p.dmax, 4) + 1)
                for x in range(0, 13)
            )
            checks.append(CheckResult("virtual_series_rewriting",
                                      "pass" if ok_s else "fail",
                                      "x in [0,12], v <= min(dmax,4)"))
    return checks


def _deformed_checks(d: IndexSet, p: Params, nmax: int) -> list[CheckResult]:
    checks = []
    if p.ctype == CType.TYPE_I:
        # raw engine: closed-form proportionality for single indices
        if d.size == 1:
            dd = d.indices[0]
            ok = True
            for n in range(nmax + 1):
                clos = typeI_single_poly(dd, n, p.family, p.q, p.a, p.b)
                raw = typeI_eigen_numerator(d, n, p)
                lc_c = clos.coeff(clos.max_deg)
                lc_r = raw.coeff(raw.max_deg)
                ok &= (clos.scale(lc_r) - raw.scale(lc_c)).is_zero
                ok &= clos.eval_int(0) == 1
            checks.append(CheckResult("deformed_single_index_closed_form",
                                      "pass" if ok else "fail",
                                      "raw Casoratian proportional to closed form"))
        return checks
    xi = denominator_poly(d, p)
    checks.append(_equal_check("deformed_denominator_value_at_minus1",
                               xi.eval_int(-1), Fraction(1)))
    checks.append(_equal_check("deformed_denominator_degree", xi.degree,
                               d.degree_offset))
    checks.append(_equal_check("deformed_denominator_leading", xi.leading,
                               denominator_leading(d, p)))
    xinf_target, _ = infinity_values(d, 0, p)
    checks.append(_equal_check("deformed_denominator_infinity",
                               denominator_poly_y(d, p).at_infinity(), xinf_target))
    ok_norm = ok_deg = ok_lead = ok_inf = ok_eig = ok_f = ok_b = True
    for n in range(nmax + 1):
        pn = multi_indexed_poly(d, n, p)
        ok_norm &= pn.eval_int(0) == 1
        ok_deg &= pn.degree == d.degree_offset + n
        ok_lead &= pn.leading == multi_indexed_leading(d, n, p)
        _, pinf = infinity_values(d, n, p)
        ok_inf &= multi_indexed_poly_y(d, n, p).at_infinity() == pinf
        ok_eig &= deformed_eigencheck(d, n, p).is_zero
        ok_f &= deformed_forward_check(d, n, p).is_zero
        if n >= 1:
            ok_b &= deformed_backward_check(d, n, p).is_zero
    checks.append(CheckResult("deformed_value_at_zero", "pass" if ok_norm else "fail",
                              "n <= %d" % nmax))
    checks.append(CheckResult("deformed_degree_law", "pass" if ok_deg else "fail",
                              "degree = offset + n"))
    checks.append(CheckResult("deformed_leading_coefficients",
                              "pass" if ok_lead else "fail", "n <= %d" % nmax))
    checks.append(CheckResult("deformed_infinity_values",
                              "pass" if ok_inf else "fail", "two routes agree"))
    checks.append(CheckResult("deformed_eigen_equation", "pass" if ok_eig else "fail",
                              "zero residual, n <= %d" % nmax))
    checks.append(CheckResult("deformed_forward_shift", "pass" if ok_f else "fail",
                              "zero residual, n <= %d" % nmax))
    checks.append(CheckResult("deformed_backward_shift", "pass" if ok_b else "fail",
                              "zero residual, 1 <= n <= %d" % nmax))
    checks.append(_residual_check("deformed_lowest_matches_denominator",
                                  lowest_matches_denominator(d, p)))
    if d.size == 1:
        dd = d.indices[0]
        ok = all(
            (multi_indexed_poly_y(d, n, p) - typeII_single_poly(dd, n, p)).is_zero
            for n in range(nmax + 1)
        )
        checks.append(CheckResult("deformed_single_index_closed_form",
                                  "pass" if ok else "fail",
                                  "determinant route equals closed form"))
    return checks


def _zeros_checks(d: IndexSet, p: Params, nmax: int, prec_bits: int) -> list[CheckResult]:
    checks = []
    offset = d.degree_offset if p.ctype == CType.TYPE_II else None
    try:
        for n in range(nmax + 1):
            rep = zeros_report(d, n, p, prec_bits)
            ok = rep["physical"] == n
            if offset is not None:
                ok &= rep["unphysical"] == offset
            if n < nmax:
                ok &= rep["interlaced_with_next"]
            checks.append(
                CheckResult(
                    "zeros_n%d" % n,
                    "pass" if ok else "fail",
                    "%d physical, %d unphysical, interlaced=%s"
                    % (rep["physical"], rep["unphysical"], rep["interlaced_with_next"]),
                )
            )
    except RootFindingFailureError as exc:
        checks.append(CheckResult("zeros_rootfinding", "fail", str(exc)))
    return checks


def run_suite(
    d: IndexSet,
    p: Params,
    nmax: int = 4,
    eps: Fraction = Fraction(1, 10 ** 24),
    xmax: int = 60,
    prec_bits: int = 256,
    suites: Sequence[str] = SUITES,
    seed: int = 0,
) -> VerificationReport:
    """Run the scheduled battery and assemble a deterministic report.

    Checks run per selected suite; report order is fixed by check name.
    Exact-identity failures and exceeded numeric tolerances mark the report
    as failed; module errors surface as failed checks with witnesses.
    """
    if d.size > 0 and max(d.indices) > p.dmax:
        raise InvalidParamsError(
            "index set %s exceeds dmax=%d of the parameter point" % (d, p.dmax)
        )
    unknown = set(suites) - set(SUITES)
    if unknown:
        raise InvalidParamsError("unknown suites: %s" % sorted(unknown))
    rng = random.Random(seed)
    checks: list[CheckResult] = []

    def guarded(name: str, fn: Callable[[], list[CheckResult]]):
        try:
            checks.extend(fn())
        except LittleQError as exc:
            checks.append(
                CheckResult(name, "fail", "%s: %s" % (type(exc).__name__, exc))
            )

    # virtual-state machinery needs a negative additive constant (and b != 0
    # for type II little q-Jacobi); base-only parameter points outside that
    # range skip the dependent fragments with a warning note
    applicable = True
    if p.family == Family.LQ_JACOBI and p.ctype == CType.TYPE_II and p.b == 0:
        applicable = False
    elif virtual_data(p).alpha_prime >= 0:
        applicable = False

    def note(name: str):
        checks.append(
            CheckResult(
                name,
                "warn",
                "virtual-state range does not cover this base parameter point",
            )
        )

    if "base" in suites:
        guarded("base_suite_error", lambda: _base_checks(p, nmax, rng))
    if "virtual" in suites:
        if applicable:
            guarded("virtual_suite_error", lambda: _virtual_checks(p, rng))
        else:
            note("virtual_suite_skipped")
    if "deformed" in suites or "shifts" in suites:
        guarded("deformed_suite_error", lambda: _deformed_checks(d, p, nmax))
    if "structural" in suites:
        if applicable:
            guarded("structural_suite_error",
                    lambda: structural_checks(d, p, nmax, rng))
        else:
            note("structural_suite_skipped")
    if "reflection" in suites:
        if applicable:
            guarded("reflection_suite_error", lambda: reflection_checks(p))
        else:
            note("reflection_suite_skipped")
    if "ortho" in suites:
        guarded("ortho_suite_error", lambda: orthogonality_check(d, p, nmax, eps))
    if "zeros" in suites:
        guarded("zeros_suite_error", lambda: _zeros_checks(d, p, min(nmax, 4), prec_bits))
    if "positivity" in suites:
        guarded("positivity_suite_error", lambda: positivity_scan(d, p, xmax))
    params_echo = {
        "family": p.family.value,
        "type": int(p.ctype),
        "q": _fmt(p.q),
        "a": _fmt(p.a),
        "b": _fmt(p.b),
        "dmax": p.dmax,
        "strict_range": p.strict_range,
    }
    return VerificationReport(checks, params_echo, list(d.indices))
