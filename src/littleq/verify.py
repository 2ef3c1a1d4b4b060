"""Verification suite: exact identity checks, orthogonality by telescoping
certificates, exact zero counts and interlacing, lattice positivity.

Exact checks pass only when a residual object is identically zero.  Each
infinite orthogonality sum claims sum_{x >= 0} w(x) f(q^x) = 0 for a Laurent
polynomial f: P_n P_m off the diagonal, P_n^2 - t_n P_0^2 for a diagonal
ratio with its closed-form target t_n, and P_0^2 minus an undeformed weight
times its q-binomial target for S_00.  The claim is proved by q-Gosper
summation: a Laurent polynomial N whose antidifference F = gs' N / den(x-1)
telescopes to the whole sum, with boundary value -N(1)/den(-1) = 0, all in
exact integers (OrthogonalityData).  No lattice term is summed.  Zero
counts and interlacing are proved on integer numerators (Descartes' rule of
signs with Vincent-Collins-Akritas bisection on intervals with endpoints
over powers of two, and a merge of adjacent levels' intervals); the same
count and one end sign prove each sign at every lattice point (_lattice_sign).
Floating point enters only in polynomial_roots, for the root values the
zeros command prints: Aberth-Ehrlich on doubles, then Durand-Kerner on
fixed-point Gaussian integers on the exact integer numerator to a
caller-chosen precision, with an exact backward-error test on the same
integers.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import mul
from typing import NamedTuple, Sequence

from .base import (
    CType,
    Family,
    Params,
    RawParams,
    backward_shift_op,
    eigen_at_infinity,
    eigen_leading,
    eigen_series,
    eigen_series_value,
    eigenpoly,
    eigenpoly_y,
    energy,
    forward_shift_op,
    groundstate_sq,
    hamiltonian_op,
    norm_ratio,
    potential_b,
    potential_d,
    tilde_delta,
)
from .darboux import (
    IndexSet,
    deformed_identities,
    deformed_measure,
    deformed_norm_sq,
    deformed_potentials,
    denominator_leading,
    denominator_norm_const,
    denominator_poly,
    denominator_poly_y,
    infinity_values,
    level_op,
    level_poly,
    level_poly_y,
    lowest_matches_denominator,
    multi_indexed_leading,
    multi_indexed_poly,
    multi_indexed_poly_y,
    typeI_single_op,
    typeI_single_poly,
    typeII_single_op,
    xi_casoratian,
)
from .dyadic import _fraction, _round_signed, nstr
from .exact import (
    DenominatorZeroAtIntegerError,
    EtaPoly,
    InvalidParamsError,
    LaurentPoly,
    LittleQError,
    NonConvergenceError,
    RootFindingFailureError,
    ScalarLike,
    _convolve,
    _one_minus,
    fmt_rational,
    horner,
    op_compose,
    qpoch,
)
from .virtual import (
    degree_drop,
    groundstate_ratio,
    nu_ratio_poly,
    virtual_data,
    virtual_energy,
    virtual_energy_prime,
    virtual_groundstate_sq,
    virtual_poly_y,
    xi_diffeq_residual,
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
# a suite name that runs another suite's checks
_SUITE_ALIASES = {"shifts": "deformed"}


class CheckResult(NamedTuple):
    name: str
    status: str  # pass | fail | warn
    witness: str

    def to_dict(self) -> dict:
        return {"name": self.name, "status": self.status, "witness": self.witness}


class VerificationReport(NamedTuple):
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


def _check(name: str, ok: bool, witness: str, soft: bool = False) -> CheckResult:
    """The one place an outcome becomes a status: ``pass`` when ok, otherwise
    ``warn`` when the failure is only evidence (soft), else ``fail``."""
    return CheckResult(name, "pass" if ok else "warn" if soft else "fail", witness)


def _positivity_check(name: str, ok: bool, witness: str, p: Params) -> CheckResult:
    """Positivity is proved only in the strict range; outside it (type II
    little q-Jacobi with b <= 0) a failed proof is evidence, not a defect."""
    return _check(name, ok, witness, soft=not p.strict_range)


def _residual_check(name: str, residual: LaurentPoly | EtaPoly) -> CheckResult:
    zero = residual.is_zero
    return _check(
        name,
        zero,
        "residual identically zero" if zero else "residual has %d terms" % len(residual.coeffs),
    )


def _equal_check(name: str, lhs, rhs, witness: str = "") -> CheckResult:
    ok = lhs == rhs
    return _check(name, ok, witness or "%s %s %s" % (lhs, "==" if ok else "!=", rhs))


def _same_op(a, b) -> bool:
    """Whether two difference operators have the same nonzero entries."""
    return ({k: c for k, c in a.items() if not c.is_zero}
            == {k: c for k, c in b.items() if not c.is_zero})


# ---------------------------------------------------------------------------
# orthogonality by telescoping certificates
# ---------------------------------------------------------------------------


class Certificate(NamedTuple):
    """Whether f has a telescoping certificate N (its top residual
    coefficients vanish) and whether N(1) = 0; truncation_x is -1, since no
    lattice term is summed."""

    found: bool
    boundary_zero: bool
    truncation_x: int = -1

    @classmethod
    def of(cls, values: Sequence[int]) -> "Certificate":  # the functionals at f
        return cls(not any(values[:-1]), not values[-1])

    @property
    def ok(self) -> bool:
        return self.found and self.boundary_zero

    @property
    def witness(self) -> str:
        if not self.found:
            return "no telescoping certificate"
        return "certificate with boundary value " + ("0" if self.boundary_zero else "nonzero")


def _certificate_functionals(a_poly: LaurentPoly, b_poly: LaurentPoly, width: int
                             ) -> tuple[tuple[int, ...], ...]:
    """The E + 1 integer functionals on the coefficients of f, over a window
    of width degrees, that all vanish exactly when A N(qy) - B N(y) =
    c (1 - qy) f has a Laurent solution N (the first E: the top residuals of
    the triangular system for N from its lowest degree k0) with N(1) = 0.
    a_poly = A q^k0 and b_poly = B share their lowest degree; column s is
    scaled by t^s (q = r/t) to the integers a_i r^s - b_i t^s.  Each is one
    transposed, fraction-free back-substitution, folded with c (1 - qy) as
    t V_i - r V_i+1 and divided by its gcd, since only its zeros matter."""
    q, lo, e = b_poly.q, b_poly.min_deg, b_poly.max_deg - b_poly.min_deg
    r, t, common = q.numerator, q.denominator, math.lcm(a_poly.den, b_poly.den)
    a, b = ([int(f.coeff(lo + i) * common) for i in range(e + 1)] for f in (a_poly, b_poly))
    k = width + 1 - e  # the unknowns N_k0..N_k0+k-1, then e residual rows
    cols = [[a[i] * r ** s - b[i] * t ** s for i in range(e + 1)] for s in range(k)]
    # the residual rows k + j, and N(1) = sum_s t^s (N_k0+s / t^s)
    rhs = [[cols[s][k + j - s] if k + j - s <= e else 0 for s in range(k)] for j in range(e)]
    functionals = []
    for j, u in enumerate(rhs + [[t ** s for s in range(k)]]):
        z, scale, grown = [0] * k, 1, []
        for s in range(k - 1, -1, -1):
            col = cols[s]
            acc = u[s] * scale - sum(col[i] * z[s + i] for i in range(1, min(e, k - 1 - s) + 1))
            g = math.gcd(acc, col[0])
            piv = col[0] // g
            for i in range(s + 1, min(s + e, k)):  # z[s + e] is read no more
                z[i] *= piv
            z[s], scale = acc // g, scale * piv
            grown.append(piv)
        for s, piv in enumerate(accumulate(reversed(grown), mul)):
            if s + e < k:
                z[s + e] *= piv
        psi = z + [-scale if i == j else 0 for i in range(e)]
        phi = [t * psi[i] - r * psi[i + 1] for i in range(width)]
        g = math.gcd(*phi) or 1
        functionals.append(tuple(v // g for v in phi))
    return tuple(functionals)


class OrthogonalityData:
    """The deformed orthogonality relation, decided by q-Gosper summation.

    With w = c gs'(x) / (den(x) den(x-1)) ((den, c) from deformed_measure, gs'
    the squared ground state at lambda + M tilde), a certificate of f is a
    Laurent polynomial N with

        a'(1 - b'y) N(qy) den(x-1) - (1 - qy) N(y) den(x) = c (1 - qy) f(y);

    F = gs'(x) N(y) / den(x-1) has F(x+1) - F(x) = w(x) f(q^x), so
    sum_{x >= 0} w f = -N(1)/den(-1) once F -> 0.  Construction proves the
    side conditions or raises: den(q^x) != 0 for integer x >= -1 (by
    _lattice_proof), and F -> 0: a' q^(k0 - l) < 1, l and k0 the lowest
    degrees of den and N, so no pivot a' q^(k - l) - 1 is 0.  Its data are
    tuples and it decides each pair certificate once, so that
    orthogonality_data can share one instance per point."""

    def __init__(self, d: IndexSet, p: Params, nmax: int):
        self.d, self.p = d, p
        self.polys = tuple(level_poly_y(d, n, p) for n in range(nmax + 1))
        den, self._c = deformed_measure(d, p)
        q, pu = p.q, p.shift(tilde=d.size)
        if not _lattice_proof([den], -1, definite=True)[0]:
            raise DenominatorZeroAtIntegerError(
                "no proof that the denominator polynomial is nonzero at every x >= -1")
        lo, hi = den.min_deg, den.max_deg
        # the window of every row: P_n P_m, and den den(x-1) y (1 - b'y)
        self._j0 = j0 = min(2 * min(f.min_deg for f in self.polys), 2 * lo + 1)
        j1 = max(2 * max(f.max_deg for f in self.polys), 2 * hi + 2)
        if pu.a * q ** (j0 - 2 * lo) >= 1:
            raise NonConvergenceError(
                "the certificates do not vanish as x -> infinity: a' q^(k0 - l) = %s >= 1"
                % fmt_rational(pu.a * q ** (j0 - 2 * lo)))
        y = LaurentPoly.var(q)
        self._den, self._bu, self._norm0 = den, pu.b, deformed_norm_sq(d, 0, p)
        # t_n = S_nn/S_00 from the closed-form norm constants: deformed_norm_sq(D, n)
        # is prod_j 1/(E_n - E~_j) times a factor free of n, and E_0 = 0
        virtual = [virtual_energy(dj, p) for dj in d.indices]
        at0 = math.prod(-v for v in virtual)
        energies = [energy(n, p) for n in range(nmax + 1)]
        self.targets = tuple(math.prod(e - v for v in virtual) / (at0 * norm_ratio(n, p))
                             for n, e in enumerate(energies))
        self._phi = _certificate_functionals(
            (den.shift(-1) * (1 - y.scale(pu.b))).scale(pu.a * q ** (j0 - lo)),
            den * (1 - y.scale(q)), j1 - j0 + 1)
        self._square0 = self._product(0, 0)
        self._certificates: dict[tuple[int, int], Certificate] = {}

    def certify(self, f: LaurentPoly) -> Certificate:
        """The certificate of sum_{x >= 0} w f = 0, for f in the window."""
        if not f.is_zero and not self._j0 <= f.min_deg <= f.max_deg < self._j0 + len(self._phi[0]):
            raise ValueError("f lies outside the degree window of the certificates")
        return Certificate.of(self._values(f.val, f.num, f.den)[0])

    def _values(self, val: int, num: Sequence[int], den: int) -> tuple[list[int], int]:
        """The functionals at y^val num / den, as integers over den."""
        return [sum(map(mul, num, phi[val - self._j0:])) for phi in self._phi], den

    def _product(self, n: int, m: int) -> tuple[list[int], int]:
        """The functionals at P_n P_m, from one integer convolution."""
        a, b = self.polys[n], self.polys[m]
        return self._values(a.val + b.val, _convolve(a.num, b.num), a.den * b.den)

    def _minus(self, f: tuple[list[int], int], by: Fraction) -> Certificate:
        """The certificate of f - by P_0^2, from the functionals at f."""
        (vf, df), (v0, d0) = f, self._square0
        return Certificate.of([v * d0 * by.denominator - by.numerator * df * w
                               for v, w in zip(vf, v0)])

    def pair_sum(self, n: int, m: int) -> Certificate:
        """The certificate of S_nm = 0 for n != m, of S_nn = t_n S_00 for n = m."""
        cert = self._certificates.get((n, m))
        if cert is None:
            cert = self._certificates[n, m] = (
                Certificate.of(self._product(n, m)[0]) if n != m
                else self._minus(self._product(n, n), self.targets[n]))
        return cert

    def absolute_ratio(self) -> tuple[Fraction, Certificate]:
        """(T, the certificate of S_00 = T S''_00), S''_00 the undeformed S_00
        at lambda'' = lambda + M tilde + delta.  By the q-binomial theorem
        T = (1 - ab)(1 - abq) R_k / deformed_norm_sq(D, 0) with k = s_a M + 1
        and R_k = (aq^k;q)_inf / (a;q)_inf (b = 0 for little q-Laguerre), and
        S''_00 sums w Q den den(x-1) / c, Q = gs(x; lambda'')/gs'(x) =
        y (1 - b'y)/(1 - b')."""
        p, m, q = self.p, self.d.size, self.p.q
        k, ab = tilde_delta(p.family, p.ctype)[0] * m + 1, p.a * p.b
        r_k = 1 / qpoch(p.a, q, k) if k >= 0 else qpoch(p.a * q ** k, q, -k)
        target = (1 - ab) * (1 - ab * q) * r_k / self._norm0
        y, den, bu = LaurentPoly.var(q), self._den, self._bu
        ref = y * (1 - y.scale(bu)) * den * den.shift(-1)
        # P_0^2 - T ref / (c (1 - b')) is a nonzero multiple of ref - by P_0^2
        by = self._c * (1 - bu) / target
        return target, self._minus(self._values(ref.val, ref.num, ref.den), by)


@lru_cache(maxsize=16)  # small: an entry holds E + 1 functionals of long integers
def orthogonality_data(d: IndexSet, p: Params, nmax: int) -> OrthogonalityData:
    """The one shared, read-only OrthogonalityData of (D, p, nmax), so that
    verify and table at a point build it and decide its certificates once.
    A construction that raises is not cached."""
    return OrthogonalityData(d, p, nmax)


def orthogonality_check(d: IndexSet, p: Params, nmax: int) -> list[CheckResult]:
    """Orthogonality fragment: one certificate per off-diagonal pair, per
    diagonal ratio S_nn/S_00 and for S_00 over an undeformed sum."""
    try:
        data = orthogonality_data(d, p, nmax)
    except LittleQError as exc:
        return [_check("ortho_setup", False, "%s: %s" % (type(exc).__name__, exc))]
    checks = [_check("ortho_offdiag_n%d_m%d" % (n, m), c.ok, "S_nm = 0: " + c.witness)
              for n in range(nmax + 1) for m in range(n + 1, nmax + 1)
              for c in [data.pair_sum(n, m)]]
    rows = [("ortho_diag_ratio_n%d" % n, "S_nn/S_00", (data.targets[n], data.pair_sum(n, n)))
            for n in range(1, nmax + 1)]
    rows.append(("ortho_absolute_s00", "S_00/S''_00", data.absolute_ratio()))
    return checks + [_check(name, c.ok, "%s = %s: %s" % (what, float(target), c.witness))
                     for name, what, (target, c) in rows]


# ---------------------------------------------------------------------------
# zeros and interlacing
# ---------------------------------------------------------------------------


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def _taylor_shift(a: Sequence[int], c: int) -> list[int]:
    """Coefficients of a(x + c)."""
    a = list(a)
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] += c * a[j + 1]
    return a


def _descartes(a: Sequence[int], lo: int, hi: int, den: int) -> int:
    """Sign variations of (1 + t)^deg den^deg a((hi + lo t) / (den (1 + t))).

    By Descartes' rule this bounds the number of zeros of a in the open
    interval (lo/den, hi/den), with the same parity, so a count of 0 or 1 is
    exact.
    """
    deg = len(a) - 1
    b = [c * den ** (deg - i) for i, c in enumerate(a)]
    if lo:  # a shift by 0 is the identity
        b = _taylor_shift(b, lo)
    b = _taylor_shift([c * (hi - lo) ** i for i, c in enumerate(b)][::-1], 1)
    signs = [c > 0 for c in b if c]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _lattice_sign(f: LaurentPoly, lo: int) -> tuple[int, int]:
    """(count, sign): the sign variations of f's integer numerator on
    (0, q^lo), from _descartes, and the sign of f at x = lo.  A count of 0
    and a nonzero sign prove that f(q^x) has that sign at every integer
    x >= lo, since y^val and f's denominator are positive for q > 0."""
    end = f.q ** lo
    return _descartes(f.num, 0, end.numerator, end.denominator), _sign(f.eval_int(lo))


def _isolate(t: Sequence[int], lo: int, k: int) -> list[list]:
    """Vincent-Collins-Akritas bisection: isolating intervals [lo, hi, k,
    below], meaning [lo/2^k, hi/2^k], in increasing order, of the zeros of
    the squarefree a in (lo/2^k, (lo + 1)/2^k), from its transform
    t(x) = 2^(k deg) a((lo + x)/2^k).  The halves inherit t: 2^deg t(x/2)
    and its shift by 1, whose constant term is 0 iff the midpoint is a zero.
    lo == hi marks an exact zero, else the one zero lies strictly inside;
    below, the sign of a just above lo, is None until _bisect first needs it."""
    count = _descartes(t, 0, 1, 1)
    if count < 2:
        return [[lo, lo + 1, k, None]] * count
    left = [c << len(t) - 1 - i for i, c in enumerate(t)]
    right, mid, k = _taylor_shift(left, 1), 2 * lo + 1, k + 1
    exact = [] if right[0] else [[mid, mid, k, None]]
    return _isolate(left, 2 * lo, k) + exact + _isolate(right, mid, k)


def _bisect(a: Sequence[int], iv: list) -> None:
    """Halve, in place, the isolating interval iv of a simple zero of a.  The
    sign below, just above lo, is found on the first halving and never
    changes, since no zero of a lies between lo and the zero."""
    lo, hi, k, below = iv
    if below is None:  # a(lo), or a'(lo) where a(lo) = 0
        below = _sign(horner(a, lo, 1 << k)[0]) or _sign(
            horner([i * c for i, c in enumerate(a)][1:], lo, 1 << k)[0])
    mid, k = lo + hi, k + 1
    s = _sign(horner(a, mid, 1 << k)[0])
    if s == 0:
        iv[:] = mid, mid, k, below
    elif s == below:  # the zero lies above mid
        iv[:] = mid, 2 * hi, k, below
    else:
        iv[:] = 2 * lo, mid, k, below


def _coprime(a: Sequence[int], b: Sequence[int]) -> bool:
    """True proves the integer polynomials a and b coprime over the rationals:
    they are coprime modulo the prime m = 2^61 - 1, which keeps the degree of
    a.  False means they may share a factor."""
    m = (1 << 61) - 1
    x, y = [c % m for c in a], [c % m for c in b]
    if not x[-1]:
        return False
    while y and not y[-1]:
        y.pop()
    while y:
        inv = pow(y[-1], -1, m)
        while len(x) >= len(y):
            f, k = x.pop() * inv % m, len(x) + 1 - len(y)
            for i, c in enumerate(y[:-1]):
                x[k + i] = (x[k + i] - f * c) % m
            while x and not x[-1]:
                x.pop()
        x, y = y, x
    return len(x) == 1


def _level_zeros(poly: EtaPoly, n: int) -> tuple[list[int], list[list]]:
    """Integer numerator of the level-n polynomial (lowest degree first) and
    the isolating intervals of its zeros in the physical range [0, 1), found
    exactly (see _isolate).  Bisection cannot separate a repeated zero, so a
    level whose zeros are not proved simple raises RootFindingFailureError."""
    a = poly.num
    if not _coprime(a, [i * c for i, c in enumerate(a)][1:]):
        raise RootFindingFailureError(
            "level %d: no proof that its zeros are simple (P and P' share a "
            "factor modulo 2^61 - 1)" % n
        )
    return a, ([[0, 0, 0, None]] if a[0] == 0 else []) + _isolate(a, 0, 0)


def _interlaced(level, upper) -> bool:
    """Whether the zeros in [0, 1) of this level and of the next (upper)
    strictly alternate, with a zero of the next level first and last.

    A merge of the two sorted interval lists along that order: each pair in
    front is decided by its endpoints (across k by shifts), and while the two
    overlap the wider is bisected (both when equally wide), which ends
    because the levels are proved coprime first; levels not proved coprime
    count as not interlaced.
    """
    (a, ra), (b, rb) = level, upper
    if len(rb) != len(ra) + 1:
        return False
    if not _coprime(a, b):
        return False  # the levels may share a zero
    chain = [(rb[0], b)] + [t for u, v in zip(ra, rb[1:]) for t in ((u, a), (v, b))]
    for (s, f), (t, g) in zip(chain, chain[1:]):
        while not s[1] << t[2] <= t[0] << s[2]:  # until s ends where t starts or before
            if t[1] << s[2] <= s[0] << t[2]:
                return False
            ks, kt = (iv[2] if iv[0] < iv[1] else math.inf for iv in (s, t))
            if ks <= kt:
                _bisect(f, s)
            if kt <= ks:
                _bisect(g, t)
    return True


def _aberth_sweep(roots: list[complex], monic: Sequence[float], low: int) -> float:
    """One Aberth-Ehrlich sweep, in place, on roots[low:] of monic (highest
    degree first): z -= p / (p' - p sum_(w != z) 1 / (z - w)).  Returns the
    largest correction over max(1, |z|)."""
    big = 0.0
    for i in range(low, len(roots)):
        z, p, dp = roots[i], 0j, 0j
        for c in monic:
            p, dp = p * z + c, dp * z + p
        step = p / (dp - p * sum([1 / (z - w) for w in roots[:i] + roots[i + 1:]]))
        roots[i] = z - step
        big = max(big, abs(step) / max(1.0, abs(z)))
    return big


def _float_roots(poly: EtaPoly) -> list[complex] | None:
    """Aberth-Ehrlich on doubles for the roots of poly, as the start of the
    high-precision iteration, run in y = 1 - eta (where the physical zeros,
    crowding toward eta = 1, differ in magnitude) and returned in eta.  The
    start lies on the Newton polygon of |b_i|, b(y) = poly(1 - y): each edge
    (i0, i1) of its upper hull places i1 - i0 points evenly on the circle of
    radius (|b_i0| / |b_i1|)^(1 / (i1 - i0)), turned by 2 pi i0 / deg + 0.4
    (Bini 1996); a zero at y = 0 starts and stays at 0j.  It stops once the
    largest correction over max(1, |y|) is below 1e-6 and stops halving (at
    most 100 sweeps).  None when a monic coefficient (int / int, rounded
    once) overflows a double or a root comes out non-finite."""
    prev, b, hull = math.inf, _one_minus(poly.num), []
    for pt in ((i, math.log(abs(c))) for i, c in enumerate(b) if c):
        while len(hull) > 1 and (hull[-1][0] - hull[-2][0]) * (pt[1] - hull[-2][1]) >= (
                hull[-1][1] - hull[-2][1]) * (pt[0] - hull[-2][0]):
            hull.pop()  # hull[-1] lies on or below the chord from hull[-2] to pt
        hull.append(pt)
    roots = [0j] * hull[0][0]
    try:
        monic = [c / b[-1] for c in reversed(b)]
        for (i0, l0), (i1, l1) in zip(hull, hull[1:]):
            r = math.exp((l0 - l1) / (i1 - i0))
            roots += [r * complex(math.cos(t), math.sin(t)) for t in (
                2 * math.pi * (j / (i1 - i0) + i0 / poly.degree) + 0.4 for j in range(i1 - i0))]
        for _ in range(100):
            big = _aberth_sweep(roots, monic, hull[0][0])
            if big < 1e-6 and big >= prev / 2:
                break
            prev = big
    except (OverflowError, ZeroDivisionError):
        return None
    finite = all(math.isfinite(x) for z in roots for x in (z.real, z.imag))
    return [1 - z for z in roots] if finite else None


def _dk_sweep(roots: list[list[int]], monic: Sequence[int], k: int) -> int:
    """One Durand-Kerner sweep, in place, on roots [re, im] and monic (highest
    degree first) over 2^k; returns the largest squared correction over 2^2k."""
    big = 0
    for i, (zr, zi) in enumerate(roots):
        pr, pi, dr, di = 0, 0, 1 << k, 0
        for c in monic:
            pr, pi = ((pr * zr - pi * zi) >> k) + c, (pr * zi + pi * zr) >> k
        for j, (wr, wi) in enumerate(roots):
            fr, fi = zr - wr, zi - wi
            if j != i and (fr or fi):
                dr, di = (dr * fr - di * fi) >> k, (dr * fi + di * fr) >> k
        norm = dr * dr + di * di or 1  # underflowed: no step, the residual test judges
        xr, xi = ((pr * dr + pi * di) << k) // norm, ((pi * dr - pr * di) << k) // norm
        roots[i] = [zr - xr, zi - xi]
        big = max(big, xr * xr + xi * xi)
    return big


def _durand_kerner(a: Sequence[int], start, prec_bits: int) -> tuple[list[list[int]], int]:
    """mpmath's polyroots on fixed-point Gaussian integers: the roots of a
    (lowest degree first) as [re, im] over 2^k, k = 2 prec_bits + guard,
    guard = 64 + bits(1/rho), rho a Cauchy lower bound on the nonzero |root|.
    Sweeps from start (else (0.4+0.9i)^j) over 2^kw, kw = min(k, 2 good +
    guard) never falling, 2^-good the last largest correction (20 from start,
    else 0).  Once 2 good >= prec_bits + 8, one quadratic step meets the
    stopping test, so the next sweep runs at k.  A sweep that does not raise
    good sends the next to k only if good > 0: while the corrections are
    still >= 1 it is the start, not the precision, that stalls the loop.  At
    k it stops once every correction is below tol = 2^(1 - prec_bits), after
    at most 200 sweeps in all (else RootFindingFailureError), then polyroots'
    cleanup at tol and its (|im|, re) order.  Returns (roots, k)."""
    low = next(abs(c) for c in a if c)
    guard = 64 + ((low + max(map(abs, a))) // low).bit_length()
    k, good = 2 * prec_bits + guard, 20 if start else 0
    kw, tol = min(k, 2 * good + guard), 1 << (k + 1 - prec_bits)
    roots = [[(n << kw) // d for n, d in map(float.as_integer_ratio, (z.real, z.imag))]
             for z in start or [(0.4 + 0.9j) ** j for j in range(len(a) - 1)]]
    monic = [(c << kw) // a[-1] for c in reversed(a)]
    for _ in range(200):
        big = _dk_sweep(roots, monic, kw)
        if kw == k and big < tol * tol:
            break
        was, good = good, kw - (big.bit_length() + 1) // 2
        to_k = good > 0 and (good <= was or 2 * good >= prec_bits + 8)
        up = k if to_k else min(k, 2 * good + guard)
        if up > kw:
            roots = [[x << up - kw for x in r] for r in roots]
            kw, monic = up, [(c << up) // a[-1] for c in reversed(a)]
    else:
        raise RootFindingFailureError("Durand-Kerner did not converge in 200 sweeps")
    for r in roots:
        if r[0] * r[0] + r[1] * r[1] < tol * tol:
            r[:] = 0, 0
        elif min(map(abs, r)) < tol:
            r[abs(r[1]) < tol] = 0  # the imaginary part first
    roots.sort(key=lambda r: (abs(r[1]), r[0]))
    return roots, k


def _residual_exact(a: Sequence[int], u: int, v: int, s: int, prec_bits: int) -> bool:
    """|a(r)| <= 2^(8 - prec_bits) sum |a_i| rho^i for r = (u + iv) / 2^s and
    rho = isqrt(u^2 + v^2) / 2^s <= |r|, decided exactly on both sides times
    2^(s deg); from bit lengths away from the bound, squaring only near it."""
    rho, pr, pi, bound = math.isqrt(u * u + v * v), 0, 0, 0
    for j, c in enumerate(reversed(a)):
        if v:
            pr, pi = pr * u - pi * v + (c << j * s), pr * v + pi * u
        else:  # a real root skips the imaginary products
            pr = pr * u + (c << j * s)
        bound = bound * rho + (abs(c) << j * s)
    # pr^2 + pi^2 < 2^(2 bits + 1) and bound^2 >= 2^(2 bits(bound) - 2)
    return 2 * max(pr.bit_length(), pi.bit_length()) + 2 * prec_bits - 15 <= (
        2 * bound.bit_length() - 2) or (pr * pr + pi * pi) << 2 * (prec_bits - 8) <= bound * bound


def _residual_small(a: Sequence[int], u: int, v: int, s: int, prec_bits: int) -> bool:
    """The test of _residual_exact for r = (u + iv) / 2^s, first in fixed
    point over 2^f, f = s + 32: Horner with floors errs by at most sqrt(2)
    sum_{j<deg} |r|^j <= err = 2 len(a) ((rho >> s) + 1)^deg units, and
    floors alone bound sum |a_i| rho^i from below.  Where that proves no
    pass, _residual_exact decides, so the verdict is the same."""
    rho, f, xr, xi, low = math.isqrt(u * u + v * v), s + 32, 0, 0, 0
    for c in reversed(a):
        xr, xi = ((xr * u - xi * v) >> s) + (c << f), (xr * v + xi * u) >> s
        low = ((low * rho) >> s) + (abs(c) << f)
    err = 2 * len(a) * ((rho >> s) + 1) ** (len(a) - 1)
    return (math.isqrt(xr * xr + xi * xi) + 1 + err) << prec_bits - 8 <= low or (
        _residual_exact(a, u, v, s, prec_bits))


class Root(NamedTuple):
    """A root in eta with exact dyadic real and imaginary parts."""

    real: Fraction
    imag: Fraction


def polynomial_roots(d: IndexSet, n: int, p: Params, prec_bits: int = 256):
    """Roots in eta of the level-n polynomial, to 2^-prec_bits * max(1, |root|).

    _durand_kerner finds them on the exact integer numerator from the
    Aberth-Ehrlich doubles start of _float_roots, its sweeps at a working
    precision that follows the last correction, moving to full precision
    once one more quadratic step meets its stopping test; each part is
    rounded once to prec_bits bits, as an integer mantissa and exponent.
    Returns a list of (root: Root, physical: bool) sorted by real part.
    Each root must pass |P(r)| <= 2^(8 - prec_bits) * sum |c_i| rho^i
    (rho <= |r|), decided in fixed point or else exactly (_residual_small),
    or RootFindingFailureError is raised.  The physical flags come from the
    exact isolation of the zeros in [0, 1): each isolating interval flags
    the root of least imaginary part among those whose real part lies in it
    (an exact zero, the nearest root), and an interval with no root of its
    own raises RootFindingFailureError.  The test, the matching and the
    order run on the integers, over one common power of two for the
    matching and the order; only the output is built as Fractions.
    """
    if prec_bits < 128:
        raise InvalidParamsError("prec_bits must be >= 128")
    poly = level_poly(d, n, p)
    zeros = _level_zeros(poly, n)[1]
    found, k = _durand_kerner(poly.num, _float_roots(poly), prec_bits)
    parts = [[_round_signed(c, 1, prec_bits, -k) for c in z] for z in found]
    fixed = []  # (u, v, s): the root (u + iv) / 2^s
    for part in parts:
        (mr, er), (mi, ei) = part
        s = max(0, -er, -ei)
        fixed.append((mr << er + s, mi << ei + s, s))
        if not _residual_small(poly.num, *fixed[-1], prec_bits):
            raise RootFindingFailureError("root residual above tolerance at (%s, %s)" % tuple(
                nstr(_fraction(*x), 15) for x in part))
    top = max([0] + [s for *_, s in fixed] + [iv[2] for iv in zeros])  # all over 2^top
    pts = [(u << top - s, v << top - s) for u, v, s in fixed]
    physical: list[int] = []
    for lo, hi, kz, _ in zeros:
        lo, hi = lo << top - kz, hi << top - kz
        if lo == hi:
            near = [((u - lo) ** 2 + v * v, i) for i, (u, v) in enumerate(pts)]
        else:
            near = [(abs(v), i) for i, (u, v) in enumerate(pts) if lo < u < hi]
        if not near or min(near)[1] in physical:
            raise RootFindingFailureError(
                "no computed root of its own in the isolating interval [%s, %s]"
                % (Fraction(lo, 1 << top), Fraction(hi, 1 << top))
            )
        physical.append(min(near)[1])
    return [(Root(*(_fraction(*x) for x in parts[i])), i in physical)
            for i in sorted(range(len(pts)), key=pts.__getitem__)]


def _zeros_summary(level, upper) -> dict:
    a, roots = level
    return {
        "physical": len(roots),
        "unphysical": len(a) - 1 - len(roots),
        "interlaced_with_next": _interlaced(level, upper),
    }


# ---------------------------------------------------------------------------
# positivity at every lattice point
# ---------------------------------------------------------------------------


def _lattice_proof(factors: Sequence[LaurentPoly], lo: int, definite: bool = False
                   ) -> tuple[bool, str]:
    """(ok, witness): whether _lattice_sign proves the product of the factors
    positive (nonzero, if definite) at every integer x >= lo."""
    signs = [_lattice_sign(f, lo) for f in factors]
    sign = math.prod(s for _, s in signs)
    if not any(c for c, _ in signs) and sign and (definite or sign > 0):
        return True, "%s for every x >= %d" % ("definite sign" if definite else "positive", lo)
    return False, "no proof for x >= %d: sign variations %s, signs at x=%d %s" % (
        lo, [c for c, _ in signs], lo, [s for _, s in signs])


def positivity_scan(d: IndexSet, p: Params) -> list[CheckResult]:
    """Signs at every lattice point, each proved by _lattice_sign: the
    denominator polynomial is positive for x >= -1 (type II), the Casoratian
    has one sign for x >= lo (-1 for type II, where Xi(x-1) enters the weight
    at x = 0, else 0), B_D is positive for x >= 0 and D_D for x >= 1 (it
    vanishes at x = 0); a potential's sign is its numerator's times its
    denominator's.

    In the extended parameter range (type II little q-Jacobi with b <= 0) a
    failed proof is reported as a warning, since positivity is only proved in
    the strict range.
    """
    pots = deformed_potentials(d, p)
    lo = -1 if p.ctype == CType.TYPE_II else 0
    rows = ([("denominator", -1, [denominator_poly_y(d, p)], False)]
            if p.ctype == CType.TYPE_II else [])
    rows += [("casoratian_sign", lo, [xi_casoratian(d, p)], True),
             ("potential_up", 0, [pots.b_num, pots.b_den], False),
             ("potential_down", 1, [pots.d_num, pots.d_den], False)]
    checks = [_positivity_check("positivity_" + name, *_lattice_proof(factors, start, definite), p)
              for name, start, factors, definite in rows]
    checks.append(_equal_check("positivity_down_at_origin", pots.d_value(0), Fraction(0)))
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
        except InvalidParamsError:
            continue
        if degree_drop(p) is None:  # b = a q^m drops a virtual-state degree
            return p
    raise NonConvergenceError("could not draw valid random parameters")


def structural_checks(
    d: IndexSet, p: Params, nmax: int, rng: random.Random
) -> list[CheckResult]:
    """Permutation invariance, index-zero reduction, the b -> 0 family limit,
    the single-index type I/II relation, and the deformed ground-state
    product identity.

    The b -> 0 limit is decided at b = 0 for every n.  Level n is A_b[P_n^b],
    A_b = level_op, each a fixed chain of field operations on b (no branch
    on its value: qhyper_terms stops only where the later terms are 0), whose
    b-dependent divisors are (b q^(-v-1); q)_v for v in D (_pole_den),
    (b q^-M; q)_M (nu_ratio_poly), cdn with D'(-j) = q^j - b/q (level_op)
    and (b; q)_n in C_n, which is 1 at b = 0 for every n; the virtual states
    are built polynomial in b.  With these nonzero at b = 0,
    level n is continuous there, so its limit is its value at the RawParams
    point b = 0.  That is the little q-Laguerre level for every n when both
    level_ops agree (_same_op), as do eigen_series and C_n (the closed
    forms, read for n <= nmax).  The other branch on b, in_virtual_range,
    keeps the virtual suite off the type II little q-Jacobi point b = 0.
    """
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
        ok_b = pa.b_num * pb.b_den == pb.b_num * pa.b_den
        ok_d = pa.d_num * pb.d_den == pb.d_num * pa.d_den
        checks.append(
            _check(
                "structural_permutation_potentials",
                ok_b and ok_d,
                "order %s vs %s" % (list(d.indices), perm),
            )
        )
        x1, x2 = deformed_measure(d, p)[0], deformed_measure(dp, p)[0]
        ok = x1 == x2 or x1 == -x2
        checks.append(
            _check(
                "structural_permutation_denominator",
                ok,
                "equal up to sign" if ok else "differs beyond sign",
            )
        )
    # index-zero reduction: D + {0} at lambda == {d_j - 1} at lambda + tilde
    if p.ctype == CType.TYPE_II:
        dbig = IndexSet.raw(tuple(d.indices) + (0,))
        dred = IndexSet.raw(tuple(dj - 1 for dj in d.indices))
        ok, wit = True, "index set %s reduces to %s" % (dbig, dred)
        try:
            for n in range(min(nmax, 2) + 1):
                lhs = multi_indexed_poly_y(dbig, n, p)
                rhs = multi_indexed_poly_y(dred, n, p.shift(tilde=1))
                if lhs != rhs:
                    ok, wit = False, "mismatch at n=%d" % n
                    break
        except LittleQError as exc:
            ok, wit = False, str(exc)
        checks.append(_check("structural_reduction", ok, wit))
    # deformed ground-state product identity: w(x) l0(x)^2 / w(0) is the
    # product of the hop ratios B_D(x-1) / D_D(x) iff, for every x >= 0,
    # w(x+1) l0(x+1)^2 / (w(x) l0^2) = B_D(x) / D_D(x+1), with
    # w(x+1) / w(x) = a' (1 - b' y) den(x-1) / ((1 - q y) den(x+1)) at
    # lambda + M tilde; denominators cleared, one polynomial identity in y.
    # Consistency only: the potentials are built from den and l0, so a den or
    # l0 that is wrong but used consistently cancels from both sides
    if p.ctype == CType.TYPE_II:
        den, _ = deformed_measure(d, p)
        pots, l0, pu = deformed_potentials(d, p), level_poly_y(d, 0, p), p.shift(tilde=d.size)
        l1 = l0.shift(1)
        lhs = LaurentPoly(q, {0: pu.a, 1: -pu.a * pu.b}) * den.shift(-1) * (l1 * l1)
        rhs = LaurentPoly(q, {0: 1, 1: -q}) * den.shift(1) * (l0 * l0)
        ok = (lhs * pots.d_num.shift(1) * pots.b_den
              == rhs * pots.b_num * pots.d_den.shift(1))
        checks.append(_check("structural_groundstate_product", ok,
                             "hop ratio equals the weight ratio for every x >= 0" if ok
                             else "hop ratio differs from the weight ratio"))
    # b -> 0 limit (little q-Jacobi only), decided at b = 0 (see above)
    if p.family == Family.LQ_JACOBI and p.ctype == CType.TYPE_II:
        lag, m = Params(Family.LQ_LAGUERRE, q, p.a, 0, CType.TYPE_II, p.dmax), d.size
        r0 = RawParams(Family.LQ_JACOBI, *lag[1:])
        divisors = [qpoch(r0.b * q ** (-v - 1), q, v) for v in d.indices] + [
            qpoch(r0.b * q ** -m, q, m), denominator_norm_const(d, r0),
            *(virtual_data(r0).dprime_new.eval_int(-j) for j in range(1, m + 1))]
        ok = (all(divisors) and _same_op(level_op(d, r0), level_op(d, lag))
              and eigen_series(r0) == eigen_series(lag)
              and all(eigen_at_infinity(n, r0) == eigen_at_infinity(n, lag)
                      for n in range(nmax + 1)))
        checks.append(_check("structural_blimit_linear", ok, "every n: the level at b = 0 is"
                             " the little q-Laguerre level, no b-divisor 0 there" if ok
                             else "the b = 0 point differs from little q-Laguerre"))
    # single-index type I/II relation at shifted parameters
    fam = p.family
    pi = RawParams(fam, q, p.a, p.b, CType.TYPE_I).shift(tilde=-1)
    try:
        twin = (
            p
            if p.ctype == CType.TYPE_II
            else Params(fam, q, p.a, p.b, CType.TYPE_II, dmax=1)
        )
    except InvalidParamsError:
        twin = None  # the type II side is out of range at this point
    if twin is not None:
        ok, soft, wit = True, False, "equal for n <= %d" % min(nmax, 4)
        pm = twin.shift(tilde=-1)
        try:
            for n in range(min(nmax, 4) + 1):
                try:
                    rhs = multi_indexed_poly_y(IndexSet.of(1), n, pm)
                except InvalidParamsError as exc:
                    # a coincidence such as a = q puts the shifted point on a pole
                    ok, soft, wit = False, True, "degenerate shifted point (%s)" % exc
                    break
                if typeI_single_poly(1, n, pi) != rhs:
                    ok, wit = False, "mismatch at n=%d" % n
                    break
        except LittleQError as exc:
            ok, wit = False, str(exc)
        checks.append(_check("structural_type_i_ii_single_index", ok, wit, soft=soft))
    return checks


def reflection_checks(p: Params) -> list[CheckResult]:
    """Coordinate-and-base reversal of the single-index type I polynomial for
    D = {2}: must reproduce the type II polynomial for n = 0, 1 and must fail
    for n = 2 (a degenerate normalization also counts as failure).  Below
    dmax = 2, D = {2} is past dmax: a pole at n <= 1 (b = q^2, q^3) only warns."""
    if p.family != Family.LQ_JACOBI or p.ctype != CType.TYPE_II:
        return []
    checks = []
    d2 = IndexSet.of(2)
    for n in range(3):
        expected, soft = n <= 1, False
        try:
            refl = typeI_single_poly(
                2, n, RawParams(Family.LQ_JACOBI, 1 / p.q, p.a, p.b, CType.TYPE_I)
            ).coeff_dict()
            same = refl == multi_indexed_poly_y(d2, n, p).coeff_dict()
            wit = "coefficients %s" % ("match" if same else "differ")
        except InvalidParamsError as exc:
            same, wit = False, "degenerate reversal (%s)" % exc
            if expected and p.dmax < 2:
                soft = True
                wit = "b = %s is a pole of D = {2}, past dmax=%d: %s" % (p.b, p.dmax, wit)
        checks.append(_check("reflection_n%d_%s" % (n, "matches" if expected else "differs"),
                             same == expected, wit, soft=soft))
    return checks


# ---------------------------------------------------------------------------
# the base relations for every n
# ---------------------------------------------------------------------------
# A Laurent polynomial in (u, v) = (q^n, q^k) is a dict {(i, j): coefficient
# of u^i v^j}.  The base relations are decided for every n as identities
# between products of such factors, expanded exactly in integers.


def _uv_equal(lhs: Sequence[dict], rhs: Sequence[dict]) -> bool:
    """Whether the products of two lists of factors are equal, each product
    expanded as integer coefficients over a denominator."""
    sides = []
    for factors in (lhs, rhs):
        out, den = {(0, 0): 1}, 1
        for f in factors:
            fd = math.lcm(*(c.denominator for c in f.values()))
            den *= fd
            acc: dict = {}
            for (k, l), e in f.items():
                e = e.numerator * (fd // e.denominator)
                for (i, j), c in out.items():
                    acc[i + k, j + l] = acc.get((i + k, j + l), 0) + c * e
            out = acc
        sides.append((out, den))
    (a, da), (b, db) = sides
    return all(a.get(key, 0) * db == b.get(key, 0) * da for key in a.keys() | b.keys())


def _uv_at(f: dict, q: Fraction, eu: int, ev: int, keep_v: bool = True) -> dict:
    """f(q^eu u, q^ev v), or f(q^eu u, q^ev) when not keep_v."""
    out: dict = {}
    for (i, j), c in f.items():
        key, m = (i, j if keep_v else 0), eu * i + ev * j
        out[key] = out.get(key, 0) + (c * q ** m if m else c)
    return out


def _symbol(op: dict[int, LaurentPoly]) -> dict[int, dict]:
    """{d: f_d}: op maps y^k to sum_d f_d(v) y^(k+d), v = q^k."""
    out: dict = {}
    for s, c in op.items():
        for d, coeff in c.coeff_dict().items():
            out.setdefault(d, {})[0, s] = coeff
    return out


def _term_ratio(p: RawParams) -> tuple[list[dict], list[dict]]:
    """The factors of N and of D, with t_(k+1)/t_k = N/D at (u, v) for the
    terms of eigen_series(p), as qhyper_terms builds them from r upper
    parameters U_i, s lower L_j and argument z: N = z (-v)^(s+1-r)
    prod (1 - U_i v) and D = (1 - q v) prod (1 - L_j v)."""
    upper, lower, z = eigen_series(p)

    def one_minus_v(f: dict[int, ScalarLike]) -> dict:
        return {(0, 0): Fraction(1), **{(e, 1): -c for e, c in f.items()}}

    sp = len(lower) + 1 - len(upper)
    sign = {(e, sp): c * (-1) ** (sp % 2) for e, c in z.items()}
    return ([sign, *map(one_minus_v, upper)],
            [{(0, 0): Fraction(1), (0, 1): -p.q}, *map(one_minus_v, lower)])


def _energy_in_u(p: RawParams) -> dict:
    """energy(n, p) as a Laurent polynomial E(u).  By energy's closed form
    (q^-n - 1)(1 - ab q^(n-1)), u E(u) is a polynomial of degree <= 2 in u,
    so its values at n = 0, 1, 2 decide it (Newton's form)."""
    (u0, y0), (u1, y1), (u2, y2) = ((p.q ** n, p.q ** n * energy(n, p)) for n in range(3))
    d1 = (y1 - y0) / (u1 - u0)
    d2 = ((y2 - y1) / (u2 - u1) - d1) / (u2 - u0)
    return {(-1, 0): y0 - d1 * u0 + d2 * u0 * u1, (0, 0): d1 - d2 * (u0 + u1), (1, 0): d2}


def _eigen_every_n(op: dict[int, LaurentPoly], ratio: tuple[list[dict], list[dict]],
                   energies: dict, q: Fraction) -> bool:
    """Whether op P_n = E_n P_n for every n, where c_(k+1)/c_k = ratio and
    E_n = energies(q^n); the proof is in _base_checks."""
    sym = _symbol(op)
    ehat, beta = sym.pop(0, {}), sym.pop(-1, {})
    ehat_u = {(j, 0): c for (_, j), c in ehat.items()}
    if sym or sum(beta.values()) or not _uv_equal([ehat_u], [energies]):
        return False
    diff = dict(ehat_u)
    for key, c in ehat.items():
        diff[key] = diff.get(key, 0) - c
    num, den = ratio
    return _uv_equal([*num, _uv_at(beta, q, 0, 1)], [diff, *den])


def _forward_every_n(fwd: dict[int, LaurentPoly], ratio: tuple[list[dict], list[dict]],
                     ratio_up: tuple[list[dict], list[dict]], energies: dict,
                     kappa: Fraction, q: Fraction) -> bool:
    """Whether F P_n = E_n P'_(n-1) for every n, where P' has the ratio
    ratio_up and c_0(P_n) = kappa c_0(P'_(n-1)); the proof is in _base_checks."""
    sym = _symbol(fwd)
    phi = sym.pop(-1, {})
    if sym or sum(phi.values()):
        return False
    num, den = ratio
    num1, den1 = ([_uv_at(f, q, -1, -1) for f in fs] for fs in ratio_up)
    step = _uv_equal([*num, _uv_at(phi, q, 0, 1), *den1], [*num1, phi, *den])
    # at v = 1: kappa phi(q) N(u, 1) = E(u) D(u, 1)
    lhs = [{(0, 0): kappa}, _uv_at(phi, q, 0, 1, False), *(_uv_at(f, q, 0, 0, False) for f in num)]
    return step and _uv_equal(lhs, [energies, *(_uv_at(f, q, 0, 0, False) for f in den)])


# ---------------------------------------------------------------------------
# the orchestrated suite
# ---------------------------------------------------------------------------


def _base_checks(p: Params, nmax: int, rng: random.Random) -> list[CheckResult]:
    """The base rows.  The eigen, forward, backward and random rows hold for
    every n, by identities of Laurent polynomials in (u, v) = (q^n, q^k)
    expanded exactly.

    P_n = eigenpoly_y(n) = sum_k c_k y^k, c_0 = C_n = eigen_at_infinity(n),
    and c_(k+1)/c_k = N/D at (q^n, q^k), the term ratio of eigen_series
    (_term_ratio).  The side conditions 0 < a < 1 and ab < 1, checked
    exactly, keep the factors 1 - q^(k+1) and 1 - a q^k of D nonzero at
    lambda and at lambda + delta, and E_n = (q^-n - 1)(1 - ab q^(n-1))
    nonzero for n >= 1.  E(u) is energy in u (_energy_in_u).

    - Eigen (_eigen_every_n).  H maps y^k to E^(v) y^k + beta(v) y^(k-1)
      (read from hamiltonian_op, no other offset), so the y^k coefficient of
      H P_n - E_n P_n is c_k (E^(q^k) - E_n) + c_(k+1) beta(q^(k+1)).  It
      vanishes at k = -1 by beta(1) = 0, at k = n by E^ = E, and for
      0 <= k < n by N(u, v) beta(q v) = (E(u) - E(v)) D(u, v).
    - Forward (_forward_every_n).  F maps y^k to phi(v) y^(k-1), phi(1) = 0,
      so F P_n = E_n P'_(n-1) (P' at lambda + delta, ratio N'/D') reads
      c_(k+1) phi(q^(k+1)) = E_n c'_k for 0 <= k < n.  At k = 0 this is
      kappa N(u, 1) phi(q) = E(u) D(u, 1) with kappa = C_n/C'_(n-1), which
      is -(1 - a)/(q B(0)) for every n >= 1 by eigen_at_infinity's closed
      form and (z;q)_n = (1 - z)(zq;q)_(n-1); it is read from the built
      levels and must agree for 1 <= n <= max(nmax, 8).  Each next k
      follows from N(u, v) phi(q v) D'(u/q, v/q) = N'(u/q, v/q) phi(v) D(u, v).
    - Backward.  K = Bk o F (op_compose) has K P_n = E_n P_n by the eigen
      proof, so E_n Bk P'_(n-1) = Bk F P_n = E_n P_n, and E_n != 0 gives
      Bk P'_(n-1) = P_n for n >= 1.
    - Random: the eigen proof at 3 random points.
    """
    ntop, p_up, q = max(nmax, 8), p.shift(delta=1), p.q
    ok_deg = ok_norm = ok_lead = ok_inf = True
    kappas = []
    for n in range(ntop + 1):
        f, e = eigenpoly_y(n, p), eigenpoly(n, p)
        ok_deg &= e.degree == n
        ok_norm &= e.eval_int(0) == 1
        ok_lead &= e.is_zero or e.leading == eigen_leading(n, p)
        # consistency only: _eigenpoly_y sets this coefficient to the same value
        ok_inf &= f.at_infinity() == eigen_at_infinity(n, p)
        if n:
            kappas.append(f.coeff(0) / eigen_at_infinity(n - 1, p_up))

    def side(pt: Params) -> bool:
        return 0 < pt.a < 1 and pt.a * pt.b < 1

    ratio, energies = _term_ratio(p), _energy_in_u(p)
    fwd = forward_shift_op(p)
    ok_eig = side(p) and _eigen_every_n(hamiltonian_op(p), ratio, energies, q)
    ok_f = side(p) and len(set(kappas)) == 1 and _forward_every_n(
        fwd, ratio, _term_ratio(p_up), energies, kappas[0], q)
    ok_b = ok_f and _eigen_every_n(op_compose(backward_shift_op(p), fwd), ratio, energies, q)
    checks = [
        _check("base_eigen_equation", ok_eig,
               "every n: term-ratio identity in (u, v) = (q^n, q^k)"),
        _check("base_degree_norm_leading_infinity",
               ok_deg and ok_norm and ok_lead and ok_inf, "n <= %d" % ntop),
        _check("base_forward_shift", ok_f,
               "every n: term-ratio step in (u, v) = (q^n, q^k) and its k = 0 case"),
        _check("base_backward_shift", ok_b,
               "every n >= 1: forward shift and Bk F P_n = E_n P_n"),
    ]
    ok_series = all(
        eigenpoly_y(n, p).eval_int(x) == eigen_series_value(n, p, x)
        for n in range(5)
        for x in range(n + 1)
    )
    checks.append(_check("base_series_oracle", ok_series,
                         "alternative hypergeometric route, n <= 4, every x >= 0:"
                         " degree <= n in y = q^x, equal at x = 0..n"))
    ok_rand = True
    for _ in range(3):
        pr = _random_valid_params(rng, p.family, p.ctype, p.dmax)
        ok_rand &= side(pr) and _eigen_every_n(
            hamiltonian_op(pr), _term_ratio(pr), _energy_in_u(pr), pr.q)
    checks.append(_check("base_eigen_random_params", ok_rand,
                         "3 random parameter points, every n"))
    return checks


def _virtual_checks(p: Params) -> list[CheckResult]:
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
    vtop, pole = max(p.dmax, 2), None
    lo = -1 if p.ctype == CType.TYPE_II else 0  # the lattice start, where each xi_v is 1
    ok_deg = ok_norm = ok_diffeq = ok_energy = ok_neg = True
    for v in range(vtop + 1):
        try:
            xi = virtual_poly_y(v, p)
        except InvalidParamsError as exc:
            if v <= p.dmax:
                raise
            # a pole past dmax is no defect; a mismatch at another v still fails
            pole = pole or "b = %s is a pole of v=%d, past dmax=%d: %s" % (p.b, v, p.dmax, exc)
            continue
        ok_deg &= xi.to_eta().degree == v
        ok_norm &= xi.eval_int(lo) == 1
        ok_diffeq &= xi_diffeq_residual(v, p).is_zero
        ok_energy &= virtual_energy(v, p) == virtual_energy_prime(v, p) + vd.alpha_prime
        if v <= p.dmax:
            ok_neg &= virtual_energy(v, p) < 0
    for name, ok in (("virtual_poly_degree_norm", ok_deg and ok_norm),
                     ("virtual_difference_equation", ok_diffeq)):
        checks.append(_check(name, ok and not pole, pole or "v <= %d" % vtop, soft=ok))
    checks.append(_check("virtual_energy_two_routes", ok_energy and ok_neg,
                         "additive split holds; energies negative for v <= dmax"))
    # positivity of the virtual-state polynomials at every lattice point
    bad = []
    for v in range(min(p.dmax, 5) + 1):
        ok, witness = _lattice_proof([virtual_poly_y(v, p)], lo)
        if not ok:
            bad.append("v=%d: %s" % (v, witness))
    checks.append(_positivity_check(
        "virtual_poly_positive", not bad,
        bad[0] if bad else "positive for every x >= %d, v <= min(dmax,5)" % lo, p))
    # ground-state ratio identities
    ok_nu = all(
        groundstate_ratio(x, p) ** 2 * virtual_groundstate_sq(x, p)
        == groundstate_sq(x, p)
        for x in range(0, 11)
    )
    checks.append(_check("virtual_groundstate_ratio", ok_nu, "x <= 10"))
    if p.ctype == CType.TYPE_II:
        ok_r, soft, wit = True, False, "m <= 2"
        for m in (1, 2):
            try:
                rs = [nu_ratio_poly(j, m, p) for j in range(1, m + 2)]
            except InvalidParamsError as exc:
                if m <= p.dmax:
                    raise
                if ok_r:  # a pole past dmax is no defect; a mismatch before it still fails
                    ok_r, soft = False, True
                    wit = "b = %s is a pole of m=%d, past dmax=%d: %s" % (p.b, m, p.dmax, exc)
                break
            for j, r in enumerate(rs, 1):
                for x in range(j - 1, j + 5):
                    ok_r &= r.eval_int(x) == (groundstate_ratio(x - j + 1, p)
                                              / groundstate_ratio(x, p.shift(tilde=m)))
        checks.append(_check("virtual_ratio_poly_two_routes", ok_r, wit, soft=soft))
        if p.family == Family.LQ_JACOBI:
            ok_s = all(
                virtual_poly_y(v, p).eval_int(x) == xi_series_value(v, p, x)
                for v in range(min(p.dmax, 4) + 1)
                for x in range(v + 1)
            )
            checks.append(_check("virtual_series_rewriting", ok_s,
                                 "v <= min(dmax,4), every x >= 0:"
                                 " degree <= v in y = q^x, equal at x = 0..v"))
    return checks


def _deformed_checks(d: IndexSet, p: Params, nmax: int) -> list[CheckResult]:
    checks = []
    if p.ctype == CType.TYPE_I:
        # raw engine: the level operator is the closed form's, for every n
        if d.size == 1:
            dd = d.indices[0]
            ok = _same_op(level_op(d, p), typeI_single_op(dd, p))
            ok &= all(typeI_single_poly(dd, n, p).eval_int(0) == 1 for n in range(nmax + 1))
            checks.append(_check("deformed_single_index_closed_form", ok,
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
    ok_norm = ok_deg = ok_lead = ok_inf = True
    for n in range(nmax + 1):
        pn = multi_indexed_poly(d, n, p)
        ok_norm &= pn.eval_int(0) == 1
        ok_deg &= pn.degree == d.degree_offset + n
        ok_lead &= pn.leading == multi_indexed_leading(d, n, p)
        _, pinf = infinity_values(d, n, p)
        ok_inf &= multi_indexed_poly_y(d, n, p).at_infinity() == pinf
    checks.append(_check("deformed_value_at_zero", ok_norm, "n <= %d" % nmax))
    checks.append(_check("deformed_degree_law", ok_deg, "degree = offset + n"))
    checks.append(_check("deformed_leading_coefficients", ok_lead, "n <= %d" % nmax))
    checks.append(_check("deformed_infinity_values", ok_inf, "two routes agree"))
    ops = deformed_identities(d, p)
    for name, key, witness in (("deformed_eigen_equation", "eigen", "every n"),
                               ("deformed_forward_shift", "forward", "every n"),
                               ("deformed_backward_shift", "backward", "every n >= 1")):
        ok = all(c.is_zero for c in ops[key].values())
        checks.append(_check(name, ok, "operator identity, " + witness))
    checks.append(_residual_check("deformed_lowest_matches_denominator",
                                  lowest_matches_denominator(d, p)))
    if d.size == 1:
        ok = _same_op(level_op(d, p), typeII_single_op(d.indices[0], p))
        checks.append(_check("deformed_single_index_closed_form", ok,
                             "determinant route equals closed form"))
    return checks


def _zeros_checks(d: IndexSet, p: Params, nmax: int) -> list[CheckResult]:
    """One check per level n <= nmax; each level is isolated once, and its
    zeros serve as level n's report and as level n-1's interlacing partner."""
    checks = []
    offset = d.degree_offset if p.ctype == CType.TYPE_II else None
    try:
        level = _level_zeros(level_poly(d, 0, p), 0)
        for n in range(nmax + 1):
            next_level = _level_zeros(level_poly(d, n + 1, p), n + 1)
            rep = _zeros_summary(level, next_level)
            ok = rep["physical"] == n
            if offset is not None:
                ok &= rep["unphysical"] == offset
            if n < nmax:
                ok &= rep["interlaced_with_next"]
            checks.append(
                _check(
                    "zeros_n%d" % n,
                    ok,
                    "%d physical, %d unphysical, interlaced=%s"
                    % (rep["physical"], rep["unphysical"], rep["interlaced_with_next"]),
                )
            )
            level = next_level
    except RootFindingFailureError as exc:
        checks.append(_check("zeros_rootfinding", False, str(exc)))
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
    A failed check marks the report as failed, a warning does not; module
    errors surface as failed checks with witnesses.  Invalid options (an
    index above dmax, nmax < 0, eps <= 0, xmax < 10, prec_bits < 128, an
    unknown suite) raise InvalidParamsError before any check runs.  eps,
    xmax and prec_bits are checked but read by no check: the orthogonality
    rows are exact certificates, positivity is proved at every lattice
    point, and the zeros suite is exact.
    """
    if d.size > 0 and max(d.indices) > p.dmax:
        raise InvalidParamsError(
            "index set %s exceeds dmax=%d of the parameter point" % (d, p.dmax)
        )
    for bad, what in (
        (nmax < 0, "nmax must be >= 0"),
        (Fraction(eps) <= 0, "eps must be positive"),
        (xmax < 10, "xmax must be >= 10"),
        (prec_bits < 128, "prec_bits must be >= 128"),
    ):
        if bad:
            raise InvalidParamsError(what)
    unknown = set(suites) - set(SUITES)
    if unknown:
        raise InvalidParamsError("unknown suites: %s" % sorted(unknown))
    # virtual-state machinery needs a negative additive constant and, for
    # type II little q-Jacobi, b != 0 (b = 0 is little q-Laguerre); base-only
    # points outside that range skip the dependent suites with a warning
    in_virtual_range = not (
        p.family == Family.LQ_JACOBI and p.ctype == CType.TYPE_II and p.b == 0
    ) and virtual_data(p).alpha_prime < 0
    # suite -> (needs the virtual-state range, checks), in run order; base
    # and structural each draw from their own rng, so a suite run alone
    # draws what it draws in the full run
    table = {
        "base": (False, lambda: _base_checks(p, nmax, random.Random(seed))),
        "virtual": (True, lambda: _virtual_checks(p)),
        "deformed": (False, lambda: _deformed_checks(d, p, nmax)),
        "structural": (True, lambda: structural_checks(d, p, nmax, random.Random(seed))),
        "reflection": (True, lambda: reflection_checks(p)),
        "ortho": (False, lambda: orthogonality_check(d, p, nmax)),
        "zeros": (False, lambda: _zeros_checks(d, p, min(nmax, 4))),
        "positivity": (False, lambda: positivity_scan(d, p)),
    }
    wanted = {_SUITE_ALIASES.get(s, s) for s in suites}
    checks: list[CheckResult] = []
    for name, (needs_virtual, run) in table.items():
        if name not in wanted:
            continue
        if needs_virtual and not in_virtual_range:
            checks.append(
                _check(
                    name + "_suite_skipped",
                    False,
                    "virtual-state range does not cover this base parameter point",
                    soft=True,
                )
            )
            continue
        try:
            checks.extend(run())
        except LittleQError as exc:
            checks.append(
                _check(name + "_suite_error", False, "%s: %s" % (type(exc).__name__, exc))
            )
    params_echo = {
        "family": p.family.value,
        "type": int(p.ctype),
        "q": fmt_rational(p.q),
        "a": fmt_rational(p.a),
        "b": fmt_rational(p.b),
        "dmax": p.dmax,
        "strict_range": p.strict_range,
    }
    return VerificationReport(checks, params_echo, list(d.indices))
