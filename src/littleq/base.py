"""Undeformed little q-Jacobi and little q-Laguerre lattice systems.

The little q-Laguerre system is the b = 0 member of the little q-Jacobi
family; both live on x in {0, 1, 2, ...} with sinusoidal coordinate
eta(x) = 1 - q^x and potentials that are Laurent polynomials in y = q^x.
This module provides energies, potentials, eigenpolynomials, the squared
ground state, norm ratios, and the similarity-transformed Hamiltonian and
the forward/backward shift operators as operator values, all exact.
"""
from __future__ import annotations

from enum import Enum, IntEnum
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .exact import (
    EtaPoly,
    InvalidParamsError,
    LaurentPoly,
    ScalarLike,
    qbinom2,
    qhyper_terminating,
    qhyper_terms,
    qpoch,
    qpoch_pair,
    scalar,
)


class Family(str, Enum):
    LQ_JACOBI = "lqJacobi"
    LQ_LAGUERRE = "lqLaguerre"


class CType(IntEnum):
    TYPE_I = 1
    TYPE_II = 2


def tilde_delta(family: Family, ctype: CType) -> tuple[int, int]:
    """Exponent steps (s_a, s_b) of the auxiliary parameter shift per unit."""
    if ctype == CType.TYPE_I:
        return (-1, 1) if family == Family.LQ_JACOBI else (-1, 0)
    return (1, -1) if family == Family.LQ_JACOBI else (1, 0)


class RawParams(NamedTuple):
    """Parameter point (q, a, b) of one family and construction type, unvalidated.

    ``dmax`` is the largest virtual-state index the caller intends to use.
    Shifted, twisted and formally inverted points are intermediate algebraic
    data, not user input, so no range is checked here; see Params.
    """

    family: Family
    q: Fraction
    a: Fraction
    b: Fraction = Fraction(0)
    ctype: CType = CType.TYPE_II
    dmax: int = 0

    def __hash__(self) -> int:
        # every cache lookup hashes the point; Fraction.__hash__ runs in Python
        q, a, b = self.q, self.a, self.b
        return hash((self.family, q.numerator, q.denominator, a.numerator, a.denominator,
                     b.numerator, b.denominator, self.ctype, self.dmax))

    def shift(self, tilde: int = 0, delta: int = 0) -> "RawParams":
        """The point displaced by ``tilde`` auxiliary-direction and ``delta``
        shape-invariance shifts; composition is additive."""
        sa, sb = tilde_delta(self.family, self.ctype)
        q = self.q
        return RawParams(self.family, q, self.a * q ** (tilde * sa + delta),
                         self.b * q ** (tilde * sb + delta), self.ctype, self.dmax)


class Params(RawParams):
    """Validated parameter point: the admissible range of a and b depends on
    ``dmax``.  For the type II little q-Jacobi system the extended range
    b < q^{1+dmax} is accepted and ``strict_range`` distinguishes the fully
    positive sub-range 0 < b.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates too

    def __new__(cls, family: Family, q: ScalarLike, a: ScalarLike, b: ScalarLike = 0,
                ctype: CType = CType.TYPE_II, dmax: int = 0) -> "Params":
        q, a, b = scalar(q), scalar(a), scalar(b)
        if not 0 < q < 1:
            raise InvalidParamsError("need 0 < q < 1, got q=%s" % q)
        if dmax < 0:
            raise InvalidParamsError("dmax must be >= 0")
        deformed = dmax >= 1  # dmax = 0 is the undeformed system
        if family == Family.LQ_LAGUERRE:
            if b != 0:
                raise InvalidParamsError("little q-Laguerre has no parameter b")
            if ctype == CType.TYPE_I and deformed:
                if not 0 < a < q ** (1 + dmax):
                    raise InvalidParamsError(
                        "type I little q-Laguerre needs 0 < a < q^(1+dmax)"
                    )
            elif not 0 < a < 1:
                raise InvalidParamsError("little q-Laguerre needs 0 < a < 1")
        else:
            # the bound of the deformed range, stated as tested
            bound, text = (q ** (1 + dmax), "q^(1+dmax)") if deformed else (1, "1")
            if ctype == CType.TYPE_I:
                if not 0 < a < bound:
                    raise InvalidParamsError(
                        "type I little q-Jacobi needs 0 < a < %s" % text
                    )
                if not b < 1:
                    raise InvalidParamsError("little q-Jacobi needs b < 1")
            else:
                if not 0 < a < 1:
                    raise InvalidParamsError("little q-Jacobi needs 0 < a < 1")
                if not b < bound:
                    raise InvalidParamsError(
                        "type II little q-Jacobi needs b < %s "
                        "(extended range), got b=%s" % (text, b)
                    )
                if deformed and b == 0:
                    raise InvalidParamsError(
                        "b = 0 is the little q-Laguerre family; use it directly"
                    )
        return super().__new__(cls, family, q, a, b, ctype, dmax)

    @property
    def strict_range(self) -> bool:
        """True when the positivity proofs apply without caveats."""
        if self.family == Family.LQ_JACOBI and self.ctype == CType.TYPE_II:
            return self.b > 0
        return True


ParamsLike = RawParams


def twist(p: ParamsLike) -> RawParams:
    """Type I twist: the involution a -> q^2 / a with b fixed."""
    return RawParams(p.family, p.q, p.q ** 2 / p.a, p.b)


def energy(n: int, p: ParamsLike) -> Fraction:
    """Eigenvalue of level n; 0 at n = 0 and strictly increasing."""
    q = p.q
    if p.family == Family.LQ_JACOBI:
        return (q ** (-n) - 1) * (1 - p.a * p.b * q ** (n - 1))
    return q ** (-n) - 1


def potential_b(p: ParamsLike) -> LaurentPoly:
    """Up-hopping potential as a Laurent polynomial in y = q^x."""
    q, a = p.q, p.a
    if p.family == Family.LQ_JACOBI:
        return LaurentPoly(q, {-1: a / q, 0: -a * p.b / q})
    return LaurentPoly(q, {-1: a / q})


def potential_d(p: ParamsLike) -> LaurentPoly:
    """Down-hopping potential q^{-x} - 1; vanishes at the boundary x = 0."""
    return LaurentPoly(p.q, {-1: 1, 0: -1})


def eigen_series(p: ParamsLike) -> tuple[list[dict], list[dict], dict]:
    """The 2phi1 of eigenpoly_y as (upper, lower, argument), each parameter a
    Laurent polynomial {e: c} = sum c u^e in u = q^n: upper q^-n = u^-1 and
    ab q^(n-1) = (ab/q) u (b = 0 for little q-Laguerre), lower a, argument q
    (times y).

    eigenpoly_y evaluates them at u = q^n, and verify reads the term ratio
    t_(k+1)/t_k from them as a rational function of (u, v) = (q^n, q^k), so
    its every-n proofs cover the polynomial built here.
    """
    q = p.q
    ab = p.a * p.b if p.family == Family.LQ_JACOBI else 0
    return [{-1: 1}, {1: ab / q}], [{0: p.a}], {0: q}


def eigenpoly_y(n: int, p: ParamsLike) -> LaurentPoly:
    """Eigenpolynomial of level n in the variable y = q^x (zero for n < 0).

    The terminating series 2phi1(q^{-n}, ab q^{n-1}; a; q; q y) of
    eigen_series, whose term k is the coefficient of y^k; normalized to value
    1 at x = 0.  Cached on n, the family and the integers of q, a and b, the
    values it reads (hashing Fractions costs more than building the key).
    """
    q, a, b = p.q, p.a, p.b
    return _eigenpoly_y(n, p.family, q.numerator, q.denominator, a.numerator, a.denominator,
                        b.numerator, b.denominator)


@lru_cache(maxsize=256)
def _eigenpoly_y(n: int, family: Family, qn: int, qd: int, an: int, ad: int, bn: int,
                 bd: int) -> LaurentPoly:
    q = Fraction(qn, qd)
    if n < 0:
        return LaurentPoly.zero(q)
    p = RawParams(family, q, Fraction(an, ad), Fraction(bn, bd))
    upper, lower, z = eigen_series(p)

    def at(f: dict[int, ScalarLike]) -> Fraction:  # at u = q^n
        vals = [c * q ** (e * n) if e else c for e, c in f.items()]
        return vals[0] if len(vals) == 1 else sum(vals, Fraction(0))

    terms = qhyper_terms(list(map(at, upper)), list(map(at, lower)), q, at(z), n)
    return LaurentPoly(q, dict(enumerate(terms))).scale(eigen_at_infinity(n, p))


def eigenpoly(n: int, p: ParamsLike) -> EtaPoly:
    """Eigenpolynomial of level n in eta; degree n, value 1 at x = 0."""
    return eigenpoly_y(n, p).to_eta()


def eigen_at_infinity(n: int, p: ParamsLike) -> Fraction:
    """Value of the level-n eigenpolynomial at x = infinity,
    (-a)^-n q^-C(n,2) (a;q)_n / (b;q)_n (no b for little q-Laguerre), reduced
    once from integers."""
    if n < 0:
        return Fraction(0)
    q, a = p.q, p.a
    num, den = qpoch_pair(a, q, n)
    num *= (-a.denominator) ** n * q.denominator ** qbinom2(n)
    den *= a.numerator ** n * q.numerator ** qbinom2(n)
    if p.family == Family.LQ_JACOBI:
        bnum, bden = qpoch_pair(p.b, q, n)
        if bnum == 0:
            raise InvalidParamsError("Pochhammer denominator (b;q)_%d vanished" % n)
        num, den = num * bden, den * bnum
    return Fraction(num, den)


def eigen_leading(n: int, p: ParamsLike) -> Fraction:
    """Leading eta-coefficient of the level-n eigenpolynomial."""
    q, a = p.q, p.a
    if n < 0:
        return Fraction(0)
    out = (-a) ** (-n) * q ** (-n * (n - 1))
    if p.family == Family.LQ_JACOBI:
        out *= qpoch(a * p.b * q ** (n - 1), q, n) / qpoch(p.b, q, n)
    return out


def eigen_series_value(n: int, p: ParamsLike, x: int) -> Fraction:
    """Independent series form of the eigenpolynomial at integer x >= 0.

    Uses the alternative hypergeometric representation (3phi1 for little
    q-Jacobi, 2phi0 for little q-Laguerre) whose argument involves q^{-x};
    serves as a cross-check oracle for eigenpoly_y.  It is of degree <= n in
    y = q^x, so agreement at x = 0..n proves every x >= 0: term k carries
    (q^{-x}; q)_k (q y / a)^k = (q/a)^k prod_{j<k} (y - q^j).
    """
    if x < 0:
        raise ValueError("series oracle defined for integer x >= 0")
    q, a, b = p.q, p.a, p.b
    z = q ** (x + 1) / a
    if p.family == Family.LQ_JACOBI:
        return qhyper_terminating(
            [q ** (-n), a * b * q ** (n - 1), q ** (-x)], [b], q, z, n + x
        )
    return qhyper_terminating([q ** (-n), q ** (-x)], [], q, z, n + x)


def groundstate_sq(x: int, p: ParamsLike) -> Fraction:
    """Squared ground state at integer x >= 0; positive, equals 1 at x = 0."""
    if x < 0:
        raise ValueError("ground state defined for x >= 0")
    q, a = p.q, p.a
    out = a ** x / qpoch(q, q, x)
    if p.family == Family.LQ_JACOBI:
        out *= qpoch(p.b, q, x)
    return out


def norm_ratio(n: int, p: ParamsLike) -> Fraction:
    """Exact squared-norm ratio of level n to level 0 (infinite products cancel)."""
    q, a, b = p.q, p.a, p.b
    out = a ** n * q ** (n * (n - 1)) / (qpoch(a, q, n) * qpoch(q, q, n))
    if p.family == Family.LQ_JACOBI and n > 0:  # each factor is 1 at n = 0, the last 0/0 at ab = q
        ab = a * b
        out *= qpoch(b, q, n) * qpoch(ab, q, n)
        out *= (1 - ab * q ** (2 * n - 1)) / (1 - ab * q ** (n - 1))
    return out


def hop_op(b: LaurentPoly, d: LaurentPoly) -> dict[int, LaurentPoly]:
    """The hopping operator B (1 - T) + D (1 - T^-1) of up and down
    potentials B and D: f -> B (f - f(x+1)) + D (f - f(x-1))."""
    return {0: b + d, 1: -b, -1: -d}


def hamiltonian_op(p: ParamsLike) -> dict[int, LaurentPoly]:
    """Similarity-transformed Hamiltonian H = hop_op(B, D) on polynomials in
    y.  It maps y^k to E(v) y^k + beta(v) y^(k-1) with v = q^k, and
    eigenpolynomials satisfy H P_n = energy(n) P_n for every n: verify reads
    E and beta from this operator value and decides the term-ratio identity
    of eigen_series in (q^n, q^k)."""
    return hop_op(potential_b(p), potential_d(p))


def forward_shift_op(p: ParamsLike) -> dict[int, LaurentPoly]:
    """Forward shift F = B(0) y^-1 (1 - T): maps level n at lambda to
    energy(n) times level n-1 at lambda+delta."""
    f = LaurentPoly.monomial(p.q, -1, potential_b(p).eval_int(0))
    return {0: f, 1: -f}


def backward_shift_op(p: ParamsLike) -> dict[int, LaurentPoly]:
    """Backward shift Bk = y (B - D T^-1 / q) / B(0): maps level n-1 at
    lambda+delta to level n at lambda."""
    b = potential_b(p)
    y = LaurentPoly.monomial(p.q, 1, 1 / b.eval_int(0))
    return {0: b * y, -1: -(potential_d(p) * y).scale(1 / p.q)}


def casoratian_gauge(m: int, q: ScalarLike) -> LaurentPoly:
    """Monomial normalizing backward Casoratians of eta-polynomials.

    Equals the product over pairs 1 <= j < k <= m of
    (eta(x-j+1) - eta(x-k+1)) / eta(k-j), which collapses to
    q^{-m(m-1)(2m-1)/6} * y^{C(m,2)}; value 1 for m <= 1.
    """
    q = scalar(q)
    e = (m - 1) * m * (2 * m - 1)
    assert e % 6 == 0
    return LaurentPoly.monomial(q, qbinom2(m), q ** (-(e // 6)))

