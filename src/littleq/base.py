"""Undeformed little q-Jacobi and little q-Laguerre lattice systems.

The little q-Laguerre system is the b = 0 member of the little q-Jacobi
family; both live on x in {0, 1, 2, ...} with sinusoidal coordinate
eta(x) = 1 - q^x and potentials that are Laurent polynomials in y = q^x.
This module provides energies, potentials, eigenpolynomials, the squared
ground state, norm ratios, the similarity-transformed Hamiltonian and the
forward/backward shift operators, all exact.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum
from fractions import Fraction
from functools import lru_cache
from typing import Union

from .exact import (
    EtaPoly,
    InvalidParamsError,
    LaurentPoly,
    ScalarLike,
    qbinom2,
    qhyper_terminating,
    qpoch,
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


@dataclass(frozen=True)
class Params:
    """Validated parameter point (q, a, b) of one family and construction type.

    ``dmax`` is the largest virtual-state index the caller intends to use;
    the admissible range of a and b depends on it.  For the type II little
    q-Jacobi system the extended range b < q^{1+dmax} is accepted and
    ``strict_range`` distinguishes the fully positive sub-range 0 < b.
    """

    family: Family
    q: Fraction
    a: Fraction
    b: Fraction = Fraction(0)
    ctype: CType = CType.TYPE_II
    dmax: int = 0

    def __post_init__(self):
        object.__setattr__(self, "q", scalar(self.q))
        object.__setattr__(self, "a", scalar(self.a))
        object.__setattr__(self, "b", scalar(self.b))
        q, a, b = self.q, self.a, self.b
        if not 0 < q < 1:
            raise InvalidParamsError("need 0 < q < 1, got q=%s" % q)
        if self.dmax < 0:
            raise InvalidParamsError("dmax must be >= 0")
        deformed = self.dmax >= 1  # dmax = 0 is the undeformed system
        if self.family == Family.LQ_LAGUERRE:
            if b != 0:
                raise InvalidParamsError("little q-Laguerre has no parameter b")
            if self.ctype == CType.TYPE_I and deformed:
                if not 0 < a < q ** (1 + self.dmax):
                    raise InvalidParamsError(
                        "type I little q-Laguerre needs 0 < a < q^(1+dmax)"
                    )
            elif not 0 < a < 1:
                raise InvalidParamsError("little q-Laguerre needs 0 < a < 1")
        else:
            if self.ctype == CType.TYPE_I:
                bound = q ** (1 + self.dmax) if deformed else Fraction(1)
                if not 0 < a < bound:
                    raise InvalidParamsError(
                        "type I little q-Jacobi needs 0 < a < q^(1+dmax)"
                    )
                if not b < 1:
                    raise InvalidParamsError("little q-Jacobi needs b < 1")
            else:
                if not 0 < a < 1:
                    raise InvalidParamsError("little q-Jacobi needs 0 < a < 1")
                bound = q ** (1 + self.dmax) if deformed else Fraction(1)
                if not b < bound:
                    raise InvalidParamsError(
                        "type II little q-Jacobi needs b < q^(1+dmax) "
                        "(extended range), got b=%s" % b
                    )
                if deformed and b == 0:
                    raise InvalidParamsError(
                        "b = 0 is the little q-Laguerre family; use it directly"
                    )

    @property
    def strict_range(self) -> bool:
        """True when the positivity proofs apply without caveats."""
        if self.family == Family.LQ_JACOBI and self.ctype == CType.TYPE_II:
            return self.b > 0
        return True

    def shift(self, tilde: int = 0, delta: int = 0) -> "ShiftedParams":
        return ShiftedParams(self, tilde, delta)


@dataclass(frozen=True)
class ShiftedParams:
    """A parameter point displaced by integer multiples of the two shifts.

    ``tilde_steps`` counts auxiliary-direction shifts, ``delta_steps``
    counts shape-invariance shifts; composition is additive.  Range
    validation is *not* re-applied: shifted points are intermediate
    algebraic data, not user input.
    """

    base: Params
    tilde_steps: int = 0
    delta_steps: int = 0

    @property
    def family(self) -> Family:
        return self.base.family

    @property
    def ctype(self) -> CType:
        return self.base.ctype

    @property
    def dmax(self) -> int:
        return self.base.dmax

    @property
    def q(self) -> Fraction:
        return self.base.q

    @property
    def a(self) -> Fraction:
        sa, _ = tilde_delta(self.family, self.ctype)
        return self.base.a * self.q ** (self.tilde_steps * sa + self.delta_steps)

    @property
    def b(self) -> Fraction:
        if self.family == Family.LQ_LAGUERRE:
            return Fraction(0)
        _, sb = tilde_delta(self.family, self.ctype)
        return self.base.b * self.q ** (self.tilde_steps * sb + self.delta_steps)

    def shift(self, tilde: int = 0, delta: int = 0) -> "ShiftedParams":
        return ShiftedParams(
            self.base, self.tilde_steps + tilde, self.delta_steps + delta
        )


@dataclass(frozen=True)
class RawParams:
    """Bare (family, q, a, b) tuple for twisted or otherwise unvalidated use."""

    family: Family
    q: Fraction
    a: Fraction
    b: Fraction = Fraction(0)


ParamsLike = Union[Params, ShiftedParams, RawParams]


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


@lru_cache(maxsize=None)
def eigenpoly_y(n: int, p: ParamsLike) -> LaurentPoly:
    """Eigenpolynomial of level n in the variable y = q^x (zero for n < 0).

    Built from the terminating 2phi1 series with argument q^{x+1} = q*y, so
    each term is a monomial in y; normalized to value 1 at x = 0.
    """
    q, a, b = p.q, p.a, p.b
    if n < 0:
        return LaurentPoly.zero(q)
    coeffs = {0: Fraction(1)}
    term = Fraction(1)
    for k in range(1, n + 1):
        num = 1 - q ** (k - 1 - n)
        if p.family == Family.LQ_JACOBI:
            num *= 1 - a * b * q ** (n + k - 2)
        den = (1 - a * q ** (k - 1)) * (1 - q ** k)
        if den == 0:
            raise InvalidParamsError("Pochhammer denominator vanished at k=%d" % k)
        term = term * num / den * q
        coeffs[k] = term
    cn = eigen_at_infinity(n, p)
    return LaurentPoly(q, {d: cn * c for d, c in coeffs.items()})


def eigenpoly(n: int, p: ParamsLike) -> EtaPoly:
    """Eigenpolynomial of level n in eta; degree n, value 1 at x = 0."""
    return eigenpoly_y(n, p).to_eta()


def eigen_at_infinity(n: int, p: ParamsLike) -> Fraction:
    """Value of the level-n eigenpolynomial at x = infinity."""
    q, a = p.q, p.a
    if n < 0:
        return Fraction(0)
    out = (-a) ** (-n) * q ** (-qbinom2(n)) * qpoch(a, q, n)
    if p.family == Family.LQ_JACOBI:
        out /= qpoch(p.b, q, n)
    return out


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
    serves as a cross-check oracle for eigenpoly_y.
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
    if p.family == Family.LQ_JACOBI:
        ab = a * b
        out *= qpoch(b, q, n) * qpoch(ab, q, n)
        out *= (1 - ab * q ** (2 * n - 1)) / (1 - ab * q ** (n - 1))
    return out


def qpoch_infinite(z: ScalarLike, q: ScalarLike, factors: int = 256) -> tuple[Fraction, Fraction]:
    """(z;q)_infinity truncated to ``factors`` factors, with a relative bound.

    Returns (approximation, rel_bound) where the true value lies within
    approximation * (1 +/- rel_bound); the bound is the geometric remainder
    estimate, valid while |z| q^factors / (1-q) <= 1/2.
    """
    z, q = scalar(z), scalar(q)
    approx = qpoch(z, q, factors)
    t = abs(z) * q ** factors / (1 - q)
    if t > Fraction(1, 2):
        raise ValueError("truncation too short for a geometric bound")
    return approx, 2 * t


def norm_abs_approx(n: int, p: ParamsLike, factors: int = 256) -> tuple[Fraction, Fraction]:
    """Approximate absolute squared norm of level n, with relative error bound."""
    out = norm_ratio(n, p)
    q, a = p.q, p.a
    num, bn = qpoch_infinite(a, q, factors)
    if p.family == Family.LQ_JACOBI:
        den, bd = qpoch_infinite(a * p.b, q, factors)
        return out * num / den, bn + bd + bn * bd
    return out * num, bn


def hamiltonian_apply(f: LaurentPoly, p: ParamsLike) -> LaurentPoly:
    """Similarity-transformed Hamiltonian acting on a polynomial in y.

    B(x) (f(x) - f(x+1)) + D(x) (f(x) - f(x-1)); eigenpolynomials satisfy
    H f = energy(n) f with identically zero residual.
    """
    return potential_b(p) * (f - f.shift(1)) + potential_d(p) * (f - f.shift(-1))


def forward_shift_apply(f: LaurentPoly, p: ParamsLike) -> LaurentPoly:
    """Forward shift operator: maps level n at lambda to level n-1 at lambda+delta."""
    b0 = potential_b(p).eval_int(0)
    return LaurentPoly.monomial(p.q, -1, b0) * (f - f.shift(1))


def backward_shift_apply(f: LaurentPoly, p: ParamsLike) -> LaurentPoly:
    """Backward shift operator: maps level n-1 at lambda+delta to level n at lambda."""
    q = p.q
    b0 = potential_b(p).eval_int(0)
    y = LaurentPoly.var(q)
    out = potential_b(p) * y * f - potential_d(p) * y * f.shift(-1).scale(1 / q)
    return out / b0


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

