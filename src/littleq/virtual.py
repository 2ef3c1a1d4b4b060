"""Virtual-state data feeding the isospectral deformations.

A virtual state is a polynomial solution of an auxiliary second-order
difference equation with negative energy; it fails the Schroedinger relation
at exactly one boundary (x = 0 for type II, the upper end for type I) and so
deforms the spectrum without adding levels.  This module provides, per family
and construction type: the auxiliary potentials (in the regularized "new"
normalization that stays finite for little q-Laguerre), the virtual-state
polynomials, their energies, the ground-state ratio function and its
polynomial rewriting used inside Casoratian columns.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .base import (
    CType,
    Family,
    ParamsLike,
    eigen_at_infinity,
    eigen_leading,
    eigenpoly_y,
    groundstate_sq,
    twist,
)
from .exact import (
    InvalidParamsError,
    LaurentPoly,
    qhyper_terminating,
    qpoch,
)


@dataclass(frozen=True)
class VirtualData:
    """Auxiliary potentials (regularized) and the additive energy constant."""

    bprime_new: LaurentPoly
    dprime_new: LaurentPoly
    alpha_prime: Fraction
    ctype: CType
    family: Family


def _require_b(p: ParamsLike) -> Fraction:
    if p.family == Family.LQ_JACOBI and p.b == 0:
        raise InvalidParamsError(
            "b = 0 is singular here; use the little q-Laguerre family"
        )
    return p.b


@lru_cache(maxsize=None)
def virtual_data(p: ParamsLike) -> VirtualData:
    """Auxiliary potentials satisfying the two factorization identities.

    The identities B(x) D(x+1) = B'(x) D'(x+1) and
    B(x) + D(x) = B'(x) + D'(x) + alpha' hold exactly as Laurent
    polynomials (tested, not assumed).  Type II data vanishes at x = -1 on
    the B' side; type I reuses the twisted base potentials.
    """
    q, a, b = p.q, p.a, p.b
    jac = p.family == Family.LQ_JACOBI
    if p.ctype == CType.TYPE_II:
        bp = LaurentPoly(q, {-1: a / q, 0: -a})
        if jac:
            dp = LaurentPoly(q, {-1: 1, 0: -b / q})
            ap = -(1 - a) * (1 - b / q)
        else:
            dp = LaurentPoly(q, {-1: 1})
            ap = -(1 - a)
    else:
        if jac:
            bp = LaurentPoly(q, {-1: 1, 0: -b})
            ap = -(1 - a / q) * (1 - b)
        else:
            bp = LaurentPoly(q, {-1: 1})
            ap = -(1 - a / q)
        dp = LaurentPoly(q, {-1: a / q, 0: -a / q})
    return VirtualData(bp, dp, ap, p.ctype, p.family)


def virtual_energy(v: int, p: ParamsLike) -> Fraction:
    """Energy of the degree-v virtual state; negative throughout the valid range."""
    q, a, b = p.q, p.a, p.b
    jac = p.family == Family.LQ_JACOBI
    if p.ctype == CType.TYPE_II:
        out = -(1 - a * q ** v)
        if jac:
            out *= 1 - b * q ** (-1 - v)
    else:
        out = -(1 - a * q ** (-v - 1))
        if jac:
            out *= 1 - b * q ** v
    return out


def virtual_energy_prime(v: int, p: ParamsLike) -> Fraction:
    """Eigenvalue constant of the auxiliary difference equation (regularized)."""
    q, a, b = p.q, p.a, p.b
    if p.ctype == CType.TYPE_II:
        if p.family == Family.LQ_JACOBI:
            return (q ** (-v) - 1) * (b / q - a * q ** v)
        return -a * (1 - q ** v)
    return (q ** (-v) - 1) * (a / q - b * q ** v)


@lru_cache(maxsize=None)
def virtual_poly_y(v: int, p: ParamsLike) -> LaurentPoly:
    """Virtual-state polynomial of degree v as a Laurent polynomial in y.

    Type II polynomials are normalized to value 1 at x = -1 and are built
    from their own terminating series (2phi1 with argument b q^x for little
    q-Jacobi, 1phi1 with argument a q^{x+v+1} for little q-Laguerre).  Type I
    polynomials are the eigenpolynomials at twisted parameters, so they carry
    the eigen normalization: value 1 at x = 0.
    """
    if v < 0:
        raise ValueError("virtual index must be >= 0")
    q, a = p.q, p.a
    if p.ctype == CType.TYPE_I:
        return eigenpoly_y(v, twist(p))
    jac = p.family == Family.LQ_JACOBI
    b = _require_b(p)
    coeffs = {0: Fraction(1)}
    term = Fraction(1)
    for k in range(1, v + 1):
        den = (1 - a * q ** (k - 1)) * (1 - q ** k)
        if den == 0:
            # a = q^{1-k}, e.g. a = 1 at the tilde-shifted point of a = q
            raise InvalidParamsError("Pochhammer denominator vanished at k=%d" % k)
        num = 1 - q ** (k - 1 - v)
        if jac:
            term = term * num * (1 - (a / b) * q ** (v + k)) / den * b
        else:
            term = term * num / den * (-(q ** (k - 1))) * a * q ** (v + 1)
        coeffs[k] = term
    if jac:
        den0 = qpoch(b * q ** (-v - 1), q, v)
        if den0 == 0:
            raise InvalidParamsError(
                "b = q^j pole at v=%d; enlarge dmax or move b" % v
            )
        lead = qpoch(a, q, v) / den0
    else:
        lead = qpoch(a, q, v)
    return LaurentPoly(q, {d: lead * c for d, c in coeffs.items()})


def xi_at_infinity(v: int, p: ParamsLike) -> Fraction:
    """Value of the degree-v virtual-state polynomial at x = infinity."""
    q, a = p.q, p.a
    if p.ctype == CType.TYPE_I:
        return eigen_at_infinity(v, twist(p))
    if p.family == Family.LQ_JACOBI:
        den = qpoch(p.b * q ** (-v - 1), q, v)
        if den == 0:
            raise InvalidParamsError("b = q^j pole at v=%d" % v)
        return qpoch(a, q, v) / den
    return qpoch(a, q, v)


def xi_leading(v: int, p: ParamsLike) -> Fraction:
    """Leading eta-coefficient of the degree-v virtual-state polynomial."""
    q, a = p.q, p.a
    if p.ctype == CType.TYPE_I:
        return eigen_leading(v, twist(p))
    if p.family == Family.LQ_JACOBI:
        b = _require_b(p)
        num = qpoch((a / b) * q ** (v + 1), q, v)
        den = qpoch(b * q ** (-v - 1), q, v)
        return b ** v * q ** (-(v * (v + 1) // 2)) * num / den
    return (-a) ** v * q ** (v * v)


def xi_series_value(v: int, p: ParamsLike, x: int) -> Fraction:
    """Independent 3phi2 rewriting of the type II polynomial at integer x >= 0.

    Every term of this form is manifestly positive in the strict range, which
    is what makes the positivity of the virtual states provable; here it is
    used as a two-route oracle against the 2phi1 construction.
    """
    if p.ctype != CType.TYPE_II or p.family != Family.LQ_JACOBI:
        raise ValueError("series rewriting applies to type II little q-Jacobi")
    if x < 0:
        raise ValueError("oracle defined for integer x >= 0")
    q, a, b = p.q, p.a, _require_b(p)
    pref = xi_at_infinity(v, p) * qpoch(q ** (x + 1), q, v)
    s = qhyper_terminating(
        [q ** (-v), b * q ** (-v - 1), Fraction(0)],
        [a, q ** (-v - x)],
        q,
        q,
        v,
    )
    return pref * s


def xi_diffeq_residual(v: int, p: ParamsLike) -> LaurentPoly:
    """Residual of the auxiliary difference equation; identically zero when it holds."""
    vd = virtual_data(p)
    xi = virtual_poly_y(v, p)
    ev = virtual_energy_prime(v, p)
    return (
        vd.bprime_new * (xi - xi.shift(1))
        + vd.dprime_new * (xi - xi.shift(-1))
        - xi.scale(ev)
    )


def groundstate_ratio(x: int, p: ParamsLike) -> Fraction:
    """Ratio of the original to the auxiliary ground state at integer x >= 0."""
    if x < 0:
        raise ValueError("defined for x >= 0")
    q = p.q
    if p.ctype == CType.TYPE_I:
        return (p.a / q) ** x
    if p.family == Family.LQ_JACOBI:
        return qpoch(p.b, q, x) / qpoch(q, q, x)
    return 1 / qpoch(q, q, x)


def virtual_groundstate_sq(x: int, p: ParamsLike) -> Fraction:
    """Squared auxiliary ground state; satisfies ratio^2 * this = groundstate_sq."""
    if x < 0:
        raise ValueError("defined for x >= 0")
    q, a = p.q, p.a
    if p.ctype == CType.TYPE_I:
        return groundstate_sq(x, twist(p))
    out = qpoch(q, q, x) * a ** x
    if p.family == Family.LQ_JACOBI:
        out /= qpoch(p.b, q, x)
    return out


def nu_ratio_poly(j: int, m: int, p: ParamsLike) -> LaurentPoly:
    """Ground-state-ratio quotient entering row j of the eigen Casoratian.

    As a function of x it equals ratio(x-j+1; lambda) / ratio(x; lambda + m
    tilde-shifts), which collapses to a genuine polynomial in y (a constant
    for type I).  Valid for 1 <= j <= m+1.
    """
    if not 1 <= j <= m + 1:
        raise ValueError("need 1 <= j <= m+1")
    q = p.q
    if p.ctype == CType.TYPE_I:
        return LaurentPoly.const(q, (p.a / q) ** (j - 1))
    out = LaurentPoly.one(q)
    for i in range(j - 1):
        out *= LaurentPoly(q, {0: 1, 1: -(q ** (2 - j + i))})
    if p.family == Family.LQ_JACOBI:
        b = _require_b(p)
        for i in range(m - j + 1):
            out *= LaurentPoly(q, {0: 1, 1: -b * q ** (i - m)})
        denom = qpoch(b * q ** (-m), q, m)
        if denom == 0:
            raise InvalidParamsError("ground-state ratio normalization vanished")
        out = out.scale(1 / denom)
    return out
