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

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .base import (
    CType,
    Family,
    ParamsLike,
    eigen_at_infinity,
    eigen_leading,
    eigenpoly_y,
    groundstate_sq,
    hop_op,
    twist,
)
from .exact import (
    InvalidParamsError,
    LaurentPoly,
    op_apply,
    qhyper_terminating,
    qhyper_terms,
    qpoch,
    qpoch_pair,
)


class VirtualData(NamedTuple):
    """Auxiliary potentials (regularized) and the additive energy constant."""

    bprime_new: LaurentPoly
    dprime_new: LaurentPoly
    alpha_prime: Fraction


@lru_cache(maxsize=256)
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
    return VirtualData(bp, dp, ap)


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


@lru_cache(maxsize=256)
def virtual_poly_y(v: int, p: ParamsLike) -> LaurentPoly:
    """Virtual-state polynomial of degree v as a Laurent polynomial in y.

    Type II polynomials are normalized to value 1 at x = -1: xi_at_infinity
    times their own terminating series, whose term k is the coefficient of
    y^k: 2phi1(q^{-v}, (a/b) q^{v+1}; a; q; b y) for little q-Jacobi, built
    polynomial in b as ((a/b) q^{v+1}; q)_k b^k = prod_{j<k} (b - a q^{v+1+j}),
    and 1phi1(q^{-v}; a; q; a q^{v+1} y), its b = 0 value, for little
    q-Laguerre.  Type I polynomials are the eigenpolynomials at twisted
    parameters, so they carry the eigen normalization: value 1 at x = 0.
    """
    if v < 0:
        raise ValueError("virtual index must be >= 0")
    q, a = p.q, p.a
    if p.ctype == CType.TYPE_I:
        return eigenpoly_y(v, twist(p))
    if p.family == Family.LQ_JACOBI:
        terms = qhyper_terms([q ** (-v), (p.b, a * q ** (v + 1))], [a], q, 1, v)
    else:
        terms = qhyper_terms([q ** (-v)], [a], q, a * q ** (v + 1), v)
    lead = xi_at_infinity(v, p)
    return LaurentPoly(q, {k: lead * c for k, c in enumerate(terms)})


def xi_at_infinity(v: int, p: ParamsLike) -> Fraction:
    """Value of the degree-v virtual-state polynomial at x = infinity."""
    q, a = p.q, p.a
    if p.ctype == CType.TYPE_I:
        return eigen_at_infinity(v, twist(p))
    if p.family == Family.LQ_JACOBI:
        return qpoch(a, q, v) / _pole_den(v, p)
    return qpoch(a, q, v)


def _pole_den(v: int, p: ParamsLike) -> Fraction:
    """(b q^{-v-1}; q)_v, the type II little q-Jacobi divisor of degree v."""
    if den := qpoch(p.b * p.q ** (-v - 1), p.q, v):
        return den
    raise InvalidParamsError("b = q^j pole at v=%d; enlarge dmax or move b" % v)


def xi_leading(v: int, p: ParamsLike) -> Fraction:
    """Leading eta-coefficient of the degree-v virtual-state polynomial."""
    q, a = p.q, p.a
    if p.ctype == CType.TYPE_I:
        return eigen_leading(v, twist(p))
    if p.family == Family.LQ_JACOBI:
        # b^v ((a/b) q^{v+1}; q)_v q^{-C(v+1,2)}, written polynomial in b
        num = qpoch(p.b / a * q ** (-v - 1), 1 / q, v)
        return (-a) ** v * q ** (v * v) * num / _pole_den(v, p)
    return (-a) ** v * q ** (v * v)


def degree_drop(p: ParamsLike) -> int | None:
    """The first v in 1..dmax whose virtual-state polynomial loses its leading
    coefficient (a coincidence b = a q^m), else None."""
    return next((v for v in range(1, p.dmax + 1) if xi_leading(v, p) == 0), None)


def xi_series_value(v: int, p: ParamsLike, x: int) -> Fraction:
    """Independent 3phi2 rewriting of the type II polynomial at integer x >= 0.

    Every term of this form is manifestly positive in the strict range, which
    is what makes the positivity of the virtual states provable; here it is
    used as a two-route oracle against the 2phi1 construction.  It is of
    degree <= v in y = q^x, so agreement at x = 0..v proves every x >= 0:
    (q^{x+1}; q)_v cancels the lower (q^{-v-x}; q)_k, none 0 for x >= 0, and
    leaves term k as c_k prod_{i=1..v-k} (1 - q^i y) prod_{j<k} (-q^{v-j} y).
    """
    if p.ctype != CType.TYPE_II or p.family != Family.LQ_JACOBI:
        raise ValueError("series rewriting applies to type II little q-Jacobi")
    if x < 0:
        raise ValueError("oracle defined for integer x >= 0")
    q, a, b = p.q, p.a, p.b
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
    """Residual of the auxiliary difference equation H' xi = E' xi, with the
    auxiliary Hamiltonian H' = hop_op(B', D'); identically zero when it holds."""
    vd, xi = virtual_data(p), virtual_poly_y(v, p)
    return op_apply(hop_op(vd.bprime_new, vd.dprime_new), xi) - xi.scale(virtual_energy_prime(v, p))


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
    # the factors 1 - z y as pairs (zn, zd): z = q^-e for 0 <= e <= j - 2
    # and, for little q-Jacobi, z = b q^-e for j <= e <= m (q = r/t)
    r, t = q.numerator, q.denominator
    zs = [(t ** e, r ** e) for e in range(j - 1)]
    num, den = [1], 1
    if p.family == Family.LQ_JACOBI:
        b = p.b
        zs += [(b.numerator * t ** e, b.denominator * r ** e) for e in range(j, m + 1)]
        den, num[0] = qpoch_pair(b * q ** (-m), q, m)  # over (b q^-m; q)_m
        if den == 0:
            raise InvalidParamsError("ground-state ratio normalization vanished")
    for zn, zd in zs:  # times (zd - zn y) / zd
        num = [zd * c - zn * c1 for c, c1 in zip(num + [0], [0] + num)]
        den *= zd
    return LaurentPoly.one(q)._new(0, num, den)
