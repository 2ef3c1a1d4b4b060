"""Casoratian Darboux engine: multi-indexed polynomials and deformed systems.

Given a set D = {d_1 < ... < d_M} of virtual-state indices, the M-step
isospectral deformation is encoded in two determinants: the denominator
polynomial (a normalized backward Casoratian of the virtual-state
polynomials) and the multi-indexed eigenpolynomial (the same Casoratian
bordered with a weighted eigenpolynomial column).  Everything in this module
stays in the exact Laurent ring; divisions by the gauge monomials and the
normalization constants are asserted exact, which turns polynomiality
theorems into runtime checks.

Both construction types share one Casoratian builder: the shift runs
backward for type II and forward for type I, and the border carries the
type-dependent ground-state-ratio quotient.  The type II construction is
fully normalized (denominator value 1 at x = -1, eigenpolynomial value 1 at
x = 0).  The type I construction is exposed at Casoratian level only,
normalized single-index closed forms excepted.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .base import (
    CType,
    Family,
    Params,
    ParamsLike,
    RawParams,
    ShiftedParams,
    casoratian_gauge,
    eigen_at_infinity,
    eigen_leading,
    eigenpoly_y,
    energy,
    groundstate_sq,
    potential_b,
    potential_d,
    twist,
)
from .exact import (
    DegenerateCasoratianError,
    DenominatorZeroAtIntegerError,
    EtaPoly,
    InvalidParamsError,
    LaurentPoly,
    NonExactDivisionError,
    Scalar,
    det_laurent,
    qbinom2,
    qpoch,
    scalar,
)
from .virtual import (
    nu_ratio_poly,
    virtual_data,
    virtual_energy,
    virtual_poly_y,
    xi_at_infinity,
    xi_leading,
)


@dataclass(frozen=True)
class IndexSet:
    """Multi-index D = {d_1, ..., d_M} of virtual-state degrees.

    Strict mode enforces 1 <= d_1 < d_2 < ... < d_M, the admissible input
    for the deformation.  Raw mode admits 0 and arbitrary order; it exists
    for the permutation-invariance and index-reduction identities only.
    """

    indices: tuple[int, ...]
    strict: bool = True

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(int(d) for d in self.indices))
        if len(set(self.indices)) != len(self.indices):
            raise InvalidParamsError("repeated virtual-state index")
        if self.strict:
            if any(d < 1 for d in self.indices):
                raise InvalidParamsError("strict index sets need d_j >= 1")
            if list(self.indices) != sorted(self.indices):
                raise InvalidParamsError("strict index sets must be ascending")
        elif any(d < 0 for d in self.indices):
            raise InvalidParamsError("virtual-state indices must be >= 0")

    @classmethod
    def of(cls, *ds: int) -> "IndexSet":
        return cls(tuple(ds))

    @classmethod
    def raw(cls, ds: Sequence[int]) -> "IndexSet":
        return cls(tuple(ds), strict=False)

    @property
    def size(self) -> int:
        return len(self.indices)

    @property
    def degree_offset(self) -> int:
        """Number of missing degrees: sum d_j - M(M-1)/2, always >= 0."""
        return sum(self.indices) - qbinom2(self.size)

    def __str__(self) -> str:
        return "{%s}" % ",".join(str(d) for d in self.indices)


def casoratian_minus(fs: Sequence[LaurentPoly], q: Scalar) -> LaurentPoly:
    """Backward Casoratian: det of f_k(x - j + 1) over rows j, columns k."""
    rows = [[f.shift(-j) for f in fs] for j in range(len(fs))]
    return det_laurent(rows, q=q)


def casoratian_plus(fs: Sequence[LaurentPoly], q: Scalar) -> LaurentPoly:
    """Forward Casoratian: det of f_k(x + j - 1) over rows j, columns k."""
    rows = [[f.shift(j) for f in fs] for j in range(len(fs))]
    return det_laurent(rows, q=q)


def _casoratian(d: IndexSet, p: ParamsLike, n: int | None = None) -> LaurentPoly:
    """Casoratian of the virtual-state polynomials of D, bordered at level n.

    Row j holds the virtual-state polynomials at x + s j, with s = -1
    (backward) for type II and s = +1 (forward) for type I.  Without a level
    the matrix is M x M; with level n it has M + 1 rows and row j gains the
    border nu_ratio_poly(j + 1, M, p) * P_n(x + s j).  The bordered
    determinant is zero for n < 0 and P_n itself for empty D; any other zero
    result is degenerate.
    """
    m = d.size
    if n is not None:
        if n < 0:
            return LaurentPoly.zero(p.q)
        if m == 0:
            return eigenpoly_y(n, p)
    s = -1 if p.ctype == CType.TYPE_II else 1
    fs = [virtual_poly_y(v, p) for v in d.indices]
    rows = [[f.shift(s * j) for f in fs] for j in range(m if n is None else m + 1)]
    if n is not None:
        pn = eigenpoly_y(n, p)
        for j, row in enumerate(rows):
            row.append(nu_ratio_poly(j + 1, m, p) * pn.shift(s * j))
    w = det_laurent(rows, q=p.q)
    if m > 0 and w.is_zero:
        raise DegenerateCasoratianError(
            "%s Casoratian is identically zero"
            % ("virtual-state" if n is None else "bordered")
        )
    return w


@lru_cache(maxsize=None)
def xi_casoratian(d: IndexSet, p: ParamsLike) -> LaurentPoly:
    """Raw Casoratian of the virtual-state polynomials of D: backward for
    type II, forward for type I."""
    return _casoratian(d, p)


# ---------------------------------------------------------------------------
# type II construction
# ---------------------------------------------------------------------------


def _check_type_ii(p: ParamsLike) -> None:
    if p.ctype != CType.TYPE_II:
        raise InvalidParamsError("this operation is defined for the type II construction")


@lru_cache(maxsize=None)
def denominator_norm_const(d: IndexSet, p: ParamsLike) -> Fraction:
    """Normalization constant of the denominator polynomial."""
    m = d.size
    if m == 0:
        return Fraction(1)
    vd = virtual_data(p)
    out = 1 / casoratian_gauge(m, p.q).eval_int(-1)
    for j in range(1, m + 1):
        dpj = vd.dprime_new.eval_int(-j)
        for k in range(j + 1, m + 1):
            ej = virtual_energy(d.indices[j - 1], p)
            ek = virtual_energy(d.indices[k - 1], p)
            out *= (ej - ek) / dpj
    return out


@lru_cache(maxsize=None)
def denominator_poly_y(d: IndexSet, p: ParamsLike) -> LaurentPoly:
    """Denominator polynomial in y: gauged, normalized Casoratian of D."""
    _check_type_ii(p)
    m = d.size
    if m == 0:
        return LaurentPoly.one(p.q)
    w = xi_casoratian(d, p)
    out = w.divide_exact(casoratian_gauge(m, p.q))
    if out.min_deg < 0:
        raise NonExactDivisionError(
            "Casoratian not divisible by its gauge monomial (degree defect)"
        )
    return out.scale(1 / denominator_norm_const(d, p))


def denominator_poly(d: IndexSet, p: ParamsLike) -> EtaPoly:
    """Denominator polynomial in eta; degree = degree_offset, value 1 at x = -1."""
    return denominator_poly_y(d, p).to_eta()


@lru_cache(maxsize=None)
def multi_indexed_poly_y(d: IndexSet, n: int, p: ParamsLike) -> LaurentPoly:
    """Multi-indexed eigenpolynomial of level n in y (zero for n < 0).

    Constructive definition: the bordered backward Casoratian (virtual-state
    polynomials at x, x-1, ..., x-M, border the ground-state-ratio quotient
    times the level-n eigenpolynomial) divided by the gauge monomial and the
    normalization constant.  Both divisions must be exact.
    """
    _check_type_ii(p)
    q = p.q
    m = d.size
    det = _casoratian(d, p, n)
    if det.is_zero:  # n < 0
        return det
    cdn = (-1) ** m * q ** (qbinom2(m + 1)) * denominator_norm_const(d, p)
    out = det.divide_exact(casoratian_gauge(m + 1, q))
    if out.min_deg < 0:
        raise NonExactDivisionError(
            "bordered Casoratian not divisible by its gauge monomial"
        )
    return out.scale(1 / cdn)


def multi_indexed_poly(d: IndexSet, n: int, p: ParamsLike) -> EtaPoly:
    """Multi-indexed eigenpolynomial in eta; degree = degree_offset + n."""
    return multi_indexed_poly_y(d, n, p).to_eta()


def lowest_matches_denominator(d: IndexSet, p: ParamsLike) -> EtaPoly:
    """Residual of: level-0 multi-indexed polynomial at lambda equals the
    denominator polynomial at x-1, lambda+delta.  Zero iff the identity holds."""
    _check_type_ii(p)
    lhs = multi_indexed_poly_y(d, 0, p)
    rhs = denominator_poly_y(d, _shift(p, delta=1)).shift(-1)
    return (lhs - rhs).to_eta()


def _shift(p: ParamsLike, tilde: int = 0, delta: int = 0):
    if isinstance(p, (Params, ShiftedParams)):
        return p.shift(tilde=tilde, delta=delta)
    raise TypeError("cannot shift raw parameters")


@dataclass(frozen=True)
class DeformedPotentials:
    """Deformed hopping potentials as exact numerator/denominator pairs."""

    b_num: LaurentPoly
    b_den: LaurentPoly
    d_num: LaurentPoly
    d_den: LaurentPoly

    def b_value(self, x: int) -> Fraction:
        den = self.b_den.eval_int(x)
        if den == 0:
            raise DenominatorZeroAtIntegerError("denominator zero at x=%d" % x)
        return self.b_num.eval_int(x) / den

    def d_value(self, x: int) -> Fraction:
        den = self.d_den.eval_int(x)
        if den == 0:
            raise DenominatorZeroAtIntegerError("denominator zero at x=%d" % x)
        return self.d_num.eval_int(x) / den


def deformed_potentials(d: IndexSet, p: ParamsLike) -> DeformedPotentials:
    """Deformed potentials; positive on the lattice with the down term
    vanishing at x = 0.  Dispatches on the construction type."""
    if p.ctype == CType.TYPE_I:
        return typeI_potentials(d, p)
    m = d.size
    xi0 = denominator_poly_y(d, p)
    xi1 = denominator_poly_y(d, _shift(p, delta=1))
    bshift = potential_b(_shift(p, tilde=m))
    return DeformedPotentials(
        b_num=bshift * xi0.shift(-1) * xi1,
        b_den=xi0 * xi1.shift(-1),
        d_num=potential_d(p) * xi0 * xi1.shift(-2),
        d_den=xi0.shift(-1) * xi1.shift(-1),
    )


def deformed_eigencheck(d: IndexSet, n: int, p: ParamsLike) -> LaurentPoly:
    """Eigen-equation residual of the deformed system, denominators cleared.

    Returns B(x; shifted) Xi(x-1)^2 [Xi'(x) f - Xi'(x-1) f(x+1)]
          + D(x) Xi(x)^2 [Xi'(x-2) f - Xi'(x-1) f(x-1)]
          - E_n Xi(x) Xi(x-1) Xi'(x-1) f,  with Xi' at lambda+delta;
    identically zero iff the eigen-identity holds.
    """
    _check_type_ii(p)
    m = d.size
    xi0 = denominator_poly_y(d, p)
    xi1 = denominator_poly_y(d, _shift(p, delta=1))
    f = multi_indexed_poly_y(d, n, p)
    bshift = potential_b(_shift(p, tilde=m))
    term1 = bshift * xi0.shift(-1) ** 2 * (xi1 * f - xi1.shift(-1) * f.shift(1))
    term2 = (
        potential_d(p)
        * xi0 ** 2
        * (xi1.shift(-2) * f - xi1.shift(-1) * f.shift(-1))
    )
    rhs = (xi0 * xi0.shift(-1) * xi1.shift(-1) * f).scale(energy(n, p))
    return term1 + term2 - rhs


def deformed_forward_check(d: IndexSet, n: int, p: ParamsLike) -> LaurentPoly:
    """Forward-shift residual: level n at lambda maps to level n-1 at
    lambda+delta with factor energy(n).  Zero polynomial iff the relation holds."""
    _check_type_ii(p)
    if n < 0:
        raise ValueError("need n >= 0")
    m = d.size
    q = p.q
    p_up = _shift(p, delta=1)
    xi0 = denominator_poly_y(d, p)
    xi1 = denominator_poly_y(d, p_up)
    f = multi_indexed_poly_y(d, n, p)
    g = multi_indexed_poly_y(d, n - 1, p_up)
    b0 = potential_b(_shift(p, tilde=m)).eval_int(0)
    lhs = (xi1 * f - xi1.shift(-1) * f.shift(1)).scale(b0)
    rhs = (LaurentPoly.var(q) * xi0 * g).scale(energy(n, p))
    return lhs - rhs


def deformed_backward_check(d: IndexSet, n: int, p: ParamsLike) -> LaurentPoly:
    """Backward-shift residual: level n-1 at lambda+delta maps back to level n
    at lambda.  Zero polynomial iff the relation holds (n >= 1)."""
    _check_type_ii(p)
    if n < 1:
        raise ValueError("need n >= 1")
    m = d.size
    q = p.q
    p_up = _shift(p, delta=1)
    xi0 = denominator_poly_y(d, p)
    xi1 = denominator_poly_y(d, p_up)
    f = multi_indexed_poly_y(d, n - 1, p_up)
    target = multi_indexed_poly_y(d, n, p)
    bshift = potential_b(_shift(p, tilde=m))
    b0 = bshift.eval_int(0)
    y = LaurentPoly.var(q)
    lhs = bshift * xi0.shift(-1) * y * f - potential_d(p) * xi0 * (
        y * f.shift(-1)
    ).scale(Fraction(1) / q)
    rhs = (xi1.shift(-1) * target).scale(b0)
    return lhs - rhs


def psi_deformed_sq(x: int, d: IndexSet, p: ParamsLike) -> Fraction:
    """Squared deformed ground-state factor at integer x >= 0; 1 at x = 0."""
    _check_type_ii(p)
    if x < 0:
        raise ValueError("defined for x >= 0")
    xi = denominator_poly_y(d, p)
    den = xi.eval_int(x) * xi.eval_int(x - 1)
    if den == 0:
        raise DenominatorZeroAtIntegerError("denominator polynomial zero at x=%d" % x)
    return xi.eval_int(0) * groundstate_sq(x, _shift(p, tilde=d.size)) / den


def deformed_norm_sq(d: IndexSet, n: int, p: ParamsLike) -> Fraction:
    """Extra squared-norm factor of the deformation; strictly positive."""
    out = Fraction(1)
    for dj in d.indices:
        out /= energy(n, p) - virtual_energy(dj, p)
    if p.family == Family.LQ_JACOBI:
        out *= qpoch(p.b * p.q ** (-d.size), p.q, d.size)
    return out


def infinity_values(d: IndexSet, n: int, p: ParamsLike) -> tuple[Fraction, Fraction]:
    """Closed-form limits at x = infinity of the denominator and level-n
    polynomials (products over the index set)."""
    _check_type_ii(p)
    xi_inf = Fraction(1)
    p_extra = Fraction(1)
    for j, dj in enumerate(d.indices, start=1):
        xi_inf *= xi_at_infinity(dj, p) / xi_at_infinity(j - 1, p)
        p_extra *= (energy(n, p) - virtual_energy(dj, p)) / (-virtual_energy(j - 1, p))
    return xi_inf, xi_inf * p_extra * eigen_at_infinity(n, p)


def denominator_leading(d: IndexSet, p: ParamsLike) -> Fraction:
    """Closed-form leading eta-coefficient of the denominator polynomial."""
    _check_type_ii(p)
    q = p.q
    out = Fraction(1)
    for j, dj in enumerate(d.indices, start=1):
        out *= xi_leading(dj, p) / xi_leading(j - 1, p)
    m = d.size
    if p.family == Family.LQ_JACOBI:
        b = p.b
        for j in range(1, m + 1):
            for k in range(j + 1, m + 1):
                dj, dk = d.indices[j - 1], d.indices[k - 1]
                den = b / q - p.a * q ** (dj + dk)
                if den == 0:
                    raise InvalidParamsError("degenerate leading-coefficient product")
                out *= (b / q - p.a * q ** (j + k - 2)) / den
    else:
        out *= q ** (-(m - 1) * d.degree_offset)
    return out


def multi_indexed_leading(d: IndexSet, n: int, p: ParamsLike) -> Fraction:
    """Closed-form leading eta-coefficient of the level-n polynomial."""
    _check_type_ii(p)
    q = p.q
    out = denominator_leading(d, p) * eigen_leading(n, p) * q ** (-n * d.size)
    if p.family == Family.LQ_JACOBI:
        b = p.b
        for j, dj in enumerate(d.indices, start=1):
            out *= (1 - b * q ** (n - dj - 1)) / (1 - b * q ** (-j))
    return out


def typeII_single_poly(dd: int, n: int, p: ParamsLike) -> LaurentPoly:
    """Single-index type II closed form, bypassing the determinant engine.

    q^{-x} [(1 - b q^{x-1}) xi_d(x-1) P_n(x) - (1 - q^x) xi_d(x) P_n(x-1)]
    divided by (1 - b q^{-1}); an independent route for engine tests.
    """
    q, b = p.q, p.b
    xi = virtual_poly_y(dd, p)
    pn = eigenpoly_y(n, p)
    one_m_bqy = LaurentPoly(q, {0: 1, 1: -b / q})
    one_m_y = LaurentPoly(q, {0: 1, 1: -1})
    inner = one_m_bqy * xi.shift(-1) * pn - one_m_y * xi * pn.shift(-1)
    out = LaurentPoly.monomial(q, -1) * inner
    return out.scale(1 / (1 - b / q))


# ---------------------------------------------------------------------------
# type I construction (raw Casoratian engine + normalized single-index forms)
# ---------------------------------------------------------------------------


def _check_type_i(p: ParamsLike) -> None:
    if p.ctype != CType.TYPE_I:
        raise InvalidParamsError("this operation is defined for the type I construction")


@lru_cache(maxsize=None)
def typeI_eigen_numerator(d: IndexSet, n: int, p: ParamsLike) -> LaurentPoly:
    """Bordered forward Casoratian with the ground-state ratio factored out.

    Row j carries the virtual-state polynomials at x+j-1 and, in the last
    column, the constant ratio quotient (a/q)^{j-1} times the level-n
    eigenpolynomial at x+j-1.  This is the type I eigenvector numerator up to
    positive prefactors; no normalization is applied.
    """
    _check_type_i(p)
    return _casoratian(d, p, n)


def level_poly(d: IndexSet, n: int, p: ParamsLike) -> EtaPoly:
    """The level-n polynomial in eta for either construction type.

    Type II: the normalized multi-indexed polynomial.  Type I: the raw
    numerator with its monomial unit y^s stripped, since the roots of y^s sit
    at the basis point eta = 1 and are not zeros of the eigenvector.
    """
    if p.ctype == CType.TYPE_II:
        return multi_indexed_poly(d, n, p)
    qn = typeI_eigen_numerator(d, n, p)
    if not qn.is_zero and qn.min_deg > 0:
        qn = qn.divide_exact(LaurentPoly.monomial(p.q, qn.min_deg))
    return qn.to_eta()


def typeI_potentials(d: IndexSet, p: ParamsLike) -> DeformedPotentials:
    """Type I deformed potentials as exact numerator/denominator pairs."""
    _check_type_i(p)
    q, a = p.q, p.a
    m = d.size
    vd = virtual_data(p)
    w = xi_casoratian(d, p)
    qn = typeI_eigen_numerator(d, 0, p)
    return DeformedPotentials(
        b_num=vd.bprime_new.shift(m) * w * qn.shift(1).scale(a / q),
        b_den=w.shift(1) * qn,
        d_num=vd.dprime_new * w.shift(1) * qn.shift(-1).scale(q / a),
        d_den=w * qn,
    )


def typeI_single_poly(
    dd: int,
    n: int,
    family: Family,
    q: Scalar,
    a: Scalar,
    b: Scalar = Fraction(0),
) -> LaurentPoly:
    """Normalized single-index type I polynomial from its closed form.

    (1-b) q^n / ((1 - a q^{n-d-1})(1 - b q^{n+d})) *
    [xi_d(x+1) P_n(x) - a q^{-1} xi_d(x) P_n(x+1)],
    with the virtual-state polynomial built at twisted parameters.  Takes raw
    scalars (no range validation) so it can also be evaluated at formally
    inverted q for the reflection identity.
    """
    q, a, b = scalar(q), scalar(a), scalar(b)
    raw = RawParams(family, q, a, b)
    xi = eigenpoly_y(dd, twist(raw))
    pn = eigenpoly_y(n, raw)
    den = (1 - a * q ** (n - dd - 1)) * (1 - b * q ** (n + dd))
    if den == 0:
        raise InvalidParamsError("degenerate normalization in closed form")
    pref = (1 - b) * q ** n / den
    inner = xi.shift(1) * pn - (xi * pn.shift(1)).scale(a / q)
    return inner.scale(pref)
