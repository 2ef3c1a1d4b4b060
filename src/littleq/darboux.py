"""Casoratian Darboux engine: multi-indexed polynomials and deformed systems.

Given a set D = {d_1 < ... < d_M} of virtual-state indices, the M-step
isospectral deformation is encoded in two determinants: the denominator
polynomial (a normalized backward Casoratian of the virtual-state
polynomials) and the multi-indexed eigenpolynomial (the same Casoratian
bordered with a weighted eigenpolynomial column).  Everything in this module
stays in the exact Laurent ring; each gauge division must leave a genuine
polynomial in y, which turns polynomiality theorems into runtime checks.

Both construction types build every level through one operator, level_op:
the shift runs backward for type II and forward for type I, and the border
carries the type-dependent ground-state-ratio quotient.  Level n at one
(D, lambda) is its bordered Casoratian expanded along the border column,
A[P_n] with A = sum_j c_j T^(s j) cached once per (D, lambda): c_j is
cofactor j of _border (an M x M minor, all M + 1 expanded by Cauchy-Binet
from the integer minors of the virtual-state coefficients) times its
border quotient, for type II over the gauge monomial and cdn.  By linearity
level n is sum_k p_(n,k) A[y^k] for P_n = sum_k p_(n,k) y^k, summed in one
integer pass from the images A[y^k] = y^k sum_j c_j q^(s j k), which a
bounded cache (_level_image) keeps per (D, lambda, k).  Nothing here runs a
determinant of polynomials.  Both types also share one deformed
system, described by the level polynomials (level_poly_y) and the measure
(deformed_measure, the weight c gs(x; lambda + M tilde) / (den den(x-1)));
the potentials and the norm factor are built from level 0, level n and den
alone.  As every level is A[P_n], deformed_identities proves the eigen and
shift relations for every n, with no level at lambda + delta, by composing
A with the base's operator values hamiltonian_op, forward_shift_op and
backward_shift_op (exact's op_compose).  The type II
construction is fully normalized (denominator value 1 at x = -1,
eigenpolynomial value 1 at x = 0).  The type I construction is exposed at
Casoratian level only, normalized single-index closed forms excepted.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import prod
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .base import (
    CType,
    Family,
    ParamsLike,
    backward_shift_op,
    casoratian_gauge,
    eigen_at_infinity,
    eigen_leading,
    eigenpoly_y,
    energy,
    forward_shift_op,
    hamiltonian_op,
    potential_b,
    potential_d,
)
from .exact import (
    DegenerateCasoratianError,
    DenominatorZeroAtIntegerError,
    EtaPoly,
    InvalidParamsError,
    LaurentPoly,
    NonExactDivisionError,
    _lincomb,
    det_laurent,  # noqa: F401  (kept bound here: qbench's tracer wraps it in every namespace)
    op_add,
    op_apply,
    op_compose,
    qbinom2,
    qpoch,
)
from .virtual import (
    nu_ratio_poly,
    virtual_data,
    virtual_energy,
    virtual_poly_y,
    xi_at_infinity,
    xi_leading,
)


class _IndexFields(NamedTuple):  # the fields; a NamedTuple body may not define __new__
    indices: tuple[int, ...]
    strict: bool = True


class IndexSet(_IndexFields):
    """Multi-index D = {d_1, ..., d_M} of virtual-state degrees.

    Strict mode enforces 1 <= d_1 < d_2 < ... < d_M, the admissible input
    for the deformation.  Raw mode admits 0 and arbitrary order; it exists
    for the permutation-invariance and index-reduction identities only.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates too

    def __new__(cls, indices: Sequence[int], strict: bool = True) -> "IndexSet":
        indices = tuple(int(d) for d in indices)
        if len(set(indices)) != len(indices):
            raise InvalidParamsError("repeated virtual-state index")
        if strict:
            if any(d < 1 for d in indices):
                raise InvalidParamsError("strict index sets need d_j >= 1")
            if list(indices) != sorted(indices):
                raise InvalidParamsError("strict index sets must be ascending")
        elif any(d < 0 for d in indices):
            raise InvalidParamsError("virtual-state indices must be >= 0")
        return super().__new__(cls, indices, strict)

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


@lru_cache(maxsize=256)
def _border(d: IndexSet, p: ParamsLike) -> tuple[LaurentPoly, ...]:
    """The M + 1 cofactors of the bordered Casoratians of D at p, W last.

    Row j (0 <= j <= M) holds the virtual-state polynomials f_k at x + s j,
    with s = -1 (backward) for type II and s = +1 (forward) for type I.  With
    minor_j the M x M determinant without row j, cofactors[j] = (-1)^(M-j) minor_j
    and W = cofactors[M] = minor_M is the unbordered Casoratian.

    Write f_k = y^lo sum_c N[k][c] y^c / den_k.  Row j of the Casoratian is
    then the coefficient matrix times the powers x_c^j y^(lo + c), with
    x_c = q^(s (lo + c)), so by Cauchy-Binet
    minor_j = sum_S F_S V(x_S) e_(M-j)(x_S) y^(M lo + sum S) / prod den_k over
    the M-column sets S: F_S is the integer minor of N on the columns S, V
    the Vandermonde and e_k the elementary symmetric functions (deleting row
    j of a Vandermonde leaves e_(M-j) V).  All M + 1 cofactors come from one
    set of minors, with x_c over one common power of the base's denominator.
    W is the denominator's Casoratian; level_op weights the cofactors into
    the level operator, so no cached value here is rewritten.
    """
    m = d.size
    if m == 0:  # the empty Casoratian is 1, no determinant
        return (LaurentPoly.one(p.q),)
    s = -1 if p.ctype == CType.TYPE_II else 1
    fs = [virtual_poly_y(v, p) for v in d.indices]
    lo = min(f.val for f in fs)
    width = max(f.val + len(f.num) for f in fs) - lo
    minors = {(): 1}  # F_S of the rows so far, by Laplace expansion along each new row
    for k, f in enumerate(fs):
        grown: dict[tuple[int, ...], int] = {}
        for cols, minor in minors.items():
            for c, a in enumerate(f.num, f.val - lo):
                if a and c not in cols:
                    key = tuple(sorted(cols + (c,)))
                    sign = -1 if (k + sum(e < c for e in cols)) % 2 else 1
                    grown[key] = grown.get(key, 0) + sign * a * minor
        minors = {cols: minor for cols, minor in grown.items() if minor}
    # q^(s c) = u^c v^(width-1-c) / v^(width-1) for 0 <= c < width
    u, v = (p.q.numerator, p.q.denominator) if s > 0 else (p.q.denominator, p.q.numerator)
    xs = [u ** c * v ** (width - 1 - c) for c in range(width)]
    sums = [[0] * (m * width) for _ in range(m + 1)]
    for cols, minor in minors.items():
        x = [xs[c] for c in cols]
        e = [1]  # e_0 .. e_M of x
        for xc in x:
            e = [a + xc * b for a, b in zip(e + [0], [0] + e)]
        for i, xa in enumerate(x):
            for xb in x[i + 1:]:
                minor *= xb - xa
        for j in range(m + 1):
            sums[j][sum(cols)] += minor * e[m - j]
    dens = prod(f.den for f in fs)
    cofactors = []
    for j, coeffs in enumerate(sums):
        deg = qbinom2(m + 1) - j  # the degree of e_(M-j) V in the x_c
        z = p.q ** (s * lo * deg) * (-1) ** (m - j)
        cofactors.append(fs[0]._new(m * lo, [z.numerator * c for c in coeffs],
                                    z.denominator * v ** ((width - 1) * deg) * dens))
    return tuple(cofactors)


def _casoratian(d: IndexSet, p: ParamsLike, n: int) -> LaurentPoly:
    """Level n of D at p, level_op applied to P_n: the bordered Casoratian
    expanded along its border (over the gauge monomial and cdn for type II),
    sum_k p_(n,k) A[y^k] from the cached images of _level_image.  It is zero
    for n < 0; any other zero result is degenerate."""
    if n < 0:
        return LaurentPoly.zero(p.q)
    f = eigenpoly_y(n, p)
    val, num, den = _lincomb([(c, *_level_image(d, p, k)) for k, c in enumerate(f.num, f.val) if c])
    w = f._new(val, num, den * f.den)
    if w.is_zero:
        raise DegenerateCasoratianError("bordered Casoratian is identically zero")
    return w


def xi_casoratian(d: IndexSet, p: ParamsLike) -> LaurentPoly:
    """Raw Casoratian of the virtual-state polynomials of D: backward for
    type II, forward for type I; the minor W of _border."""
    w = _border(d, p)[-1]
    if w.is_zero:
        raise DegenerateCasoratianError("virtual-state Casoratian is identically zero")
    return w


def _check_type(p: ParamsLike, ctype: CType) -> None:
    if p.ctype != ctype:  # "I" * 2 is "II"
        raise InvalidParamsError(
            "this operation is defined for the type %s construction" % ("I" * ctype))


# ---------------------------------------------------------------------------
# type II construction
# ---------------------------------------------------------------------------


def _polynomial_in_y(out: LaurentPoly) -> LaurentPoly:
    """out, after checking that the gauge division left a polynomial in y."""
    if not out.is_zero and out.min_deg < 0:
        raise NonExactDivisionError(
            "Casoratian not divisible by its gauge monomial (degree defect)")
    return out


@lru_cache(maxsize=256)
def denominator_norm_const(d: IndexSet, p: ParamsLike) -> Fraction:
    """Normalization constant of the denominator polynomial."""
    m = d.size
    if m == 0:
        return Fraction(1)
    vd = virtual_data(p)
    es = [virtual_energy(v, p) for v in d.indices]
    out = 1 / casoratian_gauge(m, p.q).eval_int(-1)
    for j in range(1, m + 1):
        dpj = vd.dprime_new.eval_int(-j)
        for ek in es[j:]:
            out *= (es[j - 1] - ek) / dpj
    return out


@lru_cache(maxsize=256)
def denominator_poly_y(d: IndexSet, p: ParamsLike) -> LaurentPoly:
    """Denominator polynomial in y: gauged, normalized Casoratian of D."""
    _check_type(p, CType.TYPE_II)
    out = xi_casoratian(d, p).divide_exact(casoratian_gauge(d.size, p.q))
    return _polynomial_in_y(out).scale(1 / denominator_norm_const(d, p))


def denominator_poly(d: IndexSet, p: ParamsLike) -> EtaPoly:
    """Denominator polynomial in eta; degree = degree_offset, value 1 at x = -1."""
    return denominator_poly_y(d, p).to_eta()


@lru_cache(maxsize=256)
def multi_indexed_poly_y(d: IndexSet, n: int, p: ParamsLike) -> LaurentPoly:
    """Multi-indexed eigenpolynomial of level n in y (zero for n < 0).

    Constructive definition: the bordered backward Casoratian (virtual-state
    polynomials at x, x-1, ..., x-M, border the ground-state-ratio quotient
    times the level-n eigenpolynomial) over the gauge monomial and the
    normalization constant cdn, i.e. level_op applied to P_n.  The gauge
    division must leave a genuine polynomial in y.
    """
    _check_type(p, CType.TYPE_II)
    return _polynomial_in_y(_casoratian(d, p, n))


def multi_indexed_poly(d: IndexSet, n: int, p: ParamsLike) -> EtaPoly:
    """Multi-indexed eigenpolynomial in eta; degree = degree_offset + n."""
    return multi_indexed_poly_y(d, n, p).to_eta()


def lowest_matches_denominator(d: IndexSet, p: ParamsLike) -> EtaPoly:
    """Residual of: level-0 multi-indexed polynomial at lambda equals the
    denominator polynomial at x-1, lambda+delta.  Zero iff the identity holds."""
    _check_type(p, CType.TYPE_II)
    lhs = multi_indexed_poly_y(d, 0, p)
    rhs = denominator_poly_y(d, p.shift(delta=1)).shift(-1)
    return (lhs - rhs).to_eta()


def deformed_forward_check(d: IndexSet, n: int, p: ParamsLike) -> LaurentPoly:
    """Forward-shift residual: level n at lambda maps to level n-1 at
    lambda+delta with factor energy(n).  Returns
    B(0; lambda + M tilde) [l0(x+1) f - l0 f(x+1)] - E_n y den g, with l0, f
    and den as in deformed_eigencheck and g level n-1 at lambda+delta; the
    zero polynomial iff the relation holds."""
    _check_type(p, CType.TYPE_II)
    if n < 0:
        raise ValueError("need n >= 0")
    den, _ = deformed_measure(d, p)
    l0, f = level_poly_y(d, 0, p), level_poly_y(d, n, p)
    g = multi_indexed_poly_y(d, n - 1, p.shift(delta=1))
    b0 = potential_b(p.shift(tilde=d.size)).eval_int(0)
    lhs = (l0.shift(1) * f - l0 * f.shift(1)).scale(b0)
    rhs = (LaurentPoly.var(p.q) * den * g).scale(energy(n, p))
    return lhs - rhs


def deformed_backward_check(d: IndexSet, n: int, p: ParamsLike) -> LaurentPoly:
    """Backward-shift residual: level n-1 at lambda+delta maps back to level n
    at lambda.  Returns B(x; lambda + M tilde) den(x-1) y g - D(x) den (y g)(x-1)
    - B(0; lambda + M tilde) l0 f, with l0, f, den and g as in
    deformed_forward_check; the zero polynomial iff the relation holds (n >= 1)."""
    _check_type(p, CType.TYPE_II)
    if n < 1:
        raise ValueError("need n >= 1")
    den, _ = deformed_measure(d, p)
    yg = LaurentPoly.var(p.q) * multi_indexed_poly_y(d, n - 1, p.shift(delta=1))
    bshift = potential_b(p.shift(tilde=d.size))
    lhs = bshift * den.shift(-1) * yg - potential_d(p) * den * yg.shift(-1)
    rhs = (level_poly_y(d, 0, p) * level_poly_y(d, n, p)).scale(bshift.eval_int(0))
    return lhs - rhs


def infinity_values(d: IndexSet, n: int, p: ParamsLike) -> tuple[Fraction, Fraction]:
    """Closed-form limits at x = infinity of the denominator and level-n
    polynomials (products over the index set)."""
    _check_type(p, CType.TYPE_II)
    xi_inf, energies = _infinity_factors(d, p)
    e = energy(n, p)
    p_extra = prod(((e - ed) / e0 for ed, e0 in energies), start=Fraction(1))
    return xi_inf, xi_inf * p_extra * eigen_at_infinity(n, p)


@lru_cache(maxsize=256)
def _infinity_factors(d: IndexSet, p: ParamsLike) -> tuple[Fraction, tuple]:
    """The n-free parts of infinity_values: the denominator's limit and the
    pairs (virtual_energy(d_j), -virtual_energy(j - 1))."""
    pairs = list(enumerate(d.indices))
    return (prod((xi_at_infinity(dj, p) / xi_at_infinity(j, p) for j, dj in pairs),
                 start=Fraction(1)),
            tuple((virtual_energy(dj, p), -virtual_energy(j, p)) for j, dj in pairs))


@lru_cache(maxsize=256)
def denominator_leading(d: IndexSet, p: ParamsLike) -> Fraction:
    """Closed-form leading eta-coefficient of the denominator polynomial."""
    _check_type(p, CType.TYPE_II)
    q = p.q
    out = Fraction(1)
    for j, dj in enumerate(d.indices, start=1):
        den = xi_leading(j - 1, p)
        if den == 0:  # at b = a q^m
            raise InvalidParamsError("degenerate leading-coefficient product")
        out *= xi_leading(dj, p) / den
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
    _check_type(p, CType.TYPE_II)
    q = p.q
    out = denominator_leading(d, p) * eigen_leading(n, p) * q ** (-n * d.size)
    if p.family == Family.LQ_JACOBI:
        b = p.b
        for j, dj in enumerate(d.indices, start=1):
            out *= (1 - b * q ** (n - dj - 1)) / (1 - b * q ** (-j))
    return out


def typeII_single_op(dd: int, p: ParamsLike) -> dict[int, LaurentPoly]:
    """Single-index type II closed form of level_op at D = {dd}, bypassing the
    determinant engine: f -> q^{-x} [(1 - b q^{x-1}) xi_d(x-1) f
    - (1 - q^x) xi_d(x) f(x-1)] / (1 - b q^{-1})."""
    q, b, xi = p.q, p.b, virtual_poly_y(dd, p)
    c = LaurentPoly.monomial(q, -1, 1 / (1 - b / q))
    return {0: c * LaurentPoly(q, {0: 1, 1: -b / q}) * xi.shift(-1),
            -1: -(c * LaurentPoly(q, {0: 1, 1: -1}) * xi)}


# ---------------------------------------------------------------------------
# type I construction (raw Casoratian engine + normalized single-index forms)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def typeI_eigen_numerator(d: IndexSet, n: int, p: ParamsLike) -> LaurentPoly:
    """Bordered forward Casoratian with the ground-state ratio factored out.

    Row j carries the virtual-state polynomials at x+j-1 and, in the last
    column, the constant ratio quotient (a/q)^{j-1} times the level-n
    eigenpolynomial at x+j-1.  This is the type I eigenvector numerator up to
    positive prefactors; no normalization is applied.
    """
    _check_type(p, CType.TYPE_I)
    return _casoratian(d, p, n)


def typeI_single_op(dd: int, p: ParamsLike) -> dict[int, LaurentPoly]:
    """Single-index type I closed form of level_op at D = {dd}, bypassing
    the determinant engine: f -> a q^{-1} xi_d(x) f(x+1) - xi_d(x+1) f."""
    _check_type(p, CType.TYPE_I)
    xi = virtual_poly_y(dd, p)
    return {0: -xi.shift(1), 1: xi.scale(p.a / p.q)}


def typeI_single_poly(dd: int, n: int, p: ParamsLike) -> LaurentPoly:
    """Normalized single-index type I polynomial from its closed form.

    (1-b) q^n / ((1 - a q^{n-d-1})(1 - b q^{n+d})) *
    [xi_d(x+1) P_n(x) - a q^{-1} xi_d(x) P_n(x+1)] (-typeI_single_op).
    Takes an unvalidated type I record, so it can also be evaluated at
    shifted points and at formally inverted q for the reflection identity.
    """
    op, pn = typeI_single_op(dd, p), eigenpoly_y(n, p)
    q, a, b = p.q, p.a, p.b
    den = (1 - a * q ** (n - dd - 1)) * (1 - b * q ** (n + dd))
    if den == 0:
        raise InvalidParamsError("degenerate normalization in closed form")
    return op_apply(op, pn).scale(-(1 - b) * q ** n / den)


# ---------------------------------------------------------------------------
# the deformed system of either construction type
# ---------------------------------------------------------------------------


def level_poly_y(d: IndexSet, n: int, p: ParamsLike) -> LaurentPoly:
    """The level-n polynomial in y for either construction type: the
    normalized multi-indexed polynomial for type II, the raw bordered
    numerator for type I."""
    if p.ctype == CType.TYPE_II:
        return multi_indexed_poly_y(d, n, p)
    return typeI_eigen_numerator(d, n, p)


def level_poly(d: IndexSet, n: int, p: ParamsLike) -> EtaPoly:
    """The level-n polynomial in eta for either construction type.

    For type I the monomial unit y^s of the raw numerator is stripped, since
    the roots of y^s sit at the basis point eta = 1 and are not zeros of the
    eigenvector.
    """
    out = level_poly_y(d, n, p)
    if p.ctype == CType.TYPE_I and not out.is_zero and out.min_deg > 0:
        out = out.divide_exact(LaurentPoly.monomial(p.q, out.min_deg))
    return out.to_eta()


def deformed_measure(d: IndexSet, p: ParamsLike) -> tuple[LaurentPoly, Fraction]:
    """(den, c) of the deformed orthogonality weight
    c groundstate_sq(x; lambda + M tilde) / (den(x) den(x-1)).

    den is the denominator polynomial for type II and the forward Casoratian
    at x + 1 for type I.  c is 1 for type II and q^{-C(M,2)} (b;q)_M for
    type I (b = 0 for little q-Laguerre), from the exact identity
    groundstate_sq(x; lambda) prod_{j=1..M} B'(x+j-1) = c groundstate_sq(x;
    lambda + M tilde).
    """
    if p.ctype == CType.TYPE_II:
        return denominator_poly_y(d, p), Fraction(1)
    m = d.size
    return xi_casoratian(d, p).shift(1), p.q ** -qbinom2(m) * qpoch(p.b, p.q, m)


class DeformedPotentials(NamedTuple):
    """Deformed hopping potentials as exact numerator/denominator pairs."""

    b_num: LaurentPoly
    b_den: LaurentPoly
    d_num: LaurentPoly
    d_den: LaurentPoly

    def b_value(self, x: int) -> Fraction:
        return _quotient_at(self.b_num, self.b_den, x)

    def d_value(self, x: int) -> Fraction:
        return _quotient_at(self.d_num, self.d_den, x)


def _quotient_at(num: LaurentPoly, den: LaurentPoly, x: int) -> Fraction:
    dx = den.eval_int(x)
    if dx == 0:
        raise DenominatorZeroAtIntegerError("denominator zero at x=%d" % x)
    return num.eval_int(x) / dx


@lru_cache(maxsize=256)
def deformed_potentials(d: IndexSet, p: ParamsLike) -> DeformedPotentials:
    """Deformed potentials of either construction type, from den of
    deformed_measure and the level-0 polynomial l0:

    B_D(x) = B(x; lambda + M tilde) den(x-1) l0(x+1) / (den(x) l0(x)),
    D_D(x) = D(x) den(x) l0(x-1) / (den(x-1) l0(x)).

    Positive on the lattice, with the down term vanishing at x = 0.
    """
    den, _ = deformed_measure(d, p)
    l0 = level_poly_y(d, 0, p)
    return DeformedPotentials(
        b_num=potential_b(p.shift(tilde=d.size)) * den.shift(-1) * l0.shift(1),
        b_den=den * l0,
        d_num=potential_d(p) * den * l0.shift(-1),
        d_den=den.shift(-1) * l0,
    )


def deformed_eigencheck(d: IndexSet, n: int, p: ParamsLike) -> LaurentPoly:
    """Eigen-equation residual of the deformed system of either construction
    type, denominators cleared.  With den from deformed_measure, l0 the
    level-0 and f the level-n polynomial, it returns

        B(x; lambda + M tilde) den(x-1)^2 [l0(x+1) f - l0 f(x+1)]
      + D(x) den^2 [l0(x-1) f - l0 f(x-1)] - E_n den den(x-1) l0 f,

    identically zero iff the eigen-identity holds.
    """
    den, _ = deformed_measure(d, p)
    l0, f, den1 = level_poly_y(d, 0, p), level_poly_y(d, n, p), den.shift(-1)
    term1 = potential_b(p.shift(tilde=d.size)) * (den1 * den1) * (l0.shift(1) * f - l0 * f.shift(1))
    term2 = potential_d(p) * (den * den) * (l0.shift(-1) * f - l0 * f.shift(-1))
    rhs = (den * den1 * l0 * f).scale(energy(n, p))
    return term1 + term2 - rhs


def deformed_norm_sq(d: IndexSet, n: int, p: ParamsLike) -> Fraction:
    """Extra squared-norm factor of level n of the deformation; strictly
    positive.  The factor (b q^{-M}; q)_M belongs to the normalization of the
    type II little q-Jacobi polynomials only."""
    out, e = Fraction(1), energy(n, p)
    for dj in d.indices:
        out /= e - virtual_energy(dj, p)
    if p.family == Family.LQ_JACOBI and p.ctype == CType.TYPE_II:
        out *= qpoch(p.b * p.q ** (-d.size), p.q, d.size)
    return out


# ---------------------------------------------------------------------------
# the deformed identities for every n, as difference operators
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def level_op(d: IndexSet, p: ParamsLike) -> Mapping[int, LaurentPoly]:
    """The operator A with level_poly_y(d, n, p) = A[P_n] for every n, read-only.

    Row j of the bordered Casoratian is that of _border plus the border
    nu_ratio_poly(j + 1, M, p) P_n(x + s j), so expanding along the border
    puts the weighted cofactor nu_ratio_poly(j + 1, M, p) cofactor_j at
    T^(s j); for type II each is also over the gauge monomial of size M + 1
    and cdn = (-1)^M q^C(M+1,2) denominator_norm_const.  The identity for
    empty D, which reads no virtual state.  All-zero cofactors are degenerate,
    decided before cdn, which is singular at such points.
    """
    if d.size == 0:
        return MappingProxyType({0: LaurentPoly.one(p.q)})
    m, s = d.size, -1 if p.ctype == CType.TYPE_II else 1
    cs = [nu_ratio_poly(j + 1, m, p) * c for j, c in enumerate(_border(d, p))]
    if all(c.is_zero for c in cs):
        raise DegenerateCasoratianError("bordered Casoratian is identically zero")
    if p.ctype == CType.TYPE_II:  # over the gauge monomial g y^e and cdn
        cdn = (-1) ** m * p.q ** qbinom2(m + 1) * denominator_norm_const(d, p)
        gauge = casoratian_gauge(m + 1, p.q)
        z = 1 / (cdn * gauge.coeff(gauge.val))
        cs = [c._new(c.val - gauge.val, [a * z.numerator for a in c.num], c.den * z.denominator)
              for c in cs]
    return MappingProxyType({s * j: c for j, c in enumerate(cs)})


@lru_cache(maxsize=256)
def _level_image(d: IndexSet, p: ParamsLike, k: int) -> tuple[int, tuple[int, ...], int]:
    """A[y^k] = y^k sum_j c_j q^(j k) for A = level_op(d, p) = {j: c_j}, as
    the unnormalized triple (val, num, den).  Zero cofactors are dropped, and
    with q = r/t each q^(j k) is r^((j - lo) k) t^((hi - j) k) / (r^(-lo k)
    t^(hi k)) for lo <= 0 <= hi bounding the keys: no exponent is negative,
    which would give a float."""
    a = {j: c for j, c in level_op(d, p).items() if c.num}
    lo, hi = min([0, *a]), max([0, *a])
    r, t = p.q.numerator, p.q.denominator
    val, num, den = _lincomb([(r ** ((j - lo) * k) * t ** ((hi - j) * k), c.val + k, c.num, c.den)
                              for j, c in a.items()])
    return val, tuple(num), den * r ** (-lo * k) * t ** (hi * k)


def deformed_identities(d: IndexSet, p: ParamsLike) -> dict[str, dict[int, LaurentPoly]]:
    """Residual operators of the deformed eigen equation ("eigen") and, for
    type II, the shift relations ("forward", "backward"); each is zero iff
    its relation holds at every n.  Proof: level n is A[P_n], A = level_op,
    and H P_n = E_n P_n, F P_n = E_n P'_(n-1), Bk P'_(n-1) = P_n for every n,
    with H, F and Bk the operator values hamiltonian_op, forward_shift_op and
    backward_shift_op at lambda, the ones the base rows check (' marks
    lambda + delta).  So the residuals of deformed_eigencheck and the shift
    checks are R[P_n] or R[P'_(n-1)], with R free of n:
      eigen     L o A - K o A o H, L = B' den(x-1)^2 (l0(x+1) - l0 T)
                + D den^2 (l0(x-1) - l0 T^-1), K = den den(x-1) l0;
      forward   b0 (l0(x+1) - l0 T) o A - y den o A' o F;
      backward  (B' den(x-1) y - D den (y/q) T^-1) o A' - b0 l0 o A o Bk,
    B' = B(x; lambda + M tilde), b0 = B'(0), a function g standing for the
    operator {0: g}.  R maps y^m to sum_k r_k q^(km) y^m, the q^k are
    distinct and the P_n span the polynomials: R vanishes at every n iff
    every r_k is zero."""
    den, _ = deformed_measure(d, p)
    l0, a, dd = level_poly_y(d, 0, p), level_op(d, p), potential_d(p)
    bu, den1 = potential_b(p.shift(tilde=d.size)), den.shift(-1)
    u, v = bu * (den1 * den1), dd * (den * den)
    lop = {0: u * l0.shift(1) + v * l0.shift(-1), 1: -(u * l0), -1: -(v * l0)}
    out = {"eigen": op_add(op_compose(lop, a),
                           op_compose({0: -(den * den1 * l0)}, a, hamiltonian_op(p)))}
    if p.ctype == CType.TYPE_I:
        return out
    a1, b0, y = level_op(d, p.shift(delta=1)), bu.eval_int(0), LaurentPoly.var(p.q)
    yden, l0b = -(y * den), l0.scale(-b0)
    out["forward"] = op_add(op_compose({0: l0.shift(1).scale(b0), 1: l0b}, a),
                            op_compose({0: yden}, a1, forward_shift_op(p)))
    out["backward"] = op_add(op_compose({0: bu * den1 * y, -1: (yden * dd).scale(1 / p.q)}, a1),
                             op_compose({0: l0b}, a, backward_shift_op(p)))
    return out
