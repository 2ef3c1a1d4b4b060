import math
import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import closed_forms
from caches import clear_littleq_caches
from littleq import darboux
from littleq import (
    CType,
    DegenerateCasoratianError,
    Family,
    IndexSet,
    InvalidParamsError,
    LaurentPoly,
    NonExactDivisionError,
    Params,
    RawParams,
    casoratian_gauge,
    deformed_backward_check,
    deformed_eigencheck,
    deformed_forward_check,
    deformed_measure,
    deformed_norm_sq,
    deformed_potentials,
    denominator_leading,
    denominator_poly,
    denominator_poly_y,
    det_laurent,
    eigenpoly_y,
    groundstate_sq,
    infinity_values,
    lowest_matches_denominator,
    multi_indexed_leading,
    multi_indexed_poly,
    multi_indexed_poly_y,
    potential_b,
    potential_d,
    tilde_delta,
    typeI_eigen_numerator,
    op_apply,
    typeI_single_op,
    typeI_single_poly,
    typeII_single_op,
    virtual_data,
    virtual_poly_y,
    xi_casoratian,
)
from littleq.cli import EXIT_INTERNAL, main
from littleq.verify import _random_valid_params, _same_op
from littleq.exact import LittleQError, qpoch
from littleq.virtual import nu_ratio_poly, virtual_energy

Q, A, B = F(1, 2), F(1, 3), F(1, 16)

# b values stay below q^(1+d_M) and avoid both the q^j normalization poles
# and the a q^m degree degeneracies of the virtual-state polynomials
BATTERY = [
    (IndexSet.of(1), F(1, 16)),
    (IndexSet.of(2), F(1, 16)),
    (IndexSet.of(1, 2), F(1, 16)),
    (IndexSet.of(2, 4), F(1, 128)),
    (IndexSet.of(1, 3, 5), F(1, 256)),
]


def jac(b, dmax):
    return Params(Family.LQ_JACOBI, Q, A, b, CType.TYPE_II, dmax=dmax)


def lag(dmax):
    return Params(Family.LQ_LAGUERRE, Q, A, 0, CType.TYPE_II, dmax=dmax)


def battery_points():
    for d, b in BATTERY:
        dm = max(d.indices)
        yield d, jac(b, dm)
        yield d, lag(dm)


# ---------------------------------------------------------------------------
# index sets
# ---------------------------------------------------------------------------


def test_index_set_validation():
    d = IndexSet.of(1, 3, 5)
    assert d.size == 3 and d.degree_offset == 9 - 3
    with pytest.raises(InvalidParamsError):
        IndexSet.of(3, 1)
    with pytest.raises(InvalidParamsError):
        IndexSet.of(0, 1)
    with pytest.raises(InvalidParamsError):
        IndexSet.of(2, 2)
    raw = IndexSet.raw((4, 2, 0))
    assert raw.size == 3 and raw.degree_offset == 3
    with pytest.raises(InvalidParamsError):
        IndexSet.raw((-1, 2))


def test_empty_index_set():
    d = IndexSet.of()
    assert d.size == 0 and d.degree_offset == 0


def test_index_set_is_an_immutable_value():
    d = IndexSet([F(1), 3.0])
    assert d.indices == (1, 3) and all(type(v) is int for v in d.indices)
    assert (str(d), str(IndexSet.of())) == ("{1,3}", "{}")
    assert d == IndexSet.of(1, 3) == IndexSet(indices=(1, 3), strict=True)
    assert hash(d) == hash(IndexSet.of(1, 3)) and d != IndexSet.raw((1, 3))
    with pytest.raises(AttributeError):
        d.indices = (2,)
    with pytest.raises(AttributeError):
        d.extra = 1
    with pytest.raises(InvalidParamsError, match="^strict index sets must be ascending$"):
        d._replace(indices=(3, 1))  # _replace validates as the constructor does
    for ds, strict, message in (((0, 1), True, "strict index sets need d_j >= 1"),
                                ((2, 2), False, "repeated virtual-state index"),
                                ((-1, 2), False, "virtual-state indices must be >= 0")):
        with pytest.raises(InvalidParamsError) as info:
            IndexSet(ds, strict)
        assert str(info.value) == message


# ---------------------------------------------------------------------------
# Casoratians
# ---------------------------------------------------------------------------


def casoratian_minus(fs, q):
    """Backward Casoratian oracle: det of f_k(x - j + 1) over rows j, columns k."""
    return det_laurent([[f.shift(-j) for f in fs] for j in range(len(fs))], q=q)


def casoratian_plus(fs, q):
    """Forward Casoratian oracle: det of f_k(x + j - 1) over rows j, columns k."""
    return det_laurent([[f.shift(j) for f in fs] for j in range(len(fs))], q=q)


def test_casoratian_conventions():
    assert casoratian_minus([], Q) == LaurentPoly.one(Q)
    f = LaurentPoly(Q, {0: 2, 1: -3})
    assert casoratian_minus([f], Q) == f
    assert casoratian_plus([f], Q) == f


def test_casoratian_minus_plus_relation():
    rng = random.Random(11)
    for n in (2, 3):
        fs = [
            LaurentPoly(Q, {i: F(rng.randint(-5, 5)) for i in range(3)})
            for _ in range(n)
        ]
        wm = casoratian_minus(fs, Q)
        wp = casoratian_plus(fs, Q)
        sign = (-1) ** (n * (n - 1) // 2)
        assert wm == wp.shift(-(n - 1)).scale(sign)


def test_casoratian_repeated_function_vanishes(pj):
    from littleq import virtual_poly_y

    xi = virtual_poly_y(2, pj)
    assert casoratian_minus([xi, xi], Q).is_zero


# ---------------------------------------------------------------------------
# denominator polynomials
# ---------------------------------------------------------------------------


def test_denominator_empty_set(pj):
    assert denominator_poly(IndexSet.of(), pj).coeffs == (F(1),)


def test_denominator_single_index_is_virtual_poly(pj):
    from littleq import virtual_poly_y

    assert denominator_poly_y(IndexSet.of(2), pj) == virtual_poly_y(2, pj)
    assert denominator_poly(IndexSet.of(2), pj).eval_int(-1) == 1


def test_denominator_leading_refuses_a_vanishing_xi_leading():
    # b = a q^2 makes xi_leading(1) vanish, the divisor of the j = 2 factor
    p = Params(Family.LQ_JACOBI, F(1, 2), F(1, 8), F(1, 32), CType.TYPE_II, dmax=2)
    with pytest.raises(InvalidParamsError, match="degenerate leading-coefficient"):
        denominator_leading(IndexSet.of(1, 2), p)


def test_denominator_degree_norm_leading_infinity():
    for d, p in battery_points():
        xi = denominator_poly(d, p)
        assert xi.degree == d.degree_offset
        assert xi.eval_int(-1) == 1
        assert xi.leading == denominator_leading(d, p)
        xinf, _ = infinity_values(d, 0, p)
        assert denominator_poly_y(d, p).at_infinity() == xinf


def test_denominator_positive_on_window():
    for d, p in battery_points():
        xi = denominator_poly_y(d, p)
        assert all(xi.eval_int(x) > 0 for x in range(-1, 61))


def test_xi_casoratian_shift_direction(pj, pl, pji, pli):
    # one engine: backward Casoratian for type II, forward for type I
    for p in (pj, pl, pji, pli):
        for d in (IndexSet.of(1), IndexSet.of(2), IndexSet.of(1, 2)):
            fs = [virtual_poly_y(v, p) for v in d.indices]
            ref = casoratian_minus if p.ctype == CType.TYPE_II else casoratian_plus
            assert xi_casoratian(d, p) == ref(fs, p.q)


def test_casoratian_definite_sign():
    for d, p in battery_points():
        w = xi_casoratian(d, p)
        vals = [w.eval_int(x) for x in range(-1, 61)]
        assert all(v != 0 for v in vals)
        assert len({v > 0 for v in vals}) == 1


# ---------------------------------------------------------------------------
# multi-indexed polynomials
# ---------------------------------------------------------------------------


def test_empty_set_reduces_to_eigenpoly(pj):
    for n in range(5):
        assert multi_indexed_poly_y(IndexSet.of(), n, pj) == eigenpoly_y(n, pj)


def test_negative_level_is_zero(pj):
    assert multi_indexed_poly_y(IndexSet.of(2), -1, pj).is_zero
    assert multi_indexed_poly(IndexSet.of(2), -2, pj).is_zero


def test_degree_law_and_normalization():
    for d, p in battery_points():
        for n in range(6):
            pn = multi_indexed_poly(d, n, p)
            assert pn.degree == d.degree_offset + n
            assert pn.eval_int(0) == 1
            assert pn.leading == multi_indexed_leading(d, n, p)
            _, pinf = infinity_values(d, n, p)
            assert multi_indexed_poly_y(d, n, p).at_infinity() == pinf


def test_missing_degrees_are_initial_block():
    d = IndexSet.of(1, 3)
    p = jac(F(1, 64), 3)
    degrees = {multi_indexed_poly(d, n, p).degree for n in range(9)}
    off = d.degree_offset
    assert degrees == set(range(off, off + 9))
    # no member of the family has degree 0 .. off-1
    assert degrees.isdisjoint(range(off))


def test_golden_closed_forms_default_point(pj):
    d2 = IndexSet.of(2)
    p0 = multi_indexed_poly(d2, 0, pj)
    p1 = multi_indexed_poly(d2, 1, pj)
    for x in range(0, 9):
        assert p0.eval_int(x) == closed_forms.type2_d2_n0(Q, A, B, x)
        assert p1.eval_int(x) == closed_forms.type2_d2_n1(Q, A, B, x)


def test_golden_closed_forms_random_points():
    rng = random.Random(20240809)
    d2 = IndexSet.of(2)
    for _ in range(10):
        p = _random_valid_params(rng, Family.LQ_JACOBI, CType.TYPE_II, dmax=2)
        p0 = multi_indexed_poly(d2, 0, p)
        p1 = multi_indexed_poly(d2, 1, p)
        for x in range(0, 9):
            assert p0.eval_int(x) == closed_forms.type2_d2_n0(p.q, p.a, p.b, x)
            assert p1.eval_int(x) == closed_forms.type2_d2_n1(p.q, p.a, p.b, x)


def test_single_index_closed_form_all_levels(pj, pl):
    for p in (pj, pl):
        for dd in (1, 2):
            for n in range(5):
                lhs = multi_indexed_poly_y(IndexSet.of(dd), n, p)
                assert (lhs - op_apply(typeII_single_op(dd, p), eigenpoly_y(n, p))).is_zero


def test_lowest_matches_denominator():
    for d, p in battery_points():
        assert lowest_matches_denominator(d, p).is_zero
    assert lowest_matches_denominator(IndexSet.of(), jac(B, 2)).is_zero


TYPE_II_ONLY = {
    "denominator_poly_y": lambda d, p: denominator_poly_y(d, p),
    "multi_indexed_poly_y": lambda d, p: multi_indexed_poly_y(d, 1, p),
    "lowest_matches_denominator": lambda d, p: lowest_matches_denominator(d, p),
    "infinity_values": lambda d, p: infinity_values(d, 1, p),
    "denominator_leading": lambda d, p: denominator_leading(d, p),
    "multi_indexed_leading": lambda d, p: multi_indexed_leading(d, 1, p),
    "deformed_forward_check": lambda d, p: deformed_forward_check(d, 1, p),
    "deformed_backward_check": lambda d, p: deformed_backward_check(d, 1, p),
}
TYPE_I_ONLY = {
    "typeI_eigen_numerator": lambda d, p: typeI_eigen_numerator(d, 1, p),
    "typeI_single_op": lambda d, p: typeI_single_op(d.indices[0], p),
}


@pytest.mark.parametrize("name", TYPE_II_ONLY)
def test_type_ii_functions_refuse_a_type_i_point(name, pji, pli):
    for p in (pji, pli):
        with pytest.raises(InvalidParamsError) as exc:
            TYPE_II_ONLY[name](IndexSet.of(1, 2), p)
        assert str(exc.value) == "this operation is defined for the type II construction"


@pytest.mark.parametrize("name", TYPE_I_ONLY)
def test_type_i_functions_refuse_a_type_ii_point(name, pj, pl):
    for p in (pj, pl):
        with pytest.raises(InvalidParamsError) as exc:
            TYPE_I_ONLY[name](IndexSet.of(1, 2), p)
        assert str(exc.value) == "this operation is defined for the type I construction"


def test_negative_powers_after_the_gauge_division_are_an_internal_breach(pj, capsys):
    # a gauge monomial with an extra y^5 leaves y^-5 .. in every quotient
    gauge = darboux.casoratian_gauge
    d = IndexSet.of(1, 2)
    clear_littleq_caches()
    try:
        with mock.patch.object(darboux, "casoratian_gauge",
                               lambda m, q: gauge(m, q) * LaurentPoly.monomial(q, 5)):
            for build, args in ((denominator_poly_y, (d, pj)), (multi_indexed_poly_y, (d, 1, pj))):
                with pytest.raises(NonExactDivisionError) as exc:
                    build(*args)
                assert str(exc.value) == (
                    "Casoratian not divisible by its gauge monomial (degree defect)")
            clear_littleq_caches()
            assert main(["construct", "--indices", "1,2"]) == EXIT_INTERNAL
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("internal invariant breach: ")
    finally:
        clear_littleq_caches()


# ---------------------------------------------------------------------------
# eigen equations and shape invariance
# ---------------------------------------------------------------------------


def test_eigencheck_battery():
    for d, p in battery_points():
        for n in range(6):
            assert deformed_eigencheck(d, n, p).is_zero, (d, p.family, n)


def test_eigencheck_random_parameters():
    rng = random.Random(7)
    d = IndexSet.of(1, 2)
    for ctype in (CType.TYPE_II, CType.TYPE_I):
        for family in Family:
            for _ in range(5):
                p = _random_valid_params(rng, family, ctype, dmax=2)
                for n in range(3):
                    assert deformed_eigencheck(d, n, p).is_zero, (ctype, family, n)


def test_forward_backward_battery():
    for d, p in battery_points():
        for n in range(6):
            assert deformed_forward_check(d, n, p).is_zero, (d, n)
            if n >= 1:
                assert deformed_backward_check(d, n, p).is_zero, (d, n)


def test_forward_n0_trivial(pj):
    assert deformed_forward_check(IndexSet.of(2), 0, pj).is_zero


# ---------------------------------------------------------------------------
# potentials and ground state
# ---------------------------------------------------------------------------


def test_potentials_empty_set_reduce_to_base(pj):
    pots = deformed_potentials(IndexSet.of(), pj)
    assert pots.b_num == potential_b(pj) and pots.b_den == LaurentPoly.one(Q)
    assert pots.d_num == potential_d(pj) and pots.d_den == LaurentPoly.one(Q)


def test_potentials_positive_and_boundary():
    for d, p in battery_points():
        pots = deformed_potentials(d, p)
        assert pots.d_value(0) == 0
        assert all(pots.b_value(x) > 0 for x in range(0, 41))
        assert all(pots.d_value(x) > 0 for x in range(1, 41))


def measure_weight(d, p):
    """The deformed weight x -> c gs(x; lambda + M tilde) / (den(x) den(x-1))
    built from deformed_measure."""
    den, c = deformed_measure(d, p)
    pu = p.shift(tilde=d.size)
    return lambda x: c * groundstate_sq(x, pu) / (den.eval_int(x) * den.eval_int(x - 1))


def test_groundstate_product_route(pj):
    d = IndexSet.of(2)
    pots = deformed_potentials(d, pj)
    p0 = multi_indexed_poly(d, 0, pj)
    weight = measure_weight(d, pj)
    acc = F(1)
    for x in range(1, 21):
        acc *= pots.b_value(x - 1) / pots.d_value(x)
        assert weight(x) / weight(0) * p0.eval_int(x) ** 2 == acc


def _separate_potentials(d, p):
    """(b_num, b_den, d_num, d_den) of each construction type by its own
    formula: type I from the forward Casoratian W and the level-0 numerator
    Q_0, type II from the denominator polynomial at lambda and lambda + delta."""
    m = d.size
    if p.ctype == CType.TYPE_I:
        vd = virtual_data(p)
        w = xi_casoratian(d, p)
        q0 = typeI_eigen_numerator(d, 0, p)
        return (
            vd.bprime_new.shift(m) * w * q0.shift(1).scale(p.a / p.q),
            w.shift(1) * q0,
            vd.dprime_new * w.shift(1) * q0.shift(-1).scale(p.q / p.a),
            w * q0,
        )
    xi0 = denominator_poly_y(d, p)
    xi1 = denominator_poly_y(d, p.shift(delta=1))
    return (
        potential_b(p.shift(tilde=m)) * xi0.shift(-1) * xi1,
        xi0 * xi1.shift(-1),
        potential_d(p) * xi0 * xi1.shift(-2),
        xi0.shift(-1) * xi1.shift(-1),
    )


@st.composite
def deformed_points(draw, ctypes=tuple(CType)):
    """A random valid point of either family with an index set, |D| <= 3."""
    family, ctype = draw(st.sampled_from(Family)), draw(st.sampled_from(ctypes))
    d = IndexSet(tuple(sorted(draw(st.sets(st.integers(1, 4), max_size=3)))))
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    return d, _random_valid_params(rng, family, ctype, max(d.indices, default=0))


def bordered_casoratian(d, p, n):
    """Level-n oracle: the (M + 1) x (M + 1) bordered Casoratian as one
    determinant, row j the virtual-state polynomials at x + s j and the
    border nu_ratio_poly(j + 1, M, p) P_n(x + s j)."""
    s = -1 if p.ctype == CType.TYPE_II else 1
    fs = [virtual_poly_y(v, p) for v in d.indices]
    pn = eigenpoly_y(n, p)
    return det_laurent([
        [f.shift(s * j) for f in fs] + [nu_ratio_poly(j + 1, d.size, p) * pn.shift(s * j)]
        for j in range(d.size + 1)
    ])


@given(deformed_points(), st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_border_expansion_matches_bordered_determinant(point, n):
    # level n is the bordered determinant, for type II over the gauge
    # monomial and cdn = (-1)^M q^C(M+1,2) denominator_norm_const
    d, p = point
    want = bordered_casoratian(d, p, n)
    if want.is_zero:
        with pytest.raises(DegenerateCasoratianError):
            darboux.level_poly_y(d, n, p)
        return
    if p.ctype == CType.TYPE_II:
        m = d.size
        cdn = (-1) ** m * p.q ** (m * (m + 1) // 2) * darboux.denominator_norm_const(d, p)
        want = want.divide_exact(casoratian_gauge(m + 1, p.q)).scale(1 / cdn)
    assert darboux.level_poly_y(d, n, p) == want


def border_by_determinants(d, p):
    """_border oracle: each of the M + 1 minors of the (M + 1) x M
    Casoratian as its own determinant, cofactor j signed by (-1)^(M-j)."""
    m, s = d.size, -1 if p.ctype == CType.TYPE_II else 1
    fs = [darboux.virtual_poly_y(v, p) for v in d.indices]
    rows = [[f.shift(s * j) for f in fs] for j in range(m + 1)]
    minors = [det_laurent(rows[:j] + rows[j + 1:], q=p.q) for j in range(m + 1)]
    return tuple((-1) ** (m - j) * c for j, c in enumerate(minors))


def _assert_border_matches_determinants(d, p, powers):
    """Compare at p, with virtual-state polynomial v multiplied by
    y^powers[v], so that the valuations differ and may be negative."""
    virtual = darboux.virtual_poly_y

    def shifted(v, p):
        return LaurentPoly.monomial(p.q, powers[v]) * virtual(v, p)

    with mock.patch.object(darboux, "virtual_poly_y", shifted):
        assert darboux._border.__wrapped__(d, p) == border_by_determinants(d, p)


@given(st.sampled_from(Family), st.sampled_from(CType),
       st.one_of(st.sampled_from([(0, 2), (3, 1), (4, 0, 2, 1)]),
                 st.lists(st.integers(0, 4), unique=True, max_size=4).map(tuple)),
       st.integers(0, 10 ** 6), st.lists(st.integers(-1, 2), min_size=5, max_size=5))
@example(Family.LQ_JACOBI, CType.TYPE_II, (0, 2), 1, [0] * 5)
@example(Family.LQ_LAGUERRE, CType.TYPE_I, (3, 1), 2, [0] * 5)
@example(Family.LQ_JACOBI, CType.TYPE_I, (4, 0, 2, 1), 3, [0, 1, -1, 2, 0])
@settings(max_examples=40, deadline=None)
def test_border_matches_determinants(family, ctype, indices, seed, powers):
    strict = 0 not in indices and list(indices) == sorted(indices)
    d = IndexSet(indices, strict=strict)
    p = _random_valid_params(random.Random(seed), family, ctype, max(indices, default=0))
    _assert_border_matches_determinants(d, p, powers)


def test_border_matches_determinants_at_dmax_9():
    p = _random_valid_params(random.Random(9), Family.LQ_JACOBI, CType.TYPE_II, 9)
    _assert_border_matches_determinants(IndexSet.of(3, 5, 7, 9), p, [0] * 10)


DEEP_ARGV = ["--family", "lqJacobi", "--type", "2", "--q", "1/2", "--a", "1/3",
             "--b", "1/4096", "--indices", "1,3,5,7", "--nmax", "8"]


def _border_builds(capsys, argv):
    """How many (D, p) border sets one command builds with cold caches."""
    clear_littleq_caches()
    assert main(argv) == 0
    capsys.readouterr()
    return darboux._border.cache_info().misses


def test_levels_share_one_set_of_minors(capsys):
    # construct at D={1,3,5,7}, nmax=8: the denominator and nine levels all
    # come from the one border set of (D, p)
    assert _border_builds(capsys, ["construct"] + DEEP_ARGV) == 1


@pytest.mark.parametrize("command", ["table", "zeros"])
def test_table_and_zeros_share_the_same_minors(command, capsys):
    assert _border_builds(capsys, [command] + DEEP_ARGV) == 1


def test_verify_builds_at_most_11_border_sets(capsys):
    assert _border_builds(capsys, ["verify"] + DEEP_ARGV) <= 11


# ---------------------------------------------------------------------------
# the same relations for every n, as operator identities
# ---------------------------------------------------------------------------

DEEP_D = IndexSet.of(1, 3, 5, 7)
DEEP_P = Params(Family.LQ_JACOBI, Q, A, F(1, 4096), CType.TYPE_II, dmax=7)
TYPE1_D = IndexSet.of(2, 3, 4)
TYPE1_P = Params(Family.LQ_JACOBI, Q, F(1, 64), F(1, 3), CType.TYPE_I, dmax=4)


def _holds(op):
    return all(c.is_zero for c in op.values())


def _verdicts(d, p):
    clear_littleq_caches()
    try:
        return {key: _holds(op) for key, op in darboux.deformed_identities(d, p).items()}
    finally:
        clear_littleq_caches()


def _per_level_verdicts(d, p, nmax):
    out = {"eigen": all(deformed_eigencheck(d, n, p).is_zero for n in range(nmax + 1))}
    if p.ctype == CType.TYPE_II:
        out["forward"] = all(deformed_forward_check(d, n, p).is_zero for n in range(nmax + 1))
        out["backward"] = all(deformed_backward_check(d, n, p).is_zero
                              for n in range(1, nmax + 1))
    return out


@given(deformed_points())
@settings(max_examples=40, deadline=None)
def test_operator_verdicts_match_per_level_verdicts(point):
    d, p = point
    a = darboux.level_op(d, p)
    for n in range(7):  # A[P_n] is level n
        pn = eigenpoly_y(n, p)
        assert sum((c * pn.shift(k) for k, c in a.items()), LaurentPoly.zero(p.q)) \
            == darboux.level_poly_y(d, n, p)
    got = {key: _holds(op) for key, op in darboux.deformed_identities(d, p).items()}
    assert got == _per_level_verdicts(d, p, 6)
    assert all(got.values())


@pytest.mark.parametrize("p", [
    Params(Family.LQ_JACOBI, Q, A, 0, CType.TYPE_II),  # b = 0: out of the virtual range
    Params(Family.LQ_LAGUERRE, Q, A, 0, CType.TYPE_II),
    Params(Family.LQ_JACOBI, Q, F(2, 3), B, CType.TYPE_I),
    Params(Family.LQ_LAGUERRE, Q, F(1, 10), 0, CType.TYPE_I),
])
def test_operator_identities_at_the_empty_set(p):
    # no virtual state is read: A is the identity, and the identities are
    # the base relations themselves
    def unused(*args):
        raise AssertionError("the empty set reads no virtual state")

    d = IndexSet.of()
    clear_littleq_caches()
    with mock.patch.object(darboux, "virtual_poly_y", unused), \
            mock.patch.object(darboux, "nu_ratio_poly", unused):
        assert darboux.level_op(d, p) == {0: 1}
        ops = darboux.deformed_identities(d, p)
    assert sorted(ops) == (["eigen"] if p.ctype == CType.TYPE_I
                           else ["backward", "eigen", "forward"])
    assert all(_holds(op) for op in ops.values())


IMAGE_SETS = [IndexSet.of(), IndexSet.of(1), IndexSet.of(2), IndexSet.of(1, 2),
              IndexSet.of(2, 3, 4)]


def _assert_level_matches_operator(d, p, n):
    """Level n from the cached images of level_op equals level_op applied to
    P_n, op_apply's route, or both routes raise the same error."""
    try:
        want = op_apply(darboux.level_op(d, p), eigenpoly_y(n, p))
    except (LittleQError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)):
            darboux._casoratian(d, p, n)
        return
    if want.is_zero:
        with pytest.raises(DegenerateCasoratianError):
            darboux._casoratian(d, p, n)
    else:
        assert darboux._casoratian(d, p, n) == want


@given(st.sampled_from(Family), st.sampled_from(CType), st.sampled_from(IMAGE_SETS),
       st.integers(0, 10 ** 6), st.integers(0, 8),
       st.sampled_from([{}, {"delta": 1}, {"tilde": 1}, {"tilde": -1}]))
@settings(max_examples=60, deadline=None)
def test_levels_from_images_equal_the_operator_route(family, ctype, d, seed, n, shift):
    # valid points and the shifted RawParams points the structural rows build
    p = _random_valid_params(random.Random(seed), family, ctype, max(d.indices, default=0))
    _assert_level_matches_operator(d, p.shift(**shift) if shift else p, n)


@pytest.mark.parametrize("d, p, move", [
    (TYPE1_D, TYPE1_P, 1),  # keys 0..3 moved to 1..4: the smallest key is positive
    (DEEP_D, DEEP_P, -1),  # keys -4..0 moved to -5..-1: the largest key is negative
])
def test_levels_from_images_keep_integer_weights_for_any_keys(d, p, move):
    level_op = darboux.level_op

    def moved(dd, pp):
        return {k + move: c for k, c in level_op(dd, pp).items()}

    clear_littleq_caches()
    try:
        with mock.patch.object(darboux, "level_op", moved):
            for n in range(9):
                _assert_level_matches_operator(d, p, n)
                assert darboux._casoratian(d, p, n).den > 0  # an int, not a float
    finally:
        clear_littleq_caches()


def nu_ratio_by_fractions(j, m, p):
    """nu_ratio_poly oracle: the product of the factors 1 - z y as Fraction
    polynomials, over (b q^-m; q)_m for little q-Jacobi."""
    q = p.q
    if p.ctype == CType.TYPE_I:
        return LaurentPoly.const(q, (p.a / q) ** (j - 1))
    out = LaurentPoly.one(q)
    for i in range(j - 1):
        out *= LaurentPoly(q, {0: 1, 1: -(q ** (2 - j + i))})
    if p.family == Family.LQ_JACOBI:
        for i in range(m - j + 1):
            out *= LaurentPoly(q, {0: 1, 1: -p.b * q ** (i - m)})
        out = out.scale(1 / qpoch(p.b * q ** (-m), q, m))
    return out


def norm_const_by_fractions(d, p):
    """denominator_norm_const oracle: one Fraction step per pair j < k."""
    m = d.size
    out = 1 / casoratian_gauge(m, p.q).eval_int(-1)
    for j in range(1, m + 1):
        dpj = virtual_data(p).dprime_new.eval_int(-j)
        for k in range(j + 1, m + 1):
            out *= (virtual_energy(d.indices[j - 1], p) - virtual_energy(d.indices[k - 1], p)) / dpj
    return out


@given(st.sampled_from(Family), st.sampled_from(CType), st.sampled_from(IMAGE_SETS),
       st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_level_op_inputs_match_their_fraction_formulas(family, ctype, d, seed):
    p = _random_valid_params(random.Random(seed), family, ctype, max(d.indices, default=0))
    m = d.size
    for j in range(1, m + 2):
        assert nu_ratio_poly(j, m, p) == nu_ratio_by_fractions(j, m, p)
    assert darboux.denominator_norm_const(d, p) == norm_const_by_fractions(d, p)


def _patched_cofactors(at, change):
    """level_op with change applied to its {k: c_k} at the point at."""
    level_op = darboux.level_op

    def patched(d, p):
        a = level_op(d, p)
        return change(dict(a)) if p == at else a

    return mock.patch.object(darboux, "level_op", patched)


def test_corruption_above_nmax_fails_only_the_operator_identities():
    # add eps y^2 (1 - (1 + q^-s) T^s + q^-s T^2s) to A (s = -1): it kills
    # 1 and y, so levels 0 and 1 keep their values and level 2 moves
    q, eps = DEEP_P.q, F(1, 10 ** 6)
    bump = {-j: LaurentPoly.monomial(q, 2, eps * c) for j, c in enumerate((1, -(1 + q), q))}

    def change(a):
        return {k: c + bump[k] if k in bump else c for k, c in a.items()}

    clear_littleq_caches()
    try:
        want = [multi_indexed_poly_y(DEEP_D, n, DEEP_P) for n in range(3)]
        clear_littleq_caches()
        with _patched_cofactors(DEEP_P, change):
            got = [multi_indexed_poly_y(DEEP_D, n, DEEP_P) for n in range(3)]
            assert got[:2] == want[:2] and got[2] != want[2]
            assert all(_per_level_verdicts(DEEP_D, DEEP_P, 1).values())
            assert not any(_per_level_verdicts(DEEP_D, DEEP_P, 2).values())
            assert not any(_verdicts(DEEP_D, DEEP_P).values())
    finally:
        clear_littleq_caches()
    assert all(_verdicts(DEEP_D, DEEP_P).values())


def test_type1_cofactor_scaled_fails_the_eigen_identity():
    assert _verdicts(TYPE1_D, TYPE1_P) == {"eigen": True}
    scaled = F(10 ** 6 + 1, 10 ** 6)
    with _patched_cofactors(TYPE1_P, lambda a: {**a, 1: a[1].scale(scaled)}):
        assert _verdicts(TYPE1_D, TYPE1_P) == {"eigen": False}


def closed_form_level(dd, n, p, scale=1):
    """Level n of the normalized single-index closed form, written out from
    xi_d (times scale) and P_n."""
    q, a, b = p.q, p.a, p.b
    xi, pn = virtual_poly_y(dd, p).scale(scale), eigenpoly_y(n, p)
    if p.ctype == CType.TYPE_I:
        den = (1 - a * q ** (n - dd - 1)) * (1 - b * q ** (n + dd))
        return (xi.shift(1) * pn - (xi * pn.shift(1)).scale(a / q)).scale((1 - b) * q ** n / den)
    inner = (LaurentPoly(q, {0: 1, 1: -b / q}) * xi.shift(-1) * pn
             - LaurentPoly(q, {0: 1, 1: -1}) * xi * pn.shift(-1))
    return (LaurentPoly.monomial(q, -1) * inner).scale(1 / (1 - b / q))


def _proportional(f, g):
    return (f.scale(g.coeff(g.max_deg)) - g.scale(f.coeff(f.max_deg))).is_zero


@st.composite
def single_index_points(draw):
    family, ctype = draw(st.sampled_from(Family)), draw(st.sampled_from(CType))
    dd = draw(st.integers(1, 5))
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    return dd, _random_valid_params(rng, family, ctype, dd)


@given(single_index_points(), st.sampled_from([F(1), F(10 ** 6 + 1, 10 ** 6)]))
@settings(max_examples=40, deadline=None)
def test_single_index_operator_verdict_matches_per_level_verdict(point, scale):
    # the closed-form row compares level_op with the closed-form operator
    # once; per level, for n <= 6, type II levels equal the closed form, and
    # type I raw numerators are proportional to it and it is 1 at x = 0
    dd, p = point
    d = IndexSet.of(dd)
    if p.ctype == CType.TYPE_II:
        closed = typeII_single_op(dd, p)
        per_level = all(multi_indexed_poly_y(d, n, p) == closed_form_level(dd, n, p, scale)
                        for n in range(7))
    else:
        closed = typeI_single_op(dd, p)
        clos = [closed_form_level(dd, n, p, scale) for n in range(7)]
        per_level = all(_proportional(typeI_eigen_numerator(d, n, p), c) and c.eval_int(0) == 1
                        for n, c in enumerate(clos))
    by_op = _same_op(darboux.level_op(d, p), {k: c.scale(scale) for k, c in closed.items()})
    assert by_op == per_level == (scale == 1)


def test_level_op_is_shared_and_read_only():
    a = darboux.level_op(DEEP_D, DEEP_P)
    assert darboux.level_op(DEEP_D, DEEP_P) is a and a == dict(a)
    with pytest.raises(TypeError):
        a[0] = LaurentPoly.zero(Q)
    with pytest.raises(TypeError):
        del a[-1]


def test_potential_at_one_tilde_step_too_few_fails_every_identity():
    pu = DEEP_P.shift(tilde=DEEP_D.size)

    def b_one_step_short(p):
        return potential_b(p.shift(tilde=-1) if p == pu else p)

    with mock.patch.object(darboux, "potential_b", b_one_step_short):
        assert not any(_verdicts(DEEP_D, DEEP_P).values())


def test_denominator_of_another_index_set_fails_every_identity():
    measure = darboux.deformed_measure

    def short_den(d, p):
        return measure(IndexSet.of(1, 3, 5), p)

    with mock.patch.object(darboux, "deformed_measure", short_den):
        assert not any(_verdicts(DEEP_D, DEEP_P).values())


def test_level_requests_leave_the_cached_minors_unchanged(pj):
    d = IndexSet.of(1, 2)
    clear_littleq_caches()
    denominator_poly_y(d, pj)
    border = darboux._border(d, pj)
    before = [c.coeff_dict() for c in border]
    for n in range(4):
        multi_indexed_poly_y(d, n, pj)
    assert darboux._border(d, pj) is border
    assert [c.coeff_dict() for c in border] == before


def test_denominator_never_needs_the_border(pj, monkeypatch):
    d = IndexSet.of(1, 2)
    want_xi, want_level = denominator_poly_y(d, pj), multi_indexed_poly_y(d, 2, pj)
    clear_littleq_caches()

    def broken(j, m, p):
        raise InvalidParamsError("border ratio unavailable")

    monkeypatch.setattr(darboux, "nu_ratio_poly", broken)
    assert denominator_poly_y(d, pj) == want_xi
    with pytest.raises(InvalidParamsError):
        multi_indexed_poly_y(d, 2, pj)
    # a failed weighting leaves the cached minors usable
    monkeypatch.undo()
    assert multi_indexed_poly_y(d, 2, pj) == want_level


@given(deformed_points())
@settings(max_examples=30, deadline=None)
def test_one_potentials_formula_matches_each_type(point):
    d, p = point
    try:
        want = _separate_potentials(d, p)
    except DegenerateCasoratianError:  # a coincidence b = a q^m
        with pytest.raises(DegenerateCasoratianError):
            deformed_potentials(d, p)
        return
    pots = deformed_potentials(d, p)
    assert (pots.b_num, pots.b_den, pots.d_num, pots.d_den) == want


@given(deformed_points(ctypes=(CType.TYPE_I,)))
@settings(max_examples=30, deadline=None)
def test_type_i_measure_constant(point):
    # gs(x; lambda) prod_j B'(x+j-1) = c gs(x; lambda + M tilde)
    d, p = point
    _, c = deformed_measure(d, p)
    bp = virtual_data(p).bprime_new
    p_up = p.shift(tilde=d.size)
    for x in range(31):
        lhs = groundstate_sq(x, p) * math.prod(bp.eval_int(x + j) for j in range(d.size))
        assert lhs == c * groundstate_sq(x, p_up), x


@given(deformed_points())
@settings(max_examples=30, deadline=None)
def test_deformed_weight_matches_each_type(point):
    d, p = point
    try:
        weight = measure_weight(d, p)
    except DegenerateCasoratianError:  # a coincidence b = a q^m
        return
    m = d.size
    xs = range(31)
    if p.ctype == CType.TYPE_II:
        # w(x) / w(0) is the squared deformed ground state
        # Xi(0) gs(x; lambda + M tilde) / (Xi(x) Xi(x-1))
        xi = denominator_poly_y(d, p)
        for x in xs:
            psi = xi.eval_int(0) * groundstate_sq(x, p.shift(tilde=m)) / (
                xi.eval_int(x) * xi.eval_int(x - 1))
            assert weight(x) / weight(0) == psi, x
    else:
        # w(x) W(x+1) W(x) = c gs(x; lambda + M tilde) = gs(x) prod_j B'(x+j-1)
        w, bp = xi_casoratian(d, p), virtual_data(p).bprime_new
        for x in xs:
            lhs = weight(x) * w.eval_int(x + 1) * w.eval_int(x)
            assert lhs == groundstate_sq(x, p) * math.prod(
                bp.eval_int(x + j) for j in range(m)), x


def test_psi_empty_set_is_groundstate(pj, pl, pji):
    # with D empty, den is 1 and c is 1 for either type: the weight is gs
    for p in (pj, pl, pj.shift(tilde=2), pji):
        assert deformed_measure(IndexSet.of(), p) == (LaurentPoly.one(p.q), 1)
        weight = measure_weight(IndexSet.of(), p)
        assert [weight(x) for x in range(8)] == [groundstate_sq(x, p) for x in range(8)]


def test_norm_factor_examples(pj):
    assert deformed_norm_sq(IndexSet.of(), 3, pj) == 1
    assert deformed_norm_sq(IndexSet.of(2), 0, pj) == F(21, 11)
    pl1 = Params(Family.LQ_LAGUERRE, Q, A, 0, CType.TYPE_II, dmax=1)
    assert deformed_norm_sq(IndexSet.of(1), 1, pl1) == F(6, 11)
    for d, p in battery_points():
        for n in range(4):
            assert deformed_norm_sq(d, n, p) > 0


# ---------------------------------------------------------------------------
# structural identities
# ---------------------------------------------------------------------------


def test_permutation_invariance():
    p = jac(F(1, 96), 4)
    d = IndexSet.of(2, 4)
    for perm in ((4, 2),):
        dp = IndexSet.raw(perm)
        pa, pb = deformed_potentials(d, p), deformed_potentials(dp, p)
        assert (pa.b_num * pb.b_den - pb.b_num * pa.b_den).is_zero
        assert (pa.d_num * pb.d_den - pb.d_num * pa.d_den).is_zero
        x1, x2 = denominator_poly_y(d, p), denominator_poly_y(dp, p)
        assert (x1 - x2).is_zero or (x1 + x2).is_zero
    p3 = jac(F(1, 192), 5)
    d3 = IndexSet.of(1, 3, 5)
    for perm in ((3, 1, 5), (5, 3, 1)):
        dp = IndexSet.raw(perm)
        pa, pb = deformed_potentials(d3, p3), deformed_potentials(dp, p3)
        assert (pa.b_num * pb.b_den - pb.b_num * pa.b_den).is_zero
        assert (pa.d_num * pb.d_den - pb.d_num * pa.d_den).is_zero


def test_index_zero_reduction():
    for d, b in BATTERY[:3]:
        for fam in Family:
            p = (
                jac(b, max(d.indices))
                if fam == Family.LQ_JACOBI
                else lag(max(d.indices))
            )
            dbig = IndexSet.raw(tuple(d.indices) + (0,))
            dred = IndexSet.raw(tuple(dj - 1 for dj in d.indices))
            for n in range(3):
                lhs = multi_indexed_poly_y(dbig, n, p)
                rhs = multi_indexed_poly_y(dred, n, p.shift(tilde=1))
                assert (lhs - rhs).is_zero, (d, fam, n)


def test_blimit_linear_convergence():
    devs = closed_forms.blimit_deviations(IndexSet.of(1, 2), Q, A, 2, 2)
    assert sorted(devs) == [10, 14, 18]
    ratios = [devs[14] / devs[10], devs[18] / devs[14]]
    assert closed_forms.blimit_linear(ratios), [float(r) for r in ratios]
    # linear bound with the constant estimated at k = 10
    const = devs[10] * 2 ** 10
    for k in (14, 18):
        assert devs[k] <= const * F(1, 2 ** k)


# ---------------------------------------------------------------------------
# type I engine
# ---------------------------------------------------------------------------


def test_type_i_empty_set_reduces_to_base(pji):
    pots = deformed_potentials(IndexSet.of(), pji)
    for x in range(0, 12):
        assert pots.b_value(x) == potential_b(pji).eval_int(x)
        assert pots.d_value(x + 1) == potential_d(pji).eval_int(x + 1)


def test_type_i_potentials_positive(pji, pli):
    for p in (pji, pli):
        for d in (IndexSet.of(1), IndexSet.of(2), IndexSet.of(1, 2)):
            pots = deformed_potentials(d, p)
            assert pots.d_value(0) == 0
            assert all(pots.b_value(x) > 0 for x in range(0, 31))
            assert all(pots.d_value(x) > 0 for x in range(1, 31))


def test_type_i_casoratian_sign(pji, pli):
    for p in (pji, pli):
        w = xi_casoratian(IndexSet.of(1, 2), p)
        vals = [w.eval_int(x) for x in range(0, 61)]
        assert all(v != 0 for v in vals)
        assert len({v > 0 for v in vals}) == 1


def test_type_i_single_closed_form_matches_engine(pji, pli):
    for p in (pji, pli):
        for dd in (1, 2):
            for n in range(4):
                clos = typeI_single_poly(dd, n, p)
                raw = typeI_eigen_numerator(IndexSet.of(dd), n, p)
                lc_c = clos.coeff(clos.max_deg)
                lc_r = raw.coeff(raw.max_deg)
                assert (clos.scale(lc_r) - raw.scale(lc_c)).is_zero
                assert clos.eval_int(0) == 1


def test_type_i_golden_d2_forms():
    # a must sit below q^3 for the type I parameter range
    a, b = F(1, 10), F(1, 16)
    for n, oracle in ((0, closed_forms.type1_d2_n0), (1, closed_forms.type1_d2_n1)):
        poly = typeI_single_poly(2, n, RawParams(Family.LQ_JACOBI, Q, a, b, CType.TYPE_I))
        for x in range(0, 9):
            assert poly.eval_int(x) == oracle(Q, a, b, x), (n, x)


def test_type_i_ii_relation_single_index():
    for fam, bb in ((Family.LQ_JACOBI, B), (Family.LQ_LAGUERRE, F(0))):
        base = Params(fam, Q, A, bb, CType.TYPE_II, dmax=1)
        pm = base.shift(tilde=-1)
        sa, sb = tilde_delta(fam, CType.TYPE_I)
        for n in range(5):
            rhs = multi_indexed_poly_y(IndexSet.of(1), n, pm)
            pi = RawParams(fam, Q, A * Q ** (-sa),
                           bb * Q ** (-sb) if fam == Family.LQ_JACOBI else F(0), CType.TYPE_I)
            lhs = typeI_single_poly(1, n, pi)
            assert (lhs - rhs).is_zero, (fam, n)


def reversed_point(b):
    """The type I record at the formally inverted base 1/q."""
    return RawParams(Family.LQ_JACOBI, 1 / Q, A, b, CType.TYPE_I)


def test_reflection_remark():
    # generic b: reversal matches for n = 0,1 and genuinely differs for n >= 2
    b = F(1, 20)
    p = Params(Family.LQ_JACOBI, Q, A, b, CType.TYPE_II, dmax=2)
    for n in range(4):
        refl = typeI_single_poly(2, n, reversed_point(b))
        same = refl.coeff_dict() == multi_indexed_poly_y(IndexSet.of(2), n, p).coeff_dict()
        assert same == (n <= 1), n


def test_reflection_remark_default_b(pj):
    # at b = q^4 the n = 2 reversal is degenerate, which also breaks the identity
    for n in (0, 1):
        refl = typeI_single_poly(2, n, reversed_point(B))
        assert refl.coeff_dict() == multi_indexed_poly_y(IndexSet.of(2), n, pj).coeff_dict()
    with pytest.raises(InvalidParamsError):
        typeI_single_poly(2, 2, reversed_point(B))
