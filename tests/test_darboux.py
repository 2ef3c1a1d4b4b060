import random
from fractions import Fraction as F

import pytest

import closed_forms
from littleq import (
    CType,
    Family,
    IndexSet,
    InvalidParamsError,
    LaurentPoly,
    Params,
    casoratian_minus,
    casoratian_plus,
    deformed_backward_check,
    deformed_eigencheck,
    deformed_forward_check,
    deformed_norm_sq,
    deformed_potentials,
    denominator_leading,
    denominator_poly,
    denominator_poly_y,
    eigenpoly_y,
    infinity_values,
    lowest_matches_denominator,
    multi_indexed_leading,
    multi_indexed_poly,
    multi_indexed_poly_y,
    psi_deformed_sq,
    tilde_delta,
    typeI_eigen_numerator,
    typeI_potentials,
    typeI_single_poly,
    typeII_single_poly,
    virtual_poly_y,
    xi_casoratian,
)
from littleq.verify import _random_valid_params

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


# ---------------------------------------------------------------------------
# Casoratians
# ---------------------------------------------------------------------------


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
                assert (lhs - typeII_single_poly(dd, n, p)).is_zero


def test_lowest_matches_denominator():
    for d, p in battery_points():
        assert lowest_matches_denominator(d, p).is_zero
    assert lowest_matches_denominator(IndexSet.of(), jac(B, 2)).is_zero


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
    for family in Family:
        for _ in range(5):
            p = _random_valid_params(rng, family, CType.TYPE_II, dmax=2)
            for n in range(3):
                assert deformed_eigencheck(d, n, p).is_zero


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
    from littleq import potential_b, potential_d

    pots = deformed_potentials(IndexSet.of(), pj)
    assert pots.b_num == potential_b(pj) and pots.b_den == LaurentPoly.one(Q)
    assert pots.d_num == potential_d(pj) and pots.d_den == LaurentPoly.one(Q)


def test_potentials_positive_and_boundary():
    for d, p in battery_points():
        pots = deformed_potentials(d, p)
        assert pots.d_value(0) == 0
        assert all(pots.b_value(x) > 0 for x in range(0, 41))
        assert all(pots.d_value(x) > 0 for x in range(1, 41))


def test_groundstate_product_route(pj):
    d = IndexSet.of(2)
    pots = deformed_potentials(d, pj)
    p0 = multi_indexed_poly(d, 0, pj)
    assert psi_deformed_sq(0, d, pj) == 1
    acc = F(1)
    for x in range(1, 21):
        acc *= pots.b_value(x - 1) / pots.d_value(x)
        assert psi_deformed_sq(x, d, pj) * p0.eval_int(x) ** 2 == acc


def test_psi_empty_set_is_groundstate(pj):
    from littleq import groundstate_sq

    for x in range(8):
        assert psi_deformed_sq(x, IndexSet.of(), pj) == groundstate_sq(x, pj)


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
    d = IndexSet.of(1, 2)
    pl2 = lag(2)
    devs = {}
    for k in (10, 14, 18):
        pj_k = jac(F(1, 2 ** k), 2)
        dev = F(0)
        for n in range(3):
            pja = multi_indexed_poly(d, n, pj_k)
            pla = multi_indexed_poly(d, n, pl2)
            top = max(pja.degree, pla.degree)
            dev = max(dev, max(abs(pja.coeff(i) - pla.coeff(i)) for i in range(top + 1)))
        devs[k] = dev
    for lo, hi in ((10, 14), (14, 18)):
        ratio = float(devs[hi] / devs[lo])
        assert 2 ** -4.5 <= ratio <= 2 ** -3.5, ratio
    # linear bound with the constant estimated at k = 10
    const = devs[10] * 2 ** 10
    for k in (14, 18):
        assert devs[k] <= const * F(1, 2 ** k)


# ---------------------------------------------------------------------------
# type I engine
# ---------------------------------------------------------------------------


def test_type_i_empty_set_reduces_to_base(pji):
    from littleq import potential_b, potential_d

    pots = typeI_potentials(IndexSet.of(), pji)
    for x in range(0, 12):
        assert pots.b_value(x) == potential_b(pji).eval_int(x)
        assert pots.d_value(x + 1) == potential_d(pji).eval_int(x + 1)


def test_type_i_potentials_positive(pji, pli):
    for p in (pji, pli):
        for d in (IndexSet.of(1), IndexSet.of(2), IndexSet.of(1, 2)):
            pots = typeI_potentials(d, p)
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
                clos = typeI_single_poly(dd, n, p.family, p.q, p.a, p.b)
                raw = typeI_eigen_numerator(IndexSet.of(dd), n, p)
                lc_c = clos.coeff(clos.max_deg)
                lc_r = raw.coeff(raw.max_deg)
                assert (clos.scale(lc_r) - raw.scale(lc_c)).is_zero
                assert clos.eval_int(0) == 1


def test_type_i_golden_d2_forms():
    # a must sit below q^3 for the type I parameter range
    a, b = F(1, 10), F(1, 16)
    for n, oracle in ((0, closed_forms.type1_d2_n0), (1, closed_forms.type1_d2_n1)):
        poly = typeI_single_poly(2, n, Family.LQ_JACOBI, Q, a, b)
        for x in range(0, 9):
            assert poly.eval_int(x) == oracle(Q, a, b, x), (n, x)


def test_type_i_ii_relation_single_index():
    for fam, bb in ((Family.LQ_JACOBI, B), (Family.LQ_LAGUERRE, F(0))):
        base = Params(fam, Q, A, bb, CType.TYPE_II, dmax=1)
        pm = base.shift(tilde=-1)
        sa, sb = tilde_delta(fam, CType.TYPE_I)
        for n in range(5):
            rhs = multi_indexed_poly_y(IndexSet.of(1), n, pm)
            lhs = typeI_single_poly(
                1, n, fam, Q, A * Q ** (-sa),
                bb * Q ** (-sb) if fam == Family.LQ_JACOBI else F(0),
            )
            assert (lhs - rhs).is_zero, (fam, n)


def test_reflection_remark():
    # generic b: reversal matches for n = 0,1 and genuinely differs for n >= 2
    b = F(1, 20)
    p = Params(Family.LQ_JACOBI, Q, A, b, CType.TYPE_II, dmax=2)
    for n in range(4):
        refl = typeI_single_poly(2, n, Family.LQ_JACOBI, 1 / Q, A, b)
        same = refl.coeff_dict() == multi_indexed_poly_y(IndexSet.of(2), n, p).coeff_dict()
        assert same == (n <= 1), n


def test_reflection_remark_default_b(pj):
    # at b = q^4 the n = 2 reversal is degenerate, which also breaks the identity
    for n in (0, 1):
        refl = typeI_single_poly(2, n, Family.LQ_JACOBI, 1 / Q, A, B)
        assert refl.coeff_dict() == multi_indexed_poly_y(IndexSet.of(2), n, pj).coeff_dict()
    with pytest.raises(InvalidParamsError):
        typeI_single_poly(2, 2, Family.LQ_JACOBI, 1 / Q, A, B)
