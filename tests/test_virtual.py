import random
from fractions import Fraction as F

import pytest

from littleq import (
    CType,
    Family,
    InvalidParamsError,
    LaurentPoly,
    Params,
    eigenpoly_y,
    groundstate_ratio,
    groundstate_sq,
    nu_ratio_poly,
    potential_b,
    potential_d,
    twist,
    virtual_data,
    virtual_energy,
    virtual_energy_prime,
    virtual_groundstate_sq,
    virtual_poly_y,
    xi_at_infinity,
    xi_diffeq_residual,
    xi_leading,
    xi_series_value,
)
from littleq.verify import _random_valid_params

Q, A, B = F(1, 2), F(1, 3), F(1, 16)


def all_points(pj, pl, pji, pli):
    return (pj, pl, pji, pli)


# ---------------------------------------------------------------------------
# auxiliary potentials
# ---------------------------------------------------------------------------


def test_factorization_identities(pj, pl, pji, pli):
    for p in all_points(pj, pl, pji, pli):
        vd = virtual_data(p)
        bp, dp = potential_b(p), potential_d(p)
        assert (bp * dp.shift(1) - vd.bprime_new * vd.dprime_new.shift(1)).is_zero
        total = bp + dp - vd.bprime_new - vd.dprime_new
        assert total == LaurentPoly.const(p.q, vd.alpha_prime)
        assert vd.alpha_prime < 0


def test_factorization_random_points():
    rng = random.Random(99)
    for family in Family:
        for ctype in CType:
            for _ in range(5):
                p = _random_valid_params(rng, family, ctype, dmax=2)
                vd = virtual_data(p)
                bp, dp = potential_b(p), potential_d(p)
                assert (
                    bp * dp.shift(1) - vd.bprime_new * vd.dprime_new.shift(1)
                ).is_zero
                assert (
                    bp + dp - vd.bprime_new - vd.dprime_new
                ) == LaurentPoly.const(p.q, vd.alpha_prime)


def test_type_ii_boundary_root(pj, pl):
    for p in (pj, pl):
        vd = virtual_data(p)
        assert vd.bprime_new.eval_int(-1) == 0
        assert all(vd.dprime_new.eval_int(x) > 0 for x in range(-p.dmax + 1, 40))


def test_alpha_prime_example(pj):
    assert virtual_data(pj).alpha_prime == F(-7, 12)


def test_type_i_down_potential_boundary(pji, pli):
    for p in (pji, pli):
        vd = virtual_data(p)
        # type I keeps the original down potential shape: zero at x = 0
        assert potential_d(p).eval_int(0) == 0
        assert all(vd.bprime_new.eval_int(x) > 0 for x in range(0, 40))


# ---------------------------------------------------------------------------
# virtual-state polynomials
# ---------------------------------------------------------------------------


def test_xi_degree_and_normalization(pj_deep, pl, pji, pli):
    for p, vtop in ((pj_deep, 6), (pl, 6), (pji, 3), (pli, 3)):
        for v in range(vtop + 1):
            xi = virtual_poly_y(v, p)
            assert xi.to_eta().degree == v
            if p.ctype == CType.TYPE_II:
                assert xi.eval_int(-1) == 1
            else:
                assert xi.eval_int(0) == 1


def test_xi_pochhammer_pole_raises():
    # a = q puts the tilde-shifted type II point at a' = 1, a pole at k = 1
    p = Params(Family.LQ_LAGUERRE, Q, Q, 0, CType.TYPE_II, dmax=2)
    virtual_poly_y(1, p)
    with pytest.raises(InvalidParamsError):
        virtual_poly_y(1, p.shift(tilde=-1))
    pjq = Params(Family.LQ_JACOBI, Q, Q, B, CType.TYPE_II, dmax=2)
    with pytest.raises(InvalidParamsError):
        virtual_poly_y(2, pjq.shift(tilde=-1))


def test_xi_constant_for_v_zero(pj, pl):
    for p in (pj, pl):
        assert virtual_poly_y(0, p) == LaurentPoly.one(p.q)


def test_xi_value_at_minus_one_example(pj):
    assert virtual_poly_y(2, pj).eval_int(-1) == 1


def test_xi_leading_example(pj):
    # b q^{-1} (1 - a b^{-1} q^2) / (1 - b q^{-2})
    expected = B / Q * (1 - A / B * Q ** 2) / (1 - B / Q ** 2)
    assert expected == F(-1, 18)
    assert xi_leading(1, pj) == expected
    assert virtual_poly_y(1, pj).to_eta().leading == expected


def test_xi_leading_and_infinity_match_polys(pj_deep, pl):
    for p in (pj_deep, pl):
        for v in range(6):
            xi = virtual_poly_y(v, p)
            assert xi.to_eta().leading == xi_leading(v, p)
            assert xi.at_infinity() == xi_at_infinity(v, p)


def test_xi_pole_raises():
    # b = q^4 sits on the v=3 normalization pole
    p = Params(Family.LQ_JACOBI, Q, A, F(1, 16), CType.TYPE_II, dmax=2)
    with pytest.raises(InvalidParamsError):
        virtual_poly_y(3, p)


def test_xi_positivity_window(pj_deep, pl, pji, pli):
    for p in (pj_deep, pl):
        for v in range(6):
            xi = virtual_poly_y(v, p)
            assert all(xi.eval_int(x) > 0 for x in range(-1, 61)), v
    for p in (pji, pli):
        for v in range(3):
            xi = virtual_poly_y(v, p)
            assert all(xi.eval_int(x) > 0 for x in range(0, 61)), v


def test_type_i_poly_is_twisted_eigenpoly(pji, pli):
    for p in (pji, pli):
        for v in range(4):
            assert virtual_poly_y(v, p) == eigenpoly_y(v, twist(p))


def test_type_ii_not_a_twist(pj):
    # unlike type I, the type II polynomial is not the twisted eigenpolynomial
    tw = twist(pj)  # a -> q^2/a keeps only the type I direction
    assert virtual_poly_y(2, pj) != eigenpoly_y(2, tw)


def test_series_rewriting_two_routes(pj_deep):
    for v in range(5):
        xi = virtual_poly_y(v, pj_deep)
        for x in range(0, 13):
            assert xi.eval_int(x) == xi_series_value(v, pj_deep, x)


# ---------------------------------------------------------------------------
# virtual energies
# ---------------------------------------------------------------------------


def test_energy_examples(pj, pl):
    assert virtual_energy(2, pj) == F(-11, 24)
    assert virtual_energy(0, pl) == F(-2, 3)


def test_energy_two_routes(pj, pl, pji, pli):
    for p in (pj, pl, pji, pli):
        vd = virtual_data(p)
        for v in range(6):
            assert virtual_energy(v, p) == virtual_energy_prime(v, p) + vd.alpha_prime
            if v <= p.dmax:
                assert virtual_energy(v, p) < 0


def test_energy_prime_matches_twisted_spectrum(pj):
    # alpha * E_v(twisted params) route for type II little q-Jacobi
    for v in range(6):
        ev = (Q ** -v - 1) * (1 - A / B * Q ** (v + 1))
        assert virtual_energy_prime(v, pj) == B / Q * ev


def test_diffeq_residual_zero(pj_deep, pl, pji, pli):
    for p in (pj_deep, pl, pji, pli):
        vtop = 6 if p.ctype == CType.TYPE_II else 3
        for v in range(vtop + 1):
            assert xi_diffeq_residual(v, p).is_zero, (p.family, p.ctype, v)


def test_laguerre_energy_prime_closed_form(pl):
    for v in range(6):
        assert virtual_energy_prime(v, pl) == -A * (1 - Q ** v)


# ---------------------------------------------------------------------------
# ground-state ratio and its polynomial rewriting
# ---------------------------------------------------------------------------


def test_ratio_values(pj, pl):
    assert groundstate_ratio(0, pj) == 1
    assert virtual_groundstate_sq(0, pj) == 1
    assert groundstate_ratio(2, pj) == F(155, 64)


def test_ratio_squared_identity(pj, pl, pji, pli):
    for p in (pj, pl, pji, pli):
        for x in range(11):
            lhs = groundstate_ratio(x, p) ** 2 * virtual_groundstate_sq(x, p)
            assert lhs == groundstate_sq(x, p)


def test_nu_ratio_poly_trivial_cases(pl, pj):
    assert nu_ratio_poly(1, 1, pl) == LaurentPoly.one(Q)
    r = nu_ratio_poly(2, 1, pj)
    assert r == LaurentPoly(Q, {0: F(8, 7), 1: F(-8, 7)})


def test_nu_ratio_poly_is_ratio_of_groundstates(pj, pl):
    for p in (pj, pl):
        for m in (1, 2, 3):
            shifted = p.shift(tilde=m)
            for j in range(1, m + 2):
                r = nu_ratio_poly(j, m, p)
                assert r.min_deg >= 0  # genuine polynomial
                for x in range(j - 1, j + 7):
                    expected = groundstate_ratio(x - j + 1, p) / groundstate_ratio(
                        x, shifted
                    )
                    assert r.eval_int(x) == expected, (m, j, x)


def test_nu_ratio_poly_type_i_constant(pji, pli):
    for p in (pji, pli):
        for j in (1, 2, 3):
            r = nu_ratio_poly(j, 2, p)
            assert r == LaurentPoly.const(p.q, (p.a / p.q) ** (j - 1))
