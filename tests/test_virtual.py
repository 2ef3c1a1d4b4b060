import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from littleq import (
    CType,
    Family,
    InvalidParamsError,
    LaurentPoly,
    Params,
    RawParams,
    eigen_at_infinity,
    eigenpoly_y,
    groundstate_ratio,
    groundstate_sq,
    nu_ratio_poly,
    potential_b,
    potential_d,
    qpoch,
    twist,
    typeI_single_poly,
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
from littleq.virtual import degree_drop

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


def test_degree_drop_names_the_first_collapsed_degree(pj, pl, pji, pli):
    # b = a q^2 empties the leading coefficient of xi_1 alone
    p = Params(Family.LQ_JACOBI, Q, F(1, 8), F(1, 32), CType.TYPE_II, dmax=3)
    assert degree_drop(p) == 1
    assert [xi_leading(v, p) == 0 for v in range(4)] == [False, True, False, False]
    # b = a q^-4 at type I empties xi_2 first
    assert degree_drop(Params(Family.LQ_JACOBI, F(2, 3), F(16, 135), F(3, 5),
                              CType.TYPE_I, dmax=2)) == 2
    assert [degree_drop(p) for p in (pj, pl, pji, pli)] == [None] * 4


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


# term-by-term loops over the series ratios: a route to eigenpoly_y and
# virtual_poly_y that does not go through exact.qhyper_terms
def _eigen_loop(n, p):
    q, a, b = p.q, p.a, p.b
    coeffs, term = {0: F(1)}, F(1)
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


def _virtual_loop(v, p):
    q, a, b = p.q, p.a, p.b
    if p.ctype == CType.TYPE_I:
        return _eigen_loop(v, twist(p))
    jac = p.family == Family.LQ_JACOBI
    coeffs, term = {0: F(1)}, F(1)
    for k in range(1, v + 1):
        den = (1 - a * q ** (k - 1)) * (1 - q ** k)
        if den == 0:
            raise InvalidParamsError("Pochhammer denominator vanished at k=%d" % k)
        num = 1 - q ** (k - 1 - v)
        if jac:
            term = term * num * (1 - (a / b) * q ** (v + k)) / den * b
        else:
            term = term * num / den * (-(q ** (k - 1))) * a * q ** (v + 1)
        coeffs[k] = term
    lead = qpoch(a, q, v)
    if jac:
        den0 = qpoch(b * q ** (-v - 1), q, v)
        if den0 == 0:
            raise InvalidParamsError("b = q^j pole at v=%d; enlarge dmax or move b" % v)
        lead /= den0
    return LaurentPoly(q, {d: lead * c for d, c in coeffs.items()})


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InvalidParamsError as exc:
        return "InvalidParamsError: %s" % exc


def _series_points():
    """Random valid points of every family and type, with their tilde- and
    delta-shifted and twisted neighbours."""
    rng = random.Random(1212)
    # a = q puts the tilde-shifted type II point on the pole a = 1 (at a b
    # that is no power of q: there an upper factor vanishes at the same k,
    # and the loops tested the lower factor first)
    yield Params(Family.LQ_JACOBI, Q, Q, F(1, 24), CType.TYPE_II, dmax=2).shift(tilde=-1)
    for family in Family:
        for ctype in CType:
            for _ in range(4):
                p = _random_valid_params(rng, family, ctype, dmax=3)
                yield from (p, p.shift(tilde=1), p.shift(tilde=-1), p.shift(delta=1),
                            p.shift(tilde=-1, delta=2), twist(p))


def test_eigen_and_virtual_series_match_the_loops():
    for p in _series_points():
        for n in range(6):
            assert _outcome(eigenpoly_y, n, p) == _outcome(_eigen_loop, n, p), (p, n)
            assert _outcome(virtual_poly_y, n, p) == _outcome(_virtual_loop, n, p), (p, n)


def test_upper_factor_vanishing_before_a_lower_one_still_raises():
    # the series stops at the upper factor, where the loops went on to the
    # lower one and raised; the normalization then meets its own zero
    # (b;q)_n (eigen) or the b = q^j pole (type II virtual), so both routes
    # still refuse the point, with different messages
    pi = RawParams(Family.LQ_JACOBI, F(2), F(1, 2), F(1, 16), CType.TYPE_I)
    pii = RawParams(Family.LQ_JACOBI, F(1, 2), F(2), F(1, 8), CType.TYPE_II)
    for fn, v, p in ((eigenpoly_y, 6, pi), (_eigen_loop, 6, pi),
                     (virtual_poly_y, 3, pii), (_virtual_loop, 3, pii)):
        with pytest.raises(InvalidParamsError):
            fn(v, p)
    with pytest.raises(InvalidParamsError):
        typeI_single_poly(2, 6, pi)


# the type II little q-Jacobi virtual state in its old (a/b) form,
# 2phi1(q^-v, (a/b) q^(v+1); a; q; b y) (_virtual_loop), and xi_leading as
# b^v q^-C(v+1,2) ((a/b) q^(v+1); q)_v / (b q^(-v-1); q)_v: oracles for the
# forms polynomial in b, which alone reach b = 0
def _old_xi_leading(v, p):
    q, a, b = p.q, p.a, p.b
    return (b ** v * q ** (-(v * (v + 1) // 2)) * qpoch((a / b) * q ** (v + 1), q, v)
            / qpoch(b * q ** (-v - 1), q, v))


@st.composite
def jacobi_ii_points(draw):
    """Type II little q-Jacobi RawParams with b != 0: b free, or within
    10^-6 relative of (or at) a q^m, where a degree drops, or q^j, a pole."""
    q = F(draw(st.integers(1, 9)), 10)
    a = F(draw(st.integers(1, 29)), 30)
    near = draw(st.sampled_from([None, "a q^m", "q^j"]))
    if near is None:
        b = F(draw(st.integers(-60, 60).filter(bool)), draw(st.integers(1, 70)))
    else:
        e = draw(st.integers(1, 8))
        b = (a if near == "a q^m" else 1) * q ** e
        b *= 1 + F(draw(st.sampled_from([-1, 0, 1])), 10 ** 6)
    return RawParams(Family.LQ_JACOBI, q, a, b, CType.TYPE_II, 7)


@given(jacobi_ii_points())
@example(RawParams(Family.LQ_JACOBI, Q, F(1, 8), F(1, 32), CType.TYPE_II, 7))  # b = a q^2
@example(RawParams(Family.LQ_JACOBI, Q, A, F(1, 16), CType.TYPE_II, 7))  # b = q^4
@settings(max_examples=60, deadline=None)
def test_virtual_forms_polynomial_in_b_equal_the_a_over_b_forms(p):
    for v in range(8):
        got = _outcome(virtual_poly_y, v, p)
        assert got == _outcome(_virtual_loop, v, p), (p, v)
        if isinstance(got, str):  # a b = q^j pole refuses xi_leading too
            with pytest.raises(InvalidParamsError):
                xi_leading(v, p)
        else:
            assert xi_leading(v, p) == _old_xi_leading(v, p), (p, v)


@given(st.integers(1, 9), st.integers(1, 29))
@settings(max_examples=30, deadline=None)
def test_virtual_forms_at_b_zero_are_the_laguerre_ones(qn, an):
    q, a = F(qn, 10), F(an, 30)
    r0 = RawParams(Family.LQ_JACOBI, q, a, F(0), CType.TYPE_II, 7)
    lag = RawParams(Family.LQ_LAGUERRE, q, a, F(0), CType.TYPE_II, 7)
    for v in range(8):
        assert virtual_poly_y(v, r0) == virtual_poly_y(v, lag)
        assert xi_leading(v, r0) == xi_leading(v, lag)


@pytest.mark.parametrize("a", [F(1), Q ** -1, Q ** -3])
def test_a_vanishing_lower_factor_still_raises_at_and_off_b_zero(a):
    # a = q^-j empties (a; q)_(j+1), a divisor of term j + 1
    for b in (F(0), B):
        p = RawParams(Family.LQ_JACOBI, Q, a, b, CType.TYPE_II, 7)
        with pytest.raises(InvalidParamsError):
            virtual_poly_y(7, p)


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


# ---------------------------------------------------------------------------
# parameter-keyed caches stay bounded
# ---------------------------------------------------------------------------


def test_parameter_caches_are_bounded():
    import littleq.cli  # noqa: F401  (loads every littleq module)

    caches = [
        value
        for name, module in list(sys.modules.items())
        if name == "littleq" or name.startswith("littleq.")
        for value in vars(module).values()
        if hasattr(value, "cache_info")
    ]
    assert caches and all(c.cache_info().maxsize is not None for c in caches)
    virtual_data.cache_clear()
    for k in range(2, 302):
        virtual_data(Params(Family.LQ_LAGUERRE, Q, F(1, k), 0, CType.TYPE_II))
    assert virtual_data.cache_info().currsize == 256
