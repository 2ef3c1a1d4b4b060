import random
from fractions import Fraction as F

import pytest

from littleq import (
    CType,
    Family,
    InvalidParamsError,
    LaurentPoly,
    Params,
    backward_shift_apply,
    casoratian_gauge,
    eigen_at_infinity,
    eigen_leading,
    eigenpoly,
    eigenpoly_y,
    energy,
    forward_shift_apply,
    groundstate_sq,
    hamiltonian_apply,
    norm_abs_approx,
    norm_ratio,
    potential_b,
    potential_d,
)
from littleq.base import eigen_series_value
from littleq.verify import _random_valid_params

Q, A, B = F(1, 2), F(1, 3), F(1, 16)


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------


def test_params_ranges():
    Params(Family.LQ_JACOBI, Q, A, B, CType.TYPE_II, dmax=2)
    with pytest.raises(InvalidParamsError):
        Params(Family.LQ_JACOBI, F(3, 2), A, B)
    with pytest.raises(InvalidParamsError):
        Params(Family.LQ_JACOBI, Q, F(3, 2), B)
    with pytest.raises(InvalidParamsError):
        Params(Family.LQ_JACOBI, Q, A, F(1, 4), CType.TYPE_II, dmax=2)
    with pytest.raises(InvalidParamsError):
        Params(Family.LQ_LAGUERRE, Q, A, F(1, 7))
    with pytest.raises(InvalidParamsError):
        Params(Family.LQ_JACOBI, Q, A, B, CType.TYPE_I, dmax=2)  # a too big
    Params(Family.LQ_JACOBI, Q, F(1, 10), B, CType.TYPE_I, dmax=2)
    # extended range admits negative b for type II
    ext = Params(Family.LQ_JACOBI, Q, A, F(-1, 4), CType.TYPE_II, dmax=2)
    assert not ext.strict_range


def test_shift_composition_additive(pj):
    s = pj.shift(tilde=2, delta=1).shift(tilde=-1, delta=3)
    t = pj.shift(tilde=1, delta=4)
    assert (s.a, s.b) == (t.a, t.b)
    # type II tilde shift moves a up and b down
    u = pj.shift(tilde=1)
    assert (u.a, u.b) == (pj.a * Q, pj.b / Q)


# ---------------------------------------------------------------------------
# energies, potentials, ground state
# ---------------------------------------------------------------------------


def test_energy_examples(pj, pl):
    assert energy(0, pj) == 0
    assert energy(1, pj) == F(47, 48)
    assert energy(2, pl) == 3
    vals = [energy(n, pj) for n in range(9)]
    assert all(v2 > v1 for v1, v2 in zip(vals, vals[1:]))


def test_potential_examples(pj, pl):
    assert potential_d(pj).eval_int(0) == 0
    assert potential_b(pj).eval_int(1) == F(31, 24)
    assert all(potential_d(pj).eval_int(x) > 0 for x in range(1, 51))
    assert potential_b(pl).eval_int(0) == A / Q


def test_groundstate_examples(pj, pl):
    assert groundstate_sq(0, pj) == 1
    assert groundstate_sq(1, pj) == F(5, 8)
    assert groundstate_sq(2, pl) == F(8, 27)


def test_groundstate_recurrence(pj, pl):
    for p in (pj, pl):
        bp, dp = potential_b(p), potential_d(p)
        for x in range(12):
            step = bp.eval_int(x) / dp.eval_int(x + 1)
            assert groundstate_sq(x + 1, p) == groundstate_sq(x, p) * step


# ---------------------------------------------------------------------------
# eigenpolynomials
# ---------------------------------------------------------------------------


def test_eigenpoly_degree_norm_leading_infinity(pj, pl):
    for p in (pj, pl):
        for n in range(9):
            e = eigenpoly(n, p)
            assert e.degree == n
            assert e.eval_int(0) == 1
            assert e.leading == eigen_leading(n, p)
            assert eigenpoly_y(n, p).at_infinity() == eigen_at_infinity(n, p)


def test_eigenpoly_negative_level_is_zero(pj):
    assert eigenpoly_y(-1, pj).is_zero
    assert eigenpoly(-3, pj).is_zero


def test_eigenpoly_leading_example(pj):
    assert eigen_leading(1, pj) == F(-47, 15)


def test_eigen_equation_exact(pj, pl):
    for p in (pj, pl):
        for n in range(9):
            f = eigenpoly_y(n, p)
            r = hamiltonian_apply(f, p) - f.scale(energy(n, p))
            assert r.is_zero, (p.family, n)


def test_eigen_equation_random_params():
    rng = random.Random(20240809)
    for family in Family:
        for _ in range(5):
            p = _random_valid_params(rng, family, CType.TYPE_II, dmax=2)
            for n in range(5):
                f = eigenpoly_y(n, p)
                assert (hamiltonian_apply(f, p) - f.scale(energy(n, p))).is_zero


def test_series_oracle(pj, pl):
    for p in (pj, pl):
        for n in range(6):
            for x in range(6):
                assert eigenpoly_y(n, p).eval_int(x) == eigen_series_value(n, p, x)


def test_laguerre_is_b_zero_specialization(pj, pl):
    # potentials, energies, eigenpolynomials of the b=0 formulas coincide
    class BZero:
        family = Family.LQ_JACOBI
        q, a, b = pj.q, pj.a, F(0)

    for n in range(7):
        assert energy(n, BZero) == energy(n, pl)
        assert eigenpoly_y(n, BZero) == eigenpoly_y(n, pl)
    assert potential_b(BZero) == potential_b(pl)
    assert potential_d(BZero) == potential_d(pl)


# ---------------------------------------------------------------------------
# shape invariance
# ---------------------------------------------------------------------------


def test_forward_backward_relations(pj, pl):
    for p in (pj, pl):
        up = p.shift(delta=1)
        assert forward_shift_apply(eigenpoly_y(0, p), p).is_zero
        for n in range(9):
            f = eigenpoly_y(n, p)
            lhs = forward_shift_apply(f, p)
            rhs = eigenpoly_y(n - 1, up).scale(energy(n, p))
            assert (lhs - rhs).is_zero, n
            if n >= 1:
                back = backward_shift_apply(eigenpoly_y(n - 1, up), p)
                assert (back - f).is_zero, n


def test_backward_after_forward_is_hamiltonian(pj, pl):
    rng = random.Random(5)
    f = LaurentPoly(Q, {i: F(rng.randint(-9, 9), rng.randint(1, 9)) for i in range(6)})
    for p in (pj, pl):
        composed = backward_shift_apply(forward_shift_apply(f, p), p)
        assert (composed - hamiltonian_apply(f, p)).is_zero


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def test_norm_ratio_examples(pj, pl):
    assert norm_ratio(0, pj) == 1
    assert norm_ratio(1, pl) == 1
    ab = A * B
    expected = (
        (1 - B) * (1 - ab) * A / ((1 - A) * (1 - Q))
        * (1 - ab * Q) / (1 - ab)
    )
    assert norm_ratio(1, pj) == expected
    assert all(norm_ratio(n, pj) > 0 for n in range(8))


def test_norm_abs_matches_bruteforce_sum(pj, pl):
    # 1/d_0^2 equals the full weight sum; compare against a long partial sum
    for p in (pj, pl):
        approx, bound = norm_abs_approx(0, p)
        total = sum(groundstate_sq(x, p) for x in range(250))
        assert abs(float(total * approx) - 1) < 1e-12
        assert bound < F(1, 10 ** 60)


# ---------------------------------------------------------------------------
# gauge monomials
# ---------------------------------------------------------------------------


def _eta(x, q=Q):
    return 1 - q ** x


def test_gauge_values():
    assert casoratian_gauge(0, Q) == LaurentPoly.one(Q)
    assert casoratian_gauge(1, Q) == LaurentPoly.one(Q)
    assert casoratian_gauge(2, Q) == LaurentPoly(Q, {1: 2})  # q^{x-1}


def test_gauge_matches_defining_product():
    for m in (2, 3, 4):
        g = casoratian_gauge(m, Q)
        for x in range(-1, 6):
            prod_minus = F(1)
            for j in range(1, m + 1):
                for k in range(j + 1, m + 1):
                    prod_minus *= (_eta(x - j + 1) - _eta(x - k + 1)) / _eta(k - j)
            assert g.eval_int(x) == prod_minus, (m, x)
