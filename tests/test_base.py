import itertools
import random
from fractions import Fraction as F

import pytest

from littleq import (
    CType,
    Family,
    InvalidParamsError,
    LaurentPoly,
    Params,
    RawParams,
    backward_shift_op,
    casoratian_gauge,
    eigen_at_infinity,
    eigen_leading,
    eigenpoly,
    eigenpoly_y,
    energy,
    forward_shift_op,
    groundstate_sq,
    hamiltonian_op,
    norm_ratio,
    op_add,
    op_apply,
    op_compose,
    potential_b,
    potential_d,
)
from littleq import base
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


J, L, I, II = Family.LQ_JACOBI, Family.LQ_LAGUERRE, CType.TYPE_I, CType.TYPE_II


@pytest.mark.parametrize("fields,message", [
    ((J, F(3, 2), A, B, II, 0), "need 0 < q < 1, got q=3/2"),
    ((J, Q, A, B, II, -1), "dmax must be >= 0"),
    ((L, Q, A, F(1, 7), II, 0), "little q-Laguerre has no parameter b"),
    ((L, Q, A, 0, I, 2), "type I little q-Laguerre needs 0 < a < q^(1+dmax)"),
    ((L, Q, F(3, 2), 0, II, 0), "little q-Laguerre needs 0 < a < 1"),
    ((J, Q, A, B, I, 2), "type I little q-Jacobi needs 0 < a < q^(1+dmax)"),
    ((J, Q, F(3, 2), B, I, 0), "type I little q-Jacobi needs 0 < a < 1"),
    ((J, Q, F(1, 10), F(1), I, 2), "little q-Jacobi needs b < 1"),
    ((J, Q, F(3, 2), B, II, 2), "little q-Jacobi needs 0 < a < 1"),
    ((J, Q, A, F(1, 4), II, 2),
     "type II little q-Jacobi needs b < q^(1+dmax) (extended range), got b=1/4"),
    ((J, Q, A, 0, II, 1), "b = 0 is the little q-Laguerre family; use it directly"),
])
def test_params_error_messages(fields, message):
    with pytest.raises(InvalidParamsError) as info:
        Params(*fields)
    assert str(info.value) == message


def test_params_defaults_and_coercion():
    for p in (Params(J, Q, A), Params(family=J, q="1/2", a=A),
              RawParams(J, Q, A), RawParams(family=J, q=Q, a=A)):
        assert (p.b, p.ctype, p.dmax) == (0, II, 0)
        assert type(p.q) is type(p.b) is F
    assert Params(J, 0.5, A, B, II, 2) == Params(J, Q, A, B, dmax=2)


def test_params_are_immutable_values(pj):
    raw = RawParams(*pj)
    for p in (pj, raw):
        with pytest.raises(AttributeError):
            p.b = F(1, 32)
        with pytest.raises(AttributeError):
            p.extra = 1
    # records compare and hash by their fields; no cached function reads the class
    assert pj == raw and hash(pj) == hash(raw)
    assert hash(Params(J, Q, A, B, II, 2)) == hash(pj)
    assert pj._replace(b=F(1, 32)).b == F(1, 32)
    with pytest.raises(InvalidParamsError):
        pj._replace(b=F(1, 4))  # _replace validates as the constructor does


def test_equal_points_hash_equal(pj):
    # the hash reads the integers of q, a and b, so a validated point, its
    # raw record, a shifted-back point and int fields all hash as they compare
    lag = Params(L, Q, A)
    pairs = [
        (pj, RawParams(*pj)),
        (pj, pj.shift(tilde=2, delta=1).shift(tilde=-2, delta=-1)),
        (lag, RawParams(L, Q, A, 0, 2, 0)),  # an int ctype
        (RawParams(J, Q, 1, 0), RawParams(J, Q, F(1), F(0))),
        (RawParams(J, F(3, 1), F(-2), F(4, 2)), RawParams(J, 3, -2, 2)),
    ]
    for x, y in pairs:
        assert x == y and hash(x) == hash(y)


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


def test_eigenpoly_cache_keys_on_the_values_it_reads(pj):
    # an equal-valued RawParams and points that differ only in ctype or dmax
    # read the same (n, family, q, a, b), so they share one cache entry
    base._eigenpoly_y.cache_clear()
    twins = [pj, RawParams(pj.family, pj.q, pj.a, pj.b, pj.ctype, pj.dmax),
             RawParams(pj.family, pj.q, pj.a, pj.b, CType.TYPE_I, 7), pj.shift()]
    polys = [eigenpoly_y(3, p) for p in twins]
    assert all(f is polys[0] for f in polys)
    info = base._eigenpoly_y.cache_info()
    assert (info.currsize, info.misses, info.maxsize) == (1, 1, 256)
    assert eigenpoly_y(3, pj.shift(tilde=1)) is not polys[0]
    # the key holds the integers of q, a and b, so int and Fraction fields of
    # equal points share an entry too
    for twins in ([Params(J, Q, A, -1, II, 2), RawParams(J, Q, A, -1), RawParams(J, Q, A, F(-1))],
                  [Params(L, Q, A), RawParams(L, Q, A, 0), RawParams(L, Q, A, F(0), I, 3)]):
        polys = [eigenpoly_y(3, p) for p in twins]
        assert all(f is polys[0] for f in polys)
    assert base._eigenpoly_y.cache_info().currsize == 4


def test_eigenpoly_negative_level_is_zero(pj):
    assert eigenpoly_y(-1, pj).is_zero
    assert eigenpoly(-3, pj).is_zero


def test_eigenpoly_leading_example(pj):
    assert eigen_leading(1, pj) == F(-47, 15)


def test_eigen_equation_exact(pj, pl):
    for p in (pj, pl):
        for n in range(9):
            f = eigenpoly_y(n, p)
            r = op_apply(hamiltonian_op(p), f) - f.scale(energy(n, p))
            assert r.is_zero, (p.family, n)


def test_eigen_equation_random_params():
    rng = random.Random(20240809)
    for family in Family:
        for _ in range(5):
            p = _random_valid_params(rng, family, CType.TYPE_II, dmax=2)
            for n in range(5):
                f = eigenpoly_y(n, p)
                assert (op_apply(hamiltonian_op(p), f) - f.scale(energy(n, p))).is_zero


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
        fwd, bkw = forward_shift_op(p), backward_shift_op(p)
        assert op_apply(fwd, eigenpoly_y(0, p)).is_zero
        for n in range(9):
            f = eigenpoly_y(n, p)
            lhs = op_apply(fwd, f)
            rhs = eigenpoly_y(n - 1, up).scale(energy(n, p))
            assert (lhs - rhs).is_zero, n
            if n >= 1:
                back = op_apply(bkw, eigenpoly_y(n - 1, up))
                assert (back - f).is_zero, n


def test_backward_after_forward_is_hamiltonian(pj, pl):
    rng = random.Random(5)
    f = LaurentPoly(Q, {i: F(rng.randint(-9, 9), rng.randint(1, 9)) for i in range(6)})
    for p in (pj, pl):
        composed = op_apply(backward_shift_op(p), op_apply(forward_shift_op(p), f))
        assert (composed - op_apply(hamiltonian_op(p), f)).is_zero


def test_backward_after_forward_is_hamiltonian_as_operators():
    # Bk o F = H as an identity of operators, hence for every polynomial at once
    rng = random.Random(29)
    for family, ctype, dmax in itertools.product(Family, CType, range(3)):
        p = _random_valid_params(rng, family, ctype, dmax)
        h = hamiltonian_op(p)
        diff = op_add(op_compose(backward_shift_op(p), forward_shift_op(p)),
                      {k: -c for k, c in h.items()})
        assert sorted(diff) == [-1, 0, 1] and all(c.is_zero for c in diff.values())


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
    # at a b = q the closed form's last factor reads 0/0 for n = 0
    abq = Params(Family.LQ_JACOBI, F(1, 4), F(1, 2), F(1, 2), CType.TYPE_II, dmax=0)
    assert norm_ratio(0, abq) == 1


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
