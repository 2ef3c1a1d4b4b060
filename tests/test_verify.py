import gc
import json
import math
import random
import weakref
from fractions import Fraction as F
from pathlib import Path

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import closed_forms
from caches import clear_littleq_caches
from littleq import (
    CType,
    EtaPoly,
    Family,
    IndexSet,
    InvalidParamsError,
    Params,
    RawParams,
    RootFindingFailureError,
    deformed_measure,
    deformed_potentials,
    deformed_norm_sq,
    denominator_poly_y,
    groundstate_sq,
    level_poly,
    level_poly_y,
    virtual_poly_y,
    xi_casoratian,
)
from littleq import base, darboux, verify, virtual
from littleq.cli import build_parser, config_from_args, main
from littleq.darboux import DeformedPotentials
from littleq.dyadic import nstr, round_bits
from littleq.exact import (
    LaurentPoly, LittleQError, _one_minus, horner, op_apply, op_compose, qhyper_terms)
from littleq.verify import (
    OrthogonalityData,
    Root,
    _random_valid_params,
    _same_op,
    orthogonality_check,
    polynomial_roots,
    positivity_scan,
    reflection_checks,
    run_suite,
    structural_checks,
)

Q, A, B = F(1, 2), F(1, 3), F(1, 16)


def zeros_report(d, n, p):
    """Zero counts of level n and its interlacing with level n + 1, from the
    exact isolation the zeros suite runs."""
    return verify._zeros_summary(
        verify._level_zeros(level_poly(d, n, p), n),
        verify._level_zeros(level_poly(d, n + 1, p), n + 1),
    )


# ---------------------------------------------------------------------------
# telescoping certificates
# ---------------------------------------------------------------------------

DEEP_D, DEEP_P = IndexSet.of(1, 3, 5, 7), Params(Family.LQ_JACOBI, Q, A, F(1, 4096),
                                                  CType.TYPE_II, dmax=7)
TYPE1_D, TYPE1_P = IndexSet.of(2, 3, 4), Params(Family.LQ_JACOBI, Q, F(1, 64), F(1, 3),
                                                CType.TYPE_I, dmax=4)


def _plain_certificate(d, p, f):
    """The certificate N of f as {degree: Fraction}, solved in plain Fractions
    from its lowest degree up, or None when a coefficient of
    a'(1 - b'y) N(qy) den(x-1) - (1 - qy) N(y) den(x) - c (1 - qy) f is not 0."""
    den, c = deformed_measure(d, p)
    pu, q = p.shift(tilde=d.size), p.q
    lhs_a, lhs_b, rhs = {}, {}, {}
    for i, v in den.coeff_dict().items():  # den(x-1) has the coefficients v q^-i
        for deg, add in ((i, pu.a * v / q ** i), (i + 1, -pu.a * pu.b * v / q ** i)):
            lhs_a[deg] = lhs_a.get(deg, 0) + add
        for deg, add in ((i, v), (i + 1, -q * v)):
            lhs_b[deg] = lhs_b.get(deg, 0) + add
    for j, v in f.coeff_dict().items():
        for deg, add in ((j, c * v), (j + 1, -c * q * v)):
            rhs[deg] = rhs.get(deg, 0) + add
    lo, hi = den.min_deg, den.max_deg

    def coeff(n, j):  # of y^j in a'(1 - b'y) N(qy) den(x-1) - (1 - qy) N(y) den(x)
        return sum((lhs_a.get(j - k, 0) * q ** k - lhs_b.get(j - k, 0)) * v for k, v in n.items())

    n = {}
    for k in range(min(rhs) - lo, max(rhs) - hi):
        n[k] = (rhs.get(lo + k, 0) - coeff(n, lo + k)) / (lhs_a[lo] * q ** k - lhs_b[lo])
    return n if all(coeff(n, j) == rhs.get(j, 0) for j in range(min(rhs), max(rhs) + 1)) else None


def _absolute_row(data, target):
    """P_0^2 - target Q den den(x-1) / c, the polynomial of ortho_absolute_s00."""
    d, p = data.d, data.p
    den, c = deformed_measure(d, p)
    bu, y = p.shift(tilde=d.size).b, LaurentPoly.var(p.q)
    ref = y * (1 - y.scale(bu)) * den * den.shift(-1)
    return data.polys[0] * data.polys[0] - ref.scale(target / (c * (1 - bu)))


@pytest.mark.parametrize("dset, p", [
    ((1, 2), Params(Family.LQ_JACOBI, Q, A, B, CType.TYPE_II, dmax=2)),
    ((1, 2), Params(Family.LQ_LAGUERRE, Q, F(1, 10), 0, CType.TYPE_I, dmax=2)),
], ids=["type2", "type1"])
def test_certificate_telescopes_to_the_exact_partial_sums(dset, p):
    # F(x) = gs'(x) N(q^x) / den(x - 1) with N from the plain solver: F(X+1) -
    # F(0) is the partial sum of w f over x <= X, and N(1) = 0 makes the
    # infinite sum 0
    d = IndexSet.of(*dset)
    data = OrthogonalityData(d, p, 2)
    pp = data.polys
    rows = [pp[0] * pp[2], pp[1] * pp[1] - (pp[0] * pp[0]).scale(data.targets[1]),
            _absolute_row(data, data.absolute_ratio()[0])]
    den, c = deformed_measure(d, p)
    pu = p.shift(tilde=d.size)

    def weight(x):
        return c * groundstate_sq(x, pu) / (den.eval_int(x) * den.eval_int(x - 1))

    for f in rows:
        n = _plain_certificate(d, p, f)
        assert n is not None and sum(n.values()) == 0 and data.certify(f).ok

        def big_f(x):
            n_at = sum(v * p.q ** (k * x) for k, v in n.items())
            return groundstate_sq(x, pu) * n_at / den.eval_int(x - 1)

        total = F(0)
        for x in range(31):
            total += weight(x) * f.eval_int(x)
            assert big_f(x + 1) - big_f(0) == total


@st.composite
def certificate_points(draw):
    """A random valid point of either family and type at dmax 3, with D in
    {}, {1}, {2}, {1,2}, {1,3}."""
    family, ctype = draw(st.sampled_from(Family)), draw(st.sampled_from(CType))
    p = _random_valid_params(random.Random(draw(st.integers(0, 10 ** 6))), family, ctype, 3)
    d = draw(st.sampled_from((IndexSet.of(), IndexSet.of(1), IndexSet.of(2),
                              IndexSet.of(1, 2), IndexSet.of(1, 3))))
    return p, d


@given(certificate_points())
@settings(max_examples=40, deadline=None)
def test_every_row_certifies(point):
    p, d = point
    checks = orthogonality_check(d, p, 3)
    assert [c.status for c in checks] == ["pass"] * 10, checks


def test_mutated_rows_lose_their_certificate():
    # the four mutations: t_n (1 + 1e-12), P_3 + 1e-9 y^2, P_3 from
    # D = {1,3,5}, and the weight of D = {1,3,5}
    data = OrthogonalityData(DEEP_D, DEEP_P, 8)
    pp, t3 = data.polys, data.targets[3]
    assert data.pair_sum(0, 3).ok and data.pair_sum(3, 3).ok
    assert not data.certify(pp[3] * pp[3] - (pp[0] * pp[0]).scale(t3 * (1 + F(1, 10 ** 12)))).ok
    y = LaurentPoly.var(Q)
    p3 = pp[3] + (y * y).scale(F(1, 10 ** 9))
    assert not data.certify(p3 * pp[0]).ok
    assert not data.certify(p3 * pp[5]).ok
    assert not data.certify(p3 * p3 - (pp[0] * pp[0]).scale(t3)).ok
    other = level_poly_y(IndexSet.of(1, 3, 5), 3, DEEP_P)
    assert not data.certify(other * pp[0]).ok
    weight_135 = OrthogonalityData(IndexSet.of(1, 3, 5), DEEP_P, 7)
    assert weight_135.pair_sum(0, 3).ok
    assert not weight_135.certify(pp[0] * pp[3]).ok
    with pytest.raises(ValueError):
        weight_135.certify(pp[8] * pp[8])  # beyond its degree window


def test_a_certificate_needs_every_residual_to_vanish(pj):
    # neither P_0^2 nor y P_0^2 has a certificate; the combination of the two
    # whose N(1) vanishes still fails on its top residuals
    data = OrthogonalityData(IndexSet.of(1, 2), pj, 2)
    f1 = data.polys[0] * data.polys[0]
    f2 = f1 * LaurentPoly.var(pj.q)
    n1, n2 = (F(data._values(f.val, f.num, f.den)[0][-1], f.den) for f in (f1, f2))
    assert n1 and n2 and not data.certify(f1).found and not data.certify(f2).found
    assert data.certify(f1.scale(n2) - f2.scale(n1)) == (False, True, -1)


def test_side_conditions_name_the_failed_proof(pj, monkeypatch):
    # the sum identity needs den(q^x) != 0 for x >= -1 and F -> 0; a point
    # without either proof gives one failed ortho_setup that names it; the
    # shared data of (D, pj) must not come from an earlier test's cache
    clear_littleq_caches()
    grows = RawParams(Family.LQ_LAGUERRE, Q, F(3), F(0), CType.TYPE_II)  # a^x / (q;q)_x grows
    [check] = orthogonality_check(IndexSet.of(), grows, 2)
    assert (check.name, check.status, check.witness) == (
        "ortho_setup", "fail", "NonConvergenceError: the certificates do not vanish as "
                               "x -> infinity: a' q^(k0 - l) = 3/1 >= 1")
    monkeypatch.setattr(verify, "_descartes", lambda *args: 2)  # a sign variation on (0, 1/q)
    [check] = orthogonality_check(IndexSet.of(2), pj, 2)
    assert (check.name, check.status, check.witness) == (
        "ortho_setup", "fail", "DenominatorZeroAtIntegerError: no proof that the denominator "
                               "polynomial is nonzero at every x >= -1")


def test_orthogonality_data_is_freed_without_a_cyclic_collection(pj):
    data = OrthogonalityData(IndexSet.of(2), pj, 2)
    assert data.pair_sum(1, 1).ok
    ref = weakref.ref(data)
    gc.disable()
    try:
        del data
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("d, p", [(DEEP_D, DEEP_P), (TYPE1_D, TYPE1_P)], ids=["deep", "type1"])
def test_shared_certificates_match_a_fresh_construction(d, p):
    shared = verify.orthogonality_data(d, p, 8)
    orthogonality_check(d, p, 8)  # decides every pair the rows read
    assert verify.orthogonality_data(d, p, 8) is shared
    assert all(type(v) is tuple for v in (shared.polys, shared.targets, shared._phi))
    fresh = OrthogonalityData(d, p, 8)
    for n in range(9):
        for m in range(n, 9):
            assert shared.pair_sum(n, m) == fresh.pair_sum(n, m)
            assert shared.pair_sum(n, m) is shared.pair_sum(n, m)


def test_shared_data_cache_is_bounded():
    cache = verify.orthogonality_data
    cache.cache_clear()
    maxsize = cache.cache_info().maxsize
    for k in range(maxsize + 8):
        cache(IndexSet.of(), Params(Family.LQ_LAGUERRE, Q, F(1, k + 2)), 0)
    assert cache.cache_info().currsize == maxsize


def test_a_failed_construction_is_not_cached(pj, monkeypatch):
    # a second verify at an ortho_setup failure point reports it again
    clear_littleq_caches()
    monkeypatch.setattr(verify, "_descartes", lambda *args: 2)
    for _ in range(2):
        checks = run_suite(IndexSet.of(2), pj, nmax=2, suites=("ortho",)).checks
        assert [(c.name, c.status) for c in checks] == [("ortho_setup", "fail")]
    info = verify.orthogonality_data.cache_info()
    assert (info.misses, info.currsize) == (2, 0)


def test_weight_ground_state_grown_by_ratio(pj, pl, pji):
    # gs(x + 1) / gs(x) = a (1 - b q^x) / (1 - q^(x+1)), the weight ratio
    # that structural_groundstate_product and the certificates read
    for p in (pj, pl, pj.shift(tilde=2), pji):
        q, b = p.q, p.b if p.family == Family.LQ_JACOBI else 0
        for x in range(12):
            ratio = p.a * (1 - b * q ** x) / (1 - q ** (x + 1))
            assert groundstate_sq(x + 1, p) == groundstate_sq(x, p) * ratio, x


# ---------------------------------------------------------------------------
# orthogonality
# ---------------------------------------------------------------------------


def test_orthogonality_base_system(pj):
    p0 = Params(Family.LQ_JACOBI, Q, A, B, CType.TYPE_II, dmax=0)
    checks = orthogonality_check(IndexSet.of(), p0, 3)
    assert all(c.status == "pass" for c in checks)


def test_orthogonality_deformed(pj, pl):
    for p, d in ((pj, IndexSet.of(2)), (pl, IndexSet.of(1, 2))):
        checks = orthogonality_check(d, p, 3)
        assert checks and all(c.status == "pass" for c in checks)
        names = {c.name for c in checks}
        assert "ortho_absolute_s00" in names
        assert "ortho_diag_ratio_n1" in names


def test_orthogonality_type_i(pji, pli):
    for p in (pji, pli):
        checks = orthogonality_check(IndexSet.of(1, 2), p, 2)
        assert checks and all(c.status == "pass" for c in checks)


def test_orthogonality_rejects_bad_eps(pj):
    # eps is read by no check, but the suite still refuses a nonpositive one
    with pytest.raises(InvalidParamsError):
        run_suite(IndexSet.of(2), pj, 2, eps=F(0), suites=("ortho",))


@pytest.mark.parametrize("dset, p", [
    ((1, 3, 5, 7), Params(Family.LQ_JACOBI, Q, A, F(1, 4096), CType.TYPE_II, dmax=7)),
    ((2, 3, 4), Params(Family.LQ_JACOBI, Q, F(1, 64), F(1, 3), CType.TYPE_I, dmax=4)),
    ((1, 2), Params(Family.LQ_LAGUERRE, Q, A, 0, CType.TYPE_II, dmax=2)),
    ((1, 2), Params(Family.LQ_LAGUERRE, Q, F(1, 10), 0, CType.TYPE_I, dmax=2)),
    ((1, 2), Params(Family.LQ_JACOBI, F(3, 5), A, F(1, 50), CType.TYPE_II, dmax=2)),
    ((2,), Params(Family.LQ_JACOBI, F(1, 4), F(3, 7), F(11, 832), CType.TYPE_II, dmax=2)),
], ids=["deep", "type1", "laguerre", "laguerre-type1", "q=3/5", "q=1/4"])
def test_absolute_target_matches_the_undeformed_partial_sums(dset, p):
    # T = S_00 / S''_00, S_00 = sum_x gs(x; lambda) / deformed_norm_sq(D, 0)
    # and S''_00 = sum_x gs(x; lambda + M tilde + delta), each summed here in
    # Fractions to x = 150, where the remainders are far below 1e-40
    d = IndexSet.of(*dset)

    def total(pp):
        out, gs = F(0), F(1)
        for x in range(151):
            out += gs
            gs *= pp.a * (1 - pp.b * pp.q ** x) / (1 - pp.q ** (x + 1))
        return out

    target = OrthogonalityData(d, p, 0).absolute_ratio()[0]
    want = total(p) / total(p.shift(tilde=d.size, delta=1)) / deformed_norm_sq(d, 0, p)
    assert abs(target / want - 1) < F(1, 10 ** 40)


@given(certificate_points())
@settings(max_examples=40, deadline=None)
def test_absolute_s00_ratio_row(point):
    p, d = point
    data = OrthogonalityData(d, p, 0)
    target, cert = data.absolute_ratio()
    assert cert.ok and data.certify(_absolute_row(data, target)).ok
    # a target off by a relative 1e-12 has no certificate
    assert not data.certify(_absolute_row(data, target * (1 + F(1, 10 ** 12)))).ok


# ---------------------------------------------------------------------------
# zeros
# ---------------------------------------------------------------------------


def test_zeros_counts_battery(pj, pl):
    for p, d in ((pj, IndexSet.of(2)), (pj, IndexSet.of(1, 2)), (pl, IndexSet.of(1, 2))):
        for n in range(4):
            rep = zeros_report(d, n, p)
            assert rep["physical"] == n
            assert rep["unphysical"] == d.degree_offset
            assert rep["interlaced_with_next"]


def test_zeros_total_count_is_degree(pj):
    d = IndexSet.of(1, 2)
    for n in range(4):
        roots = polynomial_roots(d, n, pj)
        assert len(roots) == d.degree_offset + n


def test_zeros_lowest_level_all_unphysical(pj):
    rep = zeros_report(IndexSet.of(2), 0, pj)
    assert rep["physical"] == 0 and rep["unphysical"] == 2


def _counting_levels(monkeypatch, fail_at=None):
    isolate, levels = verify._level_zeros, []

    def counted(poly, n):
        levels.append(n)
        if n == fail_at:
            raise RootFindingFailureError("forced at level %d" % n)
        return isolate(poly, n)

    monkeypatch.setattr(verify, "_level_zeros", counted)
    return levels


def test_zeros_suite_root_finds_each_level_once(pj, monkeypatch):
    levels = _counting_levels(monkeypatch)
    polyroots_calls = []
    monkeypatch.setattr(mpmath, "polyroots", lambda *a, **k: polyroots_calls.append(a))
    rep = run_suite(IndexSet.of(1, 2), pj, nmax=3, suites=("zeros",))
    assert levels == [0, 1, 2, 3, 4]  # nmax + 2 levels, each once
    assert polyroots_calls == []  # counts and interlacing are exact
    assert [c.name for c in rep.checks] == ["zeros_n%d" % n for n in range(4)]
    assert rep.overall == "pass"


def test_zeros_suite_keeps_levels_below_a_root_finding_failure(pj, monkeypatch):
    _counting_levels(monkeypatch, fail_at=3)
    rep = run_suite(IndexSet.of(1, 2), pj, nmax=4, suites=("zeros",))
    assert [(c.name, c.status) for c in rep.checks] == [
        ("zeros_n0", "pass"),
        ("zeros_n1", "pass"),
        ("zeros_rootfinding", "fail"),
    ]


def _float_report(d, n, p):
    """The float route the exact one replaced: polyroots values, a zero is
    physical when |imag| < 1e-20 and 0 <= real < 1, strict < interlacing."""
    def level(k):
        roots = polynomial_roots(d, k, p)
        phys = sorted(float(r.real) for r, _ in roots if abs(r.imag) < 1e-20 and 0 <= r.real < 1)
        return phys, len(roots) - len(phys), [int(ok) for _, ok in roots]
    (phys, unphys, flags), (nxt, _, _) = level(n), level(n + 1)
    interlaced = len(nxt) == len(phys) + 1 and all(
        nxt[i] < z < nxt[i + 1] for i, z in enumerate(phys)
    )
    return {"physical": len(phys), "unphysical": unphys, "interlaced_with_next": interlaced}, flags


@st.composite
def zero_points(draw):
    """A random valid point of either family and type with an index set, its
    b optionally moved next to a coincidence b = q^j or b = a q^m."""
    family, ctype = draw(st.sampled_from(Family)), draw(st.sampled_from(CType))
    p = _random_valid_params(random.Random(draw(st.integers(0, 10 ** 6))), family, ctype, 2)
    near = draw(st.sampled_from(("none", "q^j", "a q^m")))
    if family == Family.LQ_JACOBI and near != "none":
        j = draw(st.integers(0, 3)) + (3 if ctype == CType.TYPE_II else 1)
        delta = F(draw(st.sampled_from((-1, 1))), draw(st.integers(10, 10 ** 6)))
        b = (p.q ** j if near == "q^j" else p.a * p.q ** j) * (1 + delta)
        try:
            p = Params(family, p.q, p.a, b, ctype, 2)
        except InvalidParamsError:
            assume(False)
    return p, draw(st.sampled_from((IndexSet.of(1), IndexSet.of(2), IndexSet.of(1, 2))))


@given(zero_points())
@settings(max_examples=40, deadline=None)
def test_exact_zeros_match_float_route(point):
    p, d = point
    for n in range(4):
        try:
            exact = zeros_report(d, n, p)
            expected, flags = _float_report(d, n, p)
        except LittleQError:
            assume(False)
        assert exact == expected
        assert sum(flags) == exact["physical"]
        assert exact["physical"] + exact["unphysical"] == level_poly(d, n, p).degree


@pytest.mark.parametrize("dset, p, n", [
    ((1, 3, 5, 7), Params(Family.LQ_JACOBI, Q, A, F(1, 4096), CType.TYPE_II, dmax=7), 7),
    ((1, 3, 5, 7), Params(Family.LQ_JACOBI, Q, A, F(1, 4096), CType.TYPE_II, dmax=7), 8),
    ((2, 3, 4), Params(Family.LQ_JACOBI, Q, F(1, 64), F(1, 3), CType.TYPE_I, dmax=4), 8),
])
def test_zeros_interlace_where_floats_collide(dset, p, n):
    # zeros of levels n and n+1 differ by < 1e-18 near eta = 1/2 and 3/4,
    # which a float comparison cannot tell apart
    rep = zeros_report(IndexSet.of(*dset), n, p)
    assert rep["physical"] == n and rep["interlaced_with_next"]


def test_repeated_zero_is_reported_not_bisected_forever():
    with pytest.raises(RootFindingFailureError, match="no proof that its zeros are simple"):
        verify._level_zeros(EtaPoly(Q, (-1, 4, -4)), 5)  # -(2 eta - 1)^2


@pytest.mark.parametrize("lower, upper, interlaced", [
    ((3, -16, 16), (0, 7, -22, 16), True),  # 1/4, 3/4 | 0, 1/2, 7/8: exact zeros
    ((2, -9, 9), (0, 5, -16, 12), True),  # 1/3, 2/3 | 0, 1/2, 5/6
    ((2, -9, 9), (0, 4, -25, 25), False),  # 1/3, 2/3 | 0, 1/5, 4/5
    ((1, -6, 8), (0, 3, -10, 8), False),  # 1/4, 1/2 | 0, 1/2, 3/4: 1/2 shared
    ((2, -9, 9), (0, 5, -21, 18), False),  # 1/3, 2/3 | 0, 1/3, 5/6: 1/3 shared
])
def test_exact_interlacing_verdict(lower, upper, interlaced):
    level = verify._level_zeros(EtaPoly(Q, lower), 1)
    assert verify._interlaced(level, verify._level_zeros(EtaPoly(Q, upper), 2)) is interlaced


_DYADIC = (F(0), F(1, 2), F(3, 4), F(1, 4), F(5, 8))
_OUTSIDE = (F(-2), F(-1, 3), F(1), F(5, 4), F(7, 3))
# irreducible, lowest degree first: x^2 - x + 1, 3x^2 - 2x + 1, 5x^2 + 4x + 2
_QUADRATICS = ((1, -1, 1), (1, -2, 3), (2, 4, 5))


@st.composite
def physical_roots(draw, min_size=0, max_size=5):
    """Distinct rationals in [0, 1): dyadic points, small denominators, and
    partners closer than 2^-80 to some of them."""
    roots = draw(st.lists(
        st.sampled_from(_DYADIC) | st.fractions(0, 1, max_denominator=60).filter(lambda r: r < 1),
        min_size=min_size, max_size=max_size, unique=True))
    for r in draw(st.lists(st.sampled_from(roots), unique=True)) if roots else ():
        roots.append(r + F(1, draw(st.sampled_from((2 ** 81, 3 * 2 ** 80, 2 ** 80 + 1)))))
    return roots


def _with_roots(roots, quadratic=()):
    """Integer coefficients, lowest degree first, of the product of
    (den x - num) over the roots and the quadratic."""
    a = [1]
    for f in [(-r.numerator, r.denominator) for r in roots] + [quadratic] * bool(quadratic):
        out = [0] * (len(a) + len(f) - 1)
        for i, u in enumerate(a):
            for j, v in enumerate(f):
                out[i + j] += u * v
        a = out
    return a


def _isolates(iv, r):
    """Whether [lo/2^k, hi/2^k] holds r strictly inside, or is the exact zero r."""
    lo, hi, k, _ = iv
    return r == F(lo, 2 ** k) if lo == hi else F(lo, 2 ** k) < r < F(hi, 2 ** k)


@given(physical_roots(), st.lists(st.sampled_from(_OUTSIDE), unique=True),
       st.sampled_from(((),) + _QUADRATICS))
@settings(max_examples=60, deadline=None)
def test_isolation_gives_one_interval_per_physical_root(roots, outside, quadratic):
    a = _with_roots(roots + outside, quadratic)
    # the counter bounds, with the same parity, the zeros on any interval, here (0, 4/3)
    inside = sum(0 < r < F(4, 3) for r in roots + outside)
    count = verify._descartes(a, 0, 4, 3)
    assert count >= inside and (count - inside) % 2 == 0
    _, intervals = verify._level_zeros(EtaPoly(Q, a), 1)
    assert len(intervals) == len(roots)
    for iv, r in zip(intervals, sorted(roots)):
        assert _isolates(iv, r) and iv[1] - iv[0] in (0, 1)
        for _ in range(3):  # halving keeps the zero inside
            if iv[0] < iv[1]:
                verify._bisect(a, iv)
            assert _isolates(iv, r)


@given(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=2, max_size=9).filter(lambda a: a[-1]),
       st.sampled_from((0, 0, 1, 5, 2 ** 40)), st.integers(1, 2 ** 70), st.integers(1, 2 ** 70))
@settings(max_examples=60, deadline=None)
def test_descartes_matches_the_explicit_shift(a, lo, width, den):
    # the count on (lo/den, hi/den) against its definition with the Taylor
    # shift by lo always done, which is the identity at lo = 0
    deg, hi = len(a) - 1, lo + width
    scaled = [c * den ** (deg - i) for i, c in enumerate(a)]
    b = verify._taylor_shift(scaled, lo)
    assert lo or b == scaled
    b = verify._taylor_shift([c * width ** i for i, c in enumerate(b)][::-1], 1)
    signs = [c > 0 for c in b if c]
    assert verify._descartes(a, lo, hi, den) == sum(s != t for s, t in zip(signs, signs[1:]))


def _isolate_from_scratch(a, lo, hi, k):
    """The reference bisection: _isolate with each count by _descartes on a
    itself, over (lo/2^k, hi/2^k), and each midpoint by Horner on a."""
    count = verify._descartes(a, lo, hi, 1 << k)
    if count < 2:
        return [[lo, hi, k, None]] * count
    mid, k = lo + hi, k + 1
    exact = [] if horner(a, mid, 1 << k)[0] else [[mid, mid, k, None]]
    return _isolate_from_scratch(a, 2 * lo, mid, k) + exact + _isolate_from_scratch(a, mid, 2 * hi, k)


# 2x - 1, 4x - 3, x and the close pair 1/2, 1/2 + 2^-61 (CLOSE_PAIR below)
_FACTORS = ((-1, 2), (-3, 4), (0, 1), (-(2 ** 60) - 1, 2 ** 61))


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=9).filter(lambda a: a[-1]),
       st.lists(st.sampled_from(_FACTORS), max_size=4, unique=True))
@settings(max_examples=150, deadline=None)
def test_inherited_isolation_matches_the_reference(a, factors):
    # squarefree integer polynomials of degree <= 12, with dyadic zeros, a zero at 0 and a
    # close pair: the same intervals, in the same order, as counting on a each time
    a = _product(a, *factors)
    assume(len(a) > 1 and verify._coprime(a, [i * c for i, c in enumerate(a)][1:]))
    assert verify._isolate(a, 0, 0) == _isolate_from_scratch(a, 0, 1, 0)


def _sweep_pool_points():
    refs = json.loads((Path(__file__).resolve().parent.parent / "qbench" / "refs.json").read_text())
    for argv in (argv for cell in refs["sweep_pool"].values() for argv in cell):
        cfg = config_from_args(build_parser().parse_args(["zeros"] + argv))
        yield cfg.index_set(), cfg.params()


def test_inherited_isolation_matches_the_reference_on_workload_levels():
    points = [(DEEP_D, DEEP_P), (TYPE1_D, TYPE1_P)] + list(_sweep_pool_points())
    for d, p in points:
        for n in range(6):
            a, intervals = verify._level_zeros(level_poly(d, n, p), n)
            assert intervals[a[0] == 0:] == _isolate_from_scratch(a, 0, 1, 0)


@st.composite
def interlacing_cases(draw):
    """Roots of a level and of the next: physical roots dealt out in turn,
    so that they interlace when there is an odd number, then perhaps one of
    each level exchanged, or one of the next level shared; each level gets
    roots outside [0, 1), perhaps shared, and at most one gets a quadratic."""
    m = draw(st.integers(0, 3))
    ordered = sorted(draw(physical_roots(2 * m + 1, 2 * m + 1)))
    upper, lower = ordered[::2], ordered[1::2]
    change = draw(st.sampled_from(("none", "exchange", "share")))
    if change == "exchange" and lower:
        upper.append(lower.pop(draw(st.integers(0, len(lower) - 1))))
        lower.append(upper.pop(draw(st.integers(0, len(upper) - 2))))
    elif change == "share" and lower:
        lower[draw(st.integers(0, len(lower) - 1))] = draw(st.sampled_from(upper))
    outside = st.lists(st.sampled_from(_OUTSIDE), max_size=2, unique=True)
    quads = draw(st.sampled_from((((), ()), (_QUADRATICS[0], ()), ((), _QUADRATICS[1]))))
    return (lower, draw(outside), quads[0]), (upper, draw(outside), quads[1])


@given(interlacing_cases())
@settings(max_examples=60, deadline=None)
def test_interlacing_verdict_matches_the_sorted_roots(case):
    (lower, out_lower, quad_lower), (upper, out_upper, quad_upper) = case
    level = verify._level_zeros(EtaPoly(Q, _with_roots(lower + out_lower, quad_lower)), 1)
    nxt = verify._level_zeros(EtaPoly(Q, _with_roots(upper + out_upper, quad_upper)), 2)
    lo, up = sorted(lower), sorted(upper)
    shared = set(lower + out_lower) & set(upper + out_upper)  # not coprime: not interlaced
    want = not shared and len(up) == len(lo) + 1 and all(
        up[i] < z < up[i + 1] for i, z in enumerate(lo))
    assert verify._interlaced(level, nxt) is want
    for (_, intervals), roots in ((level, lo), (nxt, up)):  # refined in place, still isolating
        assert len(intervals) == len(roots) and all(map(_isolates, intervals, roots))


def test_physical_flag_goes_to_the_real_root(pj, monkeypatch):
    # (3 eta - 1)(100 eta^2 - 60 eta + 10): the real zero 1/3 and the pair
    # 0.3 +- 0.1i, whose real part lies in the isolating interval of 1/3
    monkeypatch.setattr(verify, "level_poly", lambda d, n, p: EtaPoly(Q, (-10, 90, -280, 300)))
    roots = polynomial_roots(IndexSet.of(2), 1, pj)
    assert [(abs(r.imag) < 1e-60, ok) for r, ok in roots] == [
        (False, False), (False, False), (True, True)
    ]


def test_zeros_deterministic(pj):
    r1 = polynomial_roots(IndexSet.of(2), 3, pj)
    r2 = polynomial_roots(IndexSet.of(2), 3, pj)
    assert [(str(a), b) for a, b in r1] == [(str(a), b) for a, b in r2]


def _root_strings(roots):
    return [(nstr(r.real, 77), nstr(r.imag, 77), ok) for r, ok in roots]


def _mpc(r):
    # the root as mpmath holds it: exact at any precision of at least the root's own
    assert isinstance(r, Root) and all(type(x) is F and x.denominator & (x.denominator - 1) == 0
                                       for x in r)
    return mpmath.mpc(*(mpmath.mpf(x.numerator) / x.denominator for x in r))


def _assert_accurate(roots, d, n, p, prec_bits):
    # every root within 2^(4 - prec_bits) max(1, |r|) of a root of the exact
    # integer numerator found at four times the precision
    with mpmath.workprec(4 * prec_bits):
        ref = mpmath.polyroots(level_poly(d, n, p).num[::-1], maxsteps=400,
                               extraprec=4 * prec_bits)
        for r in (_mpc(r) for r, _ in roots):
            err = min(abs(r - z) for z in ref)
            assert err <= mpmath.ldexp(max(1, abs(r)), 4 - prec_bits), (r, err)


@pytest.mark.parametrize("prec_bits", [128, 256])
@pytest.mark.parametrize("dset, p", [
    ((1, 3, 5, 7), Params(Family.LQ_JACOBI, Q, A, F(1, 4096), CType.TYPE_II, dmax=7)),
    ((2, 3, 4), Params(Family.LQ_JACOBI, Q, F(1, 64), F(1, 3), CType.TYPE_I, dmax=4)),
], ids=["deep", "type1"])
def test_roots_accurate_to_the_requested_precision(dset, p, prec_bits):
    # level 8 has zeros within 1e-18 of each other near eta = 1/2 and 3/4;
    # roots of a copy rounded to prec_bits lose up to 30 bits there
    d = IndexSet.of(*dset)
    _assert_accurate(polynomial_roots(d, 8, p, prec_bits), d, 8, p, prec_bits)


@given(zero_points(), st.integers(0, 6))
@settings(max_examples=30, deadline=None)
def test_float_start_leaves_roots_unchanged(point, n):
    # the same 77-digit values and physical flags (or the same error) as
    # from mpmath's own start
    p, d = point
    outcomes, roots = [], None
    for start in (verify._float_roots, lambda poly: None):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verify, "_float_roots", start)
            try:
                roots = polynomial_roots(d, n, p)
                outcomes.append(_root_strings(roots))
            except LittleQError as exc:
                outcomes.append(type(exc))
    assert outcomes[0] == outcomes[1]
    if roots is not None:
        _assert_accurate(roots, d, n, p, 256)


def test_float_start_gives_up_on_overflow():
    assert verify._float_roots(EtaPoly(Q, (10 ** 400, 3, 1))) is None
    # zeros -1.5 +- 1e150 i, whose squares are still doubles: the Newton
    # polygon starts them on their circle
    roots = sorted(verify._float_roots(EtaPoly(Q, (10 ** 300, 3, 1))), key=lambda z: z.imag)
    assert all(abs(z - w) < 1e-12 * abs(w) for z, w in zip(roots, (-1.5 - 1e150j, -1.5 + 1e150j)))
    roots = sorted(verify._float_roots(EtaPoly(Q, (2 * 10 ** 20, -3 * 10 ** 20, 10 ** 20))), key=abs)
    assert max(abs(roots[0] - 1), abs(roots[1] - 2)) < 1e-12


def _dk_doubles(num):
    """The doubles loop _float_roots ran before its Aberth-Ehrlich start:
    Durand-Kerner on the coefficients num (lowest degree first) from
    (0.4 + 0.9i)^j until the largest correction over max(1, |z|) is below
    1e-6 and stops halving (at most 100 sweeps).  Returns (roots, sweeps)."""
    roots = [(0.4 + 0.9j) ** k for k in range(len(num) - 1)]
    prev = math.inf
    monic = [c / num[-1] for c in reversed(num)]
    for sweeps in range(1, 101):
        big = 0.0
        for i, z in enumerate(roots):
            acc = 0j
            for c in monic:
                acc = acc * z + c
            for j, w in enumerate(roots):
                if j != i:
                    acc /= z - w
            roots[i] = z - acc
            big = max(big, abs(acc) / max(1.0, abs(z)))
        if big < 1e-6 and big >= prev / 2:
            break
        prev = big
    return roots, sweeps


def _eta_float_roots(poly):
    """The reference start: the Durand-Kerner loop run on poly's own
    coefficients in eta, unflipped."""
    return _dk_doubles(poly.num)[0]


def _dk_float_roots(poly):
    """The reference start the Newton polygon replaced: the Durand-Kerner
    loop in y = 1 - eta, returned in eta, and the sweeps it ran."""
    roots, sweeps = _dk_doubles(_one_minus(poly.num))
    return [1 - z for z in roots], sweeps


def _aberth_sweeps(poly):
    """_float_roots(poly) and the number of Aberth-Ehrlich sweeps it ran."""
    calls, sweep = [], verify._aberth_sweep
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "_aberth_sweep", lambda *args: calls.append(args) or sweep(*args))
        return verify._float_roots(poly), len(calls)


@pytest.mark.parametrize("d, p", [(DEEP_D, DEEP_P), (TYPE1_D, TYPE1_P)], ids=["deep", "type1"])
def test_newton_polygon_start_needs_no_more_doubles_sweeps_than_durand_kerner(d, p):
    # level 8: 9 Aberth sweeps against 29 (deep) and 24 (type1)
    for n in range(9):
        poly = level_poly(d, n, p)
        start, sweeps = _aberth_sweeps(poly)
        assert start is not None and sweeps <= _dk_float_roots(poly)[1]


@pytest.mark.parametrize("d, p", [(DEEP_D, DEEP_P), (TYPE1_D, TYPE1_P)], ids=["deep", "type1"])
def test_float_start_in_y_needs_no_more_sweeps_than_in_eta(d, p):
    # the physical zeros crowd toward eta = 1, where the eta start places them
    # only to about 2^-25; in y = 1 - eta they are 2^-1 .. 2^-8
    for n in range(9):
        poly = level_poly(d, n, p)
        start = verify._float_roots(poly)
        assert start is not None and _one_minus(_one_minus(poly.num)) == list(poly.num)
        y_sweeps, eta_sweeps = (len(_sweeps(poly.num, s, 256)[0])
                                for s in (start, _eta_float_roots(poly)))
        assert y_sweeps <= eta_sweeps


def _product(*factors):
    """The integer coefficients, lowest degree first, of a product of factors
    given the same way."""
    num = [1]
    for factor in factors:
        num = [sum(num[i] * factor[k - i] for i in range(len(num)) if 0 <= k - i < len(factor))
               for k in range(len(num) + len(factor) - 1)]
    return num


# (2 eta - 1)(2^61 eta - 2^60 - 1): zeros 1/2 and 1/2 + 2^-61, closer than
# doubles can tell apart
CLOSE_PAIR = ((-1, 2), (-(2 ** 60) - 1, 2 ** 61))


def test_float_start_separates_a_close_pair():
    # the close pair times (eta + 3)(eta^2 + 1)
    num = _product(*CLOSE_PAIR, (3, 1), (1, 0, 1))
    poly = EtaPoly(Q, num)
    init = verify._float_roots(poly)
    assert init is not None and len(init) == 5
    with mpmath.workprec(256):
        coeffs = [mpmath.mpf(c) for c in reversed(num)]
        runs = [mpmath.polyroots(coeffs, maxsteps=200, extraprec=256, roots_init=r)
                for r in (init, None)]
        seeded, unseeded = (sorted((mpmath.nstr(z.real, 77), mpmath.nstr(z.imag, 77))
                                   for z in roots) for roots in runs)
        assert seeded == unseeded
        pair = sorted(z.real for z in runs[0] if abs(z - 0.5) < 1e-10)
        assert len(pair) == 2 and abs(pair[1] - pair[0] - mpmath.mpf(2) ** -61) < mpmath.mpf(2) ** -200


def test_polynomial_roots_runs_integer_durand_kerner_from_the_float_start(pj, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("mpmath.polyroots called")

    calls, durand_kerner = [], verify._durand_kerner

    def counted(a, start, prec_bits):
        calls.append((a, start, prec_bits))
        return durand_kerner(a, start, prec_bits)

    monkeypatch.setattr(mpmath, "polyroots", refuse)
    monkeypatch.setattr(verify, "_durand_kerner", counted)
    roots = polynomial_roots(IndexSet.of(2), 3, pj)
    poly = level_poly(IndexSet.of(2), 3, pj)
    assert len(calls) == 1
    a, start, prec_bits = calls[0]
    # the exact integer numerator, not a rounded copy, from the doubles start
    assert a == poly.num and all(type(c) is int for c in a)
    assert start is not None and start == verify._float_roots(poly)
    assert len(start) == len(roots) and prec_bits == 256


@pytest.mark.parametrize("factors, prec_bits", [
    # zeros near 2^-300 and 2^300; at 512 bits the small one is printed
    (((-1, 3 * 2 ** 300), (-(2 ** 302), 3)), 512),
    # a zero at 0, and one near -2^-300 that is below 2^-255 and so cleared to 0
    (((0, 1), (1, 3 * 2 ** 300), (-(2 ** 302), 3)), 256),
], ids=["small-512", "zero-256"])
def test_roots_keep_their_digits_from_2_to_the_minus_300_to_2_to_the_300(
        factors, prec_bits, pj, monkeypatch):
    # with the close pair and +-i besides; the zero near 2^300 overflows the
    # doubles start, so the integer loop starts from mpmath's own
    poly = EtaPoly(Q, _product(*factors, *CLOSE_PAIR, (1, 0, 1)))
    assert verify._float_roots(poly) is None
    monkeypatch.setattr(verify, "level_poly", lambda d, n, p: poly)
    roots = polynomial_roots(IndexSet.of(1), 0, pj, prec_bits)
    with mpmath.workprec(prec_bits):
        ref = [mpmath.mpc(z) for z in mpmath.polyroots(poly.num[::-1], maxsteps=400, extraprec=512)]
    assert sorted(s[:2] for s in _root_strings(roots)) == sorted(
        tuple(mpmath.nstr(x, 77, strip_zeros=False) for x in (z.real, z.imag)) for z in ref)
    # three physical zeros: the close pair, and the small zero or 0
    flagged = [r for r, ok in roots if ok]
    assert len(flagged) == 3 and all(0 <= r.real < 1 and r.imag == 0 for r in flagged)


def test_sweep_limit_exits_1_with_a_root_finding_failure(monkeypatch, capsys):
    # 0 and 2^-300 / 3 stay one cluster from mpmath's start: at 512 bits they
    # need about 225 sweeps to part, past the limit of 200
    poly = EtaPoly(Q, _product((0, 1), (-1, 3 * 2 ** 300), (-(2 ** 302), 3), *CLOSE_PAIR, (1, 0, 1)))
    monkeypatch.setattr(verify, "level_poly", lambda d, n, p: poly)
    assert main(["zeros", "--prec-bits", "512"]) == 1
    assert capsys.readouterr().err == "error: Durand-Kerner did not converge in 200 sweeps\n"


def test_root_off_the_polynomial_exits_1_with_its_value(monkeypatch, capsys):
    # every root placed at 1, which is no zero of the default level: the
    # backward-error test refuses the first and names it
    monkeypatch.setattr(verify, "_durand_kerner", lambda a, start, prec_bits: (
        [[1 << 300, 0] for _ in a[1:]], 300))
    assert main(["zeros"]) == 1
    assert capsys.readouterr().err == (
        "error: root residual above tolerance at (1.00000000000000, 0.0)\n")


def _residual_fails(poly, z, k, prec_bits):
    """The backward-error test of polynomial_roots as the full squared
    comparison, for the root z = [re, im] over 2^k rounded as it rounds it."""
    r = Root(*(round_bits(F(c, 1 << k), prec_bits) for c in z))
    s = max(r.real.denominator, r.imag.denominator).bit_length() - 1
    u, v = (int(x * (1 << s)) for x in r)
    rho, pr, pi, bound = math.isqrt(u * u + v * v), 0, 0, 0
    for j, c in enumerate(reversed(poly.num)):
        pr, pi = pr * u - pi * v + (c << j * s), pr * v + pi * u
        bound = bound * rho + (abs(c) << j * s)
    return (pr * pr + pi * pi) << 2 * (prec_bits - 8) > bound * bound


@given(zero_points(), st.integers(0, 6), st.sampled_from(("real", "complex")),
       st.integers(0, 99), st.sampled_from((0.25, 1, 3)))
@settings(max_examples=40, deadline=None)
def test_residual_verdict_is_the_full_comparisons(point, n, kind, pick, log2_ratio):
    # one root moved along the real axis so that |P| lands near 2^-log2_ratio
    # and 2^log2_ratio times the tolerance: polynomial_roots raises exactly
    # when the full squared comparison fails for some root
    p, d = point
    try:
        polynomial_roots(d, n, p)
    except LittleQError:
        assume(False)
    poly = level_poly(d, n, p)
    found, k = verify._durand_kerner(poly.num, verify._float_roots(poly), 256)
    which = [i for i, (_, im) in enumerate(found) if (im == 0) == (kind == "real")]
    assume(which)
    i = which[pick % len(which)]
    with mpmath.workprec(2 * k):
        r = mpmath.mpc(*(mpmath.ldexp(x, -k) for x in found[i]))
        slope = abs(mpmath.polyval([j * c for j, c in enumerate(poly.num)][:0:-1], r))
        tol = mpmath.ldexp(sum(abs(c) * abs(r) ** j for j, c in enumerate(poly.num)), 8 - 256)
        steps = [int(mpmath.ldexp(mpmath.mpf(2) ** (e * log2_ratio) * tol / slope, k))
                 for e in (-1, 1)]
    for step in steps:
        moved = [list(z) for z in found]
        moved[i][0] += step
        fails = any(_residual_fails(poly, z, k, 256) for z in moved)
        if log2_ratio >= 1:  # the move lands on the side it aims at
            assert fails == (step == steps[1])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verify, "_durand_kerner", lambda a, start, prec_bits: (moved, k))
            if fails:
                with pytest.raises(RootFindingFailureError, match="root residual above tolerance"):
                    polynomial_roots(d, n, p)
            else:
                assert len(polynomial_roots(d, n, p)) == poly.degree


def _counted_exact_residuals(mp):
    """Patches verify._residual_exact to count its calls in the returned list."""
    calls, exact = [], verify._residual_exact
    mp.setattr(verify, "_residual_exact", lambda *args: calls.append(args) or exact(*args))
    return calls


@given(zero_points(), st.integers(0, 6), st.sampled_from(("real", "complex")),
       st.integers(0, 99), st.sampled_from((2 ** -40, 0.25, 1, 3)))
@settings(max_examples=40, deadline=None)
def test_fixed_point_residual_never_passes_a_rejected_root(point, n, kind, pick, log2_ratio):
    # one root moved so that |P| lands near 2^-log2_ratio and 2^log2_ratio
    # times the tolerance, as in test_residual_verdict_is_the_full_comparisons:
    # a pass in fixed point alone (the exact fallback refusing) implies a pass
    # of the full squared comparison
    p, d = point
    poly = level_poly(d, n, p)
    try:
        found, k = verify._durand_kerner(poly.num, verify._float_roots(poly), 256)
    except LittleQError:
        assume(False)
    which = [i for i, (_, im) in enumerate(found) if (im == 0) == (kind == "real")]
    assume(which)
    i = which[pick % len(which)]
    with mpmath.workprec(2 * k):
        r = mpmath.mpc(*(mpmath.ldexp(x, -k) for x in found[i]))
        slope = abs(mpmath.polyval([j * c for j, c in enumerate(poly.num)][:0:-1], r))
        tol = mpmath.ldexp(sum(abs(c) * abs(r) ** j for j, c in enumerate(poly.num)), 8 - 256)
        steps = [int(mpmath.ldexp(mpmath.mpf(2) ** (e * log2_ratio) * tol / slope, k))
                 for e in (-1, 1)]
    for step in steps:
        z = [found[i][0] + step, found[i][1]]
        root = Root(*(round_bits(F(c, 1 << k), 256) for c in z))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(verify, "_residual_exact", lambda *args: False)
            fixed = verify._residual_small(poly.num, *_fixed(root), 256)
        assert not fixed or not _residual_fails(poly, z, k, 256)


@pytest.mark.parametrize("prec_bits", [128, 256])
def test_root_just_inside_the_tolerance_reaches_the_exact_test(prec_bits, pj, monkeypatch):
    # eta - 1 at r = 1 + 2^-s, s = prec_bits - 9: 2^(prec_bits - 8) |r - 1| =
    # 2 <= 2 + 2^-s, the tolerance, with no room for the fixed-point error;
    # one step further out, r = 1 + 2^(1 - s), is refused
    monkeypatch.setattr(verify, "level_poly", lambda d, n, p: EtaPoly(Q, (-1, 1)))
    s = prec_bits - 9
    calls = _counted_exact_residuals(monkeypatch)
    for e, ok in ((0, True), (1, False)):
        monkeypatch.setattr(verify, "_durand_kerner", lambda a, start, prec: (
            [[(1 << s) + (1 << e), 0]], s))
        if ok:
            assert [r.real for r, _ in polynomial_roots(IndexSet.of(1), 1, pj, prec_bits)] == [
                1 + F(1, 1 << s)]
        else:
            with pytest.raises(RootFindingFailureError, match="root residual above tolerance"):
                polynomial_roots(IndexSet.of(1), 1, pj, prec_bits)
    assert len(calls) == 2


def test_fixed_point_residual_decides_every_deep_root(monkeypatch):
    # level 8 of deep: 18 roots, zeros within 1e-18 of each other, no exact fallback
    calls = _counted_exact_residuals(monkeypatch)
    assert len(polynomial_roots(DEEP_D, 8, DEEP_P)) == 18 and calls == []


def _fixed_scale_durand_kerner(a, start, prec_bits):
    """The reference loop: _durand_kerner with every sweep at the full scale
    k, then the same stopping test, cleanup and order."""
    low = next(abs(c) for c in a if c)
    k = 2 * prec_bits + 64 + ((low + max(map(abs, a))) // low).bit_length()
    tol, monic = 1 << (k + 1 - prec_bits), [(c << k) // a[-1] for c in reversed(a)]
    roots = [[(n << k) // d for n, d in map(float.as_integer_ratio, (z.real, z.imag))]
             for z in start or [(0.4 + 0.9j) ** j for j in range(len(a) - 1)]]
    for _ in range(200):
        if verify._dk_sweep(roots, monic, k) < tol * tol:
            break
    else:
        raise RootFindingFailureError("Durand-Kerner did not converge in 200 sweeps")
    for r in roots:
        if r[0] * r[0] + r[1] * r[1] < tol * tol:
            r[:] = 0, 0
        elif min(map(abs, r)) < tol:
            r[abs(r[1]) < tol] = 0
    roots.sort(key=lambda r: (abs(r[1]), r[0]))
    return roots, k


def _scheduled_and_fixed(d, n, p):
    """polynomial_roots as 77-digit strings and flags (or the error type),
    from the doubles start and from mpmath's own, each by the scheduled
    _durand_kerner and by the fixed-scale reference loop."""
    outcomes = []
    for start in (verify._float_roots, lambda poly: None):
        for durand_kerner in (verify._durand_kerner, _fixed_scale_durand_kerner):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(verify, "_float_roots", start)
                mp.setattr(verify, "_durand_kerner", durand_kerner)
                try:
                    outcomes.append(_root_strings(polynomial_roots(d, n, p)))
                except LittleQError as exc:
                    outcomes.append(type(exc))
    return outcomes


WORKLOAD_POINTS = pytest.mark.parametrize("dset, p", [
    ((1, 3, 5, 7), Params(Family.LQ_JACOBI, Q, A, F(1, 4096), CType.TYPE_II, dmax=7)),
    ((2, 3, 4), Params(Family.LQ_JACOBI, Q, F(1, 64), F(1, 3), CType.TYPE_I, dmax=4)),
], ids=["deep", "type1"])


@WORKLOAD_POINTS
@pytest.mark.parametrize("n", range(9))
def test_working_precision_leaves_workload_roots_unchanged(dset, p, n):
    # level 8 has zeros within 1e-18 of each other
    doubles, doubles_fixed, none, none_fixed = _scheduled_and_fixed(IndexSet.of(*dset), n, p)
    assert doubles == doubles_fixed and none == none_fixed
    assert isinstance(doubles, list) and len(doubles) == level_poly(IndexSet.of(*dset), n, p).degree


@given(zero_points(), st.integers(0, 6))
@settings(max_examples=30, deadline=None)
def test_working_precision_leaves_roots_unchanged(point, n):
    p, d = point
    doubles, doubles_fixed, none, none_fixed = _scheduled_and_fixed(d, n, p)
    assert doubles == doubles_fixed and none == none_fixed


def _sweeps(a, start, prec_bits):
    """The working scale kw and the good bits (2^-good the largest
    correction) of every sweep _durand_kerner runs, and its k (or its error)."""
    log, sweep = [], verify._dk_sweep

    def logged(roots, monic, kw):
        big = sweep(roots, monic, kw)
        log.append((kw, kw - (big.bit_length() + 1) // 2))
        return big

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "_dk_sweep", logged)
        try:
            return log, verify._durand_kerner(a, start, prec_bits)[1]
        except RootFindingFailureError as exc:
            return log, exc


def _assert_schedule(log, k, start, prec_bits=256):
    kws = [kw for kw, _ in log]
    assert kws == sorted(kws) and kws[-1] == k and len(log) <= 200
    goods = [20 if start else 0] + [good for _, good in log]
    for i in range(1, len(log)):
        if goods[i] <= goods[i - 1]:  # a stall: only one with good > 0 sends the next to k
            assert kws[i] == (k if goods[i] > 0 else kws[i - 1])
        elif 2 * goods[i] >= prec_bits + 8:  # one quadratic step from the stopping test
            assert kws[i] == k


@WORKLOAD_POINTS
def test_working_precision_rises_to_k_and_stays(dset, p):
    for n in range(9):
        poly = level_poly(IndexSet.of(*dset), n, p)
        for s in (verify._float_roots(poly), None):
            log, k = _sweeps(poly.num, s, 256)
            _assert_schedule(log, k, s)
            at_k = [kw == k for kw, _ in log]
            if s:  # from the doubles start, only the last sweep runs at k
                assert at_k == [False] * 3 + [True]
            else:  # mpmath's first sweep stalls with corrections >= 1, and kw stays
                assert log[0][1] <= 0 and log[1][0] == log[0][0] < k
                if n == 8:
                    assert sum(at_k) <= {(1, 3, 5, 7): 8, (2, 3, 4): 13}[dset]


def test_sweep_limit_counts_every_sweep():
    # the polynomial of test_sweep_limit_exits_1_with_a_root_finding_failure
    a = _product((0, 1), (-1, 3 * 2 ** 300), (-(2 ** 302), 3), *CLOSE_PAIR, (1, 0, 1))
    log, err = _sweeps(a, None, 512)
    assert isinstance(err, RootFindingFailureError) and len(log) == 200
    kws = [kw for kw, _ in log]
    # four sweeps at the guard bits (corrections >= 1 keep kw), 187 each
    # higher than the last, then 9 at k = 2 * 512 + guard
    assert kws == sorted(kws) and len(set(kws)) == 189
    assert kws.count(kws[0]) == 4 and kws.count(2 * 512 + kws[0]) == 9


def _fixed(r):
    """(u, v, s) with the Root r = (u + iv) / 2^s, s as small as it can be,
    read from its Fractions."""
    s = max(r.real.denominator, r.imag.denominator).bit_length() - 1
    return (*(int(x * (1 << s)) for x in r), s)


def _fraction_finish(a, zeros, found, k, prec_bits):
    """The finish polynomial_roots ran on Fractions, as the oracle of its
    dyadic one: each part of found over 2^k rounded by round_bits into a
    Root, the residual test on u, v, s read from the Fractions, and the
    physical matching on the isolating intervals as Fractions."""
    roots = [Root(*(round_bits(F(c, 1 << k), prec_bits) for c in z)) for z in found]
    for r in roots:
        if not verify._residual_small(a, *_fixed(r), prec_bits):
            raise RootFindingFailureError(
                "root residual above tolerance at (%s, %s)" % (nstr(r.real, 15), nstr(r.imag, 15)))
    physical = []
    for iv in zeros:
        lo, hi = (F(x, 1 << iv[2]) for x in iv[:2])
        if lo == hi:
            near = [((r.real - lo) ** 2 + r.imag ** 2, i) for i, r in enumerate(roots)]
        else:
            near = [(abs(r.imag), i) for i, r in enumerate(roots) if lo < r.real < hi]
        if not near or min(near)[1] in physical:
            raise RootFindingFailureError(
                "no computed root of its own in the isolating interval [%s, %s]" % (lo, hi))
        physical.append(min(near)[1])
    return sorted(((r, i in physical) for i, r in enumerate(roots)), key=lambda t: t[0])


def _assert_finishes_agree(d, n, p, alter):
    """polynomial_roots and _fraction_finish, on the same Durand-Kerner
    output after alter(found, k), give the same roots and flags or the same
    error."""
    runs, durand_kerner = [], verify._durand_kerner

    def altered(a, start, prec_bits):
        found, k = durand_kerner(a, start, prec_bits)
        if found:
            alter(found, k)
        runs.append(([list(z) for z in found], k))
        return found, k

    def oracle():
        poly = level_poly(d, n, p)
        return _fraction_finish(poly.num, verify._level_zeros(poly, n)[1], *runs[0], 256)

    outcomes = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "_durand_kerner", altered)
        for finish in (lambda: polynomial_roots(d, n, p), oracle):
            try:
                outcomes.append(finish())
            except LittleQError as exc:
                outcomes.append((type(exc), str(exc)))
            if not runs:  # refused before root finding
                return
    assert outcomes[0] == outcomes[1]
    if isinstance(outcomes[0], list):
        assert all(type(x) is F for r, _ in outcomes[0] for x in r)


def _alteration(kind, i, j, e):
    """alter(found, k): root j set to a copy of root i ("copy"), root i's real
    part moved by 2^(k - e) ("move"), or nothing ("none")."""
    def alter(found, k):
        zi, zj = found[i % len(found)], found[j % len(found)]
        if kind == "copy":
            zj[:] = zi
        elif kind == "move":
            zi[0] += 1 << max(k - e, 0)
    return alter


@WORKLOAD_POINTS
@pytest.mark.parametrize("n", range(9))
@pytest.mark.parametrize("kind", ["none", "copy"])
def test_dyadic_finish_matches_the_fraction_finish_on_the_workloads(dset, p, n, kind):
    # "copy" puts the last root over the first, a physical zero at most levels
    _assert_finishes_agree(IndexSet.of(*dset), n, p, _alteration(kind, -1, 0, 0))


@given(zero_points(), st.integers(0, 6), st.sampled_from(("none", "copy", "move")),
       st.integers(0, 99), st.integers(0, 99), st.integers(1, 300))
@settings(max_examples=40, deadline=None)
def test_dyadic_finish_matches_the_fraction_finish(point, n, kind, i, j, e):
    p, d = point
    _assert_finishes_agree(d, n, p, _alteration(kind, i, j, e))


# ---------------------------------------------------------------------------
# positivity
# ---------------------------------------------------------------------------


def test_positivity_strict_range(pj, pl):
    for p, d in ((pj, IndexSet.of(2)), (pl, IndexSet.of(1, 2))):
        checks = positivity_scan(d, p)
        assert all(c.status == "pass" for c in checks)


def test_positivity_extended_range_runs():
    p = Params(Family.LQ_JACOBI, Q, A, F(-1, 4), CType.TYPE_II, dmax=2)
    checks = positivity_scan(IndexSet.of(2), p)
    # proofs run and report; no hard failures expected at this point either
    assert checks and all(c.status in ("pass", "warn") for c in checks)


def _window_scan(factors, lo, definite=False):
    """The windowed scan the lattice proofs replaced: whether the product of
    the factors is positive (nonzero and of one sign, if definite) at every
    x in [lo, 60], from exact values; a zero denominator counts as a zero."""
    signs = {math.prod((v > 0) - (v < 0) for v in (f.eval_int(x) for f in factors))
             for x in range(lo, 61)}
    return 0 not in signs and (signs == {1} or definite and len(signs) == 1)


@st.composite
def positivity_points(draw):
    """certificate_points, the b of a type II little q-Jacobi point made
    negative (the extended range) in half the draws."""
    p, d = draw(certificate_points())
    if p.family == Family.LQ_JACOBI and p.ctype == CType.TYPE_II and draw(st.booleans()):
        try:
            p = Params(p.family, p.q, p.a, -p.b * draw(st.integers(1, 10 ** 4)), p.ctype, p.dmax)
        except InvalidParamsError:
            assume(False)
    return p, d


@given(positivity_points())
@settings(max_examples=40, deadline=None)
def test_lattice_proofs_agree_with_the_window_scan(point):
    p, d = point
    lo = -1 if p.ctype == CType.TYPE_II else 0
    try:
        pots = deformed_potentials(d, p)
        want = {"positivity_casoratian_sign": _window_scan([xi_casoratian(d, p)], lo, True),
                "positivity_potential_up": _window_scan([pots.b_num, pots.b_den], 0),
                "positivity_potential_down": _window_scan([pots.d_num, pots.d_den], 1)}
        if p.ctype == CType.TYPE_II:
            want["positivity_denominator"] = _window_scan([denominator_poly_y(d, p)], -1)
        xis = []
        for v in range(min(p.dmax, 5) + 1):
            try:
                xis.append(virtual_poly_y(v, p))
            except InvalidParamsError:
                pass
        want["virtual_poly_positive"] = all(_window_scan([xi], lo) for xi in xis)
        got = {c.name: c.status == "pass"
               for c in run_suite(d, p, suites=("positivity", "virtual")).checks}
    except LittleQError:
        assume(False)
    # the virtual suite is skipped outside its range
    assert {k: got[k] for k in want if k in got} == {k: want[k] for k in want if k in got}


def test_positivity_holds_beyond_the_old_window(pj, monkeypatch):
    # 3 2^69 y - 1 at q = 1/2 is positive for x <= 70 and negative from x = 71,
    # so a scan of [lo, 60] passes it; the lattice proofs do not
    late = LaurentPoly.var(pj.q).scale(3 * 2 ** 69) - 1
    one = LaurentPoly.const(pj.q, 1)
    assert _window_scan([late], -1) and late.eval_int(71) < 0
    monkeypatch.setattr(verify, "denominator_poly_y", lambda d, p: late)
    monkeypatch.setattr(verify, "xi_casoratian", lambda d, p: late)
    monkeypatch.setattr(verify, "deformed_potentials", lambda d, p: DeformedPotentials(
        b_num=late, b_den=one, d_num=one - LaurentPoly.var(pj.q), d_den=late))
    monkeypatch.setattr(verify, "virtual_poly_y", lambda v, p: late)
    rep = run_suite(IndexSet.of(2), pj, suites=("positivity", "virtual"))
    got = {c.name: (c.status, c.witness) for c in rep.checks}
    assert {k: v for k, v in got.items() if "positiv" in k} == {
        "positivity_denominator": ("fail", "no proof for x >= -1: sign variations [1], "
                                           "signs at x=-1 [1]"),
        "positivity_casoratian_sign": ("fail", "no proof for x >= -1: sign variations [1], "
                                               "signs at x=-1 [1]"),
        "positivity_potential_up": ("fail", "no proof for x >= 0: sign variations [1, 0], "
                                            "signs at x=0 [1, 1]"),
        "positivity_potential_down": ("fail", "no proof for x >= 1: sign variations [0, 1], "
                                              "signs at x=1 [1, 1]"),
        "positivity_down_at_origin": ("pass", "0 == 0"),
        "virtual_poly_positive": ("fail", "v=0: no proof for x >= -1: sign variations [1], "
                                          "signs at x=-1 [1]"),
    }


def _negative_at_4_and_5(q):
    """(11y - 1)(40y - 1) in y = q^x, q = 1/2: on the lattice x >= -1 it is
    negative exactly at x = 4 and x = 5 (y = 1/16, 1/32)."""
    y = LaurentPoly.var(q)
    return (y.scale(11) - 1) * (y.scale(40) - 1)


def test_positivity_rows_give_their_counts_and_end_signs(pj, monkeypatch):
    bad, one = _negative_at_4_and_5(pj.q), LaurentPoly.const(pj.q, 1)
    down = (1 - LaurentPoly.var(pj.q)) * bad  # zero at x = 0, as D_D is
    monkeypatch.setattr(verify, "denominator_poly_y", lambda d, p: bad)
    monkeypatch.setattr(verify, "xi_casoratian", lambda d, p: bad)
    # the sign of a potential is that of its numerator times its denominator
    monkeypatch.setattr(verify, "deformed_potentials", lambda d, p: DeformedPotentials(
        b_num=one.scale(-1), b_den=bad.scale(-1), d_num=down.scale(-3), d_den=one.scale(-2)))
    monkeypatch.setattr(verify, "virtual_poly_y", lambda v, p: bad)
    rep = run_suite(IndexSet.of(2), pj, suites=("positivity", "virtual"))
    got = {c.name: (c.status, c.witness) for c in rep.checks}
    assert {k: v for k, v in got.items() if k.startswith("positivity")} == {
        "positivity_denominator": ("fail", "no proof for x >= -1: sign variations [2], "
                                           "signs at x=-1 [1]"),
        "positivity_casoratian_sign": ("fail", "no proof for x >= -1: sign variations [2], "
                                               "signs at x=-1 [1]"),
        "positivity_potential_up": ("fail", "no proof for x >= 0: sign variations [0, 2], "
                                            "signs at x=0 [-1, -1]"),
        "positivity_potential_down": ("fail", "no proof for x >= 1: sign variations [2, 0], "
                                              "signs at x=1 [-1, -1]"),
        "positivity_down_at_origin": ("pass", "0 == 0"),
    }
    assert got["virtual_poly_positive"] == (
        "fail", "v=0: no proof for x >= -1: sign variations [2], signs at x=-1 [1]")


def test_positivity_reports_a_potential_denominator_zero_on_the_lattice(pj, monkeypatch):
    # a zero of B_D's denominator at x = 3 leaves its factor no lattice sign
    one = LaurentPoly.const(pj.q, 1)
    zero_at_3 = LaurentPoly.var(pj.q).scale(8) - 1  # y = 1/8 at x = 3
    monkeypatch.setattr(verify, "deformed_potentials", lambda d, p: DeformedPotentials(
        b_num=one, b_den=zero_at_3, d_num=one, d_den=one))
    rep = run_suite(IndexSet.of(2), pj, suites=("positivity",))
    got = {c.name: (c.status, c.witness) for c in rep.checks}
    assert got["positivity_potential_up"] == (
        "fail", "no proof for x >= 0: sign variations [0, 1], signs at x=0 [1, 1]")
    assert "positivity_suite_error" not in got


# ---------------------------------------------------------------------------
# structural and reflection fragments
# ---------------------------------------------------------------------------


def test_structural_fragment(pj):
    checks = structural_checks(IndexSet.of(1, 2), pj, 3, random.Random(3))
    names = {c.name for c in checks}
    assert "structural_permutation_potentials" in names
    assert "structural_reduction" in names
    assert "structural_blimit_linear" in names
    assert all(c.status == "pass" for c in checks)


def test_same_op_reads_a_zero_coefficient_as_an_absent_key():
    y, one, zero = LaurentPoly.var(Q), LaurentPoly.one(Q), LaurentPoly.zero(Q)
    a = {0: y, 1: one}
    assert _same_op(a, {-1: zero, 0: y, 1: one}) and _same_op({**a, 2: zero}, a)
    assert _same_op({}, {3: zero})
    # a nonzero entry missing on either side, or moved to another key
    assert not _same_op(a, {0: y}) and not _same_op({0: y}, a)
    assert not _same_op(a, {0: y, 2: one})
    assert not _same_op(a, {k: c.scale(2) for k, c in a.items()})
    assert not _same_op(a, {0: y, 1: one.scale(F(1, 3))})


def _groundstate_row():
    checks = structural_checks(DEEP_D, DEEP_P, 0, random.Random(0))
    return next(c for c in checks if c.name == "structural_groundstate_product")


def test_groundstate_product_row_is_one_identity_for_every_x(monkeypatch):
    # B_D's numerator plus prod_(k < 20) (y - q^k) keeps B_D at x = 0..19,
    # all that a scan of the hop products on x <= 20 reads
    assert _groundstate_row().status == "pass"
    potentials, measure, q = verify.deformed_potentials, verify.deformed_measure, DEEP_P.q
    term = math.prod((LaurentPoly(q, {0: -q ** k, 1: 1}) for k in range(20)),
                     start=LaurentPoly.one(q))
    assert not term.is_zero and all(term.eval_int(x) == 0 for x in range(20))

    def b_num_changed(change):
        def patched(d, p):
            pots = potentials(d, p)
            return DeformedPotentials(change(pots.b_num), pots.b_den, pots.d_num, pots.d_den)
        return patched

    mutants = [
        ("deformed_potentials", b_num_changed(lambda b: b + term)),
        # den of {1,3,5} with the levels and potentials of {1,3,5,7}
        ("deformed_measure", lambda d, p: measure(IndexSet.of(1, 3, 5), p)),
        ("deformed_potentials", b_num_changed(lambda b: b.scale(1 + F(1, 10 ** 6)))),
    ]
    for name, mutant in mutants:
        with monkeypatch.context() as m:
            m.setattr(verify, name, mutant)
            row = _groundstate_row()
        assert (row.status, row.witness) == ("fail", "hop ratio differs from the weight ratio")


# type II little q-Jacobi points with q^(1+dmax) < 2^-8, where probes fixed at
# b = 2^-10, 2^-14, 2^-18 gave a first deviation ratio below 2^-4.5
BLIMIT_NEAR_POLE = [
    (F(1, 7), F(1, 3), F(1, 2000), 2),
    (F(1, 7), F(1, 5), F(1, 3000), 2),
    (F(1, 7), F(1, 2), F(1, 400), 2),
    (F(1, 9), F(1, 3), F(1, 2000), 2),
    (F(1, 5), F(1, 3), F(1, 2000), 3),
]


@pytest.mark.parametrize("q,a,b,dd", BLIMIT_NEAR_POLE)
def test_blimit_probes_stay_clear_of_the_pole(q, a, b, dd):
    p = Params(Family.LQ_JACOBI, q, a, b, CType.TYPE_II, dmax=dd)
    checks = {c.name: c for c in structural_checks(IndexSet.of(dd), p, 2, random.Random(0))}
    blimit = checks["structural_blimit_linear"]
    assert blimit.status == "pass", blimit.witness


@pytest.mark.parametrize("inv_sq", [512, 128], ids=["2^-4.5", "2^-3.5"])
def test_blimit_ratios_are_decided_exactly(inv_sq):
    # rationals within 1e-20 relative of the bound on either side round to
    # the same double, so comparing floats gives both the same verdict
    n = 10 ** 25
    below = F(math.isqrt(n * n // inv_sq), n)  # the bound is irrational
    above = below + F(1, n)
    assert below * below < F(1, inv_sq) < above * above and (above - below) / below < 1e-20
    assert float(below) == float(above)
    inside = [below, above] if inv_sq == 128 else [above, below]
    assert closed_forms.blimit_linear([inside[0], F(1, 16)])
    assert not closed_forms.blimit_linear([inside[1], F(1, 16)])
    assert not closed_forms.blimit_linear([-F(1, 16)])


@pytest.mark.parametrize("p, d", [(DEEP_P, DEEP_D), *(
    (Params(Family.LQ_JACOBI, q, a, b, CType.TYPE_II, dmax=dd), IndexSet.of(dd))
    for q, a, b, dd in BLIMIT_NEAR_POLE[:2])])
def test_the_exact_blimit_row_and_the_rate_oracle_agree(p, d):
    checks = {c.name: c for c in structural_checks(d, p, 2, random.Random(0))}
    assert checks["structural_blimit_linear"].status == "pass"
    devs = list(closed_forms.blimit_deviations(d, p.q, p.a, p.dmax, 2).values())
    assert closed_forms.blimit_linear([devs[1] / devs[0], devs[2] / devs[1]])


def _laguerre_scaled(fn):
    """fn with its little q-Laguerre values scaled by EPS_SCALE."""
    def mutant(v, p):
        out = fn(v, p)
        if p.family != Family.LQ_LAGUERRE:
            return out
        return out.scale(EPS_SCALE) if isinstance(out, LaurentPoly) else out * EPS_SCALE
    return mutant


@pytest.mark.parametrize("name", ["virtual_energy", "virtual_poly_y"])
def test_a_scaled_laguerre_branch_fails_the_blimit_row(name, monkeypatch):
    # the little q-Jacobi point never reads the little q-Laguerre branch, so
    # only the b -> 0 row sees it, through level_op at the Laguerre point
    assert _statuses(DEEP_D, DEEP_P, ("structural",))["structural_blimit_linear"] == "pass"
    with monkeypatch.context() as m:
        m.setattr(darboux, name, _laguerre_scaled(getattr(darboux, name)))
        clear_littleq_caches()
        got = _statuses(DEEP_D, DEEP_P, ("structural",))
    clear_littleq_caches()
    assert {row for row, status in got.items() if status != "pass"} == {
        "structural_blimit_linear"}


def _term_scaled(k):
    """qhyper_terminating with term k scaled by EPS_SCALE: one changed
    coefficient of a series route."""
    def mutant(upper, lower, q, z, nterms):
        terms = qhyper_terms(upper, lower, q, z, nterms)
        return sum((t * EPS_SCALE if i == k else t for i, t in enumerate(terms)), F(0))
    return mutant


# term k of the 3phi1 vanishes for x < k, so k = 4 changes the n = 4 route at
# x = 4 only: the last of the n + 1 sample points
@pytest.mark.parametrize("module,suite,row", [(virtual, "virtual", "virtual_series_rewriting"),
                                              (base, "base", "base_series_oracle")])
@pytest.mark.parametrize("k", [0, 2, 4])
def test_one_changed_series_coefficient_fails_its_row(module, suite, row, k, monkeypatch):
    assert _statuses(DEEP_D, DEEP_P, (suite,))[row] == "pass"
    monkeypatch.setattr(module, "qhyper_terminating", _term_scaled(k))
    got = _statuses(DEEP_D, DEEP_P, (suite,))
    assert {name for name, status in got.items() if status != "pass"} == {row}


def test_a_deep_verify_builds_nine_level_operators_and_15_series_values(monkeypatch):
    # cold run_suite at the deep point builds level_op at D at lambda and at
    # lambda + delta; the permuted D, D + {0} at lambda and {d - 1} at
    # lambda + tilde; D at b = 0 and at the little q-Laguerre point (the
    # b -> 0 limit); {1} at lambda - tilde (type I/II relation); and {2} at
    # lambda (reflection).  The three b probes of the rate oracle made it 11
    calls = []
    series = verify.xi_series_value
    monkeypatch.setattr(verify, "xi_series_value",
                        lambda v, p, x: calls.append((v, x)) or series(v, p, x))
    clear_littleq_caches()
    run_suite(DEEP_D, DEEP_P, nmax=8)
    assert darboux.level_op.cache_info().misses == 9
    assert len(calls) == sum(v + 1 for v in range(min(DEEP_P.dmax, 4) + 1)) == 15


EPS_SCALE = F(10 ** 6 + 1, 10 ** 6)


def _statuses(d, p, suites):
    return {c.name: c.status for c in run_suite(d, p, nmax=3, suites=suites, seed=0).checks}


@pytest.mark.parametrize("p", [
    Params(Family.LQ_JACOBI, Q, A, B, CType.TYPE_II, dmax=2),
    Params(Family.LQ_LAGUERRE, Q, A, 0, CType.TYPE_II, dmax=2),
])
def test_hamiltonian_scaled_fails_the_base_and_deformed_eigen_rows(p, monkeypatch):
    # the base rows and deformed_identities apply one H: B scaled inside
    # hamiltonian_op fails both eigen rows and leaves the shift rows alone
    d, suites = IndexSet.of(1, 2), ("base", "deformed")
    assert set(_statuses(d, p, suites).values()) == {"pass"}
    hop_op = base.hop_op
    monkeypatch.setattr(base, "hop_op", lambda b, dd: hop_op(b.scale(EPS_SCALE), dd))
    got = _statuses(d, p, suites)
    assert {name for name, status in got.items() if status != "pass"} == {
        "base_eigen_equation", "base_eigen_random_params", "deformed_eigen_equation"}
    assert got["base_eigen_equation"] == got["deformed_eigen_equation"] == "fail"


@st.composite
def base_points(draw):
    family, ctype = draw(st.sampled_from(Family)), draw(st.sampled_from(CType))
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    return _random_valid_params(rng, family, ctype, draw(st.integers(0, 3)))


def _at_uv(factors, u, v):
    """A product of factors {(i, j): c} at the point (u, v)."""
    return math.prod(sum(c * u ** i * v ** j for (i, j), c in f.items()) for f in factors)


@given(base_points())
@settings(max_examples=30, deadline=None)
def test_base_rows_agree_with_the_per_level_residuals(p):
    # the oracle the every-n base rows replaced: H, F and Bk applied level by
    # level, n <= 8; and the coefficient ratio those rows read from eigen_series
    up, q = p.shift(delta=1), p.q
    h, fwd, bkw = base.hamiltonian_op(p), base.forward_shift_op(p), base.backward_shift_op(p)
    num, den = verify._term_ratio(p)
    for n in range(9):
        f, g, e = base.eigenpoly_y(n, p), base.eigenpoly_y(n - 1, up), base.energy(n, p)
        assert (op_apply(h, f) - f.scale(e)).is_zero
        assert (op_apply(fwd, f) - g.scale(e)).is_zero
        assert n == 0 or (op_apply(bkw, g) - f).is_zero
        assert f.min_deg == 0 and f.max_deg == n
        for k in range(n):
            u, v = q ** n, q ** k
            assert f.coeff(k + 1) / f.coeff(k) == _at_uv(num, u, v) / _at_uv(den, u, v)
    assert {c.name: c.status for c in verify._base_checks(p, 3, random.Random(0))
            if c.name != "base_eigen_random_params"} == dict.fromkeys(
        ["base_eigen_equation", "base_degree_norm_leading_infinity", "base_forward_shift",
         "base_backward_shift", "base_series_oracle"], "pass")


def _energy_ab_scaled(n, p):
    return ENERGY(n, RawParams(*p)._replace(b=p.b * EPS_SCALE))


def _series_ab_bumped(p):
    # ab (1 + eps prod_{j <= 8} (u - q^j)): the same polynomials for n <= 8
    upper, lower, z = SERIES(p)
    u, bump = LaurentPoly.var(p.q), LaurentPoly.one(p.q)
    for j in range(9):
        bump = bump * (u - p.q ** j)
    ab = LaurentPoly(p.q, upper[1]) * (1 + bump.scale(EPS_SCALE - 1))
    return [upper[0], ab.coeff_dict()], lower, z


def _infinity_rescaled(n, p):
    return INFINITY(n, p) * (1 + n * (EPS_SCALE - 1))


def _infinity_rescaled_from_2(n, p):
    # C_1 / C'_0 stays right; C_n / C'_(n-1) moves from n = 2 on
    return INFINITY(n, p) * (1 + n * (n - 1) * (EPS_SCALE - 1))


def _forward_stretched(p):
    # F o (1 + eps (q - T)): phi(v) gains the factor 1 + eps (q - v), which is
    # 1 at v = q, so only the step from k to k + 1 sees it
    eps, q = EPS_SCALE - 1, p.q
    return op_compose(FORWARD(p), {0: LaurentPoly.const(q, 1 + eps * q),
                                   1: LaurentPoly.const(q, -eps)})


def _backward_scaled(p):
    return {k: c.scale(EPS_SCALE) for k, c in BACKWARD(p).items()}


ENERGY, SERIES, INFINITY = base.energy, base.eigen_series, base.eigen_at_infinity
FORWARD, BACKWARD = base.forward_shift_op, base.backward_shift_op
SHIFT_ROWS = {"base_forward_shift", "base_backward_shift"}
NORM_ROWS = {"base_degree_norm_leading_infinity", "base_series_oracle"}
EVERY_N_ROWS = {"base_eigen_equation", "base_forward_shift", "base_backward_shift",
                "base_eigen_random_params"}


@pytest.mark.parametrize("name,mutant,families,failed", [
    # energy's ab scaled: the eigen rows, and the shift rows that read E_n
    ("energy", _energy_ab_scaled, [Family.LQ_JACOBI], EVERY_N_ROWS),
    # wrong only above n = 8, where no level is built
    ("eigen_series", _series_ab_bumped, [Family.LQ_JACOBI], EVERY_N_ROWS),
    # the normalization of P_n changes with n: at the base case, or only in
    # C_n / C'_(n-1) for n >= 2
    ("eigen_at_infinity", _infinity_rescaled, list(Family), SHIFT_ROWS | NORM_ROWS),
    ("eigen_at_infinity", _infinity_rescaled_from_2, list(Family), SHIFT_ROWS | NORM_ROWS),
    ("forward_shift_op", _forward_stretched, list(Family), SHIFT_ROWS),
    ("backward_shift_op", _backward_scaled, list(Family), {"base_backward_shift"}),
])
@pytest.mark.parametrize("ctype", list(CType))
def test_mutants_fail_the_base_rows(name, mutant, families, failed, ctype, monkeypatch):
    for family in families:
        p = Params(family, Q, A if ctype == CType.TYPE_II else F(1, 10),
                   B if family == Family.LQ_JACOBI else 0, ctype, dmax=2)
        with monkeypatch.context() as m:
            for module in (base, verify):
                m.setattr(module, name, mutant)
            clear_littleq_caches()
            got = _statuses(IndexSet.of(1, 2), p, ("base",))
        clear_littleq_caches()
        assert {row for row, status in got.items() if status != "pass"} == failed
        assert set(_statuses(IndexSet.of(1, 2), p, ("base",)).values()) == {"pass"}


def test_every_n_rows_need_the_side_conditions():
    # ab = 3/2: every level is built and has its degree, but ab < 1 fails,
    # so the every-n proofs do not apply and their rows say so
    p = RawParams(Family.LQ_JACOBI, Q, A, F(9, 2), CType.TYPE_II, dmax=2)
    got = {c.name: c.status for c in verify._base_checks(p, 3, random.Random(0))}
    assert {name for name, status in got.items() if status != "pass"} == EVERY_N_ROWS - {
        "base_eigen_random_params"}


@pytest.mark.parametrize("family", list(Family))
def test_closed_form_xi_scaled_fails_the_single_index_row(family, monkeypatch):
    p = Params(family, Q, A, B if family == Family.LQ_JACOBI else 0, CType.TYPE_II, dmax=2)
    single, xi = darboux.typeII_single_op, darboux.virtual_poly_y

    def scaled_single(dd, p):
        with monkeypatch.context() as m:
            m.setattr(darboux, "virtual_poly_y", lambda v, p: xi(v, p).scale(EPS_SCALE))
            return single(dd, p)

    row = "deformed_single_index_closed_form"
    assert _statuses(IndexSet.of(2), p, ("deformed",))[row] == "pass"
    monkeypatch.setattr(verify, "typeII_single_op", scaled_single)
    got = _statuses(IndexSet.of(2), p, ("deformed",))
    assert got[row] == "fail"
    assert all(status == "pass" for name, status in got.items() if name != row)


# b = q^3 at dmax 1 and b = q^2 at dmax 0: valid points where the reflection
# rows (D = {2}) and the ratio rows (m <= 2) probe a pole past dmax
POLES_PAST_DMAX = [
    (Params(Family.LQ_JACOBI, Q, A, F(1, 8), CType.TYPE_II, dmax=1), IndexSet.of(1)),
    (Params(Family.LQ_JACOBI, Q, A, F(1, 4), CType.TYPE_II, dmax=0), IndexSet.of()),
]


@pytest.mark.parametrize("p, d", POLES_PAST_DMAX)
def test_a_pole_past_dmax_warns_and_names_the_pole(p, d):
    rep = run_suite(d, p, nmax=2, seed=0)
    assert rep.overall == "pass"
    warns = {c.name: c.witness for c in rep.checks if c.status == "warn"}
    assert {"reflection_n0_matches", "reflection_n1_matches"} <= set(warns)
    assert all(("b = %s is a pole" % p.b) in w for w in warns.values())
    for name in ("virtual_poly_degree_norm", "virtual_difference_equation"):
        assert ("past dmax=%d" % p.dmax) in warns[name]
    if p.dmax == 0:
        assert "past dmax=0" in warns["virtual_ratio_poly_two_routes"]


@pytest.mark.parametrize("p, d", POLES_PAST_DMAX)
def test_a_mismatch_beside_a_pole_past_dmax_still_fails(p, d, monkeypatch):
    # one of reflection n = 0, 1 hits the pole, the other now mismatches
    monkeypatch.setattr(verify, "multi_indexed_poly_y", lambda d, n, p: LaurentPoly.zero(p.q))
    monkeypatch.setattr(verify, "groundstate_ratio", lambda x, p: F(1))
    # every virtual state that exists loses its normalization and its equation
    xi, residual = verify.virtual_poly_y, verify.xi_diffeq_residual
    monkeypatch.setattr(verify, "virtual_poly_y", lambda v, p: xi(v, p).scale(2))
    monkeypatch.setattr(verify, "xi_diffeq_residual", lambda v, p: residual(v, p) + 1)
    status = _statuses(d, p, ("virtual", "reflection"))
    assert status["virtual_ratio_poly_two_routes"] == "fail"
    assert status["virtual_poly_degree_norm"] == status["virtual_difference_equation"] == "fail"
    assert sorted(status[name] for name in ("reflection_n0_matches", "reflection_n1_matches")
                  ) == ["fail", "warn"]


@pytest.mark.parametrize("p", [p for p, d in POLES_PAST_DMAX] + [
    Params(Family.LQ_LAGUERRE, Q, A, 0, CType.TYPE_II, dmax=1),
    Params(Family.LQ_JACOBI, Q, F(1, 10), B, CType.TYPE_I, dmax=2),
])
def test_a_pole_at_dmax_is_a_virtual_suite_error(p, monkeypatch):
    # also where no other virtual row reads xi_dmax unguarded
    xi = verify.virtual_poly_y

    def pole_at_dmax(v, p):
        if v == p.dmax:
            raise InvalidParamsError("b = q^j pole at v=%d" % v)
        return xi(v, p)

    monkeypatch.setattr(verify, "virtual_poly_y", pole_at_dmax)
    assert _statuses(IndexSet.of(), p, ("virtual",)) == {"virtual_suite_error": "fail"}


def test_reflection_fragment(pj, pl):
    checks = reflection_checks(pj)
    assert [c.name for c in checks] == [
        "reflection_n0_matches",
        "reflection_n1_matches",
        "reflection_n2_differs",
    ]
    assert all(c.status == "pass" for c in checks)
    assert reflection_checks(pl) == []


# ---------------------------------------------------------------------------
# random parameter generation
# ---------------------------------------------------------------------------


def test_random_params_valid_and_deterministic():
    r1 = random.Random(42)
    r2 = random.Random(42)
    for family in Family:
        for ctype in CType:
            p1 = _random_valid_params(r1, family, ctype, 2)
            p2 = _random_valid_params(r2, family, ctype, 2)
            assert p1 == p2
            assert 0 < p1.q < 1


# ---------------------------------------------------------------------------
# the orchestrated suite
# ---------------------------------------------------------------------------


def test_run_suite_all_pass(pj):
    rep = run_suite(IndexSet.of(2), pj, nmax=3, seed=1)
    assert rep.overall == "pass"
    names = [c.name for c in rep.checks]
    assert len(names) == len(set(names))  # every check appears exactly once
    d = rep.to_dict()
    assert d["overall"] == "pass"
    assert d["indices"] == [2]
    assert d["params"]["q"] == "1/2"
    # report ordering is deterministic (sorted by name)
    assert [c["name"] for c in d["checks"]] == sorted(c["name"] for c in d["checks"])


def test_run_suite_rejects_mismatched_dmax(pj):
    with pytest.raises(InvalidParamsError):
        run_suite(IndexSet.of(5), pj)


def test_run_suite_rejects_unknown_suite(pj):
    with pytest.raises(InvalidParamsError):
        run_suite(IndexSet.of(2), pj, suites=("nonsense",))


def test_run_suite_shifts_is_deformed(pj):
    def report(suite):
        return run_suite(IndexSet.of(1, 2), pj, nmax=2, suites=(suite,)).to_dict()

    assert report("shifts") == report("deformed")


def test_run_suite_rejects_bad_numeric_options(pj):
    for kwargs in ({"nmax": -1}, {"eps": F(0)}, {"xmax": 5}, {"prec_bits": 64}):
        with pytest.raises(InvalidParamsError):
            run_suite(IndexSet.of(2), pj, suites=("positivity",), **kwargs)


def test_run_suite_subset(pj):
    rep = run_suite(IndexSet.of(2), pj, nmax=2, suites=("positivity",), seed=0)
    assert rep.overall == "pass"
    assert all(c.name.startswith("positivity") for c in rep.checks)


def test_structural_suite_alone_draws_the_full_run_permutation():
    # base and structural draw from rngs of their own: at deep, seed 0, the
    # structural suite alone shuffles D as the full run does
    p = Params(Family.LQ_JACOBI, Q, A, F(1, 4096), CType.TYPE_II, dmax=7)
    d = IndexSet.of(1, 3, 5, 7)

    def permutations(suites):
        rep = run_suite(d, p, nmax=8, suites=suites, seed=0)
        return {c.name: c.witness for c in rep.checks
                if c.name.startswith("structural_permutation")}

    alone = permutations(("structural",))
    assert len(alone) == 2 and alone == permutations(verify.SUITES)


def test_run_suite_empty_set_defaults(pj):
    p0 = Params(Family.LQ_JACOBI, Q, A, B, CType.TYPE_II, dmax=0)
    rep = run_suite(IndexSet.of(), p0, nmax=2, seed=0)
    assert rep.overall == "pass"


def test_run_suite_base_only_points_warn_not_fail():
    # parameter points valid for the undeformed system but outside the
    # virtual-state range skip the dependent fragments with a warning
    for fam, a, b, ct in (
        (Family.LQ_JACOBI, F(1, 3), F(3, 4), CType.TYPE_II),
        (Family.LQ_JACOBI, F(1, 3), F(0), CType.TYPE_II),
        (Family.LQ_JACOBI, F(2, 3), F(1, 16), CType.TYPE_I),
    ):
        p = Params(fam, Q, a, b, ct, dmax=0)
        rep = run_suite(IndexSet.of(), p, nmax=2, seed=0)
        assert rep.overall == "pass"
        warns = {c.name for c in rep.checks if c.status == "warn"}
        assert "virtual_suite_skipped" in warns


def test_run_suite_type_i(pji, pli):
    for p in (pji, pli):
        rep = run_suite(IndexSet.of(2), p, nmax=2, seed=0)
        assert rep.overall == "pass", [
            (c.name, c.witness) for c in rep.checks if c.status != "pass"
        ]


def test_run_suite_type_i_multi_index():
    p = Params(Family.LQ_JACOBI, Q, F(1, 12), B, CType.TYPE_I, dmax=2)
    rep = run_suite(IndexSet.of(1, 2), p, nmax=2, seed=0)
    assert rep.overall == "pass", [
        (c.name, c.witness) for c in rep.checks if c.status != "pass"
    ]


def test_zeros_type_i_strips_monomial_unit():
    # the raw numerator carries a y^s factor; its eta = 1 roots must not
    # pollute the counts
    p = Params(Family.LQ_JACOBI, Q, F(1, 12), B, CType.TYPE_I, dmax=2)
    d = IndexSet.of(1, 2)
    for n in range(3):
        rep = zeros_report(d, n, p)
        assert rep["physical"] == n
        assert rep["unphysical"] == d.degree_offset
        assert rep["interlaced_with_next"]
