"""Acceptance battery: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Exact checks carry zero tolerance; the numeric checks state theirs.
"""
import random
import time
from fractions import Fraction as F

import closed_forms
from littleq import (
    CType,
    Family,
    IndexSet,
    InvalidParamsError,
    Params,
    RawParams,
    deformed_backward_check,
    deformed_eigencheck,
    deformed_forward_check,
    deformed_potentials,
    denominator_leading,
    denominator_poly,
    denominator_poly_y,
    eigenpoly_y,
    energy,
    hamiltonian_op,
    infinity_values,
    level_poly,
    lowest_matches_denominator,
    multi_indexed_leading,
    multi_indexed_poly,
    multi_indexed_poly_y,
    op_apply,
    tilde_delta,
    typeI_single_poly,
    xi_casoratian,
)
from littleq import verify
from littleq.verify import (
    _random_valid_params,
    orthogonality_check,
)

Q, A, B = F(1, 2), F(1, 3), F(1, 16)


def zeros_report(d, n, p):
    """Zero counts of level n and its interlacing with level n + 1, from the
    exact isolation the zeros suite runs."""
    return verify._zeros_summary(
        verify._level_zeros(level_poly(d, n, p), n),
        verify._level_zeros(level_poly(d, n + 1, p), n + 1),
    )


# the index-set battery with per-set parameters: b < q^(1+d_M), away from
# the q^j poles and the a q^m degree degeneracies
BATTERY = [
    (IndexSet.of(1), F(1, 16)),
    (IndexSet.of(2), F(1, 16)),
    (IndexSet.of(1, 2), F(1, 16)),
    (IndexSet.of(2, 4), F(1, 128)),
    (IndexSet.of(1, 3, 5), F(1, 256)),
]


def battery_points():
    for d, b in BATTERY:
        dm = max(d.indices)
        yield d, Params(Family.LQ_JACOBI, Q, A, b, CType.TYPE_II, dmax=dm)
        yield d, Params(Family.LQ_LAGUERRE, Q, A, 0, CType.TYPE_II, dmax=dm)


def report(num, name, ok, detail=""):
    line = "ACCEPTANCE %2d %-28s %s" % (num, name, "PASS" if ok else "FAIL")
    if detail:
        line += "  (%s)" % detail
    print(line)
    assert ok, line


def test_criterion_01_golden_forms():
    t0 = time.time()
    rng = random.Random(31415)
    d2 = IndexSet.of(2)
    ok = True
    for _ in range(10):
        p = _random_valid_params(rng, Family.LQ_JACOBI, CType.TYPE_II, dmax=2)
        p0 = multi_indexed_poly(d2, 0, p)
        p1 = multi_indexed_poly(d2, 1, p)
        for x in range(0, 9):
            ok &= p0.eval_int(x) == closed_forms.type2_d2_n0(p.q, p.a, p.b, x)
            ok &= p1.eval_int(x) == closed_forms.type2_d2_n1(p.q, p.a, p.b, x)
    dt = time.time() - t0
    report(1, "golden_closed_forms", ok and dt < 1.0,
           "10 random points, x in [0,8], %.2fs" % dt)


def test_criterion_02_eigen_identities():
    t0 = time.time()
    ok = True
    for fam in Family:
        p = Params(fam, Q, A, B if fam == Family.LQ_JACOBI else 0,
                   CType.TYPE_II, dmax=2)
        for n in range(9):
            f = eigenpoly_y(n, p)
            ok &= (op_apply(hamiltonian_op(p), f) - f.scale(energy(n, p))).is_zero
    for d, p in battery_points():
        for n in range(6):
            ok &= deformed_eigencheck(d, n, p).is_zero
    dt = time.time() - t0
    report(2, "eigen_identities", ok and dt < 30.0,
           "base n<=8 + battery n<=5, zero residuals, %.1fs" % dt)


def test_criterion_03_shape_invariance():
    ok = True
    for d, p in battery_points():
        for n in range(6):
            ok &= deformed_forward_check(d, n, p).is_zero
            if n >= 1:
                ok &= deformed_backward_check(d, n, p).is_zero
    report(3, "shape_invariance_shifts", ok, "battery n<=5, zero residuals")


def test_criterion_04_normalization_degree_leading_infinity():
    ok = True
    for d, p in battery_points():
        xi = denominator_poly(d, p)
        ok &= xi.eval_int(-1) == 1
        ok &= xi.degree == d.degree_offset
        ok &= xi.leading == denominator_leading(d, p)
        xinf, _ = infinity_values(d, 0, p)
        ok &= denominator_poly_y(d, p).at_infinity() == xinf
        for n in range(6):
            pn = multi_indexed_poly(d, n, p)
            ok &= pn.eval_int(0) == 1
            ok &= pn.degree == d.degree_offset + n
            ok &= pn.leading == multi_indexed_leading(d, n, p)
            _, pinf = infinity_values(d, n, p)
            ok &= multi_indexed_poly_y(d, n, p).at_infinity() == pinf
    report(4, "normalization_degree_limits", ok, "battery n<=5, exact")


def test_criterion_05_lowest_degree_relation():
    ok = all(lowest_matches_denominator(d, p).is_zero for d, p in battery_points())
    report(5, "lowest_matches_denominator", ok, "battery, exact")


def test_criterion_06_orthogonality():
    t0 = time.time()
    p = Params(Family.LQ_JACOBI, Q, A, B, CType.TYPE_II, dmax=2)
    checks = orthogonality_check(IndexSet.of(2), p, 4)
    ok = bool(checks) and all(c.status == "pass" for c in checks)
    dt = time.time() - t0
    report(6, "orthogonality_certified", ok and dt < 10.0,
           "D={2} nmax=4, exact certificates, %.1fs" % dt)


def test_criterion_07_zeros_interlacing():
    ok = True
    for d, p in battery_points():
        for n in range(5):
            rep = zeros_report(d, n, p)
            ok &= rep["physical"] == n
            ok &= rep["unphysical"] == d.degree_offset
            if n < 4:
                ok &= rep["interlaced_with_next"]
    report(7, "zeros_and_interlacing", ok,
           "battery n<=4, residual<1e-30 scale-relative")


def test_criterion_08_structural_identities():
    ok = True
    # permutation invariance of the deformed potentials
    p3 = Params(Family.LQ_JACOBI, Q, A, F(1, 256), CType.TYPE_II, dmax=5)
    d3 = IndexSet.of(1, 3, 5)
    for perm in ((3, 1, 5), (5, 3, 1), (1, 5, 3)):
        pa = deformed_potentials(d3, p3)
        pb = deformed_potentials(IndexSet.raw(perm), p3)
        ok &= (pa.b_num * pb.b_den - pb.b_num * pa.b_den).is_zero
        ok &= (pa.d_num * pb.d_den - pb.d_num * pa.d_den).is_zero
    # index-zero reduction
    for d, b in BATTERY[:3]:
        for fam in Family:
            p = Params(fam, Q, A, b if fam == Family.LQ_JACOBI else 0,
                       CType.TYPE_II, dmax=max(d.indices))
            dbig = IndexSet.raw(tuple(d.indices) + (0,))
            dred = IndexSet.raw(tuple(dj - 1 for dj in d.indices))
            for n in range(3):
                lhs = multi_indexed_poly_y(dbig, n, p)
                rhs = multi_indexed_poly_y(dred, n, p.shift(tilde=1))
                ok &= (lhs - rhs).is_zero
    # single-index type I / type II relation
    for fam, bb in ((Family.LQ_JACOBI, B), (Family.LQ_LAGUERRE, F(0))):
        base = Params(fam, Q, A, bb, CType.TYPE_II, dmax=1)
        pm = base.shift(tilde=-1)
        sa, sb = tilde_delta(fam, CType.TYPE_I)
        for n in range(5):
            rhs = multi_indexed_poly_y(IndexSet.of(1), n, pm)
            pi = RawParams(fam, Q, A * Q ** (-sa),
                           bb * Q ** (-sb) if fam == Family.LQ_JACOBI else F(0), CType.TYPE_I)
            lhs = typeI_single_poly(1, n, pi)
            ok &= (lhs - rhs).is_zero
    # reflection remark: matches for n = 0,1 and fails for n = 2
    bgen = F(1, 20)
    pgen = Params(Family.LQ_JACOBI, Q, A, bgen, CType.TYPE_II, dmax=2)
    for n in range(3):
        try:
            refl = typeI_single_poly(
                2, n, RawParams(Family.LQ_JACOBI, 1 / Q, A, bgen, CType.TYPE_I))
            same = refl.coeff_dict() == multi_indexed_poly_y(
                IndexSet.of(2), n, pgen).coeff_dict()
        except InvalidParamsError:
            same = False
        ok &= same == (n <= 1)
    report(8, "structural_identities", ok,
           "permutation, reduction, type I/II, reflection")


def test_criterion_09_blimit_linear():
    devs = closed_forms.blimit_deviations(IndexSet.of(1, 2), Q, A, 2, 2)
    ratios = [devs[14] / devs[10], devs[18] / devs[14]]
    report(9, "blimit_linear_convergence", closed_forms.blimit_linear(ratios),
           "ratios %.4f, %.4f in [2^-4.5, 2^-3.5]" % tuple(map(float, ratios)))


def test_criterion_10_positivity_scans():
    ok = True
    for d, p in battery_points():
        xi = denominator_poly_y(d, p)
        ok &= all(xi.eval_int(x) > 0 for x in range(-1, 61))
        w = xi_casoratian(d, p)
        vals = [w.eval_int(x) for x in range(-1, 61)]
        ok &= all(v != 0 for v in vals) and len({v > 0 for v in vals}) == 1
        pots = deformed_potentials(d, p)
        ok &= pots.d_value(0) == 0
        ok &= all(pots.b_value(x) > 0 for x in range(0, 61))
        ok &= all(pots.d_value(x) > 0 for x in range(1, 61))
    report(10, "positivity_scans", ok, "battery, x in [-1,60], exact")
