"""Multi-indexed polynomials from bordered Casoratians.

Constructs the denominator polynomial and the multi-indexed eigenpolynomials
for several index sets, and verifies degrees, normalizations, eigen-equations
and the closed-form limits, all in exact arithmetic.
"""
from fractions import Fraction as F

from littleq import (
    CType,
    Family,
    IndexSet,
    Params,
    deformed_eigencheck,
    deformed_forward_check,
    deformed_potentials,
    denominator_poly,
    eigenpoly_y,
    infinity_values,
    lowest_matches_denominator,
    multi_indexed_poly,
    multi_indexed_poly_y,
    op_apply,
    typeII_single_op,
)

q, a, b = F(1, 2), F(1, 3), F(1, 16)
p = Params(Family.LQ_JACOBI, q, a, b, CType.TYPE_II, dmax=2)

for d in (IndexSet.of(1), IndexSet.of(2), IndexSet.of(1, 2)):
    xi = denominator_poly(d, p)
    print("D=%s: denominator degree %d (missing degrees 0..%d), value 1 at x=-1"
          % (d, xi.degree, d.degree_offset - 1))
    assert xi.eval_int(-1) == 1 and xi.degree == d.degree_offset
    for n in range(4):
        pn = multi_indexed_poly(d, n, p)
        assert pn.degree == d.degree_offset + n
        assert pn.eval_int(0) == 1
        assert deformed_eigencheck(d, n, p).is_zero
        assert deformed_forward_check(d, n, p).is_zero
    print("   levels 0..3: degree law, normalization, eigen and shift"
          " relations all exact")
    # the lowest level is the denominator at shifted argument and parameters
    assert lowest_matches_denominator(d, p).is_zero

# Single-index sets admit a closed form that bypasses the determinant: every
# level is one operator applied to P_n, and the two operators agree.
d2 = IndexSet.of(2)
for n in range(4):
    pn = eigenpoly_y(n, p)
    assert (multi_indexed_poly_y(d2, n, p) - op_apply(typeII_single_op(2, p), pn)).is_zero
print("\nD={2}: determinant route equals the single-index closed form, n <= 3")

print("coefficients of the D={2}, n=1 polynomial in eta:")
print("  ", list(multi_indexed_poly(d2, 1, p).coeffs))
xinf, pinf = infinity_values(d2, 1, p)
print("limits at x = infinity: denominator %s, polynomial %s" % (xinf, pinf))

# The deformed hopping potentials stay positive with the correct boundary.
pots = deformed_potentials(d2, p)
assert pots.d_value(0) == 0
assert all(pots.b_value(x) > 0 for x in range(30))
assert all(pots.d_value(x) > 0 for x in range(1, 30))
print("deformed potentials positive on the lattice, down-hop zero at x=0")
