"""Zeros, interlacing, and orthogonality sums.

Locates the zeros of the multi-indexed polynomials at 256-bit precision,
shows the physical/unphysical split and interlacing, and evaluates the
infinite orthogonality sums with exact partial sums plus estimated
geometric tails.
"""
from fractions import Fraction as F

from littleq import CType, Family, IndexSet, Params, multi_indexed_poly
from littleq.verify import OrthogonalityData, polynomial_roots, run_suite

q, a, b = F(1, 2), F(1, 3), F(1, 16)
p = Params(Family.LQ_JACOBI, q, a, b, CType.TYPE_II, dmax=2)
d = IndexSet.of(2)

# the zeros suite proves the counts and the interlacing in exact arithmetic;
# its check witnesses carry them
report = run_suite(d, p, nmax=3, suites=("zeros",))
witness = {c.name: c.witness for c in report.checks}


def show(r, phys):
    flag = "" if phys else "*"
    if abs(float(r.imag)) > 1e-20:
        return "%.4f%+.4fi%s" % (float(r.real), float(r.imag), flag)
    return "%.6f%s" % (float(r.real), flag)


print("zeros of the D={2} polynomials in eta (physical region is [0,1)):")
for n in range(4):
    line = ", ".join(show(r, phys) for r, phys in polynomial_roots(d, n, p))
    print("  n=%d: %s   -> %s" % (n, line, witness["zeros_n%d" % n]))

print("\n(degree always equals %d + n; starred zeros are unphysical)"
      % d.degree_offset)

# Orthogonality: partial sums are exact rationals; the tail is a geometric
# estimate, trusted after eight observed ratio steps.  Diagonal ratios then match closed-form constants exactly
# within twice the relative tail bound.
data = OrthogonalityData(d, p, 3, F(1, 10 ** 24))
s00 = data.diag[0]
print("\nS_00 summed to x=%d, tail bound %.3e" %
      (s00.truncation_x, float(s00.tail.exact())))
for n in range(1, 4):
    got = data.diag[n].value.exact() / s00.value.exact()
    target = data.diag_ratio(n)[1]
    print("  n=%d: S_nn/S_00 = %.12f, closed form %.12f, difference %.1e"
          % (n, float(got), float(target), abs(float(got - target))))

# The absolute check: S_00 over the undeformed S_00 at lambda + M tilde + delta
# is an exact rational T by the q-binomial theorem.
ref = OrthogonalityData(IndexSet.of(), p.shift(tilde=d.size, delta=1), 0, F(1, 10 ** 24))
got, target, bound, ok = data.absolute_ratio()
print("S_00 = %.15f, undeformed reference S''_00 = %.15f (to x=%d)"
      % (float(s00.value.exact()), float(ref.diag[0].value.exact()), ref.diag[0].truncation_x))
print("  S_00/S''_00 = %.15f, T = %s = %.15f, bound %.1e, %s"
      % (float(got.exact()), target, float(target), float(bound.exact()),
         "pass" if ok else "fail"))

off = data.pair_sum(0, 2)
print("off-diagonal S_02 partial sum %.3e below tail bound %.3e"
      % (float(abs(off.value.exact())), float(off.tail.exact())))

# The family limit: little q-Jacobi coefficients drift linearly in b toward
# little q-Laguerre.
lag = Params(Family.LQ_LAGUERRE, q, a, 0, CType.TYPE_II, dmax=2)
for k in (10, 14, 18):
    pj_k = Params(Family.LQ_JACOBI, q, a, F(1, 2 ** k), CType.TYPE_II, dmax=2)
    dev = max(
        abs(multi_indexed_poly(d, 1, pj_k).coeff(i)
            - multi_indexed_poly(d, 1, lag).coeff(i))
        for i in range(4)
    )
    print("b = 2^-%d: max coefficient deviation %.3e" % (k, float(dev)))
