"""Zeros, interlacing, and orthogonality certificates.

Locates the zeros of the multi-indexed polynomials at 256-bit precision,
shows the physical/unphysical split and interlacing, and proves the
infinite orthogonality sums exactly with telescoping certificates.
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

# Orthogonality: each claim sum_x w(x) f(q^x) = 0 is proved by a telescoping
# certificate N (q-Gosper summation), whose boundary value -N(1)/den(-1) is
# the whole infinite sum; no lattice term is summed.
data = OrthogonalityData(d, p, 3)
print("\northogonality of the D={2} polynomials, proved exactly:")
for n in range(4):
    for m in range(n + 1, 4):
        print("  S_%d%d = 0: %s" % (n, m, data.pair_sum(n, m).witness))

# Diagonal ratios: S_nn = t_n S_00 with t_n from the closed-form norm constants
for n in range(1, 4):
    target, cert = data.targets[n], data.pair_sum(n, n)
    print("  S_nn/S_00 = %s (%.12f) for n=%d: %s" % (target, float(target), n, cert.witness))

# The absolute check: S_00 over the undeformed S_00 at lambda + M tilde + delta
# is an exact rational T by the q-binomial theorem.
target, cert = data.absolute_ratio()
print("  S_00/S''_00 = T = %s (%.15f): %s" % (target, float(target), cert.witness))

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
