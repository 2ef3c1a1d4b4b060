"""The two undeformed lattice systems, exactly.

Builds the little q-Jacobi and little q-Laguerre eigenpolynomials, checks the
eigen-equation and the forward/backward shift relations with zero-residual
exact arithmetic, and prints a few values.  The Hamiltonian H and the shifts F
and Bk are difference-operator values {k: c_k} (f -> sum_k c_k f(x+k)), which
op_apply applies and op_compose composes.
"""
from fractions import Fraction as F

from littleq import (
    CType,
    Family,
    Params,
    backward_shift_op,
    eigen_at_infinity,
    eigenpoly,
    eigenpoly_y,
    energy,
    forward_shift_op,
    groundstate_sq,
    hamiltonian_op,
    op_add,
    op_apply,
    op_compose,
)

q, a, b = F(1, 2), F(1, 3), F(1, 16)
pj = Params(Family.LQ_JACOBI, q, a, b, CType.TYPE_II, dmax=2)
pl = Params(Family.LQ_LAGUERRE, q, a, 0, CType.TYPE_II, dmax=2)

print("== little q-Jacobi at q=%s, a=%s, b=%s ==" % (q, a, b))
for n in range(4):
    e = eigenpoly(n, pj)
    print("level %d: degree %d, coefficients in eta: %s" % (n, e.degree, list(e.coeffs)))
    assert e.eval_int(0) == 1  # every level is normalized at the origin

print("\nenergies:", [energy(n, pj) for n in range(5)])
print("squared ground state at x=0..4:", [groundstate_sq(x, pj) for x in range(5)])

# The eigen-equation holds as an identity of Laurent polynomials: the residual
# has no terms at all, not merely small ones.
for p, label in ((pj, "q-Jacobi"), (pl, "q-Laguerre")):
    h = hamiltonian_op(p)
    for n in range(7):
        f = eigenpoly_y(n, p)
        residual = op_apply(h, f) - f.scale(energy(n, p))
        assert residual.is_zero
    print("eigen-equation residuals identically zero for %s, n <= 6" % label)

# Shape invariance: the forward shift lowers the level while advancing the
# parameters, the backward shift undoes it.
up, fwd, bkw = pj.shift(delta=1), forward_shift_op(pj), backward_shift_op(pj)
for n in range(1, 6):
    f = eigenpoly_y(n, pj)
    assert (op_apply(fwd, f) - eigenpoly_y(n - 1, up).scale(energy(n, pj))).is_zero
    assert (op_apply(bkw, eigenpoly_y(n - 1, up)) - f).is_zero
print("forward/backward shift relations exact for n <= 5")

# The factorization H = Bk o F holds as an identity of operators, so for every
# level at once: each coefficient of Bk o F - H is the zero polynomial.
h = hamiltonian_op(pj)
residual = op_add(op_compose(bkw, fwd), {k: -c for k, c in h.items()})
assert all(c.is_zero for c in residual.values())
print("H = Bk o F as operators")

print("\nvalues at x = infinity:",
      [eigen_at_infinity(n, pj) for n in range(4)])
