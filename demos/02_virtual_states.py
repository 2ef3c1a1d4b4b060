"""Virtual states: the seed solutions of the isospectral deformations.

Shows the auxiliary potentials and the two factorization identities that tie
them to the original system, the virtual-state polynomials with their
negative energies, and the positivity that makes them usable as seeds.
"""
from fractions import Fraction as F

from littleq import (
    CType,
    Family,
    LaurentPoly,
    Params,
    potential_b,
    potential_d,
    virtual_data,
    virtual_energy,
    virtual_energy_prime,
    virtual_poly_y,
    xi_diffeq_residual,
)

q, a, b = F(1, 2), F(1, 3), F(1, 200)
p = Params(Family.LQ_JACOBI, q, a, b, CType.TYPE_II, dmax=6)

vd = virtual_data(p)
print("auxiliary up-potential:  ", vd.bprime_new)
print("auxiliary down-potential:", vd.dprime_new)
print("additive constant alpha' =", vd.alpha_prime, "(negative)")

# Identity 1: same off-diagonal products as the original Hamiltonian.
r1 = potential_b(p) * potential_d(p).shift(1) - vd.bprime_new * vd.dprime_new.shift(1)
# Identity 2: diagonals differ by the constant alpha'.
r2 = (potential_b(p) + potential_d(p) - vd.bprime_new - vd.dprime_new
      - LaurentPoly.const(q, vd.alpha_prime))
assert r1.is_zero and r2.is_zero
print("both factorization identities hold with zero residual")

print("\nvirtual-state polynomials (normalized to 1 at x = -1):")
for v in range(5):
    xi = virtual_poly_y(v, p)
    assert xi.eval_int(-1) == 1
    assert xi_diffeq_residual(v, p).is_zero  # H' xi = E' xi, H' = hop_op(B', D')
    print("  v=%d: energy %s = %s + alpha'" %
          (v, virtual_energy(v, p), virtual_energy_prime(v, p)))
    assert virtual_energy(v, p) < 0

# Positivity on the half lattice including x = -1 is what lets these states
# seed a nonsingular deformation.
for v in range(5):
    xi = virtual_poly_y(v, p)
    assert all(xi.eval_int(x) > 0 for x in range(-1, 61))
print("all virtual-state polynomials positive on x in [-1, 60]")

# The type I seeds are eigenpolynomials at twisted parameters instead.
pi = Params(Family.LQ_JACOBI, q, F(1, 10), F(1, 16), CType.TYPE_I, dmax=2)
for v in range(3):
    xi = virtual_poly_y(v, pi)
    assert xi.eval_int(0) == 1  # type I normalization sits at the origin
    assert virtual_energy(v, pi) < 0
print("type I virtual states built by the parameter twist, energies negative")
