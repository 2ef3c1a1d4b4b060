"""Hand-transcribed closed forms for D = {2}, n = 0, 1 (both constructions),
and the sampled rate oracle of the b -> 0 limit.

The closed forms are independent oracles for the determinant engine: plain
rational functions of (q, a, b) evaluated at q^x, kept deliberately free of
any package machinery.  Both type II forms were cross-checked by hand to
equal 1 at x = 0.  The rate oracle (blimit_deviations, blimit_linear) reads
the package's levels at three small b; verify decides the same limit exactly
at b = 0 (structural_blimit_linear), and the tests hold the two against
each other.
"""
from fractions import Fraction

from littleq import CType, Family, Params, multi_indexed_poly


def type2_d2_n0(q, a, b, x):
    num = (
        (1 - a * q) * (1 - a * q ** 2)
        - (1 + q) * (1 - a * q ** 2) * (b - a * q ** 3) * q ** (x - 2)
        + (b - a * q ** 3) * (b - a * q ** 4) * q ** (2 * x - 3)
    )
    return num / ((1 - b * q ** -1) * (1 - b * q ** -2))


def type2_d2_n1(q, a, b, x):
    t = -(1 - a) * (1 - a * q) * (1 - a * q ** 3)
    t += (1 - a) * (1 - a * q ** 3) * (
        (1 + q) * (b - a * q ** 3) + q ** 2 * (1 - a * b)
    ) * q ** (x - 2)
    t -= (1 - a * q ** 3) * (b - a * q ** 3) * (
        (1 + q) * (q - a * b) + b - a * q ** 2
    ) * q ** (2 * x - 3)
    t += (1 - a * b) * (b - a * q ** 3) * (b - a * q ** 4) * q ** (3 * x - 3)
    return t * q ** -1 / (a * (1 - b) * (1 - b * q ** -1) * (1 - b * q ** -3))


def type1_d2_n0(q, a, b, x):
    num = (
        (1 - a * q ** -1) * (1 - a * q ** -2)
        + (1 + q) * (1 - a * q ** -2) * (a - b * q ** 3) * q ** (x - 2)
        + (a - b * q ** 3) * (a - b * q ** 4) * q ** (2 * x - 4)
    )
    return num / ((1 - b * q) * (1 - b * q ** 2))


def type1_d2_n1(q, a, b, x):
    t = -(1 - a) * (1 - a * q ** -1) * (1 - a * q ** -3)
    t -= (1 - a) * (1 - a * q ** -3) * (
        (1 + q) * (a - b * q ** 3) - q ** 2 * (1 - a * b)
    ) * q ** (x - 2)
    t += (1 - a * q ** -3) * (a - b * q ** 3) * (
        (1 + q) * (1 - a * b * q) - a + b * q ** 2
    ) * q ** (2 * x - 2)
    t += (1 - a * b) * (a - b * q ** 3) * (a - b * q ** 4) * q ** (3 * x - 4)
    return t * q / (a * (1 - b) * (1 - b * q) * (1 - b * q ** 3))


def blimit_linear(ratios):
    """Whether every ratio r lies in [2^-4.5, 2^-3.5], decided exactly as
    r > 0 and 2^-9 <= r^2 <= 2^-7."""
    return all(r > 0 and Fraction(1, 512) <= r * r <= Fraction(1, 128) for r in ratios)


def blimit_deviations(d, q, a, dmax, nmax):
    """{k: deviation} at the type II little q-Jacobi probes b = 2^-k,
    k = k0, k0 + 4, k0 + 8: the largest coefficient deviation of the levels
    n <= min(nmax, 2) of D from the little q-Laguerre ones.  The first probe
    is at least two halvings below b = q^(1+dmax), the pole nearest zero, so
    a linear limit shrinks each deviation by about 2^-4 per step."""
    lag = Params(Family.LQ_LAGUERRE, q, a, 0, CType.TYPE_II, dmax)
    pole, kp = Fraction(q) ** (1 + dmax), 0
    while pole.numerator << kp < pole.denominator:  # least kp: 2^-kp <= pole
        kp += 1
    k0 = max(10, kp + 2)
    devs = {}
    for k in (k0, k0 + 4, k0 + 8):
        pj = Params(Family.LQ_JACOBI, q, a, Fraction(1, 2 ** k), CType.TYPE_II, dmax)
        dev = Fraction(0)
        for n in range(min(nmax, 2) + 1):
            pja, pla = multi_indexed_poly(d, n, pj), multi_indexed_poly(d, n, lag)
            top = max(pja.degree, pla.degree)
            dev = max(dev, max(abs(pja.coeff(i) - pla.coeff(i)) for i in range(top + 1)))
        devs[k] = dev
    return devs
