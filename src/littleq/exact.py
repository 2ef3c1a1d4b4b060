"""Exact rational arithmetic and Laurent polynomials in y = q^x.

All scalars are ``fractions.Fraction`` (arbitrary precision, always stored in
lowest terms with positive denominator), so every identity in this package
reduces to an equality of integers.  Functions of the lattice coordinate x are
carried as finite Laurent polynomials in the formal variable y = q^x: the
shift x -> x+s then becomes the exact substitution y -> q^s * y, and the
sinusoidal coordinate eta(x) = 1 - q^x is the linear change of basis
eta = 1 - y.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

Scalar = Fraction
ScalarLike = Union[Fraction, int]


class LittleQError(Exception):
    """Root of the library's error hierarchy."""


class ExactError(LittleQError, ArithmeticError):
    """Base class for exact-arithmetic failures."""


class NegativePowersError(ExactError):
    """A genuine polynomial was required but negative powers of y remain."""


class ZeroDenominatorError(ExactError):
    """A lower q-Pochhammer factor vanished before a series terminated."""


class NonExactDivisionError(ExactError):
    """A division that must be exact left a nonzero remainder."""


class InvalidParamsError(LittleQError, ValueError):
    """Parameters outside the validated range for the requested system."""


class DegenerateCasoratianError(ExactError):
    """A Casoratian that must have definite sign is identically zero."""


class DenominatorZeroAtIntegerError(ExactError):
    """A rational function was evaluated at an integer zero of its denominator."""


class NonConvergenceError(ExactError):
    """A certified geometric tail bound could not be established."""


class RootFindingFailureError(ExactError):
    """Numeric roots failed the residual tolerance."""


def scalar(v: ScalarLike) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


def qpoch(z: ScalarLike, q: ScalarLike, n: int) -> Fraction:
    """q-Pochhammer symbol (z;q)_n = prod_{k=0}^{n-1} (1 - z q^k), n >= 0."""
    if n < 0:
        raise ValueError("q-Pochhammer needs n >= 0, got %d" % n)
    z, q = scalar(z), scalar(q)
    out = Fraction(1)
    cur = z
    for _ in range(n):
        out *= 1 - cur
        cur *= q
    return out


def qbinom2(n: int) -> int:
    """Binomial coefficient C(n, 2) for any integer n (0 for n < 2)."""
    return n * (n - 1) // 2


def qhyper_terminating(
    upper: Sequence[ScalarLike],
    lower: Sequence[ScalarLike],
    q: ScalarLike,
    z: ScalarLike,
    nterms: int,
) -> Fraction:
    """Terminating basic hypergeometric sum r\\phi_s at a scalar argument.

    Includes the standard [(-1)^k q^{C(k,2)}]^{s+1-r} factor.  The series must
    terminate at or before ``nterms`` (some upper parameter a power q^{-n});
    a vanishing lower factor before termination raises ZeroDenominatorError.
    """
    if nterms < 0:
        raise ValueError("nterms must be >= 0")
    ups = [scalar(u) for u in upper]
    lows = [scalar(l) for l in lower]
    q, z = scalar(q), scalar(z)
    sign_pow = len(lows) + 1 - len(ups)
    total = Fraction(1)
    term = Fraction(1)
    qk = Fraction(1)  # q^{k-1} while processing term k
    for k in range(1, nterms + 1):
        num = Fraction(1)
        for u in ups:
            num *= 1 - u * qk
        if num == 0:
            return total
        den = 1 - q ** k
        for l in lows:
            f = 1 - l * qk
            if f == 0:
                raise ZeroDenominatorError(
                    "lower parameter %s hit a zero factor at k=%d" % (l, k)
                )
            den *= f
        term = term * num / den * z * (-qk) ** sign_pow
        total += term
        qk *= q
    # termination must have happened by now
    for u in ups:
        if 1 - u * qk == 0:
            return total
    if z == 0 or term == 0:
        return total
    raise ValueError("series did not terminate within %d terms" % nterms)


class LaurentPoly:
    """Sparse Laurent polynomial in y = q^x over Fraction coefficients.

    Immutable by convention: no method mutates ``coeffs`` after construction.
    The base q is carried so that shifts in x are self-contained.
    """

    __slots__ = ("q", "coeffs")

    def __init__(self, q: ScalarLike, coeffs: Mapping[int, ScalarLike] | None = None):
        self.q = scalar(q)
        cs = {}
        if coeffs:
            for d, c in coeffs.items():
                c = scalar(c)
                if c != 0:
                    cs[int(d)] = c
        self.coeffs = cs

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls, q: ScalarLike) -> "LaurentPoly":
        return cls(q, {})

    @classmethod
    def one(cls, q: ScalarLike) -> "LaurentPoly":
        return cls(q, {0: 1})

    @classmethod
    def const(cls, q: ScalarLike, c: ScalarLike) -> "LaurentPoly":
        return cls(q, {0: c})

    @classmethod
    def monomial(cls, q: ScalarLike, deg: int, coeff: ScalarLike = 1) -> "LaurentPoly":
        return cls(q, {deg: coeff})

    @classmethod
    def var(cls, q: ScalarLike) -> "LaurentPoly":
        """The variable y itself."""
        return cls(q, {1: 1})

    # -- inspection ---------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def min_deg(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
        return min(self.coeffs)

    @property
    def max_deg(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
        return max(self.coeffs)

    def coeff(self, d: int) -> Fraction:
        return self.coeffs.get(d, Fraction(0))

    def coeff_dict(self) -> dict[int, Fraction]:
        return dict(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self.q == other.q and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == ({0: scalar(other)} if other != 0 else {})
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.q, tuple(sorted(self.coeffs.items()))))

    def __repr__(self) -> str:
        if self.is_zero:
            return "LaurentPoly(0)"
        body = " + ".join(
            "%s*y^%d" % (c, d) if d else str(c) for d, c in sorted(self.coeffs.items())
        )
        return "LaurentPoly(%s)" % body

    # -- ring operations ----------------------------------------------
    def _check(self, other: "LaurentPoly") -> None:
        if self.q != other.q:
            raise ValueError("mixed base q: %s vs %s" % (self.q, other.q))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(self.q, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        cs = dict(self.coeffs)
        for d, c in other.coeffs.items():
            s = cs.get(d, Fraction(0)) + c
            if s:
                cs[d] = s
            else:
                cs.pop(d, None)
        out = LaurentPoly.zero(self.q)
        out.coeffs = cs
        return out

    __radd__ = __add__

    def __neg__(self):
        out = LaurentPoly.zero(self.q)
        out.coeffs = {d: -c for d, c in self.coeffs.items()}
        return out

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(self.q, other)
        return self.__add__(other.__neg__())

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        cs: dict[int, Fraction] = {}
        for d1, c1 in self.coeffs.items():
            for d2, c2 in other.coeffs.items():
                d = d1 + d2
                s = cs.get(d, Fraction(0)) + c1 * c2
                if s:
                    cs[d] = s
                else:
                    cs.pop(d, None)
        out = LaurentPoly.zero(self.q)
        out.coeffs = cs
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = LaurentPoly.one(self.q)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale(self, c: ScalarLike) -> "LaurentPoly":
        c = scalar(c)
        out = LaurentPoly.zero(self.q)
        if c != 0:
            out.coeffs = {d: c * v for d, v in self.coeffs.items()}
        return out

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero scalar")
            return self.scale(Fraction(1, 1) / scalar(other))
        if isinstance(other, LaurentPoly):
            return self.divide_exact(other)
        return NotImplemented

    # -- the operations that make y mean q^x ---------------------------
    def shift(self, s: int) -> "LaurentPoly":
        """The polynomial representing x -> x+s; coefficient of y^d gains q^{d*s}."""
        if s == 0 or self.is_zero:
            return self
        q = self.q
        out = LaurentPoly.zero(q)
        out.coeffs = {d: c * q ** (d * s) for d, c in self.coeffs.items()}
        return out

    def eval_int(self, x: int) -> Fraction:
        """Exact value at integer x, i.e. at y = q^x."""
        yx = self.q ** x
        total = Fraction(0)
        for d, c in self.coeffs.items():
            total += c * yx ** d
        return total

    def at_infinity(self) -> Fraction:
        """Limit x -> infinity (y -> 0): the degree-0 coefficient."""
        if not self.is_zero and self.min_deg < 0:
            raise NegativePowersError(
                "x -> infinity limit diverges: negative powers present"
            )
        return self.coeff(0)

    # -- division and basis change -------------------------------------
    def divide_exact(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact quotient self/other; NonExactDivisionError on any remainder.

        In the Laurent ring monomials are units, so only the polynomial parts
        (after stripping valuations) need to divide.
        """
        if not isinstance(other, LaurentPoly):
            other = LaurentPoly.const(self.q, other)
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero:
            return LaurentPoly.zero(self.q)
        amin, amax = self.min_deg, self.max_deg
        bmin, bmax = other.min_deg, other.max_deg
        la, lb = amax - amin + 1, bmax - bmin + 1
        if la < lb:
            raise NonExactDivisionError("degree of dividend below divisor")
        A = [self.coeff(amin + i) for i in range(la)]
        B = [other.coeff(bmin + i) for i in range(lb)]
        lead = B[-1]
        qlen = la - lb + 1
        Q = [Fraction(0)] * qlen
        for i in range(qlen - 1, -1, -1):
            c = A[i + lb - 1] / lead
            Q[i] = c
            if c:
                for j, bj in enumerate(B):
                    A[i + j] -= c * bj
        if any(A):
            raise NonExactDivisionError("nonzero remainder in exact division")
        return LaurentPoly(self.q, {amin - bmin + i: Q[i] for i in range(qlen)})

    def to_eta(self) -> "EtaPoly":
        """Exact change of basis y = 1 - eta; requires a genuine polynomial."""
        if self.is_zero:
            return EtaPoly(self.q, ())
        if self.min_deg < 0:
            raise NegativePowersError("cannot express negative powers of y in eta")
        # Horner in (1 - eta)
        res = [self.coeff(self.max_deg)]
        for d in range(self.max_deg - 1, -1, -1):
            nxt = [Fraction(0)] * (len(res) + 1)
            for i, c in enumerate(res):
                nxt[i] += c
                nxt[i + 1] -= c
            nxt[0] += self.coeff(d)
            res = nxt
        return EtaPoly(self.q, res)


class EtaPoly:
    """Dense polynomial in the sinusoidal coordinate eta = 1 - q^x."""

    __slots__ = ("q", "coeffs")

    def __init__(self, q: ScalarLike, coeffs: Iterable[ScalarLike] = ()):
        self.q = scalar(q)
        cs = [scalar(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EtaPoly):
            return self.q == other.q and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == ((scalar(other),) if other != 0 else ())
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.q, self.coeffs))

    def __repr__(self) -> str:
        if self.is_zero:
            return "EtaPoly(0)"
        return "EtaPoly(%s)" % ", ".join(str(c) for c in self.coeffs)

    def eval_eta(self, eta: ScalarLike) -> Fraction:
        eta = scalar(eta)
        total = Fraction(0)
        for c in reversed(self.coeffs):
            total = total * eta + c
        return total

    def eval_int(self, x: int) -> Fraction:
        """Exact value at integer lattice point x, i.e. at eta = 1 - q^x."""
        return self.eval_eta(1 - self.q ** x)

    def to_laurent(self) -> LaurentPoly:
        """Exact change of basis eta = 1 - y."""
        q = self.q
        if self.is_zero:
            return LaurentPoly.zero(q)
        res = LaurentPoly.const(q, self.coeffs[-1])
        one_minus_y = LaurentPoly(q, {0: 1, 1: -1})
        for k in range(len(self.coeffs) - 2, -1, -1):
            res = res * one_minus_y + self.coeffs[k]
        return res


def _det_cofactor(rows: Sequence[Sequence[LaurentPoly]], q: Fraction) -> LaurentPoly:
    n = len(rows)
    if n == 0:
        return LaurentPoly.one(q)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = LaurentPoly.zero(q)
    for k in range(n):
        if rows[0][k].is_zero:
            continue
        minor = [[r[j] for j in range(n) if j != k] for r in rows[1:]]
        term = rows[0][k] * _det_cofactor(minor, q)
        total = total + (term if k % 2 == 0 else -term)
    return total


def det_laurent(
    rows: Sequence[Sequence[LaurentPoly]], *, q: ScalarLike | None = None
) -> LaurentPoly:
    """Exact determinant of a square matrix of Laurent polynomials.

    Size 0 gives 1 (then ``q`` must be passed).  Sizes up to 3 use cofactor
    expansion; larger sizes use fraction-free Bareiss elimination, whose
    intermediate divisions are exact in the Laurent ring.
    """
    n = len(rows)
    if n == 0:
        if q is None:
            raise ValueError("empty determinant needs an explicit q")
        return LaurentPoly.one(q)
    base_q = rows[0][0].q
    for r in rows:
        if len(r) != n:
            raise ValueError("determinant of a non-square matrix")
    if n <= 3:
        return _det_cofactor(rows, base_q)
    m = [list(r) for r in rows]
    sign = 1
    prev: LaurentPoly | None = None
    for k in range(n - 1):
        if m[k][k].is_zero:
            piv = next((i for i in range(k + 1, n) if not m[i][k].is_zero), None)
            if piv is None:
                return LaurentPoly.zero(base_q)
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                t = m[k][k] * m[i][j] - m[i][k] * m[k][j]
                m[i][j] = t.divide_exact(prev) if prev is not None else t
            m[i][k] = LaurentPoly.zero(base_q)
        prev = m[k][k]
    d = m[n - 1][n - 1]
    return -d if sign < 0 else d
