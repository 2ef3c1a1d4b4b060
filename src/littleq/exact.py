"""Exact rational arithmetic and Laurent polynomials in y = q^x.

All scalars are ``fractions.Fraction`` (arbitrary precision, always stored in
lowest terms with positive denominator), so every identity in this package
reduces to an equality of integers.  Functions of the lattice coordinate x are
carried as finite Laurent polynomials in the formal variable y = q^x: the
shift x -> x+s then becomes the exact substitution y -> q^s * y, and the
sinusoidal coordinate eta(x) = 1 - q^x is the linear change of basis
eta = 1 - y.

A LaurentPoly is stored as y^val * (num[0] + num[1] y + ...) / den with a
tuple of Python ints ``num`` (first and last entries nonzero), den > 0 and
gcd(den, *num) == 1; an EtaPoly is stored the same way in powers of eta, from
eta^0 (last entry nonzero).  This form is unique, so equality is equality of
storage, and multiplication, addition, shifts (q = r/t), evaluation, exact
division and the change to eta all run on integers; Fractions appear only at
the public boundary (``coeff``, ``coeff_dict``/``coeffs``, ``eval_int``,
``eval_eta``).  A difference operator is a mapping {k: LaurentPoly c_k}
acting as f -> sum_k c_k f(x + k).
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence, Union

ScalarLike = Union[Fraction, int]


class LittleQError(Exception):
    """Root of the library's error hierarchy."""


class ExactError(LittleQError, ArithmeticError):
    """Base class for exact-arithmetic failures."""


class NegativePowersError(ExactError):
    """A genuine polynomial was required but negative powers of y remain."""


class NonExactDivisionError(ExactError):
    """A division that must be exact left a nonzero remainder."""


class InvalidParamsError(LittleQError, ValueError):
    """Parameters outside the validated range for the requested system."""


class DegenerateCasoratianError(ExactError):
    """A Casoratian that must have definite sign is identically zero."""


class DenominatorZeroAtIntegerError(ExactError):
    """A rational function was evaluated at an integer zero of its denominator,
    or its denominator is not proved nonzero on the lattice."""


class NonConvergenceError(ExactError):
    """A search or a series did not converge: no valid random parameter point
    was drawn, or the orthogonality sums are not proved to converge."""


class RootFindingFailureError(ExactError):
    """Numeric roots failed the residual tolerance."""


def scalar(v: ScalarLike) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


def fmt_rational(x: Fraction) -> str:
    """Exact "num/den" text of a rational, also for integers."""
    return "%d/%d" % (x.numerator, x.denominator)


def qpoch_pair(z: ScalarLike, q: ScalarLike, n: int) -> tuple[int, int]:
    """(z;q)_n as an unreduced integer pair (num, den), n >= 0.

    With z = zn/zd and q = r/t, (z;q)_n = prod_{k<n} (zd t^k - zn r^k) over
    zd^n t^C(n,2); den > 0, and no gcd is taken.
    """
    if n < 0:
        raise ValueError("q-Pochhammer needs n >= 0, got %d" % n)
    z, q = scalar(z), scalar(q)
    zn, zd, r, t = z.numerator, z.denominator, q.numerator, q.denominator
    num, rk, tk = 1, 1, 1
    for _ in range(n):
        num *= zd * tk - zn * rk
        rk *= r
        tk *= t
    return num, zd ** n * t ** qbinom2(n)


def qpoch(z: ScalarLike, q: ScalarLike, n: int) -> Fraction:
    """q-Pochhammer symbol (z;q)_n = prod_{k=0}^{n-1} (1 - z q^k), n >= 0,
    reduced once from the integer product of qpoch_pair."""
    return Fraction(*qpoch_pair(z, q, n))


def qbinom2(n: int) -> int:
    """Binomial coefficient C(n, 2) for any integer n (0 for n < 2)."""
    return n * (n - 1) // 2


def horner(num: Sequence[int], r: int, t: int) -> tuple[int, int]:
    """The integer polynomial num (lowest degree first, nonempty) at r/t, as
    the pair (sum_i num[i] r^i t^(k-i), t^k) with k = len(num) - 1."""
    acc, tp = num[-1], 1
    for c in num[-2::-1]:
        tp *= t
        acc = acc * r + c * tp
    return acc, tp


def qhyper_terms(
    upper: Sequence[ScalarLike | tuple[ScalarLike, ScalarLike]],
    lower: Sequence[ScalarLike],
    q: ScalarLike,
    z: ScalarLike,
    nterms: int,
) -> list[Fraction]:
    """Terms k = 0..K of the terminating basic hypergeometric series r\\phi_s.

    Term k is (upper;q)_k / ((lower;q)_k (q;q)_k) z^k [(-1)^k q^{C(k,2)}]^{s+1-r},
    so with z = c*y it is the coefficient of y^k.  An upper pair (c, u) has
    the factor c - u q^(k-1) for 1 - u q^(k-1), so (u/c; q)_k c^k, finite at
    c = 0.  The terms stop before the first k at which an upper factor
    vanishes, else at K = nterms, where the series must have terminated
    (ValueError otherwise); a vanishing lower factor before that raises
    InvalidParamsError.  With q = r/t each term ratio is one unreduced
    integer pair, reduced once into its term.
    """
    if nterms < 0:
        raise ValueError("nterms must be >= 0")
    lows = [scalar(l) for l in lower]
    q, z = scalar(q), scalar(z)
    r, t = q.numerator, q.denominator
    sign_pow = len(lows) + 1 - len(upper)
    # the ratio's powers of t^(k-1) cancel between the upper, lower, (q;q)
    # and sign factors, which leaves these k-independent parts; an upper
    # factor c - u q^(k-1) (c = 1 for a plain u) is (cu tk - uc rk) / (c.den u.den tk)
    num0 = t * z.numerator
    den0 = z.denominator
    ups = []
    for u in upper:
        c, u = map(scalar, u) if isinstance(u, tuple) else (1, scalar(u))
        den0 *= c.denominator * u.denominator
        ups.append((c.numerator * u.denominator, u.numerator * c.denominator))
    for l in lows:
        num0 *= l.denominator
    terms = [Fraction(1)]
    rk, tk = 1, 1  # q^{k-1} = rk/tk while building term k
    for k in range(1, nterms + 1):
        num = 1
        for cu, uc in ups:
            num *= cu * tk - uc * rk
        if num == 0:
            return terms
        num *= num0
        den = den0 * (tk * t - rk * r)
        for l in lows:
            den *= l.denominator * tk - l.numerator * rk
        if den == 0:
            raise InvalidParamsError("Pochhammer denominator vanished at k=%d" % k)
        if sign_pow > 0:
            num *= (-rk) ** sign_pow
        elif sign_pow < 0:
            den *= (-rk) ** -sign_pow
        prev = terms[-1]
        terms.append(Fraction(prev.numerator * num, prev.denominator * den))
        rk *= r
        tk *= t
    # termination must have happened by now
    if z == 0 or not terms[-1] or any(cu * tk == uc * rk for cu, uc in ups):
        return terms
    raise ValueError("series did not terminate within %d terms" % nterms)


def qhyper_terminating(
    upper: Sequence[ScalarLike],
    lower: Sequence[ScalarLike],
    q: ScalarLike,
    z: ScalarLike,
    nterms: int,
) -> Fraction:
    """Terminating basic hypergeometric sum r\\phi_s at a scalar argument:
    the sum of qhyper_terms."""
    return sum(qhyper_terms(upper, lower, q, z, nterms), Fraction(0))


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The coefficients of the product of two integer polynomials."""
    out = [0] * (len(a) + len(b) - 1 if a and b else 0)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                out[j] += ai * bj
    return out


def _lincomb(terms: Sequence[tuple[int, int, Sequence[int], int]]) -> tuple[int, list[int], int]:
    """sum_t c y^v num / den over the terms (c, v, num, den) with integer c,
    num and den, as y^val * out / lcm of the den: the triple (val, out, lcm),
    unnormalized.  There must be at least one term."""
    den = lcm(*(t[3] for t in terms))
    lo = min(t[1] for t in terms)
    out = [0] * (max(v + len(num) for _, v, num, _ in terms) - lo)
    for c, v, num, d in terms:
        c *= den // d
        for i, a in enumerate(num, v - lo):
            out[i] += c * a
    return lo, out, den


class LaurentPoly:
    """Laurent polynomial in y = q^x with rational coefficients.

    Stored as ``y^val * (num[0] + num[1]*y + ... ) / den`` with ``num`` a
    tuple of ints whose first and last entries are nonzero, ``den > 0`` and
    ``gcd(den, *num) == 1``; the zero polynomial is ``num == ()``, ``val == 0``,
    ``den == 1``.  The representation is canonical, so equal polynomials have
    equal storage, and every ring operation runs on integers.  Immutable by
    convention.  The base q is carried so that shifts in x are self-contained.
    """

    __slots__ = ("q", "val", "num", "den")

    def __init__(self, q: ScalarLike, coeffs: Mapping[int, ScalarLike] | None = None):
        self.q = scalar(q)
        terms = {int(d): scalar(c) for d, c in coeffs.items() if c} if coeffs else {}
        if not terms:
            self.val, self.num, self.den = 0, (), 1
            return
        # over the lcm of the reduced denominators the content is already coprime to it
        lo = min(terms)
        den = lcm(*(c.denominator for c in terms.values()))
        num = [0] * (max(terms) - lo + 1)
        for d, c in terms.items():
            num[d - lo] = c.numerator * (den // c.denominator)
        self.val, self.num, self.den = lo, tuple(num), den

    def _new(self, val: int, num: Sequence[int], den: int) -> "LaurentPoly":
        """Normalized y^val * num / den over this polynomial's q."""
        hi = len(num)
        while hi and not num[hi - 1]:
            hi -= 1
        lo = 0
        while lo < hi and not num[lo]:
            lo += 1
        if lo == hi:
            return LaurentPoly.zero(self.q)
        num = num[lo:hi]
        if den < 0:
            den, num = -den, [-c for c in num]
        g = gcd(den, *num)
        if g != 1:
            den //= g
            num = [c // g for c in num]
        out = LaurentPoly.__new__(LaurentPoly)
        out.q, out.val, out.num, out.den = self.q, val + lo, tuple(num), den
        return out

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
        return not self.num

    @property
    def min_deg(self) -> int:
        if not self.num:
            raise ValueError("zero polynomial has no degree")
        return self.val

    @property
    def max_deg(self) -> int:
        if not self.num:
            raise ValueError("zero polynomial has no degree")
        return self.val + len(self.num) - 1

    def coeff(self, d: int) -> Fraction:
        i = d - self.val
        if 0 <= i < len(self.num):
            return Fraction(self.num[i], self.den)
        return Fraction(0)

    def coeff_dict(self) -> dict[int, Fraction]:
        """The nonzero terms as {degree: coefficient}."""
        den, val = self.den, self.val
        return {val + i: Fraction(c, den) for i, c in enumerate(self.num) if c}

    coeffs = property(coeff_dict)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):  # constants equal by value, whatever their q
            return (self.val == other.val and self.den == other.den and self.num == other.num
                    and (self.q is other.q or self.q == other.q
                         or (self.val == 0 and len(self.num) <= 1)))
        if isinstance(other, (int, Fraction)):
            if not other:
                return not self.num
            return self.val == 0 and len(self.num) == 1 and self.coeff(0) == other
        return NotImplemented

    def __hash__(self) -> int:
        if self.val == 0 and len(self.num) <= 1:  # a constant hashes as its scalar
            return hash(self.coeff(0))
        return hash((self.q, self.val, self.num, self.den))

    def __repr__(self) -> str:
        if self.is_zero:
            return "LaurentPoly(0)"
        body = " + ".join(
            "%s*y^%d" % (c, d) if d else str(c) for d, c in sorted(self.coeffs.items())
        )
        return "LaurentPoly(%s)" % body

    # -- ring operations ----------------------------------------------
    def _check(self, other: "LaurentPoly") -> None:
        if self.q is not other.q and self.q != other.q:  # most operands share one q
            raise ValueError("mixed base q: %s vs %s" % (self.q, other.q))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(self.q, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        self._check(other)
        if not other.num:
            return self
        if not self.num:
            return other
        # both over lcm(den1, den2), aligned at the lower valuation
        g = gcd(self.den, other.den)
        fa, fb = other.den // g, self.den // g
        val = min(self.val, other.val)
        oa, ob = self.val - val, other.val - val
        out = [0] * max(oa + len(self.num), ob + len(other.num))
        for i, c in enumerate(self.num, oa):
            out[i] = c * fa
        for i, c in enumerate(other.num, ob):
            out[i] += c * fb
        return self._new(val, out, self.den * fa)

    __radd__ = __add__

    def __neg__(self):
        out = LaurentPoly.__new__(LaurentPoly)
        out.q, out.val, out.den = self.q, self.val, self.den
        out.num = tuple(-c for c in self.num)
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
        return self._new(self.val + other.val, _convolve(self.num, other.num),
                         self.den * other.den)

    __rmul__ = __mul__

    def scale(self, c: ScalarLike) -> "LaurentPoly":
        c = scalar(c)
        n, d = c.numerator, c.denominator
        return self._new(self.val, [v * n for v in self.num], self.den * d)

    # -- the operations that make y mean q^x ---------------------------
    def _ratio(self, x: int) -> tuple[int, int]:
        """q^x as a pair of integers (R, T) with q^x = R/T."""
        r, t = self.q.numerator, self.q.denominator
        return (r ** x, t ** x) if x >= 0 else (t ** -x, r ** -x)

    def shift(self, s: int) -> "LaurentPoly":
        """The polynomial representing x -> x+s; coefficient of y^d gains q^{d*s}."""
        if s == 0 or self.is_zero:
            return self
        # q^{(val+i)s} = (A/B) * R^i T^{n-i} / T^n with R/T = q^s, A/B = q^{val*s}
        R, T = self._ratio(s)
        A, B = self._ratio(self.val * s)
        n = len(self.num) - 1
        out = [c * A * R ** i * T ** (n - i) for i, c in enumerate(self.num)]
        return self._new(self.val, out, self.den * B * T ** n)

    def eval_int(self, x: int) -> Fraction:
        """Exact value at integer x, i.e. at y = q^x."""
        if not self.num:
            return Fraction(0)
        r, t = self._ratio(x)
        acc, tp = horner(self.num, r, t)
        A, B = (r, t) if self.val >= 0 else (t, r)  # y^val = A/B
        return Fraction(acc * A ** abs(self.val), self.den * tp * B ** abs(self.val))

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
        (after stripping valuations) need to divide.  The divisor's numerator
        is made primitive first; by Gauss's lemma an exact quotient of an
        integer polynomial by a primitive one has integer coefficients, so
        every step of the integer long division must divide exactly.
        """
        if not isinstance(other, LaurentPoly):
            other = LaurentPoly.const(self.q, other)
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero:
            return LaurentPoly.zero(self.q)
        la, lb = len(self.num), len(other.num)
        if la < lb:
            raise NonExactDivisionError("degree of dividend below divisor")
        content = gcd(*other.num)
        B = [c // content for c in other.num]
        A = list(self.num)
        lead = B[-1]
        qlen = la - lb + 1
        Q = [0] * qlen
        for i in range(qlen - 1, -1, -1):
            c, rem = divmod(A[i + lb - 1], lead)
            if rem:
                raise NonExactDivisionError("nonzero remainder in exact division")
            Q[i] = c
            if c:
                for j, bj in enumerate(B, i):
                    A[j] -= c * bj
        if any(A):
            raise NonExactDivisionError("nonzero remainder in exact division")
        # self/other = y^(va-vb) * Q * den_b / (den_a * content)
        return self._new(self.val - other.val, [c * other.den for c in Q],
                         self.den * content)

    def to_eta(self) -> "EtaPoly":
        """Exact change of basis y = 1 - eta; requires a genuine polynomial."""
        if self.is_zero:
            return EtaPoly(self.q, ())
        if self.val < 0:
            raise NegativePowersError("cannot express negative powers of y in eta")
        # integer Horner in (1 - eta) over the coefficients of y^0 .. y^max_deg;
        # the change of basis is unimodular, so the content stays coprime to den
        ys = [0] * self.val + list(self.num)
        res = [ys[-1]]
        for c in ys[-2::-1]:
            nxt = res + [0]
            for i in range(len(res)):
                nxt[i + 1] -= res[i]
            nxt[0] += c
            res = nxt
        out = EtaPoly.__new__(EtaPoly)
        out.q, out.num, out.den = self.q, tuple(res), self.den
        return out


class EtaPoly:
    """Dense polynomial in the sinusoidal coordinate eta = 1 - q^x.

    Stored like LaurentPoly: ``(num[0] + num[1]*eta + ...) / den`` with ``num``
    a tuple of ints whose last entry is nonzero, ``den > 0`` and
    ``gcd(den, *num) == 1``; the zero polynomial is ``num == ()``, ``den == 1``.
    """

    __slots__ = ("q", "num", "den")

    def __init__(self, q: ScalarLike, coeffs: Iterable[ScalarLike] = ()):
        self.q = scalar(q)
        cs = [scalar(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        # over the lcm of the reduced denominators the content is already coprime to it
        self.den = lcm(*(c.denominator for c in cs))
        self.num = tuple(c.numerator * (self.den // c.denominator) for c in cs)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients of eta^0 .. eta^degree."""
        return tuple(Fraction(c, self.den) for c in self.num)

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.num) - 1

    @property
    def leading(self) -> Fraction:
        if not self.num:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.num[-1], self.den)

    def coeff(self, k: int) -> Fraction:
        return Fraction(self.num[k], self.den) if 0 <= k < len(self.num) else Fraction(0)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EtaPoly):  # constants equal by value, whatever their q
            return (self.den == other.den and self.num == other.num
                    and (self.q == other.q or len(self.num) <= 1))
        if isinstance(other, (int, Fraction)):
            if not other:
                return not self.num
            return len(self.num) == 1 and self.coeff(0) == other
        return NotImplemented

    def __hash__(self) -> int:
        if len(self.num) <= 1:  # a constant hashes as its scalar
            return hash(self.coeff(0))
        return hash((self.q, self.num, self.den))

    def __repr__(self) -> str:
        if self.is_zero:
            return "EtaPoly(0)"
        return "EtaPoly(%s)" % ", ".join(str(c) for c in self.coeffs)

    def eval_eta(self, eta: ScalarLike) -> Fraction:
        if not self.num:
            return Fraction(0)
        eta = scalar(eta)
        acc, tp = horner(self.num, eta.numerator, eta.denominator)
        return Fraction(acc, self.den * tp)

    def eval_int(self, x: int) -> Fraction:
        """Exact value at integer lattice point x, i.e. at eta = 1 - q^x."""
        return self.eval_eta(1 - self.q ** x)


def op_apply(op: Mapping[int, LaurentPoly], f: LaurentPoly) -> LaurentPoly:
    """op[f] = sum_k c_k f(x + k)."""
    return sum((f.shift(k) * c for k, c in op.items()), LaurentPoly.zero(f.q))


def op_add(*ops: Mapping[int, LaurentPoly]) -> dict[int, LaurentPoly]:
    """The sum of operators."""
    out: dict[int, LaurentPoly] = {}
    for op in ops:
        for k, c in op.items():
            out[k] = out[k] + c if k in out else c
    return out


def op_compose(*ops: Mapping[int, LaurentPoly]) -> dict[int, LaurentPoly]:
    """a o b o ... (b acts first): (a_i T^i) o (b_j T^j) = a_i b_j(x + i) T^(i + j)."""
    out = dict(ops[0])
    for b in ops[1:]:
        terms: dict[int, list] = {}  # the products a_i b_j(x + i) at each key i + j
        for i, ai in out.items():
            for j, bj in b.items():
                ai._check(bj)
                bj = bj.shift(i)
                terms.setdefault(i + j, []).append(
                    (1, ai.val + bj.val, _convolve(ai.num, bj.num), ai.den * bj.den))
        out = {k: ai._new(*_lincomb(t)) for k, t in terms.items()}  # any a_i, for its q
    return out


def det_laurent(
    rows: Sequence[Sequence[LaurentPoly]], *, q: ScalarLike | None = None
) -> LaurentPoly:
    """Exact determinant of a square matrix of Laurent polynomials.

    Size 0 gives 1 (then ``q`` must be passed); other sizes use fraction-free
    Bareiss elimination, whose intermediate divisions are exact in the
    Laurent ring.
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
