"""Binary floating point on exact dyadic rationals, and its decimal strings.

round_bits rounds a rational to a number of significant bits, to nearest
with ties to even; nstr prints a dyadic rational with dps significant
digits, and nstr_ratio rounds a rational and prints it in one step, as the
table does.  They give the strings mpmath.nstr(mpf, dps, strip_zeros=False)
gives at the same precision, digit for digit: the digits are floored to
dps + 3 places through a binary fixed-point number, then rounded to dps, as
mpmath's to_str and to_digits_exp do.  Beyond binary exponents of +-3500,
the value is first divided by a power of ten computed with directed
rounding, in the same steps as mpmath's.
"""
from __future__ import annotations

import math
from fractions import Fraction

# floor(ln 2 * 2^128) and floor(ln 10 * 2^126): 128-bit truncations
_LN2, _LN10 = 0xB17217F7D1CF79ABC9E3B39803F2F6AF, 0x935D8DDDAAA8AC16EA56D62B82D30A28
_LOG2_10 = math.log(10, 2)


def _round(n: int, d: int, prec: int, mode: int = 0, e: int = 0) -> tuple[int, int]:
    """n/d * 2^e, for n, d > 0, to prec bits: to nearest with ties to even
    (mode 0), down (-1) or up (1).  Returns (man, exp) with man odd."""
    t = prec + 2 + d.bit_length() - n.bit_length()
    q, r = divmod(n << t, d) if t >= 0 else divmod(n, d << -t)
    x = q.bit_length() - prec  # at least 2
    low, q = q & ((1 << x) - 1), q >> x
    if mode > 0:
        q += bool(low or r)
    elif mode == 0 and low >> (x - 1) and (low & ((1 << (x - 1)) - 1) or r or q & 1):
        q += 1
    z = (q & -q).bit_length() - 1
    return q >> z, e - t + x + z


def _round_signed(n: int, d: int, prec: int, e: int = 0) -> tuple[int, int]:
    """n/d * 2^e, for d > 0, to prec bits as _round rounds it, keeping the
    sign of n: (man, exp) with man odd, or (0, 0) for n = 0."""
    if not n:
        return 0, 0
    m, e = _round(abs(n), d, prec, 0, e)
    return (m if n > 0 else -m), e


def _fraction(man: int, exp: int) -> Fraction:
    """man * 2^exp."""
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def round_bits(x: Fraction, prec: int) -> Fraction:
    """x rounded to prec significant bits, to nearest with ties to even."""
    return _fraction(*_round_signed(x.numerator, x.denominator, prec))


def _pow10(n: int, prec: int, mode: int) -> tuple[int, int]:
    """10^n, n >= 0, rounded down (mode -1) or up (1) to prec bits as mpmath's
    mpf_pow_int does: exactly while 3 n < 1000, else by squaring with every
    product cut to prec + 4 bits(n) + 4 bits in the same direction."""
    if 3 * n < 1000:
        return _round(5 ** n, 1, prec, mode, n)
    work, pm, pe, man, exp = prec + 4 * n.bit_length() + 4, 1, 0, 5, 1

    def cut(m, e):
        x = m.bit_length() - work
        return (m >> x if mode < 0 else -(-m >> x), e + x) if x > 0 else (m, e)

    while True:
        if n & 1:
            pm, pe = cut(pm * man, pe + exp)
            n -= 1
            if not n:
                break
        man, exp = cut(man * man, exp + exp)
        n //= 2
    return _round(pm, 1, prec, mode, pe)


def _numeral(n: int, size: int) -> str:
    """str(n), split in halves of about size / 2 digits from 250 digits on."""
    if size < 250:
        return str(n)
    half = size // 2 + (size & 1)
    a, b = divmod(n, 10 ** half)
    return _numeral(a, half) + _numeral(b, half).rjust(half, "0")


def _digits(man: int, exp: int, dps: int) -> tuple[str, int]:
    """The digits of man * 2^exp (man odd, > 0) floored to about dps places,
    and the decimal exponent of the first."""
    bitprec = int(dps * _LOG2_10) + 10
    exponent = 0
    if abs(exp + man.bit_length()) > 3500:
        p = abs(exp).bit_length() + 5
        b = abs(exp) * (_LN2 >> (128 - p)) // (4 * (_LN10 >> (128 - p)))
        exponent = b = b if exp > 0 else -b
        if b >= 0:
            pm, pe = _pow10(b, bitprec, -1)
        else:
            im, ie = _pow10(-b, bitprec + 5, 1)
            pm, pe = _round(1, im, bitprec, -1, -ie)
        man, exp = _round(man, pm, bitprec, -1, exp - pe)
    fixprec = max(bitprec - exp - man.bit_length(), 0)
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    shift = exp + fixprec
    sf = man << shift if shift >= 0 else man >> -shift
    digits = _numeral(sf * 10 ** fixdps >> fixprec, dps)
    return digits, exponent + len(digits) - fixdps - 1


def nstr(x: Fraction, dps: int) -> str:
    """The dyadic rational x with dps >= 1 significant digits, as
    mpmath.nstr(mpf(x), dps, strip_zeros=False) prints it."""
    n, d = x.numerator, x.denominator
    if d & (d - 1):
        raise ValueError("not a dyadic rational: %s" % x)
    return _str(n, 1 - d.bit_length(), dps)


def nstr_ratio(v: Fraction, prec: int, dps: int) -> str:
    """v as mpmath.nstr(mpf(v.numerator) / v.denominator, dps,
    strip_zeros=False) prints it at prec bits: the numerator rounded to prec
    bits, then the quotient rounded once more."""
    n = v.numerator
    if not n:
        return "0.0"
    m, e = _round(abs(n), 1, prec)
    m, e = _round(m, v.denominator, prec, 0, e)
    return _str(m if n > 0 else -m, e, dps)


def _str(man: int, exp: int, dps: int) -> str:
    """nstr of man * 2^exp."""
    if not man:
        return "0.0"
    sign, man = ("-", -man) if man < 0 else ("", man)
    z = (man & -man).bit_length() - 1
    digits, exponent = _digits(man >> z, exp + z, dps + 3)
    if len(digits) > dps and digits[dps] in "56789":
        i = dps - 1
        while i >= 0 and digits[i] == "9":
            i -= 1
        if i >= 0:
            digits = digits[:i] + str(int(digits[i]) + 1) + "0" * (dps - i - 1)
        else:
            digits, exponent = "1" + "0" * (dps - 1), exponent + 1
    else:
        digits = digits[:dps]
    split = 1
    if min(-(dps // 3), -5) < exponent < dps:  # fixed point near unit magnitude
        if exponent < 0:
            digits = "0" * -exponent + digits
        else:
            split = exponent + 1
            digits += "0" * (split - dps)
        exponent = 0
    text = sign + digits[:split] + "." + digits[split:]
    if exponent:
        text += "e%+d" % exponent
    return text
