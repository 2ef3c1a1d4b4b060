"""littleq.dyadic against mpmath, which it replaces in the printed digits."""
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import (
    from_int,
    from_man_exp,
    from_rational,
    libelefun,
    mpf_pow_int,
    round_down,
    round_nearest,
    round_up,
)

from littleq import dyadic
from littleq.cli import _ratio_str
from littleq.dyadic import nstr, round_bits

PRECS = (128, 256, 512, 1024)
DPS = (3, 15, 30, 77, 154)


def _mpf(raw, prec):
    with mpmath.workprec(prec):
        return mpmath.mpf(raw)


def _assert_same(x, raw, prec, dps):
    # round_bits gives mpmath's value, and nstr its string
    ref = _mpf(raw, prec)
    got = round_bits(x, prec)
    sign, man, exp, _ = ref._mpf_
    assert got == (-1) ** sign * F(int(man)) * F(2) ** exp
    assert nstr(got, dps) == mpmath.nstr(ref, dps, strip_zeros=False)


exponents = st.one_of(st.integers(-400, 400), st.integers(-20000, 20000))


@given(st.sampled_from(PRECS), st.sampled_from(DPS), st.integers(1, 40), st.booleans(),
       st.integers(0, 2 ** 1100), exponents, st.booleans())
@settings(max_examples=300, deadline=None)
def test_binary_rounding_matches_mpmath(prec, dps, extra, tie, bits, exp, negative):
    # mantissas of prec + extra bits, half of them exact binary ties
    man = (1 << (prec + extra - 1)) | (bits % (1 << (prec + extra - 1)))
    if tie:
        man = man >> extra << extra | 1 << (extra - 1)
    man = -man if negative else man
    _assert_same(F(man) * F(2) ** exp, from_man_exp(man, exp, prec, round_nearest), prec, dps)


@given(st.sampled_from(PRECS), st.sampled_from(DPS), st.integers(0, 10 ** 160),
       st.sampled_from((F(1, 2), F(1), F(0))), st.integers(-1, 1), st.integers(2, 12),
       st.integers(-6000, 6000), st.booleans(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_decimal_near_ties_match_mpmath(prec, dps, lead, frac, side, gap, e10, nines, negative):
    # (N + frac + side 10^-gap) 10^e10 for a dps-digit N: values next to the
    # digit where nstr rounds, all nines when nines is set, so that rounding
    # up carries through every digit; decimal exponents up to 6000 reach
    # binary exponents of 20000
    n = 10 ** dps - 1 if nines else 10 ** (dps - 1) + lead % (9 * 10 ** (dps - 1))
    x = (n + frac + F(side, 10 ** gap)) * F(10) ** e10
    x = -x if negative else x
    _assert_same(x, from_rational(x.numerator, x.denominator, prec, round_nearest), prec, dps)


@given(st.integers(-(2 ** 700), 2 ** 700), st.integers(1, 2 ** 700), st.sampled_from(DPS))
@settings(max_examples=200, deadline=None)
def test_ratio_str_matches_mpmath_division(num, den, dps):
    v = F(num, den)
    with mpmath.workprec(128):
        ref = mpmath.nstr(mpmath.mpf(v.numerator) / v.denominator, dps, strip_zeros=False)
    assert _ratio_str(v, dps) == ref


def test_log_constants_truncate_as_mpmath_does():
    # the huge-exponent branch needs ln 2 and ln 10 at bits(exponent) + 5 bits
    for p in range(1, 129):
        for fixed, shift, ref in ((dyadic._LN2, 0, libelefun.mpf_ln2(p)),
                                  (dyadic._LN10, 2, libelefun.mpf_ln10(p))):
            _, man, exp, _ = ref
            assert (fixed >> (128 - p)) / F(2) ** (p - shift) == F(int(man)) * F(2) ** exp


def test_powers_of_ten_round_as_mpmath_does():
    for n in (0, 1, 2, 333, 334, 1000, 4097, 6021):
        for prec in (19, 64, 531):
            for mode, rnd in ((-1, round_down), (1, round_up)):
                _, man, exp, _ = mpf_pow_int(from_int(10), n, prec, rnd)
                assert dyadic._pow10(n, prec, mode) == (man, exp), (n, prec, mode)


def test_nstr_refuses_a_non_dyadic():
    with pytest.raises(ValueError):
        nstr(F(1, 3), 15)
