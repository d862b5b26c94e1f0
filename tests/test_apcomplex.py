"""The boundary types, and the fixed-point kernel: each rounding operation
within its stated ulps of the exact result, the others exact."""
import math
import random
import sys
from fractions import Fraction

import mpmath
import pytest
from mpmath.libmp import from_int, mpf_div, mpf_sqrt, round_nearest

from etacm.apcomplex import (
    ROUND_ULPS,
    ApComplex,
    UpperHalfPoint,
    add,
    div,
    lg,
    mul,
    power,
    sqrt,
    trunc,
)
from etacm.errors import PreconditionError
from etacm.etafunc import eta
from support import kernel_triple, to_mpc

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)
EXACT = 4096  # bits: every result below is exact at this precision


def test_minimum_precision_enforced():
    with pytest.raises(ValueError):
        UpperHalfPoint.from_form(1, 0, -4, 32)
    UpperHalfPoint.from_form(1, 0, -4, 64)


def test_one_precision_floor():
    with pytest.raises(PreconditionError):
        UpperHalfPoint.from_form(1, 0, -4, 63)
    with pytest.raises(PreconditionError):
        eta(UpperHalfPoint.from_form(1, 0, -4, 64), 63)


def test_upper_half_point_rejects_lower_plane():
    with pytest.raises(PreconditionError):
        UpperHalfPoint(ApComplex((0, -1, 0), 64))
    with pytest.raises(PreconditionError):
        UpperHalfPoint(ApComplex((1, 0, 0), 64))


def test_from_form_rejects_bad_forms():
    with pytest.raises(PreconditionError):
        UpperHalfPoint.from_form(1, 0, 4, 64)  # D >= 0
    with pytest.raises(PreconditionError):
        UpperHalfPoint.from_form(0, 1, -4, 64)  # a <= 0


def test_from_form_matches_quadratic_data():
    # alpha = (-B + sqrt(D)) / (2A) for [A, B] = [3, 2], D = -56
    pt = UpperHalfPoint.from_form(3, 2, -56, 128)
    z = pt.to_complex()
    assert abs(z.real - (-2 / 6)) < 1e-30
    assert abs(z.imag - (56 ** 0.5 / 6)) < 1e-12


def mpmath_from_form(a, b, D, prec):
    """The basis quotient as mpmath rounds it to nearest: |D|, its square
    root, and the two quotients by 2a, each at prec bits."""
    root = mpf_sqrt(from_int(-D, prec, round_nearest), prec, round_nearest)
    return (mpf_div(from_int(-b), from_int(2 * a), prec, round_nearest),
            mpf_div(root, from_int(2 * a), prec, round_nearest))


def test_from_form_rounds_as_mpmath_does():
    # forms of every size, and |D| or b beyond prec bits, where the input is
    # rounded too, or the quotient by 2a has exactly prec + 1 bits
    rng = random.Random(20)
    for _ in range(3000):
        prec = rng.choice([64, 65, 100, 128, 333, 1000])
        if rng.random() < 0.5:
            a = rng.randint(1, 10 ** rng.randint(1, 30))
            b = rng.randint(-(10 ** rng.randint(1, 30)), 10 ** rng.randint(1, 30))
            D = -rng.randint(1, 10 ** rng.randint(1, 60))
        else:
            a = rng.randint(1, 2 ** rng.randint(1, 100))
            b = rng.choice([-1, 1]) * (2 ** rng.randint(0, 200) + rng.choice([0, 1, 3]))
            D = -(2 ** rng.randint(1, 300) + rng.choice([0, 1, 2, 6]))
        z = UpperHalfPoint.from_form(a, b, D, prec)
        re, im = mpmath_from_form(a, b, D, prec)
        with mpmath.workprec(4096):
            assert to_mpc(z.value) == mpmath.mpc(mpmath.mpf(re), mpmath.mpf(im)), (a, b, D, prec)


def test_to_complex_overflows_to_infinity():
    assert ApComplex((3, -5, 2000), 64).to_complex() == complex(math.inf, -math.inf)
    assert ApComplex((2**60, 0, 1000), 64).to_complex().real == math.inf


def test_to_complex_underflows_to_signed_zero():
    z = ApComplex((-5, 5, -2000), 64).to_complex()
    assert z == 0
    assert math.copysign(1.0, z.real) == -1.0 and math.copysign(1.0, z.imag) == 1.0


def nearest(got: float, x: Fraction) -> bool:
    """No float is closer to x than got: neither neighbour of a finite got
    is, and an infinite got has x's sign and |x| at or past the largest
    float plus half its ulp, where rounding to even leaves the finite range."""
    if math.isinf(got):
        top = Fraction(sys.float_info.max) + Fraction(math.ulp(sys.float_info.max)) / 2
        return (got > 0) == (x > 0) and abs(x) >= top
    d = abs(Fraction(got) - x)
    return all(math.isinf(n) or abs(Fraction(n) - x) >= d
               for n in (math.nextafter(got, -math.inf), math.nextafter(got, math.inf)))


def test_to_complex_rounds_wide_mantissas_to_nearest():
    # mantissas past 53 bits rounded once, also into the subnormal range and
    # past the largest float; a zero keeps the sign of m
    assert ApComplex((2**54 - 1, 0, -54), 64).to_complex() == 1.0
    rng = random.Random(21)
    for _ in range(2000):
        m = rng.choice([-1, 1]) * rng.getrandbits(rng.randint(54, 400))
        e = rng.randint(-1500, 1100) - abs(m).bit_length()
        got = ApComplex((m, -m, e), 64).to_complex()
        assert nearest(got.real, m * Fraction(2) ** e), (m, e)
        assert math.copysign(1.0, got.real) == math.copysign(1.0, m)
        assert got.imag == -got.real


def test_sqrt_principal_branch():
    assert to_mpc(sqrt((-4, 0, 0), 64)) == 2j
    with mpmath.workprec(256):
        assert abs(to_mpc(sqrt((0, 4, 0), 128)) - mpmath.sqrt(2) * (1 + 1j)) < 2.0 ** -120
    assert to_mpc(sqrt((-4, -1, 0), 64)).real > 0


def test_arithmetic_round_trip():
    x, y = (3, 4, 0), (-2, 1, 0)
    assert to_mpc(add(x, y)) == 1 + 5j
    assert to_mpc(add(x, (2, -1, 0))) == 5 + 3j
    assert to_mpc(mul(x, y)) == (3 + 4j) * (-2 + 1j)
    with mpmath.workprec(256):
        q = mpmath.mpc(3, 4) / mpmath.mpc(-2, 1)
        assert abs(to_mpc(div(x, y, 128)) - q) <= ROUND_ULPS * 2.0 ** -128 * abs(q)
    assert to_mpc(mul(div(x, y, 128), y)) != to_mpc(x)  # div rounds (-2/5 - 11/5 i)


def test_mixed_precision_uses_max():
    # exact operations keep every bit of both operands, whatever their
    # mantissa lengths and exponents
    x = (2**63 + 1, 1, -63)
    y = (2**255 + 1, -(2**200), -300)
    with mpmath.workprec(EXACT):
        assert to_mpc(add(x, y)) == to_mpc(x) + to_mpc(y)
        assert to_mpc(mul(x, y)) == to_mpc(x) * to_mpc(y)
    assert add(x, y)[2] == -300  # aligned to the finer exponent
    assert max(abs(v) for v in trunc(mul(x, y), 256)[:2]).bit_length() == 256


def test_integer_scalars():
    x = (3, -1, 0)
    assert to_mpc(mul(x, (5, 0, 0))) == 15 - 5j
    assert to_mpc(add((2, 0, 0), x)) == 5 - 1j
    assert to_mpc(div((1, 0, 0), (2, 0, 0), 96)) == 0.5


def test_pow_and_conjugate():
    x = (1, 2, 0)
    assert to_mpc(power(x, 5, 128)) == (1 + 2j) ** 5  # small enough to stay exact
    re, im, e = power(x, 37, 64)
    assert power((1, -2, 0), 37, 64) == (re, -im, e)  # power commutes with conjugation
    with mpmath.workprec(256):
        want = mpmath.mpc(1, 2) ** 37
        assert abs(to_mpc((re, im, e)) - want) <= ROUND_ULPS * 36 * 2.0 ** -64 * abs(want)


def test_mag_bounds_value():
    assert 2 ** lg((1000, 0, 0)) >= 1000
    assert lg((1000, 0, 0)) <= 10
    assert 2 ** lg((3, -4, 5)) >= 5 * 2**5
    assert lg((0, 0, 7)) == float("-inf")


def test_abs_diff_reports_log2():
    # lg of a difference is its log2 distance
    assert lg(add((1, 0, 0), (-1, 0, 0))) == float("-inf")
    assert -3 < lg(add((1, 0, 0), (-5, 0, -2))) < 0
    assert abs(lg(add((1, 0, 0), (-5, 0, -2))) + 2) <= 2.0 ** -29


@st.composite
def values(draw):
    """Nonzero triples, both parts up to 300 bits, exponents in [-500, 500]."""
    part = st.integers(-(2**300), 2**300)
    re, im = draw(part), draw(part)
    if not re and not im:
        re = 1
    return re, im, draw(st.integers(-500, 500))


def rel_error(got, want):
    with mpmath.workprec(EXACT):
        return abs(to_mpc(got) - want) / abs(want)


@PROPERTY
@given(values(), values(), st.integers(64, 300), st.integers(1, 30))
def test_rounding_operations_within_their_ulps(x, y, W, n):
    u = mpmath.mpf(2) ** -W
    with mpmath.workprec(EXACT):
        a, b = to_mpc(x), to_mpc(y)
        assert to_mpc(mul(x, y)) == a * b
        assert to_mpc(add(x, y)) == a + b
        for got, want in [(trunc(x, W), a), (div(x, y, W), a / b), (sqrt(x, W), mpmath.sqrt(a))]:
            assert rel_error(got, want) <= ROUND_ULPS * u
        assert max(abs(v) for v in trunc(x, W)[:2]).bit_length() <= W + 1
        assert max(abs(v) for v in div(x, y, W)[:2]).bit_length() <= W + 4
        assert rel_error(power(x, n, W), a ** n) <= ROUND_ULPS * (n - 1) * u * 1.01
        assert mpmath.log(abs(a), 2) <= lg(x) <= mpmath.log(abs(a), 2) + 2.0 ** -29


@PROPERTY
@given(values())
def test_conversions_are_exact(x):
    v = ApComplex(x, 64)
    re, im, e = x
    assert v.triple == x and to_mpc(v) == to_mpc(x)
    with mpmath.workprec(EXACT):
        parts = mpmath.mpf((re, e))._mpf_, mpmath.mpf((im, e))._mpf_
    assert to_mpc(kernel_triple(*parts)) == to_mpc(x)
    z = v.to_complex()
    assert nearest(z.real, re * Fraction(2) ** e) and nearest(z.imag, im * Fraction(2) ** e)
