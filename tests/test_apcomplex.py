"""The boundary types, and the fixed-point kernel: each rounding operation
within its stated ulps of the exact result, the others exact."""
import mpmath
import pytest
from mpmath.libmp import from_float, fzero

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
    to_apcomplex,
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
        UpperHalfPoint(ApComplex(fzero, from_float(-1.0), 64))
    with pytest.raises(PreconditionError):
        UpperHalfPoint(ApComplex(from_float(1.0), fzero, 64))


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
    v = to_apcomplex(x, 64)
    assert to_mpc(kernel_triple(v.re, v.im)) == to_mpc(x) == to_mpc(v)
