import pytest

from etacm.apcomplex import ApComplex, UpperHalfPoint, abs_diff, mag


def test_minimum_precision_enforced():
    with pytest.raises(ValueError):
        ApComplex.make(1, 0, 32)
    ApComplex.make(1, 0, 64)


def test_arithmetic_round_trip():
    x = ApComplex.make(3, 4, 128)
    y = ApComplex.make(-2, 1, 128)
    assert (x + y).to_complex() == (1 + 5j)
    assert (x - y).to_complex() == (5 + 3j)
    assert (x * y).to_complex() == (3 + 4j) * (-2 + 1j)
    q = (x / y).to_complex()
    assert abs(q - (3 + 4j) / (-2 + 1j)) < 1e-14  # float-side rounding


def test_mixed_precision_uses_max():
    x = ApComplex.make(1, 1, 64)
    y = ApComplex.make(1, 1, 256)
    assert (x * y).prec == 256
    assert (x + y).prec == 256


def test_integer_scalars():
    x = ApComplex.make(3, -1, 96)
    assert (x * 5).to_complex() == (15 - 5j)
    assert (2 + x).to_complex() == (5 - 1j)
    assert (1 / ApComplex.make(2, 0, 96)).to_complex() == 0.5


def test_sqrt_principal_branch():
    z = ApComplex.make(0, 4, 128).sqrt().to_complex()
    assert abs(z - (2**0.5 + 2**0.5 * 1j)) < 1e-15
    w = ApComplex.make(-4, 0, 128).sqrt().to_complex()
    assert w.real >= 0  # principal branch


def test_pow_and_conjugate():
    x = ApComplex.make(1, 2, 128)
    assert abs((x ** 5).to_complex() - (1 + 2j) ** 5) < 1e-12
    assert x.conjugate().to_complex() == (1 - 2j)


def test_mag_bounds_value():
    x = ApComplex.make(1000, 0, 64)
    assert 2 ** x.mag() >= 1000
    assert x.mag() <= 12


def test_upper_half_point_rejects_lower_plane():
    with pytest.raises(ValueError):
        UpperHalfPoint.make(0.0, -1.0, 64)
    with pytest.raises(ValueError):
        UpperHalfPoint.make(1.0, 0.0, 64)


def test_from_form_matches_quadratic_data():
    # alpha = (-B + sqrt(D)) / (2A) for [A, B] = [3, 2], D = -56
    pt = UpperHalfPoint.from_form(3, 2, -56, 128)
    z = pt.to_complex()
    assert abs(z.real - (-2 / 6)) < 1e-30
    assert abs(z.imag - (56 ** 0.5 / 6)) < 1e-12


def test_abs_diff_reports_log2():
    x = ApComplex.make(1, 0, 128)
    y = ApComplex.make(1, 0, 128) + ApComplex.make(0, 0, 128)
    assert abs_diff(x, y) == float("-inf")
    z = ApComplex.make(1.25, 0, 128)
    assert -3 < abs_diff(x, z) < 0
