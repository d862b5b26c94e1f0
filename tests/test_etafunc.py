import math
import random
import time

import mpmath
import pytest

from etacm.apcomplex import ApComplex, UpperHalfPoint
from etacm.errors import PrecisionExhausted, PreconditionError
from etacm.qforms import _compose, _reduce
from etacm.etafunc import (
    _eta_series,
    _form_of,
    _eta_values,
    _name,
    _q24,
    _units,
    double_eta_quotient,
    eta,
    eta_guard_bits,
    eta_multiplier,
    j_invariant,
    s_exponent,
    w_pow_s,
)
from oracles import eta_oracle, j_oracle, root_of_unity
from support import log2_dist, mag, moebius, point, to_mpc

# frozen from the independent q-product oracle (and the closed form
# Gamma(1/4) / (2 pi^{3/4}), which agrees to all shown digits)
ETA_AT_I = "0.768225422326056659002594179576180644517866914"


def to_mp(v: ApComplex, dps: int = 50) -> mpmath.mpc:
    with mpmath.workdps(dps):
        return +to_mpc(v)


def rand_sl2(rng: random.Random, length: int = 6, bound: int = 10**6):
    while True:
        a, b, c, d = 1, 0, 0, 1
        for _ in range(length):
            t = rng.randint(-3, 3)
            a, b = a + t * c, b + t * d
            a, b, c, d = -c, -d, a, b
        if rng.random() < 0.5:
            a, b, c, d = -a, -b, -c, -d
        if max(abs(a), abs(b), abs(c), abs(d)) <= bound and (a, b, c, d) != (1, 0, 0, 1):
            return (a, b, c, d)


def rand_fundamental(rng: random.Random, prec: int) -> UpperHalfPoint:
    return point(rng.uniform(-0.5, 0.5), rng.uniform(0.87, 3.0), prec)


class TestReduction:
    # a point enters the eta path as the exact form F it is the root of
    # (`_form_of`); the reduced form G = F.R (`_reduce`) has the root R^-1 z,
    # at -b/2a + i sqrt|D|/2a
    def test_already_reduced_is_identity(self):
        f = _form_of(point(0.3, 2.0, 128))
        assert _reduce(f) == (f, (1, 0, 0, 1))

    def test_integer_translation(self):
        (a, b, c), m = _reduce(_form_of(point(5.3, 2.0, 128)))
        assert m == (1, 5, 0, 1)  # R^-1 z = z - 5
        assert abs(complex(-b, math.sqrt(4 * a * c - b * b)) / (2 * a) - (0.3 + 2j)) < 1e-15

    def test_small_point_lands_in_domain(self):
        f = _form_of(point(0.1, 0.1, 192))
        (a, b, c), m = _reduce(f)
        assert -a < b <= a <= c
        assert a < f[0]  # Im grows
        assert m[0] * m[3] - m[1] * m[2] == 1
        assert _compose(f, m) == (a, b, c)

    def test_left_edge_moves_to_minus_one_half(self):
        # Gauss's convention -a < b <= a puts Re z' in [-1/2, 1/2)
        (a, b, c), m = _reduce(_form_of(point(0.5, 2, 128)))
        assert m == (1, 1, 0, 1)
        assert (a, b, c) == (4, 4, 17)  # the root of 4z^2 + 4z + 17 is -1/2 + 2i

    def test_random_points_postconditions(self):
        rng = random.Random(101)
        for _ in range(50):
            f = _form_of(point(rng.uniform(-30, 30), rng.uniform(0.005, 5), 160))
            (a, b, c), m = _reduce(f)
            assert m[0] * m[3] - m[1] * m[2] == 1
            assert _compose(f, m) == (a, b, c)
            assert -a < b <= a <= c and (b >= 0 or a < c)
            assert a <= f[0]  # Im z' = sqrt|D|/2a >= Im z = sqrt|D|/2A


class TestMultiplier:
    # eta_multiplier gives (c, d, sign, k): eps(M) = sign * zeta_24^k
    def test_translation(self):
        assert eta_multiplier((1, 1, 0, 1)) == (0, 1, 1, 1)

    def test_identity(self):
        assert eta_multiplier((1, 0, 0, 1)) == (0, 1, 1, 0)
        assert to_mpc(_units(96)[0]) == 1

    def test_inversion_matches_classical_formula(self):
        c, d, sign, k = eta_multiplier((0, -1, 1, 0))
        assert (c, d, sign, k) == (1, 0, 1, 21)  # zeta_24^{-3}
        val = sign * complex(to_mpc(_units(128)[k]))
        want = complex(math.cos(-math.pi / 4), math.sin(-math.pi / 4))
        assert abs(val - want) < 1e-15

    def test_normalized_bottom_row(self):
        # c >= 0, and d > 0 when c = 0; the sign is a Jacobi symbol
        rng = random.Random(11)
        for _ in range(50):
            m = rand_sl2(rng)
            c, d, sign, k = eta_multiplier(m)
            assert (c, d) in ((m[2], m[3]), (-m[2], -m[3]))
            assert c > 0 or (c == 0 and d > 0)
            assert sign in (-1, 1) and 0 <= k < 24

    def test_roots_of_unity_against_cos_sin(self):
        wp = 192
        units = _units(wp)
        assert len(units) == 24
        with mpmath.workprec(wp + 64):
            for k in range(24):
                want = mpmath.mpc(mpmath.cospi(mpmath.mpf(k) / 12),
                                  mpmath.sinpi(mpmath.mpf(k) / 12))
                diff = to_mpc(units[k]) - want
                assert abs(diff) <= mpmath.mpf(2) ** (2 - wp), k  # a few ulps

    @pytest.mark.parametrize("wp", [64, 200, 300])
    def test_roots_of_unity_within_a_tenth_of_an_ulp(self, wp):
        # zeta_24^k from integer square roots: within 0.1u (u = 2^-wp) for
        # every k, and exactly 1, i, -1 and -i for k = 0, 6, 12 and 18
        units = _units(wp)
        with mpmath.workprec(wp + 64):
            for k in range(24):
                got = to_mpc(units[k])
                assert abs(got - root_of_unity(k, wp + 64)) <= mpmath.mpf(2) ** -wp / 10, k
                if k % 6 == 0:
                    assert got == (1, 1j, -1, -1j)[k // 6], k

    def test_rejects_non_unimodular(self):
        with pytest.raises(PreconditionError):
            eta_multiplier((1, 1, 1, 0))

    def test_negation_is_normalized_away(self):
        rng = random.Random(7)
        for _ in range(20):
            m = rand_sl2(rng)
            neg = tuple(-x for x in m)
            assert eta_multiplier(m) == eta_multiplier(neg)


class TestEta:
    def test_value_at_i_matches_oracle(self):
        v = eta(point(0, 1, 256), 256)
        with mpmath.workdps(60):
            want = mpmath.mpf(ETA_AT_I)
            got = to_mp(v, 60)
            assert abs(got.real - want) < mpmath.mpf(10) ** -38
            assert abs(got.imag) < mpmath.mpf(10) ** -38

    def test_ratio_to_q24_tends_to_one(self):
        z = point(0, 100, 256)
        v = to_mp(eta(z, 256), 90)
        with mpmath.workdps(90):
            q24 = mpmath.exp(2j * mpmath.pi * mpmath.mpc(0, 100) / 24)
            assert abs(v / q24 - 1) < mpmath.mpf(2) ** -200

    def test_translation_identity(self):
        rng = random.Random(3)
        prec = 160
        for _ in range(10):
            z = rand_fundamental(rng, prec + 64)
            z1 = UpperHalfPoint(moebius((1, 1, 0, 1), z.value, prec + 64))
            lhs = eta(z1, prec)
            with mpmath.workprec(prec + 64):
                rhs = root_of_unity(1, prec + 64) * to_mpc(eta(z, prec))
            assert log2_dist(lhs, rhs) <= -prec + 8

    def test_matches_oracle_at_random_points(self):
        rng = random.Random(17)
        for _ in range(15):
            zc = complex(rng.uniform(-2, 2), rng.uniform(0.4, 2.5))
            v = to_mp(eta(point(zc.real, zc.imag, 192), 192), 60)
            want = eta_oracle(zc, 60)
            with mpmath.workdps(60):
                assert abs(v - want) < mpmath.mpf(2) ** -150

    def test_transformation_formula(self):
        rng = random.Random(42)
        prec = 160
        hp = prec + 64
        for _ in range(200):
            m = rand_sl2(rng)
            z = rand_fundamental(rng, hp)
            lhs = eta(UpperHalfPoint(moebius(m, z.value, hp)), prec)
            c, d, sign, k = eta_multiplier(m)
            with mpmath.workprec(hp):
                root = mpmath.sqrt(to_mpc(z.value) * c + d)
                assert root.real > 0  # principal branch
                rhs = root_of_unity(k, hp) * sign * root * to_mpc(eta(z, prec))
            assert log2_dist(lhs, rhs) <= -prec + 12

    def test_rejects_low_precision(self):
        with pytest.raises(PreconditionError):
            eta(point(0, 1, 64), 32)

    def test_doubling_precision_shrinks_residual(self):
        # convergence sanity: doubling prec gains at least 2^(prec/2)
        z = point(0.21, 1.3, 1024)
        m = (3, -1, 7, -2)
        c, d, sign, k = eta_multiplier(m)
        res = {}
        for prec in (128, 256):
            lhs = eta(UpperHalfPoint(moebius(m, z.value, 1024)), prec)
            with mpmath.workprec(1024):
                root = mpmath.sqrt(to_mpc(z.value) * c + d)
                rhs = root_of_unity(k, 1024) * sign * root * to_mpc(eta(z, prec))
            res[prec] = log2_dist(lhs, rhs)
        if res[256] != float("-inf"):
            assert res[128] - res[256] >= 64


def series_forms(seed: int) -> list[tuple[int, int, int]]:
    """(a, b, D) of reduced forms [a, b, c], 0 <= b <= a <= c, as the series
    is called (with |b|): two each with b = 0, with b = a, with a near
    sqrt(|D|/3) (c = a, b near a), and with a = 1 and Im up to ~143."""
    rng = random.Random(seed)
    forms = []
    for _ in range(2):
        a = rng.randint(1, 60)
        forms.append((a, 0, -4 * a * rng.randint(a, 4 * a)))
        a = rng.randint(1, 60)
        forms.append((a, a, a * a - 4 * a * rng.randint(a, 4 * a)))
        a = rng.randint(2, 400)
        b = a - rng.randint(0, 1)
        forms.append((a, b, b * b - 4 * a * a))
        b = rng.randint(0, 1)
        forms.append((1, b, b - 4 * rng.randint(2000, 20400)))
    return forms


# rho, the worst decay; i; the principal form of D = -81443, whose root has
# Im ~ 143 and |q^(1/24)| ~ 2^-54; and seeded forms of every shape
SERIES_FORMS = [(1, 1, -3), (1, 0, -4), (1, 1, -81443)] + series_forms(29)


class TestEtaSeries:
    """The pentagonal series at a reduced point against the q-product oracle
    at twice the precision, within its certified relative bound.  The
    precisions straddle the kernels' cut-offs: above _TABLE_MAX (400) and
    _SPLIT_MAX (600) bits, the fixed-point cos/sin and exp under q^(1/24)
    switch to `_even_series` at a halved argument."""

    @pytest.mark.parametrize("a, b, D", SERIES_FORMS)
    @pytest.mark.parametrize("wp", [64, 200, 401, 640, 1200])
    def test_within_its_bound(self, a, b, D, wp):
        v, rel = _eta_series(a, b, D, wp)
        with mpmath.workprec(2 * wp):
            tau = mpmath.mpc(-b, mpmath.sqrt(-D)) / (2 * a)
        want = eta_oracle(tau, math.ceil(2 * wp * math.log10(2)) + 10)
        with mpmath.workprec(2 * wp):
            assert abs(to_mpc(v) - want) / abs(want) <= rel * mpmath.mpf(2) ** -wp

    def test_relative_bound_does_not_grow_with_im(self):
        # the series sum and q^(1/24) are kept apart, so eta's relative
        # bound at Im ~ 143 is that at i within 2 bits, not 54 bits worse
        for wp in (64, 200, 640):
            at_i = _eta_series(1, 0, -4, wp)[1]
            high = _eta_series(1, 1, -81443, wp)[1]
            assert abs(math.log2(high / at_i)) <= 2


class TestQ24:
    """q^(1/24) in integer fixed point against mpmath's exp at twice the
    precision, within its documented (2.4t + 2^10) 2^-Q, t = -log |q^(1/24)|."""

    @pytest.mark.parametrize("a, b, D", SERIES_FORMS)
    @pytest.mark.parametrize("Q", [90, 230, 420, 630, 1230])
    def test_within_its_bound(self, a, b, D, Q):
        v = _q24(a, b, D, Q)
        with mpmath.workprec(2 * Q):
            tau = mpmath.mpc(-b, mpmath.sqrt(-D)) / (2 * a)
            want = mpmath.exp(mpmath.pi * 1j * tau / 12)
            t = mpmath.pi * mpmath.sqrt(-D) / (24 * a)
            assert abs(to_mpc(v) - want) / abs(want) <= (2.4 * t + 2**10) * mpmath.mpf(2) ** -Q

    def test_power_of_two_stays_in_the_exponent(self):
        # D = -81443, a = 1: exp(-t) = 2^n exp(r) with n ~ -54, and the
        # mantissa keeps Q bits instead of losing n of them
        Q = 230
        re, im, e = _q24(1, 1, -81443, Q)
        assert e + Q < -50
        assert max(abs(re), abs(im)).bit_length() >= Q


class TestJInvariant:
    def test_special_points(self):
        with mpmath.workdps(70):
            ji = to_mp(j_invariant(point(0, 1, 192), 192), 70)
            assert abs(ji - 1728) < mpmath.mpf(2) ** -150
            rho = point(0.5, math.sqrt(3) / 2, 192)
            # the float sqrt puts rho only within 1e-16 of the corner, and J
            # moves at unit speed there
            assert abs(to_mp(j_invariant(rho, 192), 70)) < mpmath.mpf(10) ** -12

    def test_j_at_2i(self):
        v = j_invariant(point(0, 2, 192), 192)
        with mpmath.workdps(70):
            assert abs(to_mp(v, 70) - 287496) < mpmath.mpf(2) ** -140  # 66^3

    def test_large_im_below_max_precision(self):
        # |J| ~ 2^27194 at Im = 3000, so 128 bits need some 27.3k, below
        # MAX_PRECISION; J = 1/q + 744 + O(q) with 1/q = -i e^(6000 pi)
        v = j_invariant(point(0.25, 3000, 128), 128)
        with mpmath.workprec(27500):
            want = -1j * mpmath.exp(6000 * mpmath.pi) + 744
            assert abs(to_mpc(v) - want) < mpmath.mpf(2) ** -80

    def test_refuses_beyond_max_precision_at_once(self):
        # at Im = 30000, |J| alone takes some 272k bits
        start = time.perf_counter()
        with pytest.raises(PrecisionExhausted):
            j_invariant(point(0.25, 30000, 128), 128)
        assert time.perf_counter() - start < 1

    def test_matches_theta_oracle(self):
        rng = random.Random(23)
        for _ in range(10):
            zc = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.5, 2.0))
            v = to_mp(j_invariant(point(zc.real, zc.imag, 192), 192), 60)
            want = j_oracle(zc, 60)
            with mpmath.workdps(60):
                rel = abs(v - want) / max(1, abs(want))
                assert rel < mpmath.mpf(2) ** -150

    def test_unimodular_invariance(self):
        # companion of the 1000-sample transformation suite: J must agree
        # across the same kind of unimodular moves
        rng = random.Random(5)
        prec = 160
        for _ in range(1000):
            m = rand_sl2(rng)
            z = rand_fundamental(rng, prec + 64)
            a = j_invariant(z, prec)
            b = j_invariant(UpperHalfPoint(moebius(m, z.value, prec + 64)), prec)
            tol = max(mag(a), 0) - prec + 12
            assert log2_dist(a, b) <= tol

    def test_extreme_small_imaginary_part(self):
        # eta decays like exp(-pi/(12 y)) towards the real axis; the
        # reduction path must survive y = 1e-8 and hit the right magnitude
        z = point(0.0, 1e-8, 192)
        v = eta(z, 192)
        y = 1e-8
        expected_log2 = (-math.pi / (12 * y) - 0.5 * math.log(y)) / math.log(2)
        assert abs(mag(v) - expected_log2) < 64  # mag is coarse but huge-scale

    def test_deep_precision_against_oracle(self):
        # one spot check far beyond the bulk tolerance: 1024-bit evaluation
        # against the independent q-product at 320 digits
        z = complex(0.34375, 1.15625)
        v = eta(point(z.real, z.imag, 1024), 1024)
        with mpmath.workdps(340):
            want = eta_oracle(z, 340)
            got = to_mp(v, 340)
            assert abs(got - want) < mpmath.mpf(2) ** -1000


class TestDoubleEtaQuotient:
    def test_s_exponents(self):
        assert s_exponent(3, 13) == 1
        assert s_exponent(3, 5) == 3
        assert s_exponent(5, 7) == 1

    def test_atkin_lehner_invariance(self):
        rng = random.Random(31)
        prec = 160
        for (p1, p2) in [(3, 5), (3, 13), (5, 7)]:
            N = p1 * p2
            for _ in range(5):
                z = rand_fundamental(rng, prec + 64)
                wn = UpperHalfPoint(moebius((0, -N, 1, 0), z.value, prec + 64))
                a = double_eta_quotient(z, p1, p2, prec)
                b = double_eta_quotient(wn, p1, p2, prec)
                assert log2_dist(a, b) <= max(mag(a), 0) - prec + 8

    def test_w_p1_involution(self):
        # w^s(W_{p1} z) * w^s(z) = (p1|p2)^s  with p1 x + p2 y = 1, y < 0 odd
        from etacm.arith import jacobi

        rng = random.Random(13)
        prec = 192
        for (p1, p2) in [(3, 13), (3, 5), (5, 7)]:
            N = p1 * p2
            y = -1
            while (1 - p2 * y) % p1 or y % 2 == 0:
                y -= 1
            x = (1 - p2 * y) // p1
            m = (-p1, N, -y, -p1 * x)
            s = s_exponent(p1, p2)
            eps = jacobi(p1, p2) ** s
            for _ in range(4):
                z = rand_fundamental(rng, prec + 64)
                wz = UpperHalfPoint(moebius(m, z.value, prec + 64))
                with mpmath.workprec(4 * prec):
                    prod = to_mpc(w_pow_s(wz, p1, p2, prec)) * to_mpc(w_pow_s(z, p1, p2, prec))
                assert log2_dist(prod, eps) <= -prec + 16

    def test_worked_example_singular_value(self):
        # w_{3,13}((-10 + sqrt(-56))/2) is a real root of X^4-2X^3-X^2+2X-1
        z = UpperHalfPoint.from_form(1, 10, -56, 320)
        w = to_mp(w_pow_s(z, 3, 13, 256), 70)
        with mpmath.workdps(70):
            val = mpmath.polyval([1, -2, -1, 2, -1], w)
            assert abs(val) < mpmath.mpf(2) ** -230
            assert abs(w.imag) < mpmath.mpf(2) ** -230

    @pytest.mark.parametrize("x, y", [(0.1, 0.9), (-0.3, 0.45)])
    def test_low_precision_point_meets_the_target(self, x, y):
        # z / n is formed at the working precision, not at z's own 64 bits,
        # so the value at the exact dyadic point z is within the target
        prec = 256
        z = point(x, y, 64)
        target = mpmath.mpf(2) ** (eta_guard_bits(prec) - prec)
        with mpmath.workprec(2 * prec):
            t = to_mpc(z.value)
            for f, p1, p2 in [(double_eta_quotient, 3, 13), (w_pow_s, 5, 7), (w_pow_s, 3, 5)]:
                w = (mpmath.eta(t / p1) * mpmath.eta(t / p2)
                     / (mpmath.eta(t) * mpmath.eta(t / (p1 * p2))))
                want = w ** s_exponent(p1, p2) if f is w_pow_s else w
                assert abs(to_mp(f(z, p1, p2, prec), 160) - want) <= target, (f, p1, p2)

    @pytest.mark.parametrize("f, y, p1, p2", [(w_pow_s, 256, 3, 5),
                                               (double_eta_quotient, 256, 3, 5),
                                               (w_pow_s, 400, 5, 7)])
    def test_far_up_the_imaginary_axis_meets_the_target(self, f, y, p1, p2):
        # |w^3| ~ 2^155 at Im z = 256: the first working precision misses the
        # absolute target, and a doubled one meets it
        prec = 128
        z = point(0.25, y, 64)
        target = mpmath.mpf(2) ** (eta_guard_bits(prec) - prec)
        with mpmath.workprec(4 * prec):
            t = to_mpc(z.value)
            w = (mpmath.eta(t / p1) * mpmath.eta(t / p2)
                 / (mpmath.eta(t) * mpmath.eta(t / (p1 * p2))))
            want = w ** s_exponent(p1, p2) if f is w_pow_s else w
            assert abs(to_mpc(f(z, p1, p2, prec)) - want) <= target

    def test_rejects_bad_primes(self):
        z = point(0, 1, 128)
        for (p1, p2) in [(3, 3), (2, 13), (9, 5)]:
            with pytest.raises(PreconditionError):
                double_eta_quotient(z, p1, p2, 128)
            with pytest.raises(PreconditionError):
                w_pow_s(z, p1, p2, 128)


class TestEtaTable:
    """The table of series inside one batch call (`_eta_values`): its eta
    values against direct evaluation at the exact point (mpmath's
    q-product), within their own certified bounds, which must also be tight,
    from few series."""

    WP = 192

    def assert_certified(self, got, exact):
        # got is the value and its relative error in units 2^-WP
        v, rel = got
        with mpmath.workprec(self.WP + 128):
            bound = abs(to_mpc(v)) * rel * mpmath.mpf(2) ** -self.WP
            assert abs(to_mpc(v) - exact) <= bound
            # tightness: on these inputs the bound is at most 2^(20 - WP)
            # relative (the series' term count, a small series at a high
            # reduced point, and the transformation's ulps)
            assert bound <= abs(to_mpc(v)) * mpmath.mpf(2) ** (20 - self.WP)

    @staticmethod
    def mp_eta(tau):
        # q^(1/24) (q; q)_inf, far above the working precision
        with mpmath.workprec(TestEtaTable.WP + 128):
            return mpmath.eta(tau)

    @staticmethod
    def counted_values(monkeypatch, points, wp):
        # the values at the points from one batch, and the series it summed
        import etacm.etafunc as ef

        calls, real = [], ef._eta_series
        monkeypatch.setattr(ef, "_eta_series", lambda *a: calls.append(a) or real(*a))
        return _eta_values([_name(p) for p in points], wp, _units(wp)), len(calls)

    @pytest.mark.parametrize("D, p1, p2", [(-56, 3, 13), (-1639, 5, 13), (-3996, 5, 7)])
    def test_forms_agree_with_direct_evaluation(self, monkeypatch, D, p1, p2):
        from etacm.etafunc import hecke_point
        from etacm.qforms import b_candidates, build_nsystem

        N = p1 * p2
        wp = self.WP
        system = build_nsystem(D, N, b_candidates(D, p1, p2)[0])
        args = [(f, den) for f in system.forms for den in (p1, p2, 1, N)]
        values, series = self.counted_values(
            monkeypatch, [hecke_point(f, (1, 0, 0, den)) for f, den in args], wp)
        for (f, den), got in zip(args, values):
            with mpmath.workprec(wp + 128):
                tau = mpmath.mpc(-f.b, mpmath.sqrt(-D)) / (2 * f.a * den)
            self.assert_certified(got, self.mp_eta(tau))
        assert series <= len(system.forms)

    def test_cosets_agree_with_direct_evaluation(self, monkeypatch):
        from etacm.etafunc import hecke_point
        from etacm.modpoly import coset_representatives
        from etacm.qforms import QuadraticForm

        wp = self.WP
        f0 = QuadraticForm(256, -32, 401)  # its root is z0 = (1 + 20i) / 16
        cosets = coset_representatives(3, 5)
        args = [(g, den) for g in cosets for den in (3, 5, 1, 15)]
        # the root of f0.g^-1 is g z0
        points = [hecke_point(_compose(f0, (g[3], -g[1], -g[2], g[0])), (1, 0, 0, den))
                  for g, den in args]
        values, series = self.counted_values(monkeypatch, points, wp)
        for ((a, b, c, d), den), got in zip(args, values):
            with mpmath.workprec(wp + 128):
                t0 = mpmath.mpc(mpmath.mpf(1) / 16, mpmath.mpf(5) / 4)
                tau = (a * t0 + b) / (c * t0 + d) / den
            self.assert_certified(got, self.mp_eta(tau))
        assert series <= 1 + 4 + 6 + len(cosets)

    def test_one_set_of_units_per_evaluation(self, monkeypatch):
        # every w_pow_s_at_hecke_points call builds the 24 units once, at its
        # own working precision: H with D = -9899 forced to start at 64 bits
        # (the gate rejects that attempt, so there is another), and Phi_{3,5}
        # (one w^s call for all its sample points, and no J evaluated: its
        # nodes are exact)
        import etacm.classpoly as cp
        import etacm.etafunc as ef
        import etacm.modpoly as mp
        from etacm.qforms import b_candidates

        units, wps, js = [], [], []
        real_units, real_j = ef._units, ef.j_invariant_with_err
        monkeypatch.setattr(ef, "_units", lambda wp: units.append(wp) or real_units(wp))
        monkeypatch.setattr(ef, "j_invariant_with_err", lambda *a: js.append(a) or real_j(*a))
        for module in (cp, mp):
            def recording(points, quotients, s, prec, real=module.w_pow_s_at_hecke_points):
                wps.append(prec + eta_guard_bits(prec) + 16 + 4 * s)
                return real(points, quotients, s, prec)

            monkeypatch.setattr(module, "w_pow_s_at_hecke_points", recording)
        monkeypatch.setattr(cp, "initial_precision", lambda *a: 64)
        cp.compute_class_polynomial(-9899, 3, 5, b_candidates(-9899, 3, 5)[0])
        assert len(set(wps)) > 1 and units == wps
        units.clear()
        wps.clear()
        mp.compute_modular_polynomial(3, 5)
        assert len(wps) == 1 and js == []
        assert units == wps
