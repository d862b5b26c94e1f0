import math
import random

import mpmath
import pytest

from etacm.apcomplex import ApComplex, UpperHalfPoint
from etacm.errors import PreconditionError
from etacm.etafunc import (
    EtaTable,
    _eta_series,
    _zeta24,
    double_eta_quotient,
    eta,
    eta_guard_bits,
    eta_multiplier,
    j_invariant,
    reduce_to_fundamental_domain,
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
        return mpmath.mpc(mpmath.mpf(v.re), mpmath.mpf(v.im))


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
    def test_already_reduced_is_identity(self):
        z = point(0.3, 2.0, 128)
        zr, m = reduce_to_fundamental_domain(z)
        assert m == (1, 0, 0, 1)
        assert zr.to_complex() == z.to_complex()

    def test_integer_translation(self):
        z = point(5.3, 2.0, 128)
        zr, m = reduce_to_fundamental_domain(z)
        assert m == (1, -5, 0, 1)
        assert abs(zr.to_complex() - (5.3 - 5 + 2j)) < 1e-30

    def test_small_point_lands_in_domain(self):
        z = point(0.1, 0.1, 192)
        zr, m = reduce_to_fundamental_domain(z)
        c = zr.to_complex()
        assert abs(c) >= 1 - 2.0 ** (-96)
        assert abs(c.real) <= 0.5 + 1e-30
        assert c.imag >= 0.1
        assert m[0] * m[3] - m[1] * m[2] == 1
        # z' really is M z
        assert abs(moebius(m, z.value, z.prec).to_complex() - c) < 1e-40

    def test_left_edge_moves_to_minus_one_half(self):
        # Gauss's convention -a < b <= a puts Re z' in [-1/2, 1/2)
        zr, m = reduce_to_fundamental_domain(point(0.5, 2, 128))
        assert m == (1, -1, 0, 1)
        assert zr.to_complex() == complex(-0.5, 2)

    def test_random_points_postconditions(self):
        rng = random.Random(101)
        for _ in range(50):
            z = point(rng.uniform(-30, 30), rng.uniform(0.005, 5), 160)
            zr, m = reduce_to_fundamental_domain(z)
            a, b, c, d = m
            assert a * d - b * c == 1
            w = zr.to_complex()
            assert abs(w.real) <= 0.5 + 1e-30
            assert abs(w) >= 1 - 2.0 ** (-80)
            assert w.imag >= z.to_complex().imag - 1e-12


class TestMultiplier:
    # eta_multiplier gives (c, d, sign, k): eps(M) = sign * zeta_24^k
    def test_translation(self):
        assert eta_multiplier((1, 1, 0, 1)) == (0, 1, 1, 1)

    def test_identity(self):
        assert eta_multiplier((1, 0, 0, 1)) == (0, 1, 1, 0)
        assert to_mpc(_zeta24(0, 96)) == 1

    def test_inversion_matches_classical_formula(self):
        c, d, sign, k = eta_multiplier((0, -1, 1, 0))
        assert (c, d, sign, k) == (1, 0, 1, 21)  # zeta_24^{-3}
        val = sign * complex(to_mpc(_zeta24(k, 128)))
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
        with mpmath.workprec(wp + 64):
            for k in range(24):
                want = mpmath.mpc(mpmath.cospi(mpmath.mpf(k) / 12),
                                  mpmath.sinpi(mpmath.mpf(k) / 12))
                diff = to_mpc(_zeta24(k, wp)) - want
                assert abs(diff) <= mpmath.mpf(2) ** (2 - wp), k  # a few ulps

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


class TestEtaSeries:
    """The pentagonal series at a reduced point against the q-product
    oracle at twice the precision, within its certified relative bound."""

    # rho, the worst decay; i; and the principal form of D = -81443, whose
    # root has Im ~ 143 and |q^(1/24)| ~ 2^-54
    POINTS = [(1, 1, -3), (1, 0, -4), (1, 1, -81443)]

    @pytest.mark.parametrize("a, b, D", POINTS)
    @pytest.mark.parametrize("wp", [64, 200, 640])
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
        from etacm.arith import legendre

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
            eps = legendre(p1, p2) ** s
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
            t = mpmath.mpc(mpmath.mpf(z.value.re), mpmath.mpf(z.value.im))
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
            t = mpmath.mpc(mpmath.mpf(z.value.re), mpmath.mpf(z.value.im))
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
    """Table-built eta values against direct evaluation at the exact point
    (mpmath's q-product), within the table's own certified bound, which must
    also be tight."""

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
        # q^(1/24) (q; q)_inf, far above the table's precision
        with mpmath.workprec(TestEtaTable.WP + 128):
            return mpmath.eta(tau)

    @pytest.mark.parametrize("D, p1, p2", [(-56, 3, 13), (-1639, 5, 13), (-3996, 5, 7)])
    def test_forms_agree_with_direct_evaluation(self, D, p1, p2):
        from etacm.qforms import b_candidates, build_nsystem

        N = p1 * p2
        wp = self.WP
        table = EtaTable()
        system = build_nsystem(D, N, b_candidates(D, N)[0])
        for f in system.forms:
            for den in (p1, p2, 1, N):
                with mpmath.workprec(wp + 128):
                    tau = mpmath.mpc(-f.b, mpmath.sqrt(-D)) / (2 * f.a * den)
                self.assert_certified(table.eta(f, den, wp), self.mp_eta(tau))
        assert len(table) <= len(system.forms)

    def test_cosets_agree_with_direct_evaluation(self):
        from etacm.modpoly import coset_representatives
        from etacm.qforms import QuadraticForm

        wp = self.WP
        table = EtaTable()
        f0 = QuadraticForm(256, -32, 401)  # its root is z0 = (1 + 20i) / 16
        cosets = coset_representatives(15)
        for g in cosets:
            f = f0.compose((g[3], -g[1], -g[2], g[0]))  # root g z0
            for den in (3, 5, 1, 15):
                a, b, c, d = g
                with mpmath.workprec(wp + 128):
                    t0 = mpmath.mpc(mpmath.mpf(1) / 16, mpmath.mpf(5) / 4)
                    tau = (a * t0 + b) / (c * t0 + d) / den
                self.assert_certified(table.eta(f, den, wp), self.mp_eta(tau))
        assert len(table) <= 1 + 4 + 6 + len(cosets)

    def test_attempt_computes_at_most_24_roots_of_unity_per_precision(self, monkeypatch):
        # one class-polynomial attempt: each zeta_24^k is computed once per
        # working precision, however many of its 4h arguments need it
        import etacm.classpoly as cp
        import etacm.etafunc as ef
        from etacm.qforms import b_candidates, build_nsystem

        D, p1, p2 = -1639, 5, 13
        calls, tables = [], []
        real_cos_sin = ef.mpf_cos_sin_pi

        def counting(x, prec, rnd):
            calls.append(prec)
            return real_cos_sin(x, prec, rnd)

        class Recording(EtaTable):
            def __init__(self):
                super().__init__()
                tables.append(self)

        monkeypatch.setattr(ef, "mpf_cos_sin_pi", counting)
        monkeypatch.setattr(cp, "EtaTable", Recording)
        system = build_nsystem(D, p1 * p2, b_candidates(D, p1 * p2)[0])
        cp._roots(system.forms, p1, p2, 256)
        series = sum(len(t) for t in tables)
        assert len(calls) - series <= 24 * len(set(calls))  # one cos/sin per series
        assert 4 * len(system.forms) - series > 24  # many more arguments than roots
