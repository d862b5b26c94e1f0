import random
import time

import pytest

from etacm.classpoly import (
    ClassPolynomial,
    check_integrality_conditions,
    compute_class_polynomial,
    count_distinct_class_polynomials,
    involution_transform,
)
from etacm.errors import ConditionsViolated, InvalidB, PrecisionExhausted, ZeroConstantTerm
from etacm.ffield import FpPolynomial, roots_mod_l
from etacm.qforms import Discriminant, b_candidates, class_number
from support import pick_b, split_prime, valid_triples


class TestIntegralityConditions:
    def test_worked_triple(self):
        assert check_integrality_conditions(-56, 3, 13) is True

    def test_nonresidue_fails(self):
        assert check_integrality_conditions(-8, 3, 13) is False  # (-8|13) = -1

    def test_equal_primes_unsupported(self):
        assert check_integrality_conditions(-56, 3, 3) is False

    def test_p_two_unsupported(self):
        assert check_integrality_conditions(-56, 2, 13) is False

    def test_conductor_divisibility(self):
        # D = -175 = 5^2 * (-7): p1 = 5 divides the conductor
        assert check_integrality_conditions(-175, 5, 3) is False

    def test_non_integer_input_is_an_error(self):
        # only a rejected discriminant means "unsupported"; a wrong type is a bug
        with pytest.raises(TypeError):
            check_integrality_conditions(None, 3, 13)


class TestComputeClassPolynomial:
    def test_worked_example_polynomial(self):
        start = time.monotonic()
        poly = compute_class_polynomial(-56, 3, 13, 10)
        elapsed = time.monotonic() - start
        assert poly.descending() == [1, -2, -1, 2, -1]
        assert elapsed < 5.0
        assert poly.s == 1 and poly.degree == 4

    def test_negated_residue_identical(self):
        a = compute_class_polynomial(-56, 3, 13, 10)
        b = compute_class_polynomial(-56, 3, 13, 68)
        assert a.coeffs == b.coeffs

    def test_companion_residue(self):
        poly = compute_class_polynomial(-56, 3, 13, 16)
        assert poly.descending() == [1, -2, 1, 2, -1]

    def test_conditions_violated(self):
        with pytest.raises(ConditionsViolated):
            compute_class_polynomial(-8, 3, 13, 2)

    def test_invalid_b(self):
        with pytest.raises(InvalidB):
            compute_class_polynomial(-56, 3, 13, 11)

    def test_degree_equals_class_number(self):
        rng = random.Random(6)
        for D, p1, p2 in valid_triples(rng, 6, 3, 4000):
            b = pick_b(rng, D, p1, p2)
            poly = compute_class_polynomial(D, p1, p2, b)
            assert poly.degree == class_number(D), (D, p1, p2, b)
            assert poly.coeffs[-1] == 1

    def test_higher_precision_reproduces_integers(self):
        import etacm.classpoly as cp
        from etacm.qforms import build_nsystem

        base = compute_class_polynomial(-260, 3, 13, 26)
        system = build_nsystem(-260, 39, 26)
        # None unless the gate passes
        ints = cp._expand(cp._roots(system.forms, 3, 13, 2048), 2048)
        assert ints is not None and tuple(ints) == base.coeffs

    def test_doubling_recovers_from_starved_start(self, monkeypatch):
        # force an absurdly low starting precision; the residual/error gate
        # must reject the rounding and the doubling loop must still converge
        # to the same integers
        import etacm.classpoly as cp

        b = b_candidates(-9899, 15)[0]
        want = compute_class_polynomial(-9899, 3, 5, b).coeffs
        calls = []
        real = cp._expand
        monkeypatch.setattr(cp, "_expand", lambda *a: calls.append(a[1]) or real(*a))
        monkeypatch.setattr(cp, "initial_precision", lambda *a: 64)
        got = compute_class_polynomial(-9899, 3, 5, b)
        assert got.coeffs == want
        assert calls[0] == 64 and len(calls) > 1  # the gate rejected 64 bits
        assert max(abs(c) for c in want) > 2**100  # genuinely needed more bits

    def test_max_prec_bounds_the_first_attempt(self, monkeypatch):
        import etacm.classpoly as cp

        calls = []
        real = cp._expand
        monkeypatch.setattr(cp, "_expand", lambda *a: calls.append(a[1]) or real(*a))
        monkeypatch.setattr(cp, "initial_precision", lambda *a: 512)
        with pytest.raises(PrecisionExhausted):
            compute_class_polynomial(-56, 3, 13, 10, max_prec=256)
        assert calls == []  # refused before any evaluation at 512 bits

    @pytest.mark.parametrize("D, p1, p2", [(-56, 3, 13), (-3996, 5, 7), (-1511, 5, 7)])
    def test_height_pass_roots_are_reused(self, monkeypatch, D, p1, p2):
        # when the 64-bit pass already predicts a passing gate (D = -56 and
        # -3996 measure a start below 64 bits, D = -1511 one of 66), its roots
        # are expanded as the first attempt instead of being evaluated again
        import etacm.classpoly as cp

        calls = []
        real = cp._roots
        monkeypatch.setattr(cp, "_roots", lambda *a: calls.append(a[3]) or real(*a))
        want = compute_class_polynomial(D, p1, p2, b_candidates(D, p1 * p2)[0])
        assert calls == [64]
        monkeypatch.setattr(cp, "_roots", real)
        system = cp.build_nsystem(D, p1 * p2, want.B)
        assert cp._expand(cp._roots(system.forms, p1, p2, 512), 512) == list(want.coeffs)

    @pytest.mark.parametrize("D, p1, p2, cap",
                             [(-56, 3, 13, 32), (-3996, 5, 7, 63), (-1511, 5, 7, 64)])
    def test_max_prec_below_64_or_the_start_raises(self, D, p1, p2, cap):
        # -3996 measures a start below 64 bits, so one bit under 64 already
        # raises; -1511's 64-bit pass would pass the gate, but its measured
        # start is 66
        with pytest.raises(PrecisionExhausted):
            compute_class_polynomial(D, p1, p2, b_candidates(D, p1 * p2)[0], max_prec=cap)

    @pytest.mark.parametrize("D, p1, p2", [(-3996, 5, 7), (-9899, 3, 5)])
    def test_start_is_measured_from_the_height(self, monkeypatch, D, p1, p2):
        # one attempt suffices, and it starts at most twice as high as the
        # smallest precision whose rounding the gate accepts
        import etacm.classpoly as cp
        from etacm.qforms import build_nsystem

        b = b_candidates(D, p1 * p2)[0]
        calls = []
        real = cp._expand
        monkeypatch.setattr(cp, "_expand", lambda *a: calls.append(a[1]) or real(*a))
        compute_class_polynomial(D, p1, p2, b)
        assert len(calls) == 1
        system = build_nsystem(D, p1 * p2, b)

        def passes(prec):
            return real(cp._roots(system.forms, p1, p2, prec), prec) is not None

        smallest = next(p for p in range(64, calls[0] + 1, 8) if passes(p))
        assert calls[0] <= 2 * smallest

    def test_precision_attempt_at_h_90(self, monkeypatch):
        # D = -55067, N = 21 (h = 90) expands once, from no higher a start
        # than it has had: the certified bounds are no looser
        import etacm.classpoly as cp

        calls = []
        real = cp._expand
        monkeypatch.setattr(cp, "_expand", lambda *a: calls.append(a[1]) or real(*a))
        poly = compute_class_polynomial(-55067, 3, 7, b_candidates(-55067, 21)[0])
        assert poly.degree == 90
        assert len(calls) == 1 and calls[0] <= 338

    @pytest.mark.parametrize("D, p1, p2", [(-56, 3, 13), (-1639, 5, 13)])
    def test_attempt_sums_at_most_h_series(self, monkeypatch, D, p1, p2):
        # the 4h eta arguments of an attempt share h reduced forms
        import etacm.classpoly as cp
        from etacm.etafunc import EtaTable

        tables = []

        class Recording(EtaTable):
            def __init__(self):
                super().__init__()
                tables.append(self)

        monkeypatch.setattr(cp, "EtaTable", Recording)
        h = class_number(D)
        b = b_candidates(D, p1 * p2)[0]
        compute_class_polynomial(D, p1, p2, b)
        assert tables and all(0 < len(t) <= h for t in tables)

    def test_negation_symmetry_random(self):
        rng = random.Random(61)
        for D, p1, p2 in valid_triples(rng, 5, 3, 3000):
            n2 = 2 * p1 * p2
            b = pick_b(rng, D, p1, p2)
            a = compute_class_polynomial(D, p1, p2, b)
            c = compute_class_polynomial(D, p1, p2, (n2 - b) % n2)
            assert a.coeffs == c.coeffs, (D, p1, p2, b)

    def test_splits_mod_split_prime(self):
        # H mod l factors into linear pieces whenever 4l = t^2 - D v^2
        rng = random.Random(4096)
        for D, p1, p2 in valid_triples(rng, 30, 3, 40000):
            b = pick_b(rng, D, p1, p2)
            poly = compute_class_polynomial(D, p1, p2, b)
            ell = split_prime(D, lmin=max(5, -D // 4), avoid=(p1, p2))
            assert ell is not None, D
            hq = FpPolynomial.make(poly.coeffs, ell)
            if hq.degree != poly.degree:
                continue  # l divides a leading structure constant: skip
            counts = roots_mod_l(hq)
            assert sum(counts.values()) == poly.degree, (D, p1, p2, b, ell)


class TestPrecisionPolicy:
    """Each value is evaluated once per attempt, and only the gate, through
    `apcomplex.double_until`, decides whether to try again higher."""

    def test_one_evaluation_per_value(self, monkeypatch):
        import etacm.classpoly as cp
        import etacm.etafunc as ef
        import etacm.modpoly as mp

        counts = {"quotient": 0, "value": 0}

        def counting(fn, key):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(ef, "_eta_quotient", counting(ef._eta_quotient, "quotient"))
        monkeypatch.setattr(cp, "w_pow_s_with_err", counting(cp.w_pow_s_with_err, "value"))
        monkeypatch.setattr(mp, "j_invariant_with_err",
                            counting(mp.j_invariant_with_err, "value"))
        assert compute_class_polynomial(-56, 3, 13, 10).descending() == [1, -2, -1, 2, -1]
        mp.compute_modular_polynomial(3, 5)
        assert counts["value"] > 0
        assert counts["quotient"] == counts["value"]

    @pytest.mark.parametrize("job, extra, later", [("H", 40, False), ("H", 100, True),
                                                   ("Phi", 40, False), ("Phi", 100, True)])
    def test_inflated_first_bounds_keep_the_result_exact(self, monkeypatch, job, extra, later):
        # the 64-bit roots' bounds read 2^extra too large.  The 64-bit bounds
        # of H and Phi_{3,5} are about 2^-90 and 2^-49, so at 2^40 the gate
        # still accepts the 64-bit attempt, and at 2^100 it takes a later
        # one.  The result is exact either way.
        import etacm.classpoly as cp
        from etacm.apcomplex import MIN_PREC
        from etacm.modpoly import compute_modular_polynomial

        def run():
            if job == "H":
                return compute_class_polynomial(-56, 3, 13, 10).coeffs
            return compute_modular_polynomial(3, 5).coeffs

        want, precs = run(), []
        real = cp.w_pow_s_with_err

        def inflated(f, p1, p2, prec, table):
            precs.append(prec)
            value, err = real(f, p1, p2, prec, table)
            return value, err + extra if prec == MIN_PREC else err

        monkeypatch.setattr(cp, "w_pow_s_with_err", inflated)
        assert run() == want
        assert precs[0] == MIN_PREC and (max(precs) > MIN_PREC) == later


class TestInvolutionTransform:
    def test_worked_example_pair(self):
        h10 = compute_class_polynomial(-56, 3, 13, 10)
        t = involution_transform(h10)
        assert t.descending() == [1, -2, 1, 2, -1]
        assert t.B == 16

    def test_applied_twice_is_identity(self):
        h10 = compute_class_polynomial(-56, 3, 13, 10)
        assert involution_transform(involution_transform(h10)).coeffs == h10.coeffs

    def test_transform_matches_direct_computation(self):
        rng = random.Random(8)
        from etacm.arith import legendre
        from etacm.qforms import b_candidates
        done = 0
        while done < 4:
            (D, p1, p2), = valid_triples(rng, 1, 3, 2500)
            if legendre(D, p1) != 1 or legendre(D, p2) != 1:
                continue
            bs = b_candidates(D, p1 * p2)
            b = bs[0]
            t = involution_transform(compute_class_polynomial(D, p1, p2, b))
            direct = compute_class_polynomial(D, p1, p2, t.B)
            assert t.coeffs == direct.coeffs, (D, p1, p2, b)
            done += 1

    def test_zero_constant_term_rejected(self):
        fake = ClassPolynomial(Discriminant(-56), 3, 13, 1, 10, (0, 1, 1))
        with pytest.raises(ZeroConstantTerm):
            involution_transform(fake)

    def test_requires_split_symbols(self):
        # (D|p2) = 0 here, so the transform precondition fails
        poly = compute_class_polynomial(-260, 3, 13, 26)
        with pytest.raises(ConditionsViolated):
            involution_transform(poly)


class TestCountDistinct:
    def test_worked_case_has_two(self):
        assert count_distinct_class_polynomials(-56, 3, 13) == 2

    def test_single_when_one_symbol_vanishes(self):
        # (-260|3) = 1, (-260|13) = 0
        assert count_distinct_class_polynomials(-260, 3, 13) == 1

    def test_never_more_than_two(self):
        rng = random.Random(12)
        for D, p1, p2 in valid_triples(rng, 5, 3, 2000):
            assert count_distinct_class_polynomials(D, p1, p2) <= 2
