import random
import time
from math import gcd, prod

import pytest
import sympy

from etacm.classpoly import (
    ClassPolynomial,
    check_integrality_conditions,
    compute_class_polynomial,
    involution_transform,
)
from etacm.errors import ConditionsViolated, InvalidB, PrecisionExhausted, ZeroConstantTerm
from etacm.ffield import FpPolynomial, roots_mod_l
from etacm.qforms import Discriminant, b_candidates, class_number
from support import hecke_roots, pick_b, split_prime, valid_triples

PAIRS = ((3, 5), (3, 7), (3, 13), (5, 7), (5, 13))


def one_per_pair(system):
    """The forms at which `compute_class_polynomial` evaluates w^s, one of
    each conjugate pair of the N-system, and whether each is paired."""
    import etacm.classpoly as cp

    kept, paired = cp._one_per_pair(cp._partners(system))
    return [system.forms[i] for i in kept], paired


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

    def test_conductor_test_agrees_with_the_factoring(self):
        # for an odd prime p, p | f iff p^2 | D: the conditions read D mod p^2
        # and agree with the factored conductor for every D down to -3000, and
        # a D of 142 bits needs no factoring at all
        from etacm.arith import jacobi

        for D in range(-3, -3000, -1):
            if D % 4 not in (0, 1):
                continue
            # the odd part of the conductor f of D = f^2 d_K, d_K fundamental:
            # p^e exactly dividing D gives p^(e // 2) exactly dividing f
            f = prod(p ** (e // 2) for p, e in sympy.factorint(-D).items() if p > 2)
            for p1, p2 in PAIRS:
                want = (jacobi(D, p1) != -1 and jacobi(D, p2) != -1
                        and f % p1 != 0 and f % p2 != 0)
                assert check_integrality_conditions(D, p1, p2) is want, (D, p1, p2)
        start = time.perf_counter()
        assert check_integrality_conditions(-4 * 10**42 - 19, 3, 13) is True
        assert check_integrality_conditions(-4 * 10**42 * 9 - 19 * 9, 3, 13) is False
        assert time.perf_counter() - start < 1

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
        forms, paired = one_per_pair(build_nsystem(-260, 39, 26))
        # None unless the gate passes
        ints = cp._expand(hecke_roots(forms, 3, 13, 2048), paired, 2048)
        assert ints is not None and tuple(ints) == base.coeffs

    def test_doubling_recovers_from_starved_start(self, monkeypatch):
        # force an absurdly low starting precision; the residual/error gate
        # must reject the rounding and the doubling loop must still converge
        # to the same integers
        import etacm.classpoly as cp

        b = b_candidates(-9899, 3, 5)[0]
        want = compute_class_polynomial(-9899, 3, 5, b).coeffs
        calls = []
        real = cp._expand
        monkeypatch.setattr(cp, "_expand", lambda *a: calls.append(a[2]) or real(*a))
        monkeypatch.setattr(cp, "initial_precision", lambda *a: 64)
        got = compute_class_polynomial(-9899, 3, 5, b)
        assert got.coeffs == want
        assert calls[0] == 64 and len(calls) > 1  # the gate rejected 64 bits
        assert max(abs(c) for c in want) > 2**100  # genuinely needed more bits

    def test_max_prec_bounds_the_first_attempt(self, monkeypatch):
        # -9899's modelled roots do not predict a passing gate at 64 bits, so
        # the start from their height is the first attempt
        import etacm.classpoly as cp

        calls = []
        real = cp._expand
        monkeypatch.setattr(cp, "_expand", lambda *a: calls.append(a[2]) or real(*a))
        monkeypatch.setattr(cp, "initial_precision", lambda *a: 512)
        with pytest.raises(PrecisionExhausted):
            compute_class_polynomial(-9899, 3, 5, b_candidates(-9899, 3, 5)[0], max_prec=256)
        assert calls == []  # refused before any evaluation at 512 bits

    @pytest.mark.parametrize("D, p1, p2", [(-56, 3, 13), (-3996, 5, 7), (-1511, 5, 7)])
    def test_height_pass_roots_are_reused(self, monkeypatch, D, p1, p2):
        # when the modelled roots already predict a passing gate at 64 bits
        # (D = -56 and -3996 have a start below 64 bits, D = -1511 one of 65),
        # the first and only attempt evaluates the roots at 64 bits
        import etacm.classpoly as cp

        calls = []
        real = cp.w_pow_s_at_hecke_points
        monkeypatch.setattr(cp, "w_pow_s_at_hecke_points",
                            lambda *a: calls.append(a[3]) or real(*a))
        want = compute_class_polynomial(D, p1, p2, b_candidates(D, p1, p2)[0])
        assert calls == [64]
        monkeypatch.setattr(cp, "w_pow_s_at_hecke_points", real)
        forms, paired = one_per_pair(cp.build_nsystem(D, p1 * p2, want.B))
        assert cp._expand(hecke_roots(forms, p1, p2, 512), paired, 512) == list(want.coeffs)

    @pytest.mark.parametrize("D, p1, p2, cap",
                             [(-56, 3, 13, 32), (-3996, 5, 7, 63), (-1511, 5, 7, 64)])
    def test_max_prec_below_64_or_the_start_raises(self, monkeypatch, D, p1, p2, cap):
        # -3996 has a start below 64 bits, so one bit under 64 already
        # raises; -1511 has a start of 65, but its modelled roots predict a
        # passing gate at 64 bits, so a cap of 64 gives the uncapped H from
        # one evaluation at 64 bits
        import etacm.classpoly as cp

        b = b_candidates(D, p1, p2)[0]
        if cap < 64:
            with pytest.raises(PrecisionExhausted):
                compute_class_polynomial(D, p1, p2, b, max_prec=cap)
            return
        want = compute_class_polynomial(D, p1, p2, b)
        calls = []
        real = cp.w_pow_s_at_hecke_points
        monkeypatch.setattr(cp, "w_pow_s_at_hecke_points",
                            lambda *a: calls.append(a[3]) or real(*a))
        assert compute_class_polynomial(D, p1, p2, b, max_prec=cap) == want
        assert calls == [64]

    @pytest.mark.parametrize("D, p1, p2", [(-3996, 5, 7), (-9899, 3, 5)])
    def test_start_is_measured_from_the_height(self, monkeypatch, D, p1, p2):
        # one attempt suffices, and it starts at most twice as high as the
        # smallest precision whose rounding the gate accepts
        import etacm.classpoly as cp
        from etacm.qforms import build_nsystem

        b = b_candidates(D, p1, p2)[0]
        calls = []
        real = cp._expand
        monkeypatch.setattr(cp, "_expand", lambda *a: calls.append(a[2]) or real(*a))
        compute_class_polynomial(D, p1, p2, b)
        assert len(calls) == 1
        forms, paired = one_per_pair(build_nsystem(D, p1 * p2, b))

        def passes(prec):
            return real(hecke_roots(forms, p1, p2, prec), paired, prec) is not None

        smallest = next(p for p in range(64, calls[0] + 1, 8) if passes(p))
        assert calls[0] <= 2 * smallest

    def test_precision_attempt_at_h_90(self, monkeypatch):
        # D = -55067, N = 21 (h = 90) expands once, from no higher a start
        # than it has had: the certified bounds are no looser
        import etacm.classpoly as cp

        calls = []
        real = cp._expand
        monkeypatch.setattr(cp, "_expand", lambda *a: calls.append(a[2]) or real(*a))
        poly = compute_class_polynomial(-55067, 3, 7, b_candidates(-55067, 3, 7)[0])
        assert poly.degree == 90
        assert len(calls) == 1 and calls[0] <= 338

    @pytest.mark.parametrize("D, p1, p2", [(-56, 3, 13), (-1639, 5, 13)])
    def test_attempt_sums_at_most_h_series(self, monkeypatch, D, p1, p2):
        # the 4h eta arguments of an attempt share the h reduced forms, and
        # [a, -b, c] shares the series of [a, b, c]: an attempt sums at most
        # one series per reduced form up to the sign of b
        import etacm.classpoly as cp
        import etacm.etafunc as ef
        from etacm.qforms import _reduced_forms

        series, per_attempt = [0], []
        real_series, real = ef._eta_series, cp.w_pow_s_at_hecke_points

        def counting_series(*a):
            series[0] += 1
            return real_series(*a)

        def counting(*a):
            before = series[0]
            values = real(*a)
            per_attempt.append(series[0] - before)
            return values

        monkeypatch.setattr(ef, "_eta_series", counting_series)
        monkeypatch.setattr(cp, "w_pow_s_at_hecke_points", counting)
        names = {(f.a, abs(f.b), f.c) for f in _reduced_forms(D)}
        assert len(names) < class_number(D)
        compute_class_polynomial(D, p1, p2, b_candidates(D, p1, p2)[0])
        assert per_attempt and all(0 < n <= len(names) for n in per_attempt)

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


class TestConjugatePairs:
    """H is real: the N-system form in the class of [c/N, b, aN] carries the
    conjugate of the value at [a, b, c] (`classpoly._partners`)."""

    def test_partner_holds_the_conjugate(self):
        # every (D, pair, B) with -800 < D < 0 and h <= 16, checked on every
        # form at 128 bits: 1562 cases and 13300 roots, among them forms with
        # gcd(C/N, N) > 1 and cases with (D|p) = 0 for one of the primes
        import etacm.classpoly as cp
        from etacm.apcomplex import add, lg, log2add
        from etacm.arith import jacobi

        cases = roots = shared = ramified = 0
        for D in range(-3, -800, -1):
            if D % 4 not in (0, 1) or class_number(D) > 16:
                continue
            for p1, p2 in PAIRS:
                if not check_integrality_conditions(D, p1, p2):
                    continue
                N = p1 * p2
                for B in b_candidates(D, p1, p2):
                    system = cp.build_nsystem(D, N, B)
                    partner = cp._partners(system)
                    assert all(partner[j] == i for i, j in enumerate(partner)), (D, N, B)
                    values = hecke_roots(system.forms, p1, p2, 128)
                    for ((a, b, e), err), j in zip(values, partner):
                        (c, d, f), err_j = values[j]
                        # |conj r_i - r_j| <= 2^err_i + 2^err_j, lg bounds from above
                        assert lg(add((a, -b, e), (-c, -d, f))) <= log2add(err, err_j), \
                            (D, N, B)
                    cases += 1
                    roots += len(values)
                    shared += sum(gcd(c // N, N) > 1 for _, _, c in system.forms)
                    ramified += jacobi(D, p1) == 0 or jacobi(D, p2) == 0
        assert (cases, roots) == (1562, 13300)
        assert shared == 3891 and ramified == 506

    def test_one_evaluation_per_pair(self, monkeypatch):
        # H(-56, 3, 13, 10) has h = 4 and 2 real roots: each attempt evaluates
        # w^s at (h + 2) / 2 = 3 forms, and it takes one attempt, at 64 bits.
        # D = -9899 (h = 30, no real root) forced to start at 64 bits takes
        # more than one attempt, of 15 evaluations each.
        import etacm.classpoly as cp

        assert cp._partners(cp.build_nsystem(-56, 39, 10)) == [0, 2, 1, 3]
        calls = []
        real = cp.w_pow_s_at_hecke_points

        def counting(points, quotients, s, prec):
            values = real(points, quotients, s, prec)
            calls.extend([prec] * len(values))
            return values

        monkeypatch.setattr(cp, "w_pow_s_at_hecke_points", counting)
        compute_class_polynomial(-56, 3, 13, 10)
        assert calls == [64] * 3
        calls.clear()
        monkeypatch.setattr(cp, "initial_precision", lambda *a: 64)
        compute_class_polynomial(-9899, 3, 5, b_candidates(-9899, 3, 5)[0])
        precs = sorted(set(calls))
        assert len(precs) > 1 and all(calls.count(p) == 15 for p in precs)


class TestHeckeRoute:
    """Every root of H comes from eta at the Hecke points of its reduced form
    (`etafunc.hecke_plan`), through the same functions as Phi's conjugates."""

    @pytest.mark.parametrize("D, p1, p2", [(-56, 3, 13), (-9899, 3, 5), (-260, 3, 13)])
    def test_roots_lie_within_their_bounds(self, D, p1, p2):
        # h = 4, h = 30, and (D|13) = 0: every root of the N-system at 128
        # bits lies within its certified bound of w^s from mpmath's eta at
        # the four points tau / n (`oracles.w_pow_s_at_form`)
        import mpmath

        import etacm.classpoly as cp
        from etacm.arith import jacobi
        from oracles import w_pow_s_at_form
        from support import to_mpc

        system = cp.build_nsystem(D, p1 * p2, b_candidates(D, p1, p2)[0])
        assert D != -9899 or len(system.forms) == 30
        assert D != -260 or jacobi(D, p2) == 0
        for f, (value, err) in zip(system.forms, hecke_roots(system.forms, p1, p2, 128)):
            want = w_pow_s_at_form(f, p1, p2, 400)
            with mpmath.workprec(400):
                assert abs(to_mpc(value) - want) <= mpmath.mpf(2) ** err, (D, f)

    def test_at_most_seven_square_roots_per_attempt(self, monkeypatch):
        # D = -56, (3, 13) at 128 bits: the 3 kept forms have 10 distinct
        # Hecke points, 3 of them a reduced form itself; each of the other 7
        # takes at most one transform with one square root (transforming each
        # argument alpha / d took 12 transforms and 10 square roots)
        import etacm.classpoly as cp
        import etacm.etafunc as ef

        transforms, roots = [], []
        real_transform, real_sqrt = ef._eta_transform, ef.sqrt

        def transform(series, rel, f, m, wp, units):
            if m != ef.IDENTITY:
                transforms.append(m)
            return real_transform(series, rel, f, m, wp, units)

        monkeypatch.setattr(ef, "_eta_transform", transform)
        monkeypatch.setattr(ef, "sqrt", lambda *a: roots.append(a) or real_sqrt(*a))
        forms, _ = one_per_pair(cp.build_nsystem(-56, 39, 10))
        hecke_roots(forms, 3, 13, 128)
        assert len(transforms) <= 7 and len(roots) <= 7


class TestPrecisionPolicy:
    """Each value is evaluated once per attempt, and only the gate, through
    `apcomplex.double_until`, decides whether to try again higher."""

    def test_one_evaluation_per_value(self, monkeypatch):
        # an attempt evaluates each value once and raises it to s once: w^s
        # at each kept form of H, w^s at each kept coset of each sample
        # point of Phi, and J at each sample point
        import etacm.classpoly as cp
        import etacm.etafunc as ef
        import etacm.modpoly as mp

        values, powers, nodes = [], [], []

        def recording(fn):
            def wrapper(points, quotients, s, prec):
                out = fn(points, quotients, s, prec)
                values.append((prec, len(out)))
                return out
            return wrapper

        real_power, real_j = ef._power_with_err, mp.j_invariant_with_err
        monkeypatch.setattr(ef, "_power_with_err", lambda *a: powers.append(a) or real_power(*a))
        monkeypatch.setattr(cp, "w_pow_s_at_hecke_points", recording(cp.w_pow_s_at_hecke_points))
        monkeypatch.setattr(mp, "w_pow_s_at_hecke_points", recording(mp.w_pow_s_at_hecke_points))
        monkeypatch.setattr(mp, "j_invariant_with_err",
                            lambda *a: nodes.append(a[1]) or real_j(*a))
        assert compute_class_polynomial(-56, 3, 13, 10).descending() == [1, -2, -1, 2, -1]
        assert values == [(64, 3)]  # h = 4 with 2 real roots: 3 kept forms
        mp.compute_modular_polynomial(3, 5)
        # Phi_{3,5} takes one attempt: one call for its 3 sample points,
        # (24 + 4) / 2 kept cosets each, and J at each sample point
        assert values[1:] == [(64, 3 * 14)]
        assert nodes == [64] * 3
        assert len(powers) == sum(n for _, n in values)

    @pytest.mark.parametrize("job, extra, later", [("H", 40, False), ("H", 100, True),
                                                   ("Phi", 40, False), ("Phi", 100, True)])
    def test_inflated_first_bounds_keep_the_result_exact(self, monkeypatch, job, extra, later):
        # the 64-bit roots' bounds read 2^extra too large.  The 64-bit bounds
        # of H and Phi_{3,5} are about 2^-90 and 2^-49, so at 2^40 the gate
        # still accepts the 64-bit attempt, and at 2^100 it takes a later
        # one.  The result is exact either way.
        import etacm.classpoly as cp
        import etacm.modpoly as mp
        from etacm.apcomplex import MIN_PREC

        def run():
            if job == "H":
                return compute_class_polynomial(-56, 3, 13, 10).coeffs
            return mp.compute_modular_polynomial(3, 5).coeffs

        want, precs = run(), []
        module = cp if job == "H" else mp
        real = module.w_pow_s_at_hecke_points

        def inflated(points, quotients, s, prec):
            precs.append(prec)
            values = real(points, quotients, s, prec)
            return [(v, e + extra) for v, e in values] if prec == MIN_PREC else values

        monkeypatch.setattr(module, "w_pow_s_at_hecke_points", inflated)
        assert run() == want
        assert precs[0] == MIN_PREC and (max(precs) > MIN_PREC) == later


class TestRootModel:
    """H's start comes from a float model of its roots (`etafunc.w_pow_s_model`),
    with no eta evaluated before the first attempt."""

    @staticmethod
    def plan(D, p1, p2, B):
        import etacm.classpoly as cp
        from etacm.etafunc import hecke_plan

        forms, paired = one_per_pair(cp.build_nsystem(D, p1 * p2, B))
        return (*hecke_plan(forms, p1, p2), paired)

    @staticmethod
    def start(sizes, paired, h):
        # the start that compute_class_polynomial derives from the (log2 |r|,
        # error) pairs of the roots at 64 bits
        import math

        import etacm.classpoly as cp

        err = cp._tree_err(sizes, paired, 64 + cp.TREE_BITS)
        return 64 if err < math.log2(cp.RESIDUAL_LIMIT) else cp.initial_precision(err, h)

    @staticmethod
    def sizes(values, paired):
        # (log2 |r|, error) of evaluated roots, log2 |Re r| for a real root
        from etacm.apcomplex import lg

        return [(lg(v if pair else (v[0], 0, v[2])), err)
                for (v, err), pair in zip(values, paired)]

    def test_agrees_with_the_evaluated_roots(self):
        # per root, log2 |w^s| and the bound agree with lg and the certified
        # error of the evaluated values within 2^-20 bits, at 64 bits and at
        # 200, and the start equals the one from the 64-bit roots.  Roots are
        # compared one by one: the folded bound may move by up to a bit, as
        # `_round_exp` floors.
        from etacm.apcomplex import lg
        from etacm.etafunc import s_exponent, w_pow_s_at_hecke_points, w_pow_s_model

        rng = random.Random(35)
        cases = []
        while len(cases) < 100:
            D, (p1, p2) = rng.randrange(-6000, -2), PAIRS[rng.randrange(len(PAIRS))]
            if D % 4 in (0, 1) and check_integrality_conditions(D, p1, p2):
                cases.append((D, p1, p2, pick_b(rng, D, p1, p2)))
        roots = starts_above_64 = 0
        for D, p1, p2, B in cases:
            points, quotients, paired = self.plan(D, p1, p2, B)
            s = s_exponent(p1, p2)
            for prec in (200, 64):
                model = w_pow_s_model(points, quotients, s, prec)
                values = w_pow_s_at_hecke_points(points, quotients, s, prec)
                assert len(model) == len(values) == len(paired)
                for (log2r, err), (v, want) in zip(model, values):
                    assert abs(log2r - lg(v)) < 2.0 ** -20, (D, p1, p2, B, prec)
                    assert abs(err - want) < 2.0 ** -20, (D, p1, p2, B, prec)
                roots += len(model)
            start = self.start(self.sizes(values, paired), paired, class_number(D))
            assert self.start(model, paired, class_number(D)) == start, (D, p1, p2, B)
            starts_above_64 += start > 64
        assert (roots, starts_above_64) == (3192, 25)

    def test_one_evaluation_at_a_start_above_64(self, monkeypatch):
        # D = -9899, (3, 5), h = 30: the start is above 64 bits, and H takes
        # one w^s evaluation, at that start and no lower
        import etacm.classpoly as cp

        B = b_candidates(-9899, 3, 5)[0]
        forms, paired = one_per_pair(cp.build_nsystem(-9899, 15, B))
        start = self.start(self.sizes(hecke_roots(forms, 3, 5, 64), paired), paired, 30)
        calls = []
        real = cp.w_pow_s_at_hecke_points
        monkeypatch.setattr(cp, "w_pow_s_at_hecke_points",
                            lambda *a: calls.append(a[3]) or real(*a))
        compute_class_polynomial(-9899, 3, 5, B)
        assert start > 64 and calls == [start]

    def test_hopeless_h_is_refused_before_any_evaluation(self, monkeypatch):
        # under a max_prec below its start, H raises at once, naming the
        # start that the 64-bit roots give, with no evaluation or expansion
        import etacm.classpoly as cp

        B = b_candidates(-9899, 3, 5)[0]
        forms, paired = one_per_pair(cp.build_nsystem(-9899, 15, B))
        start = self.start(self.sizes(hecke_roots(forms, 3, 5, 64), paired), paired, 30)
        calls = []
        for name in ("w_pow_s_at_hecke_points", "_expand"):
            monkeypatch.setattr(cp, name, lambda *a, name=name: calls.append(name))
        with pytest.raises(PrecisionExhausted, match=rf"max_prec = 100 bits \(start {start}\)"):
            compute_class_polynomial(-9899, 3, 5, B, max_prec=100)
        assert start > 100 and calls == []


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
        from etacm.arith import jacobi
        from etacm.qforms import b_candidates
        done = 0
        while done < 4:
            (D, p1, p2), = valid_triples(rng, 1, 3, 2500)
            if jacobi(D, p1) != 1 or jacobi(D, p2) != 1:
                continue
            bs = b_candidates(D, p1, p2)
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
