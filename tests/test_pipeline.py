import random
from math import isqrt

import pytest

import etacm.pipeline as pipeline
from etacm.arith import is_probable_prime
from etacm.atkin import multiple_root_condition
from etacm.classpoly import compute_class_polynomial
from etacm.errors import NoTrace, PreconditionError
from etacm.ffield import FpElement, FpPolynomial, roots_mod_l
from etacm.modpoly import evaluate_in_j_mod_l
from etacm.pipeline import (
    EllipticCurve,
    TraceSolution,
    construct_cm_curve,
    curve_from_j,
    curves_with_j,
    ec_mul,
    find_trace,
    order_check,
    point_count,
    random_point,
)
from etacm.qforms import b_candidates
from oracles import (
    affine_add,
    hilbert_class_polynomial,
    j_of_curve,
    naive_point_count,
    trace_oracle,
)
from support import pick_b, split_prime, valid_triples


def j_of(curve: EllipticCurve) -> int:
    return j_of_curve(curve.q, curve.a4.value, curve.a6.value)


# a 256-bit prime at which D = -56, N = 39, B = 10 takes the shortcut
Q256 = 84632970245310086680688588841393060632974587876599533069688206916113180513121


class TestFindTrace:
    def test_worked_example_prime(self):
        assert find_trace(-56, 3593) == TraceSolution(3593, 6, 16)

    def test_smallest_v_tiebreak(self):
        # both (2, 2) and (4, 1) solve 4q = t^2 + 4 v^2; smallest v wins
        assert find_trace(-4, 5) == TraceSolution(5, 4, 1)

    def test_unsuitable_prime(self):
        assert find_trace(-56, 7) is None  # 7 | 56
        assert find_trace(-56, 11) is None  # 44 = t^2 + 56 v^2 unsolvable

    def test_rejects_bad_inputs(self):
        with pytest.raises(PreconditionError):
            find_trace(-56, 3592)
        with pytest.raises(PreconditionError):
            find_trace(-54, 3593)
        for t in (0, -3593):  # supersingular, t = 0 mod q
            with pytest.raises(PreconditionError):
                TraceSolution(3593, t, 16)

    def test_invariant_4q(self):
        rng = random.Random(31)
        count = 0
        while count < 40:
            q = rng.choice([101, 977, 3593, 10007, 65537, 999983])
            D = -rng.randint(3, 400)
            if D % 4 not in (0, 1) or D % q == 0:
                continue
            ts = find_trace(D, q)
            if ts is None:
                assert trace_oracle(D, q) is None
                continue
            assert 4 * q == ts.t * ts.t - D * ts.v * ts.v
            assert ts.t > 0 and ts.t % q
            assert (ts.t, ts.v) == trace_oracle(D, q)
            count += 1

    def test_cornacchia_agrees_with_exhaustive(self):
        import sympy

        # q from 10^6 to 10^7, and primes from 5 to 9973
        for qmin, qmax in [(10**6, 10**7), (4, 9972)]:
            rng = random.Random(13)
            count = 0
            while count < 25:
                q = sympy.nextprime(rng.randint(qmin, qmax))
                D = -rng.randint(5, 3000)
                if D % 4 not in (0, 1) or D % q == 0:
                    continue
                got = pipeline._trace_cornacchia(D, q)
                want = trace_oracle(D, q)
                if want is None:
                    assert got is None, (D, q)
                else:
                    assert got is not None and (got.t, got.v) == want, (D, q)
                count += 1
        # the units give D = -3 and -4 several solutions: the smallest v is taken
        for D in (-3, -4):
            for q in sympy.primerange(5, 5000):
                got = pipeline._trace_cornacchia(D, q)
                want = trace_oracle(D, q)
                assert (None if got is None else (got.t, got.v)) == want, (D, q)


class TestCurveFromJ:
    def test_j_1728(self):
        e = curve_from_j(1728, 3593)
        assert (e.a4.value, e.a6.value) == (1, 0)

    def test_j_zero(self):
        e = curve_from_j(0, 3593)
        assert (e.a4.value, e.a6.value) == (0, 1)

    def test_round_trip_229(self):
        assert j_of(curve_from_j(229, 3593)) == 229

    def test_round_trip_random(self):
        rng = random.Random(3)
        for _ in range(60):
            q = rng.choice([101, 3593, 65537])
            j = rng.randrange(q)
            assert j_of(curve_from_j(j, q)) == j % q

    def test_twists_share_j(self):
        for j in (5, 229, 1728, 0):
            for cand in curves_with_j(j, 3593):
                assert j_of(cand) == j % 3593

    @pytest.mark.parametrize("q", [0, 1, 9, -7])
    def test_bad_modulus_raises(self, phi313_embedded, q):
        for call in (lambda: curve_from_j(229, q), lambda: curves_with_j(229, q),
                     lambda: evaluate_in_j_mod_l(phi313_embedded, 607, q)):
            with pytest.raises(PreconditionError):
                call()

    def test_element_and_modulus_must_agree(self):
        assert curve_from_j(FpElement(5, 7), 7) == curve_from_j(5, 7)
        with pytest.raises(PreconditionError):
            curve_from_j(FpElement(5, 7), 11)

    def test_curve_checks_its_own_field(self):
        # every short Weierstrass curve over F_2 or F_3 is singular
        for q in (2, 3):
            with pytest.raises(PreconditionError):
                EllipticCurve.make(q, 0, 1)
        with pytest.raises(PreconditionError):
            EllipticCurve(5, FpElement(1, 7), FpElement(1, 7))
        with pytest.raises(PreconditionError):  # x^3 - 3x + 2 = (x - 1)^2 (x + 2)
            EllipticCurve.make(5, -3, 2)
        with pytest.raises(PreconditionError):
            curve_from_j(0, 0)

    @pytest.mark.parametrize("j,residue,count", [(0, 3, 6), (1728, 4, 4)])
    def test_every_twist_class_is_reached(self, j, residue, count):
        # the twists of j = 0 (q = 1 mod 3) and j = 1728 (q = 1 mod 4) have
        # pairwise distinct traces, so one curve per class gives distinct orders
        primes = [q for q in range(5, 1000) if q % residue == 1 and is_probable_prime(q)]
        for q in primes:
            orders = {point_count(e) for e in curves_with_j(j, q)}
            assert len(orders) == count, q


class TestPointCount:
    def test_f5_example(self):
        # points: (0,0), (2,0), (3,0), infinity
        assert point_count(EllipticCurve.make(5, 1, 0)) == 4

    def test_matches_naive_oracle(self):
        rng = random.Random(8)
        for _ in range(12):
            q = rng.choice([11, 101, 839, 3593])
            a, b = rng.randrange(q), rng.randrange(q)
            try:
                e = EllipticCurve.make(q, a, b)
            except PreconditionError:
                continue
            assert point_count(e) == naive_point_count(q, a, b)

    def test_hasse_bound(self):
        rng = random.Random(88)
        for _ in range(8):
            q = 3593
            e = EllipticCurve.make(q, rng.randrange(1, q), rng.randrange(1, q))
            n = point_count(e)
            assert (n - q - 1) ** 2 <= 4 * q

    def test_refuses_q_above_sweep_limit(self):
        with pytest.raises(PreconditionError):
            point_count(EllipticCurve.make(1000003, 2, 3))

    def test_twist_orders_sum(self):
        e = EllipticCurve.make(3593, 7, 11)
        n = point_count(e)
        nt = point_count(e.quadratic_twist())
        assert n + nt == 2 * (3593 + 1)

    def test_worked_example_curve_orders(self):
        e = curve_from_j(229, 3593)
        assert point_count(e) in (3588, 3600)


class TestConstructCmCurve:
    def test_worked_example_shortcut(self):
        curve, cert, used = construct_cm_curve(-56, 3, 13, 3593, B=10)
        assert used is True
        assert cert.order in (3588, 3600)
        assert cert.trace == 6
        assert not cert.ambiguous
        # certificate really holds: 20 fresh random points annihilate
        assert order_check(curve, cert.order, random.Random(12345))
        assert point_count(curve) == cert.order

    def test_worked_example_no_shortcut_for_companion(self):
        curve, cert, used = construct_cm_curve(-56, 3, 13, 3593, B=16)
        assert used is False
        assert cert.order in (3588, 3600)
        assert point_count(curve) == cert.order

    def test_witnessed_job_splits_only_h(self, monkeypatch):
        # the multiple J-root is read off gcd(f, f'), so a witnessed job
        # calls roots_mod_l once, on H; without a witness the slice is split
        degrees = []

        def counting(f):
            degrees.append(f.degree)
            return roots_mod_l(f)

        monkeypatch.setattr(pipeline, "roots_mod_l", counting)
        for q, B, used_shortcut, want in ((3593, 10, True, [4]), (Q256, 10, True, [4]),
                                          (3593, 16, False, [4, 2])):
            degrees.clear()
            _, _, used = construct_cm_curve(-56, 3, 13, q, B=B)
            assert used is used_shortcut
            assert degrees == want, (q, B)

    def test_random_points_skip_primality_tests(self, monkeypatch):
        # q is tested once, by the trace search; curve coefficients, root
        # finding and random points reuse the remembered verdict
        import sys

        import etacm.arith as arith

        real = arith.is_probable_prime
        tested = []

        def counting(n):
            tested.append(n)
            return real(n)

        for name, module in list(sys.modules.items()):
            if name.startswith("etacm") and getattr(module, "is_probable_prime", None) is real:
                monkeypatch.setattr(module, "is_probable_prime", counting)
        arith.is_prime_modulus.cache_clear()
        curve, cert, used = construct_cm_curve(-56, 3, 13, 3593, B=10)
        assert used and cert.order in (3588, 3600)
        assert tested.count(3593) == 1

    def test_deterministic_replay(self):
        a = construct_cm_curve(-56, 3, 13, 3593, B=10, seed=7)
        b = construct_cm_curve(-56, 3, 13, 3593, B=10, seed=7)
        assert a == b

    @pytest.mark.parametrize("q, B", [(3593, 10), (3593, 16), (Q256, 10)])
    def test_seed_changes_no_curve(self, q, B):
        # the seed feeds only the certificate's random points
        outputs = set()
        for seed in range(4):
            curve, cert, used = construct_cm_curve(-56, 3, 13, q, B=B, seed=seed)
            outputs.add((curve.a4.value, curve.a6.value, cert.order, used))
        assert len(outputs) == 1

    def test_default_b_prefers_shortcut(self):
        _, _, used = construct_cm_curve(-56, 3, 13, 3593)
        assert used is True

    def test_no_trace_raises(self):
        with pytest.raises(NoTrace):
            construct_cm_curve(-56, 3, 13, 11)

    def test_unsupported_conditions(self):
        with pytest.raises(PreconditionError):
            construct_cm_curve(-8, 3, 13, 3593)

    @pytest.mark.parametrize("D, p1, p2, q", [(-3, 7, 13, 1009),
                                              (-56, 1000000009, 1000000021, 3593)])
    def test_uncapped_level_is_refused_before_b_and_h(self, monkeypatch, D, p1, p2, q):
        # Phi's J-degree cap is checked before B is chosen and H computed
        work = []
        monkeypatch.setattr(pipeline, "b_candidates", lambda *a: work.append(a))
        monkeypatch.setattr(pipeline, "compute_class_polynomial", lambda *a, **k: work.append(a))
        with pytest.raises(PreconditionError, match="J-degree"):
            construct_cm_curve(D, p1, p2, q)
        assert work == []

    def test_shortcut_iff_multiple_root_case(self):
        rng = random.Random(606)
        done = 0
        while done < 6:
            (D, p1, p2), = valid_triples(rng, 1, 3, 600, pool=[(3, 5), (3, 13), (5, 7)])
            b = pick_b(rng, D, p1, p2)
            q = split_prime(D, lmin=max(5, -D // 4 + 1), avoid=(p1, p2))
            if q is None:
                continue
            try:
                _, _, used = construct_cm_curve(D, p1, p2, q, B=b)
            except Exception:
                continue
            assert used == (multiple_root_condition(D, p1 * p2, b) is not None), (D, p1, p2, b, q)
            done += 1

    def test_sextic_twist_branch(self):
        # D = -3 gives j = 0; the shortcut picks among all six twists
        curve, cert, used = construct_cm_curve(-3, 3, 13, 7)
        assert used is True
        assert j_of(curve) == 0
        assert cert.order in (7 + 1 - 5, 7 + 1 + 5)
        assert point_count(curve) == cert.order

    def test_quartic_twist_branch_is_counted_at_small_q(self):
        # D = -4 gives j = 1728 (17 mod 29); 2(q+1)-n is a multiple of n
        # here, so random points cannot decide: at q = 29 the order is counted
        curve, cert, used = construct_cm_curve(-4, 5, 13, 29)
        assert used is True
        assert j_of(curve) == 1728 % 29
        assert (curve.a4.value, curve.a6.value) == (1, 0)
        assert cert.order == point_count(curve) == 20
        assert not cert.ambiguous

    def test_ambiguous_certificate_is_settled_on_the_twist(self):
        # fewer than the 20 escaping points needed at q = 1553 come from this
        # curve's own points; its quadratic twist decides the order
        curve, cert, used = construct_cm_curve(-368, 3, 13, 1553, seed=53)
        assert not cert.ambiguous
        assert cert.order == point_count(curve) == 1536

    def test_order_and_membership_invariants(self):
        rng = random.Random(17)
        done = 0
        while done < 5:
            (D, p1, p2), = valid_triples(rng, 1, 3, 500)
            q = split_prime(D, lmin=1000, avoid=(p1, p2))
            if q is None:
                continue
            try:
                curve, cert, _ = construct_cm_curve(D, p1, p2, q)
            except Exception:
                continue
            assert cert.order in (q + 1 - cert.trace, q + 1 + cert.trace)
            assert cert.trace * cert.trace <= 4 * q
            assert not cert.ambiguous
            if q <= pipeline.EXHAUSTIVE_LIMIT:
                assert cert.order == point_count(curve)
            assert order_check(curve, cert.order, random.Random(done))
            done += 1

    def test_no_shortcut_at_128_bits(self):
        # no multiple J-root here; the order is certified by random points
        # alone (exact counting at this size is out of reach)
        D, q = -311, 39623819596429239443853971442590760311
        curve, cert, used = construct_cm_curve(D, 3, 13, q)
        assert used is False
        assert cert.order in (q + 1 - cert.trace, q + 1 + cert.trace)
        assert cert.trace * cert.trace <= 4 * q
        hilbert = FpPolynomial.make(hilbert_class_polynomial(D), q)
        assert j_of(curve) in roots_mod_l(hilbert)

    @pytest.mark.parametrize("q", [8304717999680899, 307526674626918301,
                                   1349622565360537519, 3465214642037198749])
    def test_spurious_double_root_is_not_taken(self, q):
        # D = -195 and (5, 13), whose only B is 65, have no multiple-root
        # witness, yet at these q = (t^2 + 195)/4 the J-slice at the smallest
        # root of H mod q has one double root: gcd(f, f') has degree 1.  That
        # root is no CM invariant, so the curve is counted, not read off it
        D, t = -195, isqrt(4 * q - 195)
        assert t * t + 195 == 4 * q and b_candidates(D, 5, 13) == [65]
        assert multiple_root_condition(D, 65, 65) is None
        H = compute_class_polynomial(D, 5, 13, 65)
        wbar = min(roots_mod_l(FpPolynomial.make(H.coeffs, q)))
        jpoly = evaluate_in_j_mod_l(pipeline._modular_polynomial(5, 13), wbar, q)
        g = jpoly.gcd(jpoly.derivative())
        assert g.degree == 1
        double = -g.coeffs[0] * pow(g.coeffs[1], -1, q) % q
        assert roots_mod_l(jpoly)[double] == 2
        curve, cert, used = construct_cm_curve(D, 5, 13, q, 65)
        assert used is False and j_of(curve) != double
        assert j_of(curve) in roots_mod_l(FpPolynomial.make(hilbert_class_polynomial(D), q))
        assert cert.order in (q + 1 - t, q + 1 + t)

    def test_j_roots_contain_hilbert_roots(self):
        # step-4 J-roots over all roots of H mod q cover the Hilbert roots
        for (D, p1, p2) in [(-56, 3, 13), (-20, 3, 7), (-84, 3, 7)]:
            q = split_prime(D, lmin=800, avoid=(p1, p2))
            assert q is not None
            bs = [pick_b(random.Random(1), D, p1, p2)]
            collected = set()
            phi = pipeline._modular_polynomial(p1, p2)
            H = compute_class_polynomial(D, p1, p2, b_candidates(D, p1, p2)[0])
            for wbar in roots_mod_l(FpPolynomial.make(H.coeffs, q)):
                jpoly = evaluate_in_j_mod_l(phi, wbar, q)
                if jpoly.degree >= 1:
                    collected |= set(roots_mod_l(jpoly))
            hilbert = hilbert_class_polynomial(D)
            hroots = set(roots_mod_l(FpPolynomial.make(hilbert, q)))
            assert hroots <= collected, (D, p1, p2, q, hroots, collected)


class TestCertify:
    # the first primes of 129 and 256 bits with 4q = t^2 + 56 v^2
    LARGE_Q = [340282366920938463463374607431768212273,
               57896044618658097711785492504343953926634992332820282019728792003956564821593]

    @pytest.mark.parametrize("q", LARGE_Q)
    def test_twist_gets_the_other_order_from_at_most_two_points(self, q):
        curve, cert, used = construct_cm_curve(-56, 3, 13, q, B=10)
        assert used and not cert.ambiguous and cert.checks <= 2
        n1, n2 = q + 1 - cert.trace, q + 1 + cert.trace
        twist = pipeline._certify(curve.quadratic_twist(), n1, n2, cert.trace,
                                  random.Random(1))
        assert not twist.ambiguous and twist.checks <= 2
        assert twist.order == n1 + n2 - cert.order
        assert order_check(curve, cert.order, random.Random(2), trials=2)
        assert order_check(curve.quadratic_twist(), twist.order, random.Random(3), trials=2)

    def test_rejects_a_j_root_that_is_not_a_hilbert_root(self):
        # every J-root over the roots of H at this q is a Hilbert root, so
        # the spurious one is made: a J-root of Phi(w, J) for the first w
        # above the smallest root of H that gives one
        D, q = -311, 39623819596429239443853971442590760311
        hilbert = set(roots_mod_l(FpPolynomial.make(hilbert_class_polynomial(D), q)))
        H = compute_class_polynomial(D, 3, 13, b_candidates(D, 3, 13)[0])
        hroots = roots_mod_l(FpPolynomial.make(H.coeffs, q))
        phi = pipeline._modular_polynomial(3, 13)
        w = min(hroots)
        jroots = {}
        while not jroots:
            w += 1
            if w not in hroots:
                jroots = roots_mod_l(evaluate_in_j_mod_l(phi, w, q))
        trace = find_trace(D, q)
        n1, n2 = q + 1 - trace.t, q + 1 + trace.t
        for jbar in jroots:
            assert jbar not in hilbert
            for cand in curves_with_j(jbar, q):
                assert pipeline._certify(cand, n1, n2, trace.t, random.Random(0)) is None

    @pytest.mark.parametrize("q,k", [(29, None), (1549, None), (1553, 20), (3593, 17),
                                     (2**48 + 21, 3), (2**128 - 159, 2), (2**256 - 189, 1)])
    def test_escaping_points_needed_for_a_2_64_bound(self, q, k):
        # the least k with (4 sqrt(q) / (q + 1 - 2 sqrt(q)))^k <= 2^-64; None above 20
        assert pipeline._escapes_needed(q) == k


class TestGroupArithmetic:
    def test_scalar_multiples_consistent(self):
        e = EllipticCurve.make(3593, 7, 11)
        rng = random.Random(2)
        P = random_point(e, rng)
        a = e.a4.value
        twice = affine_add(P, P, a, e.q)
        assert ec_mul(2, P, a, e.q) == twice
        assert ec_mul(5, P, a, e.q) == affine_add(
            ec_mul(2, P, a, e.q), ec_mul(3, P, a, e.q), a, e.q)

    def test_point_on_curve(self):
        e = EllipticCurve.make(3593, 7, 11)
        rng = random.Random(4)
        for _ in range(10):
            x, y = random_point(e, rng)
            assert (y * y - x * x * x - 7 * x - 11) % 3593 == 0

    @pytest.mark.parametrize("n", [0, -3600])
    def test_order_check_needs_a_positive_order(self, n):
        with pytest.raises(PreconditionError):
            order_check(EllipticCurve.make(3593, 7, 11), n, random.Random(0))
