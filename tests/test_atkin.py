import random
from collections import Counter

import pytest

from etacm.arith import is_probable_prime
from etacm.atkin import Con1Solution, multiple_root_condition
from etacm.errors import ConditionsViolated, InvalidB, PreconditionError
from etacm.ffield import FpPolynomial, has_multiple_root, roots_mod_l
from etacm.classpoly import (
    check_conditions,
    check_integrality_conditions,
    compute_class_polynomial,
)
from etacm.intpoly import divmod_monic
from etacm.modpoly import discriminant_in_j, evaluate_in_j_mod_l
from etacm.qforms import Discriminant, b_candidates
from oracles import norm_form_solutions
from support import split_prime, valid_triples, pick_b


class TestMultipleRootCondition:
    def test_worked_example_witness(self):
        assert multiple_root_condition(-56, 39, 10) == Con1Solution(10, 1)

    def test_companion_residue_has_none(self):
        assert multiple_root_condition(-56, 39, 16) is None

    def test_bound_case(self):
        # valid congruence with D <= -4N forces emptiness (D = B^2 - 4Nk)
        D = 10 * 10 - 4 * 39 * 5  # -680 < -156
        assert multiple_root_condition(D, 39, 10) is None

    def test_invalid_b(self):
        with pytest.raises(InvalidB):
            multiple_root_condition(-56, 39, 11)

    def test_nonpositive_n(self):
        # 10^2 + 56 = 0 mod -156, so only the sign of N is wrong
        with pytest.raises(PreconditionError):
            multiple_root_condition(-56, -39, 10)

    def test_witness_satisfies_equations_exactly(self):
        rng = random.Random(55)
        found = 0
        while found < 25:
            N = rng.choice([15, 21, 35, 39, 65])
            B = rng.randrange(2 * N)
            k = rng.randint(1, max(1, (B * B + 4 * N - 1) // (4 * N)))
            D = B * B - 4 * N * k
            if D >= 0:
                continue
            sol = multiple_root_condition(D, N, B)
            if sol is None:
                continue
            assert sol.u * sol.u - D * sol.v * sol.v == 4 * N
            assert (sol.u - B * sol.v) % (2 * N) == 0
            found += 1

    def test_vacuous_below_minus_four_n(self):
        # Cor 4.4: no solutions whenever D <= -4N (10^4 random valid triples)
        rng = random.Random(4040)
        for _ in range(10**4):
            N = rng.choice([15, 21, 33, 35, 39, 55, 65, 91])
            B = rng.randrange(2 * N)
            k = rng.randint(N + 1, 40 * N)  # D = B^2 - 4Nk <= -4N guaranteed
            D = B * B - 4 * N * k
            if D > -4 * N:
                continue
            assert multiple_root_condition(D, N, B) is None, (D, N, B)


class TestIsMultipleRootCase:
    # the shortcut's test: the integrality conditions, then the criterion
    def test_worked_example_true_case(self):
        witness = multiple_root_condition(check_conditions(-56, 3, 13), 39, 10)
        assert witness == Con1Solution(10, 1)

    def test_worked_example_false_case(self):
        assert multiple_root_condition(check_conditions(-56, 3, 13), 39, 16) is None

    def test_rejects_unsupported_triple(self):
        with pytest.raises(ConditionsViolated):
            multiple_root_condition(check_conditions(-8, 3, 13), 39, 2)

    def test_agrees_with_discriminant_divisibility(self, phi_pool):
        # at J-degree 2, Phi(wbar, J) has a double root at every root wbar of
        # H iff H divides the J-discriminant of Phi: the paper's criterion
        # decides exactly that, for every admissible -400 < D <= -3 and
        # every B of the four pairs of J-degree 2 (693 cases)
        seen = Counter()
        for p1, p2 in [(3, 5), (3, 7), (5, 7), (3, 13)]:
            disc_poly = discriminant_in_j(phi_pool(p1, p2))
            for D in range(-399, -2):
                if D % 4 > 1 or not check_integrality_conditions(D, p1, p2):
                    continue
                for b in b_candidates(D, p1, p2):
                    h = compute_class_polynomial(D, p1, p2, b)
                    divides = divmod_monic(disc_poly, list(h.coeffs))[1] == []
                    holds = multiple_root_condition(D, p1 * p2, b) is not None
                    assert divides == holds, (D, p1, p2, b)
                    seen[holds] += 1
        assert seen == {True: 101, False: 592}

    def test_all_or_none_across_roots(self, phi_pool):
        # multiplicity of the J-slice is an all-or-none property across the
        # roots of H mod l (10 instances, mixed multiple/simple)
        rng = random.Random(303)
        pairs = [(3, 5), (3, 7), (5, 7), (3, 13)]
        done = 0
        while done < 10:
            p1, p2 = pairs[done % len(pairs)]
            (D, _, _), = valid_triples(rng, 1, 3, 3000, pool=[(p1, p2)])
            b = pick_b(rng, D, p1, p2)
            ell = split_prime(D, lmin=max(5, -D // 4), avoid=(p1, p2))
            if ell is None:
                continue
            H = compute_class_polynomial(D, p1, p2, b)
            hq = FpPolynomial.make(H.coeffs, ell)
            if hq.degree != H.degree:
                continue
            roots = roots_mod_l(hq)
            if not roots:
                continue
            phi = phi_pool(p1, p2)
            flags = set()
            for wbar in roots:
                slice_ = evaluate_in_j_mod_l(phi, wbar, ell)
                if slice_.degree < 1:
                    break
                flags.add(has_multiple_root(slice_))
            else:
                assert len(flags) == 1, (D, p1, p2, b, ell, flags)
                done += 1

    def test_sufficient_at_j_degree_4(self, phi_pool):
        # (5, 13) is the one pair of J-degree 4.  For every admissible
        # -700 < D <= -3 and every B (326 cases), a prime q >= 2^59 that is a
        # norm (t^2 - D v^2)/4 splits H completely; a J-slice with no multiple
        # root mod q has none over Q.  Every case of the criterion has a
        # multiple J-root at every root of H mod q, and three cases without
        # it have one too, so the criterion is sufficient but not necessary
        rng = random.Random(59)
        phi = phi_pool(5, 13)
        cases, con1, extra = 0, 0, set()
        for D in range(-699, -2):
            if D % 4 > 1 or not check_integrality_conditions(D, 5, 13):
                continue
            for b in b_candidates(D, 5, 13):
                while True:
                    v = rng.randrange(1, 2**20)
                    t = 2 * rng.randrange(2**30, 2**31) + D * v % 2
                    q = (t * t - D * v * v) // 4
                    if is_probable_prime(q):
                        break
                H = compute_class_polynomial(D, 5, 13, b)
                roots = roots_mod_l(FpPolynomial.make(H.coeffs, q))
                assert sum(roots.values()) == H.degree, (D, b, q)
                multiple = {has_multiple_root(evaluate_in_j_mod_l(phi, w, q)) for w in roots}
                holds = multiple_root_condition(D, 65, b) is not None
                if holds:
                    assert multiple == {True}, (D, b, q)
                elif True in multiple:
                    extra.add((D, b))
                cases += 1
                con1 += holds
        assert (cases, con1) == (326, 45)
        assert extra == {(-195, 65), (-595, 35), (-595, 95)}


class TestWitnessOrder:
    def test_first_admissible_solution_in_the_documented_order(self):
        # every admissible B for D = -3, -10, ... down to -(4N + 200).  Con1
        # needs D > -4N; below that, test_vacuous_below_minus_four_n covers it
        cases = con1 = 0
        for N in (15, 21, 33, 35, 39, 51, 55, 65, 77, 91, 143):
            for D in range(-3, -(4 * N + 200), -7):
                bs = [B for B in range(2 * N) if (B * B - D) % (4 * N) == 0]
                if not bs:
                    continue
                disc = Discriminant(D)
                sols = norm_form_solutions(D, 4 * N)
                for B in bs:
                    want = next((Con1Solution(u, v) for u, v in sols
                                 if (u - B * v) % (2 * N) == 0), None)
                    assert multiple_root_condition(disc, N, B) == want, (D, N, B)
                    cases += 1
                    con1 += want is not None
        assert (cases, con1) == (410, 70)
