import random

import pytest

import etacm.classpoly as classpoly
import etacm.modpoly as modpoly
from etacm.apcomplex import UpperHalfPoint
from etacm.arith import jacobi
from etacm.atkin import multiple_root_condition
from etacm.errors import (
    ConditionsViolated,
    InvalidB,
    InvalidDiscriminant,
    NoSolution,
    PreconditionError,
)
from etacm.etafunc import w_pow_s
from etacm.pipeline import construct_cm_curve, find_trace
from etacm.qforms import (
    Discriminant,
    NSystem,
    QuadraticForm,
    _compose,
    _reduce,
    _reduced_forms,
    b_candidates,
    build_nsystem,
    class_number,
    validate_nsystem,
)
from oracles import brute_force_class_count, brute_force_reduced_forms
from support import log2_dist


class TestQuadraticForm:
    def test_invariants_enforced(self):
        with pytest.raises(PreconditionError):
            QuadraticForm(-1, 0, 14)  # a <= 0
        with pytest.raises(PreconditionError):
            QuadraticForm(1, 4, 1)  # positive discriminant
        with pytest.raises(PreconditionError):
            QuadraticForm(2, 2, 8)  # imprimitive

    def test_compose_preserves_discriminant(self):
        f = QuadraticForm(3, 2, 5)
        g = QuadraticForm(*_compose(f, (2, 1, 1, 1)))
        assert g.discriminant == f.discriminant


class TestReduce:
    def test_already_reduced(self):
        g, m = _reduce((1, 0, 14))
        assert g == (1, 0, 14) and m == (1, 0, 0, 1)

    def test_translation_case(self):
        # hand check: 2*22^2 - 88*22 + 975 = 7
        g, m = _reduce((2, 88, 975))
        assert g == (2, 0, 7) and _compose((2, 88, 975), m) == g

    def test_translate_then_invert(self):
        g, m = _reduce((5, 322, 5187))
        assert g == (3, -2, 5) and _compose((5, 322, 5187), m) == g

    def test_witness_matrix_on_random_forms(self):
        rng = random.Random(2024)
        for _ in range(300):
            a = rng.randint(1, 40)
            b = rng.randint(-300, 300)
            # choose c so the discriminant is negative
            c = rng.randint((b * b) // (4 * a) + 1, (b * b) // (4 * a) + 60)
            try:
                f = QuadraticForm(a, b, c)
            except PreconditionError:
                continue
            g, m = _reduce(f)
            assert m[0] * m[3] - m[1] * m[2] == 1
            assert _compose(f, m) == g
            # the reduced representative is among the brute-force reduced set
            assert g in brute_force_reduced_forms(f.discriminant)


class TestEnumeration:
    def test_worked_discriminant(self):
        forms = set(_reduced_forms(-56))
        assert forms == {(1, 0, 14), (2, 0, 7), (3, 2, 5), (3, -2, 5)}
        assert class_number(-56) == 4

    def test_smallest_case(self):
        assert _reduced_forms(-4) == ((1, 0, 1),)
        assert class_number(-4) == 1

    def test_two_classes(self):
        assert set(_reduced_forms(-35)) == {(1, 1, 9), (3, 1, 3)}
        assert class_number(-35) == 2

    def test_rejects_invalid(self):
        with pytest.raises(InvalidDiscriminant):
            class_number(-6)
        with pytest.raises(InvalidDiscriminant):
            class_number(5)

    def test_against_brute_force_counts(self):
        for D in range(-3, -401, -1):
            if D % 4 in (0, 1):
                assert class_number(D) == brute_force_class_count(D), D

    def test_equals_the_brute_force_forms(self):
        # b runs over b = D mod 2 only; every D = 0 and D = 1 mod 4 in
        # -3000 < D <= -3 gives the oracle's forms, in sorted order
        for D in range(-3, -3000, -1):
            if D % 4 in (0, 1):
                assert list(_reduced_forms(D)) == sorted(brute_force_reduced_forms(D)), D

    def test_random_discriminants_reduced_primitive_inequivalent(self):
        rng = random.Random(9)
        for _ in range(40):
            k = rng.randint(1, 250000)
            D = -4 * k if rng.random() < 0.5 else -4 * k - 3
            forms = _reduced_forms(D)
            for f in forms:
                assert f.discriminant == D
                # reduced: Gauss reduction leaves it as it is
                assert _reduce(f) == (f, (1, 0, 0, 1))
            assert len(set(forms)) == len(forms)


class TestEquivalent:
    # two forms are equivalent iff they reduce to the same form, which is how
    # `validate_nsystem` checks that an N-system meets every class once
    def test_translated_pair(self):
        assert _reduce((2, 88, 975))[0] == _reduce((2, 0, 7))[0]

    def test_distinct_reduced_classes(self):
        assert _reduce((3, 2, 5))[0] != _reduce((3, -2, 5))[0]

    def test_reflexive(self):
        f = (5, 322, 5187)
        assert _reduce(f)[0] == _reduce(_compose(f, (2, 1, 1, 1)))[0]


class TestBCandidates:
    def test_worked_case(self):
        assert b_candidates(-56, 3, 13) == [10, 16, 62, 68]
        assert jacobi(-56, 3) == 1 and jacobi(-56, 13) == 1

    def test_closed_under_negation(self):
        bs = b_candidates(-56, 3, 13)
        assert {(-b) % 78 for b in bs} == set(bs)

    def test_nonpositive_n_raises(self):
        for p1, p2 in ((-3, 13), (0, 13), (3, -13)):
            with pytest.raises(PreconditionError):
                b_candidates(-56, p1, p2)

    def test_rejects_bad_levels(self):
        for p1, p2 in ((13, 13), (3, 39), (2, 13), (13, 2)):
            with pytest.raises(PreconditionError):
                b_candidates(-56, p1, p2)

    def test_no_solution_raises(self):
        with pytest.raises(NoSolution):
            b_candidates(-8, 3, 13)  # (-8|13) = -1

    def test_counts_match_symbol_patterns(self):
        # N(D) = 4 for the (1,1) pattern, 2 when exactly one symbol is 0
        rng = random.Random(77)
        primes = [3, 5, 7, 11, 13, 17, 19]
        checked = 0
        while checked < 200:
            p1, p2 = rng.sample(primes, 2)
            D = -rng.randint(3, 40000)
            if D % 4 not in (0, 1):
                continue
            l1, l2 = jacobi(D, p1), jacobi(D, p2)
            if l1 == -1 or l2 == -1:
                continue
            try:
                count = len(b_candidates(D, p1, p2))
            except NoSolution:
                count = 0
            if l1 == 1 and l2 == 1:
                assert count == 4, (D, p1, p2)
            elif (l1 == 1 and l2 == 0) or (l1 == 0 and l2 == 1):
                assert count == 2, (D, p1, p2)
            checked += 1


class TestNSystem:
    def test_worked_system_shape(self):
        ns = build_nsystem(-56, 39, 10)
        assert ns.forms[0] == (1, 10, 39)
        assert len(ns.forms) == 4
        validate_nsystem(ns)

    def test_class_multiset_matches_enumeration(self):
        for (D, N, B) in [(-56, 39, 10), (-56, 39, 16), (-260, 39, 26),
                          (-35, 15, 5), (-84, 15, 6)]:
            try:
                ns = build_nsystem(D, N, B)
            except InvalidB:
                continue
            assert {_reduce(f)[0] for f in ns.forms} == set(_reduced_forms(D))

    def test_invalid_b_rejected(self):
        # B = 38 has 38^2 = 1448 != -4 mod 156
        with pytest.raises(InvalidB):
            build_nsystem(-4, 39, 38)

    def test_first_form_is_principal_lift(self):
        for b in b_candidates(-56, 3, 13):
            ns = build_nsystem(-56, 39, b)
            assert ns.forms[0] == (1, b, (b * b + 56) // 4)

    def test_bulk_random_systems_validate(self):
        rng = random.Random(2718)
        from etacm.arith import jacobi
        primes = [3, 5, 7, 11, 13]
        built = 0
        while built < 150:
            p1, p2 = rng.sample(primes, 2)
            N = p1 * p2
            D = -rng.randint(3, 30000)
            if D % 4 not in (0, 1):
                continue
            if jacobi(D, p1) == -1 or jacobi(D, p2) == -1:
                continue
            try:
                bs = b_candidates(D, p1, p2)
            except NoSolution:
                continue
            ns = build_nsystem(D, N, bs[rng.randrange(len(bs))])
            validate_nsystem(ns)  # raises on any broken condition
            built += 1

    def test_reduce_huge_translation(self):
        t = 10**25
        f = _compose((1, 0, 14), (1, t, 0, 1))
        assert abs(f[1]) > 10**24
        g, m = _reduce(f)
        assert g == (1, 0, 14)
        assert _compose(f, m) == g

    def test_singular_values_respect_class_and_residue(self):
        # same class, same B mod 2N: equal w^s values (tolerance 2^-prec+12)
        prec = 192
        ns = build_nsystem(-56, 39, 10)
        differing = 0
        for f in ns.forms:
            b2 = f.b + 2 * f.a * 39  # translate by t = N
            g = QuadraticForm(f.a, b2, (b2 * b2 + 56) // (4 * f.a))
            wa = w_pow_s(UpperHalfPoint.from_form(f.a, f.b, -56, prec + 64), 3, 13, prec)
            wb = w_pow_s(UpperHalfPoint.from_form(g.a, g.b, -56, prec + 64), 3, 13, prec)
            assert log2_dist(wa, wb) <= -prec + 12
            # converse: the residue B + 2a differs, and so does every value
            b3 = f.b + 2 * f.a
            h = QuadraticForm(f.a, b3, (b3 * b3 + 56) // (4 * f.a))
            wc = w_pow_s(UpperHalfPoint.from_form(h.a, h.b, -56, prec + 64), 3, 13, prec)
            if log2_dist(wa, wc) > -prec + 12:
                differing += 1
        assert differing == len(ns.forms)


class TestDiscriminant:
    def test_worked_value(self):
        assert Discriminant(-56).D == -56
        assert class_number(Discriminant(-56)) == 4

    def test_rejects_bad_values(self):
        with pytest.raises(InvalidDiscriminant):
            Discriminant(-6)
        with pytest.raises(InvalidDiscriminant):
            Discriminant(4)
        with pytest.raises(InvalidDiscriminant):
            Discriminant(-5)  # 3 mod 4

    @pytest.mark.parametrize("D", [0, 5, -6, -54])
    @pytest.mark.parametrize("entry", [
        lambda D: find_trace(D, 3593),
        lambda D: b_candidates(D, 3, 13),
        class_number,
        lambda D: build_nsystem(D, 39, 10),
        lambda D: classpoly.compute_class_polynomial(D, 3, 13, 10),
        lambda D: construct_cm_curve(D, 3, 13, 3593),
        lambda D: multiple_root_condition(D, 39, 10),
    ], ids=["find_trace", "b_candidates", "class_number", "build_nsystem",
            "compute_class_polynomial", "construct_cm_curve", "multiple_root_condition"])
    def test_one_rule_at_every_entry_point(self, entry, D):
        with pytest.raises(InvalidDiscriminant):
            entry(D)

    @pytest.mark.parametrize("entry", [
        lambda B: build_nsystem(-56, 39, B),
        lambda B: classpoly.compute_class_polynomial(-56, 3, 13, B),
        lambda B: multiple_root_condition(-56, 39, B),
    ], ids=["build_nsystem", "compute_class_polynomial", "multiple_root_condition"])
    def test_one_b_rule_at_every_entry_point(self, entry):
        # 11^2 + 56 = 177 is not 0 mod 156
        with pytest.raises(InvalidB):
            entry(11)

    @pytest.mark.parametrize("entry", [
        lambda: classpoly.compute_class_polynomial(-8, 3, 13, 2),
        lambda: construct_cm_curve(-8, 3, 13, 3593),
    ], ids=["compute_class_polynomial", "construct_cm_curve"])
    def test_one_integrality_error_at_every_entry_point(self, entry):
        # (-8 | 13) = -1
        with pytest.raises(ConditionsViolated):
            entry()


def _count_checked_forms(monkeypatch) -> list:
    """A list that grows by one for every QuadraticForm built from now on."""
    built = []
    new = QuadraticForm.__new__

    def counting(cls, *args):
        built.append(args)
        return new(cls, *args)

    monkeypatch.setattr(QuadraticForm, "__new__", counting)
    return built


class TestCheckedOnlyAtTheBoundary:
    def test_class_polynomial_builds_none_after_the_nsystem(self, monkeypatch):
        built = _count_checked_forms(monkeypatch)
        marks = []
        nsystem = classpoly.build_nsystem

        def build(*args):
            system = nsystem(*args)
            marks.append(len(built))
            return system

        monkeypatch.setattr(classpoly, "build_nsystem", build)
        H = classpoly.compute_class_polynomial(-56, 3, 13, 10)
        assert H.descending() == [1, -2, -1, 2, -1]
        assert len(marks) == 1 and len(built) == marks[0]

    def test_modular_polynomial_builds_one_per_sample(self, monkeypatch):
        built = _count_checked_forms(monkeypatch)
        attempts = []
        coefficients = modpoly._coefficients

        def attempt(*args):
            attempts.append(args)
            return coefficients(*args)

        monkeypatch.setattr(modpoly, "_coefficients", attempt)
        phi = modpoly.compute_modular_polynomial(3, 5)
        assert attempts and len(built) <= (phi.degJ + 1) * len(attempts)
