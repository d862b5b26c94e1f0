"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (visible with pytest -s or in the captured output).
"""

import random
import time
from contextlib import contextmanager
from math import sqrt

import mpmath
import pytest

from etacm.apcomplex import UpperHalfPoint
from etacm.arith import jacobi
from etacm.atkin import multiple_root_condition
from etacm.classpoly import compute_class_polynomial, involution_transform
from etacm.etafunc import (
    double_eta_quotient,
    eta,
    eta_multiplier,
    s_exponent,
    w_pow_s,
)
from etacm.ffield import FpPolynomial, roots_mod_l
from etacm.intpoly import divmod_monic
from etacm.modpoly import discriminant_in_j, evaluate_in_j_mod_l
from etacm.pipeline import construct_cm_curve, order_check
from etacm.qforms import b_candidates, class_number
from oracles import brute_force_class_count, hilbert_class_polynomial, root_of_unity
from support import log2_dist, mag, moebius, pick_b, point, split_prime, to_mpc, valid_triples


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


WORKED_H = [1, -2, -1, 2, -1]
WORKED_ROOTS = {607, 166, 3428, 2987}
WORKED_DOUBLE_ROOTS = {607: 229, 166: 2979, 3428: 2874, 2987: 2696}


def test_criterion_1_class_polynomial_reproduction():
    with criterion(1, "class polynomial reproduction"):
        start = time.monotonic()
        poly = compute_class_polynomial(-56, 3, 13, 10)
        elapsed = time.monotonic() - start
        assert poly.descending() == WORKED_H
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_2_modular_polynomial_reproduction(phi313_embedded):
    with criterion(2, "modular polynomial reproduction"):
        from etacm.modpoly import compute_modular_polynomial

        start = time.monotonic()
        computed = compute_modular_polynomial(3, 13)
        elapsed = time.monotonic() - start
        assert elapsed < 1800.0, f"took {elapsed:.0f}s"
        assert computed == phi313_embedded
        # spot checks across the table
        assert computed.coeffs[55] == (704, -1, 0)
        assert computed.coeffs[54] == (168568, 39, 0)
        assert computed.coeffs[16] == (-26470898021, -1486, 1)
        assert computed.coeffs[2] == (88, 0, 0)
        assert computed.coeffs[1] == (-16, 0, 0)
        assert computed.coeffs[0] == (1, 0, 0)


def test_criterion_3_mod_l_factorization():
    with criterion(3, "roots of H mod 3593"):
        poly = compute_class_polynomial(-56, 3, 13, 10)
        counts = roots_mod_l(FpPolynomial.make(poly.coeffs, 3593))
        assert set(counts.elements()) == WORKED_ROOTS
        assert sum(counts.values()) == 4


def test_criterion_4_double_root_reproduction(phi313_embedded):
    with criterion(4, "double-root reproduction"):
        for wbar, jroot in WORKED_DOUBLE_ROOTS.items():
            got = evaluate_in_j_mod_l(phi313_embedded, wbar, 3593).monic()
            want = FpPolynomial.make([jroot * jroot, -2 * jroot, 1], 3593)
            assert got == want, (wbar, jroot)


def test_criterion_5_discriminant_divisibility(phi313_embedded):
    with criterion(5, "discriminant divisibility"):
        disc = discriminant_in_j(phi313_embedded)
        _, rem = divmod_monic(disc, [-1, 2, -1, -2, 1])
        assert rem == []


def test_criterion_6_multiple_root_predicate_end_to_end():
    with criterion(6, "multiple-root predicate and shortcut"):
        sol = multiple_root_condition(-56, 39, 10)
        assert (sol.u, sol.v) == (10, 1)
        assert multiple_root_condition(-56, 39, 16) is None
        curve, cert, used_shortcut = construct_cm_curve(-56, 3, 13, 3593, B=10)
        assert used_shortcut is True
        assert cert.order in (3588, 3600)
        # cert.checks points were drawn, and enough of them escaped
        # gcd(3588, 3600) = 12 to push the false-accept bound below 2^-64
        assert not cert.ambiguous
        assert (4 * sqrt(3593) / (3594 - 2 * sqrt(3593))) ** cert.checks <= 2.0 ** -64
        assert order_check(curve, cert.order, random.Random(991), trials=20)


def test_criterion_7a_conjugation_symmetry():
    with criterion(7, "(a) H_B = H_{-B} bit-exact, 20 random"):
        rng = random.Random(70)
        for D, p1, p2 in valid_triples(rng, 20, 3, 12000):
            n2 = 2 * p1 * p2
            b = pick_b(rng, D, p1, p2)
            assert (compute_class_polynomial(D, p1, p2, b).coeffs
                    == compute_class_polynomial(D, p1, p2, (n2 - b) % n2).coeffs), (D, p1, p2, b)


def test_criterion_7b_involution_transform_consistency():
    with criterion(7, "(b) involution transform matches direct, 10 instances"):
        rng = random.Random(71)
        done = 0
        while done < 10:
            (D, p1, p2), = valid_triples(rng, 1, 3, 6000)
            if jacobi(D, p1) != 1 or jacobi(D, p2) != 1:
                continue
            b = pick_b(rng, D, p1, p2)
            t = involution_transform(compute_class_polynomial(D, p1, p2, b))
            direct = compute_class_polynomial(D, p1, p2, t.B)
            assert t.coeffs == direct.coeffs, (D, p1, p2, b)
            done += 1


def test_criterion_7c_eta_transformation_residuals():
    with criterion(7, "(c) eta transformation residual on 1000 samples"):
        rng = random.Random(72)
        prec = 160
        hp = prec + 64
        for _ in range(1000):
            a, b, c, d = 1, 0, 0, 1
            for _ in range(6):
                t = rng.randint(-3, 3)
                a, b = a + t * c, b + t * d
                a, b, c, d = -c, -d, a, b
            if rng.random() < 0.5:
                a, b, c, d = -a, -b, -c, -d
            if max(abs(a), abs(b), abs(c), abs(d)) > 10**6:
                continue
            m = (a, b, c, d)
            z = point(rng.uniform(-0.5, 0.5), rng.uniform(0.87, 3.0), hp)
            lhs = eta(UpperHalfPoint(moebius(m, z.value, hp)), prec)
            c, d, sign, k = eta_multiplier(m)
            with mpmath.workprec(hp):
                root = mpmath.sqrt(to_mpc(z.value) * c + d)
                rhs = root_of_unity(k, hp) * sign * root * to_mpc(eta(z, prec))
            assert log2_dist(lhs, rhs) <= -prec + 12, m


def test_criterion_7d_quotient_identities():
    with criterion(7, "(d) Atkin-Lehner and W_p1 identities"):
        rng = random.Random(73)
        prec = 192
        for (p1, p2) in [(3, 5), (3, 13), (5, 7)]:
            N = p1 * p2
            s = s_exponent(p1, p2)
            eps = jacobi(p1, p2) ** s
            y = -1
            while (1 - p2 * y) % p1 or y % 2 == 0:
                y -= 1
            x = (1 - p2 * y) // p1
            wp1 = (-p1, N, -y, -p1 * x)
            for _ in range(5):
                z = point(rng.uniform(-0.5, 0.5), rng.uniform(0.87, 2.2), prec + 64)
                wn = UpperHalfPoint(moebius((0, -N, 1, 0), z.value, prec + 64))
                a = double_eta_quotient(z, p1, p2, prec)
                b = double_eta_quotient(wn, p1, p2, prec)
                assert log2_dist(a, b) <= max(mag(a), 0) - prec + 12
                wz = UpperHalfPoint(moebius(wp1, z.value, prec + 64))
                with mpmath.workprec(4 * prec):
                    prod = to_mpc(w_pow_s(wz, p1, p2, prec)) * to_mpc(w_pow_s(z, p1, p2, prec))
                assert log2_dist(prod, eps) <= -prec + 16


def test_criterion_7e_vacuity_bound():
    with criterion(7, "(e) no solutions for D <= -4N on 10^4 pairs"):
        rng = random.Random(74)
        for _ in range(10**4):
            N = rng.choice([15, 21, 33, 35, 39, 55, 65, 91, 143])
            B = rng.randrange(2 * N)
            k = rng.randint(N + 1, 50 * N)
            D = B * B - 4 * N * k
            if D > -4 * N:
                continue
            assert multiple_root_condition(D, N, B) is None, (D, N, B)


def test_criterion_7f_all_or_none_multiplicity(phi_pool):
    with criterion(7, "(f) all-or-none multiplicity across roots, 10 instances"):
        rng = random.Random(75)
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
            degenerate = False
            for wbar in roots:
                slice_ = evaluate_in_j_mod_l(phi, wbar, ell)
                if slice_.degree < 1:
                    degenerate = True
                    break
                from etacm.ffield import has_multiple_root

                flags.add(has_multiple_root(slice_))
            if degenerate:
                continue
            assert len(flags) == 1, (D, p1, p2, b, ell, flags)
            done += 1


def test_criterion_7g_four_linear_factors(phi313_embedded):
    with criterion(7, "(g) at least four linear factors at the worked-example J values"):
        ell = 3593
        for jbar in WORKED_DOUBLE_ROOTS.values():
            coeffs = []
            for kx in range(phi313_embedded.degX + 1):
                row = phi313_embedded.coeffs[kx]
                val = sum(c * pow(jbar, kj, ell) for kj, c in enumerate(row)) % ell
                coeffs.append(val)
            f = FpPolynomial.make(coeffs, ell)
            counts = roots_mod_l(f)
            assert sum(counts.values()) >= 4, (jbar, counts)


def test_criterion_8_oracle_equivalence(phi_pool):
    with criterion(8, "oracle equivalence (class counts; Hilbert root containment)"):
        for D in range(-3, -401, -1):
            if D % 4 in (0, 1):
                assert class_number(D) == brute_force_class_count(D), D
        # pipeline J-roots contain the Hilbert class polynomial roots mod q
        for (D, p1, p2) in [(-56, 3, 13), (-260, 3, 13), (-404, 3, 7),
                            (-2044, 5, 7), (-3059, 3, 13), (-3996, 5, 7)]:
            q = split_prime(D, lmin=900, avoid=(p1, p2))
            assert q is not None, D
            phi = phi_pool(p1, p2)
            H = compute_class_polynomial(D, p1, p2, b_candidates(D, p1, p2)[0])
            collected = set()
            for wbar in roots_mod_l(FpPolynomial.make(H.coeffs, q)):
                jpoly = evaluate_in_j_mod_l(phi, wbar, q)
                if jpoly.degree >= 1:
                    collected |= set(roots_mod_l(jpoly))
            hilbert = hilbert_class_polynomial(D)
            assert len(hilbert) - 1 == class_number(D)
            hroots = set(roots_mod_l(FpPolynomial.make(hilbert, q)))
            assert hroots, (D, q)
            assert hroots <= collected, (D, p1, p2, q)
