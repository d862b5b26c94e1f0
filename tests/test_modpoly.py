import random
import time
from collections import Counter
from fractions import Fraction

import mpmath
import pytest

from etacm.apcomplex import ApComplex, UpperHalfPoint
from etacm.errors import (
    CoefficientParseFailure,
    InterpolationSingular,
    MalformedHeader,
    PrecisionExhausted,
    PreconditionError,
    WrongDegree,
)
from etacm.etafunc import j_invariant, j_invariant_with_err, w_pow_s
from etacm.ffield import FpPolynomial
from etacm.intpoly import divmod_monic
from etacm.modpoly import (
    ModularPolynomial,
    compute_modular_polynomial,
    coset_representatives,
    deserialize,
    discriminant_in_j,
    evaluate_in_j_mod_l,
    load_embedded,
    serialize,
)
from oracles import eta_at_quadratic_point
from support import coefficients, hecke_roots, moebius, point, to_mpc


def to_mp(v: ApComplex, dps: int = 60) -> mpmath.mpc:
    with mpmath.workdps(dps):
        return +to_mpc(v)


def eval_phi(phi: ModularPolynomial, w, J):
    val = mpmath.mpc(0)
    scale = mpmath.mpf(0)
    for kx in range(phi.degX, -1, -1):
        term = mpmath.mpc(0)
        for c in reversed(phi.coeffs[kx]):
            term = term * J + c
        val = val * w + term
        scale = max(scale, abs(term) * abs(w) ** kx)
    return val, scale


def assert_defining_property(phi: ModularPolynomial, p1: int, p2: int) -> None:
    """Phi(w^s(z), J(z)) vanishes to 380 bits at three random points z."""
    rng = random.Random(p1 * 100 + p2)
    with mpmath.workdps(120):
        for _ in range(3):
            z = point(rng.uniform(-0.45, 0.45),
                      rng.uniform(0.9, 1.7), 640)
            w = to_mp(w_pow_s(z, p1, p2, 512), 120)
            J = to_mp(j_invariant(z, 512), 120)
            val, scale = eval_phi(phi, w, J)
            assert abs(val) / scale < mpmath.mpf(2) ** -380


PAIRS = [(3, 5), (3, 7), (3, 13), (5, 7), (5, 13)]
SWAPPED = [(p2, p1) for p1, p2 in PAIRS]


def mirror_by_top_rows(p1: int, p2: int) -> list[int]:
    """For each coset of `coset_representatives(p1, p2)`, the index of the
    one whose top row is (a, -b) in P^1(Z/N), found by search."""
    n = p1 * p2
    reps = coset_representatives(p1, p2)
    out = []
    for a, b, _, _ in reps:
        hits = [j for j, (a2, b2, _, _) in enumerate(reps) if (a2 * b + a * b2) % n == 0]
        assert len(hits) == 1
        out.append(hits[0])
    return out


class TestCosetRepresentatives:
    def test_counts(self):
        assert len(coset_representatives(3, 13)) == 56
        assert len(coset_representatives(13, 3)) == 56
        assert len(coset_representatives(3, 5)) == 24

    def test_pairwise_distinct_cosets(self):
        n = 39
        for p1, p2 in ((3, 13), (13, 3)):
            reps = coset_representatives(p1, p2)
            for g in reps:
                assert g[0] * g[3] - g[1] * g[2] == 1
            for i in range(len(reps)):
                a1, b1, _, _ = reps[i]
                for j in range(i + 1, len(reps)):
                    a2, b2, _, _ = reps[j]
                    # same coset of Gamma^0(N) iff a2*b1 = a1*b2 mod N
                    assert (a2 * b1 - a1 * b2) % n, (reps[i], reps[j])

    @pytest.mark.parametrize("p1,p2", PAIRS)
    def test_mirror_cosets_have_conjugate_values(self, p1, p2):
        # the identity behind evaluating one coset per mirror pair, checked
        # on every coset at 128 bits: at the sample z_0 = iy, the coset of top
        # row (a, -b) holds the conjugate of the value at (a, b), and the 4
        # cosets that are their own mirror hold real values
        import etacm.modpoly as mp
        from etacm.qforms import _compose

        mirror = mirror_by_top_rows(p1, p2)
        assert all(mirror[j] == i for i, j in enumerate(mirror))
        assert sum(i == j for i, j in enumerate(mirror)) == 4
        f = mp._sample_form(0)
        forms = [_compose(f, (d, -b, -c, a)) for a, b, c, d in coset_representatives(p1, p2)]
        roots = [(to_mpc(r), err) for r, err in hecke_roots(forms, p1, p2, 128)]
        with mpmath.workprec(512):
            for (r, err), j in zip(roots, mirror):
                rm, err_m = roots[j]
                assert abs(r - mpmath.conj(rm)) <= mpmath.mpf(2) ** err + mpmath.mpf(2) ** err_m
            for i in (i for i, j in enumerate(mirror) if i == j):
                r, err = roots[i]
                assert abs(r.imag) <= mpmath.mpf(2) ** err

    @pytest.mark.parametrize("p1,p2", [(3, 5), (5, 13), (13, 5)])
    def test_conjugates_lie_within_their_bounds(self, p1, p2):
        # at the sample z_0 = 11i/10, w^s of one coset of each mirror pair,
        # from the eta values at the Hecke points, lies within its certified
        # bound of w^s(g z_0) from mpmath's eta at the four points g z_0 / d
        # (`oracles.eta_at_quadratic_point`)
        import etacm.modpoly as mp
        from etacm.classpoly import _one_per_pair
        from etacm.etafunc import s_exponent, w_pow_s_at_hecke_points

        forms, points, quotients, _ = mp._conjugate_plan(p1, p2, 0)
        y0 = Fraction(11, 10)
        assert forms == [(100, 0, 121)]
        s = s_exponent(p1, p2)
        values = w_pow_s_at_hecke_points(points, quotients, s, 64)
        kept = _one_per_pair(mp._mirror(p1, p2))[0]
        cosets = coset_representatives(p1, p2)
        assert len(values) == len(kept) == ((p1 + 1) * (p2 + 1) + 4) // 2
        for i, (value, err) in zip(kept, values):
            a, b, c, d = cosets[i]
            den = (c * y0) ** 2 + d * d
            x, y = (b * d + a * c * y0 * y0) / den, y0 / den  # g z_0
            e1, e2, e0, eN = (eta_at_quadratic_point(x / n, (y / n) ** 2, 400)
                              for n in (p1, p2, 1, p1 * p2))
            with mpmath.workprec(400):
                want = (e1 * e2 / (e0 * eN)) ** s
                assert abs(to_mpc(value) - want) <= mpmath.mpf(2) ** err

    def test_rejects_bad_levels(self):
        # an equal pair, a composite and an even prime
        for p1, p2 in ((3, 3), (3, 15), (2, 15), (5, 2)):
            with pytest.raises(PreconditionError):
                coset_representatives(p1, p2)

    def test_rejects_j_degree_above_the_cap(self):
        # Phi_{3,11} has J-degree 10 > MAX_DEGJ; refused before any sample
        import etacm.modpoly as mp

        assert mp._degrees(3, 11)[2] > mp.MAX_DEGJ
        with pytest.raises(PreconditionError):
            compute_modular_polynomial(3, 11)


class TestComputeModularPolynomial:
    def test_worked_example_coefficients(self, phi313_computed):
        phi = phi313_computed
        assert (phi.degX, phi.degJ, phi.s) == (56, 2, 1)
        assert phi.coeffs[56] == (1, 0, 0)
        assert phi.coeffs[55] == (704, -1, 0)
        assert phi.coeffs[54] == (168568, 39, 0)
        assert phi.coeffs[16] == (-26470898021, -1486, 1)
        assert phi.coeffs[2] == (88, 0, 0)
        assert phi.coeffs[1] == (-16, 0, 0)
        assert phi.coeffs[0] == (1, 0, 0)

    def test_matches_embedded_everywhere(self, phi313_computed, phi313_embedded):
        assert phi313_computed == phi313_embedded

    @pytest.mark.parametrize("p1,p2", [(5, 3), (7, 3), (13, 3), (7, 5)])
    def test_either_order_of_the_pair(self, phi_pool, p1, p2):
        # w is symmetric in p1 and p2: the swapped pair has the same Phi, so
        # its cosets must pair by conjugation in the caller's order too
        phi = compute_modular_polynomial(p1, p2, max_prec=2048)
        assert (phi.p1, phi.p2) == (p1, p2)
        assert phi.coeffs == phi_pool(p2, p1).coeffs
        if (p1, p2) == (13, 3):
            assert phi.coeffs == load_embedded(3, 13).coeffs

    def test_defining_property(self, phi313_embedded):
        rng = random.Random(19)
        phi = phi313_embedded
        with mpmath.workdps(120):
            for _ in range(20):
                z = point(rng.uniform(-0.45, 0.45),
                          rng.uniform(0.85, 1.9), 640)
                w = to_mp(w_pow_s(z, 3, 13, 512), 120)
                J = to_mp(j_invariant(z, 512), 120)
                val, scale = eval_phi(phi, w, J)
                assert abs(val) / scale < mpmath.mpf(2) ** -400

    def test_two_j_roots_are_involution_pair(self, phi313_embedded):
        # Phi(w^s(tau), J) = 0 has roots J(tau) and J(W_N tau)
        rng = random.Random(29)
        phi = phi313_embedded
        with mpmath.workdps(100):
            for _ in range(6):
                z = point(rng.uniform(-0.45, 0.45),
                          rng.uniform(0.9, 1.6), 512)
                wn = UpperHalfPoint(moebius((0, -39, 1, 0), z.value, 512))
                w = to_mp(w_pow_s(z, 3, 13, 448), 100)
                j1 = to_mp(j_invariant(z, 448), 100)
                j2 = to_mp(j_invariant(wn, 448), 100)
                c = [mpmath.mpc(0)] * 3
                for kj in range(3):
                    acc = mpmath.mpc(0)
                    for kx in range(phi.degX, -1, -1):
                        acc = acc * w + phi.coeffs[kx][kj]
                    c[kj] = acc
                # compare symmetric functions of the roots
                sum_roots = -c[1] / c[2]
                prod_roots = c[0] / c[2]
                mag = 1 + abs(j1) + abs(j2) + abs(j1 * j2)
                assert abs(sum_roots - (j1 + j2)) / mag < mpmath.mpf(2) ** -300
                assert abs(prod_roots - j1 * j2) / mag < mpmath.mpf(2) ** -300

    @pytest.mark.parametrize("p1,p2", [(3, 7), (5, 7), (5, 13)])
    def test_defining_property_other_pairs(self, phi_pool, p1, p2):
        phi = phi_pool(p1, p2)
        assert phi.degX == (p1 + 1) * (p2 + 1)
        assert_defining_property(phi, p1, p2)

    @pytest.mark.parametrize("p1,p2", [(3, 19), (7, 13)])
    def test_defining_property_above_the_cap(self, monkeypatch, p1, p2):
        # J-degree 6, with the cap raised: 80 and 112 cosets, each with the
        # root of unity of its Hecke points (`etafunc.w_at_hecke_points`)
        import etacm.modpoly as mp

        monkeypatch.setattr(mp, "MAX_DEGJ", 6)
        phi = compute_modular_polynomial(p1, p2)
        assert (phi.degX, phi.degJ) == ((p1 + 1) * (p2 + 1), 6)
        assert_defining_property(phi, p1, p2)

    @pytest.mark.parametrize("p1, p2, start", [(3, 5, None), (3, 7, None), (3, 13, None),
                                               (5, 7, None), (5, 13, 136)])
    def test_precision_attempts(self, monkeypatch, p1, p2, start):
        # the gate accepts the 64-bit attempt of the four small pairs; Phi_{5,13}
        # needs exactly one more attempt, which starts no higher than it has
        # been: the certified bounds are no looser
        import etacm.modpoly as mp

        calls = []
        real = mp._coefficients
        monkeypatch.setattr(mp, "_coefficients", lambda *a: calls.append(a[4]) or real(*a))
        compute_modular_polynomial(p1, p2)
        if start is None:
            assert calls == [64]
        else:
            assert calls[0] == 64 and len(calls) == 2 and calls[1] <= start

    def test_small_pair_and_recompute_stability(self, monkeypatch):
        # a raised start (the 64-bit attempt rejected, the doubling started
        # at 1200 bits) gives the same Phi
        import etacm.modpoly as mp

        a = compute_modular_polynomial(3, 5)
        calls = []
        real_coefficients, real_gate = mp._coefficients, mp.round_certified
        monkeypatch.setattr(mp, "_coefficients",
                            lambda *a: calls.append(a[4]) or real_coefficients(*a))
        monkeypatch.setattr(mp, "round_certified",
                            lambda f: None if len(calls) == 1 else real_gate(f))
        monkeypatch.setattr(mp, "initial_precision", lambda *a: 1200)
        b = compute_modular_polynomial(3, 5)
        assert calls == [64, 1200]
        assert a == b
        assert a.degX == 24 and a.degJ == 2 and a.s == 3
        assert a.coeffs[24] == (1, 0, 0)

    def test_doubling_recovers_from_starved_start(self, monkeypatch, phi_pool):
        # Phi_{5,13} needs more than 64 bits: with the start also starved to
        # 64 bits, the gate rejects both 64-bit attempts and the doubling
        # still converges to the same integers
        import etacm.modpoly as mp

        want = phi_pool(5, 13)
        calls = []
        real = mp._coefficients
        monkeypatch.setattr(mp, "_coefficients", lambda *a: calls.append(a[4]) or real(*a))
        monkeypatch.setattr(mp, "initial_precision", lambda *a: 64)
        assert compute_modular_polynomial(5, 13) == want
        assert calls[:2] == [64, 64] and len(calls) > 2  # the gate rejected 64 bits

    def test_result_passes_the_gate(self, monkeypatch):
        # every row of the result is one that round_certified accepted, from
        # one attempt in which every row's residual and bound are below
        # RESIDUAL_LIMIT
        import etacm.classpoly as cp
        import etacm.modpoly as mp

        attempts = []
        real_coefficients, real_gate = mp._coefficients, mp.round_certified
        monkeypatch.setattr(mp, "_coefficients",
                            lambda *a: attempts.append([]) or real_coefficients(*a))
        monkeypatch.setattr(mp, "round_certified",
                            lambda f: attempts[-1].append((f, real_gate(f))) or attempts[-1][-1][1])
        for p1, p2 in [(3, 5), (3, 7), (5, 7)]:
            attempts.clear()
            phi = compute_modular_polynomial(p1, p2)
            last = attempts[-1]
            assert [tuple(ints) for _, ints in last] == list(phi.coeffs)
            for f, _ in last:
                _, residual = cp.round_to_integers(f)
                assert residual < cp.RESIDUAL_LIMIT
                assert 2.0 ** f.err < cp.RESIDUAL_LIMIT
            assert all(any(ints is None for _, ints in a) for a in attempts[:-1])

    @pytest.mark.parametrize("p1,p2", [(3, 5), (3, 13)])
    def test_certified_bound_covers_the_actual_error(self, monkeypatch, phi_pool, p1, p2):
        # at the 64-bit attempt and at a forced 160-bit one, each coefficient
        # of each X-row lies within its row's certified bound of the exact Phi
        import etacm.modpoly as mp

        want = phi_pool(p1, p2)
        attempts = []
        real, real_gate = mp._coefficients, mp.round_certified
        monkeypatch.setattr(mp, "_coefficients",
                            lambda *a: attempts.append((a[4], real(*a))) or attempts[-1][1])
        monkeypatch.setattr(mp, "round_certified",
                            lambda f: None if len(attempts) == 1 else real_gate(f))
        monkeypatch.setattr(mp, "initial_precision", lambda *a: 160)
        exact = compute_modular_polynomial(p1, p2)
        assert exact == want and [prec for prec, _ in attempts] == [64, 160]
        for _, rows in attempts:
            for f, ints in zip(rows, exact.coeffs):
                for c, n in zip(coefficients(f), ints):
                    with mpmath.workdps(400):
                        actual = abs(c - n)
                    assert actual == 0 or mpmath.log(actual, 2) <= f.err

    @pytest.mark.parametrize("prec", [64, 149])
    def test_nodes_lie_within_their_certified_bounds(self, monkeypatch, prec):
        # each node J(z_m) of Phi_{5,13} lies within its own certified bound
        # of 1728 kleinj(z_m) at prec + 300 bits, and the interpolation is
        # handed the largest of those bounds
        import etacm.modpoly as mp

        errs = []
        for m in range(5):
            f = mp._sample_form(m)
            value, err = j_invariant_with_err(f, prec)
            with mpmath.workprec(prec + 300):
                z = mpmath.mpc(0, mpmath.sqrt(-f.discriminant)) / (2 * f.a)
                assert abs(to_mpc(value) - 1728 * mpmath.kleinj(z)) <= mpmath.mpf(2) ** err
            errs.append(err)
        seen = []
        real = mp._lagrange
        monkeypatch.setattr(mp, "_lagrange",
                            lambda nodes, err, *a: seen.append(err) or real(nodes, err, *a))
        mp._coefficients(5, 13, 4, mp._conjugate_plan(5, 13, 4), prec)
        assert seen == [max(errs)]

    def test_inflated_leaf_bounds_exhaust_precision(self, monkeypatch):
        # the accepted bound is the one the trees certify: inflating the leaf
        # bounds of the sample points (the trees with paired leaves), or else
        # those of the Lagrange basis (the trees without), by 2^1000 must push
        # Phi past max_prec
        import etacm.modpoly as mp

        real_tree = mp.product_tree
        for samples in (True, False):
            def inflated(roots, paired, wp, samples=samples):
                if any(paired) == samples:
                    roots = [(r, e + 1000) for r, e in roots]
                return real_tree(roots, paired, wp)

            with monkeypatch.context() as patch:
                patch.setattr(mp, "product_tree", inflated)
                with pytest.raises(PrecisionExhausted):
                    compute_modular_polynomial(3, 5, max_prec=1024)

    def test_one_evaluation_per_mirror_pair(self, monkeypatch):
        # Phi_{3,5} takes one attempt of degJ + 1 = 3 sample points, and each
        # evaluates w^s at one coset of each mirror pair, (psi + 4)/2 = 14 of
        # the 24: 42 conjugates, not 72
        import etacm.modpoly as mp

        for p1, p2 in PAIRS + SWAPPED:
            assert mp._mirror(p1, p2) == mirror_by_top_rows(p1, p2)
        calls = []
        real = mp.w_pow_s_at_hecke_points

        def counting(points, quotients, s, prec):
            values = real(points, quotients, s, prec)
            calls.extend([prec] * len(values))
            return values

        monkeypatch.setattr(mp, "w_pow_s_at_hecke_points", counting)
        compute_modular_polynomial(3, 5)
        assert calls == [64] * 3 * 14

    def test_sample_point_sums_one_series_per_class(self, monkeypatch):
        # the 4 psi(N) eta arguments g z / d at one sample point are eta
        # transforms of 1 + (p1 + 1) + (p2 + 1) + psi(N) = 75 Hecke points
        # (alpha z + beta) / delta; the sample lies on the imaginary axis, so
        # mirror-image classes [A, +-B, C] share one series, which leaves at
        # most 42 series per point, and at most 42 transforms other than the
        # identity.  Each sample's kept cosets, evaluated alone, give exactly
        # its slice of the one batch that Phi_{3,13} evaluates per attempt
        import etacm.etafunc as ef
        import etacm.modpoly as mp
        from etacm.classpoly import _one_per_pair
        from etacm.qforms import _compose

        forms, points, quotients, paired = mp._conjugate_plan(3, 13, 2)
        batch = ef.w_pow_s_at_hecke_points(points, quotients, ef.s_exponent(3, 13), 64)
        cosets = coset_representatives(3, 13)
        kept = [cosets[i] for i in _one_per_pair(mp._mirror(3, 13))[0]]
        n = len(kept)
        assert len(paired) == n == (56 + 4) // 2 and len(batch) == 3 * n

        series, transforms, per_point = [0], [0], []
        real_series, real_transform = ef._eta_series, ef._eta_transform

        def counting_series(*a):
            series[0] += 1
            return real_series(*a)

        def transform(series, rel, f, m, wp, units):
            transforms[0] += m != ef.IDENTITY
            return real_transform(series, rel, f, m, wp, units)

        monkeypatch.setattr(ef, "_eta_series", counting_series)
        monkeypatch.setattr(ef, "_eta_transform", transform)
        for m, f in enumerate(forms):
            before = series[0], transforms[0]
            values = hecke_roots([_compose(f, (d, -b, -c, a)) for a, b, c, d in kept], 3, 13, 64)
            per_point.append((series[0] - before[0], transforms[0] - before[1]))
            assert values == batch[m * n:(m + 1) * n]
        assert all(0 < k <= 42 and t <= 42 for k, t in per_point)

    @pytest.mark.parametrize("p1, p2, splits", [(3, 5, 14), (3, 7, 18), (3, 13, 30),
                                                (5, 7, 26), (5, 13, 44)])
    def test_one_split_per_coset_and_one_batch_per_attempt(self, monkeypatch, p1, p2, splits):
        # every sample point reduces each kept coset's form back to its sample
        # form with the coset's own matrix, so each kept coset's Hecke split
        # is worked out once per Phi (`etafunc.hecke_plan`), not once per
        # sample; and each attempt evaluates all its conjugates in one call
        import etacm.etafunc as ef
        import etacm.modpoly as mp

        counts = Counter()

        def counting(key, fn):
            def wrapper(*a):
                counts[key] += 1
                return fn(*a)
            return wrapper

        monkeypatch.setattr(ef, "w_at_hecke_points", counting("split", ef.w_at_hecke_points))
        monkeypatch.setattr(mp, "w_pow_s_at_hecke_points",
                            counting("batch", mp.w_pow_s_at_hecke_points))
        monkeypatch.setattr(mp, "_coefficients", counting("attempt", mp._coefficients))
        compute_modular_polynomial(p1, p2)
        assert counts["split"] == splits == ((p1 + 1) * (p2 + 1) + 4) // 2
        assert counts["batch"] == counts["attempt"] == (2 if (p1, p2) == (5, 13) else 1)

    def test_duplicate_samples_raise(self, monkeypatch):
        # coincident nodes cannot be interpolated
        import etacm.modpoly as mp

        real_sample = mp._sample_form
        monkeypatch.setattr(mp, "_sample_form", lambda m: real_sample(0))
        with pytest.raises(InterpolationSingular):
            compute_modular_polynomial(3, 5)

    def test_sample_j_values_real_and_increasing(self):
        import etacm.modpoly as mp

        js = [to_mpc(j_invariant_with_err(mp._sample_form(m), 256)[0]) for m in range(9)]
        assert all(abs(j.imag) < mpmath.mpf(2) ** -150 for j in js)
        assert 1728 < js[0].real
        assert all(a.real < b.real for a, b in zip(js, js[1:]))

    def test_rejects_unsupported(self):
        with pytest.raises(PreconditionError):
            compute_modular_polynomial(3, 3)
        with pytest.raises(PreconditionError):
            compute_modular_polynomial(2, 13)
        with pytest.raises(PreconditionError):
            compute_modular_polynomial(3, 11)  # degJ = 10


class TestEvaluateInJ:
    @pytest.mark.parametrize("wbar,jroot", [(607, 229), (166, 2979),
                                            (3428, 2874), (2987, 2696)])
    def test_worked_example_double_roots(self, phi313_embedded, wbar, jroot):
        f = evaluate_in_j_mod_l(phi313_embedded, wbar, 3593)
        want = FpPolynomial.make([jroot * jroot, -2 * jroot, 1], 3593)
        assert f.monic() == want

    def test_wbar_zero_leaves_constant_row(self, phi313_embedded):
        f = evaluate_in_j_mod_l(phi313_embedded, 0, 3593)
        assert f.coeffs == (1,)


class TestDiscriminantInJ:
    def test_class_polynomial_divides(self, phi313_embedded):
        disc = discriminant_in_j(phi313_embedded)
        _, rem = divmod_monic(disc, [-1, 2, -1, -2, 1])
        assert rem == []

    def test_companion_does_not_divide(self, phi313_embedded):
        disc = discriminant_in_j(phi313_embedded)
        _, rem = divmod_monic(disc, [-1, 2, 1, -2, 1])
        assert rem != []

    def test_degenerate_quadratic(self):
        fake = ModularPolynomial(3, 13, 1, 1, 2, ((0, 0, 1), (0, 0, 1)))
        assert discriminant_in_j(fake) == []  # c1 = c0 = 0 -> zero polynomial

    def test_wrong_degree_rejected(self, phi313_embedded):
        fake = ModularPolynomial(3, 13, 1, 1, 1, ((1, 0), (1, 0)))
        with pytest.raises(WrongDegree):
            discriminant_in_j(fake)


class TestSerialization:
    def test_round_trip(self, phi313_embedded):
        assert deserialize(serialize(phi313_embedded)) == phi313_embedded

    def test_header_line(self, phi313_embedded):
        head = serialize(phi313_embedded).split(b"\n", 1)[0]
        assert head == b"MODPOLY v1 p1=3 p2=13 s=1 degX=56 degJ=2"

    def test_sorted_nonzero_entries(self, phi313_embedded):
        lines = serialize(phi313_embedded).decode().strip().split("\n")[1:]
        keys = []
        for ln in lines:
            kx, kj, c = ln.split()
            assert int(c) != 0
            keys.append((-int(kx), int(kj)))
        assert keys == sorted(keys)

    def test_malformed_header(self):
        with pytest.raises(MalformedHeader):
            deserialize(b"MODPOLY v2 p1=3 p2=13 s=1 degX=56 degJ=2\n")
        with pytest.raises(MalformedHeader):
            deserialize(b"")
        with pytest.raises(MalformedHeader):
            deserialize(b"MODPOLY v1 p1=3 p2=13 s=one degX=56 degJ=2\n")

    def test_bad_coefficient_lines(self):
        good = b"MODPOLY v1 p1=3 p2=13 s=1 degX=56 degJ=2\n"
        with pytest.raises(CoefficientParseFailure):
            deserialize(good + b"1 2\n")
        with pytest.raises(CoefficientParseFailure):
            deserialize(good + b"90 0 5\n")
        with pytest.raises(CoefficientParseFailure):
            deserialize(good + b"1 0 x\n")

    @pytest.mark.parametrize("head", [
        b"MODPOLY v1 p1=3 p2=13 s=7 degX=2 degJ=0\n2 0 1\n2 0 5\n",  # s, degX, degJ
        b"MODPOLY v1 p1=3 p2=13 s=1 degX=-1 degJ=2\n",
        b"MODPOLY v1 p1=3 p2=13 s=1 degX=55 degJ=2\n",
        b"MODPOLY v1 p1=3 p2=13 s=1 degX=56 degJ=3\n",
        b"MODPOLY v1 p1=3 p2=13 s=2 degX=56 degJ=2\n",
        b"MODPOLY v1 p1=9 p2=13 s=1 degX=56 degJ=2\n",
        b"MODPOLY v1 p1=13 p2=13 s=1 degX=196 degJ=12\n",
    ])
    def test_header_inconsistent_with_the_primes(self, head):
        with pytest.raises(MalformedHeader):
            deserialize(head + b"56 0 1\n")

    @pytest.mark.parametrize("head", [
        # consistent with its primes, but a dense table of about 8.7e10 slots
        b"MODPOLY v1 p1=1009 p2=1013 s=1 degX=1024140 degJ=85008\n",
        # primes too large to factor N = p1 p2 by trial division
        b"MODPOLY v1 p1=1000000007 p2=1000000009 s=1 degX=1 degJ=1\n",
    ])
    def test_large_header_is_rejected_at_once(self, head):
        start = time.monotonic()
        with pytest.raises(MalformedHeader):
            deserialize(head)
        assert time.monotonic() - start < 1.0

    def test_repeated_coefficient(self):
        with pytest.raises(CoefficientParseFailure):
            deserialize(b"MODPOLY v1 p1=3 p2=13 s=1 degX=56 degJ=2\n56 0 1\n0 0 1\n0 0 5\n")

    @pytest.mark.parametrize("row", [b"", b"56 0 2\n", b"56 0 1\n56 1 3\n"])
    def test_leading_row_not_one(self, row):
        with pytest.raises(CoefficientParseFailure):
            deserialize(b"MODPOLY v1 p1=3 p2=13 s=1 degX=56 degJ=2\n" + row + b"0 0 1\n")

    def test_embedded_resource_loads(self, phi313_embedded):
        assert phi313_embedded.degX == 56
        assert phi313_embedded.coeffs[3] == (600, -1, 0)

    def test_fuzzed_input_raises_cleanly(self):
        from etacm.errors import EtaCMError

        rng = random.Random(1234)
        alphabet = b"MODPLY v1 p=3\n 0123456789-=xk\x00\xff"
        good = b"MODPOLY v1 p1=3 p2=13 s=1 degX=56 degJ=2\n"
        for _ in range(200):
            blob = bytes(rng.choice(alphabet) for _ in range(rng.randint(0, 60)))
            if rng.random() < 0.5:
                blob = good + blob
            try:
                deserialize(blob)
            except EtaCMError:
                pass
            except UnicodeDecodeError:
                pass  # non-ASCII input is rejected by the codec


class TestIntPolyAgainstSympy:
    def test_divmod_monic_matches_sympy(self):
        import sympy
        from etacm.intpoly import divmod_monic, mul, sub

        x = sympy.symbols("x")
        rng = random.Random(55)
        for _ in range(50):
            p = [rng.randint(-10**6, 10**6) for _ in range(rng.randint(1, 12))]
            d = [rng.randint(-50, 50) for _ in range(rng.randint(1, 6))] + [1]
            q, r = divmod_monic(p, d)
            sp = sympy.Poly(list(reversed(p)) or [0], x)
            sd = sympy.Poly(list(reversed(d)), x)
            sq, sr = sympy.div(sp, sd, domain="ZZ")
            assert list(reversed(q)) == (sq.all_coeffs() if q else [0]) or (
                not q and sq.is_zero)
            assert list(reversed(r)) == (sr.all_coeffs() if r else [0]) or (
                not r and sr.is_zero)
            # reconstruction identity over Z
            assert sub(p, mul(q, d) if q else []) == r
