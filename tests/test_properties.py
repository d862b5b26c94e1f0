"""Property tests: form and point reduction, the residues B of an N-system,
roots over F_l, the certified product tree and Lagrange interpolation, the
Phi file format and the elliptic-curve group law."""
import math
import random
from fractions import Fraction
from math import gcd

import mpmath

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from mpmath.libmp import from_rational, fzero, round_nearest  # noqa: E402

from etacm.apcomplex import ApComplex, UpperHalfPoint  # noqa: E402
from etacm.classpoly import RPoly, _tree_err, product_tree, round_certified  # noqa: E402
from etacm import intpoly  # noqa: E402
from etacm.etafunc import _form_of, hecke_split  # noqa: E402
from etacm.ffield import (  # noqa: E402
    NEWTON_DEGREE,
    FpPolynomial,
    _divmod,
    _monic,
    _mul,
    _pow_mod,
    roots_mod_l,
)
from etacm.modpoly import ModularPolynomial, _lagrange, deserialize, serialize  # noqa: E402
from etacm.pipeline import (  # noqa: E402
    ORDER_CHECKS,
    EllipticCurve,
    OrderCertificate,
    _escaping_points,
    ec_mul,
    random_point,
)
from etacm.qforms import QuadraticForm, _compose, _reduce, _xgcd, b_candidates  # noqa: E402
from oracles import (  # noqa: E402
    affine_mul,
    curve_points,
    gauss_reduce_point,
    naive_point_count,
    reference_roots_mod_l,
    schoolbook_divmod,
    schoolbook_gcd,
    schoolbook_mul,
    schoolbook_pow_mod,
)
from support import coefficients, kernel_triple, mag  # noqa: E402

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
ODD_PRIMES = [p for p in range(3, 200) if all(p % d for d in range(2, p))]


@st.composite
def forms(draw):
    a = draw(st.integers(1, 500))
    b = draw(st.integers(-2000, 2000))
    c = b * b // (4 * a) + draw(st.integers(1, 500))  # b^2 - 4ac < 0
    assume(gcd(a, b, c) == 1)
    return QuadraticForm(a, b, c)


def _brute_force_roots(coeffs: list[int], l: int) -> dict[int, int]:
    """{x: multiplicity} by repeated synthetic division at every x in F_l."""
    out = {}
    for x in range(l):
        g, m = [c % l for c in coeffs], 0
        while len(g) > 1:
            acc, quot = 0, []
            for c in reversed(g):  # Horner, highest degree first
                acc = (acc * x + c) % l
                quot.append(acc)
            if quot.pop():
                break
            g, m = quot[::-1], m + 1
        if m:
            out[x] = m
    return out


@st.composite
def polynomials_mod_l(draw):
    """(coefficients lowest degree first, l): random roots, some repeated,
    times a random cofactor, so that multiplicities above 1 are common."""
    l = draw(st.sampled_from(ODD_PRIMES))
    coeffs = draw(st.lists(st.integers(0, l - 1), min_size=1, max_size=4))
    coeffs[-1] = coeffs[-1] or 1
    for r in draw(st.lists(st.integers(0, l - 1), min_size=1, max_size=5)):
        coeffs = [((coeffs[i - 1] if i else 0) - r * (coeffs[i] if i < len(coeffs) else 0)) % l
                  for i in range(len(coeffs) + 1)]
    return coeffs, l


class TestReduceForm:
    @PROPERTY
    @given(forms())
    def test_reduced_equivalent_and_idempotent(self, f):
        g, m = _reduce(f)
        assert m[0] * m[3] - m[1] * m[2] == 1
        assert _compose(f, m) == g
        assert _reduce(g) == (g, (1, 0, 0, 1))


@st.composite
def b_problems(draw):
    """(D, p1, p2): distinct odd primes below 50 in either order, and D = B0^2 - 4Nk
    < 0 for some B0, so that B^2 = D mod 4N has solutions; p1 or p2 divides D
    when it divides B0."""
    p1, p2 = draw(st.lists(st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]),
                           min_size=2, max_size=2, unique=True))
    N = p1 * p2
    b0 = draw(st.integers(0, 2 * N - 1))
    return b0 * b0 - 4 * N * (b0 * b0 // (4 * N) + draw(st.integers(1, 1000))), p1, p2


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(b_problems())
def test_b_candidates_match_the_exhaustive_search(case):
    D, p1, p2 = case
    N = p1 * p2
    assert b_candidates(D, p1, p2) == [B for B in range(2 * N) if (B * B - D) % (4 * N) == 0]


@st.composite
def dyadic_points(draw):
    """(x, y) with x in [-40, 40] and y in [2^-16, 8], multiples of 2^-e."""
    e = draw(st.integers(0, 60))
    x = draw(st.integers(-40 << e, 40 << e))
    y = draw(st.integers(max(1, 1 << e >> 16), 8 << e))
    return Fraction(x, 1 << e), Fraction(y, 1 << e)


class TestReducePoint:
    @PROPERTY
    @given(dyadic_points())
    def test_matches_exact_reference(self, point):
        x, y = point
        prec = 128  # holds every drawn point exactly
        z = UpperHalfPoint(ApComplex(kernel_triple(
            from_rational(x.numerator, x.denominator, prec, round_nearest),
            from_rational(y.numerator, y.denominator, prec, round_nearest)), prec))
        A, B, C = _form_of(z)
        # z is exactly the root of its form: Re z = -B/2A, (Im z)^2 = |D|/4A^2
        assert (Fraction(-B, 2 * A), Fraction(4 * A * C - B * B, 4 * A * A)) == (x, y * y)
        # the reduced form F.R has the root R^-1 z
        p, q, r, s = _reduce((A, B, C))[1]
        want = gauss_reduce_point(x, y * y)
        assert (s, -q, -r, p) in (want, tuple(-v for v in want))


@st.composite
def split_and_rootless_factors(draw):
    """(coefficients lowest degree first, p): linear factors drawn from a
    small pool, so that roots repeat, with the root 0 in the pool, times
    x^2 - n for a non-residue n, which has no root, and a random factor."""
    p = draw(st.sampled_from([3, 5, 7, 101, 3593, 2**61 - 1, 2**128 - 159]))
    n = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)
    pool = [0] + draw(st.lists(st.integers(1, p - 1), min_size=1, max_size=4))
    factors = [[-draw(st.sampled_from(pool)), 1] for _ in range(draw(st.integers(0, 7)))]
    if draw(st.booleans()):
        factors.append([-n, 0, 1])
    factors.append(draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=4)) + [1])
    coeffs = [1]
    for g in factors:
        coeffs = schoolbook_mul(coeffs, g, p)
    assume(len(coeffs) > 1)
    return coeffs, p


class TestRootsModL:
    @PROPERTY
    @given(polynomials_mod_l())
    def test_matches_brute_force(self, poly):
        coeffs, l = poly
        got = roots_mod_l(FpPolynomial.make(coeffs, l))
        assert dict(got) == _brute_force_roots(coeffs, l)

    @PROPERTY
    @given(split_and_rootless_factors())
    def test_matches_reference_in_increasing_order(self, poly):
        # the roots and multiplicities of splitting gcd(x^p - x, f), listed
        # in increasing order
        coeffs, p = poly
        got = roots_mod_l(FpPolynomial.make(coeffs, p))
        assert dict(got) == dict(reference_roots_mod_l(coeffs, p))
        assert list(got) == sorted(got)


@st.composite
def fp_operands(draw):
    """(a, b, e, p): a of degree up to 80 and b up to 40, on both sides of
    the degree where division switches to a Newton inverse, with zero and
    constant operands and non-monic b."""
    p = draw(st.sampled_from([101, 2**255 - 19]))
    coeff = st.integers(0, p - 1)
    n, k = draw(st.integers(0, 81)), draw(st.integers(0, 41))
    a = draw(st.lists(coeff, min_size=n, max_size=n))
    b = draw(st.lists(coeff, min_size=k, max_size=k))
    return a, b, draw(st.integers(0, 2**16)), p


@PROPERTY
@given(fp_operands())
def test_packed_arithmetic_matches_schoolbook(case):
    a, b, e, p = case
    A, B = FpPolynomial.make(a, p), FpPolynomial.make(b, p)
    x, y = list(A.coeffs), list(B.coeffs)
    assert intpoly.trim([c % p for c in _mul(x, y, p)]) == schoolbook_mul(a, b, p)
    assert intpoly.trim([c % p for c in _mul(x, x, p)]) == schoolbook_mul(a, a, p)
    assert list(A.gcd(B).coeffs) == schoolbook_gcd(a, b, p)
    if y:
        m = _monic(y, p)
        quo, rem = _divmod(x, m, p)
        assert (quo, rem) == schoolbook_divmod(a, m, p)
        assert _pow_mod(rem, e, m, p) == schoolbook_pow_mod(a, e, m, p)


@pytest.mark.parametrize("p", [4294967291, 2**127 - 1, 2**255 - 19], ids=["32", "127", "255"])
@pytest.mark.parametrize("d", range(1, NEWTON_DEGREE + 2))
def test_root_finding_power_across_the_switch(p, d):
    # (x + a)^((p-1)/2) mod a random m of every degree up to one past
    # NEWTON_DEGREE, at the full exponent size of root finding: the fused
    # small-degree kernel below the switch, the Newton remainder from it on
    rng = random.Random(d * p)
    a, m = rng.randrange(p), [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)]
    m = _monic(m, p)
    got = _pow_mod(_divmod([a, 1], m, p)[1], (p - 1) // 2, m, p)
    assert got == schoolbook_pow_mod([a, 1], (p - 1) // 2, m, p)


@st.composite
def modular_polynomials(draw):
    """Polynomials shaped like Phi_{p1,p2}, which is all that `deserialize`
    accepts: s, degX = psi(N) and degJ from the pair, and the X^degX row 1;
    the other coefficients are arbitrary."""
    p1, p2 = draw(st.sampled_from([(3, 5), (3, 7), (5, 7), (3, 13), (13, 3)]))
    s = 24 // gcd(24, (p1 - 1) * (p2 - 1))
    degx, degj = (p1 + 1) * (p2 + 1), s * (p1 - 1) * (p2 - 1) // 12
    row = st.tuples(*[st.integers(-10**30, 10**30)] * (degj + 1))
    coeffs = draw(st.tuples(*[row] * degx)) + ((1,) + (0,) * degj,)
    return ModularPolynomial(p1, p2, s, degx, degj, coeffs)


class TestSerializeRoundTrip:
    @PROPERTY
    @given(modular_polynomials())
    def test_round_trip(self, phi):
        assert deserialize(serialize(phi)) == phi


@st.composite
def root_sets(draw):
    """(roots, paired, wp): 1-40 dyadic complex roots of modulus 2^-9..2^41
    with a leaf error bound each (they are exact), each either paired with
    its conjugate or standing for its real part, and wp in 64..512."""
    roots = []
    for _ in range(draw(st.integers(1, 40))):
        bits = draw(st.integers(1, 80))
        re = draw(st.integers(1 << (bits - 1), (1 << bits) - 1)) * draw(st.sampled_from([1, -1]))
        im = draw(st.integers(-(1 << bits), 1 << bits))
        err = draw(st.one_of(st.just(float("-inf")), st.floats(-600, 0)))
        roots.append(((re, im, draw(st.integers(-8, 40)) - bits), err))
    paired = draw(st.lists(st.booleans(), min_size=len(roots), max_size=len(roots)))
    return roots, paired, draw(st.integers(64, 512))


def _integer_product(p: list[int], q: list[int]) -> list[int]:
    """p q by the schoolbook sum, all len(p) + len(q) - 1 coefficients."""
    return [sum(p[i] * q[j - i] for i in range(len(p)) if 0 <= j - i < len(q))
            for j in range(len(p) + len(q) - 1)]


@PROPERTY
@given(root_sets())
def test_product_tree_within_its_bound(case):
    # prod (X - r_i)(X - conj r_i) over the paired roots times prod (X - Re r_i)
    # over the others, expanded exactly: with every r_i = R_i 2^e0 for
    # Gaussian integers R_i, it is sum_j c_j 2^(e0 (n - j)) X^j, where
    # sum_j c_j Y^j is the same product of Y^2 - 2 Re R_i Y + |R_i|^2 and
    # Y - Re R_i
    roots, paired, wp = case
    f = product_tree(roots, paired, wp)
    assert _tree_err(roots, paired, wp) == f.err  # what initial_precision relies on
    e0 = min(e for (_, _, e), _ in roots)
    exact = [1]
    for ((re, im, e), _), pair in zip(roots, paired):
        rr, ri = re << (e - e0), im << (e - e0)
        exact = _integer_product(exact, [rr * rr + ri * ri, -2 * rr, 1] if pair else [-rr, 1])
    n = len(exact) - 1
    assert len(f.coeffs) == n + 1 == len(roots) + sum(paired) + 1
    for j, c in enumerate(exact):
        low = min(f.exp, e0 * (n - j))
        d = (f.coeffs[j] << (f.exp - low)) - (c << (e0 * (n - j) - low))
        if d:
            assert math.log2(abs(d)) + low <= f.err, j


@st.composite
def real_polynomial_pairs(draw):
    """Two `RPoly` operands of 1-20 coefficients of up to 300 bits, one in
    ten the constant 0, and wp in 32..256, so that the product is often
    rounded."""
    def operand():
        n = draw(st.integers(1, 20))
        bound = 1 << draw(st.integers(1, 300))
        coeffs = draw(st.lists(st.integers(-bound, bound), min_size=n, max_size=n))
        if draw(st.integers(0, 9)) == 0:
            coeffs = [0]
        exp = draw(st.integers(-400, 40))
        total = sum(map(abs, coeffs))
        norm = math.log2(total) + exp if total else -math.inf
        return RPoly(coeffs, exp, draw(st.floats(-600, 0)), norm)

    return operand(), operand(), draw(st.integers(32, 256))


@PROPERTY
@given(real_polynomial_pairs())
def test_real_product_is_the_integer_product_shifted(case):
    # every coefficient of the exact integer product, shifted down by one
    # amount to the exponent floor(norm f + norm g) - wp where that is finer;
    # all len f + len g - 1 of them, also for a zero factor
    f, g, wp = case
    h = f.mul(g, wp)
    exp, norm = f.exp + g.exp, f.norm + g.norm
    shift = max(math.floor(norm) - wp - exp, 0) if norm > -math.inf else 0
    assert h.coeffs == [c >> shift for c in _integer_product(f.coeffs, g.coeffs)]
    assert (h.exp, h.norm) == (exp + shift, norm)


@st.composite
def constant_operands(draw):
    """(p, q) with at least one constant: zero, negative and large constants,
    and length 1 on both sides."""
    coeff = st.one_of(st.just(0), st.integers(-2**300, 2**300), st.integers(-3, 3))
    const = [draw(coeff)]
    other = draw(st.lists(coeff, min_size=1, max_size=12))
    return (const, other) if draw(st.booleans()) else (other, const)


@PROPERTY
@given(constant_operands())
def test_constant_operand_matches_the_packed_product(case):
    p, q = case
    assert intpoly.mul(p, q) == intpoly._packed_mul(p, q)


@st.composite
def hecke_problems(draw):
    """(g, p1, p2): g unimodular with c > 0, or c = 0 and d > 0, and two
    distinct odd primes."""
    p1, p2 = draw(st.lists(st.sampled_from(ODD_PRIMES[:12]), min_size=2, max_size=2,
                           unique=True))
    c = draw(st.integers(0, 10**6))
    d = draw(st.integers(-10**6, 10**6)) if c else 1
    assume(gcd(c, d) == 1)
    _, x, y = _xgcd(d, -c)  # d x - c y = 1
    k = draw(st.integers(-50, 50))
    return (x + k * c, y + k * d, c, d), p1, p2


@PROPERTY
@given(hecke_problems())
def test_hecke_split(case):
    # M U = [[a, b], [n c, n d]] with M unimodular and normalized, U upper
    # triangular with 0 <= beta < delta, and alpha_p1 alpha_p2 = alpha_N
    (a, b, c, d), p1, p2 = case
    assert a * d - b * c == 1
    alphas = {}
    for n in (p1, p2, 1, p1 * p2):
        (p, q, r, s), (alpha, beta, zero, delta) = hecke_split((a, b, c, d), n)
        assert (p * alpha, p * beta + q * delta, r * alpha, r * beta + s * delta) == \
            (a, b, n * c, n * d)
        assert p * s - q * r == 1 and zero == 0
        assert r > 0 or (r == 0 and s > 0)
        assert 0 <= beta < delta and alpha * delta == n
        alphas[n] = alpha
    assert alphas[1] == 1 and alphas[p1] * alphas[p2] == alphas[p1 * p2]


@st.composite
def interpolation_problems(draw):
    """(distinct real nodes k/8, integer coefficients of degree < len(nodes))."""
    n = draw(st.integers(2, 5))
    ks = draw(st.lists(st.integers(-64, 64), min_size=n, max_size=n, unique=True))
    coeffs = draw(st.lists(st.integers(-10**12, 10**12), min_size=1, max_size=n))
    return [Fraction(k, 8) for k in ks], coeffs


class TestLagrange:
    @PROPERTY
    @given(interpolation_problems())
    def test_recovers_integer_polynomial_within_bound(self, problem):
        nodes, coeffs = problem
        wp = 128
        samples = []
        for x in nodes:
            y = sum(c * x**i for i, c in enumerate(coeffs))
            v = ApComplex(kernel_triple(
                from_rational(y.numerator, y.denominator, wp, round_nearest), fzero), wp)
            c, _, e = v.triple
            samples.append(RPoly.constant(c, e, mag(v) - wp + 1))
        xs = [(x.numerator * (8 // x.denominator), 0, -3) for x in nodes]
        (f,) = _lagrange(xs, -float(wp), samples, wp)
        want = coeffs + [0] * (len(nodes) - len(coeffs))
        with mpmath.workprec(4 * wp):
            for c, n in zip(coefficients(f), want):
                actual = abs(c - n)
                assert actual == 0 or mpmath.log(actual, 2) <= f.err
        assert round_certified(f) == want


@st.composite
def small_curve_points(draw):
    """(q, a, b, P) with P on y^2 = x^3 + a x + b over a small F_q; half of
    the draws put a 2-torsion point (r, 0) on the curve and take it as P."""
    q = draw(st.sampled_from([p for p in ODD_PRIMES if p > 3]))
    a = draw(st.integers(0, q - 1))
    if draw(st.booleans()):
        r = draw(st.integers(0, q - 1))
        b, P = -(r * r * r + a * r) % q, (r, 0)
    else:
        b = draw(st.integers(0, q - 1))
        points = curve_points(q, a, b)
        assume(points)
        P = draw(st.sampled_from(points))
    assume((4 * a * a * a + 27 * b * b) % q)
    return q, a, b, P


@PROPERTY
@given(small_curve_points())
def test_ec_mul_matches_affine_oracle_on_small_curves(case):
    # every k up to twice the group order: k = 0, k = #E, and, once the
    # order m of P is odd and at least 3, the left-to-right ladder meets
    # P + (-P) at k = m and P + P at k = m + 2
    q, a, b, P = case
    n = naive_point_count(q, a, b)
    assert ec_mul(0, P, a, q) is None
    assert ec_mul(n, P, a, q) is None
    for k in range(-3, 2 * n + 3):
        assert ec_mul(k, P, a, q) == affine_mul(k, P, a, q), (q, a, b, P, k)


def _escaping_points_oracle(curve, n1, n2, t, need, rng):
    """`pipeline._escaping_points` with both O-tests by `affine_mul`."""
    q, a = curve.q, curve.a4.value
    ok1 = ok2 = True
    escaped = 0
    for drawn in range(1, ORDER_CHECKS + 1):
        P = random_point(curve, rng)
        o1, o2 = affine_mul(n1, P, a, q) is None, affine_mul(n2, P, a, q) is None
        ok1, ok2 = ok1 and o1, ok2 and o2
        if not (ok1 or ok2):
            return None
        escaped += o1 != o2
        if escaped == need:
            return OrderCertificate(curve, n1 if ok1 else n2, t, drawn)
    return OrderCertificate(curve, n1 if ok1 else n2, t, ORDER_CHECKS,
                            ambiguous=True, alt_order=n2 if ok1 else n1)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(small_curve_points(), st.integers(1, ORDER_CHECKS), st.integers(0, 2**32))
def test_escaping_points_match_the_affine_oracle(case, need, seed):
    # #E against every m of the Hasse interval, as (n1, n2) = (#E, m),
    # where n1 P = O and n2 P = S, and as (m, #E), where n2 P = n1 P + S is
    # an addition; S = (n2 - n1) P is O whenever the order of the drawn P
    # divides m - #E.  The pair (m, 2q + 2 - m) of a CM certificate, mostly
    # without #E, also reaches the answer None
    q, a, b, _ = case
    curve = EllipticCurve.make(q, a, b)
    n = naive_point_count(q, a, b)
    s = math.isqrt(4 * q)
    for m in range(q + 1 - s, q + 2 + s):
        for n1, n2 in [(n, m), (m, n), (m, 2 * q + 2 - m)]:
            got = _escaping_points(curve, n1, n2, 0, need, random.Random(seed))
            want = _escaping_points_oracle(curve, n1, n2, 0, need, random.Random(seed))
            assert got == want, (q, a, b, n1, n2, need, seed)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 2**256 - 190), st.integers(1, 2**256 - 190),
       st.integers(-2**257, 2**257), st.integers(0, 2**32))
def test_ec_mul_matches_affine_oracle_at_256_bits(a, b, k, seed):
    q = 2**256 - 189
    P = random_point(EllipticCurve.make(q, a, b), random.Random(seed))
    assert ec_mul(k, P, a, q) == affine_mul(k, P, a, q)
