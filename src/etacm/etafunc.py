"""Evaluation of the Dedekind eta function, the Klein J-invariant, and the
double eta-quotient at upper half-plane points, with certified error bounds.

Strategy: every eta argument is the root of an integer quadratic form, and
its Gauss-reduced form (`qforms._reduce`, exact) names the point of the
classical fundamental domain (-1/2 <= Re < 1/2, |z| >= 1) where the sparse
pentagonal-number series converges at a guaranteed >= 7.8 bits per exponent
unit.  An mpf is a dyadic rational, so a public point x + iy with x = X/L
and y = Y/L is exactly the root of the primitive part of
[L^2, -2XL, X^2 + Y^2].  The value at the original point is recovered
through the eta transformation formula (unimodular matrix, Jacobi-symbol
sign times a 24th root of unity times sqrt(cz+d)).  Everything else is an
eta quotient: the double quotient w, and Weber's f1(z) = eta(z/2) / eta(z),
which gives J.

Fractional powers of q are never taken through complex roots: q^{1/24} is
computed as exp(pi*i*z/12) directly from z, which fixes the branch once and
for all; q itself is its 24th power.

The values are fixed-point Gaussian-integer triples (`apcomplex`), each with
an exponent of its own.  Inside the module a point is always the exact
integer form it is the root of, and every step returns a value with its
error in ulps u = 2^-wp of the working precision, relative to the value:
the series (`_eta_series`), the transformation formula
(`EtaTable._eta_transform`), one eta value (`EtaTable.eta`), the quotients
and the powers.  Each evaluation runs once, at a working precision set by
the requested one, and turns that into an absolute bound at its last step
only; a gate accepts it or not, and `apcomplex.double_until` is the only
loop that raises the precision.  The public point functions (`eta`,
`j_invariant`, `double_eta_quotient`, `w_pow_s`) name their point's form
once (`_form_of`), run that loop up to their target (`_to_target`), and
hand the value back as an `ApComplex` (`to_apcomplex`).

Every eta value at an arbitrary point comes from an `EtaTable`.  Many
arguments share one reduced point: the 4h arguments alpha_i/d of a class
polynomial (d in {1, p1, p2, N}) fall into the h form classes of
discriminant D, and the 4 psi(N) arguments g z/d of one modular-polynomial
sample point into 1 + (p1+1) + (p2+1) + psi(N) SL2(Z)-classes, most of
them mirror images of each other in pairs, as the sample lies on the
imaginary axis.  A table names each reduced point by its reduced form, sums
one series per name ([a, -b, c], the mirror image, reuses the conjugate
series of [a, b, c]), and recovers every argument's value through the
transformation formula, with one 24th root of unity per exponent and
precision.  A table serves one precision attempt of one computation, or one
public call, and is then dropped.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from functools import reduce
from math import gcd

from mpmath.libmp import (
    from_int,
    from_rational,
    mpf_cos_sin_pi,
    mpf_div,
    mpf_exp,
    mpf_mul,
    mpf_neg,
    mpf_pi,
    mpf_sqrt,
    to_rational,
)

from .apcomplex import (
    MAX_PRECISION,
    RND,
    ROUND_ULPS,
    ApComplex,
    UpperHalfPoint,
    add,
    check_prec,
    div,
    double_until,
    from_mpc,
    lg,
    log2add,
    mul,
    power,
    sqrt,
    to_apcomplex,
    trunc,
)
from .arith import check_distinct_odd_primes, jacobi
from .errors import PreconditionError
from .qforms import Form, Matrix, _primitive, _reduce

# log2 of the worst-case |q| on the fundamental domain: 2*pi*(sqrt(3)/2)/ln 2
_BITS_PER_Q_POWER = 2.0 * math.pi * (math.sqrt(3.0) / 2.0) / math.log(2.0)

IDENTITY: Matrix = (1, 0, 0, 1)

Value = tuple[int, int, int]  # (re, im, e): (re + i im) 2^e, see `apcomplex`


def _series_terms(wp: int, im_bits: float) -> int:
    """The number K of pentagonal terms summed: the first k from a guess just
    above the root with g_k im_bits >= wp + 8, g_k = k(3k-1)/2, where
    |q| = 2^-im_bits.  Every omitted term q^(g_k) or q^(g_k + k), k > K, is
    then below 2^-(wp+8) |q|^(3K+1), and the sum of them all below
    2^-(wp+8)."""
    k = int(math.sqrt(2.0 * (wp + 8) / (3.0 * im_bits))) + 2
    while (k * (3 * k - 1)) // 2 * im_bits < wp + 8:
        k += 1
    return k


def eta_guard_bits(prec: int) -> int:
    """Guard bits: 32 + ceil(log2(number of series terms)) at worst-case decay."""
    k = _series_terms(prec, _BITS_PER_Q_POWER)
    return 32 + max(1, math.ceil(math.log2(2 * k + 1)))


def _form_of(z: UpperHalfPoint) -> Form:
    """The primitive form whose root is exactly z: x + iy with x = X/L and
    y = Y/L is the root of [L^2, -2XL, X^2 + Y^2]."""
    (xn, xd), (yn, yd) = to_rational(z.value.re), to_rational(z.value.im)
    d = math.lcm(xd, yd)
    x, y = xn * (d // xd), yn * (d // yd)
    return _primitive(d * d, -2 * x * d, x * x + y * y)


def reduce_to_fundamental_domain(z: UpperHalfPoint) -> tuple[UpperHalfPoint, Matrix]:
    """Unimodular M and z' = Mz, exactly Gauss-reduced: -1/2 <= Re z' < 1/2,
    |z'| >= 1, and Re z' <= 0 when |z'| = 1.

    z' is the root of the reduced form G = F.R of z's form F (`qforms._reduce`),
    rounded to z's precision, and M = R^-1.
    """
    (a, b, c), (p, q, r, s) = _reduce(_form_of(z))
    return UpperHalfPoint.from_form(a, b, b * b - 4 * a * c, z.prec), (s, -q, -r, p)


def eta_multiplier(m: Matrix) -> tuple[int, int, int, int]:
    """(c, d, sign, k) with eta(Mz) = sign * zeta_24^k * sqrt(cz+d) * eta(z).

    M is normalized (negated if necessary, which leaves the Moebius action
    unchanged) so that c >= 0, and d > 0 when c = 0; c and d are the bottom
    row after that, and 0 <= k < 24.
    """
    a, b, c, d = m
    if a * d - b * c != 1:
        raise PreconditionError(f"matrix {m} is not unimodular")
    if c < 0 or (c == 0 and d < 0):
        a, b, c, d = -a, -b, -c, -d
    if c == 0:
        gamma, lam = 1, 1
    else:
        lam = (c & -c).bit_length() - 1
        gamma = c >> lam
    # a is odd whenever lam > 0, so 3 lam (a^2 - 1) is even
    e = a * b + c * (d * (1 - a * a) - a) + 3 * gamma * (a - 1) + 3 * lam * (a * a - 1) // 2
    return c, d, jacobi(a, gamma), e % 24


def _zeta24(k: int, wp: int) -> Value:
    """exp(pi i k / 12), within 0.1u relative (u = 2^-wp): its argument and
    cos/sin at wp + 8 bits are each within an ulp."""
    return from_mpc(*mpf_cos_sin_pi(from_rational(k, 12, wp + 8, RND), wp + 8, RND))


def _eta_series(a: int, b: int, D: int, wp: int) -> tuple[Value, float]:
    """eta at the root tau = (-b + sqrt(D)) / (2a) of a reduced form, by the
    pentagonal-number series
        eta = q^(1/24) (1 + sum_{k=1..K} (-1)^k (q^(g_k) + q^(g_k + k))),
    and its relative error bound in units u = 2^-wp.

    - q^(1/24) = exp(pi i tau / 12) comes from libmp at P = wp + 8 +
      bitlen(floor(t) + 1) bits, t = pi Im(tau) / 12 = -log |q^(1/24)|:
      with -b/(24a), sqrt(-D), pi, the product, the quotient, exp, cos/sin
      and the two final products each within an ulp 2^(1-P), it is within
      (8.02 t + 7.03) 2^-P < 0.06u relative, and converted exactly.
    - q = (q^(1/24))^24 by `power` is within 24 * 0.06u + 23 * 3u < 71u
      relative, and |q| < 0.0044 on the fundamental domain, so rounded down
      to the fixed point 2^-wp it is within 0.31u + sqrt(2)u < 1.8u.
    - The sum runs in that fixed point.  Each product of two powers of q,
      each within 2u, is within 0.0044 (2u + 2u) + sqrt(2)u < 2u, as the
      product rounds down; so each of the K terms is within 4u, and the sum
      of exact additions within 4K u plus the tail (`_series_terms`), below
      2^-(wp+8).  The sum is at least 1 - 2.01 * 0.0044 > 0.99 in modulus,
      so it is within (4.05K + 0.01)u relative.
    - eta is the product, cut to wp bits: within (4.05K + 3.07)u.
    """
    t = math.pi * math.sqrt(-D / (4 * a * a)) / 12
    P = wp + 8 + (int(t) + 1).bit_length()
    cos, sin = mpf_cos_sin_pi(from_rational(-b, 24 * a, P, RND), P, RND)
    r = mpf_exp(mpf_neg(mpf_div(mpf_mul(mpf_pi(P), mpf_sqrt(from_int(-D), P, RND), P, RND),
                                from_int(24 * a), P, RND)), P, RND)
    w24 = from_mpc(mpf_mul(r, cos, P, RND), mpf_mul(r, sin, P, RND))
    qr, qi, e = power(w24, 24, wp)
    e += wp  # the shift to the fixed point 2^-wp
    qr, qi = (qr << e, qi << e) if e >= 0 else (qr >> -e, qi >> -e)
    kmax = _series_terms(wp, 24 * t / math.log(2.0))

    def fmul(xr, xi, yr, yi):
        return (xr * yr - xi * yi) >> wp, (xr * yi + xi * yr) >> wp

    q3r, q3i = fmul(*fmul(qr, qi, qr, qi), qr, qi)
    sr, si = fmul(q3r, q3i, qr, qi)  # q^(3k+1)
    ar, ai = kr, ki = qr, qi         # q^(g_k) and q^k
    tr, ti = 1 << wp, 0
    for k in range(1, kmax + 1):
        br, bi = fmul(ar, ai, kr, ki)
        if k & 1:
            tr, ti = tr - ar - br, ti - ai - bi
        else:
            tr, ti = tr + ar + br, ti + ai + bi
        ar, ai = fmul(ar, ai, sr, si)
        sr, si = fmul(sr, si, q3r, q3i)
        kr, ki = fmul(kr, ki, qr, qi)
    return trunc(mul(w24, (tr, ti, -wp)), wp), 4.05 * kmax + 3.1


def _abs_err(x: Value, rel: float, wp: int) -> float:
    """log2 of the absolute error of x, from its relative error in units 2^-wp."""
    return lg(x) + math.log2(rel) - wp


class EtaTable:
    """The eta series of one computation, one per (reduced point, wp), and
    the 24th roots of unity of the transformation formula, one per (k, wp).

    Every argument still gets its own factor sqrt(cz+d), so each value
    carries a certified bound of its own.
    """

    def __init__(self):
        self._series: dict = {}
        self._roots: dict = {}

    def __len__(self) -> int:
        """Number of series summed so far."""
        return len(self._series)

    def _eta_transform(self, series: Value, rel: float, f: Form, m: Matrix,
                       wp: int) -> tuple[Value, float]:
        """eta(z) at the root z of f = [A, B, C], from the series value at the
        reduced point m z, and its relative error in units u = 2^-wp.

        eta(z) = series / (sign zeta_24^k sqrt(cz + d)), and with
        cz + d = w / (4A^2), w = 2A(2Ad - cB) + i c sqrt(4A^2 |disc f|),
        1 / sqrt(cz + d) = 2A / sqrt(w).  The imaginary part of w is rounded
        down at 2^-(wp+8) and is at least 1 when c > 0, so sqrt(w) is within
        2^-(wp+9) + 3u; with the unit (0.1u) and the division (3u) that is
        at most 6.2u on top of the series' own error.  A translation (c = 0)
        needs the unit alone.
        """
        if m == IDENTITY:
            return series, rel
        c, d, sign, k = eta_multiplier(m)
        unit = self._roots.get((k, wp))
        if unit is None:
            unit = self._roots[(k, wp)] = _zeta24(k, wp)
        num = mul(series, (sign * unit[0], -sign * unit[1], unit[2]))
        if c == 0:
            return trunc(num, wp), rel + ROUND_ULPS + 0.1
        (A, B, C), s = f, wp + 8
        w = (2 * A * (2 * A * d - c * B) << s,
             math.isqrt((4 * A * A * c * c * (4 * A * C - B * B)) << (2 * s)), -s)
        return div(mul(num, (2 * A, 0, 0)), sqrt(w, wp), wp), rel + 2 * ROUND_ULPS + 0.2

    def eta(self, f: Form, den: int, wp: int) -> tuple[Value, float]:
        """eta(alpha_f / den) at the basis quotient alpha_f of f, and its
        relative error in units 2^-wp.

        alpha_f / den is the basis quotient of F, the primitive part of
        [a den^2, b den, c].  Its reduced form G = [A, B, C] = F.M names the
        point: M^-1 takes the argument to alpha_G, and [A, -B, C] shares the
        series, since its basis quotient is -conj(alpha_G) and
        eta(-conj z) = conj(eta(z)).
        """
        a, b, c = f
        F = _primitive(a * den * den, b * den, c)
        (A, B, C), (p, q, r, s) = _reduce(F)
        key = (A, abs(B), C, wp)
        hit = self._series.get(key)
        if hit is None:
            hit = self._series[key] = _eta_series(A, abs(B), B * B - 4 * A * C, wp)
        (re, im, e), rel = hit
        return self._eta_transform((re, -im if B < 0 else im, e), rel, F, (s, -q, -r, p), wp)


def _to_target(z: UpperHalfPoint, prec: int,
               evaluate: Callable[[Form, int, EtaTable], tuple[Value, float]],
               what: str) -> ApComplex:
    """evaluate(f, p, table) at z's form f, for p = prec, 2 prec, ... up to
    MAX_PRECISION, until its bound is below 2^(eta_guard_bits(prec) - prec)."""
    check_prec(prec)
    f, table = _form_of(z), EtaTable()
    target = eta_guard_bits(prec) - prec

    def attempt(p: int) -> Value | None:
        value, err = evaluate(f, p, table)
        return value if err <= target else None

    return to_apcomplex(double_until(prec, MAX_PRECISION, attempt, what), prec)


def eta(z: UpperHalfPoint, prec: int) -> ApComplex:
    """Dedekind eta, absolute error certified below 2^(guard - prec) with at
    most MAX_PRECISION bits (`_to_target`)."""
    def evaluate(f: Form, p: int, table: EtaTable) -> tuple[Value, float]:
        wp = p + eta_guard_bits(p)
        value, rel = table.eta(f, 1, wp)
        return value, _abs_err(value, rel, wp)

    return _to_target(z, prec, evaluate, "eta")


def j_invariant(z: UpperHalfPoint, prec: int) -> ApComplex:
    """Klein J (J(i) = 1728), absolute error certified below 2^(guard - prec)
    with at most MAX_PRECISION bits (`_to_target`)."""
    return _to_target(z, prec, lambda f, p, _: j_invariant_with_err(f, p), "J")


def j_invariant_with_err(f: Form, prec: int) -> tuple[Value, float]:
    """(J, log2 absolute error bound) at the basis quotient of f, from Weber's
    f1(z) = eta(z/2) / eta(z): J = (x + 16)^3 / x with x = f1^24 (Yui and
    Zagier, Math. Comp. 66, 1997).

    If f1 is within a relative r, then x = f1^24 is within
    r_x = 24 r + 69u (`power`), and since dJ/dx = (x + 16)^2 (2x - 16) / x^2,
    to first order
        |dJ| <= |x + 16|^2 |2x - 16| / |x| * r_x.
    Forming (x + 16)^3 / x rounds three times, 9u of J; one more bit covers
    the second-order terms.  |J| ~ e^{2 pi Im} at the reduced point, whose
    imaginary part is sqrt(|D|) / (2A) for the reduced form [A, B, C] of f,
    so it is evaluated once, at prec + guard + that many bits + 32.
    """
    a, b, c = _reduce(f)[0]
    im = math.exp(math.log(4 * a * c - b * b) / 2 - math.log(2 * a))
    wp = prec + eta_guard_bits(prec) + math.ceil(2.0 * math.pi * im / math.log(2.0)) + 32
    f1, rel = _eta_quotient(f, (2,), (1,), wp, EtaTable())
    x = power(f1, 24, wp)
    x16 = add(x, (16, 0, 0))
    value = div(power(x16, 3, wp), x, wp)
    dj = (2 * lg(x16) + lg(add(add(x, x), (-16, 0, 0))) - lg(x) + 2.0 ** -29
          + math.log2(24 * rel + 23 * ROUND_ULPS) - wp)
    return value, log2add(dj, _abs_err(value, 3 * ROUND_ULPS, wp)) + 1


def s_exponent(p1: int, p2: int) -> int:
    """Canonical power s = 24 / gcd(24, (p1-1)(p2-1))."""
    return 24 // gcd(24, (p1 - 1) * (p2 - 1))


def _eta_quotient(f: Form, num: tuple[int, ...], den: tuple[int, ...], wp: int,
                  table: EtaTable) -> tuple[Value, float]:
    """prod eta(alpha_f / n) for n in num over prod eta(alpha_f / d) for d in
    den (one or two of each), and its relative error in units 2^-wp: the
    products are exact, so the factors' relative errors add, and the division
    rounds once."""
    vals, rel = [], ROUND_ULPS
    for n in num + den:
        v, r = table.eta(f, n, wp)
        vals.append(v)
        rel += r
    return div(reduce(mul, vals[:len(num)]), reduce(mul, vals[len(num):]), wp), rel


def double_eta_quotient(z: UpperHalfPoint, p1: int, p2: int, prec: int) -> ApComplex:
    """w = eta(z/p1) eta(z/p2) / (eta(z) eta(z/N)), absolute error certified
    below 2^(guard - prec) with at most MAX_PRECISION bits (`_to_target`)."""
    check_distinct_odd_primes(p1, p2)

    def evaluate(f: Form, p: int, table: EtaTable) -> tuple[Value, float]:
        wp = p + eta_guard_bits(p) + 16
        value, rel = _eta_quotient(f, (p1, p2), (1, p1 * p2), wp, table)
        return value, _abs_err(value, rel, wp)

    return _to_target(z, prec, evaluate, "quotient")


def w_pow_s(z: UpperHalfPoint, p1: int, p2: int, prec: int) -> ApComplex:
    """w^s, absolute error certified below 2^(guard - prec) with at most
    MAX_PRECISION bits (`_to_target`)."""
    check_distinct_odd_primes(p1, p2)
    return _to_target(z, prec, lambda f, p, table: w_pow_s_with_err(f, p1, p2, p, table), "w^s")


def w_pow_s_with_err(f: Form, p1: int, p2: int, prec: int,
                     table: EtaTable) -> tuple[Value, float]:
    """(w^s, log2 absolute error bound) at the basis quotient of f, evaluated
    once at prec + guard + 16 + 4s bits; the workhorse for class polynomials.

    table shares its eta series between the arguments of one attempt.  p1
    and p2 are not checked here; callers check them once
    (`arith.check_distinct_odd_primes`).  w^s, by `power`, is within
    s r + 3 (s - 1) u when w is within a relative r.
    """
    s = s_exponent(p1, p2)
    wp = prec + eta_guard_bits(prec) + 16 + 4 * s
    w, rel = _eta_quotient(f, (p1, p2), (1, p1 * p2), wp, table)
    value = power(w, s, wp)
    return value, _abs_err(value, s * rel + (s - 1) * ROUND_ULPS, wp)
