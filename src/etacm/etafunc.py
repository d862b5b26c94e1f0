"""Evaluation of the Dedekind eta function, the Klein J-invariant, and the
double eta-quotient at upper half-plane points, with certified error bounds.

Strategy: every eta argument is the root of an integer quadratic form, and
its Gauss-reduced form (`qforms._reduce`, exact) names the point of the
classical fundamental domain (-1/2 <= Re < 1/2, |z| >= 1) where the sparse
pentagonal-number series converges at a guaranteed >= 7.8 bits per exponent
unit.  A public point is an exact dyadic x + iy (`apcomplex`), and with
x = X/L and y = Y/L it is the root of the primitive part of
[L^2, -2XL, X^2 + Y^2].  The value at the original point is recovered
through the eta transformation formula (unimodular matrix, Jacobi-symbol
sign times a 24th root of unity times sqrt(cz+d)).  Everything else is an
eta quotient: the double quotient w, and Weber's f1(z) = eta(z/2) / eta(z),
which gives J.

Fractional powers of q are never taken through complex roots: at the root
of a reduced form [a, b, c], q^{1/24} = exp(pi*i*z/12) =
exp(-t) (cos theta - i sin theta) with t = pi sqrt|D| / (24a) and
theta = pi |b| / (24a) in [0, pi/24], which fixes the branch once and for
all; q itself is its 24th power.  It is built in integer fixed point
(`_q24`): t from floor(pi 2^Q) and one math.isqrt, split as n ln 2 + r,
exp(r) and cos/sin(theta) from the module's own fixed-point kernels, each
with its error derived in ulps (`_constant`, `_exp_fixed`,
`_cos_sin_fixed`), and 2^n kept in the value's exponent, so that its
relative precision holds at any Im.

The values are fixed-point Gaussian-integer triples (`apcomplex`), each with
an exponent of its own.  Inside the module a point is always the exact
integer form it is the root of, and every step returns a value with its
error in ulps u = 2^-wp of the working precision, relative to the value:
the series (`_eta_series`), the transformation formula
(`_eta_transform`), the eta values (`_eta_values`), the quotients and the
powers.  Each evaluation runs once, at a working precision set by
the requested one, and turns that into an absolute bound at its last step
only; a gate accepts it or not, and `apcomplex.double_until` is the only
loop that raises the precision.  The public point functions (`eta`,
`j_invariant`, `double_eta_quotient`, `w_pow_s`) name their point's form
once (`_form_of`), run that loop up to their target (`_to_target`), and
hand the exact value back as an `ApComplex`.

Every eta value at an arbitrary point comes from one batch call,
`_eta_values`, which names each reduced point by its reduced form, sums one
series per name ([a, -b, c], the mirror image, reuses the conjugate series
of [a, b, c]), and recovers every other value through the transformation
formula.  The 24th roots of unity are built from three integer square roots,
floor(sqrt(n) 2^P) for n = 2, 3, 6, all 24 at once per evaluation
(`_units`), with no cos/sin.  Which values share a series, and which units
get built, is decided here alone: callers only ask for values.

Every value of w, at an N-system form of a class polynomial, at a coset g
of a modular-polynomial sample point z_m (the form f_m.g^-1, which reduces
back to f_m with matrix +-g), or at a public point, is w at the root of a
form, and needs no eta value at its four arguments tau/d
(d in {1, p1, p2, N}).  With tau = m z, z the root of the reduced form and
m the reducing matrix, each matrix [[a, b], [dc, dd']] splits as M_d U_d
with M_d unimodular and U_d = [[alpha, beta], [0, delta]] (`hecke_split`),
so eta(m z/d) is eta at the Hecke point U_d z times the multiplier of M_d,
whose square roots sqrt(alpha_d (cz + d')) cancel in the quotient: w(m z)
is a 24th root of unity times a quotient of eta values at Hecke points
(`w_at_hecke_points`).  U_1 is the identity, so for a reduced z one of the
four is a series with no transform.  The Hecke points of many values are
listed once (`hecke_plan`, for H and Phi alike) and each is evaluated once
per attempt (`w_pow_s_at_hecke_points`).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from math import gcd

from .apcomplex import (
    MAX_PRECISION,
    ROUND_ULPS,
    ApComplex,
    UpperHalfPoint,
    add,
    check_prec,
    div,
    double_until,
    lg,
    log2add,
    mul,
    power,
    sqrt,
    trunc,
)
from .arith import check_distinct_odd_primes, jacobi
from .errors import PrecisionExhausted, PreconditionError
from .qforms import Form, Matrix, _primitive, _reduce, _xgcd

# log2 of the worst-case |q| on the fundamental domain: 2*pi*(sqrt(3)/2)/ln 2
_BITS_PER_Q_POWER = 2.0 * math.pi * (math.sqrt(3.0) / 2.0) / math.log(2.0)

IDENTITY: Matrix = (1, 0, 0, 1)

Value = tuple[int, int, int]  # (re, im, e): (re + i im) 2^e, see `apcomplex`
Quotient = tuple[int, int, int, int, int, int]  # see `w_pow_s_at_hecke_points`


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
    x, y, e = z.value.triple
    x, y, L = (x << e, y << e, 1) if e >= 0 else (x, y, 1 << -e)
    return _primitive(L * L, -2 * x * L, x * x + y * y)


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


def _units(wp: int) -> list[Value]:
    """exp(pi i k / 12) for k = 0, ..., 23, each within 0.003u relative
    (u = 2^-wp), and exact when 6 | k.

    zeta_24^k = i^(k // 6) zeta_24^(k mod 6), each step of 6 an exact
    multiplication by i, and the six units (1, 0), ((r6 + r2)/4, (r6 - r2)/4),
    (r3/2, 1/2), (r2/2, r2/2), (1/2, r3/2) and ((r6 - r2)/4, (r6 + r2)/4),
    rn = sqrt(n), are built from floor(rn 2^P) = isqrt(n 2^2P) at
    P = wp + 8.  Each part is then within 2^-(P+1), so the unit within
    0.71 2^-P.
    """
    P = wp + 8
    r2, r3, r6 = (math.isqrt(n << 2 * P) for n in (2, 3, 6))
    one = 4 << P  # the units in 2^-(P+2)
    units = [(one, 0), (r6 + r2, r6 - r2), (2 * r3, one >> 1), (2 * r2, 2 * r2),
             (one >> 1, 2 * r3), (r6 - r2, r6 + r2)]
    for _ in range(3):
        units += [(-im, re) for re, im in units[-6:]]
    return [(re, im, -(P + 2)) for re, im in units]


# The fixed-point constants and kernels under `_q24`: an argument or result
# x at Q bits stands for x 2^-Q, and an ulp is 2^-Q.

# name -> (terms (k, m), hyperbolic): the constant is the sum of k acot(m),
# or of k acoth(m) if hyperbolic
_MACHIN = {
    "pi": (((176, 57), (28, 239), (-48, 682), (96, 12943)), False),  # Stormer's formula
    "ln2": (((18, 26), (-2, 4801), (8, 8749)), True),
}
# name -> (M, lo, hi) with lo <= c 2^M <= hi, at the highest M asked so far
_CONSTANTS: dict[str, tuple[int, int, int]] = {}
# cos/sin at Q bits up to _TABLE_MAX come from a table of cos and sin at the
# points n 2^-8, n = 0, ..., 33, kept at _TABLE_BITS; above, and for exp
# above _SPLIT_MAX, from `_even_series` at a halved argument
_TABLE_MAX = 400
_SPLIT_MAX = 600
_TABLE_BITS = _TABLE_MAX + 32
_COS_SIN_TABLE: dict[int, tuple[int, int]] = {}


def _acot(m: int, P: int, hyperbolic: bool) -> tuple[int, int]:
    """(v, K): v within 1.5K units 2^-P of acot(m) 2^P (acoth(m) 2^P if
    hyperbolic) for an integer m >= 2, from K terms of
    sum_k (+-1)^k / ((2k + 1) m^(2k+1)) (all + if hyperbolic).

    a_0 = floor(2^P / m) and a_k = floor(a_(k-1) / m^2) are each below
    2^P / m^(2k+1) by less than 1 + 1/4 + 1/16 + ... = 4/3, so each term
    floor(a_k / (2k + 1)) is within 1 (k = 0) or 4/9 + 1 < 1.45 units.  The
    last term has a_k = 0, so the terms left out sum to below 0.2 units.
    """
    a = (1 << P) // m
    v, k, m2 = a, 1, m * m
    while a:
        a //= m2
        t = a // (2 * k + 1)
        v += -t if k & 1 and not hyperbolic else t
        k += 1
    return v, k


def _constant(name: str, Q: int) -> int:
    """floor(c 2^Q), exactly, for the constant c = pi or ln 2 named in
    `_MACHIN`.

    c 2^M lies in [lo, hi] (`_CONSTANTS`), so floor(c 2^Q) lies between
    lo >> (M - Q) and hi >> (M - Q), and is read off when the two agree.
    Otherwise (Q above M, or c 2^Q within (hi - lo) 2^(Q-M) of an integer)
    the sum is redone at a higher M, within 2k K units for each term k of
    K terms (`_acot`); c is irrational, so this ends.
    """
    M, lo, hi = _CONSTANTS.get(name, (0, 0, 0))
    while True:
        s = M - Q
        if s >= 0 and (f := lo >> s) == hi >> s:
            return f
        M = max(M + M // 4, Q + Q // 4) + 64
        terms, hyperbolic = _MACHIN[name]
        v = err = 0
        for k, m in terms:
            x, n = _acot(m, M, hyperbolic)
            v, err = v + k * x, err + 2 * abs(k) * n
        lo, hi = v - err, v + err
        _CONSTANTS[name] = M, lo, hi


def _even_series(y: int, W: int, alternating: bool) -> int:
    """cos(y 2^-W) 2^W if alternating, else cosh(y 2^-W) 2^W, for
    0 <= y < 2^(W-2): within 2.1 (n + m) units 2^-W, and for cosh below it,
    where n is the number of terms summed and m = max(2, bitlen(W) // 3).

    Smith's concurrent series (Brent and Zimmermann, Modern Computer
    Arithmetic, 2010, 4.4): the terms y^(2j) / (2j)! go to m sums by j mod
    m, each term from the one before by a floor division by (2j - 1) 2j, and
    by one multiplication by y^(2m) every m terms; the sums are then joined
    by Horner's rule in y^2.  Every floor costs under a unit, and a term's
    error shrinks at least 12-fold at its next division, so every term is
    within 2 units (m <= 10), y^2 within 1 and y^(2m) within m; Horner adds
    under 2.1 units per sum.  Every step of cosh rounds down.
    """
    m = max(2, W.bit_length() // 3)
    one = 1 << W
    y2 = y * y >> W
    ym = y2
    for _ in range(m - 1):
        ym = ym * y2 >> W
    sums = [0] * m
    a, n = one, 0
    while a:
        for i in range(m):
            if n:
                a //= (2 * n - 1) * 2 * n
            sums[i] += -a if alternating and n & 1 else a
            n += 1
        a = a * ym >> W
    s = sums[-1]
    for c in reversed(sums[:-1]):
        s = c + (s * y2 >> W)
    return s


def _halving(x: int, Q: int) -> tuple[int, int]:
    """(k, g) for an argument 0 < x < 2^Q of `_even_series`, with
    z = Q - bitlen(x), so that x < 2^(Q-z): k = max(k0 - z, 0) halvings,
    k0 = floor(sqrt Q) // 3, so that y = x 2^-(Q+k) < 2^-max(z, k0); and
    g = 2k + z + 16 guard bits.

    With W = Q + g, the series then sums n <= W / (2 max(z, k0)) + m + 1
    terms, fewer than Q / (2 k0) + m + 4: under 560 for Q < 2^17, so that
    its error E0 = 2.1 (n + m) < 2^11.
    """
    z = Q - x.bit_length()
    k = max(math.isqrt(Q) // 3 - z, 0)
    return k, 2 * k + z + 16


def _exp_fixed(r: int, Q: int) -> int:
    """exp(r 2^-Q) 2^Q for 0 <= r < ln 2 2^Q, within 2^7 ulps below.

    Up to _SPLIT_MAX bits: the Taylor series at y = r 2^-(Q+k),
    k = floor(sqrt Q), with W = Q + k bits, split into its even and odd
    powers (s0 + y s1) to halve the multiplications, then squared k times.
    Every step rounds down.  Each term is within 2 units 2^-W, and there are
    at most sqrt Q / 2 + 2 of each parity, so s0 + y s1 is within
    E = sqrt Q + 8 units relative; each squaring doubles a relative error and
    adds a unit, so after k of them it is within (E + 1) 2^k units, that is
    E + 1 ulps, and the result within 2 (E + 1) + 1 = 2 sqrt Q + 19 < 2^7.

    Above: y = r 2^-(Q+k) and g guard bits by `_halving`, W = Q + g;
    c = cosh y (`_even_series`) is within E0 < 2^11 units below, and
    sinh y = sqrt(c^2 - 1) from one isqrt, within 2 cosh(y) E0 / sinh(y) + 1
    <= 4.01 E0 2^(z+k) + 1 units below, since y >= 2^-(z+k+1).  Their sum
    exp y is within 5 E0 2^(z+k) + 1 units relative, and after the k
    squarings the result within 5 E0 2^(2k+z+1-g) + 1.01 < 1.4 ulps
    (exp < 2).  r = 0 gives 2^Q exactly.
    """
    if Q > _SPLIT_MAX:
        k, g = _halving(r, Q)
        W = Q + g
        c = _even_series(r << (g - k), W, False)
        s = c + math.isqrt(c * c - (1 << 2 * W))
    else:
        k = g = math.isqrt(Q)
        W = Q + k
        x2 = a = r * r >> W
        s0 = s1 = 1 << W
        j = 2
        while a:
            a //= j
            s0 += a
            a //= j + 1
            s1 += a
            a = a * x2 >> W
            j += 2
        s = s0 + (s1 * r >> W)
    for _ in range(k):
        s = s * s >> W
    return s >> g


def _cos_sin_fixed(x: int, Q: int) -> tuple[int, int]:
    """(cos, sin)(x 2^-Q) 2^Q for 0 <= x <= pi/24 2^Q, each within 2^7 ulps.

    Up to _TABLE_MAX bits: x = t + d with t = floor(x 2^(8-Q)) 2^(Q-8);
    cos and sin at t come from the table (`_COS_SIN_TABLE`, each entry from
    this kernel at _TABLE_BITS, within 2 of its ulps, so within
    1 + 2^-30 ulps once shifted down), and at d < 2^(Q-8) from their Taylor
    series at Q bits.  Each floor costs under an ulp and a term's error
    shrinks 2^9-fold at the next, so each term is within 2.01 ulps, and the
    at most Q/16 + 2 terms of each series are within e = 0.126Q + 5.1 ulps
    with the tail.  The angle-addition products, cut once, are then within
    e (1 + sin(pi/24)) + 2.01 < Q/7 + 8 < 2^7 ulps.

    Above: y = x 2^-(Q+k) and g guard bits by `_halving`, W = Q + g;
    c = cos y (`_even_series`) is within E0 < 2^11 units, and each of the k
    doublings c -> 2c^2 - 1 multiplies an error by at most 4.0001 and adds a
    unit, so cos x is within 1.02 4^k E0 units, 1.02 E0 2^-(z+16) + 1 < 1.1
    ulps (z >= 2 as x < 2^(Q-2.9)).  sin x = sqrt(1 - cos^2 x) from one
    isqrt is within 2.001 e / sin x + 1 units for a cos within e units; with
    sin x >= 0.997 x >= 0.997 2^-(z+1) that is 4.1 E0 2^-16 + 1.01 < 1.2
    ulps.  x = 0 gives (2^Q, 0) exactly.
    """
    if Q > _TABLE_MAX:
        if not x:
            return 1 << Q, 0
        k, g = _halving(x, Q)
        W = Q + g
        c = _even_series(x << (g - k), W, True)
        one = 1 << W
        for _ in range(k):
            c = (c * c >> (W - 1)) - one
        return c >> g, math.isqrt(abs((one << W) - c * c)) >> g
    n = x >> (Q - 8)
    hit = _COS_SIN_TABLE.get(n)
    if hit is None:
        hit = _COS_SIN_TABLE[n] = _cos_sin_fixed(n << (_TABLE_BITS - 8), _TABLE_BITS)
    ct, st = hit[0] >> (_TABLE_BITS - Q), hit[1] >> (_TABLE_BITS - Q)
    d = x - (n << (Q - 8))
    cos, sin, j = 1 << Q, d, 2
    a = -(d * d >> Q)
    while a:
        a //= j
        cos += a
        a = a * d >> Q
        a //= j + 1
        sin += a
        a = -(a * d >> Q)
        j += 2
    return (cos * ct - sin * st) >> Q, (sin * ct + cos * st) >> Q


def _q24(a: int, b: int, D: int, Q: int) -> Value:
    """q^(1/24) = exp(pi i tau / 12) at the root tau = (-b + sqrt(D)) / (2a)
    of a reduced form with 0 <= b <= a, in integer fixed point at Q bits:
    within (2.4t + 2^10) 2^-Q relative, t = pi sqrt|D| / (24a) = -log |q^(1/24)|.

    q^(1/24) = exp(-t) (cos theta - i sin theta), theta = pi b / (24a) in
    [0, pi/24].  In ulps 2^-Q:
    - floor(pi 2^Q) (`_constant`) and s = isqrt(|D| 2^2Q) are each within an
      ulp below, so their product is within (1/pi + 1/sqrt|D|) < 0.9 ulps
      relative (|D| >= 3), and the floor division T = t 2^Q within
      0.9t + 1 ulps.
    - -T = n L + r with L = floor(ln 2 2^Q) (`_constant`) and 0 <= r < L:
      n L is within |n| <= t / ln 2 + 1 ulps of n ln 2, so
      exp(-t) = 2^n exp(r 2^-Q) within (2.35t + 2) ulps relative.
    - `_exp_fixed`(r) >= 2^Q is within 2^7 ulps.
    - theta = floor(pi b / (24a)) is within 1.05 ulps, and `_cos_sin_fixed`
      gives cos and sin within 2^7 ulps each.
    - The two products, cut to Q bits by rounding down: sqrt(2) ulps.
    That is 2.35t + 2 + 2^7 + 1.05 + 2^7 sqrt(2) + sqrt(2) < 2.4t + 2^10
    with the second-order terms.  The 2^n stays in the exponent, so the
    bound is relative at any Im.
    """
    pi = _constant("pi", Q)
    n, r = divmod(-(pi * math.isqrt(-D << 2 * Q) // (24 * a << Q)), _constant("ln2", Q))
    e = _exp_fixed(r, Q)
    cos, sin = _cos_sin_fixed(pi * b // (24 * a), Q)
    return (e * cos) >> Q, -(e * sin) >> Q, n - Q


def _eta_series(a: int, b: int, D: int, wp: int) -> tuple[Value, float]:
    """eta at the root tau = (-b + sqrt(D)) / (2a) of a reduced form with
    0 <= b <= a, by the pentagonal-number series
        eta = q^(1/24) (1 + sum_{k=1..K} (-1)^k (q^(g_k) + q^(g_k + k))),
    and its relative error bound in units u = 2^-wp.

    - q^(1/24) comes from `_q24` at Q = wp + 22 + bitlen(floor(t) + 1)
      bits, t = pi Im(tau) / 12: as t < 2^(Q - wp - 22), its
      (2.4t + 2^10) 2^-Q is below 0.001u relative.
    - q = (q^(1/24))^24 by `power` is within 24 * 0.001u + 23 * 3u < 70u
      relative, and |q| < 0.0044 on the fundamental domain, so rounded down
      to the fixed point 2^-wp it is within 0.31u + sqrt(2)u < 1.8u.
    - The sum runs in that fixed point.  Each product of two powers of q,
      each within 2u, is within 0.0044 (2u + 2u) + sqrt(2)u < 2u, as the
      product rounds down; so each of the K terms is within 4u, and the sum
      of exact additions within 4K u plus the tail (`_series_terms`), below
      2^-(wp+8).  The sum is at least 1 - 2.01 * 0.0044 > 0.99 in modulus,
      so it is within (4.05K + 0.01)u relative.
    - eta is the product, cut to wp bits: within (4.05K + 3.02)u.
    """
    t = math.pi * math.sqrt(-D / (4 * a * a)) / 12
    w24 = _q24(a, b, D, wp + 22 + (int(t) + 1).bit_length())
    qr, qi, e = power(w24, 24, wp)
    e += wp  # the shift to the fixed point 2^-wp
    qr, qi = (qr << e, qi << e) if e >= 0 else (qr >> -e, qi >> -e)
    kmax = _series_terms(wp, 24 * t / math.log(2.0))
    # products in the fixed point, each part rounded down: q^3, and
    # q^(3k+1), q^(g_k) and q^k from k = 1 on
    q2r, q2i = (qr * qr - qi * qi) >> wp, (2 * qr * qi) >> wp
    q3r, q3i = (q2r * qr - q2i * qi) >> wp, (q2r * qi + q2i * qr) >> wp
    sr, si = (q3r * qr - q3i * qi) >> wp, (q3r * qi + q3i * qr) >> wp
    ar, ai = kr, ki = qr, qi
    tr, ti = 1 << wp, 0
    for k in range(1, kmax + 1):
        br, bi = (ar * kr - ai * ki) >> wp, (ar * ki + ai * kr) >> wp
        if k & 1:
            tr, ti = tr - ar - br, ti - ai - bi
        else:
            tr, ti = tr + ar + br, ti + ai + bi
        ar, ai = (ar * sr - ai * si) >> wp, (ar * si + ai * sr) >> wp
        sr, si = (sr * q3r - si * q3i) >> wp, (sr * q3i + si * q3r) >> wp
        kr, ki = (kr * qr - ki * qi) >> wp, (kr * qi + ki * qr) >> wp
    return trunc(mul(w24, (tr, ti, -wp)), wp), 4.05 * kmax + 3.1


def _abs_err(x: Value, rel: float, wp: int) -> float:
    """log2 of the absolute error of x, from its relative error in units 2^-wp."""
    return lg(x) + math.log2(rel) - wp


def _eta_transform(series: Value, rel: float, f: Form, m: Matrix, wp: int,
                   units: list[Value]) -> tuple[Value, float]:
    """eta(z) at the root z of f = [A, B, C], from the series value at the
    reduced point m z, and its relative error in units u = 2^-wp.

    eta(z) = series / (sign zeta_24^k sqrt(cz + d)), and with
    cz + d = w / (4A^2), w = 2A(2Ad - cB) + i c sqrt(4A^2 |disc f|),
    1 / sqrt(cz + d) = 2A / sqrt(w).  The imaginary part of w is rounded
    down at 2^-(wp+8) and is at least 1 when c > 0, so sqrt(w) is within
    2^-(wp+9) + 3u; with the unit (0.1u, `_units`) and the division (3u)
    that is at most 6.2u on top of the series' own error.  A translation
    (c = 0) needs the unit alone.
    """
    if m == IDENTITY:
        return series, rel
    c, d, sign, k = eta_multiplier(m)
    ur, ui, ue = units[k]
    num = mul(series, (sign * ur, -sign * ui, ue))
    if c == 0:
        return trunc(num, wp), rel + ROUND_ULPS + 0.1
    (A, B, C), s = f, wp + 8
    w = (2 * A * (2 * A * d - c * B) << s,
         math.isqrt((4 * A * A * c * c * (4 * A * C - B * B)) << (2 * s)), -s)
    return div(mul(num, (2 * A, 0, 0)), sqrt(w, wp), wp), rel + 2 * ROUND_ULPS + 0.2


def _eta_values(forms: list[Form], wp: int, units: list[Value]) -> list[tuple[Value, float]]:
    """eta at the root of each primitive form, and its relative error in
    units 2^-wp, with the 24th roots of unity `_units(wp)`.

    The reduced form G = [A, B, C] = F.M of a form F names its point: M^-1
    takes the root of G to that of F.  One series is summed per name, and
    [A, -B, C] shares it, since its root is -conj(alpha_G) and
    eta(-conj z) = conj(eta(z)); every other value comes through the
    transformation formula (`_eta_transform`).
    """
    series: dict[Form, tuple[Value, float]] = {}
    out = []
    for f in forms:
        (A, B, C), (p, q, r, s) = _reduce(f)
        key = (A, abs(B), C)
        hit = series.get(key)
        if hit is None:
            hit = series[key] = _eta_series(A, abs(B), B * B - 4 * A * C, wp)
        (re, im, e), rel = hit
        out.append(_eta_transform((re, -im if B < 0 else im, e), rel, f, (s, -q, -r, p), wp,
                                  units))
    return out


def _to_target(z: UpperHalfPoint, prec: int,
               evaluate: Callable[[Form, int], tuple[Value, float]],
               what: str) -> ApComplex:
    """evaluate(f, p) at z's form f, for p = prec, 2 prec, ... up to
    MAX_PRECISION, until its bound is below 2^(eta_guard_bits(prec) - prec)."""
    check_prec(prec)
    f = _form_of(z)
    target = eta_guard_bits(prec) - prec

    def attempt(p: int) -> Value | None:
        value, err = evaluate(f, p)
        return value if err <= target else None

    return ApComplex(double_until(prec, MAX_PRECISION, attempt, what), prec)


def eta(z: UpperHalfPoint, prec: int) -> ApComplex:
    """Dedekind eta, absolute error certified below 2^(guard - prec) with at
    most MAX_PRECISION bits (`_to_target`)."""
    def evaluate(f: Form, p: int) -> tuple[Value, float]:
        wp = p + eta_guard_bits(p)
        [(value, rel)] = _eta_values([f], wp, _units(wp))
        return value, _abs_err(value, rel, wp)

    return _to_target(z, prec, evaluate, "eta")


def j_invariant(z: UpperHalfPoint, prec: int) -> ApComplex:
    """Klein J (J(i) = 1728), absolute error certified below 2^(guard - prec)
    with at most MAX_PRECISION bits (`_to_target`).  |J| itself takes
    `_j_bits` more, so a point where prec + `_j_bits` passes MAX_PRECISION
    (Im above about 7200) is refused at once with PrecisionExhausted."""
    check_prec(prec)
    need = prec + _j_bits(_form_of(z))
    if need > MAX_PRECISION:
        raise PrecisionExhausted(f"J needs {need} bits, more than max_prec = {MAX_PRECISION}")
    return _to_target(z, prec, j_invariant_with_err, "J")


def _j_bits(f: Form) -> int:
    """ceil(log2 e^(2 pi Im)) = ceil(2 pi Im / ln 2), the bits of |J| at the
    reduced point of f, whose Im is sqrt|D| / (2A) for its reduced form
    [A, B, C]."""
    a, b, c = _reduce(f)[0]
    im = math.exp(math.log(4 * a * c - b * b) / 2 - math.log(2 * a))
    return math.ceil(2.0 * math.pi * im / math.log(2.0))


def j_invariant_with_err(f: Form, prec: int) -> tuple[Value, float]:
    """(J, log2 absolute error bound) at the basis quotient of f, from Weber's
    f1(z) = eta(z/2) / eta(z): J = (x + 16)^3 / x with x = f1^24 (Yui and
    Zagier, Math. Comp. 66, 1997).

    f1, from eta at alpha_f / 2 and alpha_f (`_eta_values`), is within a
    relative r, the sum of their bounds and the division's 3u.  Then
    x = f1^24 is within r_x = 24 r + 69u (`power`), and since
    dJ/dx = (x + 16)^2 (2x - 16) / x^2, to first order
        |dJ| <= |x + 16|^2 |2x - 16| / |x| * r_x.
    Forming (x + 16)^3 / x rounds three times, 9u of J; one more bit covers
    the second-order terms.  |J| ~ e^{2 pi Im} at the reduced point, so it
    is evaluated once, at prec + guard + `_j_bits` + 32.
    """
    wp = prec + eta_guard_bits(prec) + _j_bits(f) + 32
    (v2, r2), (v1, r1) = _eta_values([hecke_point(f, (1, 0, 0, 2)), f], wp, _units(wp))
    x = power(div(v2, v1, wp), 24, wp)
    rel = r2 + r1 + ROUND_ULPS
    x16 = add(x, (16, 0, 0))
    value = div(power(x16, 3, wp), x, wp)
    dj = (2 * lg(x16) + lg(add(add(x, x), (-16, 0, 0))) - lg(x) + 2.0 ** -29
          + math.log2(24 * rel + 23 * ROUND_ULPS) - wp)
    return value, log2add(dj, _abs_err(value, 3 * ROUND_ULPS, wp)) + 1


def s_exponent(p1: int, p2: int) -> int:
    """Canonical power s = 24 / gcd(24, (p1-1)(p2-1))."""
    return 24 // gcd(24, (p1 - 1) * (p2 - 1))


def double_eta_quotient(z: UpperHalfPoint, p1: int, p2: int, prec: int) -> ApComplex:
    """w = eta(z/p1) eta(z/p2) / (eta(z) eta(z/N)), absolute error certified
    below 2^(guard - prec) with at most MAX_PRECISION bits (`_to_target`):
    w^s for s = 1."""
    check_distinct_odd_primes(p1, p2)

    def evaluate(f: Form, p: int) -> tuple[Value, float]:
        return w_pow_s_at_hecke_points(*hecke_plan([f], p1, p2), 1, p)[0]

    return _to_target(z, prec, evaluate, "quotient")


def w_pow_s(z: UpperHalfPoint, p1: int, p2: int, prec: int) -> ApComplex:
    """w^s, absolute error certified below 2^(guard - prec) with at most
    MAX_PRECISION bits (`_to_target`)."""
    check_distinct_odd_primes(p1, p2)
    return _to_target(z, prec, lambda f, p: w_pow_s_with_err(f, p1, p2, p), "w^s")


def _power_with_err(w: Value, rel: float, s: int, wp: int) -> tuple[Value, float]:
    """(w^s, log2 absolute error bound) for w within a relative rel: by
    `power`, within s rel + 3 (s - 1) u."""
    value = power(w, s, wp)
    return value, _abs_err(value, s * rel + (s - 1) * ROUND_ULPS, wp)


def w_pow_s_with_err(f: Form, p1: int, p2: int, prec: int) -> tuple[Value, float]:
    """(w^s, log2 absolute error bound) at the basis quotient of f, from eta
    at the Hecke points of its reduced form (`hecke_plan`), evaluated once at
    prec + guard + 16 + 4s bits.

    p1 and p2 are not checked here; callers check them once
    (`arith.check_distinct_odd_primes`).
    """
    return w_pow_s_at_hecke_points(*hecke_plan([f], p1, p2), s_exponent(p1, p2), prec)[0]


def hecke_split(m: Matrix, d: int) -> tuple[Matrix, Matrix]:
    """(M, U) with M U = [[a, b], [d c, d d']] for m = [[a, b], [c, d']],
    normalized so that c > 0, or c = 0 and d' > 0.

    U = [[alpha, beta], [0, delta]] with alpha = gcd(a, d c), alpha delta = d
    and 0 <= beta < delta, and M is unimodular with first column
    (a, d c) / alpha: so c_M = d c / alpha >= 0, and d_M = alpha d' > 0 when
    c_M = 0.  Then m z / d = M (U z), and c_M U z + d_M = alpha (c z + d').
    """
    a, b, c, dd = m
    alpha = gcd(a, d * c)
    delta, p, r = d // alpha, a // alpha, d * c // alpha
    _, y, x = _xgcd(p, r)  # p y + r x = 1: the second column is (-x, y)
    beta0 = y * b + x * d * dd
    t, beta = divmod(beta0, delta)
    return (p, t * p - x, r, t * r + y), (alpha, beta, 0, delta)


def hecke_point(f: Form, u: Matrix) -> Form:
    """The primitive form whose root is (alpha z + beta) / delta, for the root
    z of f = [A, B, C] and u = [[alpha, beta], [0, delta]]."""
    A, B, C = f
    alpha, beta, _, delta = u
    return _primitive(A * delta * delta, delta * (B * alpha - 2 * A * beta),
                      A * beta * beta - B * alpha * beta + C * alpha * alpha)


def w_at_hecke_points(m: Matrix, p1: int, p2: int) -> tuple[tuple[Matrix, ...], int, int]:
    """((U_p1, U_p2, U_1, U_N), K, sign) with, for every z,

        w(m z) = sign zeta_24^K eta(U_p1 z) eta(U_p2 z) / (eta(U_1 z) eta(U_N z)),

    N = p1 p2, from the splits (M_d, U_d) of m (`hecke_split`) and the
    multipliers (sign_d, k_d) of M_d (`eta_multiplier`): sign is the product
    of the four signs, and K = k_p1 + k_p2 - k_1 - k_N mod 24.
    eta(m z / d) = sign_d zeta_24^(k_d) sqrt(alpha_d (c z + d')) eta(U_d z)
    with the same c z + d' for all four d, alpha_1 = 1, and
    alpha_p1 alpha_p2 = alpha_N as gcd(a, c) = 1: the square roots cancel.
    """
    a, b, c, d = m
    if c < 0 or (c == 0 and d < 0):
        m = (-a, -b, -c, -d)
    us, k, sign = [], 0, 1
    for n, e in ((p1, 1), (p2, 1), (1, -1), (p1 * p2, -1)):
        big, u = hecke_split(m, n)
        _, _, sign_n, k_n = eta_multiplier(big)
        us.append(u)
        k, sign = k + e * k_n, sign * sign_n
    return tuple(us), k % 24, sign


def hecke_plan(forms: list[Form], p1: int, p2: int) -> tuple[list[Form], list[Quotient]]:
    """The forms of the Hecke points of the forms' roots, each listed once,
    and for each form f the quotient (i1, i2, i0, iN, K, sign) of
    `w_pow_s_at_hecke_points` with w(alpha_f) = sign zeta_24^K eta_i1 eta_i2 /
    (eta_i0 eta_iN).

    With (g, R) = `_reduce(f)`, alpha_f = R alpha_g, so w(alpha_f) comes from
    eta at the Hecke points U_d alpha_g (`w_at_hecke_points`), worked out once
    per distinct R within the call: the cosets of a modular polynomial repeat
    their R at every sample point.  U_1 is the identity and g is reduced, so
    eta_i0 is a series with no transform.
    """
    index: dict[Form, int] = {}
    splits: dict[Matrix, tuple[tuple[Matrix, ...], int, int]] = {}
    quotients = []
    for f in forms:
        g, m = _reduce(f)
        if m not in splits:
            splits[m] = w_at_hecke_points(m, p1, p2)
        us, k, sign = splits[m]
        quotients.append((*(index.setdefault(hecke_point(g, u), len(index)) for u in us),
                          k, sign))
    return list(index), quotients


def w_pow_s_at_hecke_points(points: list[Form],
                            quotients: list[Quotient],
                            s: int, prec: int) -> list[tuple[Value, float]]:
    """(w^s, log2 absolute error bound) of each quotient
    (i1, i2, i0, iN, K, sign) = sign zeta_24^K eta_i1 eta_i2 / (eta_i0 eta_iN)
    over the eta values at the points (`w_at_hecke_points`, `hecke_plan`),
    evaluated once each at wp = prec + guard + 16 + 4s bits (`_eta_values`),
    with one set of 24th roots of unity (`_units`) per call.

    The products are exact and the unit, within 0.1u, is multiplied into the
    numerator, so w is within the sum of the four eta bounds, 0.1u and the
    division's rounding.
    """
    wp = prec + eta_guard_bits(prec) + 16 + 4 * s
    units = _units(wp)
    etas = _eta_values(points, wp, units)
    out = []
    for i1, i2, i0, iN, k, sign in quotients:
        (v1, r1), (v2, r2), (v0, r0), (vN, rN) = etas[i1], etas[i2], etas[i0], etas[iN]
        num, rel = mul(v1, v2), r1 + r2 + r0 + rN + ROUND_ULPS
        if k or sign < 0:
            ur, ui, ue = units[k]
            num, rel = mul(num, (sign * ur, sign * ui, ue)), rel + 0.1
        out.append(_power_with_err(div(num, mul(v0, vN), wp), rel, s, wp))
    return out
