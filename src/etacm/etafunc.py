"""Evaluation of the Dedekind eta function, the Klein J-invariant, and the
double eta-quotient at upper half-plane points, with certified error bounds.

Strategy: every eta argument is the root of an integer quadratic form, and
its Gauss-reduced form (`qforms.reduce_form`, exact) names the point of the
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

Each evaluator tracks one accumulated absolute-error bound (as a log2
exponent) per value, and `eta`, `j_invariant`, `double_eta_quotient` and
`w_pow_s_with_err` all accept it, or retry with more bits and finally raise
PrecisionExhausted, through one helper (`_certified`).

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
from operator import mul

from mpmath.libmp import (
    from_int,
    from_rational,
    mpc_pow_int,
    mpf_cos_sin_pi,
    mpf_div,
    mpf_exp,
    mpf_mul,
    mpf_neg,
    mpf_pi,
    to_float,
    to_rational,
)

from .apcomplex import MIN_PREC, RND, ApComplex, UpperHalfPoint
from .arith import check_distinct_odd_primes, jacobi
from .errors import PreconditionError, PrecisionExhausted
from .qforms import Matrix, QuadraticForm, reduce_form

# log2 of the worst-case |q| on the fundamental domain: 2*pi*(sqrt(3)/2)/ln 2
_BITS_PER_Q_POWER = 2.0 * math.pi * (math.sqrt(3.0) / 2.0) / math.log(2.0)

IDENTITY: Matrix = (1, 0, 0, 1)


def apply_moebius(m: Matrix, z: ApComplex, prec: int | None = None) -> ApComplex:
    """(a*z + b) / (c*z + d) at the given working precision."""
    a, b, c, d = m
    p = prec if prec is not None else z.prec
    zz = z.at_prec(p)
    num = zz * a + b
    den = zz * c + d
    return num / den


def _series_terms(wp: int, im_bits: float) -> int:
    """Largest pentagonal index K needed so the tail is below 2^-(wp+4)."""
    k = int(math.sqrt(2.0 * (wp + 8) / (3.0 * im_bits))) + 2
    while (k * (3 * k - 1)) // 2 * im_bits < wp + 8:
        k += 1
    return k


def eta_guard_bits(prec: int) -> int:
    """Guard bits: 32 + ceil(log2(number of series terms)) at worst-case decay."""
    k = _series_terms(prec, _BITS_PER_Q_POWER)
    return 32 + max(1, math.ceil(math.log2(2 * k + 1)))


def _form_of(z: UpperHalfPoint) -> QuadraticForm:
    """The primitive form whose root is exactly z: x + iy with x = X/L and
    y = Y/L is the root of [L^2, -2XL, X^2 + Y^2]."""
    (xn, xd), (yn, yd) = to_rational(z.value.re), to_rational(z.value.im)
    d = math.lcm(xd, yd)
    x, y = xn * (d // xd), yn * (d // yd)
    return QuadraticForm.primitive(d * d, -2 * x * d, x * x + y * y)


def reduce_to_fundamental_domain(z: UpperHalfPoint) -> tuple[UpperHalfPoint, Matrix]:
    """Unimodular M and z' = Mz, exactly Gauss-reduced: -1/2 <= Re z' < 1/2,
    |z'| >= 1, and Re z' <= 0 when |z'| = 1.

    z' is the root of the reduced form G = F.R of z's form F (`reduce_form`),
    rounded to z's precision, and M = R^-1.
    """
    g, (p, q, r, s) = reduce_form(_form_of(z))
    return UpperHalfPoint.from_form(g.a, g.b, g.discriminant, z.prec), (s, -q, -r, p)


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


def _zeta24(k: int, wp: int) -> ApComplex:
    """exp(pi i k / 12) at precision wp."""
    cos, sin = mpf_cos_sin_pi(from_rational(k, 12, wp, RND), wp, RND)
    return ApComplex(cos, sin, wp)


def _eta_series(zred: ApComplex, wp: int) -> tuple[ApComplex, float]:
    """eta at a fundamental-domain point by the pentagonal-number series.

    Returns (value, log2 absolute error bound).
    """
    # q^{1/24} = exp(pi*i*z/12) straight from z, and q its 24th power
    pi = mpf_pi(wp)
    cos, sin = mpf_cos_sin_pi(mpf_div(zred.re, from_int(12), wp, RND), wp, RND)
    r = mpf_exp(mpf_neg(mpf_div(mpf_mul(pi, zred.im, wp, RND), from_int(12), wp, RND)), wp, RND)
    w24 = ApComplex(mpf_mul(r, cos, wp, RND), mpf_mul(r, sin, wp, RND), wp)
    q = ApComplex(*mpc_pow_int(w24.mpc, 24, wp, RND), wp)
    im_bits = 2.0 * math.pi * to_float(zred.im, strict=False) / math.log(2.0)
    kmax = _series_terms(wp, im_bits)

    one = ApComplex.make(1, 0, wp)
    total = one
    a_pow = q                     # q^{g_k},  g_k = k(3k-1)/2
    qk = q                        # q^k
    q3 = ApComplex(*mpc_pow_int(q.mpc, 3, wp, RND), wp)
    qstep = ApComplex(*mpc_pow_int(q.mpc, 4, wp, RND), wp)   # q^{3k+1}
    sign = -1
    for _ in range(1, kmax + 1):
        term = a_pow + a_pow * qk
        total = total + term * sign
        sign = -sign
        a_pow = a_pow * qstep
        qstep = qstep * q3
        qk = qk * q
    value = w24 * total
    # tail < 2^-(wp+6); rounding: ~6 ops/term on values bounded by 2
    err = -wp + 1.5 + math.log2(6 * kmax + 8)
    return value, err


# eta_at(z / den, den, wp): eta(z / den) and its log2 error bound, for the
# point z that the table view was made for
EtaAt = Callable[[ApComplex, int, int], tuple[ApComplex, float]]


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

    def _eta_transform(self, series: ApComplex, err: float, z: ApComplex, m: Matrix,
                       wp: int) -> tuple[ApComplex, float]:
        """eta(z) from the series value at the reduced point m z."""
        if m == IDENTITY:
            return series, err
        c, d, sign, k = eta_multiplier(m)
        unit = self._roots.get((k, wp))
        if unit is None:
            unit = self._roots[(k, wp)] = _zeta24(k, wp)
        value = series / (unit * sign * (z.at_prec(wp) * c + d).sqrt())
        # |eps| = 1 so |denom| = |sqrt(cz+d)|; the division keeps the relative
        # error, plus ulps from the root, the unit and the division itself
        rel = max(err - series.mag() + 2.0, -wp + 3.0)
        return value, value.mag() + rel + 2.0

    def for_form(self, f: QuadraticForm) -> EtaAt:
        """eta(alpha_f / den) for the basis quotient alpha_f of f, any den.

        alpha_f / den is the basis quotient of F, the primitive part of
        [a den^2, b den, c] (for den | c, of [a den, b, c/den]).  Its reduced
        form G = [A, B, C] = F.M names the point: M^-1 takes the argument to
        alpha_G, and [A, -B, C] shares the series, since its basis quotient
        is -conj(alpha_G) and eta(-conj z) = conj(eta(z)).
        """
        def eta_at(zd: ApComplex, den: int, wp: int) -> tuple[ApComplex, float]:
            g, (p, q, r, s) = reduce_form(QuadraticForm.primitive(f.a * den * den, f.b * den, f.c))
            key = (g.a, abs(g.b), g.c, wp)
            hit = self._series.get(key)
            if hit is None:
                zred = UpperHalfPoint.from_form(g.a, abs(g.b), g.discriminant, wp).value
                hit = self._series[key] = _eta_series(zred, wp)
            series, err = hit
            return self._eta_transform(series.conjugate() if g.b < 0 else series, err, zd,
                                       (s, -q, -r, p), wp)

        return eta_at


def eta(z: UpperHalfPoint, prec: int) -> ApComplex:
    """Dedekind eta, absolute error certified below 2^(guard - prec)."""
    eta_at = EtaTable().for_form(_form_of(z))
    return _certified(prec, lambda wp: eta_at(z.value, 1, wp), "eta")[0]


def j_invariant(z: UpperHalfPoint, prec: int) -> ApComplex:
    """Klein J (J(i) = 1728) from Weber's f1(z) = eta(z/2) / eta(z):
    J = (f + 16)^3 / f with f = f1^24 (Yui and Zagier, Math. Comp. 66, 1997).

    If f1 is within a relative 2^r, then f = f1^24 is within 24 |f| 2^r,
    and since dJ/df = (f + 16)^2 (2f - 16) / f^2, to first order
        |dJ| <= |f + 16|^2 |2f - 16| / |f| * 24 * 2^r.
    As for w^s, each magnitude below a line costs 2 bits (a coarse |x| is
    only known to be >= 2^(mag - 2)), and rounding adds a few ulps of J.
    |J| ~ e^{2 pi Im} at the reduced point, so every try gets that many
    extra bits.
    """
    zred, _ = reduce_to_fundamental_domain(z)
    boost = max(0, math.ceil(2.0 * math.pi * to_float(zred.value.im, strict=False)
                             / math.log(2.0))) + 32
    eta_at = EtaTable().for_form(_form_of(z))

    def evaluate(wp: int) -> tuple[ApComplex, float]:
        wp += boost
        f1, err = _eta_quotient(z.value, (2,), (1,), wp, eta_at)
        f = f1 ** 24
        g = f + 16
        value = g ** 3 / f
        rel_f = err - f1.mag() + math.log2(24.0) + 2
        dj = 2 * g.mag() + (f * 2 - 16).mag() - f.mag() + 2 + rel_f
        return value, max(dj, value.mag() - wp + 4) + 2

    return _certified(prec, evaluate, "J")[0]


def s_exponent(p1: int, p2: int) -> int:
    """Canonical power s = 24 / gcd(24, (p1-1)(p2-1))."""
    return 24 // gcd(24, (p1 - 1) * (p2 - 1))


def _eta_quotient(z: ApComplex, num: tuple[int, ...], den: tuple[int, ...], wp: int,
                  eta_at: EtaAt) -> tuple[ApComplex, float]:
    """prod eta(z/n) for n in num over prod eta(z/d) for d in den, and its
    log2 absolute error bound: each of the (at most four) factors is within
    a relative 2^rel, and the quotient within 8 * 2^rel."""
    vals = []
    rel = -float(wp)
    for n in num + den:
        v, e = eta_at(z.at_prec(wp) / n if n != 1 else z, n, wp)
        vals.append(v)
        rel = max(rel, e - v.mag() + 2.0)
    value = reduce(mul, vals[:len(num)]) / reduce(mul, vals[len(num):])
    return value, value.mag() + rel + 3.0


def _certified(prec: int, evaluate: Callable[[int], tuple[ApComplex, float]],
               what: str) -> tuple[ApComplex, float]:
    """evaluate(prec + guard + boost) until its bound is below 2^(guard - prec).

    A large value pushes its absolute bound up, so each retry buys that many
    extra bits.
    """
    if prec < MIN_PREC:
        raise PreconditionError(f"prec must be at least {MIN_PREC}")
    guard = eta_guard_bits(prec)
    boost = 0
    for _ in range(3):
        value, err = evaluate(prec + guard + boost)
        if err <= guard - prec:
            return value, err
        boost = max(boost + 32, int(value.mag()) + 32)
    raise PrecisionExhausted(f"{what} error bound 2^{err:.0f} exceeds target")


def double_eta_quotient(z: UpperHalfPoint, p1: int, p2: int, prec: int) -> ApComplex:
    check_distinct_odd_primes(p1, p2)
    eta_at = EtaTable().for_form(_form_of(z))
    return _certified(
        prec, lambda wp: _eta_quotient(z.value, (p1, p2), (1, p1 * p2), wp + 16, eta_at),
        "quotient")[0]


def w_pow_s(z: UpperHalfPoint, p1: int, p2: int, prec: int) -> ApComplex:
    check_distinct_odd_primes(p1, p2)
    return w_pow_s_with_err(z, p1, p2, prec, EtaTable().for_form(_form_of(z)))[0]


def w_pow_s_with_err(z: UpperHalfPoint, p1: int, p2: int, prec: int,
                     eta_at: EtaAt) -> tuple[ApComplex, float]:
    """(w^s, log2 absolute error bound); the workhorse for class polynomials.

    eta_at, a view of an `EtaTable`, supplies eta(z/den) and shares its
    series between the arguments of one attempt.  p1 and p2 are not checked
    here; callers check them once (`arith.check_distinct_odd_primes`).
    """
    s = s_exponent(p1, p2)

    def evaluate(wp: int) -> tuple[ApComplex, float]:
        w, err = _eta_quotient(z.value, (p1, p2), (1, p1 * p2), wp + 16 + 4 * s, eta_at)
        value = w ** s
        return value, value.mag() + err - w.mag() + math.log2(float(s)) + 2

    return _certified(prec, evaluate, "w^s")
