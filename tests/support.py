"""Shared instance samplers and numerical helpers for the suites (not oracles)."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import mpmath

from etacm.apcomplex import ApComplex, UpperHalfPoint
from etacm.arith import is_probable_prime, jacobi
from etacm.classpoly import check_integrality_conditions
from etacm.etafunc import hecke_plan, s_exponent, w_pow_s_at_hecke_points
from etacm.pipeline import find_trace
from etacm.qforms import b_candidates

PRIME_POOL = [(3, 5), (3, 7), (3, 13), (5, 7), (5, 11), (5, 13), (7, 11), (11, 13)]


def valid_triples(rng: random.Random, count: int, dmin: int, dmax: int,
                  pool=PRIME_POOL) -> list[tuple[int, int, int]]:
    """(D, p1, p2) with the integrality conditions satisfied, |D| in [dmin, dmax]."""
    out = []
    while len(out) < count:
        p1, p2 = pool[rng.randrange(len(pool))]
        k = rng.randint(dmin, dmax)
        D = -k if k % 4 in (0, 3) else -k - (4 - k % 4) + 3  # force 0,1 mod 4
        if D % 4 not in (0, 1):
            continue
        if check_integrality_conditions(D, p1, p2):
            out.append((D, p1, p2))
    return out


def pick_b(rng: random.Random, D: int, p1: int, p2: int) -> int:
    bs = b_candidates(D, p1, p2)
    return bs[rng.randrange(len(bs))]


def split_prime(D: int, lmin: int = 5, lmax: int = 10**6,
                avoid: tuple[int, ...] = ()) -> int | None:
    """Smallest odd prime l in [lmin, lmax] with 4l = t^2 - D v^2 solvable."""
    l = max(lmin, 3)
    if l % 2 == 0:
        l += 1
    while l <= lmax:
        if is_probable_prime(l) and D % l and l not in avoid:
            if find_trace(D, l) is not None:
                return l
        l += 2
    return None


def both_symbols_one(D: int, p1: int, p2: int) -> bool:
    return jacobi(D, p1) == 1 and jacobi(D, p2) == 1


# Points and complex values for the numerical suites.  Arithmetic on them
# runs in mpmath; the library's own kernel is what is being checked.

def to_mpc(v) -> mpmath.mpc:
    """An ApComplex or a kernel triple (re, im, e), exactly."""
    re, im, e = v.triple if isinstance(v, ApComplex) else v
    with mpmath.workprec(max(abs(re).bit_length(), abs(im).bit_length(), 53)):
        return mpmath.mpc(mpmath.mpf((re, e)), mpmath.mpf((im, e)))


def kernel_triple(re, im) -> tuple[int, int, int]:
    """The kernel triple of the complex number with raw mpf parts re and im, exactly."""
    (a, ea), (b, eb) = [(-int(man) if sign else int(man), exp) for sign, man, exp, _ in (re, im)]
    if not a:
        return 0, b, eb
    if not b:
        return a, 0, ea
    e = min(ea, eb)
    return a << (ea - e), b << (eb - e), e


def coefficients(f) -> list[mpmath.mpc]:
    """The coefficients of a `classpoly.RPoly`, exactly."""
    return [to_mpc((c, 0, f.exp)) for c in f.coeffs]


def from_mp(z, prec: int) -> ApComplex:
    """An mpmath number rounded to prec bits."""
    with mpmath.workprec(prec):
        z = mpmath.mpc(z)
        return ApComplex(kernel_triple(z.real._mpf_, z.imag._mpf_), prec)


def point(x, y, prec: int) -> UpperHalfPoint:
    """x + iy for ints, floats or mpmath numbers, rounded to prec bits."""
    with mpmath.workprec(prec):
        return UpperHalfPoint(from_mp(mpmath.mpc(x, y), prec))


def moebius(m, z, prec: int) -> ApComplex:
    """(a z + b) / (c z + d) at prec bits, for an ApComplex z."""
    a, b, c, d = m
    with mpmath.workprec(prec):
        w = to_mpc(z)
        return from_mp((a * w + b) / (c * w + d), prec)


def mag(v: ApComplex) -> int:
    """e with |v| <= 2^e, coarse: one more than the larger part's bit length
    plus the exponent."""
    re, im, e = v.triple
    bits = max(abs(re).bit_length(), abs(im).bit_length())
    return e + bits + 1 if bits else -(10**9) + 1


def _fraction(x: tuple) -> Fraction:
    sign, man, exp, bc = x
    f = int(man) * Fraction(2) ** exp
    return -f if sign else f


def log2_dist(a, b) -> float:
    """log2 |a - b|, exactly, for ApComplex or mpmath values; -inf when equal."""
    def parts(v):
        if isinstance(v, ApComplex):
            re, im, e = v.triple
            return re * Fraction(2) ** e, im * Fraction(2) ** e
        if isinstance(v, int):
            return Fraction(v), Fraction(0)
        return _fraction(v.real._mpf_), _fraction(v.imag._mpf_)

    (ar, ai), (br, bi) = parts(a), parts(b)
    n2 = (ar - br) ** 2 + (ai - bi) ** 2
    return float("-inf") if n2 == 0 else (math.log2(n2.numerator) - math.log2(n2.denominator)) / 2


def hecke_roots(forms, p1: int, p2: int, prec: int) -> list:
    """(w^s, log2 error bound) at the root of every form, from eta at the
    Hecke points of its reduced form: the values H's roots are made of."""
    return w_pow_s_at_hecke_points(*hecke_plan(forms, p1, p2), s_exponent(p1, p2), prec)
