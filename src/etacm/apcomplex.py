"""Complex values: the public boundary types, and the fixed-point
Gaussian-integer kernel that the numerical hot loops run on.

`ApComplex` and `UpperHalfPoint` are what `eta`, `j_invariant`, `w_pow_s`
and friends take and return: immutable pairs of raw mpmath mpf tuples
``(sign, man, exp, bc)`` with a nominal precision.  The whole precision
policy is here: the MIN_PREC floor, checked where a precision enters
(`check_prec`), the default cap MAX_PRECISION, and `double_until`, the only
loop that re-runs an evaluation at a higher precision.

The kernel holds a complex value as a triple ``(re, im, e)`` of Python ints
standing for ``(re + i im) 2^e``: one power-of-two exponent per value, so
relative precision survives across the whole range of magnitudes.  An mpf is
dyadic, so `from_mpc` and `to_apcomplex` convert exactly.  `mul` and `add`
are exact; a value is cut back to W bits only by `trunc`, and `div` and
`sqrt` round once.  With u = 2^-W, each rounding has a relative error below
3u (ROUND_ULPS): a mantissa of W bits is at least 2^(W-1) units, and
rounding both parts down moves it by less than sqrt(2) units, so by under
2 sqrt(2) u (`sqrt` and `div` land on W + 1 bits or more and do better).
The slack up to 3u covers the second-order terms when relative errors are
added along a computation, as long as they stay below 2^20 u; W is at least
MIN_PREC.  `power`'s roundings weigh n - 1 in all, so x^n is within
n r + 3 (n - 1) u when x is within a relative r.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from mpmath.libmp import (
    MPZ,
    from_int,
    from_man_exp,
    mpf_div,
    mpf_sqrt,
    round_nearest,
    to_float,
)

from .errors import PreconditionError, PrecisionExhausted

RND = round_nearest

MIN_PREC = 64
MAX_PRECISION = 65536

# relative error of one rounding kernel operation, in units of 2^-W
ROUND_ULPS = 3.0


def check_prec(prec: int) -> None:
    """The precision floor: PreconditionError below MIN_PREC bits."""
    if prec < MIN_PREC:
        raise PreconditionError(f"precision {prec} below minimum {MIN_PREC}")


def double_until(start: int, max_prec: int, attempt: Callable, what: str):
    """The first result of attempt(prec) that is not None, for prec = start,
    2 start, ... (start raised to MIN_PREC) while prec <= max_prec; a start
    above max_prec raises before any attempt."""
    start = prec = max(start, MIN_PREC)
    while prec <= max_prec:
        result = attempt(prec)
        if result is not None:
            return result
        prec *= 2
    raise PrecisionExhausted(f"{what} needs more than max_prec = {max_prec} bits "
                             f"(start {start})")


@dataclass(frozen=True, slots=True)
class ApComplex:
    """Immutable arbitrary-precision complex number with explicit precision."""

    re: tuple
    im: tuple
    prec: int

    def to_complex(self) -> complex:
        return complex(to_float(self.re, strict=False), to_float(self.im, strict=False))

    def __repr__(self):
        return f"ApComplex({self.to_complex()}, prec={self.prec})"


@dataclass(frozen=True, slots=True)
class UpperHalfPoint:
    """A point of the upper half-plane (im > 0)."""

    value: ApComplex

    def __post_init__(self):
        sign, man, exp, bc = self.value.im
        if sign or not man:
            raise PreconditionError("point not in the upper half-plane")

    @classmethod
    def from_form(cls, a: int, b: int, D: int, prec: int) -> "UpperHalfPoint":
        """Basis quotient (-b + sqrt(D)) / (2a) of the form [a, b, *] of discriminant D < 0."""
        if D >= 0 or a <= 0:
            raise PreconditionError("need D < 0 and a > 0")
        check_prec(prec)
        sq = mpf_sqrt(from_int(-D, prec, RND), prec, RND)
        re = from_man_exp(MPZ(-b), 0)
        re = mpf_div(re, from_int(2 * a), prec, RND)
        im = mpf_div(sq, from_int(2 * a), prec, RND)
        return cls(ApComplex(re, im, prec))

    @property
    def prec(self) -> int:
        return self.value.prec

    def to_complex(self) -> complex:
        return self.value.to_complex()


def _from_mpf(x) -> tuple[int, int]:
    sign, man, exp, bc = x
    return (-int(man) if sign else int(man)), exp


def from_mpc(re, im) -> tuple[int, int, int]:
    """The triple of the complex number with raw mpf parts re and im, exactly."""
    (a, ea), (b, eb) = _from_mpf(re), _from_mpf(im)
    if not a:
        return 0, b, eb
    if not b:
        return a, 0, ea
    e = min(ea, eb)
    return a << (ea - e), b << (eb - e), e


def to_apcomplex(x: tuple[int, int, int], prec: int) -> ApComplex:
    """x as an ApComplex labelled with precision prec, exactly."""
    re, im, e = x
    return ApComplex(from_man_exp(MPZ(re), e), from_man_exp(MPZ(im), e), prec)


def lg(x: tuple[int, int, int]) -> float:
    """log2 |x|, raised by 2^-30 so that it bounds |x| from above (-inf for 0;
    for |log2 |x|| below 2^20).  A lower bound is lg(x) - 2^-29."""
    re, im, e = x
    bits = max(abs(re), abs(im)).bit_length()
    if not bits:
        return float("-inf")
    s = max(bits - 64, 0)
    return math.log2(math.hypot(re >> s, im >> s)) + s + e + 2.0 ** -30


def trunc(x: tuple[int, int, int], W: int) -> tuple[int, int, int]:
    """x cut down to a W-bit mantissa (both parts rounded down, so a
    negative part may reach -2^W)."""
    re, im, e = x
    s = max(abs(re), abs(im)).bit_length() - W
    if s <= 0:
        return x
    return re >> s, im >> s, e + s


def mul(x: tuple[int, int, int], y: tuple[int, int, int]) -> tuple[int, int, int]:
    """x y, exact."""
    a, b, e = x
    c, d, f = y
    return a * c - b * d, a * d + b * c, e + f


def div(x: tuple[int, int, int], y: tuple[int, int, int], W: int) -> tuple[int, int, int]:
    """x / y = x conj(y) / |y|^2, from one floor division per part scaled so
    that the quotient has at least W + 1 bits."""
    a, b, e = x
    c, d, f = y
    nr, ni, den = a * c + b * d, b * c - a * d, c * c + d * d
    s = W + 2 + den.bit_length() - max(abs(nr), abs(ni)).bit_length()
    if s >= 0:
        nr, ni = nr << s, ni << s
    else:
        den <<= -s
    return nr // den, ni // den, e - f - s


def sqrt(x: tuple[int, int, int], W: int) -> tuple[int, int, int]:
    """Principal square root (real part >= 0), from math.isqrt.

    The mantissa is first scaled to at least 2W + 4 bits with an even
    exponent.  Then n = isqrt(re^2 + im^2) is |x| to one unit, the larger
    part T = sqrt((|x| + |re|) / 2) comes from one more isqrt to within
    1.01 units, and the other part im / (2T) from one floor division to
    within 2.02 units, on a root of at least 2^(W+1) units: 1.13u in all.
    """
    re, im, e = x
    if not re and not im:
        return x
    s = max(2 * W + 4 - max(abs(re), abs(im)).bit_length(), 0)
    s += (e - s) & 1
    re, im, e = re << s, im << s, e - s
    t = math.isqrt((math.isqrt(re * re + im * im) + abs(re)) >> 1)
    o = abs(im) // (2 * t)
    if re >= 0:
        return t, (o if im >= 0 else -o), e // 2
    return o, (t if im >= 0 else -t), e // 2


def power(x: tuple[int, int, int], n: int, W: int) -> tuple[int, int, int]:
    """x^n for n >= 1 by left-to-right binary powering, cut to W bits after
    each product.  A rounding at x^m is raised to the power n / m, and these
    weights sum to n - 1, so the result is within n r + 3 (n - 1) u of x^n
    when x is within a relative r."""
    r = x
    for bit in bin(n)[3:]:
        r = trunc(mul(r, r), W)
        if bit == "1":
            r = trunc(mul(r, x), W)
    return r


def log2add(*vals: float) -> float:
    """log2 of the sum of 2^v over vals, without underflow."""
    top = max(vals)
    if top == float("-inf"):
        return top
    return top + math.log2(sum(2.0 ** (v - top) for v in vals))


def add(x: tuple[int, int, int], y: tuple[int, int, int]) -> tuple[int, int, int]:
    """x + y, exact (aligned to the smaller exponent)."""
    a, b, e = x
    c, d, f = y
    if e > f:
        a, b, e = a << (e - f), b << (e - f), f
    elif f > e:
        c, d = c << (f - e), d << (f - e)
    return a + c, b + d, e

