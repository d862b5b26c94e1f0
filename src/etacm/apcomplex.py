"""Complex values: the public boundary types, and the fixed-point
Gaussian-integer kernel that the numerical hot loops run on.

`ApComplex` and `UpperHalfPoint` are what `eta`, `j_invariant`, `w_pow_s`
and friends take and return: an exact kernel triple with a nominal
precision.  The whole precision policy is here: the MIN_PREC floor, checked
where a precision enters (`check_prec`), the default cap MAX_PRECISION, and
`double_until`, the only loop that re-runs an evaluation at a higher
precision.

The kernel holds a complex value as a triple ``(re, im, e)`` of Python ints
standing for ``(re + i im) 2^e``: one power-of-two exponent per value, so
relative precision survives across the whole range of magnitudes.  `mul` and
`add` are exact; a value is cut back to W bits only by `trunc`, and `div` and
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
from collections import namedtuple
from collections.abc import Callable

from .errors import PreconditionError, PrecisionExhausted

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
    2 start, ... while prec <= max_prec, from a start of at least MIN_PREC
    (not raised here); a start above max_prec raises before any attempt."""
    prec = start
    while prec <= max_prec:
        result = attempt(prec)
        if result is not None:
            return result
        prec *= 2
    raise PrecisionExhausted(f"{what} needs more than max_prec = {max_prec} bits "
                             f"(start {start})")


class ApComplex(namedtuple("_ApComplex", "triple prec")):
    """Immutable arbitrary-precision complex number with explicit precision:
    the kernel triple (re, im, e), (re + i im) 2^e exactly."""

    __slots__ = ()

    def to_complex(self) -> complex:
        re, im, e = self.triple
        return complex(_to_float(re, e), _to_float(im, e))

    def __repr__(self):
        return f"ApComplex({self.to_complex()}, prec={self.prec})"


class UpperHalfPoint(namedtuple("_UpperHalfPoint", "value")):
    """A point of the upper half-plane (im > 0)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # and _replace: check via __new__

    def __new__(cls, value: ApComplex):
        if value.triple[1] <= 0:
            raise PreconditionError("point not in the upper half-plane")
        return super().__new__(cls, value)

    @classmethod
    def from_form(cls, a: int, b: int, D: int, prec: int) -> "UpperHalfPoint":
        """Basis quotient (-b + sqrt(D)) / (2a) of the form [a, b, *] of
        discriminant D < 0: |D| rounded to prec bits, its square root, and
        the two quotients by 2a, each rounded to nearest at prec bits."""
        if D >= 0 or a <= 0:
            raise PreconditionError("need D < 0 and a > 0")
        check_prec(prec)
        root, f = _sqrt_nearest(*_div_nearest(-D, 1, prec), prec)
        y, ey = _div_nearest(root, 2 * a, prec)
        x, ex = _div_nearest(-b, 2 * a, prec) if b else (0, ey + f)
        e = min(ex, ey + f)
        return cls(ApComplex((x << (ex - e), y << (ey + f - e), e), prec))

    @property
    def prec(self) -> int:
        return self.value.prec

    def to_complex(self) -> complex:
        return self.value.to_complex()


def _to_float(m: int, e: int) -> float:
    """m 2^e as the nearest float, ties to even, subnormals included (int /
    int true division rounds once), a signed zero below them and +-inf
    past the largest float."""
    try:
        return float(m << e) if e >= 0 else m / (1 << -e)
    except OverflowError:
        return math.copysign(math.inf, m)


def _nearest(q: int, inexact: bool, e: int, W: int) -> tuple[int, int]:
    """(m, f) with m 2^f = v 2^e rounded to nearest at W bits, ties to the
    even mantissa, from q = floor(v) >= 0 and inexact = (v != q); q has at
    least W + 2 bits unless v = q.  A tie needs v = q: it occurs only for an
    exact input of W + 1 bits or more, such as |b| >= 2^W in
    `UpperHalfPoint.from_form`."""
    s = q.bit_length() - W
    if s <= 0:
        return q, e
    half = 1 << (s - 1)
    low, q = q & (2 * half - 1), q >> s
    if low > half or (low == half and (inexact or q & 1)):
        q += 1
    return q, e + s


def _div_nearest(n: int, d: int, W: int) -> tuple[int, int]:
    """(m, f) with m 2^f = n / d (d > 0) rounded to nearest at W bits."""
    s = max(W + 2 + d.bit_length() - abs(n).bit_length(), 0)
    q, rest = divmod(abs(n) << s, d)
    m, f = _nearest(q, rest != 0, -s, W)
    return (-m if n < 0 else m), f


def _sqrt_nearest(n: int, e: int, W: int) -> tuple[int, int]:
    """(m, f) with m 2^f = sqrt(n 2^e) (n >= 0) rounded to nearest at W bits."""
    s = max(2 * W + 4 - n.bit_length(), 0)
    s += (e - s) & 1
    q = math.isqrt(n << s)
    return _nearest(q, q * q != n << s, (e - s) // 2, W)


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

