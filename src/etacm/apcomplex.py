"""Arbitrary-precision complex values on top of mpmath's raw libmp layer.

The libmp functions take the working precision explicitly, so every operation
here is a pure function of its inputs; there is no global context to mutate
(unlike mpmath's high-level ``mp`` singleton).  Values are immutable and safe
to share between threads.

Internally a real number is a raw mpf tuple ``(sign, man, exp, bc)``; the
magnitude bound ``|x| <= 2**mag(x)`` used for error bookkeeping falls straight
out of that representation.  The MIN_PREC floor is checked where a precision
enters (`ApComplex.make`, `UpperHalfPoint.from_form`); arithmetic results
take their operands' precision.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from mpmath.libmp import (
    MPZ,
    from_float,
    from_int,
    from_man_exp,
    mpc_add,
    mpc_div,
    mpc_mul,
    mpc_mul_int,
    mpc_neg,
    mpc_pow_int,
    mpc_sqrt,
    mpc_sub,
    mpf_div,
    mpf_neg,
    mpf_sqrt,
    round_nearest,
    to_float,
)

RND = round_nearest

MIN_PREC = 64


def mag(x) -> int:
    """Upper bound e with |x| <= 2**e for a raw mpf (-10**9 for zero)."""
    sign, man, exp, bc = x
    if not man and not exp:
        return -(10**9)
    return exp + bc


def _check_prec(prec: int) -> None:
    if prec < MIN_PREC:
        raise ValueError(f"precision {prec} below minimum {MIN_PREC}")


def real_from(value, prec: int):
    """Coerce an integer, float, or raw mpf tuple to a raw mpf."""
    if isinstance(value, tuple):
        return value
    if isinstance(value, float):
        return from_float(value, prec, RND)
    try:
        return from_int(operator.index(value), prec, RND)
    except TypeError:
        raise TypeError(f"cannot convert {type(value).__name__} to mpf") from None


@dataclass(frozen=True, slots=True)
class ApComplex:
    """Immutable arbitrary-precision complex number with explicit precision."""

    re: tuple
    im: tuple
    prec: int

    @classmethod
    def make(cls, re, im=0, prec: int = MIN_PREC) -> "ApComplex":
        _check_prec(prec)
        return cls(real_from(re, prec), real_from(im, prec), prec)

    @property
    def mpc(self):
        return (self.re, self.im)

    def _prec_with(self, other) -> int:
        if isinstance(other, ApComplex):
            return max(self.prec, other.prec)
        return self.prec

    def _coerce(self, other) -> "ApComplex":
        if isinstance(other, ApComplex):
            return other
        return ApComplex.make(other, 0, self.prec)

    def __add__(self, other):
        p = self._prec_with(other)
        o = self._coerce(other)
        return ApComplex(*mpc_add(self.mpc, o.mpc, p, RND), p)

    def __sub__(self, other):
        p = self._prec_with(other)
        o = self._coerce(other)
        return ApComplex(*mpc_sub(self.mpc, o.mpc, p, RND), p)

    def __mul__(self, other):
        p = self._prec_with(other)
        if not isinstance(other, ApComplex):
            try:
                return ApComplex(*mpc_mul_int(self.mpc, operator.index(other), p, RND), p)
            except TypeError:
                pass
        o = self._coerce(other)
        return ApComplex(*mpc_mul(self.mpc, o.mpc, p, RND), p)

    def __truediv__(self, other):
        p = self._prec_with(other)
        o = self._coerce(other)
        return ApComplex(*mpc_div(self.mpc, o.mpc, p, RND), p)

    def __rtruediv__(self, other):
        p = self.prec
        o = self._coerce(other)
        return ApComplex(*mpc_div(o.mpc, self.mpc, p, RND), p)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __neg__(self):
        return ApComplex(*mpc_neg(self.mpc, self.prec, RND), self.prec)

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("integer exponents only")
        return ApComplex(*mpc_pow_int(self.mpc, n, self.prec, RND), self.prec)

    def conjugate(self) -> "ApComplex":
        return ApComplex(self.re, mpf_neg(self.im), self.prec)

    def sqrt(self) -> "ApComplex":
        """Principal branch square root (real part >= 0)."""
        return ApComplex(*mpc_sqrt(self.mpc, self.prec, RND), self.prec)

    def mag(self) -> int:
        """e with |self| <= 2**e (coarse, from the larger component)."""
        return max(mag(self.re), mag(self.im)) + 1

    def at_prec(self, prec: int) -> "ApComplex":
        return ApComplex(self.re, self.im, prec)

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
            raise ValueError("point not in the upper half-plane")

    @classmethod
    def make(cls, re, im, prec: int = MIN_PREC) -> "UpperHalfPoint":
        return cls(ApComplex.make(re, im, prec))

    @classmethod
    def from_form(cls, a: int, b: int, D: int, prec: int) -> "UpperHalfPoint":
        """Basis quotient (-b + sqrt(D)) / (2a) of the form [a, b, *] of discriminant D < 0."""
        if D >= 0 or a <= 0:
            raise ValueError("need D < 0 and a > 0")
        _check_prec(prec)
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


def abs_diff(x: ApComplex, y: ApComplex) -> float:
    """log2 of |x - y| (rough, for tolerance checks); -inf when equal."""
    p = max(x.prec, y.prec)
    d = mpc_sub(x.mpc, y.mpc, p, RND)
    m = max(mag(d[0]), mag(d[1]))
    return float("-inf") if m <= -(10**8) else float(m)


__all__ = [
    "ApComplex",
    "UpperHalfPoint",
    "MIN_PREC",
    "RND",
    "mag",
    "abs_diff",
    "real_from",
]
