"""Integer predicates deciding when the modular equation acquires a multiple
root: the W_N involution fixes the ideal class iff u^2 - D v^2 = 4N has a
solution with u = Bv mod 2N, in which case the final stage of the CM method
can skip point counting.  A companion predicate detects when only the square of
the involution fixes the class.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from math import isqrt

from .qforms import _reduce, check_b


class Con1Solution(namedtuple("_Con1Solution", "u v")):
    __slots__ = ()


class Wn2Solution(namedtuple("_Wn2Solution", "X Y")):
    __slots__ = ()


def _solutions(D: int, n: int) -> Iterator[tuple[int, int]]:
    """Every (x, y) with x^2 - D y^2 = n, for D < 0 and n > 0, in the order
    |y| increasing (y = 0 first, then y before -y), x >= 0 before -x.  The
    walk takes sqrt(n/|D|) steps, so it serves only `wn_squared_fixes_class`,
    which no CLI command calls."""
    for ay in range(isqrt(n // -D) + 1):  # -D y^2 <= n
        xx = n + D * ay * ay
        x = isqrt(xx)
        if x * x != xx:
            continue
        for y in ((0,) if ay == 0 else (ay, -ay)):
            for xc in ((0,) if x == 0 else (x, -x)):
                yield xc, y


def multiple_root_condition(D, N: int, B: int) -> Con1Solution | None:
    """First (u, v) with u^2 - D v^2 = 4N and u = Bv mod 2N, or None.

    Enumeration order: |v| increasing (v = 0 first, then positive before
    negative), u >= 0 before u < 0.  None is guaranteed for D <= -4N.

    Put u = Bv + 2Nk: the equation becomes f(k, v) = 1 for the positive
    definite form f = [N, B, (B^2 - D)/4N] of discriminant D.  f represents
    1 iff its Gauss reduction g = f.M is [1, b, c], and then only through
    the units of g, the (x, y) with |x|, |y| <= 1 and g(x, y) = 1 (four or
    six of them for D = -4, -3, else (+-1, 0)); (k, v) = M (x, y).
    """
    d = check_b(D, N, B).D
    (a, b, c), (p, q, r, s) = _reduce((N, B, (B * B - d) // (4 * N)))
    if a != 1:
        return None
    kv = [(p * x + q * y, r * x + s * y) for x in (-1, 0, 1) for y in (-1, 0, 1)
          if x * x + b * x * y + c * y * y == 1]
    u, v = min(((B * v + 2 * N * k, v) for k, v in kv),
               key=lambda w: (abs(w[1]), w[1] < 0, w[0] < 0))
    return Con1Solution(u, v)


def wn_squared_fixes_class(D, N: int, B: int) -> Wn2Solution | None:
    """First (X, Y), Y != 0, with X^2 - D Y^2 = 4N^2, X = BY mod 2N and
    ((X - BY)/2N)^2 = 1 mod Y; or None.  Same order as
    `multiple_root_condition`."""
    d = check_b(D, N, B).D
    return next((Wn2Solution(x, y) for x, y in _solutions(d, 4 * N * N)
                 if y and (x - B * y) % (2 * N) == 0
                 and (((x - B * y) // (2 * N)) ** 2 - 1) % abs(y) == 0), None)
