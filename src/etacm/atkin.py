"""The integer predicate deciding when the modular equation acquires a
multiple root: the W_N involution fixes the ideal class iff u^2 - D v^2 = 4N
has a solution with u = Bv mod 2N, in which case the final stage of the CM
method can skip point counting.
"""

from __future__ import annotations

from collections import namedtuple

from .qforms import _reduce, check_b


class Con1Solution(namedtuple("_Con1Solution", "u v")):
    __slots__ = ()


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
