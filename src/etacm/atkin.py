"""Integer predicates deciding when the modular equation acquires a multiple
root: the W_N involution fixes the ideal class iff u^2 - D v^2 = 4N has a
solution with u = Bv mod 2N, in which case the final stage of the CM method
can skip point counting.  A companion predicate detects when only the square of
the involution fixes the class.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .arith import is_square
from .classpoly import check_integrality_conditions
from .errors import ConditionsViolated, InvalidB, PreconditionError
from .qforms import b_candidates


@dataclass(frozen=True, slots=True)
class Con1Solution:
    u: int
    v: int


@dataclass(frozen=True, slots=True)
class Wn2Solution:
    X: int
    Y: int


def _check_b(D: int, N: int, B: int) -> None:
    if N <= 0:
        raise PreconditionError(f"N = {N} must be positive")
    if D >= 0:
        raise InvalidB(f"D = {D} must be negative")
    if (B * B - D) % (4 * N):
        raise InvalidB(f"B = {B} fails B^2 = D mod 4N")


def multiple_root_condition(D: int, N: int, B: int) -> Con1Solution | None:
    """First (u, v) with u^2 - D v^2 = 4N and u = Bv mod 2N, or None.

    Enumeration order: |v| increasing (v = 0 first, then positive before
    negative), u >= 0 before u < 0.  None is guaranteed for D <= -4N.
    """
    D, N, B = int(D), int(N), int(B)
    _check_b(D, N, B)
    vmax = isqrt(4 * N // -D)
    for av in range(vmax + 1):
        uu = 4 * N + D * av * av
        if uu < 0:
            break
        if not is_square(uu):
            continue
        u = isqrt(uu)
        for v in ((0,) if av == 0 else (av, -av)):
            for uc in ((0,) if u == 0 else (u, -u)):
                if (uc - B * v) % (2 * N) == 0:
                    return Con1Solution(uc, v)
    return None


def wn_squared_fixes_class(D: int, N: int, B: int) -> Wn2Solution | None:
    """First (X, Y), Y != 0, with X^2 - D Y^2 = 4N^2, X = BY mod 2N and
    ((X - BY)/2N)^2 = 1 mod Y; or None."""
    D, N, B = int(D), int(N), int(B)
    _check_b(D, N, B)
    ymax = isqrt(4 * N * N // -D)
    for ay in range(1, ymax + 1):
        xx = 4 * N * N + D * ay * ay
        if xx < 0:
            break
        if not is_square(xx):
            continue
        x = isqrt(xx)
        for y in (ay, -ay):
            for xc in ((0,) if x == 0 else (x, -x)):
                if (xc - B * y) % (2 * N):
                    continue
                t = (xc - B * y) // (2 * N)
                if (t * t - 1) % abs(y) == 0:
                    return Wn2Solution(xc, y)
    return None


def is_multiple_root_case(D: int, p1: int, p2: int, B: int) -> tuple[bool, Con1Solution | None]:
    """Whether the modular equation has a multiple J-root for every form of
    the B-indexed N-system (the answer depends only on B), with witness."""
    if not check_integrality_conditions(D, p1, p2):
        raise ConditionsViolated(f"(D, p1, p2) = ({D}, {p1}, {p2}) unsupported")
    N = p1 * p2
    if int(B) % (2 * N) not in b_candidates(D, N):
        raise InvalidB(f"B = {B} is not admissible for D = {D}, N = {N}")
    witness = multiple_root_condition(D, N, B)
    return witness is not None, witness
