"""Binary quadratic forms of negative discriminant: Gauss reduction, class
enumeration, equivalence, and N-system construction.

A form [a, b, c] stands for a*X^2 + b*X*Y + c*Y^2 with a > 0 and
b^2 - 4ac = D < 0, primitive.  Composition with a unimodular matrix
M = [[p, q], [r, s]] acts on the right: (f.M)(v) = f(Mv), so the leading
coefficient of f.M is f(p, r).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd, isqrt

from .arith import fundamental_parts, is_probable_prime, legendre
from .errors import (
    DiscriminantMismatch,
    InvalidB,
    InvalidDiscriminant,
    NoSolution,
    PreconditionError,
)

Matrix = tuple[int, int, int, int]


@dataclass(frozen=True, slots=True)
class QuadraticForm:
    a: int
    b: int
    c: int

    def __post_init__(self):
        if self.a <= 0:
            raise PreconditionError(f"form {self} needs a > 0")
        if self.discriminant >= 0:
            raise PreconditionError(f"form {self} has non-negative discriminant")
        if gcd(gcd(self.a, self.b), self.c) != 1:
            raise PreconditionError(f"form {self} is imprimitive")

    @classmethod
    def primitive(cls, a: int, b: int, c: int) -> "QuadraticForm":
        """[a, b, c] divided by the gcd of its coefficients (same root)."""
        g = gcd(a, b, c)
        return cls(a // g, b // g, c // g)

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def value(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y

    def compose(self, m: Matrix) -> "QuadraticForm":
        p, q, r, s = m
        if p * s - q * r != 1:
            raise PreconditionError(f"matrix {m} is not unimodular")
        a2 = self.value(p, r)
        b2 = 2 * self.a * p * q + self.b * (p * s + q * r) + 2 * self.c * r * s
        c2 = self.value(q, s)
        return QuadraticForm(a2, b2, c2)

    def is_reduced(self) -> bool:
        a, b, c = self.a, self.b, self.c
        if not (-a < b <= a <= c):
            return False
        return b >= 0 if a == c else True

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)


def _mat_mul(m1: Matrix, m2: Matrix) -> Matrix:
    a, b, c, d = m1
    p, q, r, s = m2
    return (a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s)


def reduce_form(f: QuadraticForm) -> tuple[QuadraticForm, Matrix]:
    """Gauss-reduced representative g and M in SL2(Z) with g = f.M."""
    a, b, c = f.a, f.b, f.c
    m: Matrix = (1, 0, 0, 1)
    while True:
        # shift b into (-a, a]
        if not -a < b <= a:
            t = (a - b) // (2 * a)
            b2 = b + 2 * a * t
            c = (b2 * b2 - f.discriminant) // (4 * a)
            b = b2
            m = _mat_mul(m, (1, t, 0, 1))
        if a > c:
            a, b, c = c, -b, a
            m = _mat_mul(m, (0, -1, 1, 0))
            continue
        break
    if b < 0 and a == c:
        b = -b
        m = _mat_mul(m, (0, -1, 1, 0))
    g = QuadraticForm(a, b, c)
    assert f.compose(m) == g
    return g, m


@lru_cache(maxsize=4096)
def _reduced_forms(D: int) -> tuple[QuadraticForm, ...]:
    if D >= 0 or D % 4 not in (0, 1):
        raise InvalidDiscriminant(f"{D} is not a negative discriminant")
    forms = []
    for a in range(1, isqrt(-D // 3) + 1):
        for b in range(-a + 1, a + 1):
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and a == c:
                continue
            if gcd(gcd(a, b), c) != 1:
                continue
            forms.append(QuadraticForm(a, b, c))
    forms.sort(key=QuadraticForm.as_tuple)
    return tuple(forms)


def enumerate_reduced_forms(D) -> list[QuadraticForm]:
    """All primitive reduced forms of discriminant D, one per class."""
    return list(_reduced_forms(int(D)))


def class_number(D) -> int:
    return len(_reduced_forms(int(D)))


def equivalent(f: QuadraticForm, g: QuadraticForm) -> bool:
    if f.discriminant != g.discriminant:
        raise DiscriminantMismatch(
            f"discriminants differ: {f.discriminant} vs {g.discriminant}")
    return reduce_form(f)[0] == reduce_form(g)[0]


@dataclass(frozen=True)
class Discriminant:
    """Negative discriminant D = f^2 * d_K with d_K fundamental."""

    D: int
    d_K: int = field(init=False)
    f: int = field(init=False)

    def __post_init__(self):
        if self.D >= 0 or self.D % 4 not in (0, 1):
            raise InvalidDiscriminant(f"{self.D} is not a negative discriminant")
        d_k, f = fundamental_parts(self.D)
        object.__setattr__(self, "d_K", d_k)
        object.__setattr__(self, "f", f)

    def class_number(self) -> int:
        return class_number(self.D)

    def __int__(self) -> int:
        return self.D


def _split_n(N: int) -> tuple[int, int]:
    for p in range(3, isqrt(max(N, 0)) + 1, 2):
        if N % p == 0:
            q = N // p
            if p != q and q % 2 and is_probable_prime(p) and is_probable_prime(q):
                return p, q
            break
    raise PreconditionError(f"N = {N} is not a product of two distinct odd primes")


def b_candidates(D, N: int) -> list[int]:
    """All residues B mod 2N with B^2 = D mod 4N.

    Count is 4 when (D|p1) = (D|p2) = 1 and 2 when exactly one symbol is 0
    (the remaining square-free patterns are enumerated, not classified).
    """
    d = int(D)
    if d >= 0 or d % 4 not in (0, 1):
        raise InvalidDiscriminant(f"{d} is not a negative discriminant")
    p1, p2 = _split_n(N)
    if legendre(d, p1) == -1 or legendre(d, p2) == -1:
        raise NoSolution(f"{d} is a non-residue modulo {p1 if legendre(d, p1) == -1 else p2}")
    found = [B for B in range(2 * N) if (B * B - d) % (4 * N) == 0]
    if not found:
        raise NoSolution(f"B^2 = {d} mod {4 * N} has no solution")
    return found


@dataclass(frozen=True)
class NSystem:
    """h(D) pairwise inequivalent forms with gcd(A_i, N) = 1, B_i = B mod 2N,
    N | C_i; their basis quotients carry conjugate singular values of w^s."""

    D: Discriminant
    N: int
    B: int
    forms: tuple[QuadraticForm, ...]


def _coprime_representation(f: QuadraticForm, N: int) -> tuple[int, Matrix]:
    """(value, M) with value = (f.M) leading coefficient coprime to N."""
    bound = 2
    while bound <= 1 << 20:
        for x in range(0, bound + 1):
            for y in range(-bound, bound + 1):
                if gcd(x, y) != 1:
                    continue
                v = f.value(x, y)
                if v > 0 and gcd(v, N) == 1:
                    # first column (x, y); complete by solving x*s - y*t = 1
                    g, s, t = _xgcd(x, y)
                    assert g == 1
                    return v, (x, -t, y, s)
        bound *= 2
    raise PreconditionError(f"no representation of {f} coprime to {N} found")


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def build_nsystem(D, N: int, B: int) -> NSystem:
    """An N-system for D whose first form is [1, B, (B^2 - D)/4]."""
    disc = D if isinstance(D, Discriminant) else Discriminant(int(D))
    d = disc.D
    if (B * B - d) % (4 * N):
        raise InvalidB(f"B = {B} fails B^2 = D mod 4N for D = {d}, N = {N}")
    principal = (QuadraticForm(1, 0, -d // 4) if d % 4 == 0
                 else QuadraticForm(1, 1, (1 - d) // 4))
    rest = []
    for rep in _reduced_forms(d):
        if rep == principal:
            continue
        a2, m = _coprime_representation(rep, N)
        g = rep.compose(m)
        assert g.a == a2
        # translate so the middle coefficient lands on B mod 2N
        t0 = (B - g.b) // 2 * pow(g.a, -1, N) % N
        bi = g.b + 2 * g.a * t0
        # shifting t0 by multiples of N preserves B mod 2N; keep |b| small
        step = 2 * g.a * N
        bi += step * ((-bi + step // 2) // step)
        form = QuadraticForm(g.a, bi, (bi * bi - d) // (4 * g.a))
        if form.c % N:
            raise InvalidB(f"C = {form.c} not divisible by N = {N}")
        rest.append(form)
    rest.sort(key=QuadraticForm.as_tuple)
    first = QuadraticForm(1, B, (B * B - d) // 4)
    system = NSystem(disc, N, B % (2 * N), (first, *rest))
    validate_nsystem(system)
    return system


def validate_nsystem(system: NSystem) -> None:
    """Re-check the defining conditions; raises PreconditionError on failure."""
    d = system.D.D
    n = system.N
    if len(system.forms) != class_number(d):
        raise PreconditionError("wrong number of forms")
    b0 = system.forms[0].b
    seen = set()
    for f in system.forms:
        if f.discriminant != d:
            raise PreconditionError(f"{f}: wrong discriminant")
        if gcd(f.a, n) != 1:
            raise PreconditionError(f"{f}: gcd(A, N) != 1")
        if (f.b - b0) % (2 * n):
            raise PreconditionError(f"{f}: B not congruent mod 2N")
        if f.c % n:
            raise PreconditionError(f"{f}: N does not divide C")
        seen.add(reduce_form(f)[0])
    if len(seen) != len(system.forms) or seen != set(_reduced_forms(d)):
        raise PreconditionError("forms do not represent every class exactly once")
