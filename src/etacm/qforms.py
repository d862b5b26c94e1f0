"""Binary quadratic forms of negative discriminant: Gauss reduction, class
enumeration, and N-system construction.

A form [a, b, c] stands for a*X^2 + b*X*Y + c*Y^2 with a > 0 and
b^2 - 4ac = D < 0, primitive.  Composition with a unimodular matrix
M = [[p, q], [r, s]] acts on the right: (f.M)(v) = f(Mv), so the leading
coefficient of f.M is f(p, r).

Inputs are checked once, where they enter: a form by `QuadraticForm`, a
discriminant by `as_discriminant`, a residue B by `check_b`.  Below them a
form is a plain (a, b, c) triple (`_reduce`, `_compose`, `_primitive`),
valid by construction.  A level is the ordered pair (p1, p2) of distinct odd
primes that the caller holds (`arith.check_distinct_odd_primes`); N = p1 p2
is computed from it and never factored.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import gcd, isqrt

from .arith import check_discriminant, check_distinct_odd_primes, crt_pair
from .errors import InvalidB, NoSolution, PreconditionError
from .ffield import _sqrt_mod

Form = tuple[int, int, int]
Matrix = tuple[int, int, int, int]


class QuadraticForm(namedtuple("_Form", "a b c")):
    """The checked boundary type, a > 0, b^2 - 4ac < 0 and gcd(a, b, c) = 1:
    a tuple, equal to its plain triple (a, b, c)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # and _replace: check via __new__

    def __new__(cls, a: int, b: int, c: int):
        if a <= 0:
            raise PreconditionError(f"form [{a}, {b}, {c}] needs a > 0")
        if b * b - 4 * a * c >= 0:
            raise PreconditionError(f"form [{a}, {b}, {c}] has non-negative discriminant")
        if gcd(a, b, c) != 1:
            raise PreconditionError(f"form [{a}, {b}, {c}] is imprimitive")
        return super().__new__(cls, a, b, c)

    @property
    def discriminant(self) -> int:
        return self.b * self.b - 4 * self.a * self.c


def _compose(f: Form, m: Matrix) -> Form:
    """f.M for a unimodular M: (f.M)(v) = f(Mv)."""
    a, b, c = f
    p, q, r, s = m
    return (a * p * p + b * p * r + c * r * r,
            2 * a * p * q + b * (p * s + q * r) + 2 * c * r * s,
            a * q * q + b * q * s + c * s * s)


def _primitive(a: int, b: int, c: int) -> Form:
    """[a, b, c] divided by the gcd of its coefficients (same root)."""
    g = gcd(a, b, c)
    return (a // g, b // g, c // g)


def _reduce(f: Form) -> tuple[Form, Matrix]:
    """The Gauss-reduced triple g and M = [[p, q], [r, s]] in SL2(Z) with
    g = f.M, for a positive definite f."""
    a, b, c = f
    p, q, r, s = 1, 0, 0, 1
    while True:
        if not -a < b <= a:
            # f.[[1, t], [0, 1]] = [a, b + 2at, f(t, 1)] has b in (-a, a]
            t = (a - b) // (2 * a)
            b, c = b + 2 * a * t, c + t * (b + a * t)
            q, s = p * t + q, r * t + s
        if a < c or a == c and b >= 0:
            break
        a, b, c = c, -b, a
        p, q, r, s = q, -p, s, -r  # M.[[0, -1], [1, 0]]
    return (a, b, c), (p, q, r, s)


@lru_cache(maxsize=4096)
def _reduced_forms(D: int) -> tuple[QuadraticForm, ...]:
    """The reduced forms of a discriminant D already checked: b runs over
    -a < b <= a with b = D mod 2, as b^2 = D mod 4a needs."""
    forms = []
    for a in range(1, isqrt(-D // 3) + 1):
        for b in range(-a + 1 + (a + 1 + D) % 2, a + 1, 2):
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
    forms.sort()
    return tuple(forms)


def class_number(D) -> int:
    return len(_reduced_forms(as_discriminant(D).D))


class Discriminant(namedtuple("_Discriminant", "D")):
    """A negative discriminant D: construction checks D < 0 and D = 0, 1
    mod 4, and never factors |D|."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # and _replace: check via __new__

    def __new__(cls, D: int):
        check_discriminant(D)
        return super().__new__(cls, D)


def as_discriminant(D) -> Discriminant:
    """D, an int or a `Discriminant`, as a checked `Discriminant`."""
    return D if isinstance(D, Discriminant) else Discriminant(int(D))


def check_b(D, N: int, B: int) -> Discriminant:
    """D as a checked `Discriminant`, once N > 0 and B^2 = D mod 4N hold
    (InvalidB if not)."""
    disc = as_discriminant(D)
    if N <= 0:
        raise PreconditionError(f"N = {N} must be positive")
    if (B * B - disc.D) % (4 * N):
        raise InvalidB(f"B = {B} fails B^2 = D mod 4N for D = {disc.D}, N = {N}")
    return disc


def b_candidates(D, p1: int, p2: int) -> list[int]:
    """All residues B mod 2N, N = p1 p2, with B^2 = D mod 4N, in increasing
    order, for distinct odd primes p1 and p2.

    B^2 = D mod 4 is B = D mod 2, so the B are the CRT combinations of
    B = D mod 2 with the square roots of D mod p1 and mod p2.  Count is 4
    when (D|p1) = (D|p2) = 1 and 2 when exactly one symbol is 0.
    """
    d = as_discriminant(D).D
    check_distinct_odd_primes(p1, p2)
    r1, r2 = _sqrt_mod(d % p1, p1), _sqrt_mod(d % p2, p2)
    if r1 is None or r2 is None:
        raise NoSolution(f"{d} is a non-residue modulo {p1 if r1 is None else p2}")
    return sorted({crt_pair(crt_pair(s1, p1, s2, p2), p1 * p2, d % 2, 2)
                   for s1 in (r1, -r1 % p1) for s2 in (r2, -r2 % p2)})


class NSystem(namedtuple("_NSystem", "D N B forms")):
    """h(D) pairwise inequivalent forms with gcd(A_i, N) = 1, B_i = B mod 2N,
    N | C_i; their basis quotients carry conjugate singular values of w^s.
    D is a `Discriminant`, forms a tuple of `QuadraticForm`."""

    __slots__ = ()


def _coprime_representation(f: Form, N: int) -> tuple[int, Matrix]:
    """(value, M) with value = (f.M) leading coefficient coprime to N."""
    a, b, c = f
    bound = 2
    while bound <= 1 << 20:
        for x in range(0, bound + 1):
            for y in range(-bound, bound + 1):
                if gcd(x, y) != 1:
                    continue
                v = a * x * x + b * x * y + c * y * y
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
    disc = check_b(D, N, B)
    d = disc.D
    principal = (1, 0, -d // 4) if d % 4 == 0 else (1, 1, (1 - d) // 4)
    rest = []
    for rep in _reduced_forms(d):
        if rep == principal:
            continue
        a2, m = _coprime_representation(rep, N)
        a, b, _ = _compose(rep, m)
        assert a == a2
        # translate so the middle coefficient lands on B mod 2N
        t0 = (B - b) // 2 * pow(a, -1, N) % N
        bi = b + 2 * a * t0
        # shifting t0 by multiples of N preserves B mod 2N; keep |b| small
        step = 2 * a * N
        bi += step * ((-bi + step // 2) // step)
        rest.append((a, bi, (bi * bi - d) // (4 * a)))
    rest.sort()
    forms = (QuadraticForm(1, B, (B * B - d) // 4), *(QuadraticForm(*f) for f in rest))
    system = NSystem(disc, N, B % (2 * N), forms)
    validate_nsystem(system)
    return system


def validate_nsystem(system: NSystem) -> None:
    """Re-check the defining conditions; raises PreconditionError on failure."""
    d = system.D.D
    n = system.N
    classes = set(_reduced_forms(d))
    if len(system.forms) != len(classes):
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
        seen.add(_reduce(f)[0])
    if len(seen) != len(system.forms) or seen != classes:
        raise PreconditionError("forms do not represent every class exactly once")
