"""Exact arithmetic over prime fields and univariate polynomials over them:
root finding with multiplicities, multiple-root detection, square roots.

Polynomials store coefficients lowest degree first.  Root finding follows
the classical route: strip the X^l - X part with a gcd, then split the
product of linear factors by randomized equal-degree splitting; the
generator is an explicit argument with a fixed default seed so CLI output
is reproducible.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

from .arith import check_odd_prime, is_prime_modulus
from .errors import PreconditionError

DEFAULT_SEED = 0


@dataclass(frozen=True, slots=True)
class FpElement:
    value: int
    modulus: int

    def __post_init__(self):
        if not is_prime_modulus(self.modulus):
            raise PreconditionError(f"modulus {self.modulus} is not prime")
        object.__setattr__(self, "value", self.value % self.modulus)

    def __int__(self) -> int:
        return self.value


@dataclass(frozen=True, slots=True)
class FpPolynomial:
    modulus: int
    coeffs: tuple[int, ...]  # lowest degree first, no trailing zeros

    @classmethod
    def make(cls, coeffs, modulus: int) -> "FpPolynomial":
        cs = [c % modulus for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(modulus, tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % self.modulus
        return acc

    def __add__(self, other: "FpPolynomial") -> "FpPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] += c
        return FpPolynomial.make(a, self.modulus)

    def __sub__(self, other: "FpPolynomial") -> "FpPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] -= c
        return FpPolynomial.make(a, self.modulus)

    def __mul__(self, other: "FpPolynomial") -> "FpPolynomial":
        if self.is_zero() or other.is_zero():
            return FpPolynomial(self.modulus, ())
        p = self.modulus
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            if ci:
                for j, cj in enumerate(other.coeffs):
                    out[i + j] += ci * cj
        return FpPolynomial.make(out, p)

    def scale(self, k: int) -> "FpPolynomial":
        return FpPolynomial.make([c * k for c in self.coeffs], self.modulus)

    def monic(self) -> "FpPolynomial":
        if self.is_zero():
            return self
        inv = pow(self.coeffs[-1], -1, self.modulus)
        return self.scale(inv)

    def divmod(self, other: "FpPolynomial") -> tuple["FpPolynomial", "FpPolynomial"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        p = self.modulus
        rem = list(self.coeffs)
        dn = other.degree
        inv = pow(other.coeffs[-1], -1, p)
        quo = [0] * max(0, len(rem) - dn)
        for i in range(len(rem) - dn - 1, -1, -1):
            q = rem[i + dn] * inv % p
            if q:
                quo[i] = q
                for j, c in enumerate(other.coeffs):
                    rem[i + j] = (rem[i + j] - q * c) % p
        return FpPolynomial.make(quo, p), FpPolynomial.make(rem[:dn], p)

    def __mod__(self, other: "FpPolynomial") -> "FpPolynomial":
        return self.divmod(other)[1]

    def derivative(self) -> "FpPolynomial":
        return FpPolynomial.make(
            [i * c for i, c in enumerate(self.coeffs)][1:], self.modulus)

    def gcd(self, other: "FpPolynomial") -> "FpPolynomial":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def pow_mod(self, e: int, mod: "FpPolynomial") -> "FpPolynomial":
        result = FpPolynomial.make([1], self.modulus)
        base = self % mod
        while e:
            if e & 1:
                result = (result * base) % mod
            base = (base * base) % mod
            e >>= 1
        return result


def _x_poly(l: int) -> FpPolynomial:
    return FpPolynomial.make([0, 1], l)


def _linear_roots(f: FpPolynomial, rng: random.Random) -> list[int]:
    """Roots of a squarefree product of linear factors (monic)."""
    l = f.modulus
    if f.degree <= 0:
        return []
    if f.degree == 1:
        return [(-f.coeffs[0]) * pow(f.coeffs[1], -1, l) % l]
    if f.coeffs[0] == 0:
        rest, _ = f.divmod(_x_poly(l))
        return [0] + _linear_roots(rest.monic(), rng)
    half = (l - 1) // 2
    while True:
        a = rng.randrange(l)
        probe = FpPolynomial.make([a, 1], l).pow_mod(half, f)
        g = (probe - FpPolynomial.make([1], l)).gcd(f)
        if 0 < g.degree < f.degree:
            other, _ = f.divmod(g)
            return _linear_roots(g, rng) + _linear_roots(other.monic(), rng)


def roots_mod_l(f: FpPolynomial, rng: random.Random | None = None) -> Counter:
    """All roots in F_l with multiplicities, as a Counter {root: mult}."""
    check_odd_prime(f.modulus)
    if f.degree < 1:
        raise PreconditionError("degree must be at least 1")
    rng = rng if rng is not None else random.Random(DEFAULT_SEED)
    l = f.modulus
    xl = _x_poly(l).pow_mod(l, f)
    linear_part = (xl - _x_poly(l) % f).gcd(f)
    counts: Counter = Counter()
    for r in _linear_roots(linear_part, rng):
        factor = FpPolynomial.make([-r, 1], l)
        g = f
        while True:
            q, rem = g.divmod(factor)
            if not rem.is_zero():
                break
            counts[r] += 1
            g = q
    return counts


def has_multiple_root(f: FpPolynomial) -> bool:
    """True iff gcd(f, f') is non-constant."""
    if f.degree < 1:
        raise PreconditionError("degree must be at least 1")
    d = f.derivative()
    if d.is_zero():
        return True
    return f.gcd(d).degree >= 1


def sqrt_mod_l(a, modulus: int | None = None) -> FpElement | None:
    """Tonelli-Shanks square root, or None for a non-residue.

    Returns the smaller of the two roots, for reproducibility.
    """
    if isinstance(a, FpElement):
        a, modulus = a.value, a.modulus
    elif modulus is None:
        raise PreconditionError("modulus required for plain integers")
    check_odd_prime(modulus)
    r = _sqrt_mod(a % modulus, modulus)
    return None if r is None else FpElement(r, modulus)


def _sqrt_mod(v: int, l: int) -> int | None:
    """sqrt_mod_l for 0 <= v < l and an odd prime l that the caller has
    already checked: the smaller root as an int, or None."""
    if v == 0:
        return 0
    if pow(v, (l - 1) // 2, l) != 1:
        return None
    if l % 4 == 3:
        r = pow(v, (l + 1) // 4, l)
        return min(r, l - r)
    # write l - 1 = q * 2^s with q odd
    q, s = l - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    n = 2
    while pow(n, (l - 1) // 2, l) != l - 1:
        n += 1
    z = pow(n, q, l)
    m, c, t, r = s, z, pow(v, q, l), pow(v, (q + 1) // 2, l)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % l
            i += 1
        b = pow(c, 1 << (m - i - 1), l)
        m, c = i, b * b % l
        t = t * c % l
        r = r * b % l
    return min(r, l - r)
