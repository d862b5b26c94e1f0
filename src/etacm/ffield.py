"""Exact arithmetic over prime fields and univariate polynomials over them:
root finding with multiplicities, multiple-root detection, square roots.

Polynomials store coefficients lowest degree first.  Root finding follows
the classical route: strip the X^l - X part with a gcd, then split the
product of linear factors by randomized equal-degree splitting; the
generator is an explicit argument with a fixed default seed so CLI output
is reproducible.

The arithmetic runs on plain coefficient lists, packed into one int for
every product (Kronecker substitution; Harvey, J. Symb. Comp. 44, 2009);
FpPolynomial objects are made only at the API boundary.  Remainders come
from a schoolbook loop at small degree and from a Newton inverse of the
reversed modulus, computed once per modulus, at large degree.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

from .arith import check_odd_prime, is_prime_modulus
from .errors import PreconditionError
from .intpoly import trim

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

    def __mul__(self, other: "FpPolynomial") -> "FpPolynomial":
        return FpPolynomial.make(_mul(self.coeffs, other.coeffs, self.modulus), self.modulus)

    def monic(self) -> "FpPolynomial":
        return FpPolynomial(self.modulus, tuple(_monic(self.coeffs, self.modulus)))

    def divmod(self, other: "FpPolynomial") -> tuple["FpPolynomial", "FpPolynomial"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        p = self.modulus
        inv = pow(other.coeffs[-1], -1, p)
        quo, rem = _divmod(self.coeffs, [c * inv % p for c in other.coeffs], p)
        # a = quo * (m / lead) + rem, so the quotient by m itself is quo / lead
        return FpPolynomial(p, tuple(c * inv % p for c in quo)), FpPolynomial(p, tuple(rem))

    def derivative(self) -> "FpPolynomial":
        return FpPolynomial.make(
            [i * c for i, c in enumerate(self.coeffs)][1:], self.modulus)

    def gcd(self, other: "FpPolynomial") -> "FpPolynomial":
        return FpPolynomial(self.modulus, tuple(_gcd(self.coeffs, other.coeffs, self.modulus)))

    def pow_mod(self, e: int, mod: "FpPolynomial") -> "FpPolynomial":
        if mod.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        p = self.modulus
        m = _monic(mod.coeffs, p)
        return FpPolynomial(p, tuple(_pow_mod(_divmod(self.coeffs, m, p)[1], e, m, p)))


# The kernel below works on plain lists of coefficients, lowest degree first,
# reduced mod p and without trailing zeros unless a docstring says otherwise.

# From this modulus degree on, divide by a Newton inverse.  The value is not
# measured: no benchmark job divides by a modulus of degree above 12.
NEWTON_DEGREE = 32


def _mul(a, b, p: int, n: int | None = None) -> list:
    """The n lowest coefficients of a*b (all of them by default) by Kronecker
    substitution: each list becomes one int with a slot of at least
    2 bitlen(p) + bitlen(len) + 1 bits per coefficient, wide enough that no
    slot of the product overflows into the next, and one int multiply does
    the rest.  The n coefficients are returned as they come out of their
    slots: in [0, len * p^2), not yet reduced mod p, and untrimmed."""
    if not a or not b:
        return [0] * (n or 0)
    if len(b) == 2 and n is None:  # times a linear factor: cheaper than packing
        b0, b1 = b
        return [b0 * a[0]] + [b1 * x + b0 * y for x, y in zip(a, a[1:])] + [a[-1] * b1]
    w = (2 * p.bit_length() + min(len(a), len(b)).bit_length() + 8) // 8  # bytes
    x = int.from_bytes(b"".join([c.to_bytes(w, "little") for c in a]), "little")
    x = x * x if a is b else x * int.from_bytes(
        b"".join([c.to_bytes(w, "little") for c in b]), "little")
    bs = x.to_bytes((x.bit_length() + 7) // 8, "little")
    n = len(a) + len(b) - 1 if n is None else n
    return [int.from_bytes(bs[i:i + w], "little") for i in range(0, n * w, w)]


def _monic(a, p: int) -> list:
    inv = pow(a[-1], -1, p) if a else 1
    return list(a) if inv == 1 else [c * inv % p for c in a]


def _inverse(m: list, k: int, p: int) -> list:
    """The inverse mod x^k of m reversed, m monic, by Newton iteration: each
    step g <- g (2 - m_rev g) doubles the number of correct coefficients."""
    rev, g, n = m[::-1], [1], 1
    while n < k:
        n = min(2 * n, k)
        e = [-c % p for c in _mul(rev[:n], g, p, n)]
        e[0] = (e[0] + 2) % p
        g = [c % p for c in _mul(g, e, p, n)]
    return g


def _divmod(a, m: list, p: int, inv: list | None = None) -> tuple[list, list]:
    """Quotient and remainder of a by the monic m, for a with coefficients
    that need not be reduced mod p; both results are.  Below NEWTON_DEGREE by a
    schoolbook loop; from there on the reversed quotient is rev(a) times the
    inverse of rev(m), to precision k = deg a - deg m + 1 (von zur Gathen and
    Gerhard, Modern Computer Algebra, 9.1).  inv, if given, is that inverse
    to a precision of at least k."""
    d, k = len(m) - 1, len(a) - len(m) + 1
    if k <= 0:
        return [], trim([c % p for c in a])
    if d < NEWTON_DEGREE:
        r, quo = list(a), [0] * k
        for i in range(k - 1, -1, -1):
            c = quo[i] = r[i + d] % p
            if c:
                r[i:i + d] = [x - c * y for x, y in zip(r[i:i + d], m)]
        return quo, trim([c % p for c in r[:d]])
    if inv is None or len(inv) < k:
        inv = _inverse(m, k, p)
    quo = [c % p for c in _mul([c % p for c in a[:d - 1:-1]], inv[:k], p, k)][::-1]
    low = _mul(quo, m, p, d)
    return quo, trim([(x - y) % p for x, y in zip(a, low)])


def _gcd(a, b, p: int) -> list:
    """The monic gcd."""
    a, b = list(a), list(b)
    while b:
        b = _monic(b, p)
        a, b = b, _divmod(a, b, p)[1]
    return _monic(a, p)


def _pow_mod(b: list, e: int, m: list, p: int) -> list:
    """b^e mod the monic m, for b reduced mod m; 0 when m is constant."""
    if len(m) == 1:
        return []
    if e == 0:
        return [1]
    inv = _inverse(m, len(m) - 2, p) if len(m) > NEWTON_DEGREE else None
    r = b
    for bit in bin(e)[3:]:
        r = _divmod(_mul(r, r, p), m, p, inv)[1]
        if bit == "1":
            r = _divmod(_mul(r, b, p), m, p, inv)[1]
    return r


def _linear_roots(f: list, p: int, rng: random.Random) -> list[int]:
    """Roots of a squarefree monic product of linear factors."""
    if len(f) <= 2:
        return [-f[0] % p] if len(f) == 2 else []
    if f[0] == 0:
        return [0] + _linear_roots(f[1:], p, rng)
    half = (p - 1) // 2
    while True:
        a = rng.randrange(p)
        probe = _pow_mod([a, 1], half, f, p) or [0]
        probe[0] = (probe[0] - 1) % p
        g = _gcd(trim(probe), f, p)
        if 1 < len(g) < len(f):
            return _linear_roots(g, p, rng) + _linear_roots(_divmod(f, g, p)[0], p, rng)


def roots_mod_l(f: FpPolynomial, rng: random.Random | None = None) -> Counter:
    """All roots in F_l with multiplicities, as a Counter {root: mult}."""
    check_odd_prime(f.modulus)
    if f.degree < 1:
        raise PreconditionError("degree must be at least 1")
    rng = rng if rng is not None else random.Random(DEFAULT_SEED)
    l = f.modulus
    m = _monic(f.coeffs, l)
    x = _divmod([0, 1], m, l)[1]
    xl = _pow_mod(x, l, m, l) + [0] * len(x)
    xl[:len(x)] = [(c - d) % l for c, d in zip(xl, x)]
    counts: Counter = Counter()
    for r in _linear_roots(_gcd(trim(xl), m, l), l, rng):
        g = m
        while True:
            quo, rem = _divmod(g, [-r % l, 1], l)
            if rem:
                break
            counts[r] += 1
            g = quo
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
