"""Exact arithmetic over prime fields and univariate polynomials over them:
root finding with multiplicities and multiple-root detection.

Polynomials store coefficients lowest degree first.  Root finding makes one
exponentiation y = (x + a)^((q-1)/2) mod f per split (Rabin, SIAM J. Comput.
9, 1980).  For f itself the Frobenius identity (x + a)^q = x^q + a gives
x^q = (x + a) y^2 - a, so the linear part gcd(x^q - x, f) comes without a
second exponentiation, and y splits it at once; a later factor of degree 3
or more is split with a fresh shift.  f or a factor of degree 2 or less is
solved in closed form, by the quadratic formula.  The shifts come from a
private generator with a fixed seed, so root finding draws nothing from the
caller: the roots are listed in increasing order, and neither they nor the
work done depend on anything but f.

The arithmetic runs on plain coefficient lists; FpPolynomial objects are
made only at the API boundary.  Below NEWTON_DEGREE an exponentiation, the
bulk of root finding, is one fused loop of schoolbook squares and row-by-row
remainders on a list of deg m ints (_pow_mod), with no packing.  Every other
product is packed into one int (Kronecker substitution; Harvey, J. Symb.
Comp. 44, 2009), and every other remainder comes from a schoolbook loop
below NEWTON_DEGREE and from a Newton inverse of the reversed modulus,
computed once per modulus, from there on.
"""

from __future__ import annotations

import random
from collections import Counter, namedtuple
from functools import lru_cache

from .arith import check_odd_prime, is_prime_modulus
from .errors import PreconditionError
from .intpoly import trim

DEFAULT_SEED = 0


class FpElement(namedtuple("_FpElement", "value modulus")):
    """value mod the prime modulus, reduced to 0 <= value < modulus."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # and _replace: check via __new__

    def __new__(cls, value: int, modulus: int):
        if not is_prime_modulus(modulus):
            raise PreconditionError(f"modulus {modulus} is not prime")
        return super().__new__(cls, value % modulus, modulus)


class FpPolynomial(namedtuple("_FpPolynomial", "modulus coeffs")):
    """coeffs: a tuple, lowest degree first, no trailing zeros."""

    __slots__ = ()

    @classmethod
    def make(cls, coeffs, modulus: int) -> "FpPolynomial":
        return cls(modulus, tuple(trim([c % modulus for c in coeffs])))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def monic(self) -> "FpPolynomial":
        return FpPolynomial(self.modulus, tuple(_monic(self.coeffs, self.modulus)))

    def derivative(self) -> "FpPolynomial":
        return FpPolynomial.make(
            [i * c for i, c in enumerate(self.coeffs)][1:], self.modulus)

    def gcd(self, other: "FpPolynomial") -> "FpPolynomial":
        return FpPolynomial(self.modulus, tuple(_gcd(self.coeffs, other.coeffs, self.modulus)))


# The kernel below works on plain lists of coefficients, lowest degree first,
# reduced mod p and without trailing zeros unless a docstring says otherwise.

# From this modulus degree on, divide by a Newton inverse and exponentiate
# with Kronecker products; below it, divide by a schoolbook loop and
# exponentiate with the fused kernel of _pow_mod.  Measured for
# (x + a)^((p-1)/2) at degree 4 to 40 and 32-, 128- and 256-bit p (one
# 2-core Xeon): below 32 the fused kernel is 1.35-3.0x faster than the
# Newton path at 256-bit p and 1.0-2.6x at 128-bit p; at 32-bit p the Newton
# path is faster from degree 20 on, by up to 1.7x.  A lower switch would
# make 256-bit p, the size of the CM shortcut, 1.35-1.9x slower from degree
# 16 to 31.
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
    """b^e mod the monic m, for b reduced mod m; 0 when m is constant.

    Below NEWTON_DEGREE, r stays a list of d = deg m ints in [0, p): each
    step squares it by schoolbook, every cross product once and doubled, and
    folds the top d - 1 coefficients back row by row (_fold); a multiply by b
    folds len(b) - 1 rows, one for the linear x + a of root finding.  From
    NEWTON_DEGREE on, each product is one Kronecker multiply and each
    remainder a Newton division."""
    if len(m) == 1:
        return []
    if e == 0:
        return [1]
    if not b:
        return []
    d = len(m) - 1
    if d >= NEWTON_DEGREE:
        inv, r = _inverse(m, d - 1, p), b
        for bit in bin(e)[3:]:
            r = _divmod(_mul(r, r, p), m, p, inv)[1]
            if bit == "1":
                r = _divmod(_mul(r, b, p), m, p, inv)[1]
        return r
    low, r = m[:d], b + [0] * (d - len(b))
    for bit in bin(e)[3:]:
        s = [0] * (2 * d - 1)
        for i, x in enumerate(r):
            k = 2 * i
            s[k] += x * x
            x += x
            for y in r[i + 1:]:
                k += 1
                s[k] += x * y
        r = _fold(s, low, p)
        if bit == "1":
            s = [0] * (d + len(b) - 1)
            for i, x in enumerate(b):
                for k, y in enumerate(r, i):
                    s[k] += x * y
            r = _fold(s, low, p)
    return trim(r)


def _fold(s: list, low: list, p: int) -> list:
    """s mod x^d + low, for d = len(low) and any len(s) >= d, as d
    coefficients in [0, p): from the top down, the coefficient c of each x^i
    with i >= d is reduced mod p and c x^(i-d) (x^d + low) subtracted.  s is
    overwritten."""
    d = len(low)
    for i in range(len(s) - 1, d - 1, -1):
        c, k = s[i] % p, i - d
        for y in low:
            s[k] -= c * y
            k += 1
    return [c % p for c in s[:d]]


def _split(g: list, a: int, y: list, p: int) -> list[list]:
    """The factors of g, a monic product of distinct linear factors, by
    y = (x + a)^((p-1)/2) mod g: gcd(y - 1, g), with the roots r that have
    r + a a square, gcd(y + 1, g), with the others, and x + a when it divides
    g; each one that is not constant."""
    y = y or [0]
    parts = [_gcd(trim([(y[0] + c) % p] + y[1:]), g, p) for c in (-1, 1)]
    if not _divmod(g, [a, 1], p)[1]:
        parts.append([a, 1])
    return [h for h in parts if len(h) > 1]


def _distinct_roots(m: list, p: int) -> list[int]:
    """The distinct roots of the monic m, of degree at least 1, in no
    particular order, with one exponentiation for each of m and the later
    nodes that is of degree 3 or more.  The shifts a come from a private
    generator: they decide the work done, never the roots."""
    if len(m) <= 3:
        return _small_roots(m, p)
    rng, half, roots = random.Random(DEFAULT_SEED), (p - 1) // 2, []
    a = rng.randrange(p)
    y = _pow_mod([a, 1], half, m, p)
    # (x + a)^p = x^p + a, so x^p - x = (x + a)(y^2 - 1) mod m: the linear
    # part g of m comes without x^p, and y mod g splits it
    t = _divmod(_mul(y, y, p), m, p)[1] or [0]
    t[0] -= 1
    g = _gcd(_divmod(_mul(t, [a, 1], p), m, p)[1], m, p)
    nodes = _split(g, a, _divmod(y, g, p)[1], p) if len(g) > 1 else []
    while nodes:
        g = nodes.pop()
        if len(g) <= 3:
            roots += _small_roots(g, p)
        else:
            a = rng.randrange(p)
            parts = _split(g, a, _pow_mod([a, 1], half, g, p), p)
            nodes += parts if len(parts) > 1 else [g]
    return roots


def _small_roots(g: list, p: int) -> list[int]:
    """The distinct roots of the monic g of degree 1 or 2 in closed form, with
    no exponentiation: the quadratic formula gives one root for a zero
    discriminant and none for a non-residue."""
    if len(g) == 2:
        return [-g[0] % p]
    c, b, inv2 = g[0], g[1], (p + 1) // 2
    s = _sqrt_mod((b * b - 4 * c) % p, p)
    if s is None:
        return []
    r = (s - b) * inv2 % p
    return [r] if s == 0 else [r, (-s - b) * inv2 % p]


def roots_mod_l(f: FpPolynomial) -> Counter:
    """All roots in F_l with multiplicities, as a Counter {root: mult} that
    lists the roots in increasing order.

    The roots are found with private shifts (_distinct_roots): one
    exponentiation y = (x + a)^((l-1)/2) mod f gives x^l = (x + a) y^2 - a
    by the Frobenius identity, hence the linear part gcd(x^l - x, f), which
    y splits; a later factor of degree 3 or more takes one exponentiation,
    and f or a factor of degree 2 or less at most a square root."""
    check_odd_prime(f.modulus)
    if f.degree < 1:
        raise PreconditionError("degree must be at least 1")
    l = f.modulus
    m = _monic(f.coeffs, l)
    counts: Counter = Counter()
    for r in sorted(_distinct_roots(m, l)):
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
    if not d.coeffs:
        return True
    return f.gcd(d).degree >= 1


@lru_cache(maxsize=64)
def _non_residue(q: int) -> int:
    """The smallest quadratic non-residue mod the odd prime q."""
    n = 2
    while pow(n, (q - 1) // 2, q) != q - 1:
        n += 1
    return n


def _sqrt_mod(v: int, l: int) -> int | None:
    """A square root of v mod l by Tonelli-Shanks, for 0 <= v < l and an odd
    prime l that the caller has already checked: the smaller of the two
    roots, for reproducibility, or None for a non-residue."""
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
    z = pow(_non_residue(l), q, l)
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
