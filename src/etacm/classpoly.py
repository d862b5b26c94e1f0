"""Integer class polynomials of the double eta-quotient over N-systems.

H_{B,N}(X) is the monic degree-h(D) product of (X - w^s(alpha_i)) over an
N-system; by construction it has exact integer coefficients whenever the
integrality conditions hold.  The 4h eta arguments alpha_i/d of one
precision attempt reduce to the h forms of discriminant D, so an attempt
sums one eta series per reduced form (an `EtaTable`), not one per argument.
The complex product is expanded through a balanced tree with one worst-case
error bound carried per polynomial, and the rounding to integers is accepted
only when both the rounding residual and the certified error are small
(`round_certified`); otherwise the precision is doubled up to max_prec by
apcomplex's policy (`double_until`, MIN_PREC, MAX_PRECISION).  modpoly
shares both, and `initial_precision`: the first attempt starts from the
measured height of H, as a pass at MIN_PREC bits gives the roots' norms and
error bounds, hence the precision at which the tree's bound falls below the
rounding limit.  When that bound is already below the limit at MIN_PREC
bits, the pass's roots are the first attempt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .apcomplex import MAX_PRECISION, MIN_PREC, double_until, lg, log2add
from .arith import check_distinct_odd_primes, crt_pair, legendre
from .errors import ConditionsViolated, PrecisionExhausted, ZeroConstantTerm
from .etafunc import EtaTable, Value, s_exponent, w_pow_s_with_err
from .intpoly import pack, slot_bytes, unpack
from .qforms import Discriminant, Form, as_discriminant, b_candidates, build_nsystem

RESIDUAL_LIMIT = 1e-3
TREE_BITS = 32  # extra bits of the product tree over the roots' precision


@dataclass(frozen=True)
class ClassPolynomial:
    """Monic integer polynomial with coefficients stored lowest degree first."""

    D: Discriminant
    p1: int
    p2: int
    s: int
    B: int
    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def descending(self) -> list[int]:
        return list(reversed(self.coeffs))


def _mul_err(norm1: float, err1: float, norm2: float, err2: float, wp: int) -> float:
    """Error bound of a product of two polynomials with these norm and error
    bounds: the propagated error, and the rounding down to the exponent
    floor(norm1 + norm2) - wp (`CPoly.mul`), below sqrt(2) units of it."""
    return log2add(norm1 + err2, norm2 + err1, err1 + err2, _round_exp(norm1 + norm2, wp) + 0.5)


def _round_exp(norm: float, wp: int) -> float:
    """The exponent a product of norm 2^norm is rounded to (-inf for zero)."""
    return math.floor(norm) - wp if norm > -math.inf else -math.inf


class CPoly:
    """Complex polynomial sum_k (re[k] + i im[k]) 2^exp X^k, lowest degree
    first, with an L1-norm bound and a per-coefficient absolute-error bound,
    both as log2 exponents."""

    __slots__ = ("re", "im", "exp", "err", "norm")

    def __init__(self, re: list[int], im: list[int], exp: int, err: float, norm: float):
        self.re = re
        self.im = im
        self.exp = exp
        self.err = err
        self.norm = norm

    @classmethod
    def constant(cls, c: Value, err: float) -> "CPoly":
        return cls([c[0]], [c[1]], c[2], err, lg(c))

    def mul(self, other: "CPoly", wp: int) -> "CPoly":
        """The product, exact, then rounded down to the exponent
        floor(norm1 + norm2) - wp where that is finer than exact.  Its three
        real products (Karatsuba: ac, bd and (a + b)(c + d)) are each one
        product of packed integers (`intpoly.pack`)."""
        n, m = len(self.re), len(other.re)
        bits = (max(max(self.re), -min(self.re), max(self.im), -min(self.im)).bit_length()
                + max(max(other.re), -min(other.re), max(other.im), -min(other.im)).bit_length())
        w = slot_bytes(bits, min(n, m))
        a, b, c, d = (pack(x, w) for x in (self.re, self.im, other.re, other.im))
        ac, bd = a * c, b * d
        re, im = unpack(ac - bd, n + m - 1, w), unpack((a + b) * (c + d) - ac - bd, n + m - 1, w)
        exp = self.exp + other.exp
        shift = _round_exp(self.norm + other.norm, wp) - exp
        if shift > 0:
            re, im, exp = [x >> shift for x in re], [x >> shift for x in im], exp + shift
        err = _mul_err(self.norm, self.err, other.norm, other.err, wp)
        return CPoly(re, im, exp, err, self.norm + other.norm)


def _root_norm(r: Value) -> float:
    """log2 of an upper bound on the L1 norm of X - r."""
    return log2add(0.0, lg(r))


def _balanced(items: list, mul):
    """Fold items pairwise, level by level, as the product tree does."""
    while len(items) > 1:
        nxt = [mul(items[i], items[i + 1]) for i in range(0, len(items) - 1, 2)]
        if len(items) % 2:
            nxt.append(items[-1])
        items = nxt
    return items[0]


def product_tree(roots: list[tuple[Value, float]], wp: int) -> CPoly:
    """Expand prod (X - r_i) for (value, log2 error) pairs."""
    leaves = []
    for r, err in roots:
        a, b, e = r
        if e > 0:
            a, b, e = a << e, b << e, 0
        leaves.append(CPoly([-a, 1 << -e], [-b, 0], e, err, _root_norm(r)))
    return _balanced(leaves, lambda f, g: f.mul(g, wp))


def _tree_err(roots: list[tuple[Value, float]], wp: int) -> float:
    """The error bound `product_tree` would certify, without expanding:
    the same fold over (norm, error) pairs."""
    def mul(f, g):
        return f[0] + g[0], _mul_err(*f, *g, wp)

    return _balanced([(_root_norm(r), err) for r, err in roots], mul)[1]


def round_to_integers(f: CPoly) -> tuple[list[int], float]:
    """Nearest integers to the coefficients and the worst rounding residual."""
    re, im, s = f.re, f.im, -f.exp
    if s <= 0:
        re, im, s = [c << -s for c in re], [c << -s for c in im], 0
    ints = [(c + (1 << s >> 1)) >> s for c in re]
    worst = max(max(abs(c - (n << s)) for c, n in zip(re, ints)), max(im), -min(im))
    return ints, (worst / (1 << s) if worst.bit_length() - s < 1000 else math.inf)


def check_integrality_conditions(D, p1: int, p2: int) -> bool:
    """Whether H has integer coefficients for this (D, p1, p2).

    Only the distinct-odd-prime case is supported; the p1 = p2 and p = 2
    branches report False.
    """
    try:
        disc = as_discriminant(D)
        check_distinct_odd_primes(p1, p2)
    except ValueError:
        return False
    if legendre(disc.D, p1) == -1 or legendre(disc.D, p2) == -1:
        return False
    if disc.f % p1 == 0 or disc.f % p2 == 0:
        return False
    return True


def _roots(forms: list[Form], p1: int, p2: int,
           prec: int) -> list[tuple[Value, float]]:
    """w^s at the basis quotient of every form, with one eta series per
    reduced form of an eta argument: the conjugates of H (the forms of an
    N-system) or of one sample point of Phi."""
    table = EtaTable()
    return [w_pow_s_with_err(f, p1, p2, prec, table) for f in forms]


def initial_precision(tree_err: float, h: int) -> int:
    """Starting precision from the measured height of H.

    tree_err is the bound the product tree would certify for the roots of
    a pass at MIN_PREC bits (`_tree_err`).  Each extra bit of precision
    lowers every term of that bound by one bit, so the start is where it
    falls below RESIDUAL_LIMIT, plus two guard bits per tree level and
    eight more.
    """
    depth = (h - 1).bit_length()
    return MIN_PREC + math.ceil(tree_err - math.log2(RESIDUAL_LIMIT)) + 2 * depth + 8


def round_certified(f: CPoly) -> list[int] | None:
    """The gate of H and Phi: the nearest integers to f's coefficients if the
    rounding residual and the certified bound 2^f.err are below RESIDUAL_LIMIT."""
    ints, residual = round_to_integers(f)
    return ints if residual < RESIDUAL_LIMIT and f.err < math.log2(RESIDUAL_LIMIT) else None


def _expand(roots: list[tuple[Value, float]], prec: int) -> list[int] | None:
    return round_certified(product_tree(roots, prec + TREE_BITS))


def compute_class_polynomial(D, p1: int, p2: int, B: int, *,
                             max_prec: int = MAX_PRECISION) -> ClassPolynomial:
    """H_{B,N} as an exact integer polynomial (adaptive precision)."""
    disc = as_discriminant(D)
    if not check_integrality_conditions(disc, p1, p2):
        raise ConditionsViolated(f"(D, p1, p2) = ({disc.D}, {p1}, {p2}) unsupported")
    N = p1 * p2
    s = s_exponent(p1, p2)
    system = build_nsystem(disc, N, B % (2 * N))

    roots = _roots(system.forms, p1, p2, MIN_PREC)
    err = _tree_err(roots, MIN_PREC + TREE_BITS)
    start = initial_precision(err, len(roots))
    if err < math.log2(RESIDUAL_LIMIT) and max(start, MIN_PREC) <= max_prec:
        # the height pass's roots are predicted to round: they are the first attempt
        start = MIN_PREC
    ints = double_until(start, max_prec,
                        lambda prec: _expand(roots if prec == MIN_PREC
                                             else _roots(system.forms, p1, p2, prec), prec),
                        f"class polynomial for D = {disc.D}, B = {B}")
    if ints[-1] != 1:
        raise PrecisionExhausted("product expansion is not monic")
    return ClassPolynomial(disc, p1, p2, s, B % (2 * N), tuple(ints))


def involution_transform(H: ClassPolynomial) -> ClassPolynomial:
    """The companion polynomial H_{B',N}: reverse the coefficients, twist by
    (p1|p2)^s, and divide by the constant term."""
    if legendre(H.D.D, H.p1) != 1 or legendre(H.D.D, H.p2) != 1:
        raise ConditionsViolated("transform needs (D|p1) = (D|p2) = 1")
    a0 = H.coeffs[0]
    if a0 == 0:
        raise ZeroConstantTerm("constant term vanishes")
    eps = legendre(H.p1, H.p2) ** H.s
    h = H.degree
    out = []
    for j in range(h + 1):
        num = H.coeffs[h - j] * (eps ** ((h - j) % 2))
        if num % a0:
            raise ConditionsViolated("transform is not integral")
        out.append(num // a0)
    n2 = 2 * H.p1 * H.p2
    bp = crt_pair(H.B % H.p1, H.p1, (-H.B) % H.p2, H.p2)
    bp = crt_pair(bp, H.p1 * H.p2, H.B % 2, 2) % n2
    return ClassPolynomial(H.D, H.p1, H.p2, H.s, bp, tuple(out))


def count_distinct_class_polynomials(D, p1: int, p2: int) -> int:
    """Number of distinct H_{B,N} over all admissible B (is 1 or 2)."""
    disc = as_discriminant(D)
    if not check_integrality_conditions(disc, p1, p2):
        raise ConditionsViolated(f"(D, p1, p2) = ({disc.D}, {p1}, {p2}) unsupported")
    N = p1 * p2
    cands = b_candidates(disc, N)
    reps = sorted({min(b, (2 * N - b) % (2 * N)) for b in cands})
    polys = {compute_class_polynomial(disc, p1, p2, b).coeffs for b in reps}
    count = len(polys)
    l1, l2 = legendre(disc.D, p1), legendre(disc.D, p2)
    if l1 == 1 and l2 == 1:
        assert count in (1, 2)
    elif (l1 == 1 and l2 == 0) or (l1 == 0 and l2 == 1):
        assert count == 1
    return count
