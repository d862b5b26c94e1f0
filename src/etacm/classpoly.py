"""Integer class polynomials of the double eta-quotient over N-systems.

H_{B,N}(X) is the monic degree-h(D) product of (X - w^s(alpha_i)) over an
N-system; by construction it has exact integer coefficients whenever the
integrality conditions hold.  Each root comes from eta at the Hecke points
of its form's reduced form, the route that Phi's conjugates take
(`etafunc.hecke_plan`, `etafunc.w_pow_s_at_hecke_points`): with
alpha_i = R tau_g for the reduced form g, w(alpha_i) is a 24th root of
unity times eta(U_p1 tau_g) eta(U_p2 tau_g) / (eta(tau_g) eta(U_N tau_g)),
with no square root left over.  The Hecke points of all roots are listed
once per H, each evaluated once per attempt; they have discriminant D, so
an attempt sums at most one eta series per class.

H is real, and its roots pair up exactly by conjugation (`_partners`): the
root of [c/N, b, aN] is -conj(-N/tau) for the root tau of [a, b, c], the
Fricke map tau -> -N/tau keeps w (the factors sqrt(tau / (k i)) of
eta(-k/tau) cancel), and w(-conj tau) = conj w(tau), as w has real
q-coefficients; [c/N, b, aN] has the value of the N-system form of its
SL2(Z)-class.  So w^s is evaluated at one form of each pair,
(h + #fixed) / 2 values, and the fixed forms carry the real roots.

H is expanded through a balanced tree (`product_tree`) of real polynomials
(`RPoly`, one `intpoly.mul` per product) from the quadratics
(X - r)(X - conj r), built in closed form, and the real linear factors, with
one worst-case error bound carried per polynomial; the same tree expands
Phi's samples and its Lagrange basis (`modpoly`).  The rounding to integers
is accepted only when both the rounding residual and the certified error are
small (`round_certified`); otherwise the precision is doubled up to max_prec
by apcomplex's policy (`double_until`, MIN_PREC, MAX_PRECISION).  modpoly
shares both, and `initial_precision`: the first attempt starts from the
measured height of H, as a pass at MIN_PREC bits gives the roots' norms and
error bounds, hence the precision at which the tree's bound falls below the
rounding limit.  When that bound is already below the limit at MIN_PREC
bits, the pass's roots are the first attempt.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .apcomplex import MAX_PRECISION, MIN_PREC, double_until, lg, log2add
from .arith import check_distinct_odd_primes, crt_pair, jacobi
from .errors import ConditionsViolated, PrecisionExhausted, ZeroConstantTerm
from .etafunc import Value, hecke_plan, s_exponent, w_pow_s_at_hecke_points
from .intpoly import mul as ipmul
from .qforms import (
    Discriminant,
    NSystem,
    _reduce,
    as_discriminant,
    build_nsystem,
)

RESIDUAL_LIMIT = 1e-3
TREE_BITS = 32  # extra bits of the product tree over the roots' precision


class ClassPolynomial(namedtuple("_ClassPolynomial", "D p1 p2 s B coeffs")):
    """Monic integer polynomial H_{B,N} of the `Discriminant` D at the level
    (p1, p2), with the exponent s of w^s and the residue B mod 2N; coeffs is
    a tuple of ints, lowest degree first."""

    __slots__ = ()

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def descending(self) -> list[int]:
        return list(reversed(self.coeffs))


def _mul_err(norm1: float, err1: float, norm2: float, err2: float, wp: float) -> float:
    """Error bound of a product of two polynomials with these norm and error
    bounds: the propagated error, and the rounding down to the exponent
    floor(norm1 + norm2) - wp (`RPoly.mul`), below one unit, counted as sqrt(2)."""
    return log2add(norm1 + err2, norm2 + err1, err1 + err2, _round_exp(norm1 + norm2, wp) + 0.5)


def _round_exp(norm: float, wp: float) -> float:
    """The exponent a product of norm 2^norm is rounded to (-inf for zero)."""
    return math.floor(norm) - wp if norm > -math.inf else -math.inf


class RPoly:
    """Real polynomial sum_k coeffs[k] 2^exp X^k, lowest degree first, with
    an L1-norm bound and a per-coefficient absolute-error bound, both as log2
    exponents."""

    __slots__ = ("coeffs", "exp", "err", "norm")

    def __init__(self, coeffs: list[int], exp: int, err: float, norm: float):
        self.coeffs = coeffs
        self.exp = exp
        self.err = err
        self.norm = norm

    @classmethod
    def constant(cls, c: int, exp: int, err: float) -> "RPoly":
        return cls([c], exp, err, lg((c, 0, exp)))

    def mul(self, other: "RPoly", wp: float) -> "RPoly":
        """The product, exact (`intpoly.mul`), then rounded down to the
        exponent floor(norm1 + norm2) - wp where that is finer than exact
        (never at wp = math.inf, which keeps the product exact)."""
        n = len(self.coeffs) + len(other.coeffs) - 1
        coeffs = ipmul(self.coeffs, other.coeffs)
        coeffs += [0] * (n - len(coeffs))  # ipmul trims a zero top
        exp = self.exp + other.exp
        shift = _round_exp(self.norm + other.norm, wp) - exp
        if shift > 0:
            coeffs, exp = [x >> shift for x in coeffs], exp + shift
        err = _mul_err(self.norm, self.err, other.norm, other.err, wp)
        return RPoly(coeffs, exp, err, self.norm + other.norm)


def _root_norm(r: Value) -> float:
    """log2 of an upper bound on the L1 norm of X - r."""
    return log2add(0.0, lg(r))


def _leaf_bound(r: Value, err: float, pair: bool) -> tuple[float, float]:
    """(norm, error) bounds of `_leaf`: those of the exact product
    (X - r)(X - conj r) of two linear factors within 2^err, or those of
    X - Re r."""
    if not pair:
        return _root_norm((r[0], 0, r[2])), err
    n = _root_norm(r)
    return 2 * n, _mul_err(n, err, n, err, math.inf)


def _leaf(r: Value, err: float, pair: bool) -> RPoly:
    """(X - r)(X - conj r) for a paired root r = (a + i b) 2^e, in closed form
    (a^2 + b^2) 2^(2e) - 2a 2^e X + X^2, and X - Re r for another."""
    norm, err = _leaf_bound(r, err, pair)
    a, b, e = r
    if e > 0:
        a, b, e = a << e, b << e, 0
    if pair:
        return RPoly([a * a + b * b, -a << (1 - e), 1 << -2 * e], 2 * e, err, norm)
    return RPoly([-a, 1 << -e], e, err, norm)


def _fold(roots: list[tuple[Value, float]], paired: list[bool], leaf, mul, wp: int):
    """The leaves leaf(r, err, pair) of the tree, folded pairwise, level by
    level, with mul(f, g, wp)."""
    items = [leaf(r, err, pair) for (r, err), pair in zip(roots, paired)]
    while len(items) > 1:
        nxt = [mul(items[i], items[i + 1], wp) for i in range(0, len(items) - 1, 2)]
        if len(items) % 2:
            nxt.append(items[-1])
        items = nxt
    return items[0]


def product_tree(roots: list[tuple[Value, float]], paired: list[bool], wp: int) -> RPoly:
    """The real polynomial prod (X - r)(X - conj r) over the paired roots
    times prod (X - Re r) over the others, for (value, log2 error) pairs,
    with a certified bound.

    A pair leaf is the exact product of the two linear factors, so its bound
    has no rounding term.  Each other root approximates a real value, and the
    real part of an approximation is within the same bound of a real value,
    so its imaginary part is dropped.
    """
    return _fold(roots, paired, _leaf, RPoly.mul, wp)


def _tree_err(roots: list[tuple[Value, float]], paired: list[bool], wp: int) -> float:
    """The error bound `product_tree` would certify, without expanding:
    the same fold over (norm, error) pairs."""
    def mul(f, g, w):
        return f[0] + g[0], _mul_err(*f, *g, w)

    return _fold(roots, paired, _leaf_bound, mul, wp)[1]


def _one_per_pair(partner: list[int]) -> tuple[list[int], list[bool]]:
    """For an involution on indices: the index i <= partner[i] of each pair
    or fixed point, and whether it is paired (not fixed)."""
    kept = [i for i, j in enumerate(partner) if i <= j]
    return kept, [partner[i] != i for i in kept]


def round_to_integers(f: RPoly) -> tuple[list[int], float]:
    """Nearest integers to the coefficients and the worst rounding residual."""
    cs, s = f.coeffs, -f.exp
    if s <= 0:
        cs, s = [c << -s for c in cs], 0
    ints = [(c + (1 << s >> 1)) >> s for c in cs]
    worst = max(abs(c - (n << s)) for c, n in zip(cs, ints))
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
    if jacobi(disc.D, p1) == -1 or jacobi(disc.D, p2) == -1:
        return False
    # for an odd prime p, p divides the conductor iff p^2 divides D
    if disc.D % (p1 * p1) == 0 or disc.D % (p2 * p2) == 0:
        return False
    return True


def check_conditions(D, p1: int, p2: int) -> Discriminant:
    """D as a checked `Discriminant`, once the integrality conditions hold
    for (D, p1, p2) (ConditionsViolated if not)."""
    disc = as_discriminant(D)
    if not check_integrality_conditions(disc, p1, p2):
        raise ConditionsViolated(f"(D, p1, p2) = ({disc.D}, {p1}, {p2}) unsupported")
    return disc


def _partners(system: NSystem) -> list[int]:
    """For each form [a, b, c] of the N-system, the index of the form in the
    SL2(Z)-class of [c/N, b, aN], whose root carries the complex conjugate of
    the value at [a, b, c].

    The root tau' of [c/N, b, aN] is -conj(-N/tau) for the root tau of
    [a, b, c].  The Fricke map keeps w (the four factors sqrt(tau / (k i))
    of the transformation eta(-k/tau) cancel), and w(-conj tau) is
    conj w(tau), so w^s(tau') = conj w^s(tau).  [c/N, b, aN] is primitive
    (a prime dividing N, b and c/N would square-divide the fundamental part
    of D, as gcd(N, f) = 1 and N is odd), has N | aN and b = B mod 2N, so its
    value is that of the N-system form of its SL2(Z)-class (Gross, Kohnen
    and Zagier, Math. Ann. 278, 1987).  Applied twice, the map gives back
    [a, b, c]: an involution, whose fixed points carry the real roots of H.
    """
    N = system.N
    index = {_reduce(f)[0]: i for i, f in enumerate(system.forms)}
    return [index[_reduce((c // N, b, a * N))[0]] for a, b, c in system.forms]


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


def round_certified(f: RPoly) -> list[int] | None:
    """The gate of H and Phi: the nearest integers to f's coefficients if the
    rounding residual and the certified bound 2^f.err are below RESIDUAL_LIMIT."""
    ints, residual = round_to_integers(f)
    return ints if residual < RESIDUAL_LIMIT and f.err < math.log2(RESIDUAL_LIMIT) else None


def _expand(roots: list[tuple[Value, float]], paired: list[bool], prec: int) -> list[int] | None:
    return round_certified(product_tree(roots, paired, prec + TREE_BITS))


def compute_class_polynomial(D, p1: int, p2: int, B: int, *,
                             max_prec: int = MAX_PRECISION) -> ClassPolynomial:
    """H_{B,N} as an exact integer polynomial (adaptive precision)."""
    disc = check_conditions(D, p1, p2)
    N = p1 * p2
    s = s_exponent(p1, p2)
    system = build_nsystem(disc, N, B % (2 * N))
    kept, paired = _one_per_pair(_partners(system))
    points, quotients = hecke_plan([system.forms[i] for i in kept], p1, p2)

    def evaluate(prec: int) -> list[tuple[Value, float]]:
        return w_pow_s_at_hecke_points(points, quotients, s, prec)

    roots = evaluate(MIN_PREC)
    err = _tree_err(roots, paired, MIN_PREC + TREE_BITS)
    start = initial_precision(err, len(system.forms))
    if err < math.log2(RESIDUAL_LIMIT):
        # the height pass's roots are predicted to round: they are the first attempt
        start = MIN_PREC
    ints = double_until(start, max_prec,
                        lambda prec: _expand(roots if prec == MIN_PREC else evaluate(prec),
                                             paired, prec),
                        f"class polynomial for D = {disc.D}, B = {B}")
    if ints[-1] != 1:
        raise PrecisionExhausted("product expansion is not monic")
    return ClassPolynomial(disc, p1, p2, s, B % (2 * N), tuple(ints))


def involution_transform(H: ClassPolynomial) -> ClassPolynomial:
    """The companion polynomial H_{B',N}: reverse the coefficients, twist by
    (p1|p2)^s, and divide by the constant term."""
    if jacobi(H.D.D, H.p1) != 1 or jacobi(H.D.D, H.p2) != 1:
        raise ConditionsViolated("transform needs (D|p1) = (D|p2) = 1")
    a0 = H.coeffs[0]
    if a0 == 0:
        raise ZeroConstantTerm("constant term vanishes")
    eps = jacobi(H.p1, H.p2) ** H.s
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
