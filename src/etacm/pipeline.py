"""End-to-end CM curve construction over a prime field.

Steps: pick the trace (4q = t^2 - D v^2), build the N-system and class
polynomial, take a root of H mod q, solve the modular equation in J, select
the J-invariant and twist, and certify the curve order.  The order is
already known to be q + 1 -+ t, so no points are counted: random points are
checked against both orders, and the first candidate that passes is taken
(a multiple J-root, when there is one, is tried first).  Only for
q <= EXHAUSTIVE_LIMIT (10^6), where both orders can pass, is the order
counted exactly by a character-sum sweep.  Everything is deterministic for
a fixed seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

from .arith import check_odd_prime, is_square
from .classpoly import MAX_PRECISION, check_integrality_conditions, compute_class_polynomial
from .errors import NoRationalJRoot, NoTrace, PreconditionError
from .ffield import FpElement, FpPolynomial, _sqrt_mod, roots_mod_l, sqrt_mod_l
from .modpoly import ModularPolynomial, compute_modular_polynomial, evaluate_in_j_mod_l, load_embedded
from .qforms import Discriminant, b_candidates
from .atkin import multiple_root_condition

EXHAUSTIVE_LIMIT = 10**6
ORDER_CHECKS = 20


@dataclass(frozen=True, slots=True)
class TraceSolution:
    q: int
    t: int
    v: int

    def __post_init__(self):
        if self.t % self.q == 0:
            raise PreconditionError("supersingular trace (t = 0 mod q)")


@dataclass(frozen=True, slots=True)
class EllipticCurve:
    q: int
    a4: FpElement
    a6: FpElement

    def __post_init__(self):
        a, b = self.a4.value, self.a6.value
        if (4 * a * a * a + 27 * b * b) % self.q == 0:
            raise PreconditionError("singular curve")

    @classmethod
    def make(cls, q: int, a4: int, a6: int) -> "EllipticCurve":
        return cls(q, FpElement(a4, q), FpElement(a6, q))

    def j_invariant(self) -> int:
        q = self.q
        a, b = self.a4.value, self.a6.value
        num = 6912 * pow(a, 3, q)
        den = (4 * pow(a, 3, q) + 27 * pow(b, 2, q)) % q
        return num * pow(den, -1, q) % q

    def quadratic_twist(self) -> "EllipticCurve":
        c = _non_residue(self.q)
        return EllipticCurve.make(
            self.q, self.a4.value * c * c, self.a6.value * c * c * c)


@dataclass(frozen=True, slots=True)
class OrderCertificate:
    curve: EllipticCurve
    order: int
    trace: int
    checks: int = ORDER_CHECKS
    ambiguous: bool = False
    alt_order: int | None = None


def find_trace(D: int, q: int) -> TraceSolution | None:
    """Positive trace t and v with 4q = t^2 - D v^2, smallest v; None if
    q does not split suitably."""
    D = int(D)
    if D >= 0 or D % 4 not in (0, 1):
        raise PreconditionError(f"{D} is not a negative discriminant")
    check_odd_prime(q)
    if D % q == 0:
        return None  # q | D forces q | t, never ordinary
    if q <= EXHAUSTIVE_LIMIT or -D <= 4:
        return _trace_exhaustive(D, q)
    return _trace_cornacchia(D, q)


def _trace_exhaustive(D: int, q: int) -> TraceSolution | None:
    for v in range(1, isqrt(4 * q // -D) + 1):
        tt = 4 * q + D * v * v
        if tt <= 0:
            break
        if is_square(tt):
            t = isqrt(tt)
            if t > 0 and t % q:
                return TraceSolution(q, t, v)
    return None


def _trace_cornacchia(D: int, q: int) -> TraceSolution | None:
    r = sqrt_mod_l(D % q, q)
    if r is None:
        return None
    x0 = r.value
    if (x0 - D) % 2:
        x0 = q - x0
    a, b = 2 * q, x0
    limit = isqrt(4 * q)
    while b > limit:
        a, b = b, a % b
    rem = 4 * q - b * b
    if b == 0 or rem % -D:
        return None
    vv = rem // -D
    if not is_square(vv):
        return None
    return TraceSolution(q, b, isqrt(vv))


@lru_cache(maxsize=64)
def _non_residue(q: int) -> int:
    n = 2
    while pow(n, (q - 1) // 2, q) != q - 1:
        n += 1
    return n


def curve_from_j(jbar, q: int | None = None) -> EllipticCurve:
    """Short Weierstrass curve with the given j-invariant (q > 3)."""
    if isinstance(jbar, FpElement):
        q, j = jbar.modulus, jbar.value
    else:
        if q is None:
            raise PreconditionError("modulus required for plain integers")
        j = int(jbar) % q
    if q <= 3:
        raise PreconditionError("q > 3 required")
    if j == 0:
        return EllipticCurve.make(q, 0, 1)
    if j == 1728 % q:
        return EllipticCurve.make(q, 1, 0)
    k = j * pow((1728 - j) % q, -1, q) % q
    return EllipticCurve.make(q, 3 * k, 2 * k)


def curves_with_j(jbar: int, q: int) -> list[EllipticCurve]:
    """The curve with invariant jbar together with its twists (all of them
    in the j = 0 and j = 1728 cases)."""
    base = curve_from_j(jbar, q)
    c = _non_residue(q)
    if jbar % q == 0 and q % 3 == 1:
        # the six classes need a c that is neither a square nor a cube
        while pow(c, (q - 1) // 3, q) == 1 or pow(c, (q - 1) // 2, q) != q - 1:
            c += 1
        return [EllipticCurve.make(q, 0, pow(c, k, q)) for k in range(6)]
    if jbar % q == 1728 % q and q % 4 == 1:
        return [EllipticCurve.make(q, pow(c, k, q), 0) for k in range(4)]
    return [base, base.quadratic_twist()]


# ---------------------------------------------------------------------------
# group arithmetic (affine, None is the point at infinity)

Point = tuple[int, int] | None


def ec_add(P: Point, Q: Point, a: int, q: int) -> Point:
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % q == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, q) % q
    else:
        lam = (y2 - y1) * pow((x2 - x1) % q, -1, q) % q
    x3 = (lam * lam - x1 - x2) % q
    return (x3, (lam * (x1 - x3) - y1) % q)


def ec_neg(P: Point, q: int) -> Point:
    return None if P is None else (P[0], (-P[1]) % q)


def ec_mul(k: int, P: Point, a: int, q: int) -> Point:
    if k < 0:
        return ec_neg(ec_mul(-k, P, a, q), q)
    acc: Point = None
    add = P
    while k:
        if k & 1:
            acc = ec_add(acc, add, a, q)
        add = ec_add(add, add, a, q)
        k >>= 1
    return acc


def random_point(curve: EllipticCurve, rng: random.Random) -> Point:
    q = curve.q
    a, b = curve.a4.value, curve.a6.value
    while True:
        x = rng.randrange(q)
        rhs = (x * x * x + a * x + b) % q
        root = _sqrt_mod(rhs, q)  # the FpElement coefficients checked that q is prime
        if root is not None:
            return (x, root)


def point_count(curve: EllipticCurve) -> int:
    """Exact group order by a quadratic-character sweep over every x.

    Only for q <= EXHAUSTIVE_LIMIT: larger CM curves are certified by
    random-point order checks against q + 1 -+ t instead (see
    `construct_cm_curve`).
    """
    q = curve.q
    if q > EXHAUSTIVE_LIMIT:
        raise PreconditionError(f"point count by sweep needs q <= {EXHAUSTIVE_LIMIT}")
    a, b = curve.a4.value, curve.a6.value
    is_sq = bytearray(q)
    for x in range(q // 2 + 1):
        is_sq[x * x % q] = 1
    n = q + 1
    for x in range(q):
        rhs = (x * x * x + a * x + b) % q
        if rhs:
            n += 1 if is_sq[rhs] else -1
    return n


def order_check(curve: EllipticCurve, n: int, rng: random.Random,
                trials: int = ORDER_CHECKS) -> bool:
    """n * P = infinity for `trials` random points."""
    a = curve.a4.value
    for _ in range(trials):
        P = random_point(curve, rng)
        if ec_mul(n, P, a, curve.q) is not None:
            return False
    return True


def _certify(curve: EllipticCurve, n1: int, n2: int, t: int,
             rng: random.Random) -> OrderCertificate | None:
    """Certificate for order n1 if n1 passes `order_check`, else for n2;
    ambiguous when both pass, None when neither does."""
    ok1 = order_check(curve, n1, rng)
    ok2 = order_check(curve, n2, rng)
    if not (ok1 or ok2):
        return None
    both = ok1 and ok2
    return OrderCertificate(curve, n1 if ok1 else n2, t, ambiguous=both,
                            alt_order=n2 if both else None)


@lru_cache(maxsize=16)
def _modular_polynomial(p1: int, p2: int, max_prec: int = MAX_PRECISION) -> ModularPolynomial:
    if (p1, p2) == (3, 13):
        return load_embedded(3, 13)
    return compute_modular_polynomial(p1, p2, max_prec=max_prec)


def construct_cm_curve(D, p1: int, p2: int, q: int, B: int | None = None,
                       seed: int = 0, *, max_prec: int = MAX_PRECISION
                       ) -> tuple[EllipticCurve, OrderCertificate, bool]:
    """Full CM construction; returns (curve, certificate, used_shortcut).

    max_prec caps the precision of H and, unless it is the embedded
    Phi_{3,13}, of Phi.
    """
    disc = D if isinstance(D, Discriminant) else Discriminant(int(D))
    if not check_integrality_conditions(disc, p1, p2):
        raise PreconditionError(f"(D, p1, p2) = ({disc.D}, {p1}, {p2}) unsupported")
    trace = find_trace(disc.D, q)
    if trace is None:
        raise NoTrace(f"4q = t^2 - D v^2 has no solution for q = {q}")
    rng = random.Random(seed)
    N = p1 * p2
    cands = b_candidates(disc, N)
    if B is None:
        B = next((b for b in cands if multiple_root_condition(disc.D, N, b)), cands[0])

    H = compute_class_polynomial(disc, p1, p2, B, max_prec=max_prec)
    hq = FpPolynomial.make(H.coeffs, q)
    hroots = roots_mod_l(hq, rng)
    if not hroots:
        raise NoRationalJRoot(f"H has no root mod {q}")
    wbar = min(hroots)

    phi = _modular_polynomial(p1, p2, max_prec)
    jpoly = evaluate_in_j_mod_l(phi, wbar, q)
    if jpoly.degree < 1:
        raise NoRationalJRoot(f"modular equation degenerates mod {q}")
    jroots = roots_mod_l(jpoly, rng)
    if not jroots:
        raise NoRationalJRoot(f"no rational J-root mod {q}")
    n1, n2 = q + 1 - trace.t, q + 1 + trace.t

    # a multiple J-root is the CM invariant: take it without any counting
    # (several can coincide mod q for J-degree > 2; the failing ones are
    # weeded out by the random-point certificate and we fall back to trying
    # every candidate only if none survives)
    for jbar in sorted(r for r, m in jroots.items() if m >= 2):
        for cand in curves_with_j(jbar, q):
            cert = _certify(cand, n1, n2, trace.t, rng)
            if cert is not None:
                return cand, cert, True

    # otherwise the first candidate in (jbar, a4, a6) order with order n1 or
    # n2; at q <= EXHAUSTIVE_LIMIT both orders can pass the random-point
    # check, so the order is counted exactly there and only re-checked
    for jbar in sorted(jroots):
        for cand in sorted(curves_with_j(jbar, q), key=lambda e: (e.a4.value, e.a6.value)):
            if q > EXHAUSTIVE_LIMIT:
                cert = _certify(cand, n1, n2, trace.t, rng)
                if cert is None:
                    continue
            else:
                n = point_count(cand)
                if n not in (n1, n2):
                    continue
                cert = _certify(cand, n, n1 + n2 - n, trace.t, rng)
                if cert is None or cert.order != n:
                    raise PreconditionError("exact count failed the random-point re-check")
            return cand, cert, False
    raise NoRationalJRoot("no candidate curve has a CM-compatible order")
