"""End-to-end CM curve construction over a prime field.

Steps: pick the trace (4q = t^2 - D v^2), build the N-system and class
polynomial, take a root of H mod q, solve the modular equation in J, select
the J-invariant and twist, and certify the curve order.  The order is
already known to be q + 1 -+ t, so no points are counted: a random point
whose order divides one of the two orders but not their gcd decides between
them (a few such points at small q, so that the curve of a spurious J-root
with a cyclic group passes with probability below 2^-64; the quadratic
twist decides when the curve's own points cannot), and the first candidate
that passes is taken.  A multiple J-root, when there is one, is tried
first, and it is read off gcd(f, f') of the J-slice f without splitting f;
f is split only when no multiple root gives a curve.  Only for small q
(none above 1549), where ORDER_CHECKS points cannot meet that bound, is the
order counted exactly by a character-sum sweep.  Everything is
deterministic for a fixed seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from math import ceil, isqrt, log2

from .apcomplex import MAX_PRECISION
from .arith import check_odd_prime, is_square
from .classpoly import check_integrality_conditions, compute_class_polynomial
from .errors import ConditionsViolated, NoRationalJRoot, NoTrace, PreconditionError
from .ffield import FpElement, FpPolynomial, _non_residue, _sqrt_mod, roots_mod_l
from .modpoly import ModularPolynomial, compute_modular_polynomial, evaluate_in_j_mod_l, load_embedded
from .qforms import as_discriminant, b_candidates
from .atkin import multiple_root_condition

EXHAUSTIVE_LIMIT = 10**6
ORDER_CHECKS = 20
FALSE_ACCEPT_BITS = 64


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
        if self.q <= 3:
            raise PreconditionError("q > 3 required")
        if self.a4.modulus != self.q or self.a6.modulus != self.q:
            raise PreconditionError(f"coefficients must lie in F_{self.q}")
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
    checks: int  # random points drawn
    ambiguous: bool = False
    alt_order: int | None = None


def find_trace(D, q: int) -> TraceSolution | None:
    """Positive trace t and v with 4q = t^2 - D v^2, smallest v; None if
    q does not split suitably."""
    D = as_discriminant(D).D
    check_odd_prime(q)
    if D % q == 0:
        return None  # q | D forces q | t, never ordinary
    return _trace_cornacchia(D, q)


def _trace_cornacchia(D: int, q: int) -> TraceSolution | None:
    """Cornacchia: Euclid on (2q, x0), x0 a square root of D mod q of D's
    parity, down to the first remainder t <= 2 sqrt(q).

    The remainders decrease, so Euclid stops at the largest t <= 2 sqrt(q),
    which is the smallest v (t^2 = 4q + D v^2), also where the units give
    D = -3 and -4 more than one solution: for both, and every prime
    5 <= q < 2 * 10^5, it is the exhaustive search's (`tests/oracles.py`).
    """
    x0 = _sqrt_mod(D % q, q)  # find_trace has checked q
    if x0 is None:
        return None
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


def curve_from_j(jbar, q: int | None = None) -> EllipticCurve:
    """Short Weierstrass curve with the given j-invariant (q > 3)."""
    if not isinstance(jbar, FpElement):
        if q is None:
            raise PreconditionError("modulus required for plain integers")
        jbar = FpElement(int(jbar), q)
    j, q = jbar.value, jbar.modulus
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
# group arithmetic (affine points, None is the point at infinity; ec_mul
# works in Jacobian coordinates (X : Y : Z) = (X/Z^2, Y/Z^3), Z = 0 at
# infinity, and inverts once at the end)

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


def _jacobian_double(X: int, Y: int, Z: int, a: int, q: int) -> tuple[int, int, int]:
    """dbl-2007-bl of the Explicit-Formulas Database (any a)."""
    XX, YY, ZZ = X * X % q, Y * Y % q, Z * Z % q
    YYYY = YY * YY % q
    S = X + YY
    S = 2 * (S * S - XX - YYYY) % q
    M = (3 * XX + a * ZZ * ZZ) % q
    T = (M * M - 2 * S) % q
    Z3 = Y + Z
    return T, (M * (S - T) - 8 * YYYY) % q, (Z3 * Z3 - YY - ZZ) % q


def _jacobian_add_affine(X1: int, Y1: int, Z1: int, x2: int, y2: int,
                         a: int, q: int) -> tuple[int, int, int]:
    """(X1 : Y1 : Z1) + (x2, y2): madd-2007-bl of the Explicit-Formulas
    Database, with the cases it leaves out (infinity, P + P, P + (-P))."""
    if Z1 == 0:
        return x2, y2, 1
    Z1Z1 = Z1 * Z1 % q
    H = (x2 * Z1Z1 - X1) % q
    r = 2 * (y2 * Z1 * Z1Z1 - Y1) % q
    if H == 0:
        return _jacobian_double(X1, Y1, Z1, a, q) if r == 0 else (1, 1, 0)
    HH = H * H % q
    I = 4 * HH
    J = H * I % q
    V = X1 * I % q
    X3 = (r * r - J - 2 * V) % q
    Z3 = Z1 + H
    return X3, (r * (V - X3) - 2 * Y1 * J) % q, (Z3 * Z3 - Z1Z1 - HH) % q


def ec_mul(k: int, P: Point, a: int, q: int) -> Point:
    if k < 0:
        return ec_neg(ec_mul(-k, P, a, q), q)
    if k == 0 or P is None:
        return None
    x, y = P
    X, Y, Z = x, y, 1
    for bit in bin(k)[3:]:
        X, Y, Z = _jacobian_double(X, Y, Z, a, q)
        if bit == "1":
            X, Y, Z = _jacobian_add_affine(X, Y, Z, x, y, a, q)
    if Z == 0:
        return None
    zi = pow(Z, -1, q)
    zi2 = zi * zi % q
    return X * zi2 % q, Y * zi2 * zi % q


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

    For q <= EXHAUSTIVE_LIMIT only.  `_certify` counts only where
    ORDER_CHECKS random points cannot meet its 2^-64 bound (no prime above
    1549); other CM curves are certified by random points instead.
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
    """n * P = infinity for `trials` random points.

    A direct check of one order, for callers that know the order they
    expect; `_certify` decides between the two CM orders on its own.
    """
    a = curve.a4.value
    for _ in range(trials):
        P = random_point(curve, rng)
        if ec_mul(n, P, a, curve.q) is not None:
            return False
    return True


def _escapes_needed(q: int) -> int | None:
    """Smallest k with (4 sqrt(q) / (q + 1 - 2 sqrt(q)))^k <=
    2^-FALSE_ACCEPT_BITS, where sqrt(q) is rounded up to the next integer;
    None when that k exceeds ORDER_CHECKS (for no prime above 1549)."""
    s = isqrt(q) + 1
    if q + 1 - 2 * s <= 4 * s:
        return None
    k = ceil(FALSE_ACCEPT_BITS / (log2(q + 1 - 2 * s) - log2(4 * s)))
    return k if k <= ORDER_CHECKS else None


def _certify(curve: EllipticCurve, n1: int, n2: int, t: int,
             rng: random.Random) -> OrderCertificate | None:
    """Certificate for whichever of the two orders n1, n2 is #E, or None.

    The promise #E in {n1, n2}: for j a root of the Hilbert class
    polynomial H_D mod q, E has CM by the order of discriminant D, so
    by Deuring's reduction theorem its Frobenius has trace t' with
    4q = t'^2 - D v'^2, and #E = q + 1 - t' is n1 or n2 for E or its
    quadratic twist (the other twists at j = 0 and 1728 have other orders).

    The check: for each random point P it decides which of n1 P and
    n2 P = n1 P + (n2 - n1) P are O.  If neither is, #E is neither order
    and the answer is None at once.  P escapes g = gcd(n1, n2) when exactly
    one product is O: its order divides that n_i but not g, so it does not
    divide the other order, and under the promise one escaping point proves
    #E = n_i (Atkin and Morain, Elliptic curves and primality proving, Math.
    Comp. 61, 1993).

    The promise can fail: the modular equation can give a spurious J-root
    that is not a root of H_D, whose curve has some order m not in
    {n1, n2}.  Such a curve passes only if every escaping point has order
    dividing gcd(n_i, m) <= |n_i - m| <= 4 sqrt(q) (Hasse, for both).  Those
    points make up at most 4 d1 sqrt(q) / m of E(F_q), d1 the smaller
    invariant factor of E(F_q) = Z/d1 x Z/d2.  So k escaping points are
    required, the least k with (4 sqrt(q) / (q + 1 - 2 sqrt(q)))^k <=
    2^-FALSE_ACCEPT_BITS (`_escapes_needed`): 1 from q ~ 2^132 up, 2 at
    128 bits, 17 at q = 3593, 20 at q = 1553.  For cyclic E(F_q) (d1 = 1)
    this is the chance that a spurious curve passes.  Where no k <=
    ORDER_CHECKS meets the bound, #E is counted (`point_count`) and
    re-checked on ORDER_CHECKS points, which only a faulty count fails.

    `checks` is the number of points drawn.  Fewer than k escape among
    ORDER_CHECKS points when escaping points are rare; none escapes when
    the exponent of E(F_q), at least sqrt(#E), divides g <= 4 sqrt(q).
    Then the quadratic twist E' decides: #E + #E' = 2q + 2 = n1 + n2, so
    #E' is in {n1, n2} exactly when #E is (None if not), and then
    #E = n1 + n2 - #E'.  For q > 229, E or E' has a point whose order has
    only one multiple in the Hasse interval (Cremona and Sutherland, On a
    theorem of Mestre and Schoof, J. Theor. Nombres Bordeaux 22, 2010), and
    such a point escapes g.  A spurious curve's twist is spurious too (2q + 2 - m
    is not in {n1, n2}), so it passes with k escaping points only with
    chance below 2^-64, as above.  If E' is ambiguous as well, so is the
    certificate: its order is the one that annihilated every point of E
    (n1 when both did), and alt_order the other.
    """
    need = _escapes_needed(curve.q)
    if need is None:
        n = point_count(curve)
        if n not in (n1, n2):
            return None
        if not order_check(curve, n, rng):
            raise PreconditionError("exact count failed the random-point re-check")
        return OrderCertificate(curve, n, t, ORDER_CHECKS)
    cert = _escaping_points(curve, n1, n2, t, need, rng)
    if cert is None or not cert.ambiguous:
        return cert
    twist = _escaping_points(curve.quadratic_twist(), n1, n2, t, need, rng)
    if twist is None:
        return None
    if twist.ambiguous:
        return cert
    return OrderCertificate(curve, n1 + n2 - twist.order, t, cert.checks + twist.checks)


def _escaping_points(curve: EllipticCurve, n1: int, n2: int, t: int, need: int,
                     rng: random.Random) -> OrderCertificate | None:
    """Draw up to ORDER_CHECKS points until `need` escape gcd(n1, n2);
    None once no order annihilates every point drawn, an ambiguous
    certificate if fewer than `need` escape (see `_certify`)."""
    q, a = curve.q, curve.a4.value
    ok1 = ok2 = True  # n_i P = O for every point so far
    escaped = 0
    for drawn in range(1, ORDER_CHECKS + 1):
        P = random_point(curve, rng)
        R1 = ec_mul(n1, P, a, q)
        R2 = ec_add(R1, ec_mul(n2 - n1, P, a, q), a, q)
        ok1 = ok1 and R1 is None
        ok2 = ok2 and R2 is None
        if not (ok1 or ok2):
            return None
        escaped += (R1 is None) != (R2 is None)
        if escaped == need:
            return OrderCertificate(curve, n1 if ok1 else n2, t, drawn)
    return OrderCertificate(curve, n1 if ok1 else n2, t, ORDER_CHECKS,
                            ambiguous=True, alt_order=n2 if ok1 else n1)


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
    disc = as_discriminant(D)
    if not check_integrality_conditions(disc, p1, p2):
        raise ConditionsViolated(f"(D, p1, p2) = ({disc.D}, {p1}, {p2}) unsupported")
    trace = find_trace(disc, q)
    if trace is None:
        raise NoTrace(f"4q = t^2 - D v^2 has no solution for q = {q}")
    rng = random.Random(seed)
    if B is None:
        N = p1 * p2
        cands = b_candidates(disc, N)
        B = next((b for b in cands if multiple_root_condition(disc, N, b)), cands[0])

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
    n1, n2 = q + 1 - trace.t, q + 1 + trace.t

    # a multiple J-root is the CM invariant: read it off g = gcd(f, f'), whose
    # roots are exactly the roots of f of multiplicity >= 2, and take it
    # without any counting (several can coincide mod q for J-degree > 2; the
    # failing ones are weeded out by the random-point certificate, which
    # proves that a rejected curve has neither order)
    g = jpoly.gcd(jpoly.derivative())
    if g.degree < 2:
        multiple = [-g.coeffs[0] % q] if g.degree == 1 else []
    else:
        multiple = sorted(roots_mod_l(g, rng))
    for jbar in multiple:
        for cand in curves_with_j(jbar, q):
            cert = _certify(cand, n1, n2, trace.t, rng)
            if cert is not None:
                return cand, cert, True

    # otherwise the first candidate in (jbar, a4, a6) order with order n1 or n2
    jroots = roots_mod_l(jpoly, rng)
    if not jroots:
        raise NoRationalJRoot(f"no rational J-root mod {q}")
    for jbar in sorted(set(jroots) - set(multiple)):
        for cand in sorted(curves_with_j(jbar, q), key=lambda e: (e.a4.value, e.a6.value)):
            cert = _certify(cand, n1, n2, trace.t, rng)
            if cert is not None:
                return cand, cert, False
    raise NoRationalJRoot("no candidate curve has a CM-compatible order")
