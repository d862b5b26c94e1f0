"""Independent oracles the tests check the library against.

Everything here deliberately avoids the library's own code paths: eta and J
come from mpmath's high-level q-Pochhammer and theta functions (eta at any
point x + i sqrt(y2), x and y2 rational, through Rademacher's Dedekind-sum
multiplier), form counts from a direct triple loop, the reduction of a
point from exact rational arithmetic, point counts from a naive sweep, the
solutions of x^2 - D y^2 = n from a search over x, the group law from affine
chord-and-tangent steps, the j-invariant of a curve from its textbook
formula, the Hilbert class polynomial from theta-based
j-values expanded with mpmath arithmetic, and polynomial arithmetic and
root finding over F_p from schoolbook loops.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from math import floor, gcd, isqrt

import mpmath


def eta_oracle(z: complex, dps: int = 60) -> mpmath.mpc:
    """q^{1/24} * qp(q) with mpmath's own exp/qp implementations."""
    with mpmath.workdps(dps):
        zz = mpmath.mpc(z)
        q = mpmath.exp(2j * mpmath.pi * zz)
        return mpmath.exp(2j * mpmath.pi * zz / 24) * mpmath.qp(q)


def root_of_unity(k: int, prec: int) -> mpmath.mpc:
    """exp(pi i k / 12) from mpmath's expjpi at prec bits."""
    with mpmath.workprec(prec):
        return mpmath.expjpi(mpmath.mpf(k) / 12)


def j_oracle(z: complex, dps: int = 60) -> mpmath.mpc:
    """Klein j via Jacobi theta constants: 256 (l^2-l+1)^3 / (l(1-l))^2."""
    with mpmath.workdps(dps):
        zz = mpmath.mpc(z)
        qhalf = mpmath.exp(1j * mpmath.pi * zz)
        t2 = mpmath.jtheta(2, 0, qhalf)
        t3 = mpmath.jtheta(3, 0, qhalf)
        lam = (t2 / t3) ** 4
        return 256 * (lam * lam - lam + 1) ** 3 / (lam * (1 - lam)) ** 2


def gauss_reduce_point(x: Fraction, y2: Fraction) -> tuple[int, int, int, int]:
    """M in SL2(Z) with M z Gauss-reduced, for z = x + i sqrt(y2) with x and
    y2 > 0 rational, exactly: move Re z into [-1/2, 1/2), invert while
    |z| < 1, and on the unit arc invert once more if Re z > 0."""
    a, b, c, d = 1, 0, 0, 1
    while True:
        t = floor(x + Fraction(1, 2))
        x, a, b = x - t, a - t * c, b - t * d
        n = x * x + y2
        if n >= 1:
            break
        x, y2 = -x / n, y2 / (n * n)  # z -> -1/z
        a, b, c, d = -c, -d, a, b
    if n == 1 and x > 0:
        a, b, c, d = -c, -d, a, b
    return a, b, c, d


def dedekind_sum(h: int, k: int) -> Fraction:
    """s(h, k) for k > 0, from its definition sum_{r=1}^{k-1} ((r/k)) ((hr/k)),
    with ((x)) = x - floor(x) - 1/2 off the integers and 0 on them."""
    return Fraction(sum((2 * r - k) * (2 * (h * r % k) - k) for r in range(1, k) if h * r % k),
                    4 * k * k)


def eta_at_quadratic_point(x: Fraction, y2: Fraction, prec: int) -> mpmath.mpc:
    """eta(x + i sqrt(y2)) for rational x and y2 > 0, at prec bits: mpmath's
    eta at the Gauss-reduced point M tau (`gauss_reduce_point`), moved back by
    Rademacher's form of the transformation formula, for c > 0
        eta(M tau) = exp(pi i ((a + d) / (12 c) - s(d, c))) sqrt(-i (c tau + d)) eta(tau),
    and eta(tau + b) = exp(pi i b / 12) eta(tau) for c = 0."""
    a, b, c, d = gauss_reduce_point(x, y2)
    if c < 0 or (c == 0 and d < 0):
        a, b, c, d = -a, -b, -c, -d
    den = (c * x + d) ** 2 + c * c * y2
    re = ((a * x + b) * (c * x + d) + a * c * y2) / den  # M tau = re + i sqrt(y2) / den

    def mpf(q: Fraction) -> mpmath.mpf:
        return mpmath.mpf(q.numerator) / q.denominator

    with mpmath.workprec(prec):
        y = mpmath.sqrt(mpf(y2))
        reduced = mpmath.eta(mpmath.mpc(mpf(re), y / mpf(den)))
        if c == 0:
            return reduced / mpmath.expjpi(mpmath.mpf(b) / 12)
        unit = mpmath.expjpi(mpf(Fraction(a + d, 12 * c) - dedekind_sum(d, c)))
        return reduced / (unit * mpmath.sqrt(-1j * (c * mpmath.mpc(mpf(x), y) + d)))


def w_pow_s_at_form(f: tuple[int, int, int], p1: int, p2: int, prec: int) -> mpmath.mpc:
    """w^s = (eta(tau/p1) eta(tau/p2) / (eta(tau) eta(tau/N)))^s at the root
    tau = (-b + sqrt(D)) / (2a) of f = (a, b, c), s = 24 / gcd(24, (p1-1)(p2-1)),
    from `eta_at_quadratic_point` at the four points tau / n, at prec bits."""
    a, b, c = f
    D = b * b - 4 * a * c
    e1, e2, e0, eN = (eta_at_quadratic_point(Fraction(-b, 2 * a * n),
                                             Fraction(-D, 4 * a * a * n * n), prec)
                      for n in (p1, p2, 1, p1 * p2))
    with mpmath.workprec(prec):
        return (e1 * e2 / (e0 * eN)) ** (24 // gcd(24, (p1 - 1) * (p2 - 1)))


def brute_force_class_count(D: int) -> int:
    """Count reduced primitive forms by direct enumeration of (a, b, c)."""
    count = 0
    a = 1
    while 3 * a * a <= -D:
        for b in range(-a + 1, a + 1):
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and a == c:
                continue
            if gcd(gcd(a, b), c) == 1:
                count += 1
        a += 1
    return count


def brute_force_reduced_forms(D: int) -> set[tuple[int, int, int]]:
    out = set()
    a = 1
    while 3 * a * a <= -D:
        for b in range(-a + 1, a + 1):
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a or (b < 0 and a == c):
                continue
            if gcd(gcd(a, b), c) == 1:
                out.add((a, b, c))
        a += 1
    return out


def naive_point_count(q: int, a: int, b: int) -> int:
    squares = set(x * x % q for x in range(q))
    n = q + 1
    for x in range(q):
        rhs = (x * x * x + a * x + b) % q
        if rhs == 0:
            continue
        n += 1 if rhs in squares else -1
    return n


def j_of_curve(q: int, a: int, b: int) -> int:
    """j(E) = 1728 * 4a^3 / (4a^3 + 27b^2) of y^2 = x^3 + a x + b over F_q."""
    return 1728 * 4 * a ** 3 * pow(4 * a ** 3 + 27 * b * b, -1, q) % q


def curve_points(q: int, a: int, b: int) -> list[tuple[int, int]]:
    """Every affine point of y^2 = x^3 + a x + b over F_q, by a full sweep."""
    roots: dict[int, list[int]] = {}
    for y in range(q):
        roots.setdefault(y * y % q, []).append(y)
    return [(x, y) for x in range(q) for y in roots.get((x * x * x + a * x + b) % q, [])]


def affine_add(P, Q, a: int, q: int):
    """P + Q by the chord-and-tangent rule; None is the point at infinity."""
    if P is None or Q is None:
        return Q if P is None else P
    (x1, y1), (x2, y2) = P, Q
    if (x1 - x2) % q:
        slope = (y2 - y1) * pow(x2 - x1, q - 2, q)
    elif (y1 + y2) % q:
        slope = (3 * x1 * x1 + a) * pow(2 * y1, q - 2, q)
    else:
        return None
    x3 = (slope * slope - x1 - x2) % q
    return x3, (slope * (x1 - x3) - y1) % q


def affine_mul(k: int, P, a: int, q: int):
    """k P by right-to-left double-and-add over affine_add."""
    if k < 0:
        k, P = -k, None if P is None else (P[0], -P[1] % q)
    acc = None
    while k:
        if k & 1:
            acc = affine_add(acc, P, a, q)
        P = affine_add(P, P, a, q)
        k >>= 1
    return acc


def trace_oracle(D: int, q: int) -> tuple[int, int] | None:
    """Smallest-v solution of 4q = t^2 + |D| v^2 by exhaustive v."""
    for v in range(1, isqrt(4 * q // -D) + 1):
        tt = 4 * q + D * v * v
        if tt <= 0:
            break
        t = isqrt(tt)
        if t * t == tt and t > 0 and t % q:
            return t, v
    return None


def norm_form_solutions(D: int, n: int) -> list[tuple[int, int]]:
    """Every (x, y) with x^2 - D y^2 = n (D < 0), found by a search over x,
    sorted by |y|, then y before -y, then x >= 0 before -x."""
    found = []
    for x in range(isqrt(n) + 1):
        rest = n - x * x
        if rest % -D:
            continue
        y = isqrt(rest // -D)
        if y * y * -D == rest:
            found += [(sx, sy) for sx in {x, -x} for sy in {y, -y}]
    return sorted(found, key=lambda s: (abs(s[1]), s[1] < 0, s[0] < 0))


def hilbert_class_polynomial(D: int, extra_dps: int = 25) -> list[int]:
    """Monic integer Hilbert class polynomial (ascending), via theta-based
    j-values at the reduced forms; |D| <= 4000 scale."""
    forms = sorted(brute_force_reduced_forms(D))
    dps = int(mpmath.pi * mpmath.sqrt(-D) * sum(1.0 / f[0] for f in forms)
              / mpmath.log(10)) + extra_dps + 8 * len(forms)
    with mpmath.workdps(dps):
        poly = [mpmath.mpc(1)]
        for a, b, _ in forms:
            tau = (-b + 1j * mpmath.sqrt(-D)) / (2 * a)
            poly = _mul_linear(poly, _j_tau(tau, dps))
        out = []
        for c in poly:
            n = int(mpmath.nint(c.real))
            assert abs(c.real - n) < 0.25 and abs(c.imag) < 0.25, "oracle precision"
            out.append(n)
    return out


def _j_tau(tau, dps):
    qhalf = mpmath.exp(1j * mpmath.pi * tau)
    t2 = mpmath.jtheta(2, 0, qhalf)
    t3 = mpmath.jtheta(3, 0, qhalf)
    lam = (t2 / t3) ** 4
    return 256 * (lam * lam - lam + 1) ** 3 / (lam * (1 - lam)) ** 2


def _mul_linear(poly, root):
    out = [mpmath.mpc(0)] * (len(poly) + 1)
    for i, c in enumerate(poly):
        out[i] -= c * root
        out[i + 1] += c
    return out


# schoolbook polynomial arithmetic over F_p on coefficient lists, lowest
# degree first; every result is reduced mod p and has no trailing zeros


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def schoolbook_mul(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim([c % p for c in out])


def schoolbook_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder by any nonzero b."""
    a, b = _trim([c % p for c in a]), _trim([c % p for c in b])
    inv = pow(b[-1], -1, p)
    rem, quo = list(a), [0] * max(0, len(a) - len(b) + 1)
    for i in range(len(quo) - 1, -1, -1):
        c = quo[i] = rem[i + len(b) - 1] * inv % p
        for j, y in enumerate(b):
            rem[i + j] = (rem[i + j] - c * y) % p
    return _trim(quo), _trim(rem[:len(b) - 1])


def schoolbook_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """The monic gcd (zero for two zeros)."""
    a, b = _trim([c % p for c in a]), _trim([c % p for c in b])
    while b:
        a, b = b, schoolbook_divmod(a, b, p)[1]
    return [c * pow(a[-1], -1, p) % p for c in a] if a else []


def schoolbook_pow_mod(a: list[int], e: int, m: list[int], p: int) -> list[int]:
    """a^e mod m by right-to-left square and multiply, with a^0 = 1; mod a
    nonzero constant everything is 0."""
    result = schoolbook_divmod([1], m, p)[1]
    base = schoolbook_divmod(a, m, p)[1]
    while e:
        if e & 1:
            result = schoolbook_divmod(schoolbook_mul(result, base, p), m, p)[1]
        base = schoolbook_divmod(schoolbook_mul(base, base, p), m, p)[1]
        e >>= 1
    return result


def reference_roots_mod_l(f: list[int], p: int) -> Counter:
    """{root: multiplicity} of f over F_p by the textbook route: the gcd g of
    x^p - x and f, split by gcd((x + a)^((p-1)/2) - 1, g) with a drawn from
    a generator of fixed seed, 0 peeled off without a draw, then each root's
    multiplicity by repeated division."""
    rng = random.Random(0)
    m = schoolbook_divmod(f, [f[-1] % p], p)[0]  # monic
    xp = schoolbook_pow_mod([0, 1], p, m, p) + [0, 0]
    xp[1] -= 1
    half = (p - 1) // 2

    def linear_roots(g: list[int]) -> list[int]:
        if len(g) <= 2:
            return [-g[0] % p] if len(g) == 2 else []
        if g[0] == 0:
            return [0] + linear_roots(g[1:])
        while True:
            probe = schoolbook_pow_mod([rng.randrange(p), 1], half, g, p) or [0]
            probe[0] -= 1
            h = schoolbook_gcd(probe, g, p)
            if 1 < len(h) < len(g):
                return linear_roots(h) + linear_roots(schoolbook_divmod(g, h, p)[0])

    counts: Counter = Counter()
    for r in linear_roots(schoolbook_gcd(xp, m, p)):
        g, rem = schoolbook_divmod(m, [-r, 1], p)
        while not rem:
            counts[r] += 1
            g, rem = schoolbook_divmod(g, [-r, 1], p)
    return counts
