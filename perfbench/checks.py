"""Output checks computed apart from etacm.

Each check takes a job from inputs.py and the plain integers the program
returned, and raises CheckFailed with a reason if the output is wrong.  The
reference side uses only this directory, mpmath's high-level functions
(eta, kleinj, jtheta) and sympy's polynomial arithmetic over GF(q).
"""

from __future__ import annotations

import math
import random

import mpmath
from sympy.ntheory import sqrt_mod
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_pow_mod

from inputs import (CM_PAIR, WORKED, b_roots, bits_range, class_number, reduced_forms,
                    split_prime, witness)

WORKED_H = (1, -2, -1, 2, -1)  # descending, from the paper
TAU_SAMPLES = 3
POINT_SAMPLES = 4


class CheckFailed(Exception):
    pass


def _require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


# ---------------------------------------------------------------------------
# class polynomials

def splits_into_linear_factors(coeffs: list[int], q: int) -> bool:
    """Whether the monic polynomial (lowest degree first) is a product of
    distinct linear factors over GF(q), i.e. divides X^q - X."""
    dense = [c % q for c in reversed(coeffs)]
    return gf_pow_mod([1, 0], q, dense, q, ZZ) == [1, 0]


def check_classpoly(job, coeffs: tuple[int, ...], rng: random.Random) -> None:
    """H is monic of degree h(D), integral, and splits mod a ~64-bit prime q
    that splits completely in the ring class field of D."""
    _require(all(isinstance(c, int) for c in coeffs), "non-integer coefficient")
    _require(len(coeffs) - 1 == class_number(job.D),
             f"degree {len(coeffs) - 1} != h({job.D}) = {class_number(job.D)}")
    _require(coeffs[-1] == 1, "not monic")
    if (job.D, job.p1, job.p2, job.B) == WORKED:
        _require(tuple(reversed(coeffs)) == WORKED_H, "worked example differs from the paper")
    q, _, _ = split_prime(job.D, *bits_range(64), rng)
    _require(splits_into_linear_factors(list(coeffs), q),
             f"H does not split into linear factors mod the split prime {q}")


# ---------------------------------------------------------------------------
# modular polynomials

def s_exponent(p1: int, p2: int) -> int:
    return 24 // math.gcd(24, (p1 - 1) * (p2 - 1))


def _w_s_and_j(tau, p1: int, p2: int, s: int):
    w = (mpmath.eta(tau / p1) * mpmath.eta(tau / p2)
         / (mpmath.eta(tau) * mpmath.eta(tau / (p1 * p2))))
    return w ** s, 1728 * mpmath.kleinj(tau)


def _phi_at(table, x, j):
    """(Phi(x, j), sum of |terms|) for table[kX][kJ], by Horner's rule."""
    ax, aj = abs(x), abs(j)
    value, size = mpmath.mpc(0), mpmath.mpf(0)
    for row in reversed(table):
        row_value, row_size = mpmath.mpc(0), mpmath.mpf(0)
        for c in reversed(row):
            row_value = row_value * j + c
            row_size = row_size * aj + abs(c)
        value = value * x + row_value
        size = size * ax + row_size
    return value, size


def check_modpoly(p1: int, p2: int, table: list[list[int]], rng: random.Random) -> None:
    """Degrees and monicity, then Phi(w(tau)^s, j(tau)) = 0 at random tau.

    The working precision is chosen so that the residual a unit change in
    any coefficient would leave (|x^kX j^kJ| at least) is 10^20 times above
    the rounding noise of the sum.
    """
    s = s_exponent(p1, p2)
    degx = (p1 + 1) * (p2 + 1)
    degj = s * (p1 - 1) * (p2 - 1) // 12
    _require(len(table) == degx + 1, f"degX {len(table) - 1} != {degx}")
    _require(all(len(row) == degj + 1 for row in table), f"degJ != {degj}")
    _require(all(isinstance(c, int) for row in table for c in row), "non-integer coefficient")
    _require(list(table[degx]) == [1] + [0] * degj, "not monic in X")
    for _ in range(TAU_SAMPLES):
        tau = mpmath.mpc(rng.uniform(-0.5, 0.5), rng.uniform(1.0, 1.6))
        with mpmath.workdps(30):
            x, j = _w_s_and_j(tau, p1, p2, s)
            _, size = _phi_at(table, x, j)
            smallest = (degx * min(mpmath.mpf(0), mpmath.log10(abs(x)))
                        + degj * min(mpmath.mpf(0), mpmath.log10(abs(j))))
            digits = int(mpmath.log10(size) - smallest) + 40
        with mpmath.workdps(digits):
            tau = mpmath.mpc(tau)
            x, j = _w_s_and_j(tau, p1, p2, s)
            value, size = _phi_at(table, x, j)
            _require(abs(value) <= size * mpmath.mpf(10) ** (20 - digits),
                     f"Phi(w^s, j) = {mpmath.nstr(abs(value), 5)} at tau = {tau}")


# ---------------------------------------------------------------------------
# CM curves

def hilbert_class_polynomial(D: int) -> list[int]:
    """Monic Hilbert class polynomial H_D (lowest degree first), from
    theta-function j-values at the reduced forms."""
    forms = reduced_forms(D)
    digits = int(math.pi * math.sqrt(-D) * sum(1.0 / a for a, _, _ in forms)
                 / math.log(10)) + 25 + 8 * len(forms)
    with mpmath.workdps(digits):
        poly = [mpmath.mpc(1)]  # lowest degree first
        for a, b, _ in forms:
            tau = (-b + 1j * mpmath.sqrt(-D)) / (2 * a)
            qhalf = mpmath.exp(1j * mpmath.pi * tau)
            lam = (mpmath.jtheta(2, 0, qhalf) / mpmath.jtheta(3, 0, qhalf)) ** 4
            j = 256 * (lam * lam - lam + 1) ** 3 / (lam * (1 - lam)) ** 2
            nxt = [mpmath.mpc(0)] * (len(poly) + 1)
            for i, c in enumerate(poly):
                nxt[i] -= c * j
                nxt[i + 1] += c
            poly = nxt
        out = []
        for c in poly:
            n = int(mpmath.nint(c.real))
            if abs(c.real - n) > 0.25 or abs(c.imag) > 0.25:
                raise RuntimeError(f"H_{D}: reference precision too low")
            out.append(n)
    return out


def _ec_add(P, Q, a, q):
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:
        if (y1 + y2) % q == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, q) % q
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, q) % q
    x3 = (lam * lam - x1 - x2) % q
    return x3, (lam * (x1 - x3) - y1) % q


def ec_mul(k: int, P, a: int, q: int):
    """k * P on y^2 = x^3 + a x + b (affine; None is the point at infinity)."""
    acc = None
    while k:
        if k & 1:
            acc = _ec_add(acc, P, a, q)
        P = _ec_add(P, P, a, q)
        k >>= 1
    return acc


def random_point(a: int, b: int, q: int, rng: random.Random):
    while True:
        x = rng.randrange(q)
        y = sqrt_mod((x * x * x + a * x + b) % q, q)
        if y is not None:
            return x, y


def check_cm(job, a4: int, a6: int, order: int, used_shortcut: bool,
             hilbert: list[int], rng: random.Random) -> None:
    """The order is q + 1 -+ t and kills random points, j(E) is a root of
    H_D mod q, and the shortcut was taken exactly when a witness exists."""
    q, t = job.q, job.t
    _require(0 <= a4 < q and 0 <= a6 < q, "coefficients not reduced mod q")
    disc = (4 * a4 ** 3 + 27 * a6 ** 2) % q
    _require(disc != 0, "singular curve")
    _require(order in (q + 1 - t, q + 1 + t), f"order {order} is not q + 1 -+ {t}")
    for _ in range(POINT_SAMPLES):
        P = random_point(a4, a6, q, rng)
        _require(ec_mul(order, P, a4, q) is None, f"order * P != O for P = {P}")
    j = 1728 * 4 * a4 ** 3 * pow(disc, -1, q) % q
    value = 0
    for c in reversed(hilbert):
        value = (value * j + c) % q
    _require(value == 0, f"j(E) = {j} is not a root of H_{job.D} mod q")
    N = CM_PAIR[0] * CM_PAIR[1]
    bs = [job.B] if job.B is not None else b_roots(job.D, N)
    expected = any(witness(job.D, N, B) is not None for B in bs)
    _require(used_shortcut == expected,
             f"used_shortcut = {used_shortcut}, witness search says {expected}")
