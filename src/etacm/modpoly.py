"""The modular polynomial Phi_{p1,p2}(X, J) linking w^s to the J-invariant.

Phi is monic of degree psi(N) = (p1+1)(p2+1) in X and of degree
s(p1-1)(p2-1)/12 in J.  It is computed numerically: at each sample point
z_m the monic product over the psi(N) conjugates w^s(gamma z_m) is expanded,
then every X-coefficient is interpolated as a polynomial in J(z_m) through a
small Vandermonde solve, rounded to integers, and re-verified on extra
samples; a failed check doubles the precision (`classpoly.double_until`, up
to max_prec).  The samples lie on the imaginary axis above i, where J is
real and strictly increasing, so their J-values are distinct and far apart
(the elimination still raises InterpolationSingular if they are not).
Conjugates are evaluated by direct eta evaluation at the transformed points,
one series per SL2(Z)-class of eta argument at each sample point (an
`EtaTable`); no symbolic q-expansions are involved.

The (3, 13) polynomial ships as a package data resource; `load_embedded`
reads it back through the same deserializer the CLI uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

from mpmath.libmp import fzero

from .apcomplex import ApComplex, UpperHalfPoint
from .arith import check_distinct_odd_primes, crt_pair
from .classpoly import MAX_PRECISION, double_until, product_tree, round_to_integers
from .errors import (
    CoefficientParseFailure,
    InterpolationSingular,
    MalformedHeader,
    PreconditionError,
    WrongDegree,
)
from .etafunc import EtaTable, apply_moebius, j_invariant, s_exponent, w_pow_s_with_err
from .ffield import FpPolynomial
from .intpoly import mul as ipmul
from .intpoly import sub as ipsub
from .qforms import Matrix, _split_n, _xgcd

VERIFY_SAMPLES = 3
ROUND_LIMIT = 0.25


@dataclass(frozen=True)
class ModularPolynomial:
    p1: int
    p2: int
    s: int
    degX: int
    degJ: int
    coeffs: tuple[tuple[int, ...], ...]  # coeffs[kX][kJ]

    def j_column(self, kJ: int) -> list[int]:
        """Coefficient polynomial of J^kJ, as an integer polynomial in X."""
        return [row[kJ] if kJ < len(row) else 0 for row in self.coeffs]

    def __call__(self, x: int, j: int) -> int:
        acc = 0
        for row in reversed(self.coeffs):
            term = 0
            for c in reversed(row):
                term = term * j + c
            acc = acc * x + term
        return acc


def psi(N: int) -> int:
    """Index of Gamma^0(N) in SL_2(Z) for N = p1 * p2: (p1 + 1)(p2 + 1)."""
    p1, p2 = _split_n(N)
    return (p1 + 1) * (p2 + 1)


def _p1_line(p: int) -> list[tuple[int, int]]:
    return [(1, t) for t in range(p)] + [(0, 1)]


def coset_representatives(N: int) -> list[Matrix]:
    """psi(N) unimodular matrices, one per coset of Gamma^0(N), indexed by
    the projective line over Z/N on the top row."""
    p1, p2 = _split_n(N)
    reps = []
    for u1, v1 in _p1_line(p1):
        for u2, v2 in _p1_line(p2):
            a = crt_pair(u1, p1, u2, p2)
            b = crt_pair(v1, p1, v2, p2)
            if a == 0:
                a = N
            k = 0
            while math.gcd(a, b + k * N) != 1:
                k += 1
            b += k * N
            g, s, t = _xgcd(a, b)
            assert g == 1
            # top row (a, b); bottom row solves a*d - b*c = 1
            reps.append((a, b, -t, s))
    assert len(reps) == psi(N)
    return reps


def _sample_point(m: int, prec: int) -> UpperHalfPoint:
    """z_m = i (11/10 + m/7): J is real and strictly increasing on the
    imaginary axis above i, so the sample J-values are distinct."""
    im = ApComplex.make(11, 0, prec) / 10 + ApComplex.make(m, 0, prec) / 7
    return UpperHalfPoint(ApComplex(fzero, im.re, prec))


def _solve_vandermonde(js: list[ApComplex], ys: list[ApComplex], wp: int) -> list[ApComplex]:
    """Coefficients of the polynomial through (js[i], ys[i]) by elimination."""
    n = len(js)
    rows = []
    for i in range(n):
        row = [ApComplex.make(1, 0, wp)]
        for _ in range(n - 1):
            row.append(row[-1] * js[i])
        row.append(ys[i])
        rows.append(row)
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: rows[r][col].mag())
        if rows[pivot][col].mag() < -(wp // 2):
            raise InterpolationSingular("sample J-values too close")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = 1 / rows[col][col]
        rows[col] = [c * inv for c in rows[col]]
        for r in range(n):
            if r != col:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return [rows[i][n] for i in range(n)]


def _initial_precision(degx: int, degj: int) -> int:
    return 256 + 24 * degj * degj + 4 * degx


def compute_modular_polynomial(p1: int, p2: int, *,
                               max_prec: int = MAX_PRECISION) -> ModularPolynomial:
    """Phi_{p1,p2} with exact integer coefficients (adaptive precision)."""
    check_distinct_odd_primes(p1, p2)
    s = s_exponent(p1, p2)
    N = p1 * p2
    degx = psi(N)
    degj = s * (p1 - 1) * (p2 - 1) // 12
    if degj > 4:
        raise PreconditionError(f"J-degree {degj} beyond desk scale")
    cosets = coset_representatives(N)
    n_samples = degj + 1 + VERIFY_SAMPLES
    return double_until(
        _initial_precision(degx, degj), max_prec,
        lambda prec: _attempt(p1, p2, s, degx, degj, cosets, n_samples, prec),
        f"Phi_{{{p1},{p2}}}")


def _attempt(p1, p2, s, degx, degj, cosets, n_samples, prec):
    wp = prec + 32
    j_vals: list[ApComplex] = []
    slices = []
    for m in range(n_samples):
        z = _sample_point(m, wp + 64)
        j_vals.append(j_invariant(z, prec))
        table = EtaTable()
        values = [
            w_pow_s_with_err(UpperHalfPoint(apply_moebius(g, z.value, wp + 64)), p1, p2, prec,
                             table.for_coset(g))
            for g in cosets
        ]
        slices.append(product_tree(values, wp))

    table: list[list[int]] = []
    max_resid = 0.0
    for k in range(degx):
        ys = [slices[m].coeffs[k] for m in range(degj + 1)]
        coeffs = _solve_vandermonde(j_vals[: degj + 1], ys, wp)
        ints, resid = round_to_integers(coeffs)
        max_resid = max(max_resid, resid)
        if resid >= ROUND_LIMIT:
            return None
        table.append(ints + [0] * (degj + 1 - len(ints)))
    # extra-sample verification against the rounded integers
    for m in range(degj + 1, n_samples):
        jm = j_vals[m]
        for k in range(degx):
            acc = ApComplex.make(0, 0, wp)
            for c in reversed(table[k]):
                acc = acc * jm + c
            diff = acc - slices[m].coeffs[k]
            if diff.mag() > -3:  # |diff| must stay below 1/8
                return None
    table.append([1] + [0] * degj)  # monic leading X-coefficient
    return ModularPolynomial(p1, p2, s, degx, degj, tuple(tuple(r) for r in table))


def evaluate_in_j_mod_l(phi: ModularPolynomial, wbar, l: int) -> FpPolynomial:
    """The J-polynomial slice Phi(wbar, J) over F_l (not normalized)."""
    w = int(wbar) % l
    pw = 1
    out = [0] * (phi.degJ + 1)
    for row in phi.coeffs:
        for kj, c in enumerate(row):
            out[kj] = (out[kj] + c * pw) % l
        pw = pw * w % l
    return FpPolynomial.make(out, l)


def discriminant_in_j(phi: ModularPolynomial) -> list[int]:
    """c1(X)^2 - 4 c2(X) c0(X) for a J-quadratic Phi, lowest degree first."""
    if phi.degJ != 2:
        raise WrongDegree(f"J-degree is {phi.degJ}, not 2")
    c0 = phi.j_column(0)
    c1 = phi.j_column(1)
    c2 = phi.j_column(2)
    return ipsub(ipmul(c1, c1), [4 * c for c in ipmul(c2, c0)])


def serialize(phi: ModularPolynomial) -> bytes:
    lines = [
        f"MODPOLY v1 p1={phi.p1} p2={phi.p2} s={phi.s} degX={phi.degX} degJ={phi.degJ}"
    ]
    for kx in range(phi.degX, -1, -1):
        for kj in range(phi.degJ + 1):
            c = phi.coeffs[kx][kj]
            if c:
                lines.append(f"{kx} {kj} {c}")
    return ("\n".join(lines) + "\n").encode("ascii")


def deserialize(data: bytes) -> ModularPolynomial:
    text = data.decode("ascii")
    lines = [ln for ln in text.split("\n") if ln.strip()]
    if not lines:
        raise MalformedHeader("empty input")
    head = lines[0].split()
    if len(head) != 7 or head[0] != "MODPOLY" or head[1] != "v1":
        raise MalformedHeader(f"bad header: {lines[0]!r}")
    fields = {}
    for token in head[2:]:
        key, _, val = token.partition("=")
        if key not in ("p1", "p2", "s", "degX", "degJ") or not val:
            raise MalformedHeader(f"bad header token: {token!r}")
        try:
            fields[key] = int(val)
        except ValueError as exc:
            raise MalformedHeader(f"bad header token: {token!r}") from exc
    if len(fields) != 5:
        raise MalformedHeader("missing header fields")
    degx, degj = fields["degX"], fields["degJ"]
    table = [[0] * (degj + 1) for _ in range(degx + 1)]
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3:
            raise CoefficientParseFailure(f"bad line: {ln!r}")
        try:
            kx, kj, c = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError as exc:
            raise CoefficientParseFailure(f"bad line: {ln!r}") from exc
        if not (0 <= kx <= degx and 0 <= kj <= degj):
            raise CoefficientParseFailure(f"indices out of range: {ln!r}")
        table[kx][kj] = c
    return ModularPolynomial(fields["p1"], fields["p2"], fields["s"], degx, degj,
                             tuple(tuple(r) for r in table))


def load_embedded(p1: int = 3, p2: int = 13) -> ModularPolynomial:
    """The modular polynomial shipped as package data."""
    name = f"phi_{p1}_{p2}.txt"
    try:
        data = resources.files("etacm.data").joinpath(name).read_bytes()
    except FileNotFoundError as exc:
        raise PreconditionError(f"no embedded polynomial for ({p1}, {p2})") from exc
    return deserialize(data)
