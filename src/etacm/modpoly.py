"""The modular polynomial Phi_{p1,p2}(X, J) linking w^s to the J-invariant.

Phi is monic of degree psi(N) = (p1+1)(p2+1) in X and of degree
s(p1-1)(p2-1)/12 in J.  It is computed numerically: at each of degJ + 1
sample points z_m the monic product over the psi(N) conjugates w^s(gamma z_m)
is expanded, then every X-coefficient is interpolated in J on the Lagrange
basis at the nodes J(z_m), with a certified bound, and accepted through H's
gate (`classpoly.round_certified`).  A rejected first attempt at MIN_PREC
bits gives the start of the doubling (`classpoly.initial_precision`).  The
samples lie on the imaginary axis above i, where J is real and strictly
increasing, so the nodes are distinct and far apart.  Each sample point is
the root of an integer form f_m: its node J(z_m) is evaluated at f_m itself
(`etafunc.j_invariant_with_err`), with a certified bound of its own, and its
conjugates are the roots of the forms f_m.g^-1 and go through H's helper
(`classpoly._roots`): one eta series per SL2(Z)-class of eta argument at
each sample point (an `EtaTable`), and mirror-image classes share one.

The (3, 13) polynomial ships as a package data resource; `load_embedded`
reads it back through the same deserializer the CLI uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from importlib import resources

from .apcomplex import MAX_PRECISION, MIN_PREC, ROUND_ULPS, add, div, double_until, lg, log2add
from .arith import check_distinct_odd_primes, check_odd_prime, crt_pair
from .classpoly import TREE_BITS, CPoly, _roots, initial_precision, product_tree, round_certified
from .errors import (
    CoefficientParseFailure,
    InterpolationSingular,
    MalformedHeader,
    PreconditionError,
    WrongDegree,
)
from .etafunc import Value, j_invariant_with_err, s_exponent
from .ffield import FpPolynomial
from .intpoly import mul as ipmul
from .intpoly import sub as ipsub
from .qforms import Matrix, QuadraticForm, _compose, _primitive, _split_n, _xgcd


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


def _sample_form(m: int) -> QuadraticForm:
    """The form [4900, 0, n^2], n = 77 + 10m, whose root is
    z_m = i (11/10 + m/7): J is real and strictly increasing on the
    imaginary axis above i, so the sample J-values are distinct."""
    return QuadraticForm(*_primitive(4900, 0, (77 + 10 * m) ** 2))


def _lagrange(nodes: list[Value], node_err: float, samples: list[CPoly],
              wp: int) -> list[CPoly]:
    """For every k, the polynomial P_k of degree < len(nodes) through the
    points (nodes[m], coefficient k of samples[m]), with a certified error
    bound.

    P_k = sum_m y_{m,k} N_m / d_m, with N_m(J) = prod_{j != m} (J - x_j) and
    d_m = prod_{j != m} (x_m - x_j).  Nodes are within 2^node_err, y_{m,k}
    within 2^samples[m].err.  N_m is a `product_tree` with node_err at the
    leaves, d_m the same `CPoly.mul` fold over the exact differences
    x_m - x_j, each within 2^(node_err + 1).  If |d - d'| <= e <= |d'|/2,
    then |1/d - 1/d'| = e/(|d| |d'|) <= 2e/|d'|^2, plus the division's
    rounding, 3 ulps of 1/d' at wp bits.  `CPoly.mul` bounds (1/d_m) N_m and
    its product with y_{m,k}; the sum over m is exact.  Raises
    InterpolationSingular when two nodes are within 2^-(wp/2), or some d_m
    is not certified nonzero.
    """
    basis = []
    for m, x in enumerate(nodes):
        others = nodes[:m] + nodes[m + 1:]
        diffs = [add(x, (-a, -b, e)) for a, b, e in others]
        d = reduce(lambda f, g: f.mul(g, wp), [CPoly.constant(c, node_err + 1) for c in diffs])
        dm = (d.re[0], d.im[0], d.exp)
        low = lg(dm) - 2.0 ** -29
        if min(lg(c) for c in diffs) < -(wp // 2) or d.err > low - 1:
            raise InterpolationSingular("sample J-values too close")
        inv = div((1, 0, 0), dm, wp)
        inv_err = log2add(d.err + 1 - 2 * low, lg(inv) + math.log2(ROUND_ULPS) - wp)
        numer = product_tree([(xj, node_err) for xj in others], wp)
        basis.append(CPoly.constant(inv, inv_err).mul(numer, wp))
    out = []
    for k in range(len(samples[0].re)):
        terms = [CPoly.constant((y.re[k], y.im[k], y.exp), y.err).mul(lm, wp)
                 for y, lm in zip(samples, basis)]
        exp = min(t.exp for t in terms)
        re = [sum(cs) for cs in zip(*([c << (t.exp - exp) for c in t.re] for t in terms))]
        im = [sum(cs) for cs in zip(*([c << (t.exp - exp) for c in t.im] for t in terms))]
        out.append(CPoly(re, im, exp, log2add(*(t.err for t in terms)),
                         log2add(*(t.norm for t in terms))))
    return out


def _coefficients(p1: int, p2: int, degj: int, cosets: list[Matrix], prec: int) -> list[CPoly]:
    """Every X-coefficient of Phi as a polynomial in J, with its certified
    bound, from degJ + 1 sample points at precision prec."""
    wp = prec + TREE_BITS
    nodes = []
    samples = []
    for m in range(degj + 1):
        f = _sample_form(m)
        nodes.append(j_invariant_with_err(f, prec))
        # f.g^-1 has the root g z_m
        conjugates = [_compose(f, (d, -b, -c, a)) for a, b, c, d in cosets]
        samples.append(product_tree(_roots(conjugates, p1, p2, prec), wp))
    return _lagrange([j for j, _ in nodes], max(e for _, e in nodes), samples, wp)


def _rows(polys: list[CPoly]) -> list[list[int]] | None:
    rows = [round_certified(f) for f in polys]
    return None if None in rows else rows


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
    first = _coefficients(p1, p2, degj, cosets, MIN_PREC)
    rows = _rows(first) if max_prec >= MIN_PREC else None
    if rows is None:
        rows = double_until(
            initial_precision(max(f.err for f in first), degx), max_prec,
            lambda prec: _rows(_coefficients(p1, p2, degj, cosets, prec)),
            f"Phi_{{{p1},{p2}}}")
    return ModularPolynomial(p1, p2, s, degx, degj, tuple(tuple(r) for r in rows))


def evaluate_in_j_mod_l(phi: ModularPolynomial, wbar, l: int) -> FpPolynomial:
    """The J-polynomial slice Phi(wbar, J) over F_l (not normalized)."""
    check_odd_prime(l)
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
