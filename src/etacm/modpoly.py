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
(`etafunc.j_invariant_with_err`), with a certified bound of its own.  Its
conjugate w^s(g z_m) is w^s at the root of the form f_m.g^-1, planned once
per Phi as H's forms are (`etafunc.hecke_plan`; z_m is not an elliptic
point, so that form reduces back to f_m with matrix +-g) and evaluated for
all samples in one call per attempt (`etafunc.w_pow_s_at_hecke_points`).
On the imaginary axis, mirror cosets share the value: the coset of top
row (a, -b) has the conjugate of the value at (a, b)
(`_mirror`).  So w^s is evaluated at one coset of each mirror pair,
(psi(N) + 4)/2 values per sample point, each pair gives the real quadratic
(X - r)(X - conj r), and Phi's samples are expanded by H's real tree
(`classpoly.product_tree`) and interpolated on real nodes, all as H's real
polynomials (`classpoly.RPoly`; Enge, Math. Comp. 78, 2009).

The level is the ordered pair (p1, p2) as the caller gives it, and
N = p1 p2 is never factored: `coset_representatives(p1, p2)` lists the
cosets in the order that `_mirror(p1, p2)` indexes, so either order of the
pair gives the same Phi.

The (3, 13) polynomial ships as a package data resource; `load_embedded`
reads it back through the same deserializer the CLI uses.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import reduce
from importlib import resources

from .apcomplex import MAX_PRECISION, MIN_PREC, ROUND_ULPS, add, div, double_until, lg, log2add
from .arith import check_distinct_odd_primes, check_odd_prime, crt_pair
from .classpoly import (
    TREE_BITS,
    RPoly,
    _one_per_pair,
    initial_precision,
    product_tree,
    round_certified,
)
from .errors import (
    CoefficientParseFailure,
    InterpolationSingular,
    MalformedHeader,
    PreconditionError,
    WrongDegree,
)
from .etafunc import (
    Quotient,
    Value,
    hecke_plan,
    j_invariant_with_err,
    s_exponent,
    w_pow_s_at_hecke_points,
)
from .ffield import FpPolynomial
from .intpoly import mul as ipmul
from .intpoly import sub as ipsub
from .qforms import Form, Matrix, QuadraticForm, _compose, _primitive, _xgcd

MAX_DEGJ = 4  # the largest J-degree of a Phi computed or read back

# sample forms, Hecke points, quotients, paired flags (`_conjugate_plan`)
Plan = tuple[list[QuadraticForm], list[Form], list[Quotient], list[bool]]


class ModularPolynomial(namedtuple("_ModularPolynomial", "p1 p2 s degX degJ coeffs")):
    """Phi_{p1,p2}(X, J) of degree degX in X and degJ in J, for w^s; coeffs
    is a tuple of rows of ints, coeffs[kX][kJ]."""

    __slots__ = ()

    def j_column(self, kJ: int) -> list[int]:
        """Coefficient polynomial of J^kJ, as an integer polynomial in X."""
        return [row[kJ] if kJ < len(row) else 0 for row in self.coeffs]


def _degrees(p1: int, p2: int) -> tuple[int, int, int]:
    """(s, degX, degJ) of Phi_{p1,p2}, for distinct odd primes p1, p2."""
    s = s_exponent(p1, p2)
    return s, (p1 + 1) * (p2 + 1), s * (p1 - 1) * (p2 - 1) // 12


def _p1_line(p: int) -> list[tuple[int, int]]:
    return [(1, t) for t in range(p)] + [(0, 1)]


def coset_representatives(p1: int, p2: int) -> list[Matrix]:
    """(p1 + 1)(p2 + 1) unimodular matrices, one per coset of Gamma^0(N),
    N = p1 p2, indexed by the top row in P^1(Z/p1) x P^1(Z/p2) in the order
    of the pair as given: the order that `_mirror(p1, p2)` indexes."""
    check_distinct_odd_primes(p1, p2)
    N = p1 * p2
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
    return reps


def _mirror(p1: int, p2: int) -> list[int]:
    """The index of the mirror coset of each coset of `coset_representatives`:
    top row (a, b) goes to (a, -b), that is t -> -t mod p and inf -> inf on
    each factor of `_p1_line`.  An involution whose 4 fixed cosets are those
    with t1, t2 in {0, inf}.

    For z = iy, -conj(g z) = g' z with g' = (a, -b, -c, d), and w^s has real
    q-coefficients, so w^s(g' z) = conj(w^s(g z)): the mirror coset's value
    is the conjugate, and a fixed coset's value is real.
    """
    def neg(p: int) -> list[int]:
        return [-t % p for t in range(p)] + [p]

    return [i1 * (p2 + 1) + i2 for i1 in neg(p1) for i2 in neg(p2)]


def _sample_form(m: int) -> QuadraticForm:
    """The form [4900, 0, n^2], n = 77 + 10m, whose root is
    z_m = i (11/10 + m/7): J is real and strictly increasing on the
    imaginary axis above i, so the sample J-values are distinct."""
    return QuadraticForm(*_primitive(4900, 0, (77 + 10 * m) ** 2))


def _lagrange(nodes: list[Value], node_err: float, samples: list[RPoly],
              wp: int) -> list[RPoly]:
    """For every k, the polynomial P_k of degree < len(nodes) through the
    points (nodes[m], coefficient k of samples[m]), with a certified error
    bound, for real nodes.

    P_k = sum_m y_{m,k} N_m / d_m, with N_m(J) = prod_{j != m} (J - x_j) and
    d_m = prod_{j != m} (x_m - x_j).  Nodes are within 2^node_err, y_{m,k}
    within 2^samples[m].err.  N_m is a `product_tree` with node_err at the
    leaves, d_m the same `RPoly.mul` fold over the exact differences
    x_m - x_j, each within 2^(node_err + 1).  If |d - d'| <= e <= |d'|/2,
    then |1/d - 1/d'| = e/(|d| |d'|) <= 2e/|d'|^2, plus the division's
    rounding, 3 ulps of 1/d' at wp bits.  `RPoly.mul` bounds (1/d_m) N_m and
    its product with y_{m,k}; the sum over m is exact.  Raises
    InterpolationSingular when two nodes are within 2^-(wp/2), or some d_m
    is not certified nonzero.
    """
    basis = []
    for m, x in enumerate(nodes):
        others = nodes[:m] + nodes[m + 1:]
        diffs = [add(x, (-a, 0, e)) for a, _, e in others]
        d = reduce(lambda f, g: f.mul(g, wp),
                   [RPoly.constant(c, e, node_err + 1) for c, _, e in diffs])
        dm = (d.coeffs[0], 0, d.exp)
        low = lg(dm) - 2.0 ** -29
        if min(lg(c) for c in diffs) < -(wp // 2) or d.err > low - 1:
            raise InterpolationSingular("sample J-values too close")
        inv, _, e = div((1, 0, 0), dm, wp)
        inv_err = log2add(d.err + 1 - 2 * low, lg((inv, 0, e)) + math.log2(ROUND_ULPS) - wp)
        numer = product_tree([(xj, node_err) for xj in others], [False] * len(others), wp)
        basis.append(RPoly.constant(inv, e, inv_err).mul(numer, wp))
    out = []
    for k in range(len(samples[0].coeffs)):
        terms = [RPoly.constant(y.coeffs[k], y.exp, y.err).mul(lm, wp)
                 for y, lm in zip(samples, basis)]
        exp = min(t.exp for t in terms)
        cs = [sum(c) for c in zip(*([c << (t.exp - exp) for c in t.coeffs] for t in terms))]
        out.append(RPoly(cs, exp, log2add(*(t.err for t in terms)),
                         log2add(*(t.norm for t in terms))))
    return out


def _conjugate_plan(p1: int, p2: int, degj: int) -> Plan:
    """The degJ + 1 sample forms f_m; the Hecke points and quotients
    (`etafunc.hecke_plan`) of the forms f_m.g^-1, roots g z_m, sample by
    sample, for one coset g of each mirror pair (`_mirror`); and whether
    each coset is paired.  It serves every attempt of one Phi."""
    sample_forms = [_sample_form(m) for m in range(degj + 1)]
    cosets = coset_representatives(p1, p2)
    kept, paired = _one_per_pair(_mirror(p1, p2))
    forms = [_compose(f, (d, -b, -c, a)) for f in sample_forms
             for a, b, c, d in (cosets[i] for i in kept)]
    return sample_forms, *hecke_plan(forms, p1, p2), paired


def _coefficients(p1: int, p2: int, degj: int, plan: Plan, prec: int) -> list[RPoly]:
    """Every X-coefficient of Phi as a polynomial in J, with its certified
    bound, from degJ + 1 sample points at precision prec.

    w^s is evaluated at one coset of each mirror pair of every sample point
    in one call (`_conjugate_plan`), and the other's value is its conjugate.
    Each node J(z_m) is real, and keeps only the real part of its
    approximation, within the same bound.
    """
    wp = prec + TREE_BITS
    sample_forms, points, quotients, paired = plan
    values = w_pow_s_at_hecke_points(points, quotients, s_exponent(p1, p2), prec)
    nodes = [j_invariant_with_err(f, prec) for f in sample_forms]
    n = len(paired)
    samples = [product_tree(values[i:i + n], paired, wp) for i in range(0, len(values), n)]
    return _lagrange([(re, 0, e) for (re, _, e), _ in nodes], max(err for _, err in nodes),
                     samples, wp)


def _rows(polys: list[RPoly]) -> list[list[int]] | None:
    rows = [round_certified(f) for f in polys]
    return None if None in rows else rows


def compute_modular_polynomial(p1: int, p2: int, *,
                               max_prec: int = MAX_PRECISION) -> ModularPolynomial:
    """Phi_{p1,p2} with exact integer coefficients (adaptive precision)."""
    check_distinct_odd_primes(p1, p2)
    s, degx, degj = _degrees(p1, p2)
    if degj > MAX_DEGJ:
        raise PreconditionError(f"J-degree {degj} above {MAX_DEGJ}")
    plan = _conjugate_plan(p1, p2, degj)
    first = _coefficients(p1, p2, degj, plan, MIN_PREC)
    rows = _rows(first) if max_prec >= MIN_PREC else None
    if rows is None:
        rows = double_until(
            initial_precision(max(f.err for f in first), degx), max_prec,
            lambda prec: _rows(_coefficients(p1, p2, degj, plan, prec)),
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
    p1, p2, degx, degj = fields["p1"], fields["p2"], fields["degX"], fields["degJ"]
    try:
        check_distinct_odd_primes(p1, p2)
    except PreconditionError as exc:
        raise MalformedHeader(f"bad header: {exc}") from exc
    if (fields["s"], degx, degj) != _degrees(p1, p2):
        raise MalformedHeader(f"s, degX or degJ inconsistent with p1, p2: {lines[0]!r}")
    if degj > MAX_DEGJ:
        # the dense table below has (degX + 1)(degJ + 1) slots
        raise MalformedHeader(f"J-degree {degj} above {MAX_DEGJ}: {lines[0]!r}")
    table = [[0] * (degj + 1) for _ in range(degx + 1)]
    seen = set()
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
        if (kx, kj) in seen:
            raise CoefficientParseFailure(f"repeated coefficient: {ln!r}")
        seen.add((kx, kj))
        table[kx][kj] = c
    if table[degx] != [1] + [0] * degj:
        raise CoefficientParseFailure(f"the X^{degx} row is not 1")
    return ModularPolynomial(p1, p2, fields["s"], degx, degj, tuple(tuple(r) for r in table))


def load_embedded(p1: int = 3, p2: int = 13) -> ModularPolynomial:
    """The modular polynomial shipped as package data."""
    name = f"phi_{p1}_{p2}.txt"
    try:
        data = resources.files("etacm.data").joinpath(name).read_bytes()
    except FileNotFoundError as exc:
        raise PreconditionError(f"no embedded polynomial for ({p1}, {p2})") from exc
    return deserialize(data)
