"""The fixed-point constants and kernels under q^(1/24) (`etafunc._q24`)
against mpmath at twice their precision: pi and ln 2 are exact floors, and
exp and cos/sin are within the 2^7 ulps their docstrings derive, at both
ends of their argument ranges and on either side of the branch cut-offs
(`_TABLE_MAX`, `_SPLIT_MAX`)."""

import random

import mpmath
import pytest

from etacm.etafunc import (
    _SPLIT_MAX,
    _TABLE_MAX,
    _constant,
    _cos_sin_fixed,
    _exp_fixed,
)

QS = [64, 90, 230, _TABLE_MAX, 420, _SPLIT_MAX, 630, 1230, 6000]
ULPS = 2**7


def exact(f, x: int, Q: int):
    """f(x 2^-Q) 2^Q at 2Q bits."""
    with mpmath.workprec(2 * Q):
        return f(mpmath.mpf(x) / 2**Q) * 2**Q


def arguments(top: int, Q: int) -> list[int]:
    """0, top, the ends of the first few 2^-8 steps, and seeded draws in [0, top]."""
    rng = random.Random(Q)
    steps = [min(top, n << (Q - 8)) + d for n in (1, 2, 33) for d in (-1, 0)]
    return [0, top] + steps + [rng.randint(0, top) for _ in range(12)]


@pytest.mark.parametrize("Q", QS)
def test_constants_are_exact_floors(Q):
    with mpmath.workprec(2 * Q):
        pi, ln2 = int(mpmath.floor(mpmath.pi * 2**Q)), int(mpmath.floor(mpmath.ln2 * 2**Q))
    assert _constant("pi", Q) == pi
    assert _constant("ln2", Q) == ln2


def test_constants_are_read_back_at_lower_precision():
    # kept at the highest precision asked so far, and shifted down exactly
    _constant("pi", 6000)
    for Q in (6000, 1000, 64):
        with mpmath.workprec(2 * Q):
            assert _constant("pi", Q) == int(mpmath.floor(mpmath.pi * 2**Q))


@pytest.mark.parametrize("Q", QS)
def test_exp_within_its_bound_below(Q):
    for r in arguments(_constant("ln2", Q) - 1, Q):
        got, want = _exp_fixed(r, Q), exact(mpmath.exp, r, Q)
        assert 0 <= want - got <= ULPS, r
    assert _exp_fixed(0, Q) == 1 << Q


@pytest.mark.parametrize("Q", QS)
def test_cos_sin_within_their_bound(Q):
    for x in arguments(_constant("pi", Q) // 24, Q):
        cos, sin = _cos_sin_fixed(x, Q)
        assert abs(cos - exact(mpmath.cos, x, Q)) <= ULPS, x
        assert abs(sin - exact(mpmath.sin, x, Q)) <= ULPS, x
    assert _cos_sin_fixed(0, Q) == (1 << Q, 0)
