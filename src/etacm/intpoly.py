"""Dense integer polynomial helpers (coefficients lowest degree first)."""

from __future__ import annotations


def trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def sub(p: list[int], q: list[int]) -> list[int]:
    n = max(len(p), len(q))
    out = [0] * n
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] -= c
    return trim(out)


def mul(p: list[int], q: list[int]) -> list[int]:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, ci in enumerate(p):
        if ci:
            for j, cj in enumerate(q):
                out[i + j] += ci * cj
    return trim(out)


def divmod_monic(p: list[int], d: list[int]) -> tuple[list[int], list[int]]:
    """Euclidean division by a monic divisor; exact over the integers."""
    if not d or d[-1] != 1:
        raise ValueError("divisor must be monic")
    rem = list(p)
    dn = len(d) - 1
    if dn == 0:
        return list(p), []
    quo = [0] * max(0, len(rem) - dn)
    for i in range(len(rem) - dn - 1, -1, -1):
        q = rem[i + dn]
        if q:
            quo[i] = q
            for j, c in enumerate(d):
                rem[i + j] -= q * c
    return trim(quo), trim(rem[:dn])
