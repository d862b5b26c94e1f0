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


def slot_bytes(bits: int, terms: int) -> int:
    """Bytes per slot for `pack`: room for a signed sum of 2 terms products
    whose two factors have `bits` bits between them, so that no slot of a
    packed product overflows into the next."""
    return (bits + terms.bit_length() + 2 + 7) // 8


def _bias(n: int, w: int) -> int:
    """2^(8w-1) in each of n slots of w bytes."""
    return int.from_bytes((bytes(w - 1) + b"\x80") * n, "little")


def pack(p: list[int], w: int) -> int:
    """p(2^(8w)) for coefficients of modulus below 2^(8w-1) (Kronecker
    substitution with signed slots): each coefficient is offset into
    [0, 2^(8w)), written as w bytes, and the offsets are taken back at once."""
    h = 1 << (8 * w - 1)
    return (int.from_bytes(b"".join([(c + h).to_bytes(w, "little") for c in p]), "little")
            - _bias(len(p), w))


def unpack(x: int, n: int, w: int) -> list[int]:
    """The n coefficients of the polynomial that `pack` took to x, each of
    modulus below 2^(8w-1)."""
    h = 1 << (8 * w - 1)
    bs = (x + _bias(n, w)).to_bytes(n * w, "little")
    return [int.from_bytes(bs[i:i + w], "little") - h for i in range(0, n * w, w)]


def mul(p: list[int], q: list[int]) -> list[int]:
    """p q: a scalar product when one operand is a constant, else one
    integer product of the packed operands (`_packed_mul`)."""
    if not p or not q:
        return []
    if len(p) == 1 or len(q) == 1:
        (c,), other = (p, q) if len(p) == 1 else (q, p)
        return trim([c * x for x in other])
    return _packed_mul(p, q)


def _packed_mul(p: list[int], q: list[int]) -> list[int]:
    """p q for nonempty p and q, by one integer product of the packed
    operands."""
    bits = max(max(p), -min(p)).bit_length() + max(max(q), -min(q)).bit_length()
    w = slot_bytes(bits, min(len(p), len(q)))
    return trim(unpack(pack(p, w) * pack(q, w), len(p) + len(q) - 1, w))


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
