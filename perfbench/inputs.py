"""Seeded job lists for the four workloads, built without any etacm code.

Every number-theoretic fact the job lists rely on (primality, class numbers,
square roots of D mod 4N, multiple-root witnesses, split primes) is computed
here from first principles, so the program under test only ever receives the
generated inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd, isqrt

PAIRS = ((3, 5), (3, 7), (3, 13), (5, 7), (5, 13))
CM_PAIR = (3, 13)
WORKED = (-56, 3, 13, 10)  # the paper's worked example, H = X^4 - 2X^3 - X^2 + 2X - 1
EXHAUSTIVE_Q = 10**6  # at or below this, the CM stage counts points by a full sweep

# classpoly: (level pair, class number) per job after the worked case.  The
# cost of a job is set mostly by h (the working precision grows as 16 h) and
# the pair, so both are fixed and the seed picks D among those with that h.
CLASSPOLY_JOBS = (((3, 13), 10), ((5, 7), 16), ((5, 13), 22), ((3, 5), 30),
                  ((3, 7), 40), ((3, 13), 52), ((5, 7), 68), ((3, 7), 90))
# cm-shortcut: q from 128 to 256 bits, one size per witnessed D
SHORTCUT_BITS = (128, 256)
# cm-count: narrow ranges [lo, hi) for q, so that the cost of a job (which
# grows as q for the sweep and as q^(1/4) for BSGS) barely depends on the
# seed: one sweep just above 2^19, then BSGS from just above 10^6 to 2^48.
# Each range has a fixed class number too, since roots of H mod q cost more
# for larger h.
COUNT_JOBS = tuple(zip(
    ((500_000, 550_000), (EXHAUSTIVE_Q, 1_100_000)) + tuple(
        ((1 << b) - (1 << (b - 4)), 1 << b) for b in (24, 28, 32, 36, 40, 44, 48)),
    (4, 6, 8, 10, 12, 4, 6, 8, 10)))

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                 59, 61, 67, 71, 73, 79, 83, 89, 97)


def is_prime(n: int) -> bool:
    """Miller-Rabin over the first 25 prime bases (deterministic below
    3.3e24, and no known composite passes all 25 above)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def symbol(D: int, p: int) -> int:
    """Legendre symbol (D|p) for an odd prime p."""
    r = pow(D % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def conductor(D: int) -> int:
    """Largest f with D / f^2 still a discriminant (0 or 1 mod 4)."""
    f = 1
    k = 2
    n = -D
    while k * k <= n:
        while n % (k * k) == 0 and (D // (f * f * k * k)) % 4 in (0, 1):
            f *= k
            n //= k * k
        k += 1
    return f


def reduced_forms(D: int) -> list[tuple[int, int, int]]:
    """Primitive reduced forms (a, b, c) of discriminant D, one per class."""
    out = []
    a = 1
    while 3 * a * a <= -D:
        for b in range(-a + 1, a + 1):
            if (b - D) % 2:
                continue
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a or (b < 0 and a == c):
                continue
            if gcd(gcd(a, b), c) == 1:
                out.append((a, b, c))
        a += 1
    return out


def class_number(D: int) -> int:
    return len(reduced_forms(D))


def admissible(D: int, p1: int, p2: int) -> bool:
    """The integrality conditions of H_{B,N}: D a negative discriminant, D a
    square mod p1 and mod p2, and the conductor prime to N."""
    if D >= 0 or D % 4 not in (0, 1):
        return False
    if symbol(D, p1) == -1 or symbol(D, p2) == -1:
        return False
    return conductor(D) % p1 != 0 and conductor(D) % p2 != 0


def b_roots(D: int, N: int) -> list[int]:
    """All B mod 2N with B^2 = D mod 4N."""
    return [B for B in range(2 * N) if (B * B - D) % (4 * N) == 0]


def b_classes(D: int, N: int) -> list[int]:
    """One representative per class {B, -B}; B and -B give the same H."""
    return sorted({min(B, -B % (2 * N)) for B in b_roots(D, N)})


def witness(D: int, N: int, B: int) -> tuple[int, int] | None:
    """Some (u, v) with u^2 - D v^2 = 4N and u = B v mod 2N, by brute force."""
    for v in range(-isqrt(4 * N // -D) - 1, isqrt(4 * N // -D) + 2):
        for u in range(-isqrt(4 * N) - 1, isqrt(4 * N) + 2):
            if u * u - D * v * v == 4 * N and (u - B * v) % (2 * N) == 0:
                return u, v
    return None


def split_prime(D: int, lo: int, hi: int, rng: random.Random) -> tuple[int, int, int]:
    """A prime q in [lo, hi) with 4q = t^2 - D v^2, as (q, t, v).

    t and v are drawn uniformly from their ranges, so q is a random prime of
    that size that splits completely in the ring class field of D, not one
    picked close to the edge of the Hasse interval.
    """
    while True:
        t = rng.randrange(1, isqrt(4 * hi) + 1)
        v = rng.randrange(1, isqrt(4 * hi // -D) + 1)
        if (t * t - D * v * v) % 4:
            continue
        q = (t * t - D * v * v) // 4
        if lo <= q < hi and D % q and t % q and is_prime(q):
            return q, t, v


def bits_range(bits: int) -> tuple[int, int]:
    return 1 << (bits - 1), 1 << bits


@dataclass(frozen=True)
class ClassPolyJob:
    D: int
    p1: int
    p2: int
    B: int
    h: int


@dataclass(frozen=True)
class CMJob:
    D: int
    q: int
    t: int  # trace up to sign, from the generated 4q = t^2 - D v^2
    B: int | None  # passed to construct_cm_curve; None lets it choose
    h: int


def classpoly_jobs(seed: int) -> list[ClassPolyJob]:
    """The worked case plus one job per entry of CLASSPOLY_JOBS.

    The pairs cover all five (so s is 3, 2 and 1) and the B class alternates,
    so both H_{B,N} of a discriminant are exercised.  D is drawn with both
    symbols (D|p1), (D|p2) equal to 1, which is when two classes exist.
    """
    rng = random.Random(seed)
    D, p1, p2, B = WORKED
    jobs = [ClassPolyJob(D, p1, p2, B, class_number(D))]
    for i, ((p1, p2), h) in enumerate(CLASSPOLY_JOBS):
        while True:
            # with both symbols 1, h(D) is mostly 0.3 to 0.55 times sqrt|D|
            D = -rng.randint(int((h / 0.55) ** 2), int((h / 0.3) ** 2))
            if D % 4 not in (0, 1) or symbol(D, p1) != 1 or symbol(D, p2) != 1:
                continue
            if admissible(D, p1, p2) and class_number(D) == h:
                break
        jobs.append(ClassPolyJob(D, p1, p2, b_classes(D, p1 * p2)[i % 2], h))
    return jobs


def modpoly_jobs(seed: int) -> list[tuple[int, int]]:
    """All five level pairs with J-degree <= 4, in a seeded order."""
    pairs = list(PAIRS)
    random.Random(seed).shuffle(pairs)
    return pairs


def _shortcut_discs() -> list[tuple[int, int]]:
    """(D, B) with a multiple-root witness for N = 39, |D| <= 156, h 2..6,
    in order of |D|."""
    p1, p2 = CM_PAIR
    N = p1 * p2
    out = []
    for D in range(-5, -4 * N - 1, -1):
        if not admissible(D, p1, p2) or not 2 <= class_number(D) <= 6:
            continue
        for B in b_classes(D, N):
            if witness(D, N, B) is not None:
                out.append((D, B))
                break
    return out


def shortcut_jobs(seed: int) -> list[CMJob]:
    """Every witnessed D once, plus the worked D = -56 again (an odd count
    keeps the median on one job), with q sizes spread evenly from 128 to
    256 bits; the seed picks q."""
    rng = random.Random(seed)
    discs = _shortcut_discs() + [(WORKED[0], WORKED[3])]
    lo, hi = SHORTCUT_BITS
    jobs = []
    for i, (D, B) in enumerate(discs):
        bits = lo + round((hi - lo) * i / (len(discs) - 1))
        q, t, _ = split_prime(D, *bits_range(bits), rng)
        jobs.append(CMJob(D, q, t, B, class_number(D)))
    return jobs


def hasse_fault(q: int, t: int) -> bool:
    """Whether the baby-step giant-step window of etacm's point count,
    q + 1 +- 2*isqrt(q), misses the order q + 1 +- t (see README)."""
    return q > EXHAUSTIVE_Q and abs(t) > 2 * isqrt(q)


def count_discs() -> list[int]:
    """D admissible for N = 39 with 2 <= h <= 13 and no multiple-root
    witness for any B."""
    p1, p2 = CM_PAIR
    N = p1 * p2
    return [D for D in range(-7, -800, -1)
            if admissible(D, p1, p2) and 2 <= class_number(D) <= 13
            and not any(witness(D, N, B) for B in b_roots(D, N))]


def count_jobs(seed: int) -> tuple[list[CMJob], list[tuple[int, int]]]:
    """One job per entry of COUNT_JOBS, D drawn from count_discs() with the
    entry's h, and the (D, q) pairs left out because they hit hasse_fault."""
    rng = random.Random(seed)
    by_h: dict[int, list[int]] = {}
    for D in count_discs():
        by_h.setdefault(class_number(D), []).append(D)
    jobs, excluded = [], []
    for (lo, hi), h in COUNT_JOBS:
        while True:
            D = rng.choice(by_h[h])
            q, t, _ = split_prime(D, lo, hi, rng)
            if not hasse_fault(q, t):
                break
            excluded.append((D, q))
        jobs.append(CMJob(D, q, t, None, h))
    return jobs, excluded
