"""Elementary integer arithmetic: the Jacobi symbol, primality, CRT."""

from functools import lru_cache
from math import gcd, isqrt

from .errors import InvalidDiscriminant, PreconditionError

# Deterministic Miller-Rabin witness set, valid for all n below PSI13.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13, the smallest strong pseudoprime to every base in _MR_BASES
PSI13 = 3317044064679887385961981


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd n > 0; the Legendre symbol for prime n."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("Jacobi symbol needs odd positive n")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameters (P = 1, Q = (1 - D)/4,
    D the first of 5, -7, 9, -11, ... with (D|n) = -1), for odd n > 41."""
    if is_square(n):
        return False
    D = 5
    while jacobi(D, n) != -1:
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s
    # U_k, V_k, Q^k mod n, from k = 1 along the bits of d
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = U + V, D * U + V
            U = (U + n if U & 1 else U) // 2 % n
            V = (V + n if V & 1 else V) // 2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin, deterministic below PSI13; from there Baillie-PSW (a
    base-2 strong test plus a strong Lucas test), which no known composite
    passes."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES if n < PSI13 else (2,):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < PSI13 or _strong_lucas_probable_prime(n)


@lru_cache(maxsize=32)
def is_prime_modulus(n: int) -> bool:
    """is_probable_prime, remembered for the few moduli that every field
    element and every root search validates again."""
    return is_probable_prime(n)


def check_odd_prime(n: int) -> None:
    """Raise PreconditionError unless n is an odd prime."""
    if n == 2 or not is_prime_modulus(n):
        raise PreconditionError(f"{n} is not an odd prime")


def check_distinct_odd_primes(p1: int, p2: int) -> None:
    """Raise PreconditionError unless p1 and p2 are distinct odd primes."""
    if p1 == p2:
        raise PreconditionError("equal primes are unsupported")
    if p1 == 2 or p2 == 2:
        raise PreconditionError("p = 2 is unsupported")
    if not (is_probable_prime(p1) and is_probable_prime(p2)):
        raise PreconditionError(f"{p1}, {p2} must both be prime")


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    """Solve x = r1 mod m1, x = r2 mod m2 for coprime moduli."""
    if gcd(m1, m2) != 1:
        raise PreconditionError("crt_pair needs coprime moduli")
    inv = pow(m1, -1, m2)
    return (r1 + (r2 - r1) * inv % m2 * m1) % (m1 * m2)


def check_discriminant(D: int) -> None:
    """The one check of a discriminant: D < 0 and D = 0, 1 mod 4."""
    if D >= 0 or D % 4 not in (0, 1):
        raise InvalidDiscriminant(f"{D} is not a negative discriminant")
