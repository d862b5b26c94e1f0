"""Time root finding over F_q at large and at small degree, so that two trees
of etacm can be compared on the same inputs.

Usage, from the root of one tree (the etacm that runs is the one on
PYTHONPATH):

    PYTHONPATH=src python3 tools/time_roots.py
    PYTHONPATH=/path/to/other/src python3 tools/time_roots.py

It computes H_{B,15} for D = -35759 (h = 259) and the first B of
`b_candidates`, reduces it mod q = 2^255 - 19, and prints one line each for
H itself, `x^q mod H` and `roots_mod_l(H mod q)`: the seconds taken and a
SHA-256 prefix of the result.  Then the same three lines for two H of small
degree, where exponentiation takes the fused path of `_pow_mod`: the worked
example (D = -56, N = 39, B = 10, h = 4) and D = -356, N = 15 (h = 12).
The hashes must agree between trees; the times are as measured on the
machine at hand.
"""

from __future__ import annotations

import hashlib
import sys
import time

from etacm import (FpPolynomial, b_candidates, class_number, compute_class_polynomial,
                   roots_mod_l)
from etacm.ffield import _pow_mod


CASES, PRIME = [(-35759, 3, 5), (-56, 3, 13), (-356, 3, 5)], 2**255 - 19


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _timed(label: str, fn):
    t0 = time.perf_counter()
    value = fn()
    print(f"{label:<12} {time.perf_counter() - t0:9.3f} s  {_digest(value)}", flush=True)
    return value


def main() -> int:
    for D, p1, p2 in CASES:
        B = b_candidates(D, p1, p2)[0]
        print(f"D = {D}, (p1, p2) = ({p1}, {p2}), B = {B}, "
              f"h = {class_number(D)}, q = {PRIME}")
        H = _timed("H", lambda: compute_class_polynomial(D, p1, p2, B).coeffs)
        hq = FpPolynomial.make(H, PRIME)
        _timed("x^q mod H", lambda: tuple(_pow_mod([0, 1], PRIME, list(hq.coeffs), PRIME)))
        _timed("roots of H", lambda: sorted(roots_mod_l(hq).items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
