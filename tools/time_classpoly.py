"""Time the class polynomials H_{B,N} at four sizes, so that two trees of
etacm can be compared on the same input.

Usage, from the root of one tree (the etacm that runs is the one on
PYTHONPATH):

    PYTHONPATH=src python3 tools/time_classpoly.py
    PYTHONPATH=/path/to/other/src python3 tools/time_classpoly.py

It computes H for the worked example (D = -56, N = 39, B = 10), for
D = -55067, N = 21 (h = 90), for D = -35759, N = 15 (h = 259) and for
D = -4000004, N = 15 (h = 1032, some 15-20 s), the last three at the first B
of `b_candidates`, and prints one line each: the seconds taken and a SHA-256
prefix of the coefficients.  The hashes must agree between trees; the times
are as measured on the machine at hand.
"""

from __future__ import annotations

import hashlib
import sys
import time

from etacm import b_candidates, compute_class_polynomial

JOBS = ((-56, 3, 13, 10), (-55067, 3, 7, None), (-35759, 3, 5, None), (-4000004, 3, 5, None))


def main() -> int:
    for D, p1, p2, B in JOBS:
        B = b_candidates(D, p1, p2)[0] if B is None else B
        t0 = time.perf_counter()
        H = compute_class_polynomial(D, p1, p2, B)
        seconds = time.perf_counter() - t0
        digest = hashlib.sha256(repr(H.coeffs).encode()).hexdigest()[:16]
        label = f"H({D}, {p1 * p2}, {B})"
        print(f"{label:<18} h = {H.degree:<4} {seconds:9.3f} s  {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
