"""Time the modular polynomials Phi_{p1,p2} of J-degree <= 4, so that two trees
of etacm can be compared on the same input.

Usage, from the root of one tree (the etacm that runs is the one on
PYTHONPATH):

    PYTHONPATH=src python3 tools/time_modpoly.py
    PYTHONPATH=/path/to/other/src python3 tools/time_modpoly.py

It computes Phi for each of the five pairs (3, 5), (3, 7), (3, 13), (5, 7)
and (5, 13), and prints one line each: the seconds taken and a SHA-256 prefix
of `serialize(phi)`.  The hashes must agree between trees; the times are as
measured on the machine at hand.
"""

from __future__ import annotations

import hashlib
import sys
import time

from etacm import compute_modular_polynomial, serialize

PAIRS = ((3, 5), (3, 7), (3, 13), (5, 7), (5, 13))


def main() -> int:
    for p1, p2 in PAIRS:
        t0 = time.perf_counter()
        phi = compute_modular_polynomial(p1, p2)
        seconds = time.perf_counter() - t0
        digest = hashlib.sha256(serialize(phi)).hexdigest()[:16]
        label = f"Phi_{{{p1},{p2}}}"
        print(f"{label:<12} {seconds:9.3f} s  {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
