"""Time the eta series at a reduced point alone, so that two trees of etacm
can compare the kernel under every H and Phi without the rest of the run.

Usage, from the root of one tree (the etacm that runs is the one on
PYTHONPATH):

    PYTHONPATH=src python3 tools/time_eta.py
    PYTHONPATH=/path/to/other/src python3 tools/time_eta.py

It calls `etafunc._eta_series` at i, at rho = (-1 + sqrt(-3)) / 2 (the
slowest decay) and at the root of the principal form [1, 0, 1000001] of
D = -4000004 (Im ~ 1000), each at 128, 256, 1024 and 6000 bits, and prints
one line each: the microseconds per call (the best of five timed batches)
and the certified relative bound, in units 2^-wp and as log2.  The bounds
must agree between trees unless the error analysis changed; the times are as
measured on the machine at hand.  Then it times q^(1/24) alone
(`etafunc._q24`, the exp and cos/sin kernels under every series) at the
same three points at Q = 90, 230, 420, 1230 and 6000 bits.
"""

from __future__ import annotations

import math
import sys
import timeit

from etacm.etafunc import _eta_series, _q24

POINTS = (("i", (1, 0, -4)), ("rho", (1, 1, -3)), ("D=-4000004", (1, 0, -4000004)))
PRECISIONS = (128, 256, 1024, 6000)
Q24_PRECISIONS = (90, 230, 420, 1230, 6000)


def _per_call(call) -> float:
    """Seconds per call: the best of five timed batches."""
    timer = timeit.Timer(call)
    number, _ = timer.autorange()
    return min(timer.repeat(repeat=5, number=number)) / number


def main() -> int:
    print(f"{'point':<12} {'wp':>5} {'us/call':>10} {'bound (u)':>10} {'log2 bound':>11}")
    for name, (a, b, D) in POINTS:
        for wp in PRECISIONS:
            seconds = _per_call(lambda: _eta_series(a, b, D, wp))
            rel = _eta_series(a, b, D, wp)[1]
            print(f"{name:<12} {wp:>5} {seconds * 1e6:>10.1f} {rel:>10.2f} "
                  f"{math.log2(rel) - wp:>11.2f}", flush=True)
    print(f"\n{'q^(1/24) at':<12} {'Q':>5} {'us/call':>10}")
    for name, (a, b, D) in POINTS:
        for Q in Q24_PRECISIONS:
            seconds = _per_call(lambda: _q24(a, b, D, Q))
            print(f"{name:<12} {Q:>5} {seconds * 1e6:>10.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
