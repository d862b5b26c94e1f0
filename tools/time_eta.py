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
measured on the machine at hand.
"""

from __future__ import annotations

import math
import sys
import timeit

from etacm.etafunc import _eta_series

POINTS = (("i", (1, 0, -4)), ("rho", (1, 1, -3)), ("D=-4000004", (1, 0, -4000004)))
PRECISIONS = (128, 256, 1024, 6000)


def main() -> int:
    print(f"{'point':<12} {'wp':>5} {'us/call':>10} {'bound (u)':>10} {'log2 bound':>11}")
    for name, (a, b, D) in POINTS:
        for wp in PRECISIONS:
            timer = timeit.Timer(lambda: _eta_series(a, b, D, wp))
            number, _ = timer.autorange()
            seconds = min(timer.repeat(repeat=5, number=number)) / number
            rel = _eta_series(a, b, D, wp)[1]
            print(f"{name:<12} {wp:>5} {seconds * 1e6:>10.1f} {rel:>10.2f} "
                  f"{math.log2(rel) - wp:>11.2f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
