"""Print every benchmark job's output as one canonical JSON line, so that two
trees of etacm can be compared with `diff`.

Usage, from the root of one tree (the etacm that runs is the one on
PYTHONPATH; the job lists come from this tree's perfbench/inputs.py):

    PYTHONPATH=src python3 tools/same_outputs.py > new.jsonl
    PYTHONPATH=/path/to/other/src python3 tools/same_outputs.py > old.jsonl
    diff old.jsonl new.jsonl

Covered: the distinct `classpoly`, `modpoly`, `cm-shortcut` and `cm-count`
jobs of the seed range (the same calls that perfbench/run.py times; a
`classpoly` record also carries the forms of the N-system that H is the
product over, as ordered triples, which H itself does not pin, and the
precision of each of its attempts, every call of `classpoly._expand` in
order, so that two trees also agree on the start and the doubling; a
`modpoly` record carries the precision of each of Phi's attempts in the same
way, every call of `modpoly._coefficients`; a CM record also carries the
certificate's trace, its ambiguity and the number of points it drew, which
pins the random stream), the roots of H mod q of
each `cm-shortcut` job with their multiplicities and in increasing order, the
witness of `multiple_root_condition` for each (D, B) that a CM job runs at
N = 39 (every admissible B when the job lets `construct_cm_curve` choose),
whether the computed Phi_{3,13} equals the embedded file, the public point
functions `eta`, `j_invariant`, `double_eta_quotient` and `w_pow_s` at 128
bits at the roots of the worked example's N-system (D = -56, N = 39, B = 10),
as exact (odd mantissa, exponent) pairs, and the stdout and exit code of
`etacm reproduce-example` and of the worked `cm-curve` line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import inputs  # noqa: E402

import etacm  # noqa: E402
import etacm.classpoly  # noqa: E402
import etacm.modpoly  # noqa: E402
from etacm.cli import dispatch  # noqa: E402

WORKED_CM_CURVE = ["cm-curve", "--disc", "-56", "--p1", "3", "--p2", "13",
                   "--prime", "3593", "--b", "10"]


def _emit(record: dict) -> None:
    print(json.dumps(record, sort_keys=True), flush=True)


def _cli(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = dispatch(argv)
    return {"exit": code, "stdout": out.getvalue()}


def _class_polynomial(job) -> tuple:
    """H of a `classpoly` job, and the precision of each of its attempts."""
    real, precs = etacm.classpoly._expand, []

    def recording(roots, paired, prec):
        precs.append(prec)
        return real(roots, paired, prec)

    etacm.classpoly._expand = recording
    try:
        return etacm.compute_class_polynomial(job.D, job.p1, job.p2, job.B), precs
    finally:
        etacm.classpoly._expand = real


def _modular_polynomial(pair) -> tuple:
    """Phi of a `modpoly` job, and the precision of each of its attempts (the
    last argument of `modpoly._coefficients`)."""
    real, precs = etacm.modpoly._coefficients, []

    def recording(*args):
        precs.append(args[-1])
        return real(*args)

    etacm.modpoly._coefficients = recording
    try:
        return etacm.compute_modular_polynomial(*pair), precs
    finally:
        etacm.modpoly._coefficients = real


def _witness(solution) -> list[int] | None:
    return None if solution is None else list(solution)


def _odd(man: int, exp: int) -> list[int]:
    """man 2^exp as [odd signed mantissa, exponent], or [0, 0]."""
    if not man:
        return [0, 0]
    zeros = (man & -man).bit_length() - 1
    return [man >> zeros, exp + zeros]


def _exact(z) -> list[list[int]]:
    """The (odd signed mantissa, exponent) pairs of an ApComplex's two parts,
    from either form of the type: a kernel triple (re, im, e), or a pair of
    mpmath mpf tuples (sign, man, exp, bc), as older trees hold it."""
    if hasattr(z, "triple"):
        re, im, e = z.triple
        return [_odd(re, e), _odd(im, e)]
    return [_odd(-man if sign else man, exp) for sign, man, exp, _ in (z.re, z.im)]


def _point_values() -> dict:
    prec, (p1, p2), D = 128, inputs.CM_PAIR, -56
    out = []
    for f in etacm.build_nsystem(D, p1 * p2, 10).forms:
        z = etacm.UpperHalfPoint.from_form(f.a, f.b, D, prec)
        out.append([_exact(etacm.eta(z, prec)), _exact(etacm.j_invariant(z, prec)),
                    _exact(etacm.double_eta_quotient(z, p1, p2, prec)),
                    _exact(etacm.w_pow_s(z, p1, p2, prec))])
    return {"job": "worked-point-values", "out": out}


def _seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seed_range, default=_seed_range("0-9"),
                        help="inclusive seed range, e.g. 0-9 (default) or 3")
    args = parser.parse_args(argv)
    p1, p2 = inputs.CM_PAIR
    n = p1 * p2
    seen: set = set()

    def once(key) -> bool:
        new = key not in seen
        seen.add(key)
        return new

    for seed in args.seeds:
        for job in inputs.classpoly_jobs(seed):
            if once(("classpoly", job.D, job.p1, job.p2, job.B)):
                poly, attempts = _class_polynomial(job)
                N = job.p1 * job.p2
                system = etacm.build_nsystem(job.D, N, job.B % (2 * N))
                _emit({"job": "classpoly", "D": job.D, "p1": job.p1, "p2": job.p2,
                       "B": job.B, "out": list(poly.coeffs), "attempts": attempts,
                       "forms": [[f.a, f.b, f.c] for f in system.forms]})
        for pair in inputs.modpoly_jobs(seed):
            if once(("modpoly", pair)):
                phi, attempts = _modular_polynomial(pair)
                _emit({"job": "modpoly", "pair": list(pair),
                       "out": [list(row) for row in phi.coeffs], "attempts": attempts})
                if pair == (3, 13):
                    _emit({"job": "phi-3-13-equals-embedded",
                           "out": phi == etacm.load_embedded(3, 13)})
        shortcut_jobs = inputs.shortcut_jobs(seed)
        for job in shortcut_jobs:
            if once(("roots-of-H", job.D, job.q, job.B)):
                H = etacm.compute_class_polynomial(job.D, p1, p2, job.B)
                roots = etacm.roots_mod_l(etacm.FpPolynomial.make(H.coeffs, job.q))
                _emit({"job": "roots-of-H", "D": job.D, "q": job.q, "B": job.B,
                       "out": sorted(roots.items())})
        for job in shortcut_jobs + inputs.count_jobs(seed)[0]:
            for B in [job.B] if job.B is not None else etacm.b_candidates(job.D, p1, p2):
                if once(("witness", job.D, B)):
                    _emit({"job": "witness", "D": job.D, "B": B,
                           "out": _witness(etacm.multiple_root_condition(job.D, n, B))})
            if once(("cm", job.D, job.q, job.B)):
                curve, cert, shortcut = etacm.construct_cm_curve(job.D, p1, p2, job.q, B=job.B)
                _emit({"job": "cm", "D": job.D, "q": job.q, "B": job.B,
                       "out": [curve.a4.value, curve.a6.value, cert.order, shortcut],
                       "trace": cert.trace, "ambiguous": cert.ambiguous,
                       "alt_order": cert.alt_order, "checks": cert.checks})
    _emit(_point_values())
    _emit({"job": "reproduce-example", "out": _cli(["reproduce-example"])})
    _emit({"job": "worked-cm-curve", "out": _cli(WORKED_CM_CURVE)})
    return 0


if __name__ == "__main__":
    sys.exit(main())
