#!/usr/bin/env python3
"""etacm benchmark: one workload, timed in rounds, outputs checked apart from etacm.

    python3 perfbench/run.py --workload classpoly --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; etacm is imported from ./src.  The
job list of the workload is run as a whole, round after round, until
--seconds have passed (and at least MIN_ROUNDS times), so a slow spell on a
shared host hits every job alike.  Every time is divided by the host's
slowdown, which hostspeed.py probes between the jobs, so the metrics read as
seconds at a reference host speed; the times as measured are printed too.
The first round's outputs are checked against computations made apart from
etacm (checks.py), and every later round must reproduce them.  A job that
fails makes the run incorrect (exit code 1).

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  With --trace 0 the metrics are the end-to-end ones
(job_p50_s, pass_s, setup_s, peak_rss_mb); with --trace 1 the layers'
public functions are wrapped (tracing.py), the per-layer metrics are
reported instead and the spans are written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import hostspeed

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOADS = ("classpoly", "modpoly", "cm-shortcut", "cm-count")
MIN_ROUNDS = 2
SETUP_RUNS = 8  # fresh interpreters before, and again after, the timed rounds
CHECK_SEED = 0x5EED

# what a fresh interpreter does before the first job of the workload can
# start; then, untimed, it probes the speed of the core it ran on
SETUP_CODE = """import sys
sys.path.insert(0, {src!r})
import etacm
{shared}print("ready", flush=True)
sys.path.insert(0, {here!r})
import hostspeed
print(*hostspeed.probe(), *hostspeed.probe())
"""
SHARED_WORK = {"cm-shortcut": "etacm.load_embedded(3, 13)\n",
               "cm-count": "etacm.load_embedded(3, 13)\n"}
# etacm memoises some work per input (the reduced forms of D, a non-residue
# mod q).  The rounds repeat the same inputs, so these caches are emptied
# before every job and each sample costs what a one-off call costs.  Caches
# of work that every job of a workload shares stay warm: the Phi_{3,13} that
# the cm-* jobs use, which setup_s accounts for.
SHARED_CACHES = frozenset({"etacm.pipeline._modular_polynomial"})


def measure_setup(workload: str) -> list[tuple[float, float]]:
    """Seconds from starting a fresh interpreter to the first job being
    ready (`import etacm` plus the one-time work the jobs share), and the
    host's slowdown in that interpreter, for SETUP_RUNS fresh interpreters."""
    code = SETUP_CODE.format(src=str(SRC), here=str(HERE),
                             shared=SHARED_WORK.get(workload, ""))
    samples = []
    for _ in range(SETUP_RUNS):
        start = perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            seconds = perf_counter() - start
            probes = [float(x) for x in proc.stdout.read().split()]
            proc.wait(timeout=60)
        if line.strip() != "ready" or proc.returncode != 0 or len(probes) != 4:
            raise RuntimeError(f"set-up run failed (exit {proc.returncode})")
        samples.append((seconds, hostspeed.slowdown([probes[:2], probes[2:]])))
    return samples


def per_input_caches() -> list:
    """Every functools cache in etacm's modules that is not in SHARED_CACHES."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name != "etacm" and not name.startswith("etacm."):
            continue
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)) and hasattr(obj, "cache_info"):
                qualname = f"{obj.__module__}.{obj.__qualname__}"
                if qualname not in SHARED_CACHES:
                    found[id(obj)] = obj
    return list(found.values())


def build(workload: str, seed: int):
    """(jobs, run, check, describe) for a workload; `run` returns plain
    values that later rounds must reproduce exactly.  `check` imports
    checks.py, and sympy with it, only once the timed rounds are over, so
    that they do not count in peak_rss_mb."""
    import etacm

    import inputs

    if workload == "classpoly":
        jobs = inputs.classpoly_jobs(seed)

        def run(job):
            return etacm.compute_class_polynomial(job.D, job.p1, job.p2, job.B).coeffs

        def check(job, out, rng):
            import checks
            checks.check_classpoly(job, out, rng)

        def describe(job):
            return f"D={job.D} h={job.h} ({job.p1},{job.p2}) B={job.B}"

    elif workload == "modpoly":
        jobs = inputs.modpoly_jobs(seed)

        def run(pair):
            return etacm.compute_modular_polynomial(*pair).coeffs

        def check(pair, out, rng):
            import checks
            checks.check_modpoly(pair[0], pair[1], [list(row) for row in out], rng)

        def describe(pair):
            return f"Phi_{pair}"

    else:
        if workload == "cm-shortcut":
            jobs = inputs.shortcut_jobs(seed)
        else:
            jobs, excluded = inputs.count_jobs(seed)
            for D, q in excluded:
                print(f"left out (D, q) = ({D}, {q}): trace outside the BSGS window",
                      file=sys.stderr)
        p1, p2 = inputs.CM_PAIR
        hilbert: dict[int, list[int]] = {}

        def run(job):
            curve, cert, shortcut = etacm.construct_cm_curve(job.D, p1, p2, job.q, B=job.B)
            return curve.a4.value, curve.a6.value, cert.order, shortcut

        def check(job, out, rng):
            import checks
            if job.D not in hilbert:
                hilbert[job.D] = checks.hilbert_class_polynomial(job.D)
            checks.check_cm(job, *out, hilbert[job.D], rng)

        def describe(job):
            return f"D={job.D} h={job.h} q~2^{job.q.bit_length()} B={job.B}"

    return jobs, run, check, describe


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "etacm" / "__init__.py").is_file():
        print(f"etacm sources not found under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    jobs, run, check, describe = build(args.workload, args.seed)
    setup = measure_setup(args.workload)
    if args.workload in SHARED_WORK:
        try:  # untimed: fills the shared caches, as setup_s does
            run(jobs[0])
        except Exception:
            pass  # the same job fails again, and is counted, in the rounds
    caches = per_input_caches()
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    # (job index, round, seconds or None if it failed, host probes taken after it)
    timeline: list[tuple[int, int, float | None, list]] = []
    first: list = [None] * len(jobs)
    attempted = failed = 0
    unstable = []
    rounds = 0
    start = perf_counter()
    while rounds < MIN_ROUNDS or perf_counter() - start < args.seconds:
        for i, job in enumerate(jobs):
            for cache in caches:
                cache.cache_clear()
            if tracer is not None:
                tracer.begin(rounds)
            attempted += 1
            t0 = perf_counter()
            try:
                out = run(job)
            except Exception:  # one failed job must not end the run
                dt = None
                failed += 1
                print(f"job {describe(job)} failed:", file=sys.stderr)
                traceback.print_exc()
            else:
                dt = perf_counter() - t0
            timeline.append((i, rounds, dt, hostspeed.probes_after(perf_counter() - t0)))
            if dt is None:
                continue
            if first[i] is None:
                first[i] = out
            elif out != first[i]:
                unstable.append(describe(job))
        rounds += 1
    elapsed = perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup += measure_setup(args.workload)

    check_start = perf_counter()
    correct = not unstable and failed == 0
    for job in unstable:
        print(f"job {job}: output changed between rounds", file=sys.stderr)
    rng = random.Random(CHECK_SEED + args.seed)
    for job, out in zip(jobs, first):
        if out is None:
            continue
        try:
            check(job, out, rng)
        except Exception as exc:  # checks.CheckFailed, or a reference that broke
            correct = False
            print(f"job {describe(job)}: {exc!r}", file=sys.stderr)

    print(f"checks took {perf_counter() - check_start:.1f} s", file=sys.stderr)
    # times at the reference host speed: each sample over the slowdown that
    # the probes right before and right after it measured
    samples: list[list[float]] = [[] for _ in jobs]
    scaled: list[list[float]] = [[] for _ in jobs]
    for k, (i, _, dt, after) in enumerate(timeline):
        if dt is not None:
            before = timeline[k - 1][3] if k else []
            samples[i].append(dt)
            scaled[i].append(dt / hostspeed.slowdown(before + after))
    slow = [hostspeed.slowdown([p for _, r, _, after in timeline if r == round_ for p in after])
            for round_ in range(rounds)]
    raw_pass_s = sum(statistics.median(s) for s in samples if s)
    pass_s = sum(statistics.median(s) for s in scaled if s)
    print(f"{args.workload} seed={args.seed}: {len(jobs)} jobs x {rounds} rounds "
          f"in {elapsed:.1f} s, {attempted} attempted, {failed} failed, correct={correct}")
    print("  host slowdown per round:", " ".join(f"{x:.3f}" for x in slow),
          "; in the set-up runs", " ".join(f"{x:.3f}" for _, x in setup))
    print(f"  as measured: job median "
          f"{statistics.median(dt for s in samples for dt in s):.4f} s, "
          f"pass {raw_pass_s:.4f} s, set-up median "
          f"{statistics.median(t for t, _ in setup):.4f} s of",
          " ".join(f"{t:.4f}" for t, _ in setup))
    for job, s, t in zip(jobs, samples, scaled):
        if s:
            print(f"  {describe(job)}: median {statistics.median(t):.4f} s at reference "
                  "speed; as measured", " ".join(f"{dt:.4f}" for dt in s))
    if tracer is None:
        metrics = {
            "job_p50_s": (statistics.median(x for s in scaled for x in s), "s"),
            "pass_s": (pass_s, "s"),
            "setup_s": (statistics.median(t / x for t, x in setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = tracer.metrics()
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path, {"workload": args.workload, "seed": args.seed,
                            "rounds": rounds, "traced_pass_s": pass_s,
                            "traced_pass_s_as_measured": raw_pass_s,
                            "jobs": [describe(j) for j in jobs],
                            "job_of_span_job_id": [i % len(jobs) for i in range(attempted)],
                            "round_of_span_job_id": tracer.rounds})
        print(f"  traced pass_s {pass_s:.4f} s ({raw_pass_s:.4f} s as measured); "
              f"spans in {path}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
