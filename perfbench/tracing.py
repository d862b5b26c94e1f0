"""Spans around calls into etacm's layers, recorded from outside the program.

Each traced public function is replaced, in every etacm module that binds
it, by a wrapper that records one span: name, start, end, parent span and
job id.  Spans stay in memory until the run ends.  A few facts are recorded
at the same boundary: the largest `prec` passed to w_pow_s_with_err and the
degree of every polynomial handed to roots_mod_l.
"""

from __future__ import annotations

import json
import statistics
import sys
from time import perf_counter

# layer -> public functions timed in it
TRACED = {
    "qforms": ("build_nsystem",),
    "etafunc": ("w_pow_s_with_err", "j_invariant"),
    "classpoly": ("compute_class_polynomial", "product_tree", "round_to_integers"),
    "modpoly": ("compute_modular_polynomial", "evaluate_in_j_mod_l"),
    "ffield": ("roots_mod_l",),
    "arith": ("is_probable_prime",),
    "pipeline": ("construct_cm_curve", "find_trace", "point_count", "order_check"),
    "atkin": ("multiple_root_condition",),
}
TIMED = ("qforms.build_nsystem", "etafunc.w_pow_s_with_err", "etafunc.j_invariant",
         "classpoly.product_tree", "classpoly.round_to_integers",
         "modpoly.evaluate_in_j_mod_l", "ffield.roots_mod_l", "arith.is_probable_prime",
         "pipeline.order_check", "pipeline.point_count", "pipeline.find_trace",
         "atkin.multiple_root_condition")
SELF_TIMED = ("classpoly.compute_class_polynomial", "modpoly.compute_modular_polynomial",
              "pipeline.construct_cm_curve")
COUNTED = ("etafunc.w_pow_s_with_err", "classpoly.product_tree", "ffield.roots_mod_l",
           "arith.is_probable_prime", "pipeline.order_check", "pipeline.point_count")


class Tracer:
    """Span recorder; the caller announces each job sample with begin()."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []  # (id, name index, start, end, parent id, job id)
        self.job = -1  # job id: index of the job sample in the run
        self.round = -1
        self.rounds: list[int] = []  # round of each job id
        self.prec_max = 0
        self.degree_sum: dict[int, int] = {}  # round -> sum of roots_mod_l degrees
        self._current = -1
        self._next = 0

    def wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        fact = {"etafunc.w_pow_s_with_err": self._prec_fact,
                "ffield.roots_mod_l": self._degree_fact}.get(name)

        def traced(*args, **kwargs):
            if fact is not None:
                fact(args, kwargs)
            sid, parent = self._next, self._current
            self._next += 1
            self._current = sid
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._current = parent
                self.spans.append((sid, index, start, end, parent, self.job))

        return traced

    def begin(self, round_: int) -> None:
        self.job, self.round = len(self.rounds), round_
        self.rounds.append(round_)

    def _prec_fact(self, args, kwargs):
        prec = kwargs["prec"] if "prec" in kwargs else args[3]
        self.prec_max = max(self.prec_max, prec)

    def _degree_fact(self, args, kwargs):
        f = kwargs["f"] if "f" in kwargs else args[0]
        self.degree_sum[self.round] = self.degree_sum.get(self.round, 0) + f.degree

    def install(self) -> None:
        """Wrap every traced function in every etacm module that binds it."""
        modules = [m for n, m in sys.modules.items() if n == "etacm" or n.startswith("etacm.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"etacm.{layer}"]
            for name in names:
                fn = getattr(home, name)
                wrapper = self.wrap(f"{layer}.{name}", fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, wrapper)

    def per_round(self) -> list[dict[str, float]]:
        """Per-round totals: `<name>_s` (time inside outermost calls),
        `<name>_self_s` (minus direct traced children) and `<name>_calls`."""
        by_id = {sp[0]: sp for sp in self.spans}
        child_time: dict[int, float] = {}
        for sid, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        totals = [dict() for _ in range(max(self.rounds, default=-1) + 1)]
        for sid, index, start, end, parent, job in self.spans:
            name = self.names[index]
            row = totals[self.rounds[job]]
            row[f"{name}_calls"] = row.get(f"{name}_calls", 0) + 1
            row[f"{name}_self_s"] = (row.get(f"{name}_self_s", 0.0)
                                     + (end - start) - child_time.get(sid, 0.0))
            outer = parent
            while outer >= 0 and by_id[outer][1] != index:
                outer = by_id[outer][4]
            if outer < 0:  # not inside another call of the same function
                row[f"{name}_s"] = row.get(f"{name}_s", 0.0) + (end - start)
        for r, row in enumerate(totals):
            row["ffield.roots_mod_l_degree_sum"] = self.degree_sum.get(r, 0)
        return totals

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: times are medians over rounds of the per-round
        totals; counts come from the first round, which a fixed seed repeats
        exactly."""
        rows = self.per_round()
        out = {}

        def median(key):
            return statistics.median(row.get(key, 0.0) for row in rows)

        for name in TIMED:
            out[f"{name}_s"] = (median(f"{name}_s"), "s")
        for name in SELF_TIMED:
            out[f"{name}_self_s"] = (median(f"{name}_self_s"), "s")
        for name in COUNTED:
            out[f"{name}_calls"] = (rows[0].get(f"{name}_calls", 0), "count")
        out["ffield.roots_mod_l_degree_sum"] = (rows[0]["ffield.roots_mod_l_degree_sum"], "count")
        out["etafunc.prec_max_bits"] = (self.prec_max, "bits")
        return out

    def write(self, path, header: dict) -> None:
        """One JSON header line, then one JSON array per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({**header, "names": self.names}) + "\n")
            for sid, index, start, end, parent, job in self.spans:
                fh.write(json.dumps([sid, self.names[index], round(start, 9),
                                     round(end, 9), parent, job]) + "\n")
