"""Time the start-up of two trees of etacm in fresh interpreters.

Usage, from anywhere:

    python3 tools/time_import.py /path/to/old/src /path/to/new/src

Each round runs, for each tree in turn (the first tree alternating between
rounds), `import etacm` and `import etacm; etacm.load_embedded(3, 13)` in a
fresh interpreter, and a bare `python3 -c pass` beside them.  It prints the
median and quartiles of the wall time of each, in ms, and then the modules
other than etacm's own that `import etacm` loads beyond a bare interpreter.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

ROUNDS = 20
CODES = {"import etacm": "import etacm",
         "+ load_embedded": "import etacm; etacm.load_embedded(3, 13)"}


def run(code: str, src: str | None = None) -> tuple[float, str]:
    """Wall seconds of a fresh interpreter running code with src first on sys.path."""
    prefix = "" if src is None else f"import sys; sys.path.insert(0, {src!r}); "
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", prefix + code], check=True,
                         capture_output=True, text=True).stdout
    return time.perf_counter() - start, out


def main(argv: list[str]) -> int:
    trees = dict(zip(("old", "new"), argv))
    times = {"python3 -c pass": []} | {f"{t} {c}": [] for t in trees for c in CODES}
    for i in range(ROUNDS):
        times["python3 -c pass"].append(run("pass")[0])
        for tree in sorted(trees, reverse=bool(i % 2)):
            for label, code in CODES.items():
                times[f"{tree} {label}"].append(run(code, trees[tree])[0])
    print(f"{'':22} median [q1 - q3] ms over {ROUNDS} runs")
    for label, seconds in times.items():
        q1, q2, q3 = (1000 * q for q in statistics.quantiles(seconds, n=4))
        print(f"{label:22} {q2:6.1f} [{q1:.1f} - {q3:.1f}]")
    listing = "import sys; print(*sys.modules)"
    bare = set(run(listing)[1].split())
    for tree, src in trees.items():
        added = set(run("import etacm; " + listing, src)[1].split()) - bare
        print(f"{tree} adds:", *sorted(m for m in added if m.partition(".")[0] != "etacm"))
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1:]))
