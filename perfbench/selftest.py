"""Self-test of the benchmark: determinism and the metric list.

    python3 perfbench/selftest.py

For every workload, two traced runs on seed 1 must give identical
verdicts, output bytes, call counts and memo counts, and a traced run on
seed 2 must also be correct.  An untraced run must report exactly the
end-to-end metrics of BENCHMARK.json, and the traced runs exactly its
per-layer metrics, each with its unit.  Takes about ten minutes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("equations", "termified", "directives")
SECONDS = 1  # a run still completes its first round (and one traced round)


def run(workload: str, seed: int, trace: int):
    child = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)],
        capture_output=True, text=True, check=False, cwd=ROOT)
    if child.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {child.returncode}\n"
                         f"{child.stderr}")
    lines = child.stdout.strip().splitlines()
    exact = next(json.loads(line[len("exact: "):]) for line in lines
                 if line.startswith("exact: "))
    return json.loads(lines[-1]), exact


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []

    def check(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            problems.append(what)

    for workload in WORKLOADS:
        runs = {}
        for seed, trace, label in ((1, 0, "untraced"), (1, 1, "traced"),
                                   (1, 1, "traced again"), (2, 1, "seed 2")):
            result, exact = run(workload, seed, trace)
            runs[label] = exact
            check(result["correct"] and exact["rounds_agree"],
                  f"{workload} {label}: correct, every round alike")
            units = {name: metric["unit"]
                     for name, metric in result["metrics"].items()}
            check(units == expected[trace],
                  f"{workload} {label}: metric names and units")
        first, again = runs["traced"], runs["traced again"]
        check(first == again,
              f"{workload}: two seed-1 runs give identical verdicts, "
              "output bytes and counts")
        check(runs["untraced"]["verdicts"] == first["verdicts"]
              and runs["untraced"]["output_bytes"] == first["output_bytes"],
              f"{workload}: tracing changes no verdict and no output")
    if problems:
        print(f"{len(problems)} check(s) failed")
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
