"""The ttk benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload equations|termified|directives|all \
        --seed N --seconds S --trace 0|1

One process, one client, closed loop: each case starts when the previous
one has its verdict.  The seed fixes the list of cases (a "round"); the
run completes the round once and repeats it until ``--seconds`` (wall
time) have passed.  Every case is checked against the answer fixed when
it was built (see ``workloads.py``).  A workload's known defects are
checked once after the timed rounds, and are not counted in ``attempted``
or ``failed``.

End-to-end times are process CPU time (``time.process_time``), rescaled
to a nominal machine speed.  The benchmark is one thread and does no
blocking I/O, so CPU time leaves out only the time a shared host takes the
CPU away.  The CPU's own speed still drifts on shared machines, so cases
run in segments of about ``SEGMENT_S`` CPU seconds, each between two runs
of a fixed arithmetic loop, and the segment's times are multiplied by
``CALIBRATION_S`` over the loop's mean time.  Throughput is the median over
segments, and a case's time its median over rounds, so that one slow case
or one slow stretch moves little.  Per-layer times are plain CPU time.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics of the traced
ones; the spans of the first traced round are written to ``perfbench/out``.
The last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--workload all`` runs each
workload in its own process and prints every metric of each.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import MemoTables, Tracer  # noqa: E402
from workloads import import_ttk, make  # noqa: E402

WORKLOADS = ("equations", "termified", "directives")
SETUPS = 5
CALIBRATION_LOOP = 100_000
CALIBRATION_S = 0.010   # nominal CPU time of the calibration loop
SEGMENT_S = 0.2         # CPU seconds of cases between calibrations

END_TO_END_UNITS = {
    "setup_s": "s", "cases_per_s": "1/s", "case_p50_ms": "ms",
    "case_p90_ms": "ms", "peak_rss_mib": "MiB", "output_kib": "KiB",
    "ok_ratio": "ratio",
}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    return "count"


class Round:
    """What one pass over the case list did."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.rates: list[float] = []    # cases per CPU second, by segment
        self.statuses: Counter = Counter()
        self.output_bytes = 0
        self.digest = hashlib.sha256()
        self.complete = True
        self.cpu = 0.0
        self.problems: list[str] = []


def calibration() -> float:
    """CPU seconds of a fixed arithmetic loop: the machine's current speed."""
    began = time.process_time()
    total = 0
    for i in range(CALIBRATION_LOOP):
        total += i * i % 7
    return time.process_time() - began


def calibrated(work, *args):
    """Run ``work`` between two calibration loops.  Return its result and
    the factor that rescales CPU time spent in it to the loop's nominal
    speed."""
    before = calibration()
    out = work(*args)
    return out, 2 * CALIBRATION_S / (before + calibration())


def run_round(workload, caches, deadline=None, tracer=None, memo=None) -> Round:
    """Run the case list once, or until the wall clock passes ``deadline``.
    Cases run in segments of about SEGMENT_S CPU seconds, each timed
    between two calibration loops (see the module docstring)."""
    result = Round()
    index = 0
    cases = workload.cases

    def segment():
        nonlocal index
        cpu = time.process_time
        start = cpu()
        times = []
        while index < len(cases) and cpu() - start < SEGMENT_S:
            if deadline is not None and time.perf_counter() >= deadline:
                result.complete = False
                break
            case = cases[index]
            if index % workload.clear_every == 0:
                if memo is not None and index:
                    memo.snapshot()
                caches.clear_all()
            if tracer is not None:
                tracer.case = index
            began = cpu()
            status, nbytes, detail = workload.run(case)
            times.append(cpu() - began)
            result.statuses[status] += 1
            result.output_bytes += nbytes
            result.digest.update(f"{workload.key(case)}\t{status}\n".encode())
            if status != "ok":
                result.problems.append(
                    f"{status}: {workload.key(case)[:100]} -> {detail[:120]}")
            index += 1
        return times, cpu() - start

    while index < len(cases) and result.complete:
        (times, spent), scale = calibrated(segment)
        result.times.extend(t * scale for t in times)
        if times:
            result.rates.append(len(times) / (spent * scale))
        result.cpu += spent * scale
    if memo is not None:
        memo.snapshot()
    return result


def case_medians(rounds) -> list:
    """Each case's median time over the rounds that reached it.  A round
    times its cases in list order, so a cut round holds a prefix."""
    return [statistics.median(r.times[index] for r in rounds
                              if index < len(r.times))
            for index in range(len(rounds[0].times))]


def measure_untraced(workload, caches, seconds: float):
    """Repeat the round until the time is up; the first round always
    completes, so its output and verdicts are exact for the seed."""
    start = time.perf_counter()
    rounds = []
    while True:
        deadline = start + seconds if rounds else None
        rounds.append(run_round(workload, caches, deadline))
        if not rounds[-1].complete or time.perf_counter() - start >= seconds:
            break
    first = rounds[0]
    times = case_medians(rounds)
    metrics = {
        "cases_per_s": statistics.median(x for r in rounds for x in r.rates),
        "case_p50_ms": 1000 * statistics.median(times),
        "case_p90_ms": 1000 * statistics.quantiles(times, n=10)[-1],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "output_kib": first.output_bytes / 1024,
        "ok_ratio": first.statuses["ok"] / len(workload.cases),
    }
    exact = {"verdicts": first.digest.hexdigest(),
             "output_bytes": first.output_bytes,
             "rounds_agree": all(r.digest.digest() == first.digest.digest()
                                 and r.output_bytes == first.output_bytes
                                 for r in rounds if r.complete)}
    return rounds, metrics, exact


def measure_traced(workload, modules, seconds: float):
    """Alternate untraced and traced rounds until the time is up.  Times
    are medians over traced rounds; counts come from the first traced
    round, and every traced round must repeat them."""
    caches = modules["caches"]
    tracer = Tracer(modules)
    memo = MemoTables(modules)
    start = time.perf_counter()
    rounds, cpus, per_round = [], {False: [], True: []}, []
    spans = tables = None
    while True:
        traced = len(rounds) % 2 == 1
        if traced:
            tracer.reset()
            memo.reset()
            tracer.install()
            try:
                result = run_round(workload, caches, tracer=tracer, memo=memo)
            finally:
                tracer.uninstall()
            numbers = tracer.layer_numbers()
            numbers.update(memo.layer_numbers())
            per_round.append(numbers)
            if spans is None:
                spans, tables = tracer.spans[:], memo.table_numbers()
        else:
            result = run_round(workload, caches)
        rounds.append(result)
        cpus[traced].append(result.cpu)
        if per_round and time.perf_counter() - start >= seconds:
            break
    first = per_round[0]
    metrics = {}
    for name, value in first.items():
        if name.endswith("_s"):
            metrics[name] = statistics.median(r[name] for r in per_round)
        else:
            metrics[name] = value
    metrics["trace.overhead_ratio"] = (
        statistics.median(cpus[True]) / statistics.median(cpus[False]))
    counts = {k: v for k, v in first.items() if not k.endswith("_s")}
    exact = {"verdicts": rounds[0].digest.hexdigest(),
             "output_bytes": rounds[0].output_bytes,
             "counts": counts,
             "rounds_agree": all(
                 {k: v for k, v in r.items() if not k.endswith("_s")} == counts
                 for r in per_round)}
    return rounds, metrics, exact, tracer, spans, tables


def check_known_defects(workload, caches) -> list:
    """Run each known-defect case once, with cold caches and untimed.
    Return (status, key, detail) for each."""
    out = []
    for case in workload.known_defects:
        caches.clear_all()
        status, _, detail = workload.run(case)
        out.append((status, workload.key(case), detail))
    caches.clear_all()
    return out


def setup(name: str, seed: int, workdir: str):
    began = time.process_time()
    modules = import_ttk()
    workload = make(name, modules, seed, workdir)
    return modules, workload, time.process_time() - began


def run_one(args) -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "ttk", "__init__.py")):
        print(f"no ttk source under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    sys.setrecursionlimit(20000)  # as ttk.cli.main sets it
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as workdir:
        setups = []
        for _ in range(SETUPS):
            (modules, workload, spent), scale = calibrated(
                setup, args.workload, args.seed, workdir)
            setups.append(spent * scale)
        if args.trace:
            rounds, metrics, exact, tracer, spans, tables = measure_traced(
                workload, modules, args.seconds)
        else:
            rounds, metrics, exact = measure_untraced(
                workload, modules["caches"], args.seconds)
            metrics["setup_s"] = statistics.median(setups)
        defects = check_known_defects(workload, modules["caches"])
    exact["known_defects"] = [status for status, _, _ in defects]
    statuses = Counter()
    for r in rounds:
        statuses.update(r.statuses)
    attempted = sum(statuses.values())
    print(f"workload {args.workload} seed {args.seed}: {len(workload.cases)} "
          f"cases per round, {len(rounds)} rounds, {attempted} cases run")
    for problem in rounds[0].problems:
        print("  " + problem)
    for status, key, detail in defects:
        print(f"known defect (ROADMAP item 3), not counted in attempted: "
              f"{status}: {key[:100]} -> {detail[:120]}")
    if args.trace:
        for name, numbers in tables.items():
            shown = "absent" if numbers is None else \
                "hits {} misses {} entries {}".format(*numbers)
            print(f"memo {name}: {shown}")
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        path = os.path.join(
            HERE, "out", f"spans-{args.workload}-seed{args.seed}.tsv.gz")
        tracer.write(path, spans)
        print(f"spans of the first traced round: {path}")
    for name, value in metrics.items():
        extra = (f" (n={len(workload.cases)} case medians of "
                 f"{attempted} timings)" if name.startswith("case_p") else "")
        print(f"{name} {value} {unit_of(name)}{extra}")
    print("exact: " + json.dumps(exact, sort_keys=True))
    print(json.dumps({
        "correct": statuses["wrong"] == 0
                   and all(status != "wrong" for status, _, _ in defects),
        "attempted": attempted,
        "failed": attempted - statuses["ok"],
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Run every workload in a process of its own; relay the output."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            status = child.returncode or 1
            continue
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}/{name}"] = metric
    if status:
        return status
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
