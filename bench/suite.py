#!/usr/bin/env python3
"""Run the benchmark over workloads and seeds, and compare sets of runs.

    python3 bench/suite.py run [--workloads ring-train,score-csv] [--seeds 0-9]
                               [--seconds N] [--trace 0|1] [--out FILE]
    python3 bench/suite.py summary FILE
    python3 bench/suite.py compare BASE_FILE NEW_FILE

``run`` starts ``bench/run.py`` once per workload and seed, each in its own
process and one after another, appends one JSON record per run to FILE
(default ``.bench_work/runs-<time>.jsonl``) and prints the summary.
``summary`` prints, per workload and metric, the median, the quartiles and
the spread (q3 - q1) / median next to the metric's bound from
BENCHMARK.json. ``compare`` prints both sets side by side and whether the
new median is within the bound of the base median; it exits 1 if any
bounded metric is worse by more than its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("ring-train", "offplane-ablate", "score-csv")


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def metric_specs() -> dict:
    spec = load_benchmark()
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(workload, seed, seconds, trace, size) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--size", size]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    record = {"workload": workload, "seed": seed, "trace": trace,
              "returncode": proc.returncode,
              "wall_s": time.perf_counter() - start,
              "info": None, "result": None}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and len(lines) >= 2:
        record["info"] = json.loads(lines[-2])["info"]
        record["result"] = json.loads(lines[-1])
    else:
        record["stderr"] = proc.stderr[-4000:]
    return record


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def by_workload(records) -> dict:
    """workload -> metric -> list of values, plus run counts."""
    table = defaultdict(lambda: defaultdict(list))
    for rec in records:
        result = rec.get("result")
        if result is None:
            continue
        for name, metric in result["metrics"].items():
            table[rec["workload"]][name].append(metric["value"])
    return table


def read_records(path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def summary(records) -> None:
    specs = metric_specs()
    for workload, metrics in by_workload(records).items():
        runs = [r for r in records if r["workload"] == workload]
        ok = sum(1 for r in runs if r["result"] and r["result"]["correct"])
        attempted = sum(r["result"]["attempted"] for r in runs if r["result"])
        failed = sum(r["result"]["failed"] for r in runs if r["result"])
        print(f"{workload}: {len(runs)} runs, {ok} correct, "
              f"{failed}/{attempted} operations failed")
        for name, values in metrics.items():
            q1, med, q3 = quartiles(values)
            spec = specs.get(name, {})
            bound = spec.get("bound")
            spread = (q3 - q1) / med if med else float("nan")
            flag = ""
            if bound is not None:
                flag = "steady" if spread < bound / 3 else "WIDE"
            print(f"  {name:32s} median {med:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:7.2%}  bound "
                  f"{'-' if bound is None else f'{bound:.0%}'} {flag} "
                  f"{spec.get('unit', '')}")
        for rec in runs:
            if rec["result"] is None:
                print(f"  seed {rec['seed']}: exit {rec['returncode']}")
            elif rec["info"]["problems"]:
                print(f"  seed {rec['seed']}: {rec['info']['problems']}")


def compare(base, new) -> int:
    specs = metric_specs()
    base_table, new_table = by_workload(base), by_workload(new)
    worse = 0
    for workload in base_table:
        print(workload)
        for name, base_values in base_table[workload].items():
            new_values = new_table.get(workload, {}).get(name)
            if not new_values:
                print(f"  {name:32s} missing in the new set")
                continue
            b1, bm, b3 = quartiles(base_values)
            n1, nm, n3 = quartiles(new_values)
            spec = specs.get(name, {})
            bound = spec.get("bound")
            change = (nm - bm) / bm if bm else float("nan")
            worse_by = change if spec.get("better") == "lower" else -change
            verdict = "-"
            if bound is not None:
                if worse_by > bound:
                    verdict = "WORSE than bound"
                    worse += 1
                elif -worse_by > bound:
                    verdict = "better than bound"
                else:
                    verdict = "agree within bound"
            print(f"  {name:32s} base {bm:.6g} [{b1:.6g}, {b3:.6g}]  "
                  f"new {nm:.6g} [{n1:.6g}, {n3:.6g}]  change {change:+.2%}  "
                  f"bound {'-' if bound is None else f'{bound:.0%}'}  {verdict}")
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run")
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 3,5,11")
    p.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    p.add_argument("--out", default=None)
    p = sub.add_parser("summary")
    p.add_argument("file")
    p = sub.add_parser("compare")
    p.add_argument("base")
    p.add_argument("new")
    args = parser.parse_args(argv)

    if args.command == "summary":
        summary(read_records(args.file))
        return 0
    if args.command == "compare":
        return compare(read_records(args.base), read_records(args.new))

    seconds = args.seconds or load_benchmark()["run_seconds"]
    out = Path(args.out or ROOT / ".bench_work" / f"runs-{int(time.time())}.jsonl")
    out.parent.mkdir(parents=True, exist_ok=True)
    records = []
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            record = run_one(workload, seed, seconds, args.trace, args.size)
            records.append(record)
            with open(out, "a") as fh:
                fh.write(json.dumps(record) + "\n")
            status = "exit %d" % record["returncode"] if not record["result"] \
                else ("correct" if record["result"]["correct"] else "INCORRECT")
            print(f"{workload} seed {seed}: {status}, {record['wall_s']:.1f}s",
                  flush=True)
    print(f"runs written to {out}")
    summary(records)
    return 0


if __name__ == "__main__":
    sys.exit(main())
