"""Smoke test of the benchmark harness with tiny epochs and row counts.

    python3 -m pytest bench/tests -q

Tiny training runs do not reach the acceptance AUROC bars, so those two
checks may report failed operations here; every other check must pass.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
QUALITY_BARS = ("test AUROC", "AUROC gap")


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args, "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_declared_metric_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    info = json.loads(lines[-2])["info"]
    result = json.loads(lines[-1])

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer" if trace else "end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        assert f"{name} " in proc.stdout
    assert 1 <= result["attempted"]
    assert 0 <= result["failed"] <= result["attempted"]
    # no crash, no span without a call, no digest mismatch between runs
    assert all(any(bar in p for bar in QUALITY_BARS) for p in info["problems"]), \
        info["problems"]
    assert result["correct"] == (not info["problems"])
    assert info["env"]["blas_threads_source"]
    assert len(info["digests"]) == len(set(info["inputs"]))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", WORKLOADS[0], "--seed", "0",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_suite_runs_and_compares(tmp_path):
    runs = tmp_path / "runs.jsonl"
    suite = [sys.executable, "bench/suite.py"]
    proc = subprocess.run(
        suite + ["run", "--workloads", "score-csv", "--seeds", "0-1",
                 "--seconds", "1", "--size", "smoke", "--out", str(runs)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    for metric in SPEC["end_to_end"]:
        assert f"{metric['name']} " in proc.stdout
    proc = subprocess.run(suite + ["compare", str(runs), str(runs)],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout
    assert proc.stdout.count("agree within bound") == len(SPEC["end_to_end"])
