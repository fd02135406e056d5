#!/usr/bin/env python3
"""cance benchmark: one workload, one process, closed loop.

    python3 bench/run.py --workload ring-train --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout, never from an installed copy. Operations run
back to back from this one caller with no added threads, and BLAS keeps
the program's default thread count, which is recorded.

With ``--trace 0`` the run sets up several times (the median counts),
then repeats the workload's operation for ``--seconds`` and prints the
end-to-end metrics. With ``--trace 1`` it sets up once, runs one untraced
pass over the workload's inputs and then the same pass with every
per-layer span patched in, and prints the per-layer metrics. Either way
the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the line before it is a
JSON object with the run's environment, output digests and problems.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

# set-up repetitions per untraced run; setup_s is their median
SETUP_REPS = 3

END_TO_END_UNITS = {
    "op_s": "s",
    "rows_per_s": "rows/s",
    "auroc": "ratio",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("ring-train", "offplane-ablate", "score-csv"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny epochs and row counts, for the "
                        "harness's own test")
    return parser.parse_args(argv)


def import_program():
    """Put this checkout's ``src`` first on the path and import cance from it."""
    package = SRC / "cance"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: no program source at {package}")
    sys.path.insert(0, str(SRC))
    import cance

    if Path(cance.__file__).resolve().parent != package:
        raise SystemExit(f"bench: imported cance from {cance.__file__}, "
                         f"not from {package}")


# --------------------------------------------------------------------------
# environment


def openblas_runtime(np):
    """(threads, source, runtime configuration) from the OpenBLAS numpy loaded."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            getter = getattr(handle, f"{prefix}openblas_get_num_threads{suffix}", None)
            config = getattr(handle, f"{prefix}openblas_get_config{suffix}", None)
            if getter is None or config is None:
                continue
            getter.restype = ctypes.c_int
            config.restype = ctypes.c_char_p
            return (getter(), f"{getter.__name__}() in {lib.name}",
                    config().decode())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var):
            return os.environ[var], f"environment variable {var}", None
    return None, "unknown: no OpenBLAS found and no thread variable set", None


def git_commit():
    """HEAD of the checkout, or None when it is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(np):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads, source, runtime = openblas_runtime(np)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "build_configuration": blas.get("openblas configuration"),
                 "runtime_configuration": runtime},
        "blas_threads": threads,
        "blas_threads_source": source,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
    }


# --------------------------------------------------------------------------
# measurement


class Runner:
    """Times operations and checks their outputs.

    The first run of each input is validated against the workload's bar
    and its digest recorded; every later run of that input must reproduce
    the digest byte for byte.
    """

    def __init__(self, workload):
        self.workload = workload
        self.digests = {}
        self.aurocs = {}
        self.times = []
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, key) -> float:
        self.attempted += 1
        elapsed = None
        start = time.perf_counter()
        try:
            out = self.workload.op(key)
            elapsed = time.perf_counter() - start
            problems = self._check(key, out)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted
            if elapsed is None:
                elapsed = time.perf_counter() - start
            traceback.print_exc()
            problems = [f"{type(exc).__name__}: {exc}"]
        self.times.append(elapsed)
        if problems:
            self.failed += 1
            self.problems.extend(f"{key}: {p}" for p in problems)
        return elapsed

    def _check(self, key, out) -> list:
        digest = self.workload.digest(out)
        if key in self.digests:
            if digest != self.digests[key]:
                return ["output differs from the first run of this input"]
            return []
        self.digests[key] = digest
        self.aurocs[key], problems = self.workload.validate(key, out)
        return problems


def set_up(workload, reps, tracer=None):
    """Median set-up seconds over `reps`, and set-up problems."""
    times, prints = [], set()
    for _ in range(reps):
        start = time.perf_counter()
        workload.prepare()
        with tracer.installed() if tracer else contextlib.nullcontext():
            workload.make_inputs()
        times.append(time.perf_counter() - start)
        prints.add(workload.fingerprint())
    problems = [] if len(prints) == 1 else [
        "set-up repetitions produced different models or inputs"]
    return statistics.median(times), times, problems


def run_untraced(workload, seconds, import_s):
    setup_s, setup_times, problems = set_up(workload, SETUP_REPS)
    runner = Runner(workload)
    keys = workload.keys
    start = time.perf_counter()
    i = 0
    # one full pass always; then start another operation only while it is
    # expected to finish within the measured window
    while i < len(keys) or (time.perf_counter() - start
                            + statistics.median(runner.times) <= seconds):
        runner.run(keys[i % len(keys)])
        i += 1
    aurocs = list(runner.aurocs.values())
    metrics = {
        "op_s": statistics.median(runner.times),
        "rows_per_s": statistics.median(workload.rows / t for t in runner.times),
        "auroc": sum(aurocs) / len(aurocs) if aurocs else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": import_s + setup_s,
    }
    info = {
        "import_s": import_s,
        "setup_repeat_s": setup_times,
        "op_times_s": runner.times,
        "window_s": time.perf_counter() - start,
    }
    return runner, metrics, END_TO_END_UNITS, problems, info


def run_traced(workload):
    import spans

    tracer = spans.Tracer()
    _, _, problems = set_up(workload, 1, tracer)
    runner = Runner(workload)
    base = [runner.run(key) for key in workload.keys]
    with tracer.installed():
        traced = [runner.run(key) for key in workload.keys]
    missing = [name for name in workload.spans if tracer.stats[name].calls == 0]
    if missing:
        problems.append(f"spans recorded no call: {', '.join(missing)}")
    metrics = tracer.metrics()
    metrics["trace.base_op_s"] = statistics.median(base)
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(base)
    info = {"untraced_op_times_s": base, "traced_op_times_s": traced}
    return runner, metrics, spans.per_layer_units(), problems, info


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import numpy as np

    import workloads

    import_s = time.perf_counter() - _START
    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # the program's seeds are non-negative; any --seed maps onto one
        workload = workloads.WORKLOADS[args.workload](
            args.seed % (1 << 31), workloads.SIZES[args.size], str(workdir))
        if args.trace:
            runner, metrics, units, problems, info = run_traced(workload)
        else:
            runner, metrics, units, problems, info = run_untraced(
                workload, args.seconds, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    problems = problems + runner.problems
    info.update({
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "inputs": [str(k) for k in workload.keys],
        "digests": {str(k): d for k, d in runner.digests.items()},
        "error_rate": runner.failed / runner.attempted,
        "problems": problems,
        "env": environment(np),
    })
    for name, value in metrics.items():
        print(f"{name:32s} {value:.6g} {units[name]}")
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
