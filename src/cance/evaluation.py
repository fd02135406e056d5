"""Metrics, block scoring and repeated-run experiment orchestration."""

import copy
import ctypes
import logging
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from functools import cache, partial
from pathlib import Path

import numpy as np

from cance.config import RunConfig
from cance.data import usable_cpus as _usable_cpus
from cance.errors import CanceError, ShapeError
from cance.nce import train_estimator
from cance.pipeline import prepare_features, run_pipeline
from cance.rng import RunRng

log = logging.getLogger(__name__)

ABLATION_VARIANTS = ("Error", "LatNCE", "CNCE", "CANCE")


@dataclass
class ScoredSet:
    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64).ravel()
        self.labels = np.asarray(self.labels, dtype=np.int64).ravel()
        if self.scores.shape != self.labels.shape:
            raise ShapeError("scores and labels must have equal length")


def _midranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="mergesort")
    sorted_vals = values[order]
    boundary = np.flatnonzero(
        np.r_[True, sorted_vals[1:] != sorted_vals[:-1], True]
    )
    counts = np.diff(boundary)
    # midrank of a tie group spanning sorted positions [a, b) is (a+1+b)/2
    group_ranks = 0.5 * (boundary[:-1] + 1 + boundary[1:])
    ranks = np.empty(values.size)
    ranks[order] = np.repeat(group_ranks, counts)
    return ranks


def auroc(scored: ScoredSet) -> float:
    """Probability a random anomaly outranks a random normal, ties half."""
    pos = scored.labels == 1
    n_pos = int(pos.sum())
    n_neg = scored.labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUROC needs both classes present")
    ranks = _midranks(scored.scores)
    return float(
        (ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    )


def f1_at_contamination(scored: ScoredSet, contamination_rate: float) -> float:
    """F1 after thresholding at the (1 - rate) score quantile."""
    if not 0.0 < contamination_rate < 1.0:
        raise ValueError(
            f"contamination rate must be in (0,1), got {contamination_rate}"
        )
    threshold = np.quantile(scored.scores, 1.0 - contamination_rate)
    predicted = scored.scores > threshold
    tp = int(np.sum(predicted & (scored.labels == 1)))
    fp = int(np.sum(predicted & (scored.labels == 0)))
    fn = int(np.sum(~predicted & (scored.labels == 1)))
    if tp == 0:
        return 0.0
    return 2.0 * tp / (2.0 * tp + fp + fn)


@dataclass
class RunRecord:
    seed: int
    metrics: dict
    error: str = ""


@dataclass
class ExperimentReport:
    name: str
    config_hash: str
    seeds: list
    records: list

    @property
    def partial(self) -> bool:
        return any(r.error for r in self.records)

    def metric_values(self, key: str) -> np.ndarray:
        return np.array(
            [r.metrics[key] for r in self.records if not r.error and key in r.metrics]
        )

    def mean(self, key: str) -> float:
        values = self.metric_values(key)
        return float(values.mean()) if values.size else float("nan")

    def std(self, key: str) -> float:
        values = self.metric_values(key)
        return float(values.std()) if values.size else float("nan")

    def summary(self) -> dict:
        keys = sorted({k for r in self.records if not r.error for k in r.metrics})
        return {
            "name": self.name,
            "config_hash": self.config_hash,
            "seeds": list(self.seeds),
            "partial": self.partial,
            "per_run": [asdict(r) for r in self.records],
            "mean": {k: self.mean(k) for k in keys},
            "std": {k: self.std(k) for k in keys},
        }


def _score_metrics(scores, labels, contamination: float) -> dict:
    scored = ScoredSet(scores, labels)
    rate = contamination
    if rate <= 0.0:
        rate = float(np.mean(scored.labels == 1))
    metrics = {"auroc": auroc(scored)}
    if 0.0 < rate < 1.0:
        metrics["f1"] = f1_at_contamination(scored, rate)
        metrics["contamination"] = rate
    return metrics


@cache
def _openblas():
    """The OpenBLAS library numpy ships, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
            handle.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
            handle.scipy_openblas_set_num_threads64_.argtypes = [ctypes.c_int]
            handle.scipy_openblas_get_config64_.restype = ctypes.c_char_p
        except (OSError, AttributeError):
            continue
        return handle
    return None


def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS numpy ships, or None."""
    lib = _openblas()
    return lib and (lib.scipy_openblas_get_num_threads64_,
                    lib.scipy_openblas_set_num_threads64_)


@contextmanager
def single_blas_thread():
    """Pin numpy's OpenBLAS to one thread, process-wide, and restore the
    previous count on exit, also on error; without it, pin nothing."""
    get, set_ = _openblas_threads() or (lambda: None, lambda threads: None)
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


SCORE_BLOCK = 2048


def blas_summary() -> str:
    """The BLAS that `score_blocks` runs on, its threads and its block size."""
    lib = _openblas()
    name = lib.scipy_openblas_get_config64_().decode() if lib else "unknown BLAS"
    threads = "1 BLAS thread" if _openblas_threads() else "BLAS threads not pinned"
    return f"{' '.join(name.split())}; {threads}; blocks of {SCORE_BLOCK} rows"


def score_blocks(compression, estimator, x):
    """(composite features, scores) of normalized rows, computed in blocks
    of SCORE_BLOCK rows with OpenBLAS on one thread.

    The last block is padded with copies of its first row, so every forward
    has one shape and a row's bits do not depend on the rows around it.
    """
    n = x.shape[0]
    z, scores = np.empty((n, compression.latent_dim + 2)), np.empty(n)
    with single_blas_thread():
        for start in range(0, n, SCORE_BLOCK):
            block = x[start:start + SCORE_BLOCK]
            rows = len(block)
            pad = np.repeat(block[:1], SCORE_BLOCK - rows, axis=0)
            block = np.concatenate([block, pad])
            zb = compression.composite(block, real_rows=rows)
            z[start:start + rows] = zb[:rows]
            scores[start:start + rows] = estimator.score(zb)[:rows]
    return z, scores


def _outcome(key, job):
    """The job's result, or the CanceError it raised."""
    try:
        return job()
    except CanceError as exc:
        log.warning("job %s failed: %s", key, exc)
        return exc


def run_jobs(jobs) -> dict:
    """Run independent (key, callable) jobs; {key: outcome} in job order.

    An outcome is the job's result or the CanceError it raised; any other
    exception cancels the jobs not yet started and propagates once the
    running ones finish. Jobs run on min(len(jobs), usable CPUs) threads
    with numpy's OpenBLAS pinned to one thread (process-wide) until the
    last ends; with one worker or no such OpenBLAS, in the calling thread.
    """
    jobs = list(jobs)
    workers = min(len(jobs), _usable_cpus())
    if workers < 2 or _openblas_threads() is None:
        return {key: _outcome(key, job) for key, job in jobs}
    with single_blas_thread(), ThreadPoolExecutor(workers) as pool:
        futures = [pool.submit(_outcome, key, job) for key, job in jobs]
        try:
            wait(futures, return_when=FIRST_EXCEPTION)
        finally:  # also on an interrupt of the wait
            pool.shutdown(cancel_futures=True)
        # jobs are cancelled only after one raised; result() re-raises that
        return {key: future.result() for (key, _), future in zip(jobs, futures)
                if not future.cancelled()}


def _seeds(config: RunConfig, repeats: int | None) -> list:
    repeats = config.eval.repeats if repeats is None else repeats
    return [config.eval.seed + i for i in range(repeats)]


def _report(config: RunConfig, seeds, outcomes, suffix="") -> ExperimentReport:
    """One record per seed: its metrics, or the CanceError its job raised."""
    return ExperimentReport(
        (config.dataset.name or config.dataset.kind) + suffix, config.hash(), seeds,
        [RunRecord(seed, {}, str(out) or type(out).__name__)
         if isinstance(out, CanceError) else RunRecord(seed, out)
         for seed, out in zip(seeds, outcomes)],
    )


def _pipeline_metrics(config: RunConfig, seed: int, on_run) -> dict:
    """Fit and score one seed; only its metrics outlive the job."""
    artifacts = run_pipeline(config, seed)
    metrics = _score_metrics(artifacts.test_scores, artifacts.test.labels,
                             config.eval.contamination)
    if on_run is not None:
        on_run(seed, artifacts)
    return metrics


def run_experiment(config: RunConfig, repeats: int | None = None,
                   on_run=None) -> ExperimentReport:
    """Run the pipeline `repeats` times with seeds seed+0..repeats-1.

    Each seed is one job; `on_run(seed, artifacts)` is called inside it,
    so possibly on a worker thread.
    """
    seeds = _seeds(config, repeats)
    outcomes = run_jobs((seed, partial(_pipeline_metrics, config, seed, on_run))
                        for seed in seeds)
    return _report(config, seeds, outcomes.values())


def run_unimodal_sweep(config: RunConfig, repeats: int | None = None,
                       on_run_factory=None) -> dict:
    """One one-vs-rest experiment per configured normal class.

    All class x seed fits are jobs of one list, so the classes share the
    CPUs too. `on_run_factory(cls)` gives the `on_run` of a class.
    """
    if config.dataset.benchmark != "unimodal":
        raise ValueError("sweep applies to unimodal benchmarks")
    seeds = _seeds(config, repeats)
    configs = {}
    for cls in map(int, config.dataset.normal_classes):
        configs[cls] = sub = copy.deepcopy(config)
        sub.dataset.normal_classes = (cls,)
        sub.dataset.name = f"{config.dataset.name or config.dataset.kind}/{cls}"
    outcomes = run_jobs(
        ((cls, seed), partial(_pipeline_metrics, sub, seed,
                              on_run_factory(cls) if on_run_factory else None))
        for cls, sub in configs.items() for seed in seeds
    )
    return {cls: _report(sub, seeds, [outcomes[cls, seed] for seed in seeds])
            for cls, sub in configs.items()}


def _variant_metrics(config: RunConfig, seed: int, variant: str, features) -> dict:
    """Score one variant on one seed's features; all but Error fit an estimator."""
    *_, test, z_train, z_val, z_test = features
    if variant == "Error":
        return _score_metrics(z_test[:, -2], test.labels, config.eval.contamination)
    cols = slice(config.compress.latent_dim if variant == "LatNCE" else None)
    rng = RunRng(seed)
    estimator, _ = train_estimator(
        z_train[:, cols],
        z_val[:, cols],
        replace(config.nce, augmentation=(variant == "CANCE")),
        *(rng.stream(f"nce-{part}-{variant}") for part in ("init", "train", "val")),
    )
    return _score_metrics(estimator.score(z_test[:, cols]), test.labels,
                          config.eval.contamination)


def run_ablation(config: RunConfig, repeats: int | None = None) -> dict:
    """Run Error / LatNCE / CNCE / CANCE on identical splits and compression.

    Per seed, one compression model is fitted and shared; only the feature
    columns fed to the estimator and the augmentation flag differ. Error
    needs no estimator: its score is the squared-error feature itself.

    Two job lists: the features of every seed, then the LatNCE, CNCE and
    CANCE fits of every seed. Each fit draws from its own named streams, so
    the reports do not depend on the number of workers.
    """
    seeds = _seeds(config, repeats)
    features = run_jobs((seed, partial(prepare_features, config, seed))
                        for seed in seeds)
    fits = run_jobs(
        ((seed, variant), partial(_variant_metrics, config, seed, variant, feats))
        for seed, feats in features.items() if not isinstance(feats, CanceError)
        for variant in ABLATION_VARIANTS[1:]
    )

    def outcome(seed, variant):
        feats = features[seed]
        if isinstance(feats, CanceError):
            return feats
        if variant == "Error":
            return _variant_metrics(config, seed, variant, feats)
        return fits[seed, variant]

    return {
        variant: _report(config, seeds, [outcome(seed, variant) for seed in seeds],
                         f"/{variant}")
        for variant in ABLATION_VARIANTS
    }
