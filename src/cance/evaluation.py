"""Metrics and repeated-run experiment orchestration."""

import copy
import logging
import threading
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass, replace
from functools import partial

import numpy as np

from cance.config import RunConfig
from cance.errors import CanceError, ConfigError, DegenerateFeatureError, ShapeError
from cance.machine import blas_cpus
from cance.pipeline import RunArtifacts, fit_estimator, prepare_features, run_pipeline

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
        raise DegenerateFeatureError("AUROC needs both classes present")
    ranks = _midranks(scored.scores)
    return float(
        (ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    )


def f1_at_contamination(scored: ScoredSet, contamination_rate: float) -> float:
    """F1 after thresholding at the (1 - rate) score quantile."""
    if not 0.0 < contamination_rate < 1.0:
        raise RuntimeError(  # a caller's bug: the rate comes from the labels
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


def _score_metrics(scores, labels) -> dict:
    """AUROC, and F1 at the test anomaly rate (in (0,1) once auroc passes)."""
    scored = ScoredSet(scores, labels)
    rate = float(np.mean(scored.labels == 1))
    return {"auroc": auroc(scored), "f1": f1_at_contamination(scored, rate),
            "contamination": rate}


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
    running ones finish. Jobs run on the calling thread's CPU plus each
    that `blas_cpus` holds for them, each fit on one OpenBLAS thread, in
    one pool of one thread more than those CPUs (and no more than jobs);
    with none held, in the calling thread. A worker holds its CPU while
    jobs wait to start: once fewer jobs are unfinished than CPUs, each job
    that finishes gives a CPU back, so a running fit can take it for a
    helper thread at its next epoch.
    """
    jobs = list(jobs)
    cpus = blas_cpus(len(jobs) - 1)
    with cpus:
        if not cpus.held:
            return {key: _outcome(key, job) for key, job in jobs}
        workers, unfinished, lock = cpus.held + 1, [len(jobs)], threading.Lock()

        def run(key, job):
            try:
                return _outcome(key, job)
            finally:
                with lock:
                    unfinished[0] -= 1
                    if unfinished[0] < workers:  # no job waits for this CPU
                        cpus.release()

        with ThreadPoolExecutor(min(len(jobs), workers + 1)) as pool:
            futures = [pool.submit(run, key, job) for key, job in jobs]
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
    metrics = _score_metrics(artifacts.test_scores, artifacts.test.labels)
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
    if not config.dataset.sweep:
        raise ConfigError(f"dataset.benchmark={config.dataset.benchmark}: the sweep runs "
                          "only unimodal benchmarks of several normal classes")
    seeds = _seeds(config, repeats)
    configs = {}
    for cls in config.dataset.normal_classes:
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


def _variant_metrics(config: RunConfig, variant: str, features: RunArtifacts) -> dict:
    """Score one variant on one seed's features: Error by the squared error,
    the others by an estimator fitted on their composite columns."""
    if variant == "Error":
        scores = features.z_test[:, -2]
    else:
        cols = slice(config.compress.latent_dim if variant == "LatNCE" else None)
        nce = replace(config.nce, augmentation=(variant == "CANCE"))
        scores = fit_estimator(features, nce, f"-{variant}", cols).test_scores
    return _score_metrics(scores, features.test.labels)


def run_ablation(config: RunConfig, repeats: int | None = None) -> dict:
    """Run Error / LatNCE / CNCE / CANCE on identical splits and compression.

    Per seed, one compression model is fitted and shared; only the feature
    columns fed to the estimator and the augmentation flag differ. Error
    needs no estimator: its score is the squared-error feature itself.

    Two job lists: the features of every seed, then the four variants of
    every seed. Each fit draws from its own named streams, so the reports
    do not depend on the number of workers. A seed whose features failed
    has no variant jobs; its CanceError is the outcome of every variant.
    """
    config.dataset.check_single_run()
    seeds = _seeds(config, repeats)
    features = run_jobs((seed, partial(prepare_features, config, seed))
                        for seed in seeds)
    fits = run_jobs(
        ((seed, variant), partial(_variant_metrics, config, variant, feats))
        for seed, feats in features.items() if not isinstance(feats, CanceError)
        for variant in ABLATION_VARIANTS
    )
    return {
        variant: _report(config, seeds, [fits.get((seed, variant), features[seed])
                                         for seed in seeds], f"/{variant}")
        for variant in ABLATION_VARIANTS
    }
