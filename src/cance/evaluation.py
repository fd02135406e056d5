"""Metrics and repeated-run experiment orchestration."""

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from cance.config import RunConfig
from cance.errors import ShapeError
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
    records: list = field(default_factory=list)
    partial: bool = False

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
            "per_run": [
                {"seed": r.seed, "metrics": r.metrics, "error": r.error}
                for r in self.records
            ],
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


def run_experiment(config: RunConfig, repeats: int | None = None,
                   on_run=None) -> ExperimentReport:
    """Run the pipeline `repeats` times with seeds seed+0..repeats-1."""
    repeats = config.eval.repeats if repeats is None else repeats
    seeds = [config.eval.seed + i for i in range(repeats)]
    report = ExperimentReport(
        name=config.dataset.name or config.dataset.kind,
        config_hash=config.hash(),
        seeds=seeds,
    )
    for seed in seeds:
        try:
            artifacts = run_pipeline(config, seed)
            metrics = _score_metrics(
                artifacts.test_scores,
                artifacts.test.labels,
                config.eval.contamination,
            )
            report.records.append(RunRecord(seed=seed, metrics=metrics))
            if on_run is not None:
                on_run(seed, artifacts)
        except Exception as exc:  # noqa: BLE001 - report partial, keep going
            log.warning("run with seed %d failed: %s", seed, exc)
            report.records.append(RunRecord(seed=seed, metrics={}, error=str(exc)))
            report.partial = True
    return report


def single_class_config(config: RunConfig, cls: int) -> RunConfig:
    """Copy of a unimodal config restricted to one normal class."""
    import copy

    sub = copy.deepcopy(config)
    sub.dataset.normal_classes = (int(cls),)
    sub.dataset.name = f"{config.dataset.name or config.dataset.kind}/{cls}"
    return sub


def run_unimodal_sweep(config: RunConfig, repeats: int | None = None,
                       on_run_factory=None) -> dict:
    """One one-vs-rest experiment per configured normal class."""
    if config.dataset.benchmark != "unimodal":
        raise ValueError("sweep applies to unimodal benchmarks")
    reports = {}
    for cls in config.dataset.normal_classes:
        on_run = on_run_factory(int(cls)) if on_run_factory else None
        reports[int(cls)] = run_experiment(
            single_class_config(config, cls), repeats, on_run=on_run
        )
    return reports


def _variant_columns(z: np.ndarray, latent_dim: int, variant: str) -> np.ndarray:
    if variant == "LatNCE":
        return z[:, :latent_dim]
    return z


def run_ablation(config: RunConfig, repeats: int | None = None) -> dict:
    """Run Error / LatNCE / CNCE / CANCE on identical splits and compression.

    Per seed, one compression model is fitted and shared; only the feature
    columns fed to the estimator and the augmentation flag differ. Error
    needs no estimator: its score is the squared-error feature itself.
    """
    repeats = config.eval.repeats if repeats is None else repeats
    seeds = [config.eval.seed + i for i in range(repeats)]
    reports = {
        variant: ExperimentReport(
            name=f"{config.dataset.name or config.dataset.kind}/{variant}",
            config_hash=config.hash(),
            seeds=seeds,
        )
        for variant in ABLATION_VARIANTS
    }
    latent_dim = config.compress.latent_dim
    for seed in seeds:
        _, _, _, test, z_train, z_val, z_test = prepare_features(config, seed)
        rng = RunRng(seed)
        for variant in ABLATION_VARIANTS:
            try:
                if variant == "Error":
                    scores = z_test[:, -2]
                else:
                    cfg = replace(
                        config.nce, augmentation=(variant == "CANCE")
                    )
                    estimator, _ = train_estimator(
                        _variant_columns(z_train, latent_dim, variant),
                        _variant_columns(z_val, latent_dim, variant),
                        cfg,
                        rng.stream(f"nce-init-{variant}"),
                        rng.stream(f"nce-train-{variant}"),
                        rng.stream(f"nce-val-{variant}"),
                    )
                    scores = estimator.score(
                        _variant_columns(z_test, latent_dim, variant)
                    )
                metrics = _score_metrics(
                    scores, test.labels, config.eval.contamination
                )
                reports[variant].records.append(
                    RunRecord(seed=seed, metrics=metrics)
                )
            except Exception as exc:  # noqa: BLE001
                log.warning("%s with seed %d failed: %s", variant, seed, exc)
                reports[variant].records.append(
                    RunRecord(seed=seed, metrics={}, error=str(exc))
                )
                reports[variant].partial = True
    return reports
