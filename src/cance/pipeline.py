"""End-to-end single-seed pipeline shared by the CLI and the experiment harness.

Stages: load or generate data, carve a normal-only training pool with a
labeled test set, split off validation, normalize with train statistics,
fit the compression model, extract composite features, train the
estimator, and score.
"""

import json
import os
from dataclasses import dataclass, field

import numpy as np

from cance.compress import AutoencoderModel, PcaModel, fit_pca, train_autoencoder
from cance.config import RunConfig
from cance.data import Dataset, Normalizer, load_benchmark, split_train_val
from cance.errors import ConfigError, ModelFormatError, ShapeError
from cance.nce import EstimatorModel, train_estimator
from cance.nn.serialize import load_container, save_container
from cance.rng import RunRng


def fit_compression(config: RunConfig, train_x, val_x, rng: RunRng):
    cc = config.compress
    if cc.method == "pca":
        model = fit_pca(np.vstack([train_x, val_x]), cc.latent_dim)
        return model, {"method": "pca"}
    model, history = train_autoencoder(
        train_x, val_x, cc, rng.stream("ae-init"), rng.stream("ae-shuffle")
    )
    history["method"] = "ae"
    return model, history


def prepare_features(config: RunConfig, seed: int):
    """The feature path every run shares, up to the estimator.

    Loads the benchmark, splits off validation, normalizes with train
    statistics, fits the compression model and extracts composite features.
    Returns (normalizer, compression, compression_history, test,
    z_train, z_val, z_test).
    """
    rng = RunRng(seed)
    train_pool, test = load_benchmark(config.dataset, rng)
    train, val = split_train_val(train_pool, config.eval.val_fraction,
                                 rng.stream("val-split"))

    normalizer = Normalizer(config.dataset.resolved_normalization()).fit(train)
    train_n = normalizer.transform(train)
    val_n = normalizer.transform(val)
    test_n = normalizer.transform(test)

    compression, history = fit_compression(
        config, train_n.features, val_n.features, rng
    )
    z_train = compression.composite(train_n.features)
    z_val = compression.composite(val_n.features)
    z_test = compression.composite(test_n.features)
    return normalizer, compression, history, test, z_train, z_val, z_test


@dataclass
class RunArtifacts:
    seed: int
    config_hash: str
    compression: object
    normalizer: Normalizer
    estimator: EstimatorModel
    test: Dataset
    test_scores: np.ndarray
    z_test: np.ndarray
    compression_history: dict = field(default_factory=dict)
    estimator_history: dict = field(default_factory=dict)


def run_pipeline(config: RunConfig, seed: int) -> RunArtifacts:
    normalizer, compression, comp_history, test, z_train, z_val, z_test = (
        prepare_features(config, seed)
    )
    rng = RunRng(seed)
    estimator, est_history = train_estimator(
        z_train,
        z_val,
        config.nce,
        rng.stream("nce-init"),
        rng.stream("nce-train"),
        rng.stream("nce-val"),
    )
    return RunArtifacts(
        seed=seed,
        config_hash=config.hash(),
        compression=compression,
        normalizer=normalizer,
        estimator=estimator,
        test=test,
        test_scores=estimator.score(z_test),
        z_test=z_test,
        compression_history=comp_history,
        estimator_history=est_history,
    )


# --------------------------------------------------------------------------
# artifact persistence

COMPRESSION_FILE = "compression.model"
ESTIMATOR_FILE = "estimator.model"
NORMALIZER_FILE = "normalizer.model"
CONFIG_FILE = "config.ini"
REPORT_FILE = "train_report.json"


MODEL_KINDS = {
    "normalizer": Normalizer,
    "autoencoder": AutoencoderModel,
    "pca": PcaModel,
    "estimator": EstimatorModel,
}


def save_model(path, model, extra_meta: dict | None = None) -> None:
    """Write a model's container, its meta extended by `extra_meta`."""
    kind, meta, arrays = model.to_container()
    save_container(path, kind, {**meta, **(extra_meta or {})}, arrays)


def load_model(path, *kinds):
    """Read a model file of one of `kinds`; returns (model, meta).

    A wrong kind, a missing meta key or array, or a value the model cannot
    take (an unknown activation, layer type or normalization, or arrays
    whose shapes disagree) raises ModelFormatError.
    """
    kind, meta, arrays = load_container(path)
    if kind not in kinds:
        raise ModelFormatError(
            f"{path}: expected a {' or '.join(kinds)} model, got {kind!r}"
        )
    try:
        return MODEL_KINDS[kind].from_container(meta, arrays), meta
    except KeyError as exc:
        raise ModelFormatError(f"{path}: {kind} model lacks {exc}") from exc
    except (ModelFormatError, ShapeError, TypeError, ValueError) as exc:
        raise ModelFormatError(f"{path}: malformed {kind} model: {exc}") from exc


def save_run(outdir, config: RunConfig, artifacts: RunArtifacts) -> None:
    os.makedirs(outdir, exist_ok=True)
    tag = {"config_hash": artifacts.config_hash, "seed": artifacts.seed}
    save_model(os.path.join(outdir, COMPRESSION_FILE), artifacts.compression, tag)
    est_meta = dict(tag)
    aug_fit = artifacts.estimator_history.get("augmentation_fit")
    if aug_fit:
        est_meta["augmentation"] = _jsonable(aug_fit)
    save_model(os.path.join(outdir, ESTIMATOR_FILE), artifacts.estimator, est_meta)
    save_model(os.path.join(outdir, NORMALIZER_FILE), artifacts.normalizer, tag)
    with open(os.path.join(outdir, CONFIG_FILE), "w") as fh:
        fh.write(config.canonical())
    report = {
        "config_hash": artifacts.config_hash,
        "seed": artifacts.seed,
        "compression": _jsonable(artifacts.compression_history),
        "estimator": _jsonable(artifacts.estimator_history),
    }
    with open(os.path.join(outdir, REPORT_FILE), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_run(outdir):
    """Load persisted models; refuses directories with mismatched hashes
    (ConfigError) or with models whose dimensions do not chain
    (ModelFormatError naming the normalizer or estimator file).

    Returns (compression, estimator, normalizer, config_hash, estimator_meta).
    """
    compression, meta = load_model(os.path.join(outdir, COMPRESSION_FILE),
                                   "autoencoder", "pca")
    estimator_path = os.path.join(outdir, ESTIMATOR_FILE)
    estimator, est_meta = load_model(estimator_path, "estimator")
    normalizer_path = os.path.join(outdir, NORMALIZER_FILE)
    normalizer, nmeta = load_model(normalizer_path, "normalizer")
    hashes = {meta.get("config_hash"), est_meta.get("config_hash"),
              nmeta.get("config_hash")}
    if len(hashes) != 1:
        raise ConfigError(
            f"{outdir}: artifacts carry mismatched config hashes {sorted(hashes)}"
        )
    if normalizer.dim != compression.input_dim:
        raise ModelFormatError(
            f"{normalizer_path}: normalizes {normalizer.dim} columns, but the "
            f"compression model takes {compression.input_dim}"
        )
    if estimator.dim != compression.latent_dim + 2:
        raise ModelFormatError(
            f"{estimator_path}: takes {estimator.dim} features, but the "
            f"compression model gives {compression.latent_dim + 2}"
        )
    return compression, estimator, normalizer, hashes.pop(), est_meta


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj
