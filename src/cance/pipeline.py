"""End-to-end single-seed pipeline shared by the CLI and the experiment harness.

Stages: load or generate data, carve a normal-only training pool with a
labeled test set, split off validation, normalize with train statistics,
fit the compression model, extract composite features, train the
estimator, and score in the fixed blocks of `score_blocks`, as `cance score`.
"""

import json
import os
from dataclasses import dataclass, field

import numpy as np

from cance import blas
from cance.compress import AutoencoderModel, PcaModel, fit_pca, train_autoencoder
from cance.config import RunConfig
from cance.data import Dataset, Normalizer, load_benchmark, split_train_val
from cance.errors import ConfigError, ModelFormatError, NonFiniteError, ShapeError
from cance.nce import EstimatorModel, NceConfig, train_estimator
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
    statistics (min-max for idx images, z-score otherwise), fits the
    compression model and extracts the composite features of the training
    and validation rows with `score_blocks`. Returns (normalizer,
    compression, compression_history, test, z_train, z_val, x_test), where
    x_test are the normalized test features, for `score_blocks`.
    """
    rng = RunRng(seed)
    train_pool, test = load_benchmark(config.dataset, rng)
    train, val = split_train_val(train_pool, config.eval.val_fraction,
                                 rng.stream("val-split"))

    method = "minmax" if config.dataset.kind == "idx" else "zscore"
    normalizer = Normalizer(method).fit(train)
    train_n = normalizer.transform(train)
    val_n = normalizer.transform(val)
    test_n = normalizer.transform(test)

    compression, history = fit_compression(
        config, train_n.features, val_n.features, rng
    )
    z_train = score_blocks(compression, None, train_n.features)[0]
    z_val = score_blocks(compression, None, val_n.features)[0]
    return normalizer, compression, history, test, z_train, z_val, test_n.features


SCORE_BLOCK = 2048


def blas_summary() -> str:
    """The OpenBLAS `score_blocks` runs on, with its thread count, and the block size."""
    names = [f"{package}'s {' '.join(config().decode().split())} on {get()} thread(s)"
             for package, get, config in blas.OPENBLAS]
    return f"{' and '.join(names) or 'unknown BLAS'}; blocks of {SCORE_BLOCK} rows"


def score_blocks(compression, estimator, x, cols=slice(None), out=None,
                 on_block=None):
    """(composite features, scores) of normalized rows, computed in blocks
    of SCORE_BLOCK rows with OpenBLAS on one thread. The estimator scores
    the composite columns `cols`; without one (None) the scores are None.
    `out` gives the two arrays to fill instead of new ones, the first with
    the composite's last columns, and `on_block` is called with the number
    of rows filled after each block. Non-finite composite features or
    scores raise NonFiniteError naming the row as `load_csv` does (the
    first is row 2).

    The last block is padded with copies of its first row, so every forward
    has one shape and a row's bits do not depend on the rows around it.
    Every score after training is computed here.
    """
    n = x.shape[0]
    z, scores = out or (np.empty((n, compression.latent_dim + 2)), np.empty(n))
    for start in range(0, n, SCORE_BLOCK):
        block = x[start:start + SCORE_BLOCK]
        rows = len(block)
        pad = np.repeat(block[:1], SCORE_BLOCK - rows, axis=0)
        zb = compression.composite(np.concatenate([block, pad]), real_rows=rows)
        if (bad := ~np.isfinite(zb[:rows]).all(axis=1)).any():
            raise NonFiniteError(f"row {start + bad.argmax() + 2}: its composite "
                                 "features overflow float64")
        z[start:start + rows] = zb[:rows, -z.shape[1]:]
        if estimator is not None:
            sb = estimator.score(zb[:, cols])[:rows]
            if (bad := ~np.isfinite(sb)).any():
                raise NonFiniteError(f"row {start + bad.argmax() + 2}: its "
                                     "log-density overflows float64")
            scores[start:start + rows] = sb
        if on_block:
            on_block(start + rows)
    return z, None if estimator is None else scores


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


def fit_estimator(features, nce: NceConfig, seed: int, tag="", cols=slice(None)):
    """Train an estimator on the composite columns `cols` of the training and
    validation rows of `prepare_features`, drawing from the streams
    nce-init{tag}, nce-train{tag} and nce-val{tag}, and score the test rows.
    Returns (estimator, history, z_test, test_scores)."""
    _, compression, _, _, z_train, z_val, x_test = features
    rng = RunRng(seed)
    estimator, history = train_estimator(
        z_train[:, cols], z_val[:, cols], nce,
        *(rng.stream(f"nce-{part}{tag}") for part in ("init", "train", "val")),
    )
    return estimator, history, *score_blocks(compression, estimator, x_test, cols)


def run_pipeline(config: RunConfig, seed: int) -> RunArtifacts:
    features = prepare_features(config, seed)
    normalizer, compression, comp_history, test, *_ = features
    estimator, est_history, z_test, test_scores = fit_estimator(
        features, config.nce, seed)
    return RunArtifacts(
        seed=seed,
        config_hash=config.hash(),
        compression=compression,
        normalizer=normalizer,
        estimator=estimator,
        test=test,
        test_scores=test_scores,
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
        est_meta["augmentation"] = aug_fit
    save_model(os.path.join(outdir, ESTIMATOR_FILE), artifacts.estimator, est_meta)
    save_model(os.path.join(outdir, NORMALIZER_FILE), artifacts.normalizer, tag)
    with open(os.path.join(outdir, CONFIG_FILE), "w") as fh:
        fh.write(config.canonical())
    report = {
        "config_hash": artifacts.config_hash,
        "seed": artifacts.seed,
        "compression": artifacts.compression_history,
        "estimator": artifacts.estimator_history,
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

