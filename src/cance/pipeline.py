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
from cance.data import (
    Dataset,
    Normalizer,
    SplitSpec,
    load_csv,
    load_embeddings,
    load_idx,
    load_recipe_dataset,
    make_multimodal,
    split_labeled_benchmark,
    split_train_val,
    synth_generate,
)
from cance.errors import ConfigError, ShapeError
from cance.nce import EstimatorModel, NoiseModel, train_estimator
from cance.nn.serialize import load_container
from cance.rng import RunRng


def load_benchmark(config: RunConfig, rng: RunRng):
    """Return (train Dataset of normals only, labeled test Dataset)."""
    dc = config.dataset
    if dc.benchmark == "unimodal" and len(dc.normal_classes) > 1:
        raise ConfigError(
            "a single run takes one normal class; several unimodal classes "
            "are swept by evaluation.run_unimodal_sweep"
        )
    if dc.kind == "synth":
        full = synth_generate(dc.synth, rng.stream("synth"), name=dc.name or None)
        return split_labeled_benchmark(full, dc.test_fraction,
                                       rng.stream("benchmark-split"))
    if dc.kind == "recipe":
        full = load_recipe_dataset(dc.recipe, dc.path)
        return split_labeled_benchmark(full, dc.test_fraction,
                                       rng.stream("benchmark-split"))
    if dc.kind == "csv":
        full = load_csv(
            dc.path,
            label_column=dc.label_column or None,
            class_column=dc.class_column or None,
            name=dc.name or None,
        )
    elif dc.kind == "embeddings":
        full = load_embeddings(dc.path, name=dc.name or None)
    elif dc.kind == "idx":
        train_ds = load_idx(dc.train_images, dc.train_labels, name=dc.name or None)
        test_ds = load_idx(dc.test_images, dc.test_labels)
        return make_multimodal(train_ds, dc.normal_classes, test_dataset=test_ds)
    else:
        raise ConfigError(f"unsupported dataset kind {dc.kind!r}")

    if dc.benchmark in ("unimodal", "multimodal"):
        return make_multimodal(
            full,
            dc.normal_classes,
            test_fraction=dc.test_fraction,
            rng=rng.stream("benchmark-split"),
        )
    return split_labeled_benchmark(full, dc.test_fraction,
                                   rng.stream("benchmark-split"))


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
    train_pool, test = load_benchmark(config, rng)
    split = SplitSpec(val_fraction=config.eval.val_fraction, seed=seed)
    train, val = split_train_val(train_pool, split, rng.stream("val-split"))

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


def run_pipeline(config: RunConfig, seed: int,
                 noise_model: NoiseModel | None = None) -> RunArtifacts:
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
        noise_model=noise_model,
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


def save_run(outdir, config: RunConfig, artifacts: RunArtifacts) -> None:
    os.makedirs(outdir, exist_ok=True)
    tag = {"config_hash": artifacts.config_hash, "seed": artifacts.seed}
    artifacts.compression.save(os.path.join(outdir, COMPRESSION_FILE), tag)
    est_meta = dict(tag)
    aug_fit = artifacts.estimator_history.get("augmentation_fit")
    if aug_fit:
        est_meta["augmentation"] = _jsonable(aug_fit)
    artifacts.estimator.save(os.path.join(outdir, ESTIMATOR_FILE), est_meta)
    artifacts.normalizer.save(os.path.join(outdir, NORMALIZER_FILE), tag)
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


COMPRESSION_KINDS = {"autoencoder": AutoencoderModel, "pca": PcaModel}


def load_run(outdir):
    """Load persisted models; refuses directories with mismatched hashes.

    Returns (compression, estimator, normalizer, config_hash, estimator_meta).
    """
    kind, meta, arrays = load_container(os.path.join(outdir, COMPRESSION_FILE))
    if kind not in COMPRESSION_KINDS:
        raise ShapeError(f"{outdir}: unexpected compression container kind {kind!r}")
    compression = COMPRESSION_KINDS[kind].from_container(meta, arrays)
    ekind, est_meta, earrays = load_container(os.path.join(outdir, ESTIMATOR_FILE))
    if ekind != "estimator":
        raise ShapeError(f"{outdir}: expected an estimator container, got {ekind}")
    estimator = EstimatorModel.from_container(est_meta, earrays)
    nkind, nmeta, narrays = load_container(os.path.join(outdir, NORMALIZER_FILE))
    if nkind != "normalizer":
        raise ConfigError(f"{outdir}: unexpected container kind {nkind!r}")
    hashes = {meta.get("config_hash"), est_meta.get("config_hash"),
              nmeta.get("config_hash")}
    if len(hashes) != 1:
        raise ConfigError(
            f"{outdir}: artifacts carry mismatched config hashes {sorted(hashes)}"
        )
    normalizer = Normalizer.from_container(nmeta, narrays)
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
