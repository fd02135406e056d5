"""The benchmark's three workloads.

Each workload turns the workload seed into program inputs (synth spec
strings, pipeline seeds, files written with the program's own writer) and
exposes one operation that a user would run:

- ``ring-train``: ``run_pipeline`` on the acceptance ring config, one seed
  per operation. Trains the autoencoder (with batch norm) and the NCE
  estimator; the paper's headline path.
- ``offplane-ablate``: one ``run_ablation`` seed per operation on the
  criterion-7 offplane/PCA config. Fits PCA instead of the autoencoder and
  trains three estimators per seed.
- ``score-csv``: ``cance score`` on a 250k-row CSV, called in-process
  through ``cance.cli.main``. The read path: parse, eval-mode forwards,
  write.

An operation is timed by the caller. ``digest`` fingerprints its output,
so that a rerun of the same input must reproduce it bit for bit, and
``validate`` applies the per-operation correctness bar.
"""

import hashlib
import json
import os
from dataclasses import dataclass

import numpy as np

import cance.cli
import cance.data
import cance.evaluation
import cance.pipeline
from cance.config import load_config
from cance.evaluation import ScoredSet
from cance.rng import RunRng

# criterion 6: test AUROC of one ring seed; criterion 7: CNCE - LatNCE gap
RING_MIN_AUROC = 0.95
ABLATION_MIN_GAP = 0.05


@dataclass(frozen=True)
class Size:
    ring_normal: int
    ring_anomalies: int
    ae_epochs: int
    ring_nce_epochs: int
    offplane_normal: int
    offplane_anomalies: int
    offplane_nce_epochs: int
    score_normal: int
    score_anomalies: int


SIZES = {
    # the acceptance configs (tests/test_acceptance.py criteria 6 and 7)
    "full": Size(2000, 500, 40, 80, 2000, 400, 60, 200_000, 50_000),
    # same code paths with tiny epochs and row counts, for the harness test
    "smoke": Size(400, 100, 4, 6, 400, 80, 6, 1_600, 400),
}


def ring_spec(normal: int, anomalies: int) -> str:
    return (f"ring(n={normal}, radius=1, noise=0.05) + "
            f"box(n={anomalies}, low=-2.5, high=2.5)")


def ring_overrides(size: Size, ae_epochs=None, nce_epochs=None) -> list:
    return [
        "dataset.kind=synth",
        f"dataset.synth={ring_spec(size.ring_normal, size.ring_anomalies)}",
        "dataset.name=ring-acceptance",
        "compress.method=ae",
        "compress.latent_dim=2",
        "compress.hidden=64, 32",
        f"compress.epochs={ae_epochs or size.ae_epochs}",
        "compress.lr=2e-3",
        "compress.lam=0.1",
        f"nce.epochs={nce_epochs or size.ring_nce_epochs}",
        "nce.lr=2e-3",
        "nce.batch_size=256",
        "eval.repeats=5",
        "eval.seed=0",
    ]


def offplane_overrides(size: Size, seed: int, nce_epochs=None) -> list:
    return [
        "dataset.kind=synth",
        f"dataset.synth=offplane(n={size.offplane_normal}, "
        f"anomalies={size.offplane_anomalies}, dim=8, latent=2, "
        "noise=0.02, offset=1.0)",
        "dataset.name=offplane-acceptance",
        "compress.method=pca",
        "compress.latent_dim=2",
        f"nce.epochs={nce_epochs or size.offplane_nce_epochs}",
        "nce.lr=2e-3",
        "nce.batch_size=256",
        "eval.repeats=1",
        f"eval.seed={seed}",
    ]


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# spans every training workload must record in the traced run
TRAINING_SPANS = (
    "nn.dense.forward", "nn.dense.backward", "nn.adamw.step",
    "nce.classifier_step", "nce.psi_step", "nce.augment_batch",
    "nce.validation", "nce.train_estimator", "nce.score",
    "stats.gaussian.sample", "stats.truncnorm.sample", "stats.gaussian.logpdf",
    "compress.composite", "data.synth_generate", "data.normalizer.transform",
    "evaluation.auroc",
)


class RingTrain:
    """One ``run_pipeline`` call plus its test AUROC per operation."""

    name = "ring-train"
    spans = TRAINING_SPANS + (
        "nn.batchnorm.forward", "nn.batchnorm.backward",
        "compress.train_autoencoder", "pipeline.run_pipeline",
    )

    def __init__(self, seed: int, size: Size, workdir):
        self.size = size
        # one pass: three pipeline seeds; AUROC is their mean
        self.keys = tuple(seed * 100 + i for i in range(3))
        self.rows = size.ring_normal + size.ring_anomalies

    def prepare(self):
        self.config = load_config(None, ring_overrides(self.size))
        warmup = load_config(None, ring_overrides(self.size, 1, 1))
        cance.pipeline.run_pipeline(warmup, self.keys[0])

    def make_inputs(self):
        pass  # run_pipeline generates the data from the spec and seed

    def fingerprint(self):
        return self.config.hash()

    def op(self, key):
        art = cance.pipeline.run_pipeline(self.config, key)
        auc = cance.evaluation.auroc(ScoredSet(art.test_scores, art.test.labels))
        return art.test_scores, auc

    def digest(self, out) -> str:
        return hashlib.sha256(np.ascontiguousarray(out[0]).tobytes()).hexdigest()

    def validate(self, key, out):
        scores, auc = out
        problems = []
        if not np.all(np.isfinite(scores)):
            problems.append("non-finite test score")
        if not auc >= RING_MIN_AUROC:
            problems.append(f"test AUROC {auc:.4f} < {RING_MIN_AUROC}")
        return auc, problems


class OffplaneAblate:
    """One ``run_ablation`` seed (Error, LatNCE, CNCE, CANCE) per operation."""

    name = "offplane-ablate"
    spans = TRAINING_SPANS + ("compress.fit_pca", "evaluation.run_ablation")

    def __init__(self, seed: int, size: Size, workdir):
        self.size = size
        self.keys = tuple(seed * 100 + i for i in range(2))
        self.rows = size.offplane_normal + size.offplane_anomalies

    def prepare(self):
        self.configs = {
            key: load_config(None, offplane_overrides(self.size, key))
            for key in self.keys
        }
        warmup = load_config(None, offplane_overrides(self.size, self.keys[0], 1))
        cance.evaluation.run_ablation(warmup, 1)

    def make_inputs(self):
        pass  # run_ablation generates the data from the spec and seed

    def fingerprint(self):
        return tuple(cfg.hash() for cfg in self.configs.values())

    def op(self, key):
        return cance.evaluation.run_ablation(self.configs[key], 1)

    def digest(self, out) -> str:
        # the content of `cance ablate`'s ablation.json
        summary = {variant: report.summary() for variant, report in out.items()}
        text = json.dumps(summary, sort_keys=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def validate(self, key, out):
        problems = [
            f"{variant}: {record.error}"
            for variant, report in out.items()
            for record in report.records if record.error
        ]
        lat = out["LatNCE"].mean("auroc")
        cnce = out["CNCE"].mean("auroc")
        if not cnce - lat >= ABLATION_MIN_GAP:
            problems.append(
                f"CNCE - LatNCE AUROC gap {cnce - lat:.4f} < {ABLATION_MIN_GAP}"
            )
        return out["CANCE"].mean("auroc"), problems


class ScoreCsv:
    """One ``cance score`` call on the generated CSV per operation."""

    name = "score-csv"
    spans = (
        "nn.dense.forward", "nn.batchnorm.forward", "nce.score",
        "stats.gaussian.logpdf", "compress.composite", "data.load_csv",
        "data.synth_generate", "data.write_csv", "data.normalizer.transform",
        "cli.write_scores", "pipeline.load_run",
    )

    def __init__(self, seed: int, size: Size, workdir):
        self.size = size
        self.seed = seed
        # every call scores the same file; the second must match the first
        self.keys = ("input", "input")
        self.rows = size.score_normal + size.score_anomalies
        self.model_dir = os.path.join(workdir, "model")
        self.input_path = os.path.join(workdir, "input.csv")
        self.output_path = os.path.join(workdir, "scores.csv")

    def prepare(self):
        config = load_config(None, ring_overrides(self.size))
        artifacts = cance.pipeline.run_pipeline(config, self.seed)
        cance.pipeline.save_run(self.model_dir, config, artifacts)

    def make_inputs(self):
        spec = ring_spec(self.size.score_normal, self.size.score_anomalies)
        dataset = cance.data.synth_generate(spec, RunRng(self.seed).stream("score-input"))
        cance.data.write_csv(self.input_path, dataset)
        self.labels = dataset.labels

    def fingerprint(self):
        model = sorted(
            (name, sha256_file(os.path.join(self.model_dir, name)))
            for name in os.listdir(self.model_dir)
        )
        return tuple(model), sha256_file(self.input_path)

    def op(self, key):
        code = cance.cli.main([
            "score", "-m", self.model_dir, "-i", self.input_path,
            "-o", self.output_path,
        ])
        if code != 0:
            raise RuntimeError(f"cance score exited with {code}")
        return code

    def digest(self, out) -> str:
        return sha256_file(self.output_path)

    def validate(self, key, out):
        scores = np.loadtxt(self.output_path, delimiter=",", skiprows=1,
                            usecols=3, ndmin=1)
        problems = []
        if scores.size != self.labels.size:
            problems.append(f"{scores.size} scores for {self.labels.size} rows")
            return 0.0, problems
        if not np.all(np.isfinite(scores)):
            problems.append("non-finite score")
        return cance.evaluation.auroc(ScoredSet(scores, self.labels)), problems


WORKLOADS = {cls.name: cls for cls in (RingTrain, OffplaneAblate, ScoreCsv)}
