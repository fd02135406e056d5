"""End-to-end pipeline integration over every dataset kind."""

import json
import struct

import numpy as np
import pytest

from cance import machine
from cance.cli import main
from cance.config import load_config
from cance.data import load_benchmark
from cance.errors import ConfigError
from cance.evaluation import run_experiment, run_unimodal_sweep
from cance.pipeline import run_pipeline
from cance.rng import RunRng


def fast_nce_overrides():
    return [
        "compress.method=pca",
        "compress.latent_dim=2",
        "nce.widths=16",
        "nce.epochs=5",
        "nce.lr=2e-3",
        "nce.batch_size=64",
        "eval.repeats=1",
    ]


def write_idx_classes(tmp_path, prefix, per_class=40, classes=3, side=4,
                      seed=0):
    """Tiny image-like IDX pair: each class is a distinct bright corner."""
    rng = np.random.default_rng(seed)
    n = per_class * classes
    images = np.zeros((n, side, side), dtype=np.uint8)
    labels = np.repeat(np.arange(classes), per_class).astype(np.uint8)
    for i, cls in enumerate(labels):
        base = rng.integers(0, 40, size=(side, side))
        base[cls % side, cls % side] = 220 + rng.integers(0, 30)
        images[i] = base
    order = rng.permutation(n)
    images, labels = images[order], labels[order]
    images_path = tmp_path / f"{prefix}-images"
    labels_path = tmp_path / f"{prefix}-labels"
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, n, side, side))
        fh.write(images.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, n))
        fh.write(labels.tobytes())
    return images_path, labels_path


class TestIdxPipeline:
    def test_unimodal_idx_end_to_end(self, tmp_path):
        tr_img, tr_lab = write_idx_classes(tmp_path, "train", seed=0)
        te_img, te_lab = write_idx_classes(tmp_path, "test", per_class=20,
                                           seed=1)
        config = load_config(None, [
            "dataset.kind=idx",
            f"dataset.train_images={tr_img}",
            f"dataset.train_labels={tr_lab}",
            f"dataset.test_images={te_img}",
            f"dataset.test_labels={te_lab}",
            "dataset.benchmark=unimodal",
            "dataset.normal_classes=0",
            "dataset.name=toy-idx",
            *fast_nce_overrides(),
        ])
        methods = []
        report = run_experiment(config, repeats=1, on_run=lambda seed, artifacts:
                                methods.append(artifacts.normalizer.method))
        assert methods == ["minmax"]  # idx images are min-max scaled
        assert not report.partial
        assert 0.0 <= report.mean("auroc") <= 1.0

    def test_idx_train_rows_are_normal_class_only(self, tmp_path):
        tr_img, tr_lab = write_idx_classes(tmp_path, "train", seed=2)
        te_img, te_lab = write_idx_classes(tmp_path, "test", per_class=10,
                                           seed=3)
        config = load_config(None, [
            "dataset.kind=idx",
            f"dataset.train_images={tr_img}",
            f"dataset.train_labels={tr_lab}",
            f"dataset.test_images={te_img}",
            f"dataset.test_labels={te_lab}",
            "dataset.benchmark=unimodal",
            "dataset.normal_classes=1",
        ])
        train, test = load_benchmark(config.dataset, RunRng(0))
        assert np.all(train.class_ids == 1)
        np.testing.assert_array_equal(test.labels, (test.class_ids != 1))


class TestRecipePipeline:
    def test_recipe_benchmark_end_to_end(self, tmp_path):
        # abalone-shaped raw file whose anomalies are far from the normals
        rng = np.random.default_rng(4)
        rows = []
        for _ in range(300):
            sex = rng.choice(["M", "F", "I"])
            feats = rng.normal(0.5, 0.05, 7)
            rings = rng.choice([8, 9, 10])
            rows.append(f"{sex}," + ",".join(f"{v:.4f}" for v in feats) +
                        f",{rings}")
        for _ in range(25):
            sex = rng.choice(["M", "F", "I"])
            feats = rng.normal(1.5, 0.05, 7)
            rings = rng.choice([3, 21])
            rows.append(f"{sex}," + ",".join(f"{v:.4f}" for v in feats) +
                        f",{rings}")
        raw = tmp_path / "abalone.data"
        raw.write_text("\n".join(rows) + "\n")
        from pathlib import Path

        recipe = Path(__file__).parent.parent / "recipes" / "abalone.ini"
        config = load_config(None, [
            "dataset.kind=recipe",
            f"dataset.path={raw}",
            f"dataset.recipe={recipe}",
            "dataset.name=toy-recipe",
            *fast_nce_overrides(),
        ])
        report = run_experiment(config, repeats=2)
        assert not report.partial
        # cleanly separated anomalies should be caught easily
        assert report.mean("f1") > 0.9
        assert report.mean("auroc") > 0.95


class TestUnimodalSweep:
    @pytest.fixture
    def class_csv(self, tmp_path):
        rng = np.random.default_rng(5)
        lines = ["a,b,cls"]
        for cls, center in ((0, -2.0), (1, 2.0)):
            for _ in range(80):
                x, y = rng.normal(center, 0.3, 2)
                lines.append(f"{x},{y},{cls}")
        path = tmp_path / "classes.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    def sweep_config(self, path):
        return load_config(None, [
            "dataset.kind=csv",
            f"dataset.path={path}",
            "dataset.class_column=cls",
            "dataset.benchmark=unimodal",
            "dataset.normal_classes=0, 1",
            "dataset.name=toy-2class",
            *fast_nce_overrides(),
        ])

    def sweep_overrides(self, path, repeats):
        pairs = [
            "dataset.kind=csv",
            f"dataset.path={path}",
            "dataset.class_column=cls",
            "dataset.benchmark=unimodal",
            "dataset.normal_classes=0, 1",
            "dataset.name=toy-2class",
            "compress.method=pca",
            "compress.latent_dim=2",
            "nce.widths=16",
            "nce.epochs=4",
            "nce.batch_size=64",
            f"eval.repeats={repeats}",
        ]
        return [arg for pair in pairs for arg in ("--set", pair)]

    def test_sweep_reports_every_class(self, class_csv):
        reports = run_unimodal_sweep(self.sweep_config(class_csv), repeats=1)
        assert sorted(reports) == [0, 1]
        for cls, report in reports.items():
            assert not report.partial, cls
            # well-separated blobs: either class is easy to tell apart
            assert report.mean("auroc") > 0.9

    def test_sweep_of_another_benchmark_names_the_key(self, class_csv):
        config = self.sweep_config(class_csv)
        config.dataset.benchmark = "multimodal"
        with pytest.raises(ConfigError, match=r"^dataset\.benchmark=multimodal: "
                                              "the sweep runs only unimodal"):
            run_unimodal_sweep(config, repeats=1)

    def test_single_run_rejects_multiple_unimodal_classes(self, class_csv):
        with pytest.raises(ConfigError, match="sweep"):
            run_pipeline(self.sweep_config(class_csv), 0)

    def test_cmd_eval_writes_per_class_report(self, class_csv, tmp_path,
                                              capsys):
        outdir = tmp_path / "sweep"
        code = main(["eval", "-o", str(outdir),
                     *self.sweep_overrides(class_csv, repeats=1)])
        assert code == 0
        report = json.loads((outdir / "report.json").read_text())
        assert sorted(report) == ["0", "1"]
        for cls in ("0", "1"):
            assert "auroc" in report[cls]["mean"]
        out = capsys.readouterr().out
        assert "average auroc over classes" in out
        assert (outdir / "scores-class0-seed0.csv").exists()
        assert (outdir / "scores-class1-seed0.csv").exists()


    def test_cmd_eval_output_independent_of_workers(self, class_csv, tmp_path,
                                                    monkeypatch):
        files = {}
        for workers in (1, 2):
            monkeypatch.setattr(machine, "usable_cpus", lambda: workers)
            outdir = tmp_path / f"sweep-{workers}"
            assert main(["eval", "-o", str(outdir),
                         *self.sweep_overrides(class_csv, repeats=2)]) == 0
            files[workers] = {path.name: path.read_bytes()
                              for path in sorted(outdir.iterdir())}
        assert sorted(files[1]) == [
            "report.json", "scores-class0-seed0.csv", "scores-class0-seed1.csv",
            "scores-class1-seed0.csv", "scores-class1-seed1.csv",
        ]
        assert files[1] == files[2]


class TestImageScaleConfig:
    def test_image_config_shape_end_to_end(self, tmp_path):
        # the digit-benchmark configuration (batch-norm latent head, wide
        # hidden layers, min-max pixels) exercised on small synthetic images
        tr_img, tr_lab = write_idx_classes(tmp_path, "train", per_class=200,
                                           classes=3, side=12, seed=6)
        te_img, te_lab = write_idx_classes(tmp_path, "test", per_class=50,
                                           classes=3, side=12, seed=7)
        config = load_config(None, [
            "dataset.kind=idx",
            f"dataset.train_images={tr_img}",
            f"dataset.train_labels={tr_lab}",
            f"dataset.test_images={te_img}",
            f"dataset.test_labels={te_lab}",
            "dataset.benchmark=unimodal",
            "dataset.normal_classes=1",
            "dataset.name=toy-digits",
            "compress.method=ae",
            "compress.latent_dim=6",
            "compress.hidden=128, 64",
            "compress.epochs=10",
            "compress.lr=1e-3",
            "compress.lam=0.3",
            "compress.batch_size=128",
            "nce.epochs=10",
            "nce.lr=1e-3",
            "nce.batch_size=128",
            "eval.repeats=1",
        ])
        report = run_experiment(config, repeats=1)
        assert not report.partial
        # the bright-corner classes are nearly separable by reconstruction
        assert report.mean("auroc") > 0.8
