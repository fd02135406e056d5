"""Config parsing, validation, defaults, and hashing."""

from dataclasses import fields

import numpy as np
import pytest

from cance.config import RunConfig, load_config
from cance.data import Dataset, Normalizer
from cance.errors import ConfigError
from cance.nn.serialize import load_container, save_container


class TestDefaults:
    def test_paper_settings_are_defaults(self):
        config = RunConfig()
        assert config.nce.nu == 8.0
        assert config.eval.val_fraction == 0.2
        assert config.eval.repeats == 5
        assert config.compress.latent_dim == 6
        assert config.nce.widths == (64, 64)
        assert config.compress.hidden == (128, 64)
        assert config.compress.lr == 1e-4
        assert config.nce.lr == 1e-4

    def test_default_config_validates(self):
        RunConfig().validate()


class TestParsing:
    def test_file_and_overrides(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(
            "[dataset]\nkind = synth\nname = demo\n"
            "[nce]\nepochs = 7\naugmentation = false\n"
        )
        config = load_config(path, ["nce.nu=4", "compress.latent_dim=3"])
        assert config.dataset.name == "demo"
        assert config.nce.epochs == 7
        assert config.nce.augmentation is False
        assert config.nce.nu == 4.0
        assert config.compress.latent_dim == 3

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[nce]\nbogus = 1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[mystery]\nx = 1\n")
        with pytest.raises(ConfigError, match="unknown config section"):
            load_config(path)

    def test_negative_lambda_rejected_before_compute(self):
        with pytest.raises(ConfigError, match="lam"):
            load_config(None, ["compress.lam=-1"])

    @pytest.mark.parametrize("override", [
        "nce.widths=0",
        "nce.widths=64, -1",
        "compress.hidden=64.5",
        "compress.hidden=0, 8",
        "nce.psi_lr=-1",
        "nce.weight_decay=-0.5",
        "compress.weight_decay=-1",
        "nce.batch_size=0",
        "compress.batch_size=0",
    ])
    def test_bad_stage_values_rejected(self, override):
        key = override.split("=")[0]
        with pytest.raises(ConfigError, match=key):
            load_config(None, [override])

    def test_empty_widths_allowed(self):
        config = load_config(None, ["nce.widths=", "compress.hidden="])
        assert config.nce.widths == ()
        assert config.compress.hidden == ()

    def test_bad_boolean_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, ["nce.augmentation=maybe"])

    def test_bad_override_format_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, ["nce.epochs"])
        with pytest.raises(ConfigError):
            load_config(None, ["epochs=3"])

    def test_tuple_values(self):
        config = load_config(None, ["nce.widths=32, 16", "compress.hidden=8"])
        assert config.nce.widths == (32, 16)
        assert config.compress.hidden == (8,)

    def test_invalid_benchmark_combinations(self):
        with pytest.raises(ConfigError, match="unimodal"):
            load_config(None, ["dataset.benchmark=unimodal"])
        with pytest.raises(ConfigError, match="kind"):
            load_config(None, ["dataset.kind=parquet"])


class TestHashing:
    def test_hash_stable_across_instances(self):
        assert RunConfig().hash() == RunConfig().hash()

    def test_hash_changes_with_values(self):
        a = load_config(None, ["nce.epochs=10"])
        b = load_config(None, ["nce.epochs=11"])
        assert a.hash() != b.hash()

    def test_canonical_round_trip(self, tmp_path):
        config = load_config(None, ["nce.epochs=9", "dataset.name=x"])
        path = tmp_path / "canon.ini"
        path.write_text(config.canonical())
        again = load_config(path)
        assert again.hash() == config.hash()
        assert again.canonical() == config.canonical()


class TestSchema:
    def test_ini_keys_are_pinned(self):
        expected = {
            "dataset": {
                "kind", "name", "synth", "path", "recipe", "label_column",
                "class_column", "train_images", "train_labels", "test_images",
                "test_labels", "benchmark", "normal_classes", "test_fraction",
                "normalization",
            },
            "compress": {
                "method", "latent_dim", "lam", "hidden", "epochs", "lr",
                "batch_size", "weight_decay", "checkpoint_on",
            },
            "nce": {
                "widths", "nu", "lr", "psi_lr", "weight_decay", "epochs",
                "batch_size", "augmentation", "adapt_noise", "warmup_frac",
                "validate_augmented", "score_noise",
            },
            "eval": {"repeats", "seed", "val_fraction", "contamination"},
            "output": {"dir"},
        }
        config = RunConfig()
        actual = {
            sec.name: {f.name for f in fields(getattr(config, sec.name))}
            for sec in fields(config)
        }
        assert actual == expected

    def test_normalizer_save_matches_container_layout(self, tmp_path):
        x = np.random.default_rng(0).standard_normal((20, 3))
        tag = {"config_hash": "0123456789abcdef", "seed": 4}
        fitted = Normalizer("zscore").fit(Dataset(x))
        fitted.save(tmp_path / "a.model", tag)
        save_container(
            tmp_path / "b.model", "normalizer", {"method": "zscore", **tag},
            {"shift": x.mean(axis=0), "scale": x.std(axis=0)},
        )
        saved = (tmp_path / "a.model").read_bytes()
        assert saved == (tmp_path / "b.model").read_bytes()
        _, meta, arrays = load_container(tmp_path / "a.model")
        loaded = Normalizer.from_container(meta, arrays)
        assert loaded.method == "zscore"
        expected = fitted.transform(Dataset(x)).features
        assert loaded.transform(Dataset(x)).features.tobytes() == expected.tobytes()
