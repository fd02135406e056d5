"""Config parsing, validation, defaults, and hashing."""

from dataclasses import fields

import numpy as np
import pytest

from cance.cli import main
from cance.compress import AeConfig, AutoencoderModel, fit_pca
from cance.config import RunConfig, load_config
from cance.data import (
    DATASET_KINDS,
    Dataset,
    DatasetConfig,
    Normalizer,
    write_csv,
    write_embeddings,
)
from cance.errors import ConfigError
from cance.nce import EstimatorModel, NoiseModel
from cance.nn.layers import mlp
from cance.nn.serialize import save_container
from cance.pipeline import load_model, save_model


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

    def test_unknown_empty_section_rejected(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text("[outptu]\n[nce]\nepochs=3\n")
        with pytest.raises(ConfigError, match=r"unknown config section \[outptu\]"):
            load_config(path)
        assert main(["train", "-c", str(path), "-o", str(tmp_path / "out")]) == 1
        assert "[outptu]" in capsys.readouterr().err

    def test_empty_known_section_allowed(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[eval]\n[nce]\nepochs=3\n")
        assert load_config(path).nce.epochs == 3

    def test_negative_lambda_rejected_before_compute(self):
        with pytest.raises(ConfigError, match="lam"):
            load_config(None, ["compress.lam=-1"])

    @pytest.mark.parametrize("override", [
        "nce.widths=0",
        "nce.widths=64, -1",
        "compress.hidden=64.5",
        "compress.hidden=0, 8",
        "nce.batch_size=0",
        "compress.batch_size=0",
        "eval.seed=-1",
        "nce.nu=inf", "nce.nu=nan", "nce.nu=-inf", "nce.lr=nan", "nce.lr=inf",
        "compress.lr=nan", "compress.lr=inf", "compress.lam=nan", "compress.lam=inf",
    ])
    def test_bad_stage_values_rejected(self, override):
        key = override.split("=")[0]
        with pytest.raises(ConfigError, match=key):
            load_config(None, [override])

    # keys that only ever held one value, or one the data kind gives;
    # that value is now built in
    @pytest.mark.parametrize("override", [
        "nce.psi_lr=-1",
        "nce.weight_decay=-0.5",
        "compress.weight_decay=-1",
        "nce.score_noise=initial",
        "eval.contamination=0.1",
        "output.dir=runs",
        "dataset.normalization=zscore",
    ])
    def test_removed_key_is_unknown(self, tmp_path, capsys, override):
        dotted, value = override.split("=")
        section, key = dotted.split(".")
        path = tmp_path / "run.ini"
        path.write_text(f"[{section}]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=f"unknown key {dotted}"):
            load_config(path)
        capsys.readouterr()
        assert main(["train", "-o", str(tmp_path / "out"), "--set", override]) == 1
        assert f"unknown key {dotted}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("classes", ["1.5, 2", "2, 1.0"])
    def test_fractional_normal_class_rejected(self, tmp_path, classes):
        with pytest.raises(ConfigError, match="normal_classes"):
            load_config(None, ["dataset.kind=csv",
                               f"dataset.path={tmp_path / 'd.csv'}",
                               "dataset.class_column=class",
                               "dataset.benchmark=multimodal",
                               f"dataset.normal_classes={classes}"])

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


class TestBenchmarkModeMatchesKind:
    """A benchmark mode the dataset kind would ignore is refused up front."""

    def test_synth_refuses_a_class_split(self):
        with pytest.raises(ConfigError, match="synth"):
            load_config(None, ["dataset.synth=ring(n=200) + box(n=50)",
                               "dataset.benchmark=unimodal",
                               "dataset.normal_classes=0, 1"])
        with pytest.raises(ConfigError, match="synth"):
            load_config(None, ["dataset.benchmark=multimodal",
                               "dataset.normal_classes=0"])

    def test_recipe_refuses_a_class_split(self, tmp_path):
        with pytest.raises(ConfigError, match="recipe"):
            load_config(None, ["dataset.kind=recipe",
                               f"dataset.path={tmp_path / 'missing.data'}",
                               f"dataset.recipe={tmp_path / 'missing.ini'}",
                               "dataset.benchmark=unimodal",
                               "dataset.normal_classes=1"])

    def test_idx_refuses_the_labels_split_before_reading_files(self, tmp_path):
        paths = [f"dataset.{key}={tmp_path / key}" for key in
                 ("train_images", "train_labels", "test_images", "test_labels")]
        with pytest.raises(ConfigError, match="idx"):
            load_config(None, ["dataset.kind=idx", *paths])
        config = load_config(None, ["dataset.kind=idx", *paths,
                                    "dataset.benchmark=multimodal",
                                    "dataset.normal_classes=1"])
        assert config.dataset.benchmark == "multimodal"

    def test_eval_sweep_on_synth_data_is_a_config_error(self, tmp_path):
        from cance.cli import main

        code = main(["eval", "-o", str(tmp_path / "out"),
                     "--set", "dataset.synth=ring(n=200) + box(n=50)",
                     "--set", "dataset.benchmark=unimodal",
                     "--set", "dataset.normal_classes=0, 1"])
        assert code == 1
        assert not (tmp_path / "out").exists()


# the benchmark modes each dataset kind runs
KIND_MODES = {
    "synth": {"labels"},
    "recipe": {"labels"},
    "csv": {"labels", "unimodal", "multimodal"},
    "idx": {"unimodal", "multimodal"},
    "embeddings": {"unimodal", "multimodal"},
}
# a value for every key some kind or mode requires
REQUIRED_VALUES = {
    "path": "data.csv", "recipe": "recipe.ini", "label_column": "label",
    "class_column": "class", "train_images": "ti", "train_labels": "tl",
    "test_images": "vi", "test_labels": "vl", "normal_classes": (0,),
}


class TestDatasetKinds:
    """Each kind runs its own benchmark modes, given the keys they read."""

    @pytest.mark.parametrize("mode", ["labels", "unimodal", "multimodal"])
    @pytest.mark.parametrize("kind", sorted(KIND_MODES))
    def test_kind_runs_exactly_its_modes(self, kind, mode):
        config = DatasetConfig(kind=kind, benchmark=mode, **REQUIRED_VALUES)
        if mode in KIND_MODES[kind]:
            config.validate()
        else:
            with pytest.raises(ConfigError,
                               match=f"benchmark={mode} is not run on {kind}"):
                config.validate()

    @pytest.mark.parametrize("kind, mode, key", [
        (kind, mode, key)
        for kind, modes in DATASET_KINDS.items()
        for mode, keys in modes.items()
        for key in keys
    ])
    def test_missing_key_is_named(self, kind, mode, key):
        values = {**REQUIRED_VALUES, key: type(REQUIRED_VALUES[key])()}
        config = DatasetConfig(kind=kind, benchmark=mode, **values)
        with pytest.raises(ConfigError, match=f"dataset.{key} required for {kind}"):
            config.validate()

    def test_bad_synth_spec_is_named_before_any_job(self, tmp_path, capsys):
        from cance.cli import main

        with pytest.raises(ConfigError) as info:
            load_config(None, ["dataset.synth=box(n=5, radus=1)"])
        assert str(info.value) == ("dataset.synth: unknown box argument 'radus' "
                                   "in 'box(n=5, radus=1)'")
        assert main(["eval", "-o", str(tmp_path / "out"),
                     "--set", "dataset.synth=box(n=5, radus=1)"]) == 1
        assert "config error: dataset.synth: unknown box" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_csv_labels_split_needs_label_column(self):
        with pytest.raises(ConfigError, match="label_column"):
            load_config(None, ["dataset.kind=csv", "dataset.path=data.csv",
                               "dataset.class_column=class"])

    @pytest.mark.parametrize("mode", ["unimodal", "multimodal"])
    def test_csv_class_split_needs_class_column(self, mode):
        with pytest.raises(ConfigError, match="class_column"):
            load_config(None, ["dataset.kind=csv", "dataset.path=data.csv",
                               "dataset.label_column=label",
                               f"dataset.benchmark={mode}",
                               "dataset.normal_classes=0"])

    @pytest.mark.parametrize("overrides", [
        ["dataset.kind=embeddings", "dataset.path={emb}"],
        ["dataset.kind=csv", "dataset.path={csv}", "dataset.class_column=class"],
        ["dataset.kind=csv", "dataset.path={csv}", "dataset.label_column=label",
         "dataset.benchmark=multimodal", "dataset.normal_classes=0"],
    ], ids=["embeddings-labels", "csv-labels-no-label-column",
            "csv-multimodal-no-class-column"])
    def test_eval_on_an_unrunnable_pair_reads_no_file(self, tmp_path, overrides,
                                                      monkeypatch, capsys):
        import cance.data
        from cance.cli import main

        rng = np.random.default_rng(0)
        classes = np.repeat([0, 1], 40)
        data = Dataset(rng.standard_normal((80, 2)) + classes[:, None] * 4,
                       labels=classes, class_ids=classes)
        paths = {"emb": tmp_path / "data.emb", "csv": tmp_path / "data.csv"}
        write_embeddings(paths["emb"], data)
        write_csv(paths["csv"], data)
        for loader in ("load_csv", "load_embeddings"):
            monkeypatch.setattr(cance.data, loader,
                                lambda *a, **k: pytest.fail("a data file was read"))
        args = [arg for pair in overrides
                for arg in ("--set", pair.format(**paths))]
        assert main(["eval", "-o", str(tmp_path / "out"), *args]) == 1
        assert not (tmp_path / "out").exists()
        assert "config error: dataset." in capsys.readouterr().err


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
            },
            "compress": {
                "method", "latent_dim", "lam", "hidden", "epochs", "lr",
                "batch_size",
            },
            "nce": {
                "widths", "nu", "lr", "epochs", "batch_size", "augmentation",
                "adapt_noise", "warmup_frac",
            },
            "eval": {"repeats", "seed", "val_fraction"},
        }
        config = RunConfig()
        actual = {
            sec.name: {f.name for f in fields(getattr(config, sec.name))}
            for sec in fields(config)
        }
        assert actual == expected

    @pytest.mark.parametrize("kind", ["normalizer", "autoencoder", "pca",
                                      "estimator"])
    def test_save_model_matches_container_layout(self, tmp_path, kind):
        model, meta, arrays, apply = layout_case(kind)
        tag = {"config_hash": "0123456789abcdef", "seed": 4}
        save_model(tmp_path / "a.model", model, tag)
        save_container(tmp_path / "b.model", kind, {**meta, **tag}, arrays)
        saved = (tmp_path / "a.model").read_bytes()
        assert saved == (tmp_path / "b.model").read_bytes()
        loaded, loaded_meta = load_model(tmp_path / "a.model", kind)
        assert loaded_meta == {**meta, **tag}
        assert loaded.to_container()[:2] == (kind, meta)
        assert apply(loaded).tobytes() == apply(model).tobytes()


def layout_case(kind):
    """(model, meta, arrays, apply) with the file layout spelled out by hand."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((40, 4))
    if kind == "normalizer":
        model = Normalizer("zscore").fit(Dataset(x))
        return (model, {"method": "zscore"},
                {"shift": x.mean(axis=0), "scale": x.std(axis=0)},
                lambda m: m.transform(Dataset(x)).features)
    if kind == "pca":
        model = fit_pca(x, 2)
        return (model, {"input_dim": 4, "latent_dim": 2},
                {"mean": model.mean, "components": model.components},
                lambda m: m.composite(x))
    if kind == "autoencoder":
        model = AutoencoderModel.build(4, AeConfig(latent_dim=2, hidden=(3,)), rng)
        model.encoder.forward(x, train=True)  # non-default running stats
        enc, dec = model.encoder.layers, model.decoder.layers
        meta = {
            "input_dim": 4, "latent_dim": 2, "lambda": 0.1,
            "encoder": [
                {"type": "dense", "in": 4, "out": 3, "activation": "tanh"},
                {"type": "dense", "in": 3, "out": 2, "activation": "identity"},
                {"type": "batchnorm", "dim": 2, "momentum": 0.1, "epsilon": 1e-5},
            ],
            "decoder": [
                {"type": "dense", "in": 2, "out": 3, "activation": "tanh"},
                {"type": "dense", "in": 3, "out": 4, "activation": "identity"},
            ],
        }
        arrays = {
            "enc0.weights": enc[0].weights, "enc0.bias": enc[0].bias,
            "enc1.weights": enc[1].weights, "enc1.bias": enc[1].bias,
            "enc2.gamma": enc[2].gamma, "enc2.beta": enc[2].beta,
            "enc2.running_mean": enc[2].running_mean,
            "enc2.running_var": enc[2].running_var,
            "dec0.weights": dec[0].weights, "dec0.bias": dec[0].bias,
            "dec1.weights": dec[1].weights, "dec1.bias": dec[1].bias,
        }
        return model, meta, arrays, lambda m: m.composite(x)
    net = mlp([4, 3, 1], rng)
    noise = NoiseModel.from_data(x, 8.0, psi_init=0.3)
    model = EstimatorModel(net, noise)
    meta = {
        "net": [
            {"type": "dense", "in": 4, "out": 3, "activation": "tanh"},
            {"type": "dense", "in": 3, "out": 1, "activation": "identity"},
        ],
        "nu": 8.0, "has_psi": True,
    }
    arrays = {
        "noise.mean": noise.base.mean, "noise.cov": noise.base.cov,
        "noise.psi": noise.psi,
        "net0.weights": net.layers[0].weights, "net0.bias": net.layers[0].bias,
        "net1.weights": net.layers[1].weights, "net1.bias": net.layers[1].bias,
    }
    return model, meta, arrays, lambda m: m.score(x)
