"""Command-line interface: subcommands, exit codes, reproducibility."""

import csv
import hashlib
import json
import shutil

import numpy as np
import pytest

from cance import evaluation
from cance.cli import main, write_scores
from cance._rows import WRITE_BLOCK_LINES
from cance.data import Dataset, write_embeddings
from cance.errors import NonFiniteError, ShapeError
from cance.nce import EstimatorModel, NoiseModel
from cance.nn import Activation, DenseLayer, Network
from cance.nn.serialize import load_container, save_container
from cance.pipeline import COMPRESSION_FILE, ESTIMATOR_FILE, NORMALIZER_FILE, load_run
from cance.stats import GaussianModel

# shortest round-trip text switches to an exponent below 1e-4 and from
# 1e16 on; the neighbours of each switch, the float64 extremes and the
# non-finite values
EDGE_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 5e-324,
               1e16, 9999999999999998.0, 1e-5, 0.0001, 0.1]


TINY_INI = (
    "[dataset]\n"
    "kind = synth\n"
    "synth = ring(n=220, radius=1, noise=0.05) + box(n=60, low=-2, high=2)\n"
    "name = tiny\n"
    "[compress]\n"
    "method = pca\n"
    "latent_dim = 2\n"
    "[nce]\n"
    "widths = 16\n"
    "epochs = 4\n"
    "lr = 2e-3\n"
    "batch_size = 64\n"
    "[eval]\n"
    "repeats = 2\n"
    "seed = 0\n"
)


@pytest.fixture
def tiny_ini(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(TINY_INI)
    return path


@pytest.fixture(scope="module")
def ae_run(tmp_path_factory):
    """A trained autoencoder model directory and a CSV to score with it."""
    root = tmp_path_factory.mktemp("ae-run")
    ini = root / "run.ini"
    ini.write_text(TINY_INI)
    assert main(["train", "-c", str(ini), "-o", str(root / "model"),
                 "--set", "compress.method=ae", "--set", "compress.hidden=8",
                 "--set", "compress.epochs=2"]) == 0
    assert main(["synth", "--spec", "ring(n=20)", "--seed", "2",
                 "-o", str(root / "points.csv")]) == 0
    assert main(["score", "-m", str(root / "model"), "-i", str(root / "points.csv"),
                 "-o", str(root / "scores.csv")]) == 0
    return root


def file_hashes(outdir, names):
    return {
        name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
        for name in names
    }


def reference_write_scores(path, scores, z_e=None, z_c=None):
    """Cell-at-a-time csv.writer loop: the byte layout of `write_scores`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "z_e", "z_c", "score"])
        for i, s in enumerate(np.asarray(scores, dtype=np.float64)):
            row = [str(i)]
            row.append(repr(float(z_e[i])) if z_e is not None else "")
            row.append(repr(float(z_c[i])) if z_c is not None else "")
            row.append(repr(float(s)))
            writer.writerow(row)


class TestWriteScores:
    @pytest.mark.parametrize("with_e, with_c", [
        (True, True), (True, False), (False, True), (False, False),
    ])
    def test_matches_reference_writer(self, tmp_path, with_e, with_c):
        rng = np.random.default_rng(0)
        scores = np.concatenate([rng.standard_normal(50) * 1e3, EDGE_FLOATS])
        z = rng.standard_normal((scores.size, 2))
        z[: len(EDGE_FLOATS), 0] = EDGE_FLOATS[::-1]
        z_e = z[:, 0] if with_e else None
        z_c = z[:, 1] if with_c else None
        write_scores(tmp_path / "new.csv", scores, z_e=z_e, z_c=z_c)
        reference_write_scores(tmp_path / "ref.csv", scores, z_e=z_e, z_c=z_c)
        assert (tmp_path / "new.csv").read_bytes() == \
            (tmp_path / "ref.csv").read_bytes()

    def test_edge_floats_written_as_repr(self, tmp_path):
        write_scores(tmp_path / "s.csv", EDGE_FLOATS)
        rows = (tmp_path / "s.csv").read_text().splitlines()[1:]
        assert rows == [f"{i},,,{v!r}" for i, v in enumerate(EDGE_FLOATS)]

    # 16 blocks and more are formatted half in a child process, whose first
    # row is inside a block
    @pytest.mark.parametrize("rows", [
        blocks * WRITE_BLOCK_LINES + d for blocks in (1, 16) for d in (-1, 0, 1)
    ])
    def test_block_boundaries_match_reference_writer(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        scores, z_e = rng.standard_normal((2, rows)) * 1e3
        write_scores(tmp_path / "new.csv", scores, z_e=z_e)
        reference_write_scores(tmp_path / "ref.csv", scores, z_e=z_e)
        assert (tmp_path / "new.csv").read_bytes() == \
            (tmp_path / "ref.csv").read_bytes()

    def test_columns_of_unequal_length_rejected(self, tmp_path):
        with pytest.raises(ShapeError, match="equal length"):
            write_scores(tmp_path / "s.csv", np.zeros(3), z_c=np.zeros(4))

    def test_empty_scores_match_reference_writer(self, tmp_path):
        write_scores(tmp_path / "new.csv", np.empty(0))
        reference_write_scores(tmp_path / "ref.csv", np.empty(0))
        assert (tmp_path / "new.csv").read_bytes() == \
            (tmp_path / "ref.csv").read_bytes() == b"id,z_e,z_c,score\n"


class TestTrainAndScore:
    def test_train_writes_artifacts(self, tiny_ini, tmp_path, capsys):
        outdir = tmp_path / "run"
        assert main(["train", "-c", str(tiny_ini), "-o", str(outdir)]) == 0
        for name in (COMPRESSION_FILE, ESTIMATOR_FILE, "normalizer.model",
                     "config.ini", "train_report.json"):
            assert (outdir / name).exists(), name
        out = capsys.readouterr().out
        assert "nce best val" in out

    def test_train_prints_kept_losses_of_a_stage_without_epochs(
            self, tiny_ini, tmp_path, capsys):
        # one autoencoder epoch in all leaves stage 1 with none
        outdir = tmp_path / "run"
        assert main(["train", "-c", str(tiny_ini), "-o", str(outdir),
                     "--set", "compress.method=ae", "--set", "compress.hidden=8",
                     "--set", "compress.epochs=1"]) == 0
        history = json.loads((outdir / "train_report.json").read_text())["compression"]
        assert history["stage1_val"] == []
        kept = history["best_epoch"]["stage2"]
        stage2 = "-" if kept is None else f"{history['stage2_val'][kept]:.6g}"
        out = capsys.readouterr().out
        assert f"ae val loss      stage1 -  stage2 {stage2}\n" in out

    def test_train_rerun_identical_checksums(self, tiny_ini, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        main(["train", "-c", str(tiny_ini), "-o", str(out1)])
        main(["train", "-c", str(tiny_ini), "-o", str(out2)])
        names = (COMPRESSION_FILE, ESTIMATOR_FILE, "normalizer.model")
        assert file_hashes(out1, names) == file_hashes(out2, names)

    def test_invalid_lambda_fails_before_compute(self, tiny_ini, tmp_path):
        code = main([
            "train", "-c", str(tiny_ini), "-o", str(tmp_path / "x"),
            "--set", "compress.lam=-2",
        ])
        assert code == 1
        assert not (tmp_path / "x").exists()

    def test_score_round_trip(self, tiny_ini, tmp_path):
        outdir = tmp_path / "run"
        main(["train", "-c", str(tiny_ini), "-o", str(outdir)])
        data_csv = tmp_path / "points.csv"
        main(["synth", "--spec", "ring(n=50) + box(n=10, low=-2, high=2)",
              "--seed", "3", "-o", str(data_csv)])
        scores_csv = tmp_path / "scores.csv"
        assert main(["score", "-m", str(outdir), "-i", str(data_csv),
                     "-o", str(scores_csv)]) == 0
        lines = scores_csv.read_text().splitlines()
        assert lines[0] == "id,z_e,z_c,score"
        assert len(lines) == 61

    def test_score_repeat_identical_file(self, tiny_ini, tmp_path):
        outdir = tmp_path / "run"
        main(["train", "-c", str(tiny_ini), "-o", str(outdir)])
        data_csv = tmp_path / "points.csv"
        main(["synth", "--spec", "ring(n=30)", "--seed", "5",
              "-o", str(data_csv)])
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["score", "-m", str(outdir), "-i", str(data_csv), "-o", str(a)])
        main(["score", "-m", str(outdir), "-i", str(data_csv), "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_score_quoted_header_name_with_comma(self, tiny_ini, tmp_path):
        outdir = tmp_path / "run"
        main(["train", "-c", str(tiny_ini), "-o", str(outdir)])
        plain = tmp_path / "plain.csv"
        main(["synth", "--spec", "ring(n=30) + box(n=5, low=-2, high=2)",
              "--seed", "4", "-o", str(plain)])
        header, rest = plain.read_text().split("\n", 1)
        assert header.startswith("f0,")
        quoted = tmp_path / "quoted.csv"
        quoted.write_text('"f,0"' + header[2:] + "\n" + rest)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["score", "-m", str(outdir), "-i", str(plain),
                     "-o", str(a)]) == 0
        assert main(["score", "-m", str(outdir), "-i", str(quoted),
                     "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_score_empty_input_writes_header_only(self, tiny_ini, tmp_path):
        outdir = tmp_path / "run"
        main(["train", "-c", str(tiny_ini), "-o", str(outdir)])
        empty = tmp_path / "empty.csv"
        empty.write_text("f0,f1\n")
        scores_csv = tmp_path / "scores.csv"
        assert main(["score", "-m", str(outdir), "-i", str(empty),
                     "-o", str(scores_csv)]) == 0
        assert scores_csv.read_text() == "id,z_e,z_c,score\n"

    def test_score_rows_without_features_is_config_error(self, tiny_ini,
                                                         tmp_path, capsys):
        outdir = tmp_path / "run"
        main(["train", "-c", str(tiny_ini), "-o", str(outdir)])
        ids_only = tmp_path / "ids.csv"
        ids_only.write_text("label,class\n" + "0,1\n" * 50)
        assert main(["score", "-m", str(outdir), "-i", str(ids_only),
                     "-o", str(tmp_path / "s.csv")]) == 1
        assert "input has 0 features, model expects 2" in capsys.readouterr().err
        ids_only.write_text("label,class\n")
        assert main(["score", "-m", str(outdir), "-i", str(ids_only),
                     "-o", str(tmp_path / "s.csv")]) == 0
        assert (tmp_path / "s.csv").read_text() == "id,z_e,z_c,score\n"

    def test_score_truncated_embeddings_is_runtime_error(self, tiny_ini,
                                                         tmp_path, capsys):
        outdir = tmp_path / "run"
        main(["train", "-c", str(tiny_ini), "-o", str(outdir)])
        emb = tmp_path / "trunc.emb"
        write_embeddings(emb, Dataset(np.ones((3, 2))))
        emb.write_bytes(emb.read_bytes()[:12])
        assert main(["score", "-m", str(outdir), "-i", str(emb),
                     "-o", str(tmp_path / "s.csv")]) == 2
        assert "truncated" in capsys.readouterr().err

    def test_score_dim_mismatch_is_config_error(self, tiny_ini, tmp_path):
        outdir = tmp_path / "run"
        main(["train", "-c", str(tiny_ini), "-o", str(outdir)])
        bad = tmp_path / "bad.csv"
        bad.write_text("f0,f1,f2\n1,2,3\n")
        assert main(["score", "-m", str(outdir), "-i", str(bad),
                     "-o", str(tmp_path / "s.csv")]) == 1

    def test_mismatched_artifact_hashes_refused(self, tiny_ini, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        main(["train", "-c", str(tiny_ini), "-o", str(out1)])
        main(["train", "-c", str(tiny_ini), "-o", str(out2),
              "--set", "nce.epochs=5"])
        # swap the estimator between runs with different configs
        (out1 / ESTIMATOR_FILE).write_bytes((out2 / ESTIMATOR_FILE).read_bytes())
        data_csv = tmp_path / "points.csv"
        main(["synth", "--spec", "ring(n=20)", "--seed", "1",
              "-o", str(data_csv)])
        assert main(["score", "-m", str(out1), "-i", str(data_csv),
                     "-o", str(tmp_path / "s.csv")]) == 1



@pytest.fixture(scope="module")
def pca_run(tmp_path_factory):
    """A trained PCA model directory and a 10-row CSV to score with it."""
    root = tmp_path_factory.mktemp("pca-run")
    ini = root / "run.ini"
    ini.write_text(TINY_INI)
    assert main(["train", "-c", str(ini), "-o", str(root / "model")]) == 0
    assert main(["synth", "--spec", "ring(n=10)", "--seed", "6",
                 "-o", str(root / "points.csv")]) == 0
    return root


class TestBlockScoring:
    def score(self, run, points, out):
        return main(["score", "-m", str(run / "model"), "-i", str(points),
                     "-o", str(out)])

    def test_one_zero_norm_row_is_counted_once(self, pca_run, tmp_path, caplog):
        # the zero row is the first of its block, so padding copies it
        _, _, normalizer, _, _ = load_run(pca_run / "model")
        rows = [",".join(map(repr, normalizer._shift.tolist())) + ",0"]
        rows += pca_run.joinpath("points.csv").read_text().splitlines()[1:]
        points = tmp_path / "zero.csv"
        points.write_text("f0,f1,label\n" + "\n".join(rows[:-1]) + "\n")
        with caplog.at_level("WARNING", logger="cance.compress"):
            assert self.score(pca_run, points, tmp_path / "s.csv") == 0
        assert [r.getMessage().split(" with")[0] for r in caplog.records] == \
            ["1 row(s)"]

    def test_failure_in_a_block_exits_2_and_restores_blas(
            self, pca_run, tmp_path, monkeypatch, capsys):
        import cance.evaluation as evaluation_module

        state = {"threads": 4, "seen": [], "calls": 0}
        monkeypatch.setattr(evaluation_module, "_openblas_threads", lambda: (
            lambda: state["threads"], lambda n: state.update(threads=n)))
        monkeypatch.setattr(evaluation_module, "SCORE_BLOCK", 4)
        original = EstimatorModel.score

        def failing(self, z):
            state["seen"].append(state["threads"])
            if len(state["seen"]) == 2:
                raise NonFiniteError("synthetic score failure")
            return original(self, z)

        monkeypatch.setattr(EstimatorModel, "score", failing)
        out = tmp_path / "s.csv"
        assert self.score(pca_run, pca_run / "points.csv", out) == 2
        assert "synthetic score failure" in capsys.readouterr().err
        assert state["seen"] == [1, 1] and state["threads"] == 4
        assert not out.exists()

    def test_blas_summary_on_stderr_only(self, pca_run, tmp_path, capsys):
        blas = evaluation._openblas_threads()
        before = blas[0]() if blas else None
        out = tmp_path / "s.csv"
        assert self.score(pca_run, pca_run / "points.csv", out) == 0
        captured = capsys.readouterr()
        assert captured.out == f"10 rows scored -> {out}\n"
        summary, = captured.err.splitlines()
        assert summary.startswith("scoring on ")
        assert summary.endswith(f"; blocks of {evaluation.SCORE_BLOCK} rows")
        if blas:
            assert "OpenBLAS" in summary and "; 1 BLAS thread;" in summary
            assert blas[0]() == before

    def test_without_blas_symbol_nothing_is_pinned(self, pca_run, tmp_path,
                                                   monkeypatch, capsys):
        assert self.score(pca_run, pca_run / "points.csv", tmp_path / "a.csv") == 0
        monkeypatch.setattr(evaluation, "_openblas_threads", lambda: None)
        capsys.readouterr()
        assert self.score(pca_run, pca_run / "points.csv", tmp_path / "b.csv") == 0
        assert "; BLAS threads not pinned;" in capsys.readouterr().err
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

def replace_estimator(dim):
    """A change that swaps in a one-layer estimator over `dim` features."""
    def change(meta, arrays):
        net = Network([DenseLayer(np.zeros((1, dim)), np.zeros(1),
                                  Activation.IDENTITY)])
        noise = NoiseModel(GaussianModel(np.zeros(dim), np.eye(dim)), None, 8.0)
        _, new_meta, new_arrays = EstimatorModel(net, noise).to_container()
        meta.update(new_meta)
        arrays.clear()
        arrays.update(new_arrays)
    return change


# file, container kind written back, change to (meta, arrays)
DOCTORED_FILES = {
    "estimator-without-net": (
        ESTIMATOR_FILE, "estimator", lambda meta, arrays: meta.pop("net")),
    "estimator-without-has_psi": (
        ESTIMATOR_FILE, "estimator", lambda meta, arrays: meta.pop("has_psi")),
    "estimator-without-weights": (
        ESTIMATOR_FILE, "estimator",
        lambda meta, arrays: arrays.pop("net0.weights")),
    "compression-without-encoder": (
        COMPRESSION_FILE, "autoencoder", lambda meta, arrays: meta.pop("encoder")),
    "activation-gelu": (
        ESTIMATOR_FILE, "estimator",
        lambda meta, arrays: meta["net"][0].update(activation="gelu")),
    "activation-relu": (
        ESTIMATOR_FILE, "estimator",
        lambda meta, arrays: meta["net"][0].update(activation="relu")),
    "activation-sigmoid": (
        ESTIMATOR_FILE, "estimator",
        lambda meta, arrays: meta["net"][0].update(activation="sigmoid")),
    "normalizer-of-kind-pca": (
        NORMALIZER_FILE, "pca", lambda meta, arrays: None),
    "normalization-robust": (
        NORMALIZER_FILE, "normalizer",
        lambda meta, arrays: meta.update(method="robust")),
    "layer-type-conv": (
        COMPRESSION_FILE, "autoencoder",
        lambda meta, arrays: meta["encoder"][0].update(type="conv")),
    "score_noise-Adapted": (
        ESTIMATOR_FILE, "estimator",
        lambda meta, arrays: meta.update(score_noise="Adapted")),
    "noise-psi-of-5": (
        ESTIMATOR_FILE, "estimator",
        lambda meta, arrays: arrays.update({"noise.psi": np.zeros(5)})),
    "noise-cov-of-3": (
        ESTIMATOR_FILE, "estimator",
        lambda meta, arrays: arrays.update({"noise.cov": np.eye(3)})),
    "dense-spec-in-7": (
        ESTIMATOR_FILE, "estimator",
        lambda meta, arrays: meta["net"][0].update({"in": 7})),
    "normalizer-scale-of-3-columns": (
        NORMALIZER_FILE, "normalizer",
        lambda meta, arrays: arrays.update(scale=np.ones(3))),
    # each file below is well formed alone but does not chain with the
    # 2-column, 2-latent autoencoder beside it
    "normalizer-of-3-columns": (
        NORMALIZER_FILE, "normalizer",
        lambda meta, arrays: arrays.update(shift=np.zeros(3), scale=np.ones(3))),
    "estimator-of-3-features": (ESTIMATOR_FILE, "estimator", replace_estimator(3)),
}


@pytest.mark.parametrize("case", DOCTORED_FILES)
def test_score_doctored_model_file_is_runtime_error(ae_run, tmp_path, capsys,
                                                    case):
    name, kind, change = DOCTORED_FILES[case]
    model_dir = tmp_path / "model"
    shutil.copytree(ae_run / "model", model_dir)
    _, meta, arrays = load_container(model_dir / name)
    change(meta, arrays)
    save_container(model_dir / name, kind, meta, arrays)
    capsys.readouterr()
    assert main(["score", "-m", str(model_dir), "-i", str(ae_run / "points.csv"),
                 "-o", str(tmp_path / "s.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err
    assert "Traceback" not in err


class TestEvalAndAblate:
    def test_eval_writes_report_and_per_run_scores(self, tiny_ini, tmp_path,
                                                   capsys):
        outdir = tmp_path / "eval"
        assert main(["eval", "-c", str(tiny_ini), "-o", str(outdir)]) == 0
        report = json.loads((outdir / "report.json").read_text())
        assert report["seeds"] == [0, 1]
        assert len(report["per_run"]) == 2
        recomputed = np.mean([r["metrics"]["auroc"] for r in report["per_run"]])
        assert report["mean"]["auroc"] == pytest.approx(recomputed)
        for seed in (0, 1):
            assert (outdir / f"scores-seed{seed}.csv").exists()
        assert "auroc" in capsys.readouterr().out

    def test_ablation_emits_four_rows(self, tiny_ini, tmp_path, capsys):
        outdir = tmp_path / "ablate"
        assert main(["ablate", "-c", str(tiny_ini), "-o", str(outdir),
                     "--set", "eval.repeats=1"]) == 0
        summary = json.loads((outdir / "ablation.json").read_text())
        assert sorted(summary) == ["CANCE", "CNCE", "Error", "LatNCE"]
        out = capsys.readouterr().out
        assert out.count("auroc") == 4


def run_with_workers(monkeypatch, workers, argv, outdir):
    """Run a CLI command on `workers` jobs at once; {file name: bytes}."""
    import cance.evaluation as evaluation_module

    monkeypatch.setattr(evaluation_module, "_usable_cpus", lambda: workers)
    assert main([*argv, "-o", str(outdir)]) == 0
    return {path.name: path.read_bytes() for path in sorted(outdir.iterdir())}


class TestWorkerCount:
    def test_eval_output_independent_of_workers(self, tiny_ini, tmp_path,
                                                monkeypatch):
        argv = ["eval", "-c", str(tiny_ini)]
        serial = run_with_workers(monkeypatch, 1, argv, tmp_path / "one")
        pooled = run_with_workers(monkeypatch, 2, argv, tmp_path / "two")
        assert sorted(serial) == ["report.json", "scores-seed0.csv",
                                  "scores-seed1.csv"]
        assert serial == pooled

    def test_ablation_output_independent_of_workers(self, tiny_ini, tmp_path,
                                                    monkeypatch):
        argv = ["ablate", "-c", str(tiny_ini), "--set", "eval.repeats=2"]
        serial = run_with_workers(monkeypatch, 1, argv, tmp_path / "one")
        pooled = run_with_workers(monkeypatch, 2, argv, tmp_path / "two")
        assert sorted(serial) == ["ablation.json"]
        assert serial == pooled


class TestEvalFailures:
    def test_programming_error_propagates(self, tiny_ini, tmp_path,
                                          monkeypatch):
        import cance.evaluation as evaluation_module

        blas = evaluation_module._openblas_threads()
        before = blas[0]() if blas else None
        original = evaluation_module.run_pipeline

        def buggy(config, seed):
            if seed == 1:
                raise TypeError("synthetic bug")
            return original(config, seed)

        monkeypatch.setattr(evaluation_module, "run_pipeline", buggy)
        monkeypatch.setattr(evaluation_module, "_usable_cpus", lambda: 2)
        with pytest.raises(TypeError, match="synthetic bug"):
            main(["eval", "-c", str(tiny_ini), "-o", str(tmp_path / "eval")])
        assert not (tmp_path / "eval" / "report.json").exists()
        if blas:
            assert blas[0]() == before

    def test_package_error_gives_partial_exit(self, tiny_ini, tmp_path,
                                              monkeypatch):
        import cance.evaluation as evaluation_module

        original = evaluation_module.run_pipeline

        def failing(config, seed):
            if seed == 1:
                raise NonFiniteError("synthetic divergence")
            return original(config, seed)

        monkeypatch.setattr(evaluation_module, "run_pipeline", failing)
        outdir = tmp_path / "eval"
        assert main(["eval", "-c", str(tiny_ini), "-o", str(outdir)]) == 3
        report = json.loads((outdir / "report.json").read_text())
        assert report["partial"]
        assert report["per_run"][1]["error"] == "synthetic divergence"
        assert not (outdir / "scores-seed1.csv").exists()

    def test_no_anomalies_is_config_error(self, tiny_ini, tmp_path, capsys):
        code = main(["eval", "-c", str(tiny_ini), "-o", str(tmp_path / "eval"),
                     "--set", "dataset.synth=ring(n=220, radius=1, noise=0.05)"])
        assert code == 1
        assert "AUROC needs both classes" in capsys.readouterr().err


class TestSynthAndInspect:
    def test_synth_deterministic(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["synth", "--spec", "ring(n=40)", "--seed", "9", "-o", str(a)])
        main(["synth", "--spec", "ring(n=40)", "--seed", "9", "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_synth_bad_count_is_config_error(self, tmp_path, capsys):
        assert main(["synth", "--spec", "ring(n=2.5)", "-o",
                     str(tmp_path / "x.csv")]) == 1
        assert "ring argument 'n'" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_synth_unknown_kind_fails(self, tmp_path, capsys):
        code = main(["synth", "--spec", "wat(n=1)", "--seed", "0",
                     "-o", str(tmp_path / "x.csv")])
        assert code == 1

    def test_inspect_prints_diagnostics(self, tiny_ini, tmp_path, capsys):
        outdir = tmp_path / "run"
        main(["train", "-c", str(tiny_ini), "-o", str(outdir)])
        capsys.readouterr()
        assert main(["inspect", "-m", str(outdir)]) == 0
        out = capsys.readouterr().out
        assert "K diagonal" in out
        assert "noise mean" in out
        assert "config hash" in out
        assert "mode estimates" in out

    def test_inspect_leaves_print_options_unchanged(self, ae_run):
        # options unlike inspect's own, whatever an earlier caller left set
        with np.printoptions(precision=6, suppress=False):
            before = np.get_printoptions()
            assert main(["inspect", "-m", str(ae_run / "model")]) == 0
            assert np.get_printoptions() == before

    def test_output_root_env_var(self, tiny_ini, tmp_path, monkeypatch):
        monkeypatch.setenv("CANCE_OUTPUT_ROOT", str(tmp_path / "root"))
        monkeypatch.chdir(tmp_path)
        assert main(["train", "-c", str(tiny_ini)]) == 0
        runs = list((tmp_path / "root").iterdir())
        assert len(runs) == 1
        assert runs[0].name.startswith("tiny-")


def test_console_entry_point():
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, "-m", "cance.cli", "--help"],
        capture_output=True, text=True, check=False,
    )
    assert result.returncode == 0
    assert "train" in result.stdout


def test_train_deterministic_across_processes(tmp_path):
    import subprocess
    import sys

    ini = tmp_path / "run.ini"
    ini.write_text(
        "[dataset]\nkind = synth\nsynth = ring(n=150) + box(n=40, low=-2, high=2)\n"
        "[compress]\nmethod = pca\nlatent_dim = 2\n"
        "[nce]\nwidths = 16\nepochs = 3\nbatch_size = 64\n"
    )
    digests = []
    for sub in ("a", "b"):
        outdir = tmp_path / sub
        result = subprocess.run(
            [sys.executable, "-m", "cance.cli", "train", "-c", str(ini),
             "-o", str(outdir)],
            capture_output=True, text=True, check=False,
        )
        assert result.returncode == 0, result.stderr
        digests.append(file_hashes(
            outdir, (COMPRESSION_FILE, ESTIMATOR_FILE, "normalizer.model")
        ))
    assert digests[0] == digests[1]


def test_scored_anomaly_quantiles_exceed_normal(tmp_path):
    """End to end through the CLI: box anomalies outscore ring normals."""
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[dataset]\nkind = synth\n"
        "synth = ring(n=800, radius=1, noise=0.05) + box(n=200, low=-2.5, high=2.5)\n"
        "[compress]\nmethod = ae\nlatent_dim = 2\nhidden = 32, 16\n"
        "epochs = 20\nlr = 2e-3\nlam = 0.1\n"
        "[nce]\nepochs = 30\nlr = 2e-3\nbatch_size = 128\n"
    )
    outdir = tmp_path / "run"
    assert main(["train", "-c", str(ini), "-o", str(outdir)]) == 0
    ring_csv = tmp_path / "ring.csv"
    box_csv = tmp_path / "box.csv"
    main(["synth", "--spec", "ring(n=300, radius=1, noise=0.05)",
          "--seed", "11", "-o", str(ring_csv)])
    main(["synth", "--spec", "ring(n=1) + box(n=300, low=-2.5, high=2.5)",
          "--seed", "12", "-o", str(box_csv)])

    def scores_of(data_csv, name):
        out = tmp_path / f"{name}.scores.csv"
        assert main(["score", "-m", str(outdir), "-i", str(data_csv),
                     "-o", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        return np.array([float(r.split(",")[-1]) for r in rows])

    ring_scores = scores_of(ring_csv, "ring")
    box_scores = scores_of(box_csv, "box")[1:]  # drop the lone ring row
    for q in (0.25, 0.5, 0.75):
        assert np.quantile(box_scores, q) > np.quantile(ring_scores, q)
