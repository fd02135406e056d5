"""Command-line interface: subcommands, exit codes, reproducibility."""

import csv
import hashlib
import importlib.util
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cance.data as data_module
from cance import machine, pipeline
from cance.cli import main, write_scores
from cance._rows import WRITE_BLOCK_LINES
from cance.config import load_config
from cance.data import (
    Dataset,
    load_benchmark,
    load_csv,
    write_csv,
    write_embeddings,
)
from cance.errors import DataFormatError, NonFiniteError, ShapeError
from cance.nce import EstimatorModel, NceConfig, NoiseModel, train_estimator
from cance.nn.layers import Activation, DenseLayer, Network
from cance.nn.serialize import load_container, save_container
from cance.pipeline import (
    COMPRESSION_FILE,
    ESTIMATOR_FILE,
    NORMALIZER_FILE,
    SCORE_BLOCK,
    load_run,
    save_model,
)
from cance.rng import RunRng
from cance.stats import GaussianModel

ROOT = Path(__file__).resolve().parent.parent

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
        a = tmp_path / "a.csv"
        assert main(["score", "-m", str(outdir), "-i", str(plain),
                     "-o", str(a)]) == 0
        # a quoted name may hold a comma or a newline
        for name in ('"f,0"', '"f\n0"', '"f\r\n0"'):
            quoted, b = tmp_path / "quoted.csv", tmp_path / "b.csv"
            quoted.write_bytes((name + header[2:] + "\n" + rest).encode("ascii"))
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

    def test_score_header_only_input_of_another_width_is_config_error(
            self, pca_run, tmp_path, capsys):
        empty, out = tmp_path / "empty.csv", tmp_path / "s.csv"
        empty.write_text("a,b,c,d\n")
        assert main(["score", "-m", str(pca_run / "model"), "-i", str(empty),
                     "-o", str(out)]) == 1
        assert "input has 4 features, model expects 2" in capsys.readouterr().err
        assert not out.exists()

    def test_score_blank_first_data_line_is_not_header_only(self, pca_run,
                                                            tmp_path, capsys):
        # only a file whose lines after the header are all blank has no rows
        points, out = tmp_path / "blank.csv", tmp_path / "s.csv"
        argv = ["score", "-m", str(pca_run / "model"), "-i", str(points),
                "-o", str(out)]
        points.write_text("f0,f1,label\n   \n0.1,0.2,0\n0.3,0.4,1\n")
        assert main(argv) == 2
        assert "blank.csv: row 2 has 1 fields" in capsys.readouterr().err
        assert not out.exists()
        points.write_text("f0,f1,label\n   \n\n")
        assert main(argv) == 0
        assert out.read_text() == "id,z_e,z_c,score\n"

    def test_undecodable_input_is_data_error(self, pca_run, tiny_ini, tmp_path,
                                             capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"f0,f1,label\n0.1,\xff,0\n0.3,0.4,1\n")
        for argv in (["score", "-m", str(pca_run / "model"), "-i", str(bad),
                      "-o", str(tmp_path / "s.csv")],
                     csv_train_argv(tiny_ini, tmp_path / "out", bad)):
            assert main(argv) == 2
            assert re.search("bad.csv: .*can't decode byte 0xff", capsys.readouterr().err)

    def test_score_rows_without_features_is_config_error(self, tiny_ini,
                                                         tmp_path, capsys):
        outdir = tmp_path / "run"
        main(["train", "-c", str(tiny_ini), "-o", str(outdir)])
        ids_only = tmp_path / "ids.csv"
        ids_only.write_text("label,class\n" + "0,1\n" * 50)
        assert main(["score", "-m", str(outdir), "-i", str(ids_only),
                     "-o", str(tmp_path / "s.csv")]) == 1
        assert "input has 0 features, model expects 2" in capsys.readouterr().err
        # without rows too: the width is checked before the empty-input shortcut
        ids_only.write_text("label,class\n")
        assert main(["score", "-m", str(outdir), "-i", str(ids_only),
                     "-o", str(tmp_path / "s.csv")]) == 1
        assert "input has 0 features, model expects 2" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

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


LONG_FIELD = "x" * 140_000  # over the 131072 characters csv.reader allows


@pytest.mark.parametrize("text", [
    f"f0,f1,label\n0.1,0.2,0\n0.3,{LONG_FIELD},1\n",
    f"f0,{LONG_FIELD},label\n0.1,0.2,0\n",
], ids=["cell", "header"])
def test_field_over_csv_limit_is_data_error(pca_run, tmp_path, capsys, text):
    path = tmp_path / "long.csv"
    path.write_text(text)
    with pytest.raises(DataFormatError, match="long.csv: line .*field limit"):
        load_csv(path)
    assert main(["score", "-m", str(pca_run / "model"), "-i", str(path),
                 "-o", str(tmp_path / "s.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: line ") and "Traceback" not in err


@pytest.mark.filterwarnings("error")  # a numpy warning fails the call
def test_score_overflowing_row_is_named_without_numpy_warnings(pca_run, tmp_path,
                                                               capsys):
    # its squared reconstruction error overflows float64
    path, out = tmp_path / "big.csv", tmp_path / "s.csv"
    path.write_text("f0,f1,label\n0.5,-1.25,0\n3e-4,2,1\n-0.0,1e300,0\n")
    assert main(["score", "-m", str(pca_run / "model"), "-i", str(path),
                 "-o", str(out)]) == 2
    summary, error = capsys.readouterr().err.splitlines()
    assert summary.startswith("scoring on ")
    assert error == "error: row 4: its composite features overflow float64"
    assert not out.exists()


@pytest.mark.filterwarnings("error")  # a numpy warning fails the call
def test_score_overflowing_density_is_named_without_numpy_warnings(pca_run, tmp_path,
                                                                   capsys):
    # finite composite features whose Mahalanobis norm overflows float64, so
    # the noise log-density and the score would be infinite
    path, out = tmp_path / "far.csv", tmp_path / "s.csv"
    path.write_text("f0,f1,label\n0.5,-1.25,0\n3e-4,2,1\n-0.0,1e150,0\n")
    assert main(["score", "-m", str(pca_run / "model"), "-i", str(path),
                 "-o", str(out)]) == 2
    summary, error = capsys.readouterr().err.splitlines()
    assert summary.startswith("scoring on ")
    assert error == "error: row 4: its log-density overflows float64"
    assert not out.exists()


def test_score_repeated_column_name_is_data_error(pca_run, tmp_path, capsys):
    path = tmp_path / "dup.csv"
    for body in ("0.1,0.2,0\n0.3,0.4,1\n", "", "\n \n"):  # with rows or none
        path.write_text("f0,f0,label\n" + body)
        assert main(["score", "-m", str(pca_run / "model"), "-i", str(path),
                     "-o", str(tmp_path / "s.csv")]) == 2
        assert capsys.readouterr().err == f"error: {path}: column 'f0' appears twice\n"
        assert not (tmp_path / "s.csv").exists()


def csv_train_argv(ini, outdir, path):
    return ["train", "-c", str(ini), "-o", str(outdir), "--set", "dataset.kind=csv",
            "--set", f"dataset.path={path}", "--set", "dataset.label_column=label"]


def test_train_on_header_only_csv_is_data_error(tiny_ini, tmp_path, capsys):
    path = tmp_path / "head.csv"
    for body in ("", "\n  \n"):
        path.write_text("f0,f1,label\n" + body)
        assert main(csv_train_argv(tiny_ini, tmp_path / "out", path)) == 2
        assert capsys.readouterr().err == f"error: {path}: no data rows\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the test
def test_train_on_overflowing_features_names_the_column(tiny_ini, tmp_path, capsys):
    rows = [f"{i % 7 * 0.1},{(-1) ** i * 1e300},{int(i % 9 == 0)}" for i in range(80)]
    path = tmp_path / "big.csv"
    path.write_text("\n".join(["f0,f1,label", *rows]) + "\n")
    assert main(csv_train_argv(tiny_ini, tmp_path / "out", path)) == 2
    assert capsys.readouterr().err == ("error: dataset 'tiny': column 1: its "
                                       "zscore shift or scale overflows float64\n")


@pytest.mark.parametrize("override", [
    "nce.nu=inf", "nce.nu=nan", "nce.lr=nan", "compress.lr=nan",
    "compress.lam=nan", "compress.lam=inf",
])
def test_train_non_finite_number_is_config_error(tiny_ini, tmp_path, capsys,
                                                 override):
    code = main(["train", "-c", str(tiny_ini), "-o", str(tmp_path / "x"),
                 "--set", override])
    err = capsys.readouterr().err
    assert code == 1 and not (tmp_path / "x").exists()
    assert err.splitlines() == [err.strip()] and "Traceback" not in err
    assert override.split("=")[0] in err and "finite" in err


@pytest.mark.parametrize("nu", ["1e9", "1e300"])
def test_train_noise_draw_too_large_is_config_error(tiny_ini, tmp_path, capsys, nu):
    # unbounded, numpy is asked for 715 GiB (1e9) or an impossible shape (1e300)
    code = main(["train", "-c", str(tiny_ini), "-o", str(tmp_path / "x"),
                 "--set", f"nce.nu={nu}"])
    err = capsys.readouterr().err
    assert code == 1 and not (tmp_path / "x").exists()
    assert err.splitlines() == [err.strip()] and "Traceback" not in err
    assert f"nce.nu={float(nu)} draws more than" in err


@pytest.mark.parametrize("spec, cause", [
    ("box(n=5, low=nan)", "finite"),
    ("gaussian-mixture(n=5, spread=inf)", "finite"),
    ("box(n=5, low=-1e308, high=1e308)", "box in"),
    ("ring(n=5) + gaussian-mixture(n=5, spread=1e308)", "gaussian-mixture in"),
])
def test_synth_non_finite_or_overflowing_spec_is_config_error(tmp_path, capsys,
                                                              spec, cause):
    code = main(["synth", "--spec", spec, "-o", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert code == 1 and not (tmp_path / "x.csv").exists()
    assert err.splitlines() == [err.strip()] and "Traceback" not in err
    assert cause in err


def test_train_augmenting_one_training_row_names_the_cause(tmp_path, capsys):
    # ring(n=3) leaves 1 training row after the test and validation splits
    argv = ["train", "-o", str(tmp_path / "out"), "--set", "dataset.kind=synth",
            "--set", "dataset.synth=ring(n=3)", "--set", "nce.epochs=1",
            "--set", "compress.epochs=1"]
    assert main(argv) == 2
    assert capsys.readouterr().err.endswith(
        "error: augmentation needs at least 2 training rows, got 1\n")


def test_score_line_of_commas_is_data_error(pca_run, tmp_path, capsys):
    # a line of empty cells is not blank
    path, out = tmp_path / "commas.csv", tmp_path / "s.csv"
    path.write_text("f0,f1,label\n,,\n")
    assert main(["score", "-m", str(pca_run / "model"), "-i", str(path),
                 "-o", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"error: {path}: row 2, column 'f0': cannot parse ''\n"
    assert not out.exists()


def test_score_ignore_columns_entries_are_stripped(pca_run, tmp_path):
    points = (pca_run / "points.csv").read_text().splitlines()
    both = tmp_path / "both.csv"
    both.write_text("\n".join([points[0] + ",class",
                               *(row + ",3" for row in points[1:])]) + "\n")
    runs = {"default": ["-i", str(pca_run / "points.csv")],
            "spaced": ["-i", str(both), "--ignore-columns", "label, class "]}
    for name, args in runs.items():
        assert main(["score", "-m", str(pca_run / "model"), *args,
                     "-o", str(tmp_path / f"{name}.csv")]) == 0
    assert ((tmp_path / "default.csv").read_bytes()
            == (tmp_path / "spaced.csv").read_bytes())


def test_score_from_a_pipe_matches_the_file(pca_run, tmp_path):
    fifo, piped, direct = tmp_path / "in.csv", tmp_path / "p.csv", tmp_path / "f.csv"
    os.mkfifo(fifo)
    points = pca_run / "points.csv"
    writer = threading.Thread(target=lambda: fifo.write_bytes(points.read_bytes()),
                              daemon=True)
    writer.start()
    try:
        assert main(["score", "-m", str(pca_run / "model"), "-i", str(fifo),
                     "-o", str(piped)]) == 0
    finally:
        writer.join(30)
    assert not writer.is_alive()
    assert main(["score", "-m", str(pca_run / "model"), "-i", str(points),
                 "-o", str(direct)]) == 0
    assert piped.read_bytes() == direct.read_bytes()
    assert len(direct.read_text().splitlines()) == 11


@pytest.mark.parametrize("text", ["", "\n\n", " \n\n"])
def test_score_file_without_header_is_data_error(pca_run, tmp_path, capsys, text):
    # only a header followed by blank lines scores as no rows
    path, out = tmp_path / "empty.csv", tmp_path / "s.csv"
    path.write_text(text)
    assert main(["score", "-m", str(pca_run / "model"), "-i", str(path),
                 "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: ")
    assert not out.exists()


def test_score_empty_ignore_columns_keeps_every_column(pca_run, tmp_path):
    points = (pca_run / "points.csv").read_text().splitlines()
    assert points[0] == "f0,f1,label"
    plain, named = tmp_path / "plain.csv", tmp_path / "named.csv"
    plain.write_text("\n".join(["f0,f1", *(r.rsplit(",", 1)[0] for r in points[1:])]))
    named.write_text(plain.read_text().replace("f0,f1", "f0,label", 1))
    for path in (plain, named):
        assert main(["score", "-m", str(pca_run / "model"), "-i", str(path),
                     "-o", str(tmp_path / f"s-{path.name}"),
                     "--ignore-columns", ""]) == 0
    assert ((tmp_path / "s-plain.csv").read_bytes()
            == (tmp_path / "s-named.csv").read_bytes())


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

    def test_failure_in_a_block_exits_2(self, pca_run, tmp_path, monkeypatch,
                                        capsys):
        seen = []
        monkeypatch.setattr(pipeline, "SCORE_BLOCK", 4)
        original = EstimatorModel.score

        def failing(self, z):
            seen.append(len(z))
            if len(seen) == 2:
                raise NonFiniteError("synthetic score failure")
            return original(self, z)

        monkeypatch.setattr(EstimatorModel, "score", failing)
        out = tmp_path / "s.csv"
        assert self.score(pca_run, pca_run / "points.csv", out) == 2
        assert "synthetic score failure" in capsys.readouterr().err
        assert seen == [4, 4]
        assert not out.exists()

    def test_blas_summary_on_stderr_only(self, pca_run, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert self.score(pca_run, pca_run / "points.csv", out) == 0
        captured = capsys.readouterr()
        assert captured.out == f"10 rows scored -> {out}\n"
        summary, = captured.err.splitlines()
        assert summary.startswith("scoring on ")
        assert summary.endswith(f"; blocks of {SCORE_BLOCK} rows")
        if machine.openblas_config():
            assert re.search("numpy's OpenBLAS [^;]* on 1 thread", summary)

    def test_numpy_blas_pinned_at_import_and_scipy_never_loaded(self):
        if not machine.openblas_config():
            pytest.skip("numpy bundles no OpenBLAS")
        # a fresh interpreter, so the pin is seen to come from `import cance`
        # alone, even with OpenBLAS told to start more threads; a log-density
        # runs its LAPACK solve, which must not load scipy or its OpenBLAS
        probe = ("import sys\nfrom pathlib import Path\nimport numpy as np\n"
                 "import cance\nfrom cance.machine import blas_summary\n"
                 "from cance.stats import GaussianModel\n"
                 "GaussianModel(np.zeros(2), np.eye(2)).logpdf(np.ones((3, 2)))\n"
                 "print(blas_summary())\n"
                 "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])\n"
                 "maps = Path('/proc/self/maps')\n"
                 "print(maps.exists() and 'scipy.libs' in maps.read_text())\n")
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
               "OPENBLAS_NUM_THREADS": "2"}
        result = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, check=True)
        summary = f"numpy's {machine.openblas_config()} on 1 thread(s)"
        assert result.stdout == f"{summary}\n[]\nFalse\n"
        assert summary == machine.blas_summary()
        assert "numpy's OpenBLAS" in summary and "scipy" not in summary

    def test_threads_share_one_malloc_arena_from_import(self, tmp_path):
        import ctypes

        libc = ctypes.CDLL(None)
        if not (hasattr(libc, "malloc_info") and hasattr(libc, "mallopt")):
            pytest.skip("libc has no glibc malloc_info and mallopt")
        # three threads alive at once, each allocating a fit's 2304 x 64
        # buffers; by default glibc gives each its own arena (heap)
        probe = ("import ctypes, sys, threading\nimport numpy as np\nimport cance\n"
                 "barrier = threading.Barrier(3)\n"
                 "def work():\n    barrier.wait()\n"
                 "    for _ in range(20):\n        np.ones((2304, 64)).sum()\n"
                 "threads = [threading.Thread(target=work) for _ in range(3)]\n"
                 "for t in threads: t.start()\n"
                 "for t in threads: t.join()\n"
                 "libc = ctypes.CDLL(None)\n"
                 "libc.fopen.argtypes = [ctypes.c_char_p] * 2\n"
                 "libc.fopen.restype = ctypes.c_void_p\n"
                 "libc.malloc_info.argtypes = [ctypes.c_int, ctypes.c_void_p]\n"
                 "libc.fclose.argtypes = [ctypes.c_void_p]\n"
                 "stream = libc.fopen(sys.argv[1].encode(), b'w')\n"
                 "assert stream and libc.malloc_info(0, stream) == 0\n"
                 "libc.fclose(stream)\n")
        info = tmp_path / "malloc_info.xml"
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        subprocess.run([sys.executable, "-c", probe, str(info)], env=env, check=True)
        assert info.read_text().count("<heap nr=") == 1

    def test_train_and_score_never_import_scipy(self, tmp_path):
        (tmp_path / "run.ini").write_text(TINY_INI)
        probe = ("import sys\nfrom cance.cli import main\nroot = sys.argv[1]\n"
                 "assert main(['train', '-c', root + '/run.ini', '--set', "
                 "'nce.epochs=1', '-o', root + '/model']) == 0\n"
                 "assert main(['synth', '--spec', 'ring(n=20) + box(n=5)', "
                 "'-o', root + '/points.csv']) == 0\n"
                 "assert main(['score', '-m', root + '/model', '-i', "
                 "root + '/points.csv', '-o', root + '/scores.csv']) == 0\n"
                 "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])\n")
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        result = subprocess.run([sys.executable, "-c", probe, str(tmp_path)], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.splitlines()[-1] == "[]"
        assert (tmp_path / "scores.csv").is_file()

    def test_augmented_train_never_imports_numpy_ma(self, tmp_path):
        # the augmentation margin's KDE takes its quartiles without
        # np.percentile, which imports numpy.ma (about 6 ms) on first use
        (tmp_path / "run.ini").write_text(TINY_INI)
        probe = ("import sys\nfrom cance.cli import main\nroot = sys.argv[1]\n"
                 "assert main(['train', '-c', root + '/run.ini', '--set', "
                 "'nce.epochs=1', '--set', 'nce.augmentation=true', "
                 "'-o', root + '/model']) == 0\n"
                 "print('numpy.ma' in sys.modules)\n")
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        result = subprocess.run([sys.executable, "-c", probe, str(tmp_path)], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.splitlines()[-1] == "False"
        report = json.loads((tmp_path / "model" / "train_report.json").read_text())
        assert "augmentation_margins" in report["estimator"]

    @pytest.fixture
    def streamed(self, monkeypatch, formatter_popens):
        """Blocks of 2 rows and chunks of 4, every table formatted by two
        children; gives the formatter processes started."""
        monkeypatch.setattr(pipeline, "SCORE_BLOCK", 2)
        monkeypatch.setattr(data_module, "FORMAT_CHUNK_ROWS", 4)
        monkeypatch.setattr(data_module, "FORMAT_CHILD_MIN_ROWS", 0)
        monkeypatch.setattr(machine, "usable_cpus", lambda: 3)
        return formatter_popens

    def test_streamed_scores_equal_unstreamed(self, pca_run, tmp_path, monkeypatch,
                                              streamed):
        assert self.score(pca_run, pca_run / "points.csv", tmp_path / "a.csv") == 0
        assert len(streamed) == 2
        assert all(proc.returncode == 0 for proc in streamed)
        monkeypatch.setattr(data_module, "FORMAT_CHILD_MIN_ROWS", 10**9)
        assert self.score(pca_run, pca_run / "points.csv", tmp_path / "b.csv") == 0
        assert len(streamed) == 2
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_failure_in_a_late_chunk_leaves_no_file_and_no_child(
            self, pca_run, tmp_path, monkeypatch, capsys, streamed):
        calls, original = [], EstimatorModel.score

        def failing(self, z):
            calls.append(len(z))
            if len(calls) == 4:  # rows 6 and 7, after three chunks were sent
                raise NonFiniteError("synthetic late failure")
            return original(self, z)

        monkeypatch.setattr(EstimatorModel, "score", failing)
        out = tmp_path / "s.csv"
        assert self.score(pca_run, pca_run / "points.csv", out) == 2
        assert "synthetic late failure" in capsys.readouterr().err
        assert not out.exists()
        assert len(streamed) == 2
        assert all(proc.returncode is not None for proc in streamed)

    def test_bench_spans_see_one_call_each(self, pca_run, tmp_path, streamed):
        # bench/spans.py counts write_scores' rows as len(args[1])
        spec = importlib.util.spec_from_file_location(
            "bench_spans_in_cli_test", ROOT / "bench" / "spans.py")
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        tracer = spans.Tracer()
        with tracer.installed():
            assert self.score(pca_run, pca_run / "points.csv", tmp_path / "s.csv") == 0
        stats = tracer.stats
        scores = stats["cli.write_scores"]
        assert (scores.calls, scores.rows) == (1, 10)
        assert stats["data.load_csv"].calls == 1
        assert stats["data.normalizer.transform"].calls == 1
        assert stats["nce.score"].rows == 10 and streamed

    def test_memory_grows_by_at_most_56_bytes_a_row(self, pca_run, tmp_path,
                                                    monkeypatch):
        # each row is held once: its 2 normalized features, z_e, z_c, score
        # and id take 48 B; the text and cells of one parse block are bounded.
        # Measured: 47.9 B a row (4.1 and 6.4 MiB); 79.4 B when the parsed
        # rows, the latents and the whole file's table were held as well
        monkeypatch.setattr(machine, "usable_cpus", lambda: 1)
        peaks = []
        for n in (50_000, 100_000):
            points = tmp_path / f"points{n}.csv"
            assert main(["synth", "--spec", f"ring(n={n - 500}) + box(n=500)",
                         "-o", str(points)]) == 0
            tracemalloc.start()
            try:
                assert self.score(pca_run, points, tmp_path / "s.csv") == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / 50_000 <= 56

    def test_without_blas_symbol_nothing_is_pinned(self, pca_run, tmp_path,
                                                   monkeypatch, capsys):
        assert self.score(pca_run, pca_run / "points.csv", tmp_path / "a.csv") == 0
        monkeypatch.setattr(machine, "openblas_config", lambda: None)
        capsys.readouterr()
        assert self.score(pca_run, pca_run / "points.csv", tmp_path / "b.csv") == 0
        assert "scoring on unknown BLAS; blocks of" in capsys.readouterr().err
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
    "normalization-none": (
        NORMALIZER_FILE, "normalizer",
        lambda meta, arrays: meta.update(method="none")),
    "layer-type-conv": (
        COMPRESSION_FILE, "autoencoder",
        lambda meta, arrays: meta["encoder"][0].update(type="conv")),
    "score_noise-Adapted": (
        ESTIMATOR_FILE, "estimator",
        lambda meta, arrays: meta.update(score_noise="Adapted")),
    # the base Gaussian is not the density the classifier was trained against
    "score_noise-initial": (
        ESTIMATOR_FILE, "estimator",
        lambda meta, arrays: meta.update(score_noise="initial")),
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
    # a file without a config hash string cannot be matched with the others
    "normalizer-without-config-hash": (
        NORMALIZER_FILE, "normalizer", lambda meta, arrays: meta.pop("config_hash")),
    "estimator-config-hash-of-a-number": (
        ESTIMATOR_FILE, "estimator", lambda meta, arrays: meta.update(config_hash=7)),
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


def test_inspect_model_file_without_config_hash_is_runtime_error(ae_run, tmp_path,
                                                                 capsys):
    model_dir = tmp_path / "model"
    shutil.copytree(ae_run / "model", model_dir)
    kind, meta, arrays = load_container(model_dir / NORMALIZER_FILE)
    del meta["config_hash"]
    save_container(model_dir / NORMALIZER_FILE, kind, meta, arrays)
    capsys.readouterr()
    assert main(["inspect", "-m", str(model_dir)]) == 2
    assert capsys.readouterr().err == (f"error: {model_dir / NORMALIZER_FILE}: "
                                       "config_hash is missing or not a string\n")


def test_score_with_estimator_naming_adapted_noise(ae_run, tmp_path):
    """Older estimator files carry score_noise="adapted"; they score alike."""
    model_dir = tmp_path / "model"
    shutil.copytree(ae_run / "model", model_dir)
    kind, meta, arrays = load_container(model_dir / ESTIMATOR_FILE)
    assert "score_noise" not in meta
    save_container(model_dir / ESTIMATOR_FILE, kind,
                   {**meta, "score_noise": "adapted"}, arrays)
    out = tmp_path / "s.csv"
    assert main(["score", "-m", str(model_dir), "-i", str(ae_run / "points.csv"),
                 "-o", str(out)]) == 0
    assert out.read_bytes() == (ae_run / "scores.csv").read_bytes()


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

    def test_ablate_refuses_a_sweep_before_its_first_fit(self, tmp_path, monkeypatch,
                                                         capsys):
        classes = np.repeat([0, 1], 20)
        points = tmp_path / "classes.csv"
        write_csv(points, Dataset(np.random.default_rng(0).standard_normal((40, 2)),
                                  class_ids=classes))
        monkeypatch.setattr("cance.evaluation.prepare_features",
                            lambda *a: pytest.fail("a fit started"))
        outdir = tmp_path / "ablate"
        overrides = ["dataset.kind=csv", f"dataset.path={points}",
                     "dataset.class_column=class", "dataset.benchmark=unimodal",
                     "dataset.normal_classes=0, 1"]
        assert main(["ablate", "-o", str(outdir),
                     *(arg for pair in overrides for arg in ("--set", pair))]) == 1
        assert "config error: a single run takes one normal class" in (
            capsys.readouterr().err)
        assert not (outdir / "ablation.json").exists()

    @pytest.mark.parametrize("command, overrides, code", [
        ("ablate", ["dataset.kind=csv", "dataset.path={classes}",
                    "dataset.class_column=class", "dataset.benchmark=unimodal",
                    "dataset.normal_classes=0, 1"], 1),
        ("eval", ["dataset.kind=csv", "dataset.path={missing}",
                  "dataset.label_column=label"], 2),
        # passes config load; the generator refuses it in the first job
        ("eval", ["dataset.synth=ring(n=50) + box(n=10, low=2, high=1)"], 1),
    ], ids=["ablate-sweep", "eval-missing-path", "eval-refused-synth"])
    def test_a_failed_run_leaves_no_output_directory(self, command, overrides, code,
                                                     tiny_ini, tmp_path):
        classes = tmp_path / "classes.csv"
        write_csv(classes, Dataset(np.random.default_rng(0).standard_normal((40, 2)),
                                   class_ids=np.repeat([0, 1], 20)))
        sets = [pair.format(classes=classes, missing=tmp_path / "missing.csv")
                for pair in overrides]
        outdir = tmp_path / "out"
        assert main([command, "-c", str(tiny_ini), "-o", str(outdir),
                     *(arg for pair in sets for arg in ("--set", pair))]) == code
        assert not outdir.exists()

    @pytest.mark.parametrize("command", ["eval", "ablate"])
    def test_an_output_path_naming_a_file_fails_before_any_fit(self, command, tiny_ini,
                                                               tmp_path, monkeypatch,
                                                               capsys):
        import cance.evaluation as evaluation_module

        def no_fit(*args):
            pytest.fail("a fit started before the output directory was made")

        monkeypatch.setattr(evaluation_module, "prepare_features", no_fit)
        monkeypatch.setattr(evaluation_module, "run_pipeline", no_fit)
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        assert main([command, "-c", str(tiny_ini), "-o", str(taken)]) == 2
        assert "error:" in capsys.readouterr().err
        assert taken.read_text() == "kept\n"

    def test_a_failed_run_keeps_an_output_directory_it_did_not_make(self, tiny_ini,
                                                                     tmp_path):
        outdir = tmp_path / "out"
        outdir.mkdir()
        assert main(["eval", "-c", str(tiny_ini), "-o", str(outdir), "--set",
                     "dataset.synth=ring(n=50) + box(n=10, low=2, high=1)"]) == 1
        assert outdir.is_dir()

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
    monkeypatch.setattr(machine, "usable_cpus", lambda: workers)
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


class TestEvalMatchesScore:
    """`cance eval`'s score file of a seed is `cance score` on the same test
    rows with `cance train`'s models: both come from the same padded blocks."""

    @pytest.mark.parametrize("sets", [
        ("compress.method=ae", "compress.hidden=64, 32"),
        ("compress.method=pca",),
    ], ids=["ae", "pca"])
    def test_eval_score_file_equals_score_output(self, tiny_ini, tmp_path, sets):
        sets = (*sets, "eval.repeats=1")
        config = load_config(str(tiny_ini), sets)
        args = ["-c", str(tiny_ini), *(arg for s in sets for arg in ("--set", s))]
        _, test = load_benchmark(config.dataset, RunRng(config.eval.seed))
        assert 0 < test.n < SCORE_BLOCK
        write_csv(tmp_path / "test.csv", test)
        assert main(["eval", *args, "-o", str(tmp_path / "eval")]) == 0
        assert main(["train", *args, "-o", str(tmp_path / "model")]) == 0
        assert main(["score", "-m", str(tmp_path / "model"),
                     "-i", str(tmp_path / "test.csv"),
                     "-o", str(tmp_path / "scores.csv")]) == 0
        assert (tmp_path / "eval" / "scores-seed0.csv").read_bytes() == \
            (tmp_path / "scores.csv").read_bytes()

    def test_seed_file_same_alone_and_beside_another_seed(self, tiny_ini, tmp_path,
                                                          monkeypatch):
        # GEMMs large enough that OpenBLAS would split them at more than one
        # thread; one seed runs in the calling thread and two on a pool, so
        # a seed's bits must not depend on how many seeds run or on the CPUs
        monkeypatch.setattr(machine, "usable_cpus", lambda: 2)
        sets = ("dataset.synth=ring(n=4688, radius=1, noise=0.05) "
                "+ box(n=60, low=-2, high=2)",
                "nce.widths=64, 64", "nce.batch_size=512", "nce.epochs=1")
        args = ["-c", str(tiny_ini), *(arg for s in sets for arg in ("--set", s))]
        _, test = load_benchmark(load_config(str(tiny_ini), sets).dataset, RunRng(0))
        write_csv(tmp_path / "test.csv", test)
        for repeats in (1, 2):
            assert main(["eval", *args, "--set", f"eval.repeats={repeats}",
                         "-o", str(tmp_path / f"eval{repeats}")]) == 0
        assert main(["train", *args, "-o", str(tmp_path / "model")]) == 0
        assert main(["score", "-m", str(tmp_path / "model"),
                     "-i", str(tmp_path / "test.csv"),
                     "-o", str(tmp_path / "scores.csv")]) == 0
        alone, beside = (tmp_path / f"eval{n}" / "scores-seed0.csv" for n in (1, 2))
        assert alone.read_bytes() == beside.read_bytes()
        assert alone.read_bytes() == (tmp_path / "scores.csv").read_bytes()


# Golden output bits: SHA-256 digests of small fixed runs, recorded in
# golden_bits.json under a key of what the bits depend on. A change that
# moves bits on purpose records the new digests there.
GOLDEN = Path(__file__).with_name("golden_bits.json")
GOLDEN_TRAINS = {
    "pca": (),
    "ae-64-32": ("compress.method=ae", "compress.hidden=64, 32"),
    "ae-8": ("compress.method=ae", "compress.hidden=8"),
}


def golden_key():
    """What the bits depend on: numpy and its bundled OpenBLAS build, which
    runs every BLAS and LAPACK call on one thread (see `cance.machine`)."""
    key, config = f"numpy {np.__version__}", machine.openblas_config()
    return f"{key}; numpy's {config}" if config else key


def golden_digests(root):
    """{output name: SHA-256} of small fixed runs of train, score, eval and
    ablate on TINY_INI, with the ablation summary's config hashes left out."""
    ini = root / "run.ini"
    ini.write_text(TINY_INI)
    # 41 rows, not a multiple of the GEMM kernels' row unroll, so scoring
    # without the padding of `score_blocks` would move the last row's bits
    points = root / "points.csv"
    assert main(["synth", "--spec", "ring(n=31) + box(n=10)", "--seed", "2",
                 "-o", str(points)]) == 0
    outputs = {}
    for name, sets in GOLDEN_TRAINS.items():
        args = ["-c", str(ini), *(arg for s in sets for arg in ("--set", s))]
        model = root / name
        assert main(["train", *args, "-o", str(model)]) == 0
        assert main(["score", "-m", str(model), "-i", str(points),
                     "-o", str(model / "scores.csv")]) == 0
        for file in (COMPRESSION_FILE, ESTIMATOR_FILE, NORMALIZER_FILE,
                     "train_report.json", "scores.csv"):
            outputs[f"{name}/{file}"] = (model / file).read_bytes()
    one_seed = ["-c", str(ini), "--set", "eval.repeats=1"]
    assert main(["eval", *one_seed, "-o", str(root / "eval")]) == 0
    outputs["eval/scores-seed0.csv"] = (root / "eval" / "scores-seed0.csv").read_bytes()
    assert main(["ablate", *one_seed, "-o", str(root / "ablate")]) == 0
    summary = json.loads((root / "ablate" / "ablation.json").read_text())
    for variant in summary.values():
        del variant["config_hash"]
    outputs["ablate/ablation.json"] = json.dumps(summary, indent=2,
                                                 sort_keys=True).encode()
    outputs.update(golden_recovery(root / "recovery"))
    return {name: hashlib.sha256(data).hexdigest()
            for name, data in outputs.items()}


def golden_recovery(out):
    """A short run of criterion 3's recovery setup: N(0,1) data against
    fixed N(0,4) noise, batch 512 and nu 8, so its steps take 4608 rows,
    and 3000 training rows, so each epoch ends on a 440-row batch."""
    rng = RunRng(42)
    data = rng.stream("data").standard_normal((3500, 1))
    noise = NoiseModel(GaussianModel(np.zeros(1), 4.0 * np.eye(1)),
                       psi=None, nu=8.0)
    config = NceConfig(widths=(64, 64), nu=8.0, lr=2e-3, epochs=2,
                       batch_size=512, augmentation=False, adapt_noise=False)
    model, _ = train_estimator(data[:3000], data[3000:], config,
                               rng.stream("init"), rng.stream("train"),
                               rng.stream("val"), noise_model=noise)
    out.mkdir()
    save_model(out / ESTIMATOR_FILE, model)
    write_scores(out / "scores.csv", model.score(np.linspace(-2.0, 2.0, 41)[:, None]))
    return {f"recovery/{file}": (out / file).read_bytes()
            for file in (ESTIMATOR_FILE, "scores.csv")}


def test_output_bits_match_golden_manifest(tmp_path, capsys):
    key = golden_key()
    digests = golden_digests(tmp_path)
    known = json.loads(GOLDEN.read_text()).get(key)
    if known is None:
        with capsys.disabled():
            print(json.dumps({key: digests}, indent=2, sort_keys=True))
        pytest.skip(f"no golden digests for {key}")
    assert sorted(digests) == sorted(known)
    moved = [name for name in known if digests[name] != known[name]]
    assert not moved, f"output bits moved: {', '.join(moved)}"


class TestEvalFailures:
    def test_programming_error_propagates(self, tiny_ini, tmp_path,
                                          monkeypatch):
        import cance.evaluation as evaluation_module

        original = evaluation_module.run_pipeline

        def buggy(config, seed):
            if seed == 1:
                raise TypeError("synthetic bug")
            return original(config, seed)

        monkeypatch.setattr(evaluation_module, "run_pipeline", buggy)
        monkeypatch.setattr(machine, "usable_cpus", lambda: 2)
        with pytest.raises(TypeError, match="synthetic bug"):
            main(["eval", "-c", str(tiny_ini), "-o", str(tmp_path / "eval")])
        assert not (tmp_path / "eval" / "report.json").exists()

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

    def test_no_anomalies_is_recorded_failure(self, tiny_ini, tmp_path):
        # a valid config whose test set has one class: a data fault per seed
        outdir = tmp_path / "eval"
        code = main(["eval", "-c", str(tiny_ini), "-o", str(outdir),
                     "--set", "dataset.synth=ring(n=220, radius=1, noise=0.05)"])
        assert code == 3
        report = json.loads((outdir / "report.json").read_text())
        assert [r["error"] for r in report["per_run"]] == \
            ["AUROC needs both classes present"] * 2


class TestHoldoutFractions:
    @pytest.mark.parametrize("key, rows", [("eval.val_fraction", 2),
                                           ("dataset.test_fraction", 3)])
    def test_fraction_leaving_no_training_rows_is_config_error(self, tiny_ini,
                                                               tmp_path, capsys,
                                                               key, rows):
        # 3 normal rows: 1 goes to test at the default 0.2, and 2 stay
        assert main(["train", "-c", str(tiny_ini), "-o", str(tmp_path / "out"),
                     "--set", "dataset.synth=ring(n=3) + box(n=1)",
                     "--set", f"{key}=0.9"]) == 1
        # the message names the key, so the two splits are told apart
        assert (f"config error: {key}: holdout fraction 0.9 of {rows} rows "
                "leaves no training rows") in capsys.readouterr().err


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

    def test_synth_negative_seed_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["synth", "--spec", "ring(n=4)", "--seed", "-3",
                     "-o", str(out)]) == 1
        assert "--seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("raw", [b"[1,2]", b'{"estimator": 5}', b'{"estim',
                                     b"\xff{}", b"null"])
    def test_inspect_malformed_report_is_model_error(self, ae_run, tmp_path, capsys,
                                                     raw):
        model = tmp_path / "model"
        shutil.copytree(ae_run / "model", model)
        (model / "train_report.json").write_bytes(raw)
        assert main(["inspect", "-m", str(model)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model / 'train_report.json'}: ")

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


def test_interrupted_train_exits_130_without_a_model(tiny_ini, tmp_path):
    # 20000 epochs run for tens of seconds, so SIGINT lands in the fit
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "cance.cli", "train", "-c", str(tiny_ini),
         "--set", "nce.epochs=20000", "-o", str(tmp_path / "model")],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    try:
        with pytest.raises(subprocess.TimeoutExpired):
            proc.wait(3.0)
        sent = time.perf_counter()
        proc.send_signal(signal.SIGINT)
        _, stderr = proc.communicate(timeout=5.0)
        assert time.perf_counter() - sent < 5.0
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 130, stderr
    assert stderr.splitlines()[-1] == "interrupted"
    assert "Traceback" not in stderr
    assert not (tmp_path / "model").exists()  # no model file, nor its directory


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
