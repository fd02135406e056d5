"""Fuzzed readers: truncated, bit-flipped and random input files raise only
the package's errors (`CanceError` subclasses), never a bare exception.
`cance score` on such a CSV or `.emb` file exits 0, 1 or 2 and writes no
score file when it fails; `cance inspect` with such a `train_report.json`
exits 0 or 2.

Each property mutates a file its reader accepts. The properties are
derandomized, so a run is deterministic, and the example count bounds its
time.
"""

import hashlib
import shutil
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cance.cli import main
from cance.compress import AeConfig, AutoencoderModel, fit_pca
from cance.data import (
    IDX_IMAGES_MAGIC,
    IDX_LABELS_MAGIC,
    Dataset,
    Normalizer,
    load_csv,
    load_embeddings,
    load_idx,
    load_recipe_dataset,
    write_embeddings,
)
from cance.errors import CanceError
from cance.nce import EstimatorModel, NoiseModel
from cance.nn.layers import mlp
from cance.nn.serialize import load_container
from cance.pipeline import MODEL_KINDS, REPORT_FILE, load_model, save_model

FUZZ = settings(max_examples=150, derandomize=True, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

CSV = b"f0,f1,label\n0.5,-1.25,0\n3e-4,2,1\n-0.0,1e300,0\n"
RECIPE = (b"[recipe]\nname = mini\nlabel_column = 2\nnormal_values = 1, 2\n"
          b"anomaly_values = 9\n[categorical]\n0 = A:0, B:1\n")
RECIPE_DATA = b"A,0.5,1\nB,0.6,9\nA,0.7,5\nB,0.8,2\n"
RUN_INI = (b"[dataset]\nkind = synth\nsynth = ring(n=200) + box(n=50)\n"
           b"[compress]\nmethod = pca\nlatent_dim = 1\n"
           b"[nce]\nwidths = 8\nepochs = 2\nbatch_size = 64\n")
IDX = (struct.pack(">IIII", IDX_IMAGES_MAGIC, 3, 2, 2) + bytes(range(12)),
       struct.pack(">II", IDX_LABELS_MAGIC, 3) + bytes([0, 1, 2]))


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """{name: bytes} of a valid embedding file and a model file of each kind."""
    root = tmp_path_factory.mktemp("valid")
    rng = np.random.default_rng(0)
    x = rng.standard_normal((20, 3))
    write_embeddings(root / "emb", Dataset(x, class_ids=np.arange(20) % 2))
    save_model(root / "normalizer", Normalizer().fit(Dataset(x)))
    save_model(root / "autoencoder",
               AutoencoderModel.build(3, AeConfig(latent_dim=2, hidden=(3,)), rng))
    save_model(root / "estimator",
               EstimatorModel(mlp([3, 2, 1], rng), NoiseModel.from_data(x, 8.0, 0.3)))
    save_model(root / "pca", fit_pca(x, 2))
    return {path.name: path.read_bytes() for path in root.iterdir()}


def mutations(raw: bytes):
    """A truncation, one to four bit flips, or random bytes."""
    def flip(bits):
        out = bytearray(raw)
        for bit in bits:
            out[bit // 8] ^= 1 << bit % 8
        return bytes(out)

    return st.one_of(
        st.integers(0, len(raw) - 1).map(lambda k: raw[:k]),
        st.lists(st.integers(0, 8 * len(raw) - 1), min_size=1, max_size=4).map(flip),
        st.binary(max_size=2 * len(raw)),
    )


def write(paths, raws):
    for path, raw in zip(paths, raws):
        path.write_bytes(raw)
    return paths


def only_package_errors(read, *args):
    try:
        read(*args)
    except CanceError:
        pass


def test_unmutated_inputs_load(tmp_path, valid):
    assert load_csv(write([tmp_path / "d.csv"], [CSV])[0], label_column="label").n == 3
    assert load_idx(*write([tmp_path / "i", tmp_path / "l"], IDX)).n == 3
    assert load_recipe_dataset(*write([tmp_path / "r", tmp_path / "d"],
                                      [RECIPE, RECIPE_DATA])).n == 3
    assert load_embeddings(write([tmp_path / "e"], [valid["emb"]])[0]).n == 20
    for kind in MODEL_KINDS:
        load_model(write([tmp_path / kind], [valid[kind]])[0], kind)


class TestReadersRaiseOnlyPackageErrors:
    @FUZZ
    @given(data=st.data())
    def test_embeddings(self, tmp_path, valid, data):
        raw = data.draw(mutations(valid["emb"]))
        only_package_errors(load_embeddings, *write([tmp_path / "e.emb"], [raw]))

    @FUZZ
    @given(which=st.integers(0, 1), data=st.data())
    def test_idx(self, tmp_path, which, data):
        raws = list(IDX)
        raws[which] = data.draw(mutations(raws[which]))
        only_package_errors(load_idx, *write([tmp_path / "i", tmp_path / "l"], raws))

    @FUZZ
    @given(kind=st.sampled_from(sorted(MODEL_KINDS)),
           resum=st.booleans(), data=st.data())
    def test_model(self, tmp_path, valid, kind, resum, data):
        raw = data.draw(mutations(valid[kind]))
        if resum:  # a matching checksum takes the mutation past the check
            raw = raw[:-32] + hashlib.sha256(raw[:-32]).digest()
        path = write([tmp_path / "m.model"], [raw])[0]
        only_package_errors(load_container, path)
        only_package_errors(load_model, path, *MODEL_KINDS)

    @FUZZ
    @given(data=st.data())
    def test_csv(self, tmp_path, data):
        path = write([tmp_path / "d.csv"], [data.draw(mutations(CSV))])[0]
        only_package_errors(load_csv, path, "label")

    @FUZZ
    @given(which=st.integers(0, 1), data=st.data())
    def test_recipe(self, tmp_path, which, data):
        raws = [RECIPE, RECIPE_DATA]
        raws[which] = data.draw(mutations(raws[which]))
        only_package_errors(load_recipe_dataset,
                            *write([tmp_path / "r.ini", tmp_path / "raw.csv"], raws))


@pytest.fixture(scope="module")
def score_run(tmp_path_factory):
    """A model directory fitted on 2 features, and {suffix: bytes} of a CSV
    and an embedding file it scores."""
    root = tmp_path_factory.mktemp("score-run")
    ini = write([root / "run.ini"], [RUN_INI])[0]
    assert main(["train", "-c", str(ini), "-o", str(root / "model")]) == 0
    rows = np.random.default_rng(1).standard_normal((4, 2))
    write_embeddings(root / "in.emb", Dataset(rows, class_ids=np.arange(4)))
    return root / "model", {".csv": CSV, ".emb": (root / "in.emb").read_bytes()}


@FUZZ
@given(suffix=st.sampled_from([".csv", ".emb"]), data=st.data())
def test_score_cli_exits_with_a_documented_code(tmp_path, score_run, suffix, data):
    model, inputs = score_run
    path = write([tmp_path / f"in{suffix}"], [data.draw(mutations(inputs[suffix]))])[0]
    out = tmp_path / "s.csv"
    out.unlink(missing_ok=True)
    code = main(["score", "-m", str(model), "-i", str(path), "-o", str(out)])
    assert code in (0, 1, 2)
    assert code == 0 or not out.exists()


@FUZZ
@given(data=st.data())
def test_inspect_cli_exits_with_a_documented_code(tmp_path, score_run, capsys, data):
    model, _ = score_run
    copy = tmp_path / "model"
    if not copy.exists():
        shutil.copytree(model, copy)
    raw = data.draw(mutations((model / REPORT_FILE).read_bytes()))
    (copy / REPORT_FILE).write_bytes(raw)
    code = main(["inspect", "-m", str(copy)])
    err = capsys.readouterr().err
    assert code in (0, 2) and "Traceback" not in err
    assert code == 0 or err.startswith(f"error: {copy / REPORT_FILE}: ")
