"""Block scoring: row-invariant bits and bounded memory."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cance import machine
from cance.cli import write_scores
from cance.compress import AeConfig, AutoencoderModel, fit_pca
from cance.pipeline import SCORE_BLOCK, RunArtifacts, fit_estimator, score_blocks
from cance.nce import EstimatorModel, NceConfig, NoiseModel
from cance.nn.layers import mlp

B = SCORE_BLOCK


def estimator_for(dim, rng, widths=(16, 16)):
    noise = NoiseModel.from_data(rng.standard_normal((500, dim)), 8.0, 0.3)
    return EstimatorModel(mlp([dim, *widths, 1], rng), noise)


@pytest.fixture(scope="module", params=["ae", "pca", "pca-40-32"])
def models(request):
    """(compression, estimator) of an untrained AE or a fitted PCA, 4 -> 2,
    or a fitted PCA 40 -> 32, whose composite has the width of MNIST's
    features (34): there the noise density's GEMM may take other kernels."""
    rng = np.random.default_rng(11)
    if request.param == "ae":
        config = AeConfig(latent_dim=2, hidden=(16, 8))
        compression = AutoencoderModel.build(4, config, rng)
    else:
        dim, latent = (40, 32) if request.param == "pca-40-32" else (4, 2)
        compression = fit_pca(rng.standard_normal((300, dim)), latent)
    return compression, estimator_for(compression.latent_dim + 2, rng)


def bits(z, scores):
    return z.tobytes(), scores.tobytes()


@settings(derandomize=True, max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_row_bits_do_not_depend_on_the_rows_scored_with_them(models, seed):
    compression, estimator = models
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3 * B + 5, compression.input_dim)) * rng.uniform(0.1, 10.0)
    z, scores = score_blocks(compression, estimator, x)
    assert z.shape == (x.shape[0], compression.latent_dim + 2)
    assert np.all(np.isfinite(scores))
    for rows in (1, 7, B, 3 * B + 5):
        assert bits(*score_blocks(compression, estimator, x[:rows])) == \
            bits(z[:rows], scores[:rows])
    order = rng.permutation(x.shape[0])
    z_p, scores_p = score_blocks(compression, estimator, x[order])
    undo = np.argsort(order)
    assert bits(z_p[undo], scores_p[undo]) == bits(z, scores)


def test_blocks_match_the_model_calls_they_replace(models):
    # one full block is exactly one call of each model
    compression, estimator = models
    x = np.random.default_rng(5).standard_normal((B, compression.input_dim))
    z, scores = score_blocks(compression, estimator, x)
    want = compression.composite(x)
    assert bits(z, scores) == bits(want, estimator.score(want))


def test_empty_input_gives_empty_outputs(models):
    compression, estimator = models
    z, scores = score_blocks(compression, estimator, np.empty((0, compression.input_dim)))
    assert z.shape == (0, compression.latent_dim + 2) and scores.shape == (0,)


@pytest.mark.parametrize("variant", ["LatNCE", "CANCE"])
def test_variant_scores_equal_scoring_each_normalized_block(models, variant):
    # `fit_estimator` scores column slices of the test composite that the
    # run holds; the bits equal those of composing each padded block of
    # normalized rows and scoring its slice. Of the two blocks the last has
    # an odd row count, so scoring it unpadded would move bits
    compression = models[0]
    rng = np.random.default_rng(23)
    x_train, x_val, x_test = (rng.standard_normal((n, compression.input_dim))
                              for n in (400, 100, B + 1359))
    run = RunArtifacts(0, "", compression, None, None, *(
        score_blocks(compression, None, x)[0] for x in (x_train, x_val, x_test)))
    cols = slice(compression.latent_dim if variant == "LatNCE" else None)
    nce = NceConfig(widths=(64, 64), epochs=1, batch_size=64,
                    augmentation=(variant == "CANCE"))
    fitted = fit_estimator(run, nce, f"-{variant}", cols)
    want = []
    for start in range(0, len(x_test), B):
        block = x_test[start:start + B]
        pad = np.repeat(block[:1], B - len(block), axis=0)
        zb = compression.composite(np.concatenate([block, pad]), real_rows=len(block))
        want.append(fitted.estimator.score(zb[:, cols])[:len(block)])
    assert fitted.test_scores.tobytes() == np.concatenate(want).tobytes()


def test_scoring_memory_stays_bounded(tmp_path, monkeypatch, formatter_popens):
    """50k rows through the default-width autoencoder, scored while they are
    written, with a formatter child, as `cance score` does.

    Measured: about 5.1 MiB traced peak, that of `score_blocks`. Writing
    alone peaks at about 3.4 MiB; with 64k-line write blocks it peaked at
    18 MiB. One whole-matrix composite and score call peaks at about 80 MiB.
    """
    monkeypatch.setattr(machine, "usable_cpus", lambda: 2)
    rng = np.random.default_rng(0)
    compression = AutoencoderModel.build(2, AeConfig(latent_dim=2), rng)
    estimator = estimator_for(4, rng, widths=(64, 64))
    x = rng.standard_normal((50_000, 2))
    tracemalloc.start()
    try:
        z, scores = np.empty((len(x), 4)), np.empty(len(x))
        write_scores(tmp_path / "s.csv", scores, z_e=z[:, -2], z_c=z[:, -1],
                     fill=lambda filled: score_blocks(compression, estimator, x,
                                                      out=(z, scores), on_block=filled))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(formatter_popens) == 1 and formatter_popens[0].returncode == 0
    assert peak < 8 * 2**20
