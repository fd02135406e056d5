"""Block scoring: row-invariant bits and bounded memory."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cance.cli import write_scores
from cance.compress import AeConfig, AutoencoderModel, fit_pca
from cance.evaluation import SCORE_BLOCK, score_blocks
from cance.nce import EstimatorModel, NoiseModel
from cance.nn import mlp

B = SCORE_BLOCK


def estimator_for(dim, rng, widths=(16, 16)):
    noise = NoiseModel.from_data(rng.standard_normal((500, dim)), 8.0, 0.3)
    return EstimatorModel(mlp([dim, *widths, 1], rng), noise)


@pytest.fixture(scope="module", params=["ae", "pca"])
def models(request):
    """(compression, estimator) of an untrained AE or a fitted PCA, 4 -> 2."""
    rng = np.random.default_rng(11)
    if request.param == "ae":
        config = AeConfig(latent_dim=2, hidden=(16, 8))
        compression = AutoencoderModel.build(4, config, rng)
    else:
        compression = fit_pca(rng.standard_normal((300, 4)), 2)
    return compression, estimator_for(4, rng)


def bits(z, scores):
    return z.tobytes(), scores.tobytes()


@settings(derandomize=True, max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_row_bits_do_not_depend_on_the_rows_scored_with_them(models, seed):
    compression, estimator = models
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3 * B + 5, 4)) * rng.uniform(0.1, 10.0)
    z, scores = score_blocks(compression, estimator, x)
    assert z.shape == (x.shape[0], 4) and np.all(np.isfinite(scores))
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
    x = np.random.default_rng(5).standard_normal((B, 4))
    z, scores = score_blocks(compression, estimator, x)
    want = compression.composite(x)
    assert bits(z, scores) == bits(want, estimator.score(want))


def test_empty_input_gives_empty_outputs(models):
    compression, estimator = models
    z, scores = score_blocks(compression, estimator, np.empty((0, 4)))
    assert z.shape == (0, 4) and scores.shape == (0,)


def test_scoring_memory_stays_bounded(tmp_path):
    """50k rows through the default-width autoencoder, scored and written.

    Measured: about 5.1 MiB traced peak, that of `score_blocks`. Writing
    alone peaks at about 3.4 MiB; with 64k-line write blocks it peaked at
    18 MiB. One whole-matrix composite and score call peaks at about 80 MiB.
    """
    rng = np.random.default_rng(0)
    compression = AutoencoderModel.build(2, AeConfig(latent_dim=2), rng)
    estimator = estimator_for(4, rng, widths=(64, 64))
    x = rng.standard_normal((50_000, 2))
    tracemalloc.start()
    try:
        z, scores = score_blocks(compression, estimator, x)
        write_scores(tmp_path / "s.csv", scores, z_e=z[:, -2], z_c=z[:, -1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
