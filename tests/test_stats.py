"""Streaming moments, mode estimation, truncated normal, Gaussian model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cance.errors import DegenerateFeatureError, NonFiniteError, ShapeError
from cance.stats import (
    GaussianModel,
    StreamingMoments,
    TruncatedNormalParams,
    gaussian_kde_silverman,
    lognormal_mode,
    verify_augmentation_margin,
)


def one_pass_moments(data):
    mean = data.mean(axis=0)
    centered = data - mean
    return mean, centered.T @ centered / data.shape[0]


class TestStreamingMoments:
    def test_mean_of_two_batches(self):
        state = StreamingMoments.from_batch(np.array([[1.0], [3.0]]))
        state = state.update(np.array([[5.0]]))
        np.testing.assert_allclose(state.mean, [3.0])
        assert state.count == 3

    def test_variance_merge_formula(self):
        # {0,2} then {4}: (2/3)*1 + (1/3)*0 + (2/9)*9 = 8/3
        state = StreamingMoments.from_batch(np.array([[0.0], [2.0]]))
        state = state.update(np.array([[4.0]]))
        np.testing.assert_allclose(state.cov, [[8.0 / 3.0]])

    def test_empty_prior_equals_batch_moments(self):
        batch = np.random.default_rng(0).standard_normal((10, 3))
        state = StreamingMoments.empty(3).update(batch)
        mean, cov = one_pass_moments(batch)
        np.testing.assert_allclose(state.mean, mean, atol=1e-14)
        np.testing.assert_allclose(state.cov, cov, atol=1e-14)

    def test_dim_mismatch_rejected(self):
        state = StreamingMoments.empty(3)
        with pytest.raises(ShapeError):
            state.update(np.zeros((2, 4)))

    def test_empty_batch_rejected(self):
        with pytest.raises(ShapeError):
            StreamingMoments.from_batch(np.zeros((0, 3)))

    @pytest.mark.parametrize("n_batches", range(1, 8))
    def test_partitions_match_one_pass(self, n_batches):
        rng = np.random.default_rng(n_batches)
        data = rng.standard_normal((1000, 8))
        cuts = np.sort(rng.choice(np.arange(1, 1000), n_batches - 1,
                                  replace=False))
        state = StreamingMoments.empty(8)
        for part in np.split(data, cuts):
            state = state.update(part)
        mean, cov = one_pass_moments(data)
        assert np.abs(state.mean - mean).max() < 1e-10
        assert np.abs(state.cov - cov).max() < 1e-10
        assert state.count == 1000

    def test_merge_associative(self):
        rng = np.random.default_rng(5)
        parts = [StreamingMoments.from_batch(rng.standard_normal((k, 4)) + m)
                 for k, m in ((7, 0.0), (13, 2.0), (29, -1.0))]
        left = parts[0].merge(parts[1]).merge(parts[2])
        right = parts[0].merge(parts[1].merge(parts[2]))
        assert np.abs(left.mean - right.mean).max() < 1e-10
        assert np.abs(left.cov - right.cov).max() < 1e-10

    def test_cov_symmetric_psd(self):
        rng = np.random.default_rng(6)
        state = StreamingMoments.empty(5)
        for _ in range(4):
            state = state.update(rng.standard_normal((50, 5)))
        assert np.abs(state.cov - state.cov.T).max() < 1e-12
        assert np.linalg.eigvalsh(state.cov).min() > -1e-10

    @given(st.integers(min_value=0, max_value=2**31 - 1),
           st.integers(min_value=2, max_value=6))
    @settings(max_examples=25, deadline=None)
    def test_random_partition_property(self, seed, n_batches):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((60, 3)) * rng.uniform(0.5, 3.0)
        cuts = np.sort(rng.choice(np.arange(1, 60), n_batches - 1,
                                  replace=False))
        state = StreamingMoments.empty(3)
        for part in np.split(data, cuts):
            if part.shape[0]:
                state = state.update(part)
        mean, cov = one_pass_moments(data)
        assert np.abs(state.mean - mean).max() < 1e-10
        assert np.abs(state.cov - cov).max() < 1e-10


class TestLognormalMode:
    def test_constant_samples_return_constant(self):
        assert lognormal_mode(np.full(10, 2.5)) == 2.5

    def test_exact_lognormal_moments(self):
        # mean e^0.5 and variance (e-1)e correspond to mode e^-1
        mean = np.exp(0.5)
        var = (np.e - 1.0) * np.e
        samples = np.array([mean - np.sqrt(var), mean + np.sqrt(var)])
        np.testing.assert_allclose(lognormal_mode(samples), np.exp(-1.0),
                                   rtol=1e-12)

    def test_monte_carlo_recovery(self):
        rng = np.random.default_rng(9)
        samples = rng.lognormal(0.0, 1.0, 100_000)
        estimate = lognormal_mode(samples)
        assert abs(estimate - np.exp(-1.0)) / np.exp(-1.0) < 0.05

    def test_nonpositive_mean_rejected(self):
        with pytest.raises(DegenerateFeatureError):
            lognormal_mode(np.array([-1.0, -2.0]))

    def test_too_few_samples_rejected(self):
        with pytest.raises(ShapeError):
            lognormal_mode(np.array([1.0]))

    @given(st.lists(st.floats(min_value=0.01, max_value=100.0),
                    min_size=2, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_mode_never_exceeds_mean(self, values):
        samples = np.array(values)
        assert lognormal_mode(samples) <= samples.mean() + 1e-12


class TestTruncatedNormal:
    def test_samples_stay_in_support(self):
        rng = np.random.default_rng(10)
        params = TruncatedNormalParams(mode=0.7, sigma=0.4)
        draws = params.sample(100_000, rng)
        assert draws.min() >= 0.0
        assert draws.max() <= 0.7

    @pytest.mark.parametrize("sigma", [0.05, 0.5, 2.0])
    def test_pdf_integrates_to_one(self, sigma):
        params = TruncatedNormalParams(mode=1.3, sigma=sigma)
        grid = np.linspace(0.0, 1.3, 200_001)
        integral = np.trapezoid(params.pdf(grid), grid)
        assert abs(integral - 1.0) < 1e-6

    def test_wide_sigma_approaches_uniform(self):
        params = TruncatedNormalParams(mode=1.0, sigma=100.0)
        grid = np.linspace(0.0, 1.0, 101)
        np.testing.assert_allclose(params.pdf(grid), 1.0, atol=1e-3)
        # acceptance is far below the rejection threshold: inverse CDF path
        rng = np.random.default_rng(11)
        draws = params.sample(50_000, rng)
        assert draws.min() >= 0.0 and draws.max() <= 1.0
        assert abs(draws.mean() - 0.5) < 0.01

    def test_logpdf_outside_support(self):
        params = TruncatedNormalParams(mode=1.0, sigma=0.5)
        out = params.logpdf(np.array([-0.1, 0.5, 1.1]))
        assert out[0] == -np.inf
        assert np.isfinite(out[1])
        assert out[2] == -np.inf

    def test_fit_uses_mode_and_std(self):
        rng = np.random.default_rng(12)
        samples = rng.lognormal(0.0, 0.5, 20_000)
        params = TruncatedNormalParams.fit(samples)
        np.testing.assert_allclose(params.mode, lognormal_mode(samples))
        np.testing.assert_allclose(params.sigma, samples.std())

    def test_fit_rejects_zero_variance(self):
        with pytest.raises(DegenerateFeatureError):
            TruncatedNormalParams.fit(np.full(10, 3.0))

    def test_invalid_params_rejected(self):
        with pytest.raises(DegenerateFeatureError):
            TruncatedNormalParams(mode=0.0, sigma=1.0)
        with pytest.raises(DegenerateFeatureError):
            TruncatedNormalParams(mode=1.0, sigma=0.0)


class TestGaussianModel:
    def test_standard_normal_at_zero(self):
        model = GaussianModel(np.zeros(1), np.eye(1))
        np.testing.assert_allclose(model.logpdf(np.zeros(1)),
                                   -0.5 * np.log(2 * np.pi), rtol=1e-12)

    def test_identity_cov_at_mean(self):
        d = 5
        model = GaussianModel(np.ones(d), np.eye(d))
        np.testing.assert_allclose(model.logpdf(np.ones(d)),
                                   -(d / 2) * np.log(2 * np.pi), rtol=1e-12)

    def test_monte_carlo_moments(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((3, 3))
        cov = a @ a.T + 0.5 * np.eye(3)
        mean = np.array([1.0, -2.0, 0.5])
        model = GaussianModel(mean, cov)
        draws = model.sample(100_000, rng)
        np.testing.assert_allclose(draws.mean(axis=0), mean,
                                   atol=0.02 * np.sqrt(np.diag(cov)).max())
        emp = np.cov(draws.T, bias=True)
        assert np.abs(emp - cov).max() / np.abs(cov).max() < 0.02

    def test_factor_reproduces_cov(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal((4, 4))
        cov = a @ a.T + np.eye(4)
        model = GaussianModel(np.zeros(4), cov)
        np.testing.assert_allclose(model.factor @ model.factor.T, cov,
                                   atol=1e-8)

    def test_singular_cov_gets_jitter(self):
        cov = np.outer(np.ones(3), np.ones(3))  # rank 1
        model = GaussianModel(np.zeros(3), cov)
        assert np.all(np.isfinite(model.logpdf(np.zeros(3))))

    def test_indefinite_cov_rejected(self):
        cov = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalue -1
        with pytest.raises(NonFiniteError, match="jitter"):
            GaussianModel(np.zeros(2), cov)

    def test_logpdf_against_scipy(self):
        from scipy.stats import multivariate_normal

        rng = np.random.default_rng(15)
        a = rng.standard_normal((4, 4))
        cov = a @ a.T + np.eye(4)
        mean = rng.standard_normal(4)
        model = GaussianModel(mean, cov)
        pts = rng.standard_normal((20, 4))
        np.testing.assert_allclose(
            model.logpdf(pts),
            multivariate_normal(mean=mean, cov=cov).logpdf(pts),
            rtol=1e-10,
        )


class TestAugmentationMargin:
    def test_lognormal_feature_all_margins_nonnegative(self):
        rng = np.random.default_rng(16)
        samples = rng.lognormal(0.0, 0.5, 20_000)
        params = TruncatedNormalParams.fit(samples)
        report = verify_augmentation_margin(samples, params, samples.mean(),
                                     samples.std())
        assert report.ok
        assert report.worst_margin >= 0.0
        assert report.grid.size == 512

    def test_dropping_truncated_term_breaks_margin(self):
        rng = np.random.default_rng(17)
        samples = rng.lognormal(0.0, 0.5, 20_000)
        params = TruncatedNormalParams.fit(samples)
        report = verify_augmentation_margin(
            samples, params, samples.mean(), samples.std(),
            include_truncated_term=False,
        )
        assert report.worst_margin < 0.0

    def test_zero_variance_guarded(self):
        with pytest.raises(DegenerateFeatureError):
            TruncatedNormalParams.fit(np.full(100, 1.0))

    def test_empty_samples_rejected(self):
        params = TruncatedNormalParams(mode=1.0, sigma=1.0)
        with pytest.raises(ShapeError):
            verify_augmentation_margin(np.array([]), params, 1.0, 1.0)

    def test_kde_matches_density_roughly(self):
        rng = np.random.default_rng(18)
        samples = rng.standard_normal(50_000)
        kde = gaussian_kde_silverman(samples)
        grid = np.array([-1.0, 0.0, 1.0])
        true = np.exp(-0.5 * grid**2) / np.sqrt(2 * np.pi)
        np.testing.assert_allclose(kde(grid), true, rtol=0.05)
