"""Contrastive loss, noise model, augmentation, adaptation, scoring."""

import tracemalloc

import numpy as np
import pytest

from cance.errors import NonFiniteError, ShapeError
from cance.nce import (
    AugmentationParams,
    NceConfig,
    NoiseModel,
    adapt_noise,
    adnce_objective,
    adnce_psi_grad,
    augment_batch,
    nce_loss,
    nce_loss_and_grads,
    sigmoid,
    train_estimator,
)
from cance.nn.layers import Activation, DenseLayer, Network, copy_state, mlp
from cance.nn.optim import AdamW
from cance.pipeline import load_model, save_model
from cance.stats import GaussianModel


def constant_net(dim, value):
    """Single linear layer that outputs `value` regardless of input."""
    layer = DenseLayer(np.zeros((1, dim)), np.array([value]), Activation.IDENTITY)
    return Network([layer])


@pytest.fixture
def small_problem():
    rng = np.random.default_rng(0)
    dim = 3
    net = mlp([dim, 12, 1], rng)
    data = rng.standard_normal((10, dim))
    base = GaussianModel(data.mean(axis=0), np.cov(data.T, bias=True))
    noise_model = NoiseModel(base, psi=rng.standard_normal(dim) * 0.3, nu=8.0)
    return rng, net, data, noise_model


class TestNceLoss:
    def test_zero_logit_closed_form(self):
        data = np.zeros((4, 2))
        noise = np.zeros((8, 2))
        for nu in (1.0, 8.0):
            loss = nce_loss(constant_net(2, 0.0), data, noise, nu)
            assert loss == pytest.approx((1 + nu) * np.log(2.0))

    def test_perfect_discrimination_limit(self):
        # logit +40 on data, -40 on noise: both loss terms vanish
        layer = DenseLayer(np.array([[40.0]]), np.zeros(1), Activation.IDENTITY)
        net = Network([layer])
        loss = nce_loss(net, np.ones((5, 1)), -np.ones((40, 1)), 8.0)
        assert loss < 1e-10

    def test_empty_batch_rejected(self):
        with pytest.raises(ShapeError):
            nce_loss(constant_net(2, 0.0), np.zeros((0, 2)), np.zeros((3, 2)), 8.0)

    def test_sigmoid_at_zero_is_half(self):
        np.testing.assert_array_equal(sigmoid(np.zeros(3)), 0.5)
        # both tails stay finite, with no overflow warning
        with np.errstate(over="raise"):
            np.testing.assert_array_equal(sigmoid(np.array([-800.0, 800.0])),
                                          [0.0, 1.0])

    def test_loss_and_grads_match_loss(self, small_problem):
        rng, net, data, noise_model = small_problem
        noise = noise_model.transform(noise_model.base.sample(24, rng))
        loss_only = nce_loss(net, data, noise, 8.0)
        loss, _ = nce_loss_and_grads(net, data, noise, 8.0)
        assert loss == loss_only  # one forward and one formula, so the same bits

    def test_gradient_matches_finite_differences(self, small_problem):
        rng, net, data, noise_model = small_problem
        noise = noise_model.transform(noise_model.base.sample(24, rng))
        _, grads = nce_loss_and_grads(net, data, noise, 8.0)
        h = 1e-5
        for pi, p in enumerate(net.parameters()):
            it = np.nditer(p, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                orig = p[idx]
                p[idx] = orig + h
                up = nce_loss(net, data, noise, 8.0)
                p[idx] = orig - h
                down = nce_loss(net, data, noise, 8.0)
                p[idx] = orig
                fd = (up - down) / (2 * h)
                if abs(fd) > 1e-10:
                    assert abs(fd - grads[pi][idx]) / abs(fd) < 1e-4
                it.iternext()

    def test_loss_terms_always_finite(self):
        # extreme logits must not produce inf/nan through the stable forms
        for value in (-500.0, 500.0):
            loss = nce_loss(constant_net(1, value), np.zeros((3, 1)),
                            np.zeros((3, 1)), 8.0)
            assert np.isfinite(loss)


class TestNoiseModel:
    def test_identity_psi_none_is_exact(self, small_problem):
        _, _, data, noise_model = small_problem
        model = NoiseModel(noise_model.base, psi=None, nu=8.0)
        np.testing.assert_array_equal(model.k_diag(), 1.0)
        np.testing.assert_array_equal(model.transform(data), data)

    def test_large_negative_psi_approaches_identity(self):
        rng = np.random.default_rng(1)
        base = GaussianModel(np.array([1.0, -1.0]),
                             np.array([[2.0, 0.3], [0.3, 0.5]]))
        model = NoiseModel(base, psi=np.full(2, -40.0), nu=8.0)
        draws = model.transform(base.sample(100_000, rng))
        emp = np.cov(draws.T, bias=True)
        assert np.abs(emp - base.cov).max() / np.abs(base.cov).max() < 0.02

    def test_zero_psi_scales_std_by_one_plus_ln2(self):
        rng = np.random.default_rng(2)
        base = GaussianModel(np.zeros(2), np.diag([1.0, 4.0]))
        model = NoiseModel(base, psi=np.zeros(2), nu=8.0)
        np.testing.assert_allclose(model.k_diag(), 1.0 + np.log(2.0))
        draws = model.transform(base.sample(200_000, rng))
        np.testing.assert_allclose(
            draws.std(axis=0), (1 + np.log(2)) * np.array([1.0, 2.0]), rtol=0.02
        )

    def test_mean_preserved_for_any_psi(self):
        rng = np.random.default_rng(3)
        base = GaussianModel(np.array([3.0, -2.0]), np.eye(2))
        for psi in (np.zeros(2), np.full(2, 5.0), np.array([-3.0, 4.0])):
            model = NoiseModel(base, psi=psi, nu=8.0)
            draws = model.transform(base.sample(100_000, rng))
            np.testing.assert_allclose(draws.mean(axis=0), base.mean, atol=0.05)

    def test_adapted_gaussian_covariance(self):
        base = GaussianModel(np.zeros(2), np.array([[1.0, 0.5], [0.5, 2.0]]))
        model = NoiseModel(base, psi=np.array([0.0, 1.0]), nu=8.0)
        k = model.k_diag()
        expected = k[:, None] * base.cov * k[None, :]
        np.testing.assert_allclose(model.adapted_gaussian().cov, expected)

    def test_transform_inverse_round_trip(self, small_problem):
        _, _, data, noise_model = small_problem
        back = noise_model.inverse_transform(noise_model.transform(data))
        np.testing.assert_allclose(back, data, atol=1e-12)

    def test_invalid_nu_rejected(self):
        base = GaussianModel(np.zeros(1), np.eye(1))
        with pytest.raises(ValueError):
            NoiseModel(base, psi=None, nu=0.0)


class TestAugmentation:
    @pytest.fixture
    def fitted(self):
        rng = np.random.default_rng(4)
        latents = rng.standard_normal((5000, 3))
        z_e = rng.lognormal(-2.0, 0.6, 5000)
        z_c = rng.lognormal(-3.0, 0.4, 5000)
        composite = np.column_stack([latents, z_e, z_c])
        return rng, composite, AugmentationParams.fit(composite)

    @staticmethod
    def _forced_rng(rng, indicator):
        """Wrap rng so every per-row keep draw equals indicator."""
        class Forced:
            def random(self, size):
                return np.full(size, float(indicator))

            def __getattr__(self, name):
                return getattr(rng, name)
        return Forced()

    def test_forced_replacement_keeps_latents(self, fitted):
        rng, composite, params = fitted
        out = augment_batch(composite, params, self._forced_rng(rng, 1))
        np.testing.assert_array_equal(out[:, :3], composite[:, :3])
        assert np.all((out[:, 3] >= 0) & (out[:, 3] <= params.error_dist.mode))
        assert np.all((out[:, 4] >= 0) & (out[:, 4] <= params.cosine_dist.mode))

    def test_forced_keep_returns_input(self, fitted):
        rng, composite, params = fitted
        out = augment_batch(composite, params, self._forced_rng(rng, 0))
        np.testing.assert_array_equal(out, composite)

    def test_rows_kept_or_redrawn_below_mode(self, fitted):
        rng, composite, params = fitted
        out = augment_batch(composite, params, rng)
        np.testing.assert_array_equal(out[:, :3], composite[:, :3])
        kept = np.all(out == composite, axis=1)
        redrawn = out[~kept]
        assert np.all((redrawn[:, 3] >= 0)
                      & (redrawn[:, 3] <= params.error_dist.mode))
        assert np.all((redrawn[:, 4] >= 0)
                      & (redrawn[:, 4] <= params.cosine_dist.mode))
        assert kept.any() and not kept.all()

    def test_mixture_fraction_is_half(self, fitted):
        rng, composite, params = fitted
        big = np.repeat(composite, 20, axis=0)  # 100k rows
        out = augment_batch(big, params, rng)
        replaced = np.mean(out[:, 3] != big[:, 3])
        assert abs(replaced - 0.5) < 0.01

    def test_unfitted_params_rejected(self, fitted):
        rng, composite, _ = fitted
        with pytest.raises(ValueError):
            augment_batch(composite, None, rng)

    def test_fit_needs_composite_rows(self):
        with pytest.raises(ShapeError):
            AugmentationParams.fit(np.ones((10, 2)))


class TestAdaptNoise:
    def test_psi_gradient_matches_finite_differences(self, small_problem):
        rng, net, data, noise_model = small_problem
        vbase = noise_model.base.sample(24, rng)
        inner = noise_model.inverse_transform(data)
        _, dpsi = adnce_psi_grad(net, noise_model, data, vbase)
        h = 1e-5
        for j in range(noise_model.dim):
            orig = noise_model.psi[j]
            noise_model.psi[j] = orig + h
            up = adnce_objective(net, noise_model, data, vbase, inner)
            noise_model.psi[j] = orig - h
            down = adnce_objective(net, noise_model, data, vbase, inner)
            noise_model.psi[j] = orig
            fd = (up - down) / (2 * h)
            assert abs(fd - dpsi[j]) / max(abs(fd), 1e-10) < 1e-4

    def test_psi_step_objective_is_the_objective(self, small_problem):
        # the negated contrastive loss, bit for bit, on the same pullback
        rng, net, data, noise_model = small_problem
        vbase = noise_model.base.sample(24, rng)
        inner = noise_model.inverse_transform(data)
        objective, _ = adnce_psi_grad(net, noise_model, data, vbase)
        assert objective == adnce_objective(net, noise_model, data, vbase, inner)

    def test_classifier_parameters_untouched(self, small_problem):
        rng, net, data, noise_model = small_problem
        before = [p.tobytes() for p in net.parameters()]
        opt = AdamW([noise_model.psi], lr=1e-2)
        vbase = noise_model.base.sample(24, rng)
        adapt_noise(net, noise_model, opt, data, vbase)
        assert [p.tobytes() for p in net.parameters()] == before

    def test_k_stays_above_one_under_pressure(self, small_problem):
        rng, net, data, noise_model = small_problem
        opt = AdamW([noise_model.psi], lr=0.5)
        for _ in range(50):
            vbase = noise_model.base.sample(24, rng)
            adapt_noise(net, noise_model, opt, data, vbase)
        assert np.all(noise_model.k_diag() >= 1.0)

    def test_identity_noise_has_nothing_to_adapt(self, small_problem):
        rng, net, data, noise_model = small_problem
        frozen = NoiseModel(noise_model.base, psi=None, nu=8.0)
        with pytest.raises(ValueError):
            adnce_psi_grad(net, frozen, data, frozen.base.sample(8, rng))


class TestTrainEstimator:
    def test_gaussian_log_odds_recovery(self):
        # estimator trained on N(0,1) against N(0,4) noise approaches the
        # analytic log odds at the origin
        rng_data = np.random.default_rng(100)
        data = rng_data.standard_normal((8000, 1))
        noise = NoiseModel(GaussianModel(np.zeros(1), 4.0 * np.eye(1)),
                           psi=None, nu=8.0)
        config = NceConfig(widths=(64, 64), nu=8.0, lr=2e-3, epochs=25,
                           batch_size=512, augmentation=False,
                           adapt_noise=False)
        model, _ = train_estimator(
            data[:6400], data[6400:], config,
            np.random.default_rng(101), np.random.default_rng(102),
            np.random.default_rng(103), noise_model=noise,
        )
        t0 = model.log_odds(np.zeros((1, 1)))[0]
        assert t0 == pytest.approx(np.log(0.25), abs=0.15)
        s0 = model.score(np.zeros((1, 1)))[0]
        assert s0 == pytest.approx(0.5 * np.log(2 * np.pi), abs=0.15)

    @pytest.mark.parametrize("adapt, bound", [(True, 0.24), (False, 0.12)],
                             ids=["adapted", "base"])
    def test_scores_recover_negative_log_density(self, adapt, bound):
        """S(z) ~ -ln p(z) on the bulk of a 2-D correlated Gaussian, with
        the default widths and nu and no augmentation (about 1 s + 0.6 s).

        Measured mean |S + ln p|: 0.080 adapted (K ended at 1.63, 1.77) and
        0.041 base. Each bound is 3x its measurement; over data seeds 1-5 the
        errors ran 0.089-0.199 and 0.039-0.053. Scoring the adapted fit with
        the base noise gives 0.76, widening the covariance by diag(k) once
        instead of on both sides 0.44, and dropping ln nu 2.1 (both fits).
        """
        truth = GaussianModel(np.array([0.5, -1.0]), np.array([[1.0, 0.6],
                                                               [0.6, 0.8]]))
        data = truth.sample(4000, np.random.default_rng(0))
        points = truth.sample(4000, np.random.default_rng(1000))
        # within Mahalanobis distance 1.5 of the mean
        bulk = points[truth.logpdf(points) > truth.logpdf(truth.mean) - 1.125][:1000]
        config = NceConfig(widths=(64, 64), nu=8.0, lr=2e-3, epochs=20,
                           batch_size=256, augmentation=False, adapt_noise=adapt)
        model, _ = train_estimator(data[:3200], data[3200:], config,
                                   *(np.random.default_rng(i) for i in range(3)))
        assert np.all(model.noise.k_diag() > 1.5) if adapt else model.noise.psi is None
        assert np.mean(np.abs(model.score(bulk) + truth.logpdf(bulk))) < bound

    def test_vanilla_degeneration_with_adapt_off(self):
        rng = np.random.default_rng(104)
        data = rng.standard_normal((400, 2))
        config = NceConfig(widths=(8,), epochs=3, batch_size=128,
                           augmentation=False, adapt_noise=False)
        model, _ = train_estimator(
            data[:320], data[320:], config,
            np.random.default_rng(105), np.random.default_rng(106),
            np.random.default_rng(107),
        )
        assert model.noise.psi is None
        np.testing.assert_array_equal(model.noise.k_diag(), 1.0)

    def test_augmented_scores_low_error_region_as_normal(self):
        # artificial rows with lowered reconstruction features must not score
        # higher than rows with inflated errors at the same latents
        rng = np.random.default_rng(108)
        n = 3000
        latents = rng.standard_normal((n, 2))
        z_e = rng.lognormal(-2.0, 0.5, n)
        z_c = rng.lognormal(-3.0, 0.5, n)
        composite = np.column_stack([latents, z_e, z_c])
        config = NceConfig(widths=(32, 32), epochs=30, lr=2e-3,
                           batch_size=256, augmentation=True,
                           adapt_noise=False)
        model, history = train_estimator(
            composite[:2400], composite[2400:], config,
            np.random.default_rng(109), np.random.default_rng(110),
            np.random.default_rng(111),
        )
        assert all(v >= 0 for v in history["augmentation_margins"].values())
        aug = AugmentationParams.fit(composite[:2400])
        low = composite[:500].copy()
        low_rng = np.random.default_rng(112)
        low[:, -2] = aug.error_dist.sample(500, low_rng)
        low[:, -1] = aug.cosine_dist.sample(500, low_rng)
        high = composite[:500].copy()
        high[:, 2] = np.quantile(composite[:2400, 2], 0.95) * 2.0
        assert model.score(low).mean() <= model.score(high).mean()

    def test_divergence_returns_last_checkpoint(self, caplog):
        import logging

        rng = np.random.default_rng(113)
        data = rng.standard_normal((300, 2))
        config = NceConfig(widths=(8,), epochs=6, lr=1e12, batch_size=64,
                           augmentation=False, adapt_noise=False)
        with caplog.at_level(logging.WARNING), np.errstate(all="ignore"):
            model, history = train_estimator(
                data[:240], data[240:], config,
                np.random.default_rng(114), np.random.default_rng(115),
                np.random.default_rng(116),
            )
        assert np.all(np.isfinite(model.score(data[:5])))

    def test_validation_forward_error_is_divergence(self, monkeypatch, caplog):
        import logging

        import cance.nce as nce_module

        seen = {"net": [], "opt_params": []}
        original_loss = nce_module.nce_loss
        original_adamw = nce_module.AdamW

        def failing_loss(net, *args):  # validation: one call per epoch
            if len(seen["net"]) == 3:
                raise NonFiniteError("non-finite values in dense layer output")
            seen["net"].append(copy_state(net.state()))
            return original_loss(net, *args)

        class RecordingAdamW(original_adamw):
            def __init__(self, params, **kwargs):
                super().__init__(params, **kwargs)
                seen["opt_params"].append(list(params))

        rng = np.random.default_rng(117)
        data = rng.standard_normal((300, 3))
        config = NceConfig(widths=(8,), epochs=6, lr=1e-2, batch_size=64,
                           augmentation=False, adapt_noise=True, warmup_frac=0.0)
        with monkeypatch.context() as patch, caplog.at_level(logging.WARNING):
            patch.setattr(nce_module, "nce_loss", failing_loss)
            patch.setattr(nce_module, "AdamW", RecordingAdamW)
            model, history = train_estimator(
                data[:240], data[240:], config,
                np.random.default_rng(118), np.random.default_rng(119),
                np.random.default_rng(120),
            )
        assert history["diverged_at_epoch"] == 3
        assert len(history["val_loss"]) == 3
        best = history["best_epoch"]
        assert history["best_val_loss"] == history["val_loss"][best]
        assert "diverged at epoch 3" in caplog.text
        final = model.net.state()
        for name, arr in seen["net"][best].items():
            assert final[name].tobytes() == arr.tobytes(), name
        opt_theta, opt_psi = seen["opt_params"]
        assert all(a is b for a, b in zip(opt_theta, model.net.parameters()))
        assert opt_psi[0] is model.noise.psi
        assert np.all(np.isfinite(model.score(data[:5])))

    @pytest.mark.parametrize("augmentation", [False, True])
    @pytest.mark.parametrize("n_train,n_val", [(0, 5), (20, 0)])
    def test_empty_data_rejected(self, augmentation, n_train, n_val):
        rng = np.random.default_rng(121)
        config = NceConfig(widths=(4,), epochs=2, augmentation=augmentation)
        rngs = [np.random.default_rng(i) for i in range(3)]
        with pytest.raises(ShapeError, match="empty training or validation data"):
            train_estimator(rng.random((n_train, 4)), rng.random((n_val, 4)),
                            config, *rngs)

    def test_fit_leaves_no_work_arrays(self, holds_no_work_arrays):
        rng = np.random.default_rng(124)
        data = rng.standard_normal((300, 3))
        config = NceConfig(widths=(8,), epochs=2, batch_size=64,
                           augmentation=False, adapt_noise=True, warmup_frac=0.0)
        model, _ = train_estimator(data[:240], data[240:], config,
                                   *(np.random.default_rng(i) for i in range(3)))
        assert holds_no_work_arrays(model.net)

    def test_training_memory_is_bounded(self):
        """One offplane-shaped fit: 1280 x 4 composites, steps of 256 data
        and 2048 noise rows through widths (64, 64), augmentation and psi on.

        Measured: 6.6 MiB traced peak with the layers' reused buffers, the
        KDE margin summed in blocks and validation in one stacked forward
        (7.4 MiB with separate data and noise forwards); 15.0 MiB with fresh
        step arrays and the KDE's three 512 x 1280 arrays at once.
        """
        rng = np.random.default_rng(125)
        composite = np.column_stack([rng.standard_normal((1600, 2)),
                                     rng.lognormal(-2.0, 0.5, 1600),
                                     rng.lognormal(-3.0, 0.5, 1600)])
        config = NceConfig(widths=(64, 64), nu=8.0, epochs=2, batch_size=256,
                           augmentation=True, adapt_noise=True, warmup_frac=0.0)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            train_estimator(composite[:1280], composite[1280:], config,
                            *(np.random.default_rng(i) for i in range(3)))
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_theta_and_psi_updates_are_disjoint(self, small_problem):
        rng, net, data, noise_model = small_problem
        psi_before = noise_model.psi.copy()
        noise = noise_model.transform(noise_model.base.sample(24, rng))
        _, grads = nce_loss_and_grads(net, data, noise, 8.0)
        AdamW(net.parameters(), lr=1e-3).step(net.parameters(), grads)
        np.testing.assert_array_equal(noise_model.psi, psi_before)


@pytest.fixture(scope="module")
def trained():
    rng = np.random.default_rng(120)
    data = rng.standard_normal((600, 2))
    config = NceConfig(widths=(16,), epochs=5, batch_size=128,
                       augmentation=False, adapt_noise=True)
    return train_estimator(
        data[:480], data[480:], config,
        np.random.default_rng(121), np.random.default_rng(122),
        np.random.default_rng(123),
    )[0]


class TestScoring:
    def test_score_definition(self, trained):
        z = np.array([[0.3, -0.4]])
        t = trained.log_odds(z)[0]
        log_noise = trained.noise.adapted_gaussian().logpdf(z)[0]
        expected = -(t + np.log(8.0) + log_noise)
        assert trained.score(z[0])[0] == pytest.approx(expected, rel=1e-12)

    def test_score_deterministic_bitwise(self, trained):
        z = np.random.default_rng(124).standard_normal((7, 2))
        assert trained.score(z).tobytes() == trained.score(z).tobytes()

    def test_dim_mismatch_rejected(self, trained):
        with pytest.raises(ShapeError):
            trained.score(np.zeros((2, 5)))

    def test_save_load_round_trip_scores(self, trained, tmp_path):
        path = tmp_path / "estimator.model"
        save_model(path, trained)
        loaded, _ = load_model(path, "estimator")
        z = np.random.default_rng(125).standard_normal((11, 2))
        np.testing.assert_array_equal(trained.score(z), loaded.score(z))

    def test_translation_equivariance_with_retraining(self):
        # shifting data and query by a constant leaves scores nearly
        # unchanged because the noise base shifts its mean accordingly
        def train_and_score(shift):
            rng = np.random.default_rng(126)
            data = rng.standard_normal((4000, 1)) + shift
            config = NceConfig(widths=(32, 32), epochs=20, lr=2e-3,
                               batch_size=256, augmentation=False,
                               adapt_noise=False)
            model, _ = train_estimator(
                data[:3200], data[3200:], config,
                np.random.default_rng(127), np.random.default_rng(128),
                np.random.default_rng(129),
            )
            grid = np.linspace(-1.5, 1.5, 11)[:, None] + shift
            return model.score(grid)

        base = train_and_score(0.0)
        shifted = train_and_score(10.0)
        assert np.abs(base - shifted).mean() < 0.1
