"""Composite features, covariance loss, decoupled AE training, PCA."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cance.compress import (
    AeConfig,
    AutoencoderModel,
    PcaModel,
    covariance_loss,
    covariance_loss_grad,
    fit_pca,
    reconstruction_features,
    train_autoencoder,
)
from cance.errors import DegenerateFeatureError, ShapeError


class TestReconstructionFeatures:
    def test_perfect_reconstruction(self):
        x = np.array([[1.0, 2.0, 3.0]])
        z_e, z_c = reconstruction_features(x, x.copy())
        assert z_e[0] == 0.0
        assert z_c[0] == 0.0

    def test_orthogonal_reconstruction(self):
        z_e, z_c = reconstruction_features(
            np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])
        )
        assert z_e[0] == pytest.approx(1.0)  # |(1,-1)|^2 / 2
        assert z_c[0] == pytest.approx(0.5)

    def test_antipodal_reconstruction(self):
        z_e, z_c = reconstruction_features(
            np.array([[1.0, 2.0]]), np.array([[-1.0, -2.0]])
        )
        assert z_c[0] == pytest.approx(1.0)

    def test_zero_norm_policy(self, caplog):
        with caplog.at_level(logging.WARNING):
            z_e, z_c = reconstruction_features(
                np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]])
            )
        assert z_c[0] == 0.5
        assert "zero-norm" in caplog.text

    def test_range_bounds(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((200, 5))
        xr = rng.standard_normal((200, 5))
        z_e, z_c = reconstruction_features(x, xr)
        assert np.all(z_e >= 0)
        assert np.all((z_c >= 0) & (z_c <= 1))


class TestCovarianceLoss:
    def test_diagonal_covariance_gives_zero(self):
        z = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0], [0.0, -2.0]])
        cov = (z - z.mean(0)).T @ (z - z.mean(0)) / 4
        assert abs(cov[0, 1]) < 1e-15
        assert covariance_loss(z) == 0.0

    def test_two_dim_hand_value(self):
        # off-diagonals both equal 2 -> loss = (2*4)/2 = c^2 = 4
        z = np.array([[1.0, 2.0], [-1.0, -2.0]])
        assert covariance_loss(z) == pytest.approx(4.0)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(1)
        z = rng.standard_normal((40, 6))
        cov = np.cov(z.T, bias=True)
        expected = sum(
            cov[i, j] ** 2
            for i in range(6)
            for j in range(6)
            if i != j
        ) / (6 * 5)
        assert abs(covariance_loss(z) - expected) < 1e-12

    def test_needs_two_dims(self):
        with pytest.raises(ShapeError):
            covariance_loss(np.ones((5, 1)))

    @given(st.integers(min_value=0, max_value=2**31 - 1),
           st.floats(min_value=-5, max_value=5))
    @settings(max_examples=50, deadline=None)
    def test_translation_invariance(self, seed, shift):
        z = np.random.default_rng(seed).standard_normal((12, 3))
        assert covariance_loss(z + shift) == pytest.approx(
            covariance_loss(z), abs=1e-10
        )

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal((9, 4))
        grad = covariance_loss_grad(z)
        h = 1e-5
        for i in range(9):
            for j in range(4):
                zp, zm = z.copy(), z.copy()
                zp[i, j] += h
                zm[i, j] -= h
                fd = (covariance_loss(zp) - covariance_loss(zm)) / (2 * h)
                assert abs(fd - grad[i, j]) / max(abs(fd), 1e-8) < 1e-4


@pytest.fixture(scope="module")
def subspace_data():
    rng = np.random.default_rng(3)
    basis = np.linalg.qr(rng.standard_normal((5, 5)))[0][:, :2]
    z = rng.standard_normal((600, 2))
    x = z @ basis.T
    return x[:480], x[480:]


class TestTrainAutoencoder:
    def test_linear_subspace_recovery(self, subspace_data):
        train, val = subspace_data
        config = AeConfig(latent_dim=2, hidden=(), lam=0.0, epochs=400,
                          lr=1e-2, batch_size=128)
        model, history = train_autoencoder(
            train, val, config,
            np.random.default_rng(4), np.random.default_rng(5),
        )
        assert history["stage2_val"][-1] < 1e-3

    def test_large_lambda_decorrelates_latents(self):
        rng = np.random.default_rng(6)
        # strongly correlated 3-d data
        base = rng.standard_normal((600, 3))
        x = base @ np.array([[1.0, 0.9, 0.8], [0.0, 0.4, 0.3], [0.0, 0.0, 0.2]])
        config = AeConfig(latent_dim=3, hidden=(16,), lam=10.0, epochs=200,
                          lr=3e-3, batch_size=128)
        model, _ = train_autoencoder(
            x[:480], x[480:], config,
            np.random.default_rng(7), np.random.default_rng(8),
        )
        latents = model.latents(x[:480])
        assert covariance_loss(latents) < 1e-3

    def test_stage_two_never_touches_encoder(self, subspace_data, monkeypatch):
        train, val = subspace_data
        import cance.compress as compress_module

        state = {}
        original_adamw = compress_module.AdamW
        original_build = AutoencoderModel.build.__func__

        def capture_build(cls, input_dim, cfg, rng):
            model = original_build(cls, input_dim, cfg, rng)
            state["model"] = model
            return model

        monkeypatch.setattr(AutoencoderModel, "build", classmethod(capture_build))

        class BoundaryAdamW(original_adamw):
            """Snapshots the encoder when the decoder-only stage begins."""

            count = 0

            def __init__(self, params, **kwargs):
                super().__init__(params, **kwargs)
                type(self).count += 1
                if type(self).count == 2:
                    encoder = state["model"].encoder
                    state["params"] = [p.tobytes() for p in encoder.parameters()]
                    bn = encoder.layers[-1]
                    state["stats"] = [bn.running_mean.tobytes(),
                                      bn.running_var.tobytes()]

        monkeypatch.setattr(compress_module, "AdamW", BoundaryAdamW)

        config = AeConfig(latent_dim=2, hidden=(4,), lam=0.0, epochs=6,
                          lr=1e-3, batch_size=64)
        model, _ = train_autoencoder(
            train, val, config,
            np.random.default_rng(9), np.random.default_rng(10),
        )
        assert [p.tobytes() for p in model.encoder.parameters()] == state["params"]
        bn = model.encoder.layers[-1]
        assert [bn.running_mean.tobytes(),
                bn.running_var.tobytes()] == state["stats"]

    def test_empty_dataset_rejected(self):
        config = AeConfig(latent_dim=2, hidden=(4,), epochs=2)
        with pytest.raises(ShapeError):
            train_autoencoder(
                np.zeros((0, 3)), np.zeros((2, 3)), config,
                np.random.default_rng(0), np.random.default_rng(0),
            )


class TestCompositePacking:
    def test_packing_order_stable(self):
        rng = np.random.default_rng(11)
        config = AeConfig(latent_dim=3, hidden=(8,), epochs=2)
        model = AutoencoderModel.build(4, config, rng)
        model.encoder.forward(rng.standard_normal((16, 4)), train=True)
        x = rng.standard_normal((5, 4))
        packed = model.composite(x)
        assert packed.shape == (5, 5)
        latents = model.latents(x)
        recon = model.decoder.forward(latents, train=False)
        z_e, z_c = reconstruction_features(x, recon)
        np.testing.assert_array_equal(packed[:, :3], latents)
        np.testing.assert_array_equal(packed[:, 3], z_e)
        np.testing.assert_array_equal(packed[:, 4], z_c)

    def test_composite_feature_single_vector(self):
        rng = np.random.default_rng(12)
        config = AeConfig(latent_dim=2, hidden=(), epochs=2)
        model = AutoencoderModel.build(3, config, rng)
        packed = model.composite(np.array([1.0, 2.0, 3.0]))[0]
        assert packed[:-2].shape == (2,)
        assert packed[-2] >= 0.0
        assert 0.0 <= packed[-1] <= 1.0
        assert packed.shape == (4,)


class TestPca:
    def test_line_data_zero_error(self):
        t = np.linspace(-2, 2, 50)
        x = np.column_stack([t, 3.0 * t])
        model = fit_pca(x, 1)
        z = model.composite(x)
        np.testing.assert_allclose(z[:, 1], 0.0, atol=1e-20)

    def test_orthogonal_offset_arithmetic(self):
        rng = np.random.default_rng(13)
        basis = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        plane, ortho = basis[:, :2], basis[:, 2]
        z = rng.standard_normal((200, 2)) * np.array([3.0, 2.0])
        data = z @ plane.T
        model = fit_pca(data, 2)
        v = 0.7 * ortho
        x = model.mean + v
        feature = model.composite(x)[0]
        np.testing.assert_allclose(feature[:-2], 0.0, atol=1e-10)
        assert feature[-2] == pytest.approx(
            np.dot(v, v) / 4, rel=1e-10
        )

    def test_matches_eigendecomposition_oracle(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((300, 6)) @ rng.standard_normal((6, 6))
        d = 3
        model = fit_pca(x, d)
        # oracle: full dense eigendecomposition of the biased covariance
        mean = x.mean(axis=0)
        centered = x - mean
        eigval, eigvec = np.linalg.eigh(centered.T @ centered / x.shape[0])
        top = eigvec[:, ::-1][:, :d]
        recon_oracle = mean + (centered @ top) @ top.T
        err_oracle = np.sum((x - recon_oracle) ** 2, axis=1) / 6
        np.testing.assert_allclose(model.composite(x)[:, d], err_oracle,
                                   atol=1e-10)

    def test_rank_deficient_rejected_with_rank_in_message(self):
        t = np.linspace(0, 1, 30)
        x = np.column_stack([t, 2 * t, 3 * t])  # rank 1
        with pytest.raises(DegenerateFeatureError, match="rank 1"):
            fit_pca(x, 2)

    def test_d_larger_than_input_rejected(self):
        with pytest.raises(ShapeError):
            fit_pca(np.random.default_rng(15).standard_normal((10, 3)), 4)

    def test_needs_more_rows_than_components(self):
        with pytest.raises(ShapeError):
            fit_pca(np.random.default_rng(16).standard_normal((3, 5)), 3)

    def test_reconstruction_error_nonincreasing_in_d(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((100, 5)) @ rng.standard_normal((5, 5))
        errors = []
        for d in range(1, 5):
            model = fit_pca(x, d)
            errors.append(model.composite(x)[:, d].mean())
        assert all(a >= b - 1e-12 for a, b in zip(errors, errors[1:]))

    def test_components_orthonormal(self):
        rng = np.random.default_rng(18)
        x = rng.standard_normal((80, 4))
        model = fit_pca(x, 3)
        np.testing.assert_allclose(model.components @ model.components.T,
                                   np.eye(3), atol=1e-10)

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(19)
        x = rng.standard_normal((50, 4))
        model = fit_pca(x, 2)
        path = tmp_path / "pca.model"
        model.save(path)
        loaded = PcaModel.load(path)
        np.testing.assert_array_equal(model.mean, loaded.mean)
        np.testing.assert_array_equal(model.components, loaded.components)
        np.testing.assert_array_equal(model.composite(x), loaded.composite(x))
