"""Dense-network engine: forward/backward correctness, AdamW, batch norm."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import cance
from cance.compress import AeConfig, AutoencoderModel
from cance.errors import ConfigError, NonFiniteError, ShapeError
from cance.machine import Helper
from cance.nn.layers import (
    SPLIT_ROWS,
    Activation,
    BatchNormLayer,
    DenseLayer,
    Network,
    copy_state,
    mlp,
    split_row,
)
from cance.nn.optim import AdamW, fit_epochs


def finite_difference_param_grads(net, x, upstream, h=1e-5):
    """Central-difference gradient of sum(forward(x) * upstream) per parameter."""
    grads = []
    for p in net.parameters():
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + h
            up = float((net.forward(x) * upstream).sum())
            p[idx] = orig - h
            down = float((net.forward(x) * upstream).sum())
            p[idx] = orig
            g[idx] = (up - down) / (2 * h)
            it.iternext()
        grads.append(g)
    return grads


def assert_grads_close(analytic, numeric, rel=1e-4):
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.abs(n), 1e-8)
        np.testing.assert_array_less(np.abs(a - n) / denom, rel)


class TestDenseForward:
    def test_identity_layer_passes_input_through(self):
        layer = DenseLayer(np.eye(3), np.zeros(3), Activation.IDENTITY)
        x = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(layer.forward(x), x)

    def test_two_layer_net_matches_matrix_arithmetic(self):
        rng = np.random.default_rng(7)
        w1 = rng.standard_normal((5, 3))
        b1 = rng.standard_normal(5)
        w2 = rng.standard_normal((2, 5))
        b2 = rng.standard_normal(2)
        net = Network([
            DenseLayer(w1, b1, Activation.TANH),
            DenseLayer(w2, b2, Activation.IDENTITY),
        ])
        x = rng.standard_normal((8, 3))
        expected = np.tanh(x @ w1.T + b1) @ w2.T + b2
        np.testing.assert_allclose(net.forward(x), expected, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        layer = DenseLayer(np.eye(3), np.zeros(3), Activation.IDENTITY)
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((2, 4)))

    def test_nonfinite_output_rejected(self):
        layer = DenseLayer(np.full((1, 1), 1e308), np.zeros(1), Activation.IDENTITY)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            Network([layer]).forward(np.full((1, 1), 1e308))

    @pytest.mark.parametrize("train", [False, True])
    @pytest.mark.parametrize("batch_norm", [False, True])
    def test_nan_weight_in_a_hidden_layer_rejected(self, train, batch_norm):
        # only the network output is checked; a NaN must reach it
        net = mlp([3, 6, 5, 2], np.random.default_rng(0))
        if batch_norm:
            net = Network(net.layers + [BatchNormLayer(2)])
        net.layers[1].weights[2, 4] = np.nan
        x = np.random.default_rng(1).standard_normal((8, 3))
        with pytest.raises(NonFiniteError, match="network output"):
            net.forward(x, train=train)

    @pytest.mark.parametrize("train", [False, True])
    @pytest.mark.parametrize("batch_norm", [False, True])
    def test_inf_at_an_identity_layer_rejected(self, train, batch_norm):
        # the identity output layer overflows; batch norm after it (as in
        # the encoder) turns the inf into inf or NaN, never a finite value
        hidden = DenseLayer(np.eye(2), np.zeros(2), Activation.TANH)
        out = DenseLayer(np.full((2, 2), 1e308), np.zeros(2), Activation.IDENTITY)
        layers = [hidden, out] + ([BatchNormLayer(2)] if batch_norm else [])
        x = np.array([[3.0, 4.0], [5.0, 3.0]])  # tanh > 0.99: sums pass 1.8e308
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteError, match="network output"):
            Network(layers).forward(x, train=train)

    @pytest.mark.parametrize("activation", list(Activation))
    def test_eval_forward_is_pure_and_matches_train(self, activation):
        rng = np.random.default_rng(5)
        layer = DenseLayer.glorot(3, 6, activation, rng)
        layer.bias = rng.standard_normal(6)
        x = rng.standard_normal((9, 3))
        x_before = x.copy()
        evaluated = layer.forward(x, train=False)
        assert layer._x is None and layer._post is None
        assert x.tobytes() == x_before.tobytes()
        trained = layer.forward(x, train=True)
        assert evaluated.tobytes() == trained.tobytes()
        assert x.tobytes() == x_before.tobytes()

    def test_mlp_has_tanh_hidden_layers_and_identity_output(self):
        net = mlp([3, 8, 5, 1], np.random.default_rng(0))
        assert [layer.activation for layer in net.layers] == [
            Activation.TANH, Activation.TANH, Activation.IDENTITY]

    def test_forward_deterministic(self):
        rng = np.random.default_rng(0)
        net = mlp([3, 8, 1], rng)
        x = rng.standard_normal((4, 3))
        np.testing.assert_array_equal(net.forward(x), net.forward(x))


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(1)
        net = mlp([3, 6, 2], rng)
        out = net.forward(rng.standard_normal((5, 3)), train=True)
        net.backward(np.zeros_like(out))
        for g in net.gradients():
            np.testing.assert_array_equal(g, 0.0)

    def test_linear_layer_quadratic_loss_closed_form(self):
        # loss = |Wx - y|^2 for a single sample: dL/dW = 2(Wx - y) x^T
        rng = np.random.default_rng(2)
        w = rng.standard_normal((2, 3))
        layer = DenseLayer(w, np.zeros(2), Activation.IDENTITY)
        x = rng.standard_normal((1, 3))
        y = rng.standard_normal((1, 2))
        out = layer.forward(x, train=True)
        layer.backward(2.0 * (out - y))
        expected = 2.0 * (w @ x[0] - y[0])[:, None] @ x
        np.testing.assert_allclose(layer.grad_weights, expected, atol=1e-12)

    def test_backward_without_forward_raises(self):
        layer = DenseLayer(np.eye(2), np.zeros(2), Activation.IDENTITY)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 2)))

    @pytest.mark.parametrize("activation", list(Activation))
    def test_dense_gradients_match_finite_differences(self, activation):
        rng = np.random.default_rng(3)
        net = Network([
            DenseLayer.glorot(4, 6, activation, rng),
            DenseLayer.glorot(6, 2, Activation.IDENTITY, rng),
        ])
        x = rng.standard_normal((7, 4)) + 0.05
        upstream = rng.standard_normal((7, 2))
        net.forward(x, train=True)
        net.backward(upstream)
        analytic = [g.copy() for g in net.gradients()]
        numeric = finite_difference_param_grads(net, x, upstream)
        assert_grads_close(analytic, numeric)

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        net = mlp([3, 8, 1], rng)
        x = rng.standard_normal((5, 3))
        net.forward(x, train=True)
        dx = net.backward(np.ones((5, 1)))
        h = 1e-5
        for i in range(5):
            for j in range(3):
                xp, xm = x.copy(), x.copy()
                xp[i, j] += h
                xm[i, j] -= h
                fd = (net.forward(xp).sum() - net.forward(xm).sum()) / (2 * h)
                assert abs(fd - dx[i, j]) / max(abs(fd), 1e-8) < 1e-4


def reference_dense_pass(layer, x, upstream):
    """The former train forward and full backward, formula for formula:
    (output, grad_weights, grad_bias, input gradient)."""
    pre = x @ layer.weights.T
    pre += layer.bias
    act = layer.activation
    if act is Activation.IDENTITY:
        post, deriv = pre, np.ones_like(pre)
    else:
        post = np.tanh(pre)
        deriv = 1.0 - post * post
    dpre = upstream * deriv
    return post, dpre.T @ x, dpre.sum(axis=0), dpre @ layer.weights


def bn_dense_net(rng):
    return Network([
        DenseLayer.glorot(4, 8, Activation.TANH, rng),
        BatchNormLayer(8),
        DenseLayer.glorot(8, 6, Activation.TANH, rng),
        DenseLayer.glorot(6, 1, Activation.IDENTITY, rng),
    ])


class TestBackwardModes:
    @pytest.mark.parametrize("out_dim", [6, 1])
    @pytest.mark.parametrize("activation", list(Activation))
    def test_dense_pass_matches_former_formulas_bit_for_bit(self, activation,
                                                           out_dim):
        rng = np.random.default_rng(11)
        layer = DenseLayer.glorot(64, out_dim, activation, rng)
        layer.bias = rng.standard_normal(out_dim)
        x = rng.standard_normal((300, 64))
        upstream = rng.standard_normal((300, out_dim))
        post, gw, gb, dx = reference_dense_pass(layer, x, upstream)
        assert layer.forward(x, train=True).tobytes() == post.tobytes()
        assert layer.backward(upstream).tobytes() == dx.tobytes()
        assert layer.grad_weights.tobytes() == gw.tobytes()
        assert layer.grad_bias.tobytes() == gb.tobytes()

    def test_saturated_tanh_width_one_input_gradient_matches_gemm(self):
        # post == +-1 gives zero derivatives, so the broadcast's products
        # are -0.0 wherever upstream is negative; the GEMM gives +0.0
        rng = np.random.default_rng(14)
        layer = DenseLayer(np.full((1, 3), 1e3), np.zeros(1), Activation.TANH)
        x = rng.standard_normal((50, 3))
        upstream = rng.standard_normal((50, 1))
        post, _, _, dx = reference_dense_pass(layer, x, upstream)
        assert np.all(np.abs(post) == 1.0) and np.any(upstream < 0)
        layer.forward(x, train=True)
        assert layer.backward(upstream).tobytes() == dx.tobytes()

    def test_input_only_backward_matches_full_backward(self):
        rng = np.random.default_rng(12)
        net = bn_dense_net(rng)
        x = rng.standard_normal((32, 4))
        upstream = rng.standard_normal((32, 1))
        net.forward(x, train=True)
        full = net.backward(upstream).copy()  # a view of the network's scratch
        grads = net.gradients()
        net.forward(x, train=True)
        input_only = net.backward(upstream, param_grads=False)
        assert input_only.tobytes() == full.tobytes()
        # the parameter gradients are those of the full backward, untouched
        assert all(a is b for a, b in zip(net.gradients(), grads))

    def test_params_only_backward_matches_full_backward(self):
        rng = np.random.default_rng(13)
        net = bn_dense_net(rng)
        x = rng.standard_normal((32, 4))
        upstream = rng.standard_normal((32, 1))
        net.forward(x, train=True)
        net.backward(upstream)
        full = [g.copy() for g in net.gradients()]
        net.forward(x, train=True)
        assert net.backward(upstream, input_grad=False) is None
        for a, b in zip(net.gradients(), full):
            assert a.tobytes() == b.tobytes()


def reference_network_pass(net, x, upstream):
    """A train forward and full backward through fresh arrays, with the
    former dense formulas: (output, parameter gradients, input gradient).
    Batch-norm layers run on copies, so `net` keeps its running statistics."""
    layers = [
        layer if isinstance(layer, DenseLayer)
        else BatchNormLayer.from_state(layer.spec(), copy_state(layer.state()))
        for layer in net.layers
    ]
    inputs = []
    for layer in layers:
        inputs.append(x)
        if isinstance(layer, DenseLayer):
            x = reference_dense_pass(layer, x, np.zeros((len(x), layer.out_dim)))[0]
        else:
            x = layer.forward(x, train=True)
    output, grads = x, []
    for layer, x in zip(reversed(layers), reversed(inputs)):
        if isinstance(layer, DenseLayer):
            _, gw, gb, upstream = reference_dense_pass(layer, x, upstream)
            grads = [gw, gb] + grads
        else:
            upstream = layer.backward(upstream)
            grads = layer.gradients() + grads
    return output, grads, upstream


def training_networks():
    rng = np.random.default_rng(15)
    ae = AutoencoderModel.build(8, AeConfig(latent_dim=2, hidden=(64, 32)), rng)
    return {"estimator": mlp([4, 64, 64, 1], rng), "encoder": ae.encoder,
            "decoder": ae.decoder}


class TestWorkBuffers:
    """Train-mode passes write into buffers each network keeps between calls;
    the bits are those of fresh arrays."""

    @pytest.mark.parametrize("name", ["estimator", "encoder", "decoder"])
    def test_train_pass_matches_fresh_arrays_at_uneven_rows(self, name):
        net = training_networks()[name]
        rng = np.random.default_rng(16)
        # the last two calls reuse buffers grown by the 2305-row call
        for rows in (41, 257, 2305, 41, 257):
            x = rng.standard_normal((rows, net.in_dim))
            upstream = rng.standard_normal((rows, net.out_dim))
            output, grads, dx = reference_network_pass(net, x, upstream)
            assert net.forward(x, train=True).tobytes() == output.tobytes()
            assert net.backward(upstream).tobytes() == dx.tobytes()
            for got, want in zip(net.gradients(), grads):
                assert got.tobytes() == want.tobytes()

    def test_train_outputs_and_input_gradient_are_reused_views(self):
        net = training_networks()["estimator"]
        x = np.random.default_rng(17).standard_normal((64, 4))
        first = net.forward(x, train=True)
        dx = net.backward(np.ones((64, 1)))
        assert net.forward(x[:32], train=True).base is first.base
        assert net.backward(np.ones((32, 1))).base is dx.base
        assert net.forward(x, train=False).base is not first.base

    def test_second_backward_needs_a_new_forward(self):
        net = training_networks()["estimator"]
        x = np.random.default_rng(18).standard_normal((16, 4))
        net.forward(x, train=True)
        net.backward(np.ones((16, 1)))
        with pytest.raises(RuntimeError, match="without a cached train-mode forward"):
            net.backward(np.ones((16, 1)))


class TestBatchNorm:
    def test_constant_column_zeros_out(self):
        bn = BatchNormLayer(3)
        x = np.ones((6, 3)) * 4.2
        np.testing.assert_array_equal(bn.forward(x, train=True), 0.0)

    def test_plus_minus_one_batch(self):
        bn = BatchNormLayer(2)
        x = np.array([[-1.0, -1.0], [1.0, 1.0]])
        out = bn.forward(x, train=True)
        np.testing.assert_allclose(out, x, atol=1e-6)

    def test_eval_mode_identity_with_unit_stats(self):
        bn = BatchNormLayer(3)
        x = np.random.default_rng(5).standard_normal((4, 3))
        np.testing.assert_allclose(bn.forward(x, train=False), x, atol=1e-9)

    def test_eval_mode_uses_only_frozen_statistics(self):
        rng = np.random.default_rng(6)
        bn = BatchNormLayer(3)
        bn.forward(rng.standard_normal((32, 3)) * 2 + 1, train=True)
        frozen_mean = bn.running_mean.copy()
        frozen_var = bn.running_var.copy()
        x = rng.standard_normal((5, 3))
        out = bn.forward(x, train=False)
        expected = (x - frozen_mean) / np.sqrt(np.maximum(frozen_var, bn.epsilon))
        np.testing.assert_allclose(out, expected, atol=1e-12)
        np.testing.assert_array_equal(bn.running_mean, frozen_mean)

    def test_train_mode_normalizes_exactly(self):
        rng = np.random.default_rng(7)
        bn = BatchNormLayer(5)
        out = bn.forward(rng.standard_normal((128, 5)) * 3 - 2, train=True)
        assert np.abs(out.mean(axis=0)).max() < 1e-10
        assert np.abs(out.var(axis=0) - 1.0).max() < 1e-6

    def test_single_row_train_batch_rejected(self):
        with pytest.raises(ShapeError):
            BatchNormLayer(2).forward(np.zeros((1, 2)), train=True)

    def test_running_stats_momentum_update(self):
        bn = BatchNormLayer(1, momentum=0.1)
        x = np.array([[0.0], [2.0]])  # mean 1, biased var 1
        bn.forward(x, train=True)
        np.testing.assert_allclose(bn.running_mean, [0.1])
        np.testing.assert_allclose(bn.running_var, [0.9 * 1.0 + 0.1 * 1.0])

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((6, 3))
        upstream = rng.standard_normal((6, 3))
        bn = BatchNormLayer(3)
        bn.gamma = rng.standard_normal(3)
        bn.beta = rng.standard_normal(3)
        bn.forward(x, train=True)
        dx = bn.backward(upstream)
        h = 1e-5

        def loss(xv, gamma, beta):
            probe = BatchNormLayer(3)
            probe.gamma, probe.beta = gamma, beta
            return float((probe.forward(xv, train=True) * upstream).sum())

        for i in range(6):
            for j in range(3):
                xp, xm = x.copy(), x.copy()
                xp[i, j] += h
                xm[i, j] -= h
                fd = (loss(xp, bn.gamma, bn.beta) - loss(xm, bn.gamma, bn.beta)) / (2 * h)
                assert abs(fd - dx[i, j]) / max(abs(fd), 1e-8) < 1e-4
        for j in range(3):
            gp, gm = bn.gamma.copy(), bn.gamma.copy()
            gp[j] += h
            gm[j] -= h
            fd = (loss(x, gp, bn.beta) - loss(x, gm, bn.beta)) / (2 * h)
            assert abs(fd - bn.grad_gamma[j]) / max(abs(fd), 1e-8) < 1e-4


class TestAdamW:
    def test_zero_grad_no_decay_leaves_params(self):
        params = [np.array([1.0, -2.0])]
        opt = AdamW(params, lr=0.1)
        opt.step(params, [np.zeros(2)])
        np.testing.assert_array_equal(params[0], [1.0, -2.0])

    def test_quadratic_converges(self):
        w = [np.array([1.0])]
        opt = AdamW(w, lr=0.05)
        for _ in range(200):
            opt.step(w, [2.0 * w[0]])
        assert abs(w[0][0]) < 1e-2

    def test_nonfinite_gradient_rejected(self):
        params = [np.zeros(2)]
        opt = AdamW(params, lr=0.1)
        with pytest.raises(NonFiniteError):
            opt.step(params, [np.array([np.nan, 0.0])])

    def test_step_count_increases(self):
        params = [np.zeros(2)]
        opt = AdamW(params, lr=0.1)
        for expected in (1, 2, 3):
            opt.step(params, [np.ones(2)])
            assert opt.step_count == expected


class TestDeterminism:
    def test_same_seed_same_network(self):
        a = mlp([4, 8, 1], np.random.default_rng(11))
        b = mlp([4, 8, 1], np.random.default_rng(11))
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa, pb)

    def test_training_step_deterministic(self):
        def run():
            rng = np.random.default_rng(12)
            net = mlp([3, 6, 1], rng)
            opt = AdamW(net.parameters(), lr=1e-3)
            x = rng.standard_normal((16, 3))
            for _ in range(5):
                out = net.forward(x, train=True)
                net.backward(2 * out / out.size)
                opt.step(net.parameters(), net.gradients())
            return copy_state(net.state())

        a, b = run(), run()
        assert list(a) == list(b) == ["0.weights", "0.bias", "1.weights", "1.bias"]
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])


class TestFitEpochs:
    """The one training loop: batches, checkpoints and divergence."""

    @staticmethod
    def run(losses_by_epoch, epochs=4, n=10, batch_size=4, best_loss=np.inf,
            step_error_at=None):
        """Train a one-array `state` whose value becomes 10 + epoch in each
        epoch's steps; validation returns losses_by_epoch[epoch]."""
        state = {"w": np.zeros(2)}
        live = state["w"]
        calls = []

        def step(epoch, rows):
            if epoch == step_error_at:
                raise NonFiniteError("non-finite gradient passed to AdamW")
            calls.append((epoch, rows.tolist()))
            live[:] = 10.0 + epoch

        losses = []
        out = fit_epochs(epochs, n, batch_size, np.random.default_rng(3), step,
                         lambda: losses_by_epoch[calls[-1][0]], state, losses,
                         best_loss=best_loss)
        assert state["w"] is live  # restored in place
        return out, live, losses, calls

    def test_one_permutation_per_epoch_in_consecutive_slices(self):
        _, _, _, calls = self.run([3.0, 2.0, 1.0, 0.5], epochs=2)
        rng = np.random.default_rng(3)
        expected = []
        for epoch in range(2):
            order = rng.permutation(10).tolist()
            expected += [(epoch, order[0:4]), (epoch, order[4:8]), (epoch, order[8:])]
        assert calls == expected

    def test_best_checkpoint_written_back(self):
        out, live, losses, _ = self.run([3.0, 1.0, 2.0, 4.0])
        assert out == (1.0, 1, None)
        assert losses == [3.0, 1.0, 2.0, 4.0]
        assert live.tolist() == [11.0, 11.0]

    def test_starting_state_kept_when_no_epoch_beats_it(self):
        out, live, losses, _ = self.run([3.0, 1.0, 2.0, 4.0], best_loss=0.5)
        assert out == (0.5, None, None)
        assert live.tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_validation_loss_ends_training(self, bad, caplog):
        out, live, losses, calls = self.run([3.0, 1.0, bad, 0.1])
        assert out == (1.0, 1, 2)
        assert losses == [3.0, 1.0]
        assert calls[-1][0] == 2
        assert live.tolist() == [11.0, 11.0]
        assert "diverged at epoch 2" in caplog.text

    def test_step_error_ends_training(self):
        out, live, losses, calls = self.run([3.0, 1.0, 2.0, 0.1], step_error_at=3)
        assert out == (1.0, 1, 3)
        assert losses == [3.0, 1.0, 2.0]
        assert live.tolist() == [11.0, 11.0]

    def test_divergence_without_finite_checkpoint_raises(self):
        with pytest.raises(NonFiniteError, match="before any finite checkpoint"):
            self.run([np.nan, 1.0])
        with pytest.raises(NonFiniteError, match="before any finite checkpoint"):
            self.run([1.0], step_error_at=0)

    def test_zero_epochs_keep_the_starting_state(self):
        out, live, losses, calls = self.run([], epochs=0)
        assert out == (np.inf, None, None)
        assert (losses, calls) == ([], [])
        assert live.tolist() == [0.0, 0.0]


class TestLayerErrors:
    def test_momentum_out_of_range_is_a_config_error(self):
        with pytest.raises(ConfigError, match="momentum"):
            BatchNormLayer(2, momentum=1.5)

    def test_empty_network_is_a_shape_error(self):
        with pytest.raises(ShapeError, match="at least one layer"):
            Network([])

    def test_mlp_without_output_dim_is_a_shape_error(self):
        with pytest.raises(ShapeError, match="input and output dims"):
            mlp([3], np.random.default_rng(0))


# (input dim, hidden width) of the classifiers that tier-1 and the bench
# split: the bench's composites (dim 4), criterion 3 (dim 1), the density
# test (dim 2), and the narrower widths of the NCE unit tests
CLASSIFIER_SHAPES = ((1, 64), (2, 64), (4, 64), (4, 32), (4, 16))


def split_rule_mismatches(rows=range(SPLIT_ROWS, 6145, 32)) -> list:
    """(product, rows) for each row count at which a product of a classifier
    step that `Network` splits at `split_row` gives other bits than the
    whole product: the forwards d->w, w->w and w->1 (x @ W.T, as in
    `DenseLayer.forward`) and the w->w input gradient (dpre @ W)."""
    rng = np.random.default_rng(40)
    products = {f"forward {d}->{w}": (d, rng.standard_normal((w, d)).T)
                for d, w in CLASSIFIER_SHAPES}
    for w in {w for _, w in CLASSIFIER_SHAPES}:
        products[f"forward {w}->{w}"] = (w, rng.standard_normal((w, w)).T)
        products[f"forward {w}->1"] = (w, rng.standard_normal((1, w)).T)
        products[f"input gradient {w}->{w}"] = (w, rng.standard_normal((w, w)))
    inputs = {d: rng.standard_normal((max(rows), d)) for d, _ in products.values()}
    outs = {w: np.empty((2, max(rows), w)) for _, r in products.values()
            for w in [r.shape[1]]}
    found = []
    for n in rows:
        parts = (slice(0, split_row(n)), slice(split_row(n), n))
        for name, (d, right) in products.items():
            x, (whole, split) = inputs[d][:n], outs[right.shape[1]][:, :n]
            np.matmul(x, right, out=whole)
            for part in parts:
                np.matmul(x[part], right, out=split[part])
            if not np.array_equal(whole.view(np.int64), split.view(np.int64)):
                found.append((name, n))
    return found


OTHER_CORES = ("Haswell", "Sandybridge")


@pytest.fixture(scope="module")
def core_sweeps():
    """{core: subprocess} running `split_rule_mismatches` with
    OPENBLAS_CORETYPE set, all started at once; each prints its OpenBLAS
    config and the mismatches as JSON."""
    src = str(Path(cance.__file__).resolve().parent.parent)
    path = os.pathsep.join([src, str(Path(__file__).parent)])
    code = ("import json, cance.machine as m, test_nn; print(json.dumps("
            "[m.openblas_config() or '', test_nn.split_rule_mismatches()]))")
    procs = {core: subprocess.Popen(
        [sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, OPENBLAS_CORETYPE=core, PYTHONPATH=path))
        for core in OTHER_CORES}
    yield procs
    for proc in procs.values():
        proc.kill()
        proc.wait()


class TestSplitRule:
    """Row-split products keep the whole product's bits at every batch size
    `Network` splits, on this machine's OpenBLAS core and on the cores it
    can be made to run with OPENBLAS_CORETYPE."""

    def test_split_row_is_a_multiple_of_32_just_past_the_middle(self):
        for n in range(SPLIT_ROWS, 6145):
            assert split_row(n) % 32 == 0 and 0 < 2 * split_row(n) - n <= 64

    def test_running_core(self, core_sweeps):  # the other cores run meanwhile
        assert split_rule_mismatches() == []

    @pytest.mark.parametrize("core", OTHER_CORES)
    def test_other_core(self, core, core_sweeps):
        out, _ = core_sweeps[core].communicate(timeout=120)
        assert core_sweeps[core].returncode == 0
        config, found = json.loads(out.splitlines()[-1])
        if core not in config.split():
            pytest.skip(f"OpenBLAS does not run {core} kernels here: {config}")
        assert found == []


def run_bounded(job, seconds=20.0):
    """job() on a thread that must end within `seconds`; its exception."""
    outcome = {}

    def target():
        try:
            job()
        except Exception as exc:  # handed to the test thread
            outcome["error"] = exc

    runner = threading.Thread(target=target)
    runner.start()
    runner.join(seconds)
    assert not runner.is_alive(), "the two-thread call hung"
    return outcome.get("error")


class TestHelper:
    def test_both_runs_theirs_on_the_helper_and_returns_mine(self):
        seen = {}
        with Helper() as helper:
            for _ in range(3):  # one long-lived thread serves every call
                assert helper.both(lambda: threading.current_thread(),
                                   lambda: seen.setdefault(threading.current_thread(), 0)
                                   ) is threading.current_thread()
        (thread,) = seen
        assert thread.name.startswith("cance-fit-helper") and not thread.is_alive()

    def test_a_failed_helper_raises_on_the_next_call_instead_of_hanging(self):
        def job():
            with Helper() as helper:
                with pytest.raises(ZeroDivisionError):
                    helper.both(lambda: None, lambda: 1 / 0)
                helper.both(lambda: None, lambda: None)

        error = run_bounded(job)
        assert isinstance(error, RuntimeError) and "stopped" in str(error)


class TestTwoThreadFaults:
    """A fault in either thread's rows reaches the caller, without a hang."""

    @staticmethod
    def failing_on(monkeypatch, method, which):
        original = getattr(DenseLayer, method)

        def failing(self, *args, **kwargs):
            helper = threading.current_thread().name.startswith("cance-fit-helper")
            if helper == (which == "helper"):
                raise ShapeError(f"synthetic fault in the {which}'s rows")
            return original(self, *args, **kwargs)

        monkeypatch.setattr(DenseLayer, method, failing)

    @pytest.mark.parametrize("which", ["helper", "caller"])
    @pytest.mark.parametrize("method", ["forward", "backward"])
    def test_fault_reaches_the_caller(self, monkeypatch, method, which):
        net = mlp([4, 64, 64, 1], np.random.default_rng(41))
        x = np.random.default_rng(42).standard_normal((SPLIT_ROWS, 4))

        def job():
            with Helper() as helper:
                net.helper = helper
                out = net.forward(x, train=True)
                self.failing_on(monkeypatch, "backward", which)
                net.backward(np.ones_like(out))

        if method == "forward":
            self.failing_on(monkeypatch, "forward", which)
        error = run_bounded(job)
        assert isinstance(error, ShapeError) and f"the {which}'s rows" in str(error)
