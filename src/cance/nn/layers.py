"""Dense and batch-norm layers with explicit forward/backward passes."""

from enum import Enum

import numpy as np

from cance.errors import NonFiniteError, ShapeError


class Activation(str, Enum):
    IDENTITY = "identity"
    RELU = "relu"
    TANH = "tanh"
    SIGMOID = "sigmoid"


def require_finite(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"non-finite values in {what}")
    return arr


def sigmoid(x) -> np.ndarray:
    """Logistic function, stable on both tails."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _apply_activation(kind: Activation, pre: np.ndarray) -> np.ndarray:
    if kind is Activation.IDENTITY:
        return pre
    if kind is Activation.RELU:
        return np.maximum(pre, 0.0)
    if kind is Activation.TANH:
        return np.tanh(pre)
    if kind is Activation.SIGMOID:
        return sigmoid(pre)
    raise ValueError(f"unknown activation {kind!r}")


def _activation_grad(kind: Activation, pre: np.ndarray, post: np.ndarray) -> np.ndarray:
    """d(post)/d(pre), elementwise, using whichever of pre/post is cheaper."""
    if kind is Activation.IDENTITY:
        return np.ones_like(pre)
    if kind is Activation.RELU:
        return (pre > 0).astype(np.float64)
    if kind is Activation.TANH:
        return 1.0 - post * post
    if kind is Activation.SIGMOID:
        return post * (1.0 - post)
    raise ValueError(f"unknown activation {kind!r}")


class DenseLayer:
    """Fully connected layer: y = act(x @ W.T + b), W of shape (out, in)."""

    def __init__(self, weights: np.ndarray, bias: np.ndarray, activation: Activation):
        weights = np.asarray(weights, dtype=np.float64)
        bias = np.asarray(bias, dtype=np.float64)
        if weights.ndim != 2 or bias.ndim != 1 or bias.shape[0] != weights.shape[0]:
            raise ShapeError(
                f"dense layer shapes inconsistent: W{weights.shape} b{bias.shape}"
            )
        self.weights = weights
        self.bias = bias
        self.activation = Activation(activation)
        self.grad_weights = np.zeros_like(weights)
        self.grad_bias = np.zeros_like(bias)
        self._x = None
        self._pre = None
        self._post = None

    @classmethod
    def glorot(cls, in_dim: int, out_dim: int, activation: Activation,
               rng: np.random.Generator) -> "DenseLayer":
        """Uniform fan-based init; bias zero."""
        limit = np.sqrt(6.0 / (in_dim + out_dim))
        weights = rng.uniform(-limit, limit, size=(out_dim, in_dim))
        return cls(weights, np.zeros(out_dim), activation)

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeError(f"expected input (*, {self.in_dim}), got {x.shape}")
        pre = x @ self.weights.T + self.bias
        post = _apply_activation(self.activation, pre)
        if train:
            # eval-mode forwards leave all state untouched so a frozen
            # model is safe for concurrent callers
            self._x, self._pre, self._post = x, pre, post
        return require_finite(post, "dense layer output")

    def backward(self, upstream: np.ndarray) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward called without a cached train-mode forward")
        if upstream.shape != self._post.shape:
            raise ShapeError(
                f"upstream gradient {upstream.shape} != output {self._post.shape}"
            )
        dpre = upstream * _activation_grad(self.activation, self._pre, self._post)
        self.grad_weights = dpre.T @ self._x
        self.grad_bias = dpre.sum(axis=0)
        return dpre @ self.weights

    def parameters(self) -> list:
        return [self.weights, self.bias]

    def gradients(self) -> list:
        return [self.grad_weights, self.grad_bias]

    def spec(self) -> dict:
        return {
            "type": "dense",
            "in": self.in_dim,
            "out": self.out_dim,
            "activation": self.activation.value,
        }


class BatchNormLayer:
    """Per-feature batch normalization with running statistics.

    Train mode normalizes with batch moments (biased variance) and updates
    the running statistics; eval mode depends only on the frozen statistics.
    """

    def __init__(self, dim: int, momentum: float = 0.1, epsilon: float = 1e-5):
        if not 0.0 < momentum < 1.0:
            raise ValueError(f"momentum must be in (0,1), got {momentum}")
        self.dim = dim
        self.momentum = float(momentum)
        self.epsilon = float(epsilon)
        self.gamma = np.ones(dim)
        self.beta = np.zeros(dim)
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)
        self.grad_gamma = np.zeros(dim)
        self.grad_beta = np.zeros(dim)
        self._xnorm = None
        self._std = None
        self._clamped = None

    @property
    def in_dim(self) -> int:
        return self.dim

    @property
    def out_dim(self) -> int:
        return self.dim

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise ShapeError(f"expected input (*, {self.dim}), got {x.shape}")
        if train:
            if x.shape[0] < 2:
                raise ShapeError("batch norm needs at least 2 rows in train mode")
            mean = x.mean(axis=0)
            var = x.var(axis=0)
            # epsilon clamps degenerate columns; healthy columns come out
            # with variance exactly 1
            clamped = var < self.epsilon
            std = np.sqrt(np.maximum(var, self.epsilon))
            xnorm = (x - mean) / std
            self.running_mean = (1.0 - self.momentum) * self.running_mean + self.momentum * mean
            self.running_var = (1.0 - self.momentum) * self.running_var + self.momentum * var
            self._xnorm, self._std, self._clamped = xnorm, std, clamped
        else:
            std = np.sqrt(np.maximum(self.running_var, self.epsilon))
            xnorm = (x - self.running_mean) / std
        return require_finite(self.gamma * xnorm + self.beta, "batch norm output")

    def backward(self, upstream: np.ndarray) -> np.ndarray:
        if self._xnorm is None:
            raise RuntimeError("backward called without a cached train-mode forward")
        xnorm, std = self._xnorm, self._std
        self.grad_gamma = (upstream * xnorm).sum(axis=0)
        self.grad_beta = upstream.sum(axis=0)
        dxnorm = upstream * self.gamma
        # compact form folding the mean/variance dependence on x; clamped
        # columns have a constant divisor, so their variance path is zero
        var_path = np.where(
            self._clamped, 0.0, xnorm * (dxnorm * xnorm).mean(axis=0)
        )
        return (dxnorm - dxnorm.mean(axis=0) - var_path) / std

    def parameters(self) -> list:
        return [self.gamma, self.beta]

    def gradients(self) -> list:
        return [self.grad_gamma, self.grad_beta]

    def spec(self) -> dict:
        return {
            "type": "batchnorm",
            "dim": self.dim,
            "momentum": self.momentum,
            "epsilon": self.epsilon,
        }


class Network:
    """A sequential stack of layers sharing one forward/backward interface."""

    def __init__(self, layers: list):
        if not layers:
            raise ValueError("network needs at least one layer")
        for a, b in zip(layers, layers[1:]):
            if a.out_dim != b.in_dim:
                raise ShapeError(f"layer chain mismatch: {a.out_dim} -> {b.in_dim}")
        self.layers = layers

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        for layer in self.layers:
            x = layer.forward(x, train=train)
        return x

    def backward(self, upstream: np.ndarray) -> np.ndarray:
        """Propagate an upstream gradient; returns the input gradient."""
        for layer in reversed(self.layers):
            upstream = layer.backward(upstream)
        return upstream

    def parameters(self) -> list:
        return [p for layer in self.layers for p in layer.parameters()]

    def gradients(self) -> list:
        return [g for layer in self.layers for g in layer.gradients()]

    def set_parameters(self, values: list) -> None:
        params = self.parameters()
        if len(values) != len(params):
            raise ShapeError("parameter count mismatch")
        for p, v in zip(params, values):
            if p.shape != v.shape:
                raise ShapeError(f"parameter shape mismatch: {p.shape} vs {v.shape}")
            p[...] = v

    def snapshot(self) -> list:
        return [p.copy() for p in self.parameters()]


def mlp(dims: list, hidden_activation: Activation, output_activation: Activation,
        rng: np.random.Generator) -> Network:
    """Build a dense MLP with the given layer widths, e.g. [4, 64, 64, 1]."""
    if len(dims) < 2:
        raise ValueError("mlp needs at least input and output dims")
    layers = []
    for i, (a, b) in enumerate(zip(dims[:-1], dims[1:])):
        act = output_activation if i == len(dims) - 2 else hidden_activation
        layers.append(DenseLayer.glorot(a, b, act, rng))
    return Network(layers)
