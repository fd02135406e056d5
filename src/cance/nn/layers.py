"""Dense and batch-norm layers with explicit forward/backward passes."""

from enum import Enum

import numpy as np

from cance.errors import ModelFormatError, NonFiniteError, ShapeError


class Activation(str, Enum):
    IDENTITY = "identity"
    TANH = "tanh"


def require_finite(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"non-finite values in {what}")
    return arr


class DenseLayer:
    """Fully connected layer: y = act(x @ W.T + b), W of shape (out, in),
    act tanh or identity."""

    STATE = ("weights", "bias")

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
        self._post = None

    @classmethod
    def glorot(cls, in_dim: int, out_dim: int, activation: Activation,
               rng: np.random.Generator) -> "DenseLayer":
        """Uniform fan-based init; bias zero."""
        limit = np.sqrt(6.0 / (in_dim + out_dim))
        weights = rng.uniform(-limit, limit, size=(out_dim, in_dim))
        return cls(weights, np.zeros(out_dim), activation)

    @classmethod
    def from_state(cls, spec: dict, state: dict) -> "DenseLayer":
        layer = cls(state["weights"], state["bias"], Activation(spec["activation"]))
        if layer.in_dim != spec["in"] or layer.out_dim != spec["out"]:
            raise ShapeError(
                f"declared dims {spec['in']}x{spec['out']} do not match stored "
                f"array {layer.weights.shape}"
            )
        return layer

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeError(f"expected input (*, {self.in_dim}), got {x.shape}")
        pre = x @ self.weights.T
        pre += self.bias
        # backward needs only the output, so pre need not survive
        post = np.tanh(pre, out=pre) if self.activation is Activation.TANH else pre
        if train:
            # eval-mode forwards leave all state untouched so a frozen
            # model is safe for concurrent callers
            self._x, self._post = x, post
        return post

    def backward(self, upstream: np.ndarray, param_grads: bool = True,
                 input_grad: bool = True) -> np.ndarray | None:
        """Set the parameter gradients and return the input gradient;
        either half can be skipped (the input gradient is then None)."""
        if self._x is None:
            raise RuntimeError("backward called without a cached train-mode forward")
        if upstream.shape != self._post.shape:
            raise ShapeError(
                f"upstream gradient {upstream.shape} != output {self._post.shape}"
            )
        if self.activation is Activation.TANH:
            # upstream * (1 - post^2), built as (1 - post^2) * upstream in a
            # fresh buffer; multiplication commutes, so the bits are the same
            dpre = self._post * self._post
            np.subtract(1.0, dpre, out=dpre)
            dpre *= upstream
        else:
            dpre = upstream
        if param_grads:
            self.grad_weights = dpre.T @ self._x
            self.grad_bias = dpre.sum(axis=0)
        if not input_grad:
            return None
        if self.out_dim == 1:
            # (N, 1) @ (1, in) is one product per entry, so a broadcast gives
            # the GEMM's bits without the call; adding +0.0 turns a -0.0
            # product into +0.0, as the GEMM's zeroed accumulator does (a
            # saturated tanh, post == +-1, gives such zero derivatives)
            dx = dpre * self.weights
            dx += 0.0
            return dx
        return dpre @ self.weights

    def parameters(self) -> list:
        return [self.weights, self.bias]

    def gradients(self) -> list:
        return [self.grad_weights, self.grad_bias]

    def state(self) -> dict:
        return {name: getattr(self, name) for name in self.STATE}

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

    STATE = ("gamma", "beta", "running_mean", "running_var")

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
            m = self.momentum  # updated in place, as `state()` hands out live arrays
            self.running_mean[...] = (1.0 - m) * self.running_mean + m * mean
            self.running_var[...] = (1.0 - m) * self.running_var + m * var
            self._xnorm, self._std, self._clamped = xnorm, std, clamped
        else:
            std = np.sqrt(np.maximum(self.running_var, self.epsilon))
            xnorm = (x - self.running_mean) / std
        return self.gamma * xnorm + self.beta

    def backward(self, upstream: np.ndarray, param_grads: bool = True,
                 input_grad: bool = True) -> np.ndarray | None:
        if self._xnorm is None:
            raise RuntimeError("backward called without a cached train-mode forward")
        xnorm, std = self._xnorm, self._std
        if param_grads:
            self.grad_gamma = (upstream * xnorm).sum(axis=0)
            self.grad_beta = upstream.sum(axis=0)
        if not input_grad:
            return None
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

    def state(self) -> dict:
        return {name: getattr(self, name) for name in self.STATE}

    @classmethod
    def from_state(cls, spec: dict, state: dict) -> "BatchNormLayer":
        layer = cls(spec["dim"], spec["momentum"], spec["epsilon"])
        write_state(layer.state(), state)
        return layer

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
        """The last layer's output; a NaN or inf anywhere inside that is not
        squashed to a finite value on the way raises NonFiniteError."""
        x = np.asarray(x, dtype=np.float64)
        for layer in self.layers:
            x = layer.forward(x, train=train)
        return require_finite(x, "network output")

    def backward(self, upstream: np.ndarray, param_grads: bool = True,
                 input_grad: bool = True) -> np.ndarray | None:
        """Propagate an upstream gradient and return the input gradient.

        `param_grads=False` leaves every layer's gradients as they were;
        `input_grad=False` skips the first layer's input gradient and
        returns None.
        """
        first = self.layers[0]
        for layer in reversed(self.layers):
            upstream = layer.backward(upstream, param_grads=param_grads,
                                      input_grad=input_grad or layer is not first)
        return upstream

    def parameters(self) -> list:
        return [p for layer in self.layers for p in layer.parameters()]

    def gradients(self) -> list:
        return [g for layer in self.layers for g in layer.gradients()]

    def state(self, prefix: str = "") -> dict:
        """Every layer's arrays, live, named f"{prefix}{i}.{name}" in layer order."""
        return {
            f"{prefix}{i}.{name}": arr
            for i, layer in enumerate(self.layers)
            for name, arr in layer.state().items()
        }

    @classmethod
    def from_state(cls, specs: list, arrays: dict, prefix: str = "") -> "Network":
        """Rebuild a network from layer specs and arrays named as in `state`."""
        layers = []
        for i, spec in enumerate(specs):
            layer_cls = LAYER_TYPES.get(spec["type"])
            if layer_cls is None:
                raise ModelFormatError(f"unknown layer type {spec['type']!r}")
            state = {name: arrays[f"{prefix}{i}.{name}"] for name in layer_cls.STATE}
            layers.append(layer_cls.from_state(spec, state))
        return cls(layers)


LAYER_TYPES = {"dense": DenseLayer, "batchnorm": BatchNormLayer}


def copy_state(state: dict) -> dict:
    """A checkpoint: copies of named live arrays, e.g. `Network.state()`."""
    return {name: arr.copy() for name, arr in state.items()}


def write_state(live: dict, values: dict) -> None:
    """Write a checkpoint back in place, so optimizers keep their arrays."""
    if live.keys() != values.keys():
        raise ShapeError(f"state names differ: {sorted(live)} vs {sorted(values)}")
    for name, arr in live.items():
        if arr.shape != values[name].shape:
            raise ShapeError(
                f"{name}: shape mismatch: {arr.shape} vs {values[name].shape}"
            )
        arr[...] = values[name]


def mlp(dims: list, rng: np.random.Generator) -> Network:
    """Build a dense MLP with the given layer widths, e.g. [4, 64, 64, 1]:
    tanh hidden layers and an identity output."""
    if len(dims) < 2:
        raise ValueError("mlp needs at least input and output dims")
    layers = []
    for i, (a, b) in enumerate(zip(dims[:-1], dims[1:])):
        act = Activation.IDENTITY if i == len(dims) - 2 else Activation.TANH
        layers.append(DenseLayer.glorot(a, b, act, rng))
    return Network(layers)
