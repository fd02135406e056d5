"""Dense and batch-norm layers with explicit forward/backward passes."""

import threading
from enum import Enum
from functools import partial

import numpy as np

from cance.errors import ConfigError, ModelFormatError, NonFiniteError, ShapeError

SPLIT_ROWS = 1024  # the fewest rows of a batch that `Network` splits


def split_row(rows: int) -> int:
    """A multiple of 32, where a row-split product keeps the whole product's
    bits, just past the middle: the caller starts on its rows at once, the
    helper a hand-off later."""
    return rows // 64 * 32 + 32


class Activation(str, Enum):
    IDENTITY = "identity"
    TANH = "tanh"


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
        self.release()

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

    def release(self) -> None:
        """Drop the train-mode output buffer and the forward cache."""
        self._out = self._x = self._post = None

    def buffer(self, rows: int) -> np.ndarray:
        """The train-mode output buffer, grown to at least `rows` rows."""
        if self._out is None or len(self._out) < rows:
            self._out = np.empty((rows, self.out_dim))
        return self._out

    def forward(self, x: np.ndarray, train: bool = False,
                out: np.ndarray | None = None) -> np.ndarray:
        """In train mode the output is a row view of a buffer kept for the
        largest batch yet, valid until the next train-mode call (or `out`,
        uncached: one thread's rows of a split batch); eval mode allocates
        it, so frozen models serve concurrent callers."""
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeError(f"expected input (*, {self.in_dim}), got {x.shape}")
        cache = train and out is None
        pre = np.matmul(x, self.weights.T,
                        out=self.buffer(len(x))[: len(x)] if cache else out)
        pre += self.bias
        # backward needs only the output, so pre need not survive
        post = np.tanh(pre, out=pre) if self.activation is Activation.TANH else pre
        if cache:
            self._x, self._post = x, post
        return post

    def backward(self, upstream: np.ndarray, param_grads: bool = True,
                 input_grad: bool = True, out: np.ndarray | None = None,
                 cache: tuple | None = None,
                 dpre: np.ndarray | None = None) -> np.ndarray | None:
        """Set the parameter gradients and return the input gradient;
        either half can be skipped (the input gradient is then None). The
        pre-activation gradient is built in `dpre` (default: the output
        buffer), the input gradient in `out` if given. `cache`, the (input,
        output) of a split forward, stands in for the layer's own."""
        x, post = (self._x, self._post) if cache is None else cache
        if post is None:
            raise RuntimeError("backward called without a cached train-mode forward")
        if upstream.shape != post.shape:
            raise ShapeError(
                f"upstream gradient {upstream.shape} != output {post.shape}"
            )
        self._x = self._post = None
        dpre = post if dpre is None else dpre
        if self.activation is Activation.TANH:
            # upstream * (1 - post^2), built as (1 - post^2) * upstream;
            # multiplication commutes, so the bits are the same
            np.multiply(post, post, out=dpre)
            np.subtract(1.0, dpre, out=dpre)
            dpre *= upstream
        else:
            # copied, so `upstream` may be the scratch written below
            dpre[...] = upstream
        if param_grads:
            self.param_grads(dpre, x)
        return self.input_grad(dpre, out) if input_grad else None

    def param_grads(self, dpre: np.ndarray, x: np.ndarray) -> None:
        """Set the gradients from the pre-activation gradient and the input."""
        self.grad_weights = dpre.T @ x
        self.grad_bias = dpre.sum(axis=0)

    def input_grad(self, dpre: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if self.out_dim == 1:
            # (N, 1) @ (1, in) is one product per entry, so a broadcast gives
            # the GEMM's bits without the call; adding +0.0 turns a -0.0
            # product into +0.0, as the GEMM's zeroed accumulator does (a
            # saturated tanh, post == +-1, gives such zero derivatives)
            dx = np.multiply(dpre, self.weights, out=out)
            dx += 0.0
            return dx
        return np.matmul(dpre, self.weights, out=out)

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
            raise ConfigError(f"momentum must be in (0,1), got {momentum}")
        self.dim = dim
        self.momentum = float(momentum)
        self.epsilon = float(epsilon)
        self.gamma = np.ones(dim)
        self.beta = np.zeros(dim)
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)
        self.grad_gamma = np.zeros(dim)
        self.grad_beta = np.zeros(dim)
        self.release()

    def release(self) -> None:
        """Drop the forward cache."""
        self._xnorm = self._std = self._clamped = None

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
                 input_grad: bool = True, out=None) -> np.ndarray | None:
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
        return np.divide(dxnorm - dxnorm.mean(axis=0) - var_path, std, out=out)

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
    """A sequential stack of layers sharing one forward/backward interface.

    `helper`, a `machine.Helper` that a fit sets on a stack of dense layers,
    runs rows [split_row(n), n) of a train-mode batch of n >= SPLIT_ROWS rows
    through the forward and the backward's row work; each weight-gradient
    product and bias sum runs whole on one thread, so no bit moves."""

    def __init__(self, layers: list):
        if not layers:
            raise ShapeError("network needs at least one layer")
        for a, b in zip(layers, layers[1:]):
            if a.out_dim != b.in_dim:
                raise ShapeError(f"layer chain mismatch: {a.out_dim} -> {b.in_dim}")
        self.layers = layers
        self.helper = self._scratch = self._spare = self._split = None

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        """The last layer's output; a NaN or inf anywhere inside that is not
        squashed to a finite value on the way raises NonFiniteError. In train
        mode it is a view, valid until the network's next train-mode call."""
        x = np.asarray(x, dtype=np.float64)
        n = len(x)
        if train:
            self._split = None
        if train and self.helper is not None and n >= SPLIT_ROWS:
            outs = [layer.buffer(n)[:n] for layer in self.layers]
            self._split = x, outs, slice(0, split_row(n)), slice(split_row(n), n)
            self.helper.both(*(partial(self._forward_rows, rows) for rows in self._split[2:]))
            x = outs[-1]
        else:
            for layer in self.layers:
                x = layer.forward(x, train=train)
        if not np.all(np.isfinite(x)):
            raise NonFiniteError("non-finite values in network output")
        return x

    def _forward_rows(self, rows: slice) -> None:
        x, outs = self._split[:2]
        x = x[rows]
        for layer, out in zip(self.layers, outs):
            x = layer.forward(x, train=True, out=out[rows])

    def backward(self, upstream: np.ndarray, param_grads: bool = True,
                 input_grad: bool = True) -> np.ndarray | None:
        """Propagate an upstream gradient and return the input gradient.

        `param_grads=False` leaves every layer's gradients as they were;
        `input_grad=False` skips the first layer's input gradient and
        returns None. The layers share one input-gradient scratch, so the
        result is a view, valid until the network's next train-mode call.
        """
        rows, widest = len(upstream), max(layer.in_dim for layer in self.layers)
        if self._scratch is None or self._scratch.size < rows * widest:
            self._scratch = np.empty(rows * widest)
        if self._split is not None:
            return self._split_backward(upstream, param_grads, input_grad, widest)
        first = self.layers[0]
        for layer in reversed(self.layers):
            out = self._scratch[: rows * layer.in_dim].reshape(rows, layer.in_dim)
            upstream = layer.backward(upstream, param_grads=param_grads,
                                      input_grad=input_grad or layer is not first,
                                      out=out)
        return upstream

    def _split_backward(self, upstream, param_grads, input_grad, widest):
        (x, outs, *halves), self._split = self._split, None
        layers, n, inputs = self.layers, len(upstream), [x, *outs[:-1]]
        # the threads split the rows down to layer `top` (the top hidden one
        # when parameter gradients are asked for); then the helper takes the
        # parameter gradients from there up and the caller the rest, whole
        top = max(len(layers) - 2, 0) if param_grads else 0
        if param_grads:  # the row pass overwrites the head's input
            layers[-1].param_grads(upstream, inputs[-1])
        done = threading.Event(), threading.Event()

        def half(side):
            rows = halves[side]
            try:
                grad, scratch = upstream[rows], self._scratch[rows.start * widest:]
                for i in range(len(layers) - 1, top - 1, -1):
                    out = scratch[: len(grad) * layers[i].in_dim].reshape(len(grad), -1)
                    grad = layers[i].backward(grad, False, i > top, out, (None, outs[i][rows]))
            finally:
                done[side].set()
            if side:
                if param_grads:
                    done[0].wait()  # every row is through
                    for i in range(top, len(layers) - 1):
                        layers[i].param_grads(outs[i], inputs[i])
                return None
            done[1].wait()
            if not (input_grad or top):
                return None
            grad = layers[top].input_grad(outs[top], scratch_for(top))
            # the helper reads the output below `top`, so its gradient goes aside
            if top and (self._spare is None or len(self._spare) < n):
                self._spare = np.empty(outs[top - 1].shape)
            for i in reversed(range(top)):
                grad = layers[i].backward(grad, True, input_grad or i > 0, scratch_for(i),
                                          (inputs[i], outs[i]),
                                          self._spare[:n] if i == top - 1 else None)
            return grad

        def scratch_for(i):  # the whole batch's input gradient of layer i
            return self._scratch[: inputs[i].size].reshape(inputs[i].shape)

        return self.helper.both(partial(half, 0), partial(half, 1))

    def release(self) -> None:
        """Drop the helper, every work buffer and forward cache: a fit's end."""
        self.helper = self._scratch = self._spare = self._split = None
        for layer in self.layers:
            layer.release()

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
        raise ShapeError("mlp needs at least input and output dims")
    layers = []
    for i, (a, b) in enumerate(zip(dims[:-1], dims[1:])):
        act = Activation.IDENTITY if i == len(dims) - 2 else Activation.TANH
        layers.append(DenseLayer.glorot(a, b, act, rng))
    return Network(layers)
