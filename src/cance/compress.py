"""Compression networks and composite feature extraction.

A composite feature packs the latent representation together with two
reconstruction-quality scalars: the per-dimension squared error
|x - x'|^2 / d0 and the cosine dissimilarity (1 - cos(x, x')) / 2. The
packing order is (latent..., squared_error, cosine_dissimilarity).
"""

import logging
from dataclasses import dataclass

import numpy as np

from cance.errors import ConfigError, DegenerateFeatureError, NonFiniteError, ShapeError
from cance.nn import AdamW, Activation, BatchNormLayer, Network, mlp
from cance.nn.serialize import (
    load_container,
    network_from_arrays,
    network_to_arrays,
    save_container,
)

log = logging.getLogger(__name__)

COND_WARN_THRESHOLD = 1e6


def reconstruction_features(x: np.ndarray, x_rec: np.ndarray):
    """Per-row (squared_error, cosine_dissimilarity) for a batch.

    Rows where either vector has zero norm get dissimilarity 0.5, the
    midpoint of its range, and a warning is logged.
    """
    x = np.atleast_2d(x)
    x_rec = np.atleast_2d(x_rec)
    if x.shape != x_rec.shape:
        raise ShapeError(f"input {x.shape} and reconstruction {x_rec.shape} differ")
    d0 = x.shape[1]
    z_e = np.sum((x - x_rec) ** 2, axis=1) / d0
    norm_x = np.linalg.norm(x, axis=1)
    norm_r = np.linalg.norm(x_rec, axis=1)
    ok = (norm_x > 0.0) & (norm_r > 0.0)
    cos = np.full(x.shape[0], 0.0)
    np.divide(
        np.sum(x * x_rec, axis=1), norm_x * norm_r, out=cos, where=ok
    )
    z_c = np.where(ok, 0.5 * (1.0 - cos), 0.5)
    if not np.all(ok):
        log.warning(
            "%d row(s) with zero-norm input or reconstruction; "
            "cosine dissimilarity set to 0.5",
            int((~ok).sum()),
        )
    return z_e, np.clip(z_c, 0.0, 1.0)


def pack_composite(latent: np.ndarray, z_e: np.ndarray, z_c: np.ndarray) -> np.ndarray:
    return np.column_stack([latent, z_e, z_c])


def covariance_loss(latent_batch: np.ndarray) -> float:
    """Mean squared off-diagonal entry of the biased sample covariance."""
    z = np.asarray(latent_batch, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] < 2:
        raise ShapeError("need a batch of at least 2 rows")
    d = z.shape[1]
    if d < 2:
        raise ShapeError("covariance loss needs latent dim >= 2")
    centered = z - z.mean(axis=0)
    cov = centered.T @ centered / z.shape[0]
    off = cov - np.diag(np.diag(cov))
    return float(np.sum(off * off) / (d * (d - 1)))


def covariance_loss_grad(latent_batch: np.ndarray) -> np.ndarray:
    """Gradient of covariance_loss with respect to the latent batch."""
    z = np.asarray(latent_batch, dtype=np.float64)
    n, d = z.shape
    centered = z - z.mean(axis=0)
    cov = centered.T @ centered / n
    off = cov - np.diag(np.diag(cov))
    # dL/dSigma = 2*off/(d(d-1)); dSigma/dZ folds to 2*centered@G/n, and the
    # batch-mean term vanishes because `centered` has zero column sums
    return centered @ off * (4.0 / (n * d * (d - 1)))


def _mse(x: np.ndarray, x_rec: np.ndarray) -> float:
    return float(np.mean((x - x_rec) ** 2))


def check_widths(key: str, widths) -> None:
    """Hidden-layer widths must be positive integers; an empty tuple is legal."""
    for w in widths:
        if isinstance(w, bool) or not isinstance(w, (int, np.integer)) or w < 1:
            raise ConfigError(f"{key}: widths must be positive integers, got {w!r}")


@dataclass
class AeConfig:
    """The [compress] config section; `method` pca ignores the training keys."""

    method: str = "ae"  # ae | pca
    latent_dim: int = 6
    hidden: tuple = (128, 64)
    lam: float = 0.1
    epochs: int = 40
    lr: float = 1e-4
    batch_size: int = 256
    weight_decay: float = 0.0
    # validation metric during the joint stage: full stage loss or error only
    checkpoint_on: str = "stage-loss"  # stage-loss | error

    def __post_init__(self):
        self.validate()

    def validate(self):
        if self.method not in ("ae", "pca"):
            raise ConfigError(f"compress.method: unknown method {self.method!r}")
        if self.latent_dim < 1:
            raise ConfigError("compress.latent_dim must be >= 1")
        check_widths("compress.hidden", self.hidden)
        if self.lam < 0:
            raise ConfigError("compress.lam must be >= 0")
        if self.epochs < 1:
            raise ConfigError("compress.epochs must be >= 1")
        if self.lr <= 0:
            raise ConfigError("compress.lr must be positive")
        if self.batch_size < 1:
            raise ConfigError("compress.batch_size must be >= 1")
        if self.weight_decay < 0:
            raise ConfigError("compress.weight_decay must be >= 0")
        if self.checkpoint_on not in ("stage-loss", "error"):
            raise ConfigError(
                f"compress.checkpoint_on: unknown metric {self.checkpoint_on!r}"
            )


class AutoencoderModel:
    """Encoder (batch-norm latent head) plus decoder, trained decoupled."""

    def __init__(self, encoder: Network, decoder: Network, lam: float):
        if encoder.out_dim != decoder.in_dim:
            raise ShapeError("encoder output dim != decoder input dim")
        if not isinstance(encoder.layers[-1], BatchNormLayer):
            raise ShapeError("encoder must end in a batch-norm layer")
        self.encoder = encoder
        self.decoder = decoder
        self.lam = float(lam)

    @property
    def input_dim(self) -> int:
        return self.encoder.in_dim

    @property
    def latent_dim(self) -> int:
        return self.encoder.out_dim

    @classmethod
    def build(
        cls, input_dim: int, config: AeConfig, rng: np.random.Generator
    ) -> "AutoencoderModel":
        enc = mlp([input_dim, *config.hidden, config.latent_dim],
                  Activation.TANH, Activation.IDENTITY, rng)
        encoder = Network(enc.layers + [BatchNormLayer(config.latent_dim)])
        decoder = mlp([config.latent_dim, *reversed(config.hidden), input_dim],
                      Activation.TANH, Activation.IDENTITY, rng)
        return cls(encoder, decoder, config.lam)

    def latents(self, x: np.ndarray) -> np.ndarray:
        return self.encoder.forward(np.atleast_2d(x), train=False)

    def composite(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        z_l = self.latents(x)
        x_rec = self.decoder.forward(z_l, train=False)
        z_e, z_c = reconstruction_features(x, x_rec)
        return pack_composite(z_l, z_e, z_c)

    def _state(self) -> list:
        buffers = []
        for layer in self.encoder.layers:
            if isinstance(layer, BatchNormLayer):
                buffers += [layer.running_mean, layer.running_var]
        return [p.copy() for p in self.encoder.parameters()] + [
            b.copy() for b in buffers
        ] + [p.copy() for p in self.decoder.parameters()]

    def _restore(self, state: list) -> None:
        n_enc = len(self.encoder.parameters())
        buffers = []
        for layer in self.encoder.layers:
            if isinstance(layer, BatchNormLayer):
                buffers += [layer.running_mean, layer.running_var]
        n_buf = len(buffers)
        self.encoder.set_parameters(state[:n_enc])
        for buf, saved in zip(buffers, state[n_enc : n_enc + n_buf]):
            buf[...] = saved
        self.decoder.set_parameters(state[n_enc + n_buf :])

    def save(self, path, extra_meta: dict | None = None) -> None:
        meta = {
            "input_dim": self.input_dim,
            "latent_dim": self.latent_dim,
            "lambda": self.lam,
            "encoder": [layer.spec() for layer in self.encoder.layers],
            "decoder": [layer.spec() for layer in self.decoder.layers],
        }
        if extra_meta:
            meta.update(extra_meta)
        arrays = {}
        network_to_arrays(self.encoder, "enc", arrays)
        network_to_arrays(self.decoder, "dec", arrays)
        save_container(path, "autoencoder", meta, arrays)

    @classmethod
    def load(cls, path) -> "AutoencoderModel":
        kind, meta, arrays = load_container(path)
        if kind != "autoencoder":
            raise ShapeError(f"{path}: expected an autoencoder container, got {kind}")
        return cls.from_container(meta, arrays)

    @classmethod
    def from_container(cls, meta: dict, arrays: dict) -> "AutoencoderModel":
        encoder = network_from_arrays(meta["encoder"], "enc", arrays)
        decoder = network_from_arrays(meta["decoder"], "dec", arrays)
        return cls(encoder, decoder, meta["lambda"])


def train_autoencoder(
    train_x: np.ndarray,
    val_x: np.ndarray,
    config: AeConfig,
    rng_init: np.random.Generator,
    rng_shuffle: np.random.Generator,
):
    """Two-stage decoupled training.

    Stage 1 jointly optimizes encoder and decoder on reconstruction error
    plus the weighted covariance penalty. Stage 2 freezes the encoder
    (batch norm switched to its accumulated statistics) and trains the
    decoder further on reconstruction error alone. Each stage keeps the
    checkpoint with the lowest validation loss; the returned model is the
    best stage-2 checkpoint, which starts from the best stage-1 state.
    """
    train_x = np.asarray(train_x, dtype=np.float64)
    val_x = np.asarray(val_x, dtype=np.float64)
    if train_x.size == 0 or val_x.size == 0:
        raise ShapeError("empty training or validation data")
    model = AutoencoderModel.build(train_x.shape[1], config, rng_init)
    n = train_x.shape[0]
    batch = min(config.batch_size, n)
    stage1_epochs = config.epochs // 2
    stage2_epochs = config.epochs - stage1_epochs
    use_cov = config.lam > 0.0 and model.latent_dim >= 2

    history = {"stage1_val": [], "stage2_val": []}

    def val_loss(include_cov: bool) -> float:
        z = model.latents(val_x)
        rec = model.decoder.forward(z, train=False)
        loss = _mse(val_x, rec)
        if include_cov and use_cov and val_x.shape[0] >= 2:
            loss += config.lam * covariance_loss(z)
        return loss

    # stage 1: joint
    opt = AdamW(
        model.encoder.parameters() + model.decoder.parameters(),
        lr=config.lr,
        weight_decay=config.weight_decay,
    )
    include_cov_in_val = config.checkpoint_on == "stage-loss"
    best = (np.inf, model._state())
    for _ in range(stage1_epochs):
        order = rng_shuffle.permutation(n)
        for start in range(0, n, batch):
            xb = train_x[order[start : start + batch]]
            if xb.shape[0] < 2:
                continue
            z = model.encoder.forward(xb, train=True)
            rec = model.decoder.forward(z, train=True)
            dz = model.decoder.backward(2.0 * (rec - xb) / rec.size)
            if use_cov:
                dz = dz + config.lam * covariance_loss_grad(z)
            model.encoder.backward(dz)
            opt.step(
                model.encoder.parameters() + model.decoder.parameters(),
                model.encoder.gradients() + model.decoder.gradients(),
            )
        loss = val_loss(include_cov_in_val)
        if not np.isfinite(loss):
            raise NonFiniteError("validation loss diverged during joint training")
        history["stage1_val"].append(loss)
        if loss < best[0]:
            best = (loss, model._state())
    model._restore(best[1])

    # stage 2: decoder only, encoder frozen on eval statistics
    opt = AdamW(
        model.decoder.parameters(), lr=config.lr, weight_decay=config.weight_decay
    )
    best2 = (val_loss(include_cov=False), model._state())
    for _ in range(stage2_epochs):
        order = rng_shuffle.permutation(n)
        for start in range(0, n, batch):
            xb = train_x[order[start : start + batch]]
            z = model.encoder.forward(xb, train=False)
            rec = model.decoder.forward(z, train=True)
            model.decoder.backward(2.0 * (rec - xb) / rec.size)
            opt.step(model.decoder.parameters(), model.decoder.gradients())
        loss = val_loss(include_cov=False)
        if not np.isfinite(loss):
            raise NonFiniteError("validation loss diverged during decoder training")
        history["stage2_val"].append(loss)
        if loss < best2[0]:
            best2 = (loss, model._state())
    model._restore(best2[1])

    cond = latent_condition_number(model, val_x)
    history["latent_condition_number"] = cond
    if cond >= COND_WARN_THRESHOLD:
        log.warning(
            "latent covariance condition number %.3g >= %.0g; "
            "consider raising the covariance weight above %g",
            cond,
            COND_WARN_THRESHOLD,
            config.lam,
        )
    return model, history


def latent_condition_number(model, x: np.ndarray) -> float:
    z = model.latents(x)
    if z.shape[0] < 2:
        return np.inf
    centered = z - z.mean(axis=0)
    eig = np.linalg.eigvalsh(centered.T @ centered / z.shape[0])
    if eig[-1] <= 0:
        return np.inf
    return float(eig[-1] / eig[0]) if eig[0] > 0 else np.inf


class PcaModel:
    """Top-d principal directions with the same composite feature contract."""

    def __init__(self, mean: np.ndarray, components: np.ndarray):
        # contiguous copies keep scoring bit-reproducible across save/load
        mean = np.ascontiguousarray(mean, dtype=np.float64).ravel()
        components = np.ascontiguousarray(components, dtype=np.float64)
        if components.ndim != 2 or components.shape[1] != mean.size:
            raise ShapeError(
                f"components {components.shape} do not match mean dim {mean.size}"
            )
        gram = components @ components.T
        if not np.allclose(gram, np.eye(components.shape[0]), atol=1e-10):
            raise ShapeError("component rows are not orthonormal")
        self.mean = mean
        self.components = components

    @property
    def input_dim(self) -> int:
        return self.mean.size

    @property
    def latent_dim(self) -> int:
        return self.components.shape[0]

    def latents(self, x: np.ndarray) -> np.ndarray:
        return (np.atleast_2d(x) - self.mean) @ self.components.T

    def composite(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        z_l = self.latents(x)
        x_rec = self.mean + z_l @ self.components
        z_e, z_c = reconstruction_features(x, x_rec)
        return pack_composite(z_l, z_e, z_c)

    def save(self, path, extra_meta: dict | None = None) -> None:
        meta = {"input_dim": self.input_dim, "latent_dim": self.latent_dim}
        if extra_meta:
            meta.update(extra_meta)
        save_container(
            path, "pca", meta, {"mean": self.mean, "components": self.components}
        )

    @classmethod
    def load(cls, path) -> "PcaModel":
        kind, meta, arrays = load_container(path)
        if kind != "pca":
            raise ShapeError(f"{path}: expected a pca container, got {kind}")
        return cls.from_container(meta, arrays)

    @classmethod
    def from_container(cls, meta: dict, arrays: dict) -> "PcaModel":
        return cls(arrays["mean"], arrays["components"])


def fit_pca(x: np.ndarray, d: int) -> PcaModel:
    """Principal directions from the biased covariance's eigendecomposition."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError("expected a 2-D data matrix")
    n, dim = x.shape
    if d > dim:
        raise ShapeError(f"latent dim {d} exceeds input dim {dim}")
    if n <= d:
        raise ShapeError(f"need more than {d} rows to fit {d} components, got {n}")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / n
    eigval, eigvec = np.linalg.eigh(cov)
    eigval, eigvec = eigval[::-1], eigvec[:, ::-1]
    rank = int(np.sum(eigval > max(eigval[0], 0.0) * 1e-12))
    if d > rank:
        raise DegenerateFeatureError(
            f"data has numerical rank {rank}, cannot extract {d} components"
        )
    return PcaModel(mean, eigvec[:, :d].T)
