"""Compression networks and composite feature extraction.

A composite feature packs the latent representation together with two
reconstruction-quality scalars: the per-dimension squared error
|x - x'|^2 / d0 and the cosine dissimilarity (1 - cos(x, x')) / 2. The
packing order is (latent..., squared_error, cosine_dissimilarity).
"""

import logging
from dataclasses import dataclass

import numpy as np

from cance.errors import ConfigError, DegenerateFeatureError, ShapeError
from cance.nn.layers import BatchNormLayer, Network, mlp
from cance.nn.optim import AdamW, fit_epochs
from cance.stats import StreamingMoments

log = logging.getLogger(__name__)

COND_WARN_THRESHOLD = 1e6


def reconstruction_features(x: np.ndarray, x_rec: np.ndarray, real_rows=None):
    """Per-row (squared_error, cosine_dissimilarity) for a batch.

    Rows where either vector has zero norm get dissimilarity 0.5, the
    midpoint of its range; a warning counts them in the first `real_rows`.
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
    if bad := int((~ok[:real_rows]).sum()):
        log.warning(
            "%d row(s) with zero-norm input or reconstruction; "
            "cosine dissimilarity set to 0.5",
            bad,
        )
    return z_e, np.clip(z_c, 0.0, 1.0)


def covariance_loss(latent_batch: np.ndarray) -> float:
    """Mean squared off-diagonal entry of the biased sample covariance."""
    z = np.asarray(latent_batch, dtype=np.float64)
    if z.ndim != 2 or z.shape[0] < 2:
        raise ShapeError("need a batch of at least 2 rows")
    d = z.shape[1]
    if d < 2:
        raise ShapeError("covariance loss needs latent dim >= 2")
    cov = StreamingMoments.from_batch(z).cov
    off = cov - np.diag(np.diag(cov))
    return float(np.sum(off * off) / (d * (d - 1)))


def covariance_loss_grad(latent_batch: np.ndarray) -> np.ndarray:
    """Gradient of covariance_loss with respect to the latent batch."""
    z = np.asarray(latent_batch, dtype=np.float64)
    n, d = z.shape
    moments = StreamingMoments.from_batch(z)
    off = moments.cov - np.diag(np.diag(moments.cov))
    # dL/dSigma = 2*off/(d(d-1)); dSigma/dZ folds to 2*(z - mean)@G/n, and
    # the batch-mean term vanishes because `z - mean` has zero column sums
    return (z - moments.mean) @ off * (4.0 / (n * d * (d - 1)))


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
        enc = mlp([input_dim, *config.hidden, config.latent_dim], rng)
        encoder = Network(enc.layers + [BatchNormLayer(config.latent_dim)])
        decoder = mlp([config.latent_dim, *reversed(config.hidden), input_dim], rng)
        return cls(encoder, decoder, config.lam)

    def latents(self, x: np.ndarray) -> np.ndarray:
        return self.encoder.forward(np.atleast_2d(x), train=False)

    def composite(self, x: np.ndarray, real_rows=None) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        z_l = self.latents(x)
        x_rec = self.decoder.forward(z_l, train=False)
        z_e, z_c = reconstruction_features(x, x_rec, real_rows)
        return np.column_stack([z_l, z_e, z_c])

    def to_container(self):
        meta = {
            "input_dim": self.input_dim,
            "latent_dim": self.latent_dim,
            "lambda": self.lam,
            "encoder": [layer.spec() for layer in self.encoder.layers],
            "decoder": [layer.spec() for layer in self.decoder.layers],
        }
        arrays = {**self.encoder.state("enc"), **self.decoder.state("dec")}
        return "autoencoder", meta, arrays

    @classmethod
    def from_container(cls, meta: dict, arrays: dict) -> "AutoencoderModel":
        encoder = Network.from_state(meta["encoder"], arrays, "enc")
        decoder = Network.from_state(meta["decoder"], arrays, "dec")
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
    decoder further on reconstruction error alone, from the best stage-1
    state. Each stage runs `fit_epochs`, so it keeps its checkpoint of
    lowest validation loss and a divergence ends it with a warning; only a
    stage 1 that diverges in its first epoch raises NonFiniteError.
    """
    train_x = np.asarray(train_x, dtype=np.float64)
    val_x = np.asarray(val_x, dtype=np.float64)
    if train_x.size == 0 or val_x.size == 0:
        raise ShapeError("empty training or validation data")
    model = AutoencoderModel.build(train_x.shape[1], config, rng_init)
    enc, dec = model.encoder, model.decoder
    n = train_x.shape[0]
    batch = min(config.batch_size, n)
    stage1_epochs = config.epochs // 2
    use_cov = config.lam > 0.0 and model.latent_dim >= 2

    history = {"stage1_val": [], "stage2_val": []}

    def val_loss(include_cov: bool = True) -> float:
        z = model.latents(val_x)
        loss = float(np.mean((val_x - dec.forward(z, train=False)) ** 2))
        if include_cov and use_cov and val_x.shape[0] >= 2:
            loss += config.lam * covariance_loss(z)
        return loss

    def joint_step(epoch, rows):
        xb = train_x[rows]
        if xb.shape[0] < 2:  # batch norm needs 2 rows
            return
        z = enc.forward(xb, train=True)
        rec = dec.forward(z, train=True)
        dz = dec.backward(2.0 * (rec - xb) / rec.size)
        if use_cov:
            dz = dz + config.lam * covariance_loss_grad(z)
        enc.backward(dz, input_grad=False)
        joint_opt.step(params, enc.gradients() + dec.gradients())

    def decoder_step(epoch, rows):
        xb = train_x[rows]
        rec = dec.forward(enc.forward(xb, train=False), train=True)
        dec.backward(2.0 * (rec - xb) / rec.size, input_grad=False)
        decoder_opt.step(dec.parameters(), dec.gradients())

    params = enc.parameters() + dec.parameters()
    joint_opt = AdamW(params, lr=config.lr)
    _, best1, diverged1 = fit_epochs(
        stage1_epochs, n, batch, rng_shuffle, joint_step, val_loss,
        {**enc.state("enc"), **dec.state("dec")}, history["stage1_val"],
    )
    # stage 2: the encoder is frozen on eval statistics, so the checkpoints
    # need only the decoder
    decoder_opt = AdamW(dec.parameters(), lr=config.lr)
    _, best2, diverged2 = fit_epochs(
        config.epochs - stage1_epochs, n, batch, rng_shuffle, decoder_step,
        lambda: val_loss(include_cov=False), dec.state(),
        history["stage2_val"], best_loss=val_loss(include_cov=False),
    )
    enc.release()
    dec.release()
    history["best_epoch"] = {"stage1": best1, "stage2": best2}
    history["diverged_at_epoch"] = {"stage1": diverged1, "stage2": diverged2}

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
    eig = np.linalg.eigvalsh(StreamingMoments.from_batch(z).cov)
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

    def composite(self, x: np.ndarray, real_rows=None) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        z_l = self.latents(x)
        x_rec = self.mean + z_l @ self.components
        z_e, z_c = reconstruction_features(x, x_rec, real_rows)
        return np.column_stack([z_l, z_e, z_c])

    def to_container(self):
        meta = {"input_dim": self.input_dim, "latent_dim": self.latent_dim}
        return "pca", meta, {"mean": self.mean, "components": self.components}

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
    moments = StreamingMoments.from_batch(x)
    eigval, eigvec = np.linalg.eigh(moments.cov)
    eigval, eigvec = eigval[::-1], eigvec[:, ::-1]
    rank = int(np.sum(eigval > max(eigval[0], 0.0) * 1e-12))
    if d > rank:
        raise DegenerateFeatureError(
            f"data has numerical rank {rank}, cannot extract {d} components"
        )
    return PcaModel(moments.mean, eigvec[:, :d].T)
