"""Noise contrastive estimation over composite features.

A classifier network T is trained to tell composite feature vectors from
Gaussian noise; at the optimum T(z) approaches the log odds
ln p_data(z) - ln(nu * p_noise(z)), so the anomaly score

    S(z) = -(T(z) + ln nu + ln p_noise(z))

approaches the negative log density of the data. Two training-time
refinements: reconstruction features of data rows are stochastically
replaced by draws from truncated normals concentrated below the estimated
mode (augmentation), and the noise covariance is widened adversarially
through a diagonal scaling K >= 1 learned by gradient steps on a
stop-gradient objective. The NCE loss and its gradient by T are written
once, in `contrast`: the classifier step, the psi step (which minimizes the
negated loss) and validation all go through it.
"""

import logging
from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np

from cance.compress import check_widths
from cance.errors import ConfigError, ModelFormatError, NonFiniteError, ShapeError
from cance.machine import Helper, blas_cpus
from cance.nn.layers import Network, mlp
from cance.nn.optim import AdamW, fit_epochs
from cance.stats import (
    GaussianModel,
    StreamingMoments,
    TruncatedNormalParams,
    verify_augmentation_margin,
)

log = logging.getLogger(__name__)


MOMENT_BATCH = 4096
MAX_NOISE_ROWS = 2**22  # of one batch's noise draw, nu x batch_size


def softplus(x):
    return np.logaddexp(0.0, np.asarray(x, dtype=np.float64))


def sigmoid(x) -> np.ndarray:
    """Logistic function, stable on both tails."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


@dataclass
class NoiseModel:
    """Gaussian noise with an optional learned diagonal widening.

    The widened distribution is realized by the affine map
    L(z) = k * (z - mean) + mean applied to base draws, equivalent to a
    normal with covariance diag(k) Sigma diag(k). Diagonal entries are
    k_j = 1 + softplus(psi_j) >= 1; psi=None means k identically 1.
    """

    base: GaussianModel
    psi: np.ndarray | None
    nu: float

    def __post_init__(self):
        if self.nu <= 0:
            raise ConfigError(f"noise-sample ratio must be positive, got {self.nu}")
        if self.psi is not None:
            self.psi = np.asarray(self.psi, dtype=np.float64)
            if self.psi.shape != (self.base.dim,):
                raise ShapeError(
                    f"psi shape {self.psi.shape} != noise dim ({self.base.dim},)"
                )

    @property
    def dim(self) -> int:
        return self.base.dim

    def k_diag(self) -> np.ndarray:
        if self.psi is None:
            return np.ones(self.dim)
        return 1.0 + softplus(self.psi)

    def transform(self, z: np.ndarray) -> np.ndarray:
        if self.psi is None:
            return np.asarray(z, dtype=np.float64)
        return self.k_diag() * (z - self.base.mean) + self.base.mean

    def inverse_transform(self, z: np.ndarray) -> np.ndarray:
        if self.psi is None:
            return np.asarray(z, dtype=np.float64)
        return (z - self.base.mean) / self.k_diag() + self.base.mean

    def adapted_gaussian(self) -> GaussianModel:
        if self.psi is None:
            return self.base
        k = self.k_diag()
        return GaussianModel(self.base.mean, k[:, None] * self.base.cov * k[None, :])

    @classmethod
    def from_data(cls, data: np.ndarray, nu: float,
                  psi_init: float | None = 0.0) -> "NoiseModel":
        """Fit the Gaussian base to data moments accumulated batch-wise."""
        data = np.asarray(data, dtype=np.float64)
        moments = StreamingMoments.empty(data.shape[1])
        for start in range(0, data.shape[0], MOMENT_BATCH):
            moments = moments.update(data[start : start + MOMENT_BATCH])
        base = GaussianModel(moments.mean, moments.cov)
        psi = None if psi_init is None else np.full(data.shape[1], float(psi_init))
        return cls(base, psi, nu)


def contrast(net: Network, data_rows: np.ndarray, noise_rows: np.ndarray, nu: float,
             grad: bool = True):
    """The NCE loss -mean ln sig(T(z)) - nu * mean ln(1 - sig(T(v))) of data
    rows z and noise rows v, and its gradient by T as an (m+n, 1) column
    (None with `grad=False`).

    One train-mode forward of the stacked rows, into the network's work
    buffers (the classifier has no batch norm, so the mode changes no value),
    ready for a backward of the gradient.
    """
    m, n = data_rows.shape[0], noise_rows.shape[0]
    if m == 0 or n == 0:
        raise ShapeError("empty batch")
    t = net.forward(np.vstack([data_rows, noise_rows]), train=True)[:, 0]
    loss = float(softplus(-t[:m]).mean() + nu * softplus(t[m:]).mean())
    if not grad:
        return loss, None
    dt = np.empty((m + n, 1))
    dt[:m, 0] = -sigmoid(-t[:m]) / m
    dt[m:, 0] = nu * sigmoid(t[m:]) / n
    return loss, dt


def nce_loss(net: Network, data_batch: np.ndarray, noise_batch: np.ndarray,
             nu: float) -> float:
    """Batch loss of `contrast`, without its gradient."""
    return contrast(net, data_batch, noise_batch, nu, grad=False)[0]


def nce_loss_and_grads(net: Network, data_batch: np.ndarray,
                       noise_batch: np.ndarray, nu: float):
    """Loss plus parameter gradients via one stacked forward/backward.

    The gradients are the network's own arrays, replaced by the next
    backward that computes parameter gradients.
    """
    loss, dt = contrast(net, data_batch, noise_batch, nu)
    net.backward(dt, input_grad=False)
    return loss, net.gradients()


@dataclass
class AugmentationParams:
    """Truncated normals for the two reconstruction features."""

    error_dist: TruncatedNormalParams
    cosine_dist: TruncatedNormalParams

    @classmethod
    def fit(cls, composite: np.ndarray) -> "AugmentationParams":
        composite = np.asarray(composite, dtype=np.float64)
        if composite.ndim != 2 or composite.shape[1] < 3:
            raise ShapeError("augmentation needs composite rows (latent + 2 features)")
        if composite.shape[0] < 2:
            raise ShapeError(f"augmentation needs at least 2 training rows, "
                             f"got {composite.shape[0]}")
        return cls(TruncatedNormalParams.fit(composite[:, -2]),
                   TruncatedNormalParams.fit(composite[:, -1]))


def augment_batch(batch: np.ndarray, params: AugmentationParams,
                  rng: np.random.Generator) -> np.ndarray:
    """Mix original rows with rows whose reconstruction features are redrawn.

    Each row independently keeps its original values with probability 1/2;
    otherwise the latent part is kept and the last two columns are replaced
    by independent truncated-normal draws.
    """
    if params is None:
        raise RuntimeError("augmentation parameters not fitted")
    batch = np.asarray(batch, dtype=np.float64)
    out = batch.copy()
    keep = rng.random(batch.shape[0]) < 0.5
    k = int((~keep).sum())
    if k:
        out[~keep, -2] = params.error_dist.sample(k, rng)
        out[~keep, -1] = params.cosine_dist.sample(k, rng)
    return out


def adnce_psi_grad(net: Network, noise: NoiseModel, data_batch: np.ndarray,
                   noise_base_batch: np.ndarray):
    """Objective value and its gradient with respect to psi.

    The pullback points are computed once with the current psi and treated
    as constants; only the outer affine map carries gradient.
    """
    if noise.psi is None:
        raise RuntimeError("noise model has no adaptable parameters")
    inner_points = noise.inverse_transform(data_batch)
    # L(L^-1(x)) != x in ~26 % of entries; dropping the round trip moves scores
    loss, dt = contrast(net, noise.transform(inner_points),
                        noise.transform(noise_base_batch), noise.nu)
    # negation is exact, so these are the bits of the objective's own formula
    dinput = net.backward(np.negative(dt, out=dt), param_grads=False)
    m = inner_points.shape[0]
    dk = (dinput[:m] * (inner_points - noise.base.mean)).sum(axis=0)
    dk += (dinput[m:] * (noise_base_batch - noise.base.mean)).sum(axis=0)
    return -loss, dk * sigmoid(noise.psi)


def adapt_noise(net: Network, noise: NoiseModel, psi_optimizer: AdamW,
                data_batch: np.ndarray, noise_base_batch: np.ndarray) -> float:
    """One optimizer step on psi; classifier parameters are not touched."""
    objective, dpsi = adnce_psi_grad(net, noise, data_batch, noise_base_batch)
    if not np.isfinite(objective):
        raise NonFiniteError("noise-adaptation objective diverged")
    psi_optimizer.step([noise.psi], [dpsi])
    return objective


@dataclass
class NceConfig:
    """The [nce] config section."""

    widths: tuple = (64, 64)
    nu: float = 8.0
    lr: float = 1e-4
    epochs: int = 100
    batch_size: int = 256
    augmentation: bool = True
    adapt_noise: bool = True
    warmup_frac: float = 0.1

    def __post_init__(self):
        self.validate()

    def validate(self):
        check_widths("nce.widths", self.widths)
        if not 0.0 < self.nu < np.inf:
            raise ConfigError(f"nce.nu must be finite and positive, got {self.nu}")
        if self.nu * self.batch_size > MAX_NOISE_ROWS:
            raise ConfigError(f"nce.nu={self.nu} draws more than {MAX_NOISE_ROWS} noise "
                              f"rows per batch of nce.batch_size={self.batch_size}")
        if not 0.0 < self.lr < np.inf:
            raise ConfigError(f"nce.lr must be finite and positive, got {self.lr}")
        if self.epochs < 1:
            raise ConfigError("nce.epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("nce.batch_size must be >= 1")
        if not 0.0 <= self.warmup_frac <= 1.0:
            raise ConfigError("nce.warmup_frac must be in [0,1]")


class EstimatorModel:
    """Trained classifier plus the frozen noise model it was trained against."""

    def __init__(self, net: Network, noise: NoiseModel):
        if net.out_dim != 1:
            raise ShapeError("estimator network must have scalar output")
        if net.in_dim != noise.dim:
            raise ShapeError("estimator input dim != noise dim")
        self.net = net
        self.noise = noise
        self._score_gaussian = noise.adapted_gaussian()

    @property
    def dim(self) -> int:
        return self.net.in_dim

    def log_odds(self, z: np.ndarray) -> np.ndarray:
        z = np.atleast_2d(np.asarray(z, dtype=np.float64))
        if z.shape[1] != self.dim:
            raise ShapeError(f"expected features of dim {self.dim}, got {z.shape[1]}")
        return self.net.forward(z, train=False)[:, 0]

    def score(self, z: np.ndarray) -> np.ndarray:
        """Anomaly scores; higher means more anomalous."""
        z = np.atleast_2d(np.asarray(z, dtype=np.float64))
        t = self.log_odds(z)
        log_noise = self._score_gaussian.logpdf(z)
        return -(t + np.log(self.noise.nu) + log_noise)

    def to_container(self):
        meta = {
            "net": [layer.spec() for layer in self.net.layers],
            "nu": self.noise.nu,
            "has_psi": self.noise.psi is not None,
        }
        arrays = {"noise.mean": self.noise.base.mean, "noise.cov": self.noise.base.cov}
        if self.noise.psi is not None:
            arrays["noise.psi"] = self.noise.psi
        arrays.update(self.net.state("net"))
        return "estimator", meta, arrays

    @classmethod
    def from_container(cls, meta: dict, arrays: dict) -> "EstimatorModel":
        # older files name the scoring density; only the adapted one is kept
        if meta.get("score_noise", "adapted") != "adapted":
            raise ModelFormatError(
                f"score_noise {meta['score_noise']!r} is not supported; "
                "scores use the adapted noise")
        net = Network.from_state(meta["net"], arrays, "net")
        base = GaussianModel(arrays["noise.mean"], arrays["noise.cov"])
        psi = arrays["noise.psi"] if meta["has_psi"] else None
        return cls(net, NoiseModel(base, psi, meta["nu"]))


def train_estimator(train_z: np.ndarray, val_z: np.ndarray, config: NceConfig,
                    init_rng: np.random.Generator, train_rng: np.random.Generator,
                    val_rng: np.random.Generator,
                    noise_model: NoiseModel | None = None):
    """Alternating optimization of the classifier and the noise widening.

    Each iteration takes one classifier step on the contrastive batch loss
    (data rows drawn through the augmentation mixture when enabled) and,
    after a warmup, one psi step on the adversarial objective using the
    same un-augmented batch and base noise draws. Noise is resampled fresh
    every batch. The epochs run through `fit_epochs`, which checkpoints the
    network and psi on the lowest validation loss, computed on un-augmented
    validation rows against a fixed set of base draws pushed through the
    current widening. Divergence ends training with a warning and the best
    checkpoint; NonFiniteError is raised only if the first epoch diverges.
    A helper thread takes part of each large batch (see `Network`), with
    the same bits, from the start or the first epoch's end at which
    `blas_cpus` holds a CPU for it; it ends with the fit.
    """
    train_z = np.asarray(train_z, dtype=np.float64)
    val_z = np.asarray(val_z, dtype=np.float64)
    if train_z.ndim != 2 or val_z.ndim != 2:
        raise ShapeError("composite feature matrices must be 2-D")
    if train_z.size == 0 or val_z.size == 0:
        raise ShapeError("empty training or validation data")
    n, dim = train_z.shape

    if noise_model is None:
        noise_model = NoiseModel.from_data(train_z, config.nu,
                                           psi_init=0.0 if config.adapt_noise else None)
    if noise_model.dim != dim:
        raise ShapeError("noise model dim does not match features")

    aug = None
    history = {"train_loss": [], "val_loss": [], "adapt_objective": []}
    if config.augmentation:
        aug = AugmentationParams.fit(train_z)
        history["augmentation_margins"] = _augmentation_margins(train_z, aug, noise_model)
        history["augmentation_fit"] = {
            "error": {"mode": aug.error_dist.mode, "sigma": aug.error_dist.sigma},
            "cosine": {"mode": aug.cosine_dist.mode,
                       "sigma": aug.cosine_dist.sigma},
        }

    net = mlp([dim, *config.widths, 1], init_rng)
    opt_theta = AdamW(net.parameters(), lr=config.lr)
    opt_psi, state = None, net.state()
    if noise_model.psi is not None:
        state["psi"] = noise_model.psi
        if config.adapt_noise:
            opt_psi = AdamW([noise_model.psi], lr=config.lr)

    val_noise_base = noise_model.base.sample(max(1, int(round(config.nu * len(val_z)))),
                                             val_rng)
    warmup_epochs = int(np.ceil(config.epochs * config.warmup_frac))
    epoch_loss = [0.0, 0]  # sum of batch losses, batch count

    def step(epoch, rows):
        zb = train_z[rows]
        zm = augment_batch(zb, aug, train_rng) if aug is not None else zb
        vbase = noise_model.base.sample(max(1, int(round(config.nu * len(zb)))),
                                        train_rng)
        loss, grads = nce_loss_and_grads(net, zm, noise_model.transform(vbase),
                                         config.nu)
        if not np.isfinite(loss):
            raise NonFiniteError("contrastive loss diverged")
        opt_theta.step(net.parameters(), grads)
        epoch_loss[0] += loss
        epoch_loss[1] += 1
        if opt_psi is not None and epoch >= warmup_epochs:
            history["adapt_objective"].append(adapt_noise(net, noise_model, opt_psi,
                                                          zb, vbase))

    cpu, stack = blas_cpus(1), ExitStack()

    def take_helper() -> None:  # at the start and at each epoch's end
        if net.helper is None and cpu.take():
            net.helper = stack.enter_context(Helper())

    def validation_loss() -> float:
        take_helper()
        history["train_loss"].append(epoch_loss[0] / epoch_loss[1])
        epoch_loss[:] = [0.0, 0]
        return nce_loss(net, val_z, noise_model.transform(val_noise_base), config.nu)

    with cpu, stack:
        take_helper()
        history["best_val_loss"], history["best_epoch"], history["diverged_at_epoch"] = (
            fit_epochs(config.epochs, n, min(config.batch_size, n), train_rng, step,
                       validation_loss, state, history["val_loss"])
        )
    net.release()
    frozen = NoiseModel(noise_model.base, noise_model.psi, config.nu)
    history["k_diag"] = frozen.k_diag().tolist()
    return EstimatorModel(net, frozen), history


def _augmentation_margins(train_z, aug, noise_model) -> dict:
    """Diagnostic: augmented marginals must dominate the noise marginals."""
    out = {}
    for name, j, dist in (("squared_error", -2, aug.error_dist),
                          ("cosine_dissimilarity", -1, aug.cosine_dist)):
        report = verify_augmentation_margin(train_z[:, j], dist,
                                            float(noise_model.base.mean[j]),
                                            float(np.sqrt(noise_model.base.cov[j, j])))
        out[name] = report.worst_margin
        if not report.ok:
            log.warning("augmentation margin negative for %s: %.3g", name,
                        report.worst_margin)
    return out
