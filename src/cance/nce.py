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
stop-gradient objective.
"""

import logging
from dataclasses import dataclass

import numpy as np

from cance.compress import check_widths
from cance.errors import ConfigError, NonFiniteError, ShapeError
from cance.nn import AdamW, Activation, Network, mlp, sigmoid
from cance.nn.serialize import (
    load_container,
    network_from_arrays,
    network_to_arrays,
    save_container,
)
from cance.stats import (
    GaussianModel,
    StreamingMoments,
    TruncatedNormalParams,
    verify_augmentation_margin,
)

log = logging.getLogger(__name__)


def softplus(x):
    x = np.asarray(x, dtype=np.float64)
    return np.logaddexp(0.0, x)


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
            raise ValueError(f"noise-sample ratio must be positive, got {self.nu}")
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

    def sample_base(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.base.sample(n, rng)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.transform(self.sample_base(n, rng))

    def adapted_gaussian(self) -> GaussianModel:
        if self.psi is None:
            return self.base
        k = self.k_diag()
        return GaussianModel(self.base.mean, k[:, None] * self.base.cov * k[None, :])

    @classmethod
    def from_data(
        cls, data: np.ndarray, nu: float, psi_init: float | None = 0.0,
        moment_batch: int = 4096,
    ) -> "NoiseModel":
        """Fit the Gaussian base to data moments accumulated batch-wise."""
        data = np.asarray(data, dtype=np.float64)
        moments = StreamingMoments.empty(data.shape[1])
        for start in range(0, data.shape[0], moment_batch):
            moments = moments.update(data[start : start + moment_batch])
        base = GaussianModel(moments.mean, moments.cov)
        psi = None if psi_init is None else np.full(data.shape[1], float(psi_init))
        return cls(base, psi, nu)


def nce_loss(net: Network, data_batch: np.ndarray, noise_batch: np.ndarray,
             nu: float) -> float:
    """Batch loss: -mean ln sig(T(z)) - nu * mean ln(1 - sig(T(v)))."""
    if data_batch.shape[0] == 0 or noise_batch.shape[0] == 0:
        raise ShapeError("empty batch")
    t_data = net.forward(data_batch, train=False)[:, 0]
    t_noise = net.forward(noise_batch, train=False)[:, 0]
    return float(softplus(-t_data).mean() + nu * softplus(t_noise).mean())


def nce_loss_and_grads(net: Network, data_batch: np.ndarray,
                       noise_batch: np.ndarray, nu: float):
    """Loss plus parameter gradients via one stacked forward/backward."""
    m, n = data_batch.shape[0], noise_batch.shape[0]
    if m == 0 or n == 0:
        raise ShapeError("empty batch")
    t = net.forward(np.vstack([data_batch, noise_batch]), train=True)[:, 0]
    loss = float(softplus(-t[:m]).mean() + nu * softplus(t[m:]).mean())
    dt = np.empty_like(t)
    dt[:m] = -sigmoid(-t[:m]) / m
    dt[m:] = nu * sigmoid(t[m:]) / n
    net.backward(dt[:, None])
    return loss, [g.copy() for g in net.gradients()]


@dataclass
class AugmentationParams:
    """Truncated normals for the two reconstruction features."""

    error_dist: TruncatedNormalParams
    cosine_dist: TruncatedNormalParams

    @classmethod
    def fit(cls, composite: np.ndarray) -> "AugmentationParams":
        composite = np.asarray(composite, dtype=np.float64)
        if composite.ndim != 2 or composite.shape[1] < 3:
            raise ShapeError(
                "augmentation needs composite rows (latent + 2 features)"
            )
        return cls(
            TruncatedNormalParams.fit(composite[:, -2]),
            TruncatedNormalParams.fit(composite[:, -1]),
        )


def augment_batch(
    batch: np.ndarray,
    params: AugmentationParams,
    rng: np.random.Generator,
    force_indicator: int | None = None,
) -> np.ndarray:
    """Mix original rows with rows whose reconstruction features are redrawn.

    Each row independently keeps its original values with probability 1/2;
    otherwise the latent part is kept and the last two columns are replaced
    by independent truncated-normal draws. `force_indicator` pins the coin
    to 1 (keep) or 0 (replace) for every row.
    """
    if params is None:
        raise ValueError("augmentation parameters not fitted")
    batch = np.asarray(batch, dtype=np.float64)
    out = batch.copy()
    if force_indicator is None:
        keep = rng.random(batch.shape[0]) < 0.5
    else:
        keep = np.full(batch.shape[0], bool(force_indicator))
    k = int((~keep).sum())
    if k:
        out[~keep, -2] = params.error_dist.sample(k, rng)
        out[~keep, -1] = params.cosine_dist.sample(k, rng)
    return out


def adnce_objective(
    net: Network,
    noise: NoiseModel,
    data_batch: np.ndarray,
    noise_base_batch: np.ndarray,
    inner_points: np.ndarray | None = None,
) -> float:
    """Adversarial objective minimized over psi.

    J = mean ln sig(T(L(w))) + nu * mean ln(1 - sig(T(L(v)))), with w the
    detached pullback of the data batch through the current L and v raw
    base draws. Minimizing J widens the noise toward where the classifier
    is most confident, i.e. it maximizes the contrastive loss.
    """
    if inner_points is None:
        inner_points = noise.inverse_transform(data_batch)
    a = noise.transform(inner_points)
    b = noise.transform(noise_base_batch)
    t = net.forward(np.vstack([a, b]), train=False)[:, 0]
    m = a.shape[0]
    return float(
        -softplus(-t[:m]).mean() - noise.nu * softplus(t[m:]).mean()
    )


def adnce_psi_grad(
    net: Network,
    noise: NoiseModel,
    data_batch: np.ndarray,
    noise_base_batch: np.ndarray,
    inner_points: np.ndarray | None = None,
):
    """Objective value and its gradient with respect to psi.

    The pullback points are computed once with the current psi and treated
    as constants; only the outer affine map carries gradient.
    """
    if noise.psi is None:
        raise ValueError("noise model has no adaptable parameters")
    if inner_points is None:
        inner_points = noise.inverse_transform(data_batch)
    a = noise.transform(inner_points)
    b = noise.transform(noise_base_batch)
    m, n = a.shape[0], b.shape[0]
    t = net.forward(np.vstack([a, b]), train=True)[:, 0]
    objective = float(-softplus(-t[:m]).mean() - noise.nu * softplus(t[m:]).mean())
    dt = np.empty_like(t)
    dt[:m] = sigmoid(-t[:m]) / m
    dt[m:] = -noise.nu * sigmoid(t[m:]) / n
    dinput = net.backward(dt[:, None])
    dk = (dinput[:m] * (inner_points - noise.base.mean)).sum(axis=0)
    dk += (dinput[m:] * (noise_base_batch - noise.base.mean)).sum(axis=0)
    return objective, dk * sigmoid(noise.psi)


def adapt_noise(
    net: Network,
    noise: NoiseModel,
    psi_optimizer: AdamW,
    data_batch: np.ndarray,
    noise_base_batch: np.ndarray,
) -> float:
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
    psi_lr: float = 0.0  # 0 means "same as lr"
    weight_decay: float = 0.0
    epochs: int = 100
    batch_size: int = 256
    augmentation: bool = True
    adapt_noise: bool = True
    warmup_frac: float = 0.1
    validate_augmented: bool = False
    score_noise: str = "adapted"  # adapted | initial

    def __post_init__(self):
        self.validate()

    def validate(self):
        check_widths("nce.widths", self.widths)
        if self.nu <= 0:
            raise ConfigError("nce.nu must be positive")
        if self.lr <= 0:
            raise ConfigError("nce.lr must be positive")
        if self.psi_lr < 0:
            raise ConfigError("nce.psi_lr must be >= 0")
        if self.weight_decay < 0:
            raise ConfigError("nce.weight_decay must be >= 0")
        if self.epochs < 1:
            raise ConfigError("nce.epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("nce.batch_size must be >= 1")
        if not 0.0 <= self.warmup_frac <= 1.0:
            raise ConfigError("nce.warmup_frac must be in [0,1]")
        if self.score_noise not in ("adapted", "initial"):
            raise ConfigError(f"nce.score_noise: unknown mode {self.score_noise!r}")


class EstimatorModel:
    """Trained classifier plus the frozen noise model it was trained against."""

    def __init__(self, net: Network, noise: NoiseModel, score_noise: str = "adapted"):
        if net.out_dim != 1:
            raise ShapeError("estimator network must have scalar output")
        if net.in_dim != noise.dim:
            raise ShapeError("estimator input dim != noise dim")
        self.net = net
        self.noise = noise
        self.score_noise = score_noise
        self._score_gaussian = (
            noise.base if score_noise == "initial" else noise.adapted_gaussian()
        )

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

    def save(self, path, extra_meta: dict | None = None) -> None:
        meta = {
            "net": [layer.spec() for layer in self.net.layers],
            "nu": self.noise.nu,
            "score_noise": self.score_noise,
            "has_psi": self.noise.psi is not None,
        }
        if extra_meta:
            meta.update(extra_meta)
        arrays = {"noise.mean": self.noise.base.mean, "noise.cov": self.noise.base.cov}
        if self.noise.psi is not None:
            arrays["noise.psi"] = self.noise.psi
        network_to_arrays(self.net, "net", arrays)
        save_container(path, "estimator", meta, arrays)

    @classmethod
    def load(cls, path) -> "EstimatorModel":
        kind, meta, arrays = load_container(path)
        if kind != "estimator":
            raise ShapeError(f"{path}: expected an estimator container, got {kind}")
        return cls.from_container(meta, arrays)

    @classmethod
    def from_container(cls, meta: dict, arrays: dict) -> "EstimatorModel":
        net = network_from_arrays(meta["net"], "net", arrays)
        base = GaussianModel(arrays["noise.mean"], arrays["noise.cov"])
        psi = arrays["noise.psi"] if meta["has_psi"] else None
        return cls(net, NoiseModel(base, psi, meta["nu"]), meta["score_noise"])


def train_estimator(
    train_z: np.ndarray,
    val_z: np.ndarray,
    config: NceConfig,
    init_rng: np.random.Generator,
    train_rng: np.random.Generator,
    val_rng: np.random.Generator,
    noise_model: NoiseModel | None = None,
):
    """Alternating optimization of the classifier and the noise widening.

    Each iteration takes one classifier step on the contrastive batch loss
    (data rows drawn through the augmentation mixture when enabled) and,
    after a warmup, one psi step on the adversarial objective using the
    same un-augmented batch and base noise draws. Noise is resampled fresh
    every batch. Checkpoints on the lowest validation loss, computed on
    un-augmented validation rows against a fixed set of base draws pushed
    through the current widening.
    """
    train_z = np.asarray(train_z, dtype=np.float64)
    val_z = np.asarray(val_z, dtype=np.float64)
    if train_z.ndim != 2 or val_z.ndim != 2:
        raise ShapeError("composite feature matrices must be 2-D")
    dim = train_z.shape[1]
    n = train_z.shape[0]

    if noise_model is None:
        noise_model = NoiseModel.from_data(
            train_z, config.nu, psi_init=0.0 if config.adapt_noise else None
        )
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

    net = mlp([dim, *config.widths, 1], Activation.TANH, Activation.IDENTITY,
              init_rng)
    opt_theta = AdamW(net.parameters(), lr=config.lr,
                      weight_decay=config.weight_decay)
    opt_psi = None
    if config.adapt_noise and noise_model.psi is not None:
        opt_psi = AdamW([noise_model.psi], lr=config.psi_lr or config.lr)

    val_noise_base = noise_model.sample_base(
        max(1, int(round(config.nu * val_z.shape[0]))), val_rng
    )
    warmup_epochs = int(np.ceil(config.epochs * config.warmup_frac))
    batch = min(config.batch_size, n)

    def validation_loss() -> float:
        data = val_z
        if config.validate_augmented and aug is not None:
            data = augment_batch(val_z, aug, train_rng)
        return nce_loss(net, data, noise_model.transform(val_noise_base), config.nu)

    best = None
    diverged = False
    for epoch in range(config.epochs):
        order = train_rng.permutation(n)
        epoch_loss = 0.0
        steps = 0
        try:
            for start in range(0, n, batch):
                zb = train_z[order[start : start + batch]]
                zm = augment_batch(zb, aug, train_rng) if aug is not None else zb
                vbase = noise_model.sample_base(
                    max(1, int(round(config.nu * zb.shape[0]))), train_rng
                )
                v = noise_model.transform(vbase)
                loss, grads = nce_loss_and_grads(net, zm, v, config.nu)
                if not np.isfinite(loss):
                    raise NonFiniteError("contrastive loss diverged")
                opt_theta.step(net.parameters(), grads)
                epoch_loss += loss
                steps += 1
                if opt_psi is not None and epoch >= warmup_epochs:
                    history["adapt_objective"].append(
                        adapt_noise(net, noise_model, opt_psi, zb, vbase)
                    )
        except NonFiniteError as exc:
            log.warning("training aborted at epoch %d: %s", epoch, exc)
            diverged = True
            break
        history["train_loss"].append(epoch_loss / max(steps, 1))
        vloss = validation_loss()
        if not np.isfinite(vloss):
            log.warning("validation loss diverged at epoch %d", epoch)
            diverged = True
            break
        history["val_loss"].append(vloss)
        if best is None or vloss < best[0]:
            psi_snap = None if noise_model.psi is None else noise_model.psi.copy()
            best = (vloss, net.snapshot(), psi_snap)

    if best is None:
        raise NonFiniteError("training diverged before any finite checkpoint")
    if diverged:
        log.warning("returning last finite checkpoint (val loss %.6g)", best[0])
    net.set_parameters(best[1])
    frozen = NoiseModel(noise_model.base, best[2], config.nu)
    history["best_val_loss"] = best[0]
    history["k_diag"] = frozen.k_diag().tolist()
    return EstimatorModel(net, frozen, config.score_noise), history


def _augmentation_margins(train_z, aug, noise_model) -> dict:
    """Diagnostic: augmented marginals must dominate the noise marginals."""
    out = {}
    for name, column, dist in (
        ("squared_error", train_z[:, -2], aug.error_dist),
        ("cosine_dissimilarity", train_z[:, -1], aug.cosine_dist),
    ):
        j = train_z.shape[1] - 2 if name == "squared_error" else train_z.shape[1] - 1
        report = verify_augmentation_margin(
            column,
            dist,
            float(noise_model.base.mean[j]),
            float(np.sqrt(noise_model.base.cov[j, j])),
        )
        out[name] = report.worst_margin
        if not report.ok:
            log.warning(
                "augmentation margin negative for %s: %.3g", name, report.worst_margin
            )
    return out
