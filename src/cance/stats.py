"""Moment estimation and the distributions used for noise and augmentation.

Covariances are biased (1/n) throughout so that batch merges are exact.
"""

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from cance.errors import DegenerateFeatureError, NonFiniteError, ShapeError

# added to the diagonal of a covariance that Cholesky rejects
JITTER = 1e-8
MARGIN_GRID_SIZE = 512
KDE_BLOCK = 16
STANDARD_NORMAL = NormalDist()


@dataclass
class StreamingMoments:
    """Mean and biased covariance accumulated over batches.

    Merging two accumulators reproduces the one-pass moments of the
    concatenated data exactly:

        mean  = (n_a * mean_a + n_b * mean_b) / (n_a + n_b)
        cov   = (n_a/n) cov_a + (n_b/n) cov_b
                + (n_a n_b / n^2) outer(mean_a - mean_b)
    """

    count: int
    mean: np.ndarray
    cov: np.ndarray

    @classmethod
    def empty(cls, dim: int) -> "StreamingMoments":
        return cls(0, np.zeros(dim), np.zeros((dim, dim)))

    @classmethod
    def from_batch(cls, batch: np.ndarray) -> "StreamingMoments":
        batch = np.asarray(batch, dtype=np.float64)
        if batch.ndim != 2 or batch.shape[0] == 0:
            raise ShapeError("batch must be a non-empty 2-D array")
        mean = batch.mean(axis=0)
        centered = batch - mean
        cov = centered.T @ centered / batch.shape[0]
        return cls(batch.shape[0], mean, cov)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def merge(self, other: "StreamingMoments") -> "StreamingMoments":
        if self.dim != other.dim:
            raise ShapeError(f"dim mismatch: {self.dim} vs {other.dim}")
        if self.count == 0:
            return StreamingMoments(other.count, other.mean.copy(), other.cov.copy())
        if other.count == 0:
            return StreamingMoments(self.count, self.mean.copy(), self.cov.copy())
        na, nb = self.count, other.count
        n = na + nb
        mean = (na * self.mean + nb * other.mean) / n
        delta = self.mean - other.mean
        cov = (
            (na / n) * self.cov
            + (nb / n) * other.cov
            + (na * nb / n**2) * np.outer(delta, delta)
        )
        return StreamingMoments(n, mean, cov)

    def update(self, batch: np.ndarray) -> "StreamingMoments":
        return self.merge(StreamingMoments.from_batch(batch))


def lognormal_mode(samples: np.ndarray) -> float:
    """Mode estimate for a positive, right-skewed feature.

    Fits the feature's sample mean and biased variance and maps them to the
    mode a log-normal with those moments would have:

        mode = mean * (var / mean^2 + 1) ** (-3/2)

    Zero variance returns the mean itself.
    """
    samples = np.asarray(samples, dtype=np.float64).ravel()
    if samples.size < 2:
        raise ShapeError("need at least 2 samples")
    mean = float(samples.mean())
    if not np.isfinite(mean):
        raise NonFiniteError("non-finite sample mean")
    if mean <= 0.0:
        raise DegenerateFeatureError(f"sample mean must be positive, got {mean}")
    var = float(samples.var())
    if var == 0.0:
        return mean
    return mean * (var / mean**2 + 1.0) ** -1.5


@dataclass
class TruncatedNormalParams:
    """Normal with location `mode` and scale `sigma`, truncated to [0, mode]."""

    mode: float
    sigma: float

    def __post_init__(self):
        if not (self.mode > 0.0 and np.isfinite(self.mode)):
            raise DegenerateFeatureError(f"mode must be positive, got {self.mode}")
        if not (self.sigma > 0.0 and np.isfinite(self.sigma)):
            raise DegenerateFeatureError(f"sigma must be positive, got {self.sigma}")

    @classmethod
    def fit(cls, samples: np.ndarray) -> "TruncatedNormalParams":
        """Fit from a feature column: mode via lognormal_mode, scale = sample std."""
        samples = np.asarray(samples, dtype=np.float64).ravel()
        mode = lognormal_mode(samples)
        sigma = float(samples.std())
        if sigma == 0.0:
            raise DegenerateFeatureError("zero-variance feature cannot be augmented")
        return cls(mode, sigma)

    def _mass(self) -> float:
        # probability a N(mode, sigma^2) draw lands in [0, mode]
        return 0.5 - 0.5 * math.erfc(self.mode / self.sigma / math.sqrt(2.0))

    def pdf(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=np.float64)
        out = np.zeros_like(z, dtype=np.float64)
        inside = (z >= 0.0) & (z <= self.mode)
        u = (z[inside] - self.mode) / self.sigma
        out[inside] = np.exp(-0.5 * u * u) / (
            np.sqrt(2.0 * np.pi) * self.sigma * self._mass()
        )
        return out

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Rejection from the parent normal; inverse CDF when acceptance is poor."""
        mass = self._mass()
        if mass >= 0.01:
            out = np.empty(n)
            filled = 0
            while filled < n:
                # headroom over 1/mass keeps the loop count low
                draw = self.mode + self.sigma * rng.standard_normal(
                    max(int((n - filled) / mass * 1.5), 16)
                )
                keep = draw[(draw >= 0.0) & (draw <= self.mode)]
                take = min(keep.size, n - filled)
                out[filled : filled + take] = keep[:take]
                filled += take
            return out
        lo = 0.5 - mass  # exact, as mass = 0.5 - lo with lo in (0.49, 0.5]
        u = lo + rng.uniform(size=n) * mass
        x = np.array([STANDARD_NORMAL.inv_cdf(p) for p in u.tolist()])
        return np.clip(self.mode + self.sigma * x, 0.0, self.mode)


class GaussianModel:
    """Multivariate normal with a cached lower-triangular factor L and its
    inverse, which whitens: the log-density is one GEMM per block of rows."""

    def __init__(self, mean: np.ndarray, cov: np.ndarray):
        mean = np.asarray(mean, dtype=np.float64).ravel()
        cov = np.asarray(cov, dtype=np.float64)
        if cov.shape != (mean.size, mean.size):
            raise ShapeError(f"cov {cov.shape} does not match mean dim {mean.size}")
        self.mean = mean
        self.cov = cov
        try:
            self.factor = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            try:
                self.factor = np.linalg.cholesky(cov + JITTER * np.eye(mean.size))
            except np.linalg.LinAlgError as exc:
                raise NonFiniteError(
                    "covariance is not positive definite even after "
                    f"+{JITTER:g}*I jitter; condition too poor to factorize"
                ) from exc
        self._whiten = np.linalg.inv(self.factor)  # L^-1: z = L^-1 (u - mean)
        self.logdet = 2.0 * np.sum(np.log(np.diag(self.factor)))

    @property
    def dim(self) -> int:
        return self.mean.size

    def logpdf(self, u: np.ndarray) -> np.ndarray:
        """Log density of each row of `u`; a single point is one row."""
        pts = np.atleast_2d(np.asarray(u, dtype=np.float64))
        if pts.shape[1] != self.dim:
            raise ShapeError(f"expected points of dim {self.dim}, got {pts.shape[1]}")
        centered = pts - self.mean
        if not np.isfinite(centered).all():
            raise NonFiniteError("non-finite values in a Gaussian log-density's input")
        with np.errstate(over="ignore"):  # a far row's density is 0: quad is inf
            z = centered @ self._whiten.T  # the Mahalanobis norm is |z|^2
            quad = np.sum(z * z, axis=1)
        return -0.5 * (self.dim * np.log(2.0 * np.pi) + self.logdet + quad)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.mean + rng.standard_normal((n, self.dim)) @ self.factor.T


def quartiles(samples: np.ndarray) -> np.ndarray:
    """np.percentile(samples, [25, 75]) bit for bit, without its numpy.ma import."""
    ordered, at = np.sort(samples), (samples.size - 1) * np.array([0.25, 0.75])
    low, t = at.astype(np.intp), at % 1.0
    a, b = ordered[low], ordered[np.minimum(low + 1, samples.size - 1)]
    return np.where(t >= 0.5, b - (b - a) * (1 - t), a + (b - a) * t)


def gaussian_kde_silverman(samples: np.ndarray):
    """1-D Gaussian kernel density with the classic Silverman bandwidth.

    Diagnostic oracle only; not used on the scoring path.
    """
    samples = np.asarray(samples, dtype=np.float64).ravel()
    if samples.size == 0:
        raise ShapeError("empty sample")
    sigma = samples.std()
    iqr = np.subtract(*quartiles(samples)[::-1])
    spread = min(sigma, iqr / 1.34) if iqr > 0 else sigma
    if spread == 0.0:
        raise DegenerateFeatureError("zero-variance sample has no usable bandwidth")
    h = 0.9 * spread * samples.size ** (-0.2)

    def density(z):
        # in blocks of grid points to bound the (block x samples) arrays;
        # each point keeps its own row sum, so the block moves no bit
        z = np.asarray(z, dtype=np.float64)
        sums = np.empty(z.shape[0])
        for start in range(0, z.shape[0], KDE_BLOCK):
            u = (z[start : start + KDE_BLOCK, None] - samples[None, :]) / h
            sums[start : start + KDE_BLOCK] = np.exp(-0.5 * u * u).sum(axis=1)
        return sums / (samples.size * h * np.sqrt(2 * np.pi))

    return density


@dataclass
class MarginReport:
    ok: bool
    worst_margin: float
    grid: np.ndarray
    margins: np.ndarray


def verify_augmentation_margin(
    p0_samples: np.ndarray,
    params: TruncatedNormalParams,
    noise_mean: float,
    noise_sigma: float,
) -> MarginReport:
    """Check that the augmented marginal dominates the Gaussian noise marginal.

    Evaluates 0.5*kde(z) + 0.5*p_t(z) - N(noise_mean, noise_sigma^2)(z) on a
    grid of MARGIN_GRID_SIZE points over [0, mode] and reports the worst
    margin.
    """
    p0_samples = np.asarray(p0_samples, dtype=np.float64).ravel()
    if p0_samples.size == 0:
        raise ShapeError("empty sample")
    if noise_sigma <= 0.0:
        raise DegenerateFeatureError("noise marginal needs positive sigma")
    grid = np.linspace(0.0, params.mode, MARGIN_GRID_SIZE)
    mixture = (0.5 * gaussian_kde_silverman(p0_samples)(grid)
               + 0.5 * params.pdf(grid))
    u = (grid - noise_mean) / noise_sigma
    noise_pdf = np.exp(-0.5 * u * u) / (np.sqrt(2.0 * np.pi) * noise_sigma)
    margins = mixture - noise_pdf
    worst = float(margins.min())
    return MarginReport(worst >= 0.0, worst, grid, margins)
