"""CANCE: contrastive density estimation over compression features.

Anomaly detection that scores points by an estimated negative log density
of a composite feature: the compression model's latent representation
joined with its squared reconstruction error and cosine dissimilarity.
"""

__version__ = "0.1.0"

from cance.compress import (
    AutoencoderModel,
    PcaModel,
    covariance_loss,
    fit_pca,
    train_autoencoder,
)
from cance.data import Dataset, synth_generate
from cance.evaluation import ScoredSet, auroc, f1_at_contamination
from cance.nce import (
    AugmentationParams,
    EstimatorModel,
    NceConfig,
    NoiseModel,
    augment_batch,
    nce_loss,
    train_estimator,
)
from cance.rng import RunRng
from cance.stats import (
    GaussianModel,
    StreamingMoments,
    TruncatedNormalParams,
    lognormal_mode,
    verify_augmentation_margin,
)

__all__ = [
    "AugmentationParams",
    "AutoencoderModel",
    "Dataset",
    "EstimatorModel",
    "GaussianModel",
    "NceConfig",
    "NoiseModel",
    "PcaModel",
    "RunRng",
    "ScoredSet",
    "StreamingMoments",
    "TruncatedNormalParams",
    "augment_batch",
    "auroc",
    "covariance_loss",
    "f1_at_contamination",
    "fit_pca",
    "lognormal_mode",
    "nce_loss",
    "synth_generate",
    "train_autoencoder",
    "train_estimator",
    "verify_augmentation_margin",
]
