"""CANCE: contrastive density estimation over compression features.

Anomaly detection that scores points by an estimated negative log density
of a composite feature: the compression model's latent representation
joined with its squared reconstruction error and cosine dissimilarity.
"""

from cance import machine  # noqa: F401  (pins OpenBLAS before any submodule computes)

__version__ = "0.1.0"
