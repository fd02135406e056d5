"""Minimal deterministic dense-network engine.

float64 everywhere; sequential MLPs with reverse-mode gradients, AdamW,
and a checksummed binary container for parameters.
"""

from cance.nn.layers import (
    Activation,
    BatchNormLayer,
    DenseLayer,
    Network,
    mlp,
    require_finite,
)
from cance.nn.optim import AdamW, fit_epochs
from cance.nn.serialize import load_container, save_container

__all__ = [
    "Activation",
    "AdamW",
    "BatchNormLayer",
    "DenseLayer",
    "Network",
    "fit_epochs",
    "load_container",
    "mlp",
    "require_finite",
    "save_container",
]
