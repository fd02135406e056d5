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
    sigmoid,
)
from cance.nn.optim import AdamW
from cance.nn.serialize import load_container, save_container

__all__ = [
    "Activation",
    "AdamW",
    "BatchNormLayer",
    "DenseLayer",
    "Network",
    "load_container",
    "mlp",
    "require_finite",
    "save_container",
    "sigmoid",
]
