"""Minimal deterministic dense-network engine.

float64 everywhere; sequential MLPs with reverse-mode gradients, AdamW,
and a checksummed binary container for parameters.
"""
