"""Seeded random number generation with named substreams.

A run owns a single root seed. Every stochastic component draws from its
own named stream, so adding or reordering components never perturbs the
draws seen by the others. Stream identity is derived by hashing the name,
which is stable across processes and platforms.
"""

import hashlib

import numpy as np


class RunRng:
    """Root generator for one run; hands out independent named streams."""

    def __init__(self, seed: int):
        self.seed = int(seed)

    def stream(self, name: str) -> np.random.Generator:
        """Return a fresh generator for the given substream name.

        Calling twice with the same name restarts the stream from its
        beginning; callers that need continuation should hold on to the
        returned generator.
        """
        digest = hashlib.sha256(name.encode("utf-8")).digest()
        words = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
        return np.random.default_rng([self.seed, *words])
