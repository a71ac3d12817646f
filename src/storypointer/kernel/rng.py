"""Seeded random streams.

Every stochastic step in the package (weight init, shuffling, masking,
negative sampling, dropout) draws from an explicit RngStream, so a fixed
seed plus a fixed draw order reproduces a run exactly.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_seed(seed: int, tag: str) -> int:
    """Deterministically derive a child seed for an independent stream."""
    digest = hashlib.sha256(f"{seed}:{tag}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class RngStream:
    """A PCG64 generator; a seed plus a call order reproduces its draws."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def child(self, tag: str) -> "RngStream":
        """Independent stream keyed off this seed and a purpose tag."""
        return RngStream(derive_seed(self.seed, tag))

    def random(self, shape=None) -> np.ndarray:
        return self._gen.random(shape)

    def uniform(self, low: float, high: float, shape=None) -> np.ndarray:
        return np.asarray(self._gen.uniform(low, high, shape))

    def normal(self, loc: float, scale: float, shape=None) -> np.ndarray:
        return np.asarray(self._gen.normal(loc, scale, shape))

    def integers(self, low: int, high: int, shape=None) -> np.ndarray:
        """Integers in [low, high)."""
        return self._gen.integers(low, high, shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)
