"""Seed handling shared by every randomized operation in the package."""

from __future__ import annotations

import numpy as np

__all__ = ["as_rng", "DEFAULT_SEED"]

# Fixed default used by the command line ("SIMON" in ASCII); library calls
# that pass seed=None get fresh entropy instead.
DEFAULT_SEED = 0x53494D4F4E


def as_rng(seed=None) -> np.random.Generator:
    """Accept an int seed, an existing generator, or None (fresh entropy)."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
