"""Deterministic RNG derivation.

Every source of randomness in the package is a numpy Generator obtained
from a base seed plus a stream path, e.g. ``rng_from(seed, STREAM_FIT, i)``
for the i-th fitting sample batch. Derivation goes through
``numpy.random.SeedSequence(entropy=seed, spawn_key=path)``, so streams are
independent of each other and of scheduling order: task i gets the same
generator whether it runs on one thread or eight.
"""

from __future__ import annotations

import numpy as np

# Stream identifiers. Values are arbitrary but frozen: changing them changes
# every downstream artifact.
STREAM_WEIGHTS = 0
STREAM_Z = 1
STREAM_FIT = 2
STREAM_INVERT_NOISE = 3
STREAM_TARGETS = 4
STREAM_PAIRS = 5
STREAM_FEATURES = 6
STREAM_SAMPLES = 7
# 8 is retired: it seeded a Monte Carlo estimate that is now closed-form.
STREAM_TASKS = 9


def rng_from(seed: int, *path: int) -> np.random.Generator:
    """Return a Generator for the stream identified by (seed, *path)."""
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(path))
    return np.random.Generator(np.random.PCG64(ss))


def child_seed(seed: int, *path: int) -> int:
    """Derive an integer seed for a subtask (e.g. one inversion in a sweep)."""
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(path))
    return int(ss.generate_state(1, dtype=np.uint64)[0])
