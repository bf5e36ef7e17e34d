"""Stream ids and seed derivation."""

import numpy as np
import pytest

from latentprior import seeding
from latentprior.seeding import child_seed, rng_from


def test_stream_ids_are_distinct():
    ids = {name: value for name, value in vars(seeding).items()
           if name.startswith("STREAM_")}
    assert len(ids) >= 9
    assert len(set(ids.values())) == len(ids)


def test_rng_from_is_deterministic_per_path():
    a = rng_from(5, seeding.STREAM_FIT, 2).standard_normal(8)
    b = rng_from(5, seeding.STREAM_FIT, 2).standard_normal(8)
    other = rng_from(5, seeding.STREAM_FIT, 3).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, other)


def test_child_seed_is_deterministic_per_path():
    seed = child_seed(0, seeding.STREAM_TASKS, 1, 4)
    assert seed == child_seed(0, seeding.STREAM_TASKS, 1, 4)
    assert seed != child_seed(0, seeding.STREAM_TASKS, 1, 5)
    assert isinstance(seed, int) and seed >= 0


@pytest.mark.parametrize("derive", [rng_from, child_seed])
def test_negative_seed_is_rejected(derive):
    with pytest.raises(ValueError):
        derive(-1, seeding.STREAM_Z)
