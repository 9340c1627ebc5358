import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from b5gcell import VariantSpec, build_scenario
from b5gcell.stream import Stream


def _reference(entropy):
    """numpy's generator for *entropy*, the stream the layout draws used to come from."""
    return np.random.default_rng(np.random.SeedSequence(entropy))


# 0, one 32-bit word, two words and more than two (multi-word entropy)
SEEDS = st.one_of(st.just(0), st.integers(1, 2**32 - 1), st.integers(2**32, 2**64 - 1),
                  st.integers(2**64, 2**200))
# lo <= hi with hi - lo never -0.0, which numpy rejects as a negative range
BOUNDS = st.tuples(st.floats(-1e6, 1e6), st.floats(0.0, 1e6)).map(lambda b: (b[0], b[0] + b[1]))


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS, digest=st.integers(0, 2**64 - 1), bounds=BOUNDS, n=st.integers(1, 300),
       halfwidth=st.floats(0.0, 50.0), n_users=st.integers(1, 64))
def test_stream_equals_numpy_uniform_bit_for_bit(seed, digest, bounds, n, halfwidth, n_users):
    lo, hi = bounds
    reference, stream = _reference([seed, digest]), Stream([seed, digest])
    assert stream.uniform(lo, hi, n) == reference.uniform(lo, hi, n).tolist()
    # the 2-D offsets draw continues the stream in C order
    offsets = reference.uniform(-halfwidth, halfwidth, size=(n_users, 2))
    assert stream.uniform(-halfwidth, halfwidth, 2 * n_users) == offsets.ravel().tolist()


@pytest.mark.parametrize("entropy", [[-1, 0], [0, -5]])
def test_negative_entropy_is_rejected_as_numpy_rejects_it(entropy):
    with pytest.raises(ValueError):
        np.random.SeedSequence(entropy)
    with pytest.raises(ValueError):
        Stream(entropy)


@pytest.mark.parametrize("seed", [0, 7, 2**40])
def test_random_layout_is_the_numpy_layout(bundle, seed):
    layout = bundle.layout._replace(placement="random")
    variant = VariantSpec("sep-mmwave", "sep-mmwave", 64)
    model = build_scenario(bundle._replace(layout=layout), variant, seed=seed)
    digest = int.from_bytes(hashlib.sha256(variant.name.encode()).digest()[:8], "big")
    reference = _reference([seed, digest])
    distances = np.sort(reference.uniform(layout.distance_min_m, layout.distance_max_m,
                                          bundle.scenario.n_buildings))
    offsets = reference.uniform(-layout.room_halfwidth_m, layout.room_halfwidth_m,
                                size=(bundle.scenario.n_iue, 2))
    assert model.building_distances == distances.tolist()
    assert model.user_offsets == [tuple(row) for row in offsets.tolist()]
