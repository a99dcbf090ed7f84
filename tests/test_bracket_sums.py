"""The equilibrium solver's bracket sums against ``np.sum``, bit for bit.

The solver decides each bisection step by comparing the sum of the route
loads' brackets with 1.  It sums the brackets in pure Python, and those
sums must be the float64 values ``np.sum`` gives for the same lists, in
numpy's pairwise order: in order below 8 entries, with 8 accumulators up
to 128, and by halves above.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from mftroute.symmetric_equilibrium import _pairwise_sum

# each side of every switch of numpy's order: 8 entries, 128, and the halves rounded down to a multiple of 8
SWITCH_LENGTHS = [1, 2, 3, 7, 8, 9, 15, 16, 17, 127, 128, 129, 136, 255, 256, 257, 600]


def _lists(rng: np.random.Generator, count: int):
    """Loads in [0, 1), values spread over 60 binary orders, and signed values over 40 decimal ones."""
    yield rng.random(count)
    yield rng.random(count) * 2.0 ** rng.integers(-60, 2, count)
    yield rng.standard_normal(count) * 10.0 ** rng.integers(-20, 20, count)


def test_bracket_sums_are_those_of_np_sum():
    rng = np.random.default_rng(22)
    for count in SWITCH_LENGTHS + rng.integers(1, 601, 300).tolist():
        for values in _lists(rng, count):
            values = values.tolist()
            assert _pairwise_sum(values).hex() == float(np.sum(values)).hex(), count


@given(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=600))
def test_bracket_sums_of_any_finite_list_are_those_of_np_sum(values):
    assert _pairwise_sum(values).hex() == float(np.sum(values)).hex()


def test_a_sum_of_negative_zeros_is_positive_zero_as_in_np_sum():
    for count in SWITCH_LENGTHS:
        assert _pairwise_sum([-0.0] * count).hex() == float(np.sum([-0.0] * count)).hex() == "0x0.0p+0"
