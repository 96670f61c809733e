"""Property tests: the solved-problem writer spells every JSON value and every float
array as json does."""

import json

import numpy as np
import pytest

from swposobs import cli

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
hnp = pytest.importorskip("hypothesis.extra.numpy")

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: (st.lists(children, max_size=5)
                      | st.lists(st.floats(), min_size=1, max_size=5)
                      | st.dictionaries(st.text(), children, max_size=5)),
    max_leaves=40,
)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(JSON_VALUES)
def test_dumps_indented_matches_json(value):
    assert cli._dumps_indented(value) == json.dumps(value, indent=2)


# Signed zeros, the smallest subnormal, floats whose repr switches to an exponent
# (1e16) or whose digits json must not round (1e22), the largest float, nan and inf.
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, 1e22,
         1.7976931348623157e308, -1.7976931348623157e308, float("nan"), float("inf"),
         float("-inf")]
ARRAYS = hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4),
                    elements=st.floats() | st.sampled_from(EDGES))


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(ARRAYS, st.sampled_from(["\n", "\n    "]))
def test_array_matches_json(array, pad):
    assert cli._dumps_indented(array, pad) == json.dumps(array.tolist(), indent=2).replace("\n", pad)
