"""Property test: the solved-problem writer spells every JSON value as json does."""

import json

import pytest

from swposobs import cli

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

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
