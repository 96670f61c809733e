"""Generated contract test: no mutated problem file escapes the CLI's 0/1/2 contract.

Each example takes fixture 4.1 or 4.2, whole or as a plant alone, and mutates one to
three of its leaves or keys: a value is replaced by an odd type, an integer beyond the
float range, a ``NaN``/``Infinity`` token, ``1e+-300`` or a small number, is wrapped in
a list or a dict or scaled by a power of two, or its key is dropped.  ``check``,
``synthesize --budget 3`` and a short ``simulate`` then run in process on the
document.  Each returns 0, 1 or 2 with no exception leaving ``cli.main``, and exit 2
prints exactly one ``error:`` line.
"""

import contextlib
import io
import json

import pytest

from swposobs import cli

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# the short simulate run of each fixture
SIMULATE_FLAGS = {"4.1": ["--horizon", "0.02"], "4.2": ["--steps", "5"]}
# an entry of one is scaled in all three, which keeps A_lower <= A <= A_upper
MATRIX_STACKS = [("A_lower",), ("A_upper",), ("truth", "A")]
POWERS_OF_TWO = [0.5, 2.0, 2.0**-30, 2.0**30]
ODD_VALUES = [None, True, "1", "text", [], {}, 10**400, -10**400, float("nan"), float("inf"),
              -float("inf"), 1e300, -1e300, 1e-300, -1e-300, 0, -1, 0.5, 3.0, 2**53 + 1]


def _load(example_id, design):
    """The fixture, or with ``design`` its plant alone, the input of a design run."""
    with open(cli.fixture_path(example_id), encoding="utf-8") as fh:
        doc = json.load(fh)
    if design:
        del doc["truth"], doc["observer"]
    return doc


DOCS = {(example_id, design): _load(example_id, design)
        for example_id in SIMULATE_FLAGS for design in (False, True)}


def _paths(node, path=()):
    """``(path, in a dict)`` for every node below the document root."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield path + (key,), isinstance(node, dict)
        if isinstance(child, (dict, list)):
            yield from _paths(child, path + (key,))


def _leaves(doc):
    return [path for path, _ in _paths(doc) if not isinstance(_get(doc, path), (dict, list))]


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


LEAVES = {base: _leaves(doc) for base, doc in DOCS.items()}
KEYS = {base: [path for path, keyed in _paths(doc) if keyed] for base, doc in DOCS.items()}


@st.composite
def mutated_documents(draw):
    """A fixture id and its document, whole or as a plant alone, with 1 to 3 leaves
    mutated or keys dropped.  Scaling an entry of ``A_lower``, ``A_upper`` or the true
    ``A`` by a power of two scales the same entry of all three, so the model often
    stays valid: whole documents reach the simulator, plants alone the gain search."""
    base = draw(st.sampled_from(sorted(DOCS)))
    doc = json.loads(json.dumps(DOCS[base]))  # a deep copy
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["replace"] * 3 + ["scale"] * 3
                                    + ["wrap in list", "wrap in dict", "drop"]))
        path = draw(st.sampled_from((KEYS if kind == "drop" else LEAVES)[base]))
        paths = [path]
        for head in MATRIX_STACKS:
            if kind == "scale" and path[:len(head)] == head:
                paths = [other + path[len(head):] for other in MATRIX_STACKS]
        factor = draw(st.sampled_from(POWERS_OF_TWO))
        odd = draw(st.sampled_from(ODD_VALUES))
        for path in paths:
            try:
                parent = _get(doc, path[:-1])
                value = parent[path[-1]]
            except (KeyError, IndexError, TypeError):  # an earlier mutation moved it
                continue
            if kind == "drop":
                del parent[path[-1]]
            elif kind == "replace":
                parent[path[-1]] = odd
            elif kind == "scale" and type(value) in (int, float) and abs(value) <= 1e300:
                parent[path[-1]] = value * factor
            elif kind != "scale":
                parent[path[-1]] = [value] if kind == "wrap in list" else {"value": value}
    return base[0], doc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
@hypothesis.given(mutated_documents())
def test_mutated_fixture_keeps_the_exit_contract(workdir, case):
    example_id, doc = case
    path = workdir / "problem.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = str(workdir / "out")
    for argv in (["check", str(path)],
                 ["synthesize", str(path), "--budget", "3", "--out", out],
                 ["simulate", str(path), "--out", out, *SIMULATE_FLAGS[example_id]]):
        code, err = _run(argv)
        assert code in (0, 1, 2), (argv[0], code, err)
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, (argv[0], err)
