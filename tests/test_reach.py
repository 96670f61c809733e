"""Every function of ``src/swposobs`` runs under some command, or is listed here.

A fixed corpus of in-process ``cli.main`` runs executes under ``sys.setprofile``,
which sees each Python call.  Every ``def`` and ``lambda`` of the package has a
code object, named by its ``co_filename`` and ``co_qualname``; the ones that the
corpus never calls must be exactly ``UNREACHED``, each with its reason.  A function
that only tests call fails here: it gets a production role or leaves the package.
Comprehensions and generator expressions are not counted: they are not functions
of the source, and Python 3.12 inlines the comprehensions.

The same corpus also runs under perfbench's span tracer, which must not change
any output.
"""

import importlib.util
import inspect
import json
import os
import sys
import types

import swposobs
from swposobs import certify, cli, matcore, sim, synth

from test_cli import BAD_INPUTS, _set, _two_by_two_doc

# (module, co_qualname) of each function that no command of the corpus calls: why.
UNREACHED = {
    ("sim", "_cell_tables"): "builds the CSV cell tables at import, before any profile is set",
    ("matcore", "expm"): "no command calls it; perfbench's tracer looks it up by name "
                         "(ROADMAP item 7 would give it a role, item 1b deletes it)",
    ("matcore", "_require_square"): "only expm and partition call it",
    ("matcore", "partition"): "no command calls it; perfbench's tracer looks it up by name "
                              "(ROADMAP item 1b deletes it)",
    ("matcore", "PartitionedBlocks.__post_init__"): "only partition builds PartitionedBlocks",
    ("matcore", "PartitionedBlocks.p"): "only partition builds PartitionedBlocks",
    ("matcore", "PartitionedBlocks.assemble"): "only partition builds PartitionedBlocks",
}

_NOT_FUNCTIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}
# The directory the package's modules were imported from: their co_filename's.
_PACKAGE = os.path.dirname(swposobs.__file__)


def _inner_code(code: types.CodeType):
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield const
            yield from _inner_code(const)


def _package_functions() -> set:
    """(module, co_qualname) of every ``def`` and ``lambda`` in the package's source."""
    names = set()
    for entry in sorted(os.listdir(_PACKAGE)):
        if not entry.endswith(".py"):
            continue
        path = os.path.join(_PACKAGE, entry)
        with open(path, encoding="utf-8") as fh:
            code = compile(fh.read(), path, "exec")
        for inner in _inner_code(code):
            # a class body has no CO_NEWLOCALS flag: it runs in the class namespace
            if inner.co_flags & inspect.CO_NEWLOCALS and inner.co_name not in _NOT_FUNCTIONS:
                names.add((entry[:-3], inner.co_qualname))
    return names


def _toy_doc(observer: bool) -> dict:
    """Discrete toy with A_12 = 0 and A_22 = 2: (iii) fails with a Farkas vector at
    every gain, so ``synthesize`` proves that no gain exists."""
    a = [[0.0, 0.0], [0.0, 2.0]]
    doc = {"domain": "discrete", "n": 2, "p": 1, "N": 1, "A_lower": [a], "A_upper": [a],
           "x0_lower": [0.0, 0.0], "x0_upper": [1.0, 1.0]}
    if observer:
        doc["observer"] = {"L": [[0.0]], "omega0_lower": [0.0], "omega0_upper": [1.0]}
    return doc


def _diverging_doc(domain: str) -> dict:
    """A plant whose state overflows within its few samples: ``simulate`` exits 1 on
    the first non-finite row, naming its step or time."""
    a = [[1e100] * 2] * 2 if domain == "discrete" else [[3.5e27] * 2] * 2
    doc = {"domain": domain, "n": 2, "p": 1, "N": 1, "A_lower": [a], "A_upper": [a],
           "x0_lower": [1.0, 1.0], "x0_upper": [1.0, 1.0], "truth": {"A": [a], "x0": [1.0, 1.0]},
           "observer": {"L": [[0.0]], "omega0_lower": [0.0], "omega0_upper": [2.0]},
           "switching": {"seed": 0, "min_dwell": 2, "steps": 10}}
    if domain == "continuous":
        doc["switching"] = {"seed": 0, "min_dwell": 0.005, "horizon": 0.01}
        doc["sim"] = {"step": 0.001}
    return doc


_TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "tracing.py")


def _corpus(tmp_path) -> list:
    """``(argv, exit code)`` of each run: every command on both fixtures, the flags
    and documents that reach the rest of the package, and every input error of
    ``BAD_INPUTS``."""
    def write(doc, name):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    fixtures = {key: str(cli.fixture_path(key)) for key in cli.FIXTURES}
    csv = str(tmp_path / "trace.csv")
    runs = []
    for key, path in fixtures.items():
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        del doc["observer"]
        runs += [(["check", path], 0), (["synthesize", path], 0),
                 (["simulate", path, "--out", csv], 0), (["reproduce", key], 0),
                 (["synthesize", write(doc, f"{key}.json")], 0)]
    two_by_two = _two_by_two_doc()
    del two_by_two["observer"]
    runs += [
        # 600 steps decay into e-1xx cells, which _spell_cells writes
        (["simulate", fixtures["4.2"], "--steps", "600", "--out", csv], 0),
        (["simulate", fixtures["4.2"], "--sample-truth", "1", "--out", csv], 0),
        (["synthesize", write(two_by_two, "2x2.json")], 0),  # designed by the gain LP
        (["synthesize", write(two_by_two, "2x2.json"), "--budget", "1"], 1),  # stopped
        (["synthesize", write(_toy_doc(False), "toy.json")], 1),  # proved: no gain
        (["check", write(_toy_doc(True), "toy_check.json")], 1),  # (iii) fails, Farkas
        (["synthesize", fixtures["4.1"], "--budget", "0"], 2),  # out-of-range flag
    ]
    runs += [(["simulate", write(_diverging_doc(domain), f"{domain}.json")], 1)
             for domain in ("continuous", "discrete")]
    for k, case in enumerate(BAD_INPUTS):
        path, value, _ = getattr(case, "values", case)
        with open(fixtures["4.1"], encoding="utf-8") as fh:
            doc = _set(json.load(fh), path, value)
        runs.append((["check", write(doc, f"bad{k}.json")], 2))
    return runs


def test_every_function_runs_under_a_command_or_is_listed(tmp_path, capsys):
    runs = _corpus(tmp_path)
    cli.build_parser.cache_clear()  # a fresh process builds its parser once
    cli._array_template.cache_clear()  # and each array template once
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    exits = []
    sys.setprofile(profile)
    try:
        for argv, _ in runs:
            exits.append(cli.main(argv))
            capsys.readouterr()
    finally:
        sys.setprofile(None)
    assert exits == [code for _, code in runs]
    reached = {(os.path.basename(code.co_filename)[:-3], code.co_qualname) for code in called
               if os.path.dirname(code.co_filename) == _PACKAGE}
    unreached = _package_functions() - reached
    extra, stale = sorted(unreached - UNREACHED.keys()), sorted(UNREACHED.keys() - unreached)
    assert not extra, f"called by no command and not in UNREACHED: {extra}"
    assert not stale, f"in UNREACHED but called by a command: {stale}"


def _run_corpus(runs, csv, capsys, tracer=None) -> list:
    """Exit code, stdout, stderr and ``--out`` bytes of each run, each ``--out`` fresh."""
    results = []
    for k, (argv, _) in enumerate(runs):
        if os.path.exists(csv):
            os.remove(csv)
        if tracer is not None:
            tracer.job = k
        code = cli.main(argv)
        if tracer is not None:
            tracer.job = None
        out, err = capsys.readouterr()
        written = None
        if "--out" in argv:
            with open(csv, "rb") as fh:
                written = fh.read()
        results.append((code, out, err, written))
    return results


def test_traced_runs_equal_untraced_runs(tmp_path, capsys):
    """perfbench's tracer wraps the layer functions by module attribute (``--trace 1``);
    with it installed every run of the corpus gives the same exit code, stdout,
    stderr and ``--out`` bytes as without it."""
    runs = _corpus(tmp_path)
    csv = str(tmp_path / "trace.csv")
    plain = _run_corpus(runs, csv, capsys)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install({"cli": cli, "synth": synth, "certify": certify, "sim": sim,
                    "matcore": matcore})
    try:
        traced = _run_corpus(runs, csv, capsys, tracer)
    finally:
        tracer.uninstall()
    assert [code for code, *_ in plain] == [code for _, code in runs]
    assert traced == plain
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "cli.load_problem", "synth.build_observer", "certify.find_lambda",
            "cli.serialize_problem", "sim.export_csv"} <= names
