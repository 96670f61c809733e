"""Command-line front end: problem files in, reports and CSV traces out.

Problem files are JSON documents with the interval model plus optional
``truth``, ``observer``, ``switching`` and ``sim`` blocks (schema in the
README).  Exit codes are a stable contract: 0 success, 1 method-level
failure (conditions, synthesis, bracket), 2 input error.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import math
import os
import stat
import sys
from dataclasses import dataclass
from importlib import resources
from json.encoder import encode_basestring_ascii

import numpy as np

from . import sim as simmod
from . import certify, synth
from .matcore import _SHAPE_WORDS, freeze
from .synth import CONTINUOUS, DISCRETE, DesignError, IntervalSystem

__all__ = [
    "Problem",
    "ProblemFileError",
    "fixture_path",
    "load_problem",
    "main",
    "parse_problem",
    "serialize_problem",
]

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INPUT = 2

DEFAULT_CONT_TOL = 1e-6
DEFAULT_DISC_TOL = 1e-12

FIXTURES = {"4.1": "continuous_4_1.json", "4.2": "discrete_4_2.json"}

CONDITION_LABELS = {
    CONTINUOUS: {
        "i": "lower observer dynamics Metzler",
        "ii": "lower injection matrices nonnegative",
        "iii": "common copositive vector for upper dynamics",
        "iv": "observer start envelope admissible",
    },
    DISCRETE: {
        "i": "lower observer dynamics nonnegative",
        "ii": "lower injection matrices nonnegative",
        "iii": "common copositive vector for shifted upper dynamics",
        "iv": "observer start envelope admissible",
    },
}


class ProblemFileError(ValueError):
    """The problem document is malformed or violates a model assumption."""


@dataclass(frozen=True)
class Problem:
    """Parsed problem document."""

    system: IntervalSystem
    truth: simmod.TrueSystem | None
    observer_gain: np.ndarray | None
    omega0_lower: np.ndarray | None
    omega0_upper: np.ndarray | None
    switching: dict | None
    sim_settings: dict | None

    def build_observer(self) -> synth.ObserverRealization:
        if self.observer_gain is None:
            raise ProblemFileError("problem file has no observer block")
        return synth.build_observer(
            self.system, self.observer_gain, self.omega0_lower, self.omega0_upper
        )


def _require(doc: dict, key: str):
    if key not in doc:
        raise ProblemFileError(f"missing required key {key!r}")
    return doc[key]


def _require_int(doc: dict, key: str) -> int:
    value = _require(doc, key)
    if type(value) is not int:
        raise ProblemFileError(f"{key} must be an integer, got {value!r}")
    return value


def _block(doc: dict, key: str) -> dict:
    block = doc[key]
    if not isinstance(block, dict):
        raise ProblemFileError(f"{key} block must be an object")
    return block


# The range of each optional file setting and numeric flag: (lower bound, bound allowed).
# Each must also be finite.
RANGES = {"step": (0, False), "horizon": (0, False), "steps": (1, True), "tol": (0, True),
          "sample_truth": (0, True), "budget": (1, True), "seed": (0, True),
          "min_dwell": (0, True)}
# Optional file settings, in the order they are checked: (block, key, integer only)
SCALAR_SETTINGS = (("switching", "seed", True), ("switching", "steps", True),
                   ("switching", "min_dwell", False), ("switching", "horizon", False),
                   ("sim", "step", False))


def _in_range(value, key: str) -> bool:
    """``value`` meets the lower bound of ``key`` in ``RANGES``; False for nan."""
    low, closed = RANGES[key]
    return value > low or (closed and value == low)


def _bound(key: str) -> str:
    low, closed = RANGES[key]
    return f"{'>=' if closed else '>'} {low}"


def _check_scalars(doc: dict) -> None:
    """Optional settings must be JSON integers or numbers, never bool, in range, finite.

    Checked here so that no later conversion silently truncates them and every
    error names the field.
    """
    for name, key, integer in SCALAR_SETTINGS:
        if doc.get(name) is None or key not in _block(doc, name):
            continue
        value = doc[name][key]
        if integer and type(value) is not int:
            raise ProblemFileError(f"{name}.{key} must be an integer, got {value!r}")
        if type(value) not in (int, float):
            raise ProblemFileError(f"{name}.{key} must be a number, got {value!r}")
        if not _in_range(value, key):
            raise ProblemFileError(f"{name}.{key} must be {_bound(key)}, got {value!r}")
        try:  # nan and -inf fail the range check; an int may exceed every float
            finite = integer or math.isfinite(value)
        except OverflowError:
            finite = False
        if not finite:
            raise ProblemFileError(f"{name}.{key} must be finite, got {value!r}")


def _check_flags(args) -> None:
    """Reject an out-of-range or non-finite flag of the command, naming it: a nan or
    inf ``--tol`` would let no bracket comparison fail.  ``--seed`` is ignored, since
    the gain search draws no random numbers, but still checked.  An integer flag may
    exceed every float, and every integer is finite, so finite means ``!= inf``."""
    for key in RANGES:
        value = getattr(args, key, None)
        if value is not None and not (_in_range(value, key) and value != math.inf):
            raise ValueError(f"--{key.replace('_', '-')} must be finite and {_bound(key)}, "
                             f"got {value!r}")


def parse_problem(doc: dict) -> Problem:
    """Build a :class:`Problem` from a decoded JSON document."""
    try:
        return _parse_problem(doc)
    except TypeError as exc:
        raise ProblemFileError(f"malformed problem document: {exc}") from exc


def _parse_problem(doc: dict) -> Problem:
    if not isinstance(doc, dict):
        raise ProblemFileError("problem document must be a JSON object")
    domain = _require(doc, "domain")
    n = _require_int(doc, "n")
    p = _require_int(doc, "p")
    nsub = _require_int(doc, "N")
    a_lower = _require(doc, "A_lower")
    a_upper = _require(doc, "A_upper")
    for key, mats in (("A_lower", a_lower), ("A_upper", a_upper)):
        if not isinstance(mats, list) or len(mats) != nsub:
            raise ProblemFileError(f"{key} must be a list of N={nsub} matrices")
    try:
        system = IntervalSystem(
            domain=domain,
            p=p,
            a_lower=a_lower,
            a_upper=a_upper,
            x0_lower=_require(doc, "x0_lower"),
            x0_upper=_require(doc, "x0_upper"),
        )
    except ValueError as exc:
        raise ProblemFileError(str(exc)) from exc
    if system.n != n:
        raise ProblemFileError(f"declared n={n} but matrices are {system.n}x{system.n}")

    truth = None
    if "truth" in doc:
        block = _block(doc, "truth")
        try:
            a_true = _require(block, "A")
            if not isinstance(a_true, list):
                raise ProblemFileError("A must be a list of matrices")
            truth = simmod.TrueSystem(a=a_true, x0=_require(block, "x0"))
            simmod.validate_truth(system, truth)
        except ValueError as exc:
            raise ProblemFileError(f"truth block invalid: {exc}") from exc

    gain = om_lo = om_up = None
    if "observer" in doc:
        block = _block(doc, "observer")
        arrays = []  # build_observer checks their shapes and entries
        for key, ndim in (("L", 2), ("omega0_lower", 1), ("omega0_upper", 1)):
            value = _require(block, key)
            try:
                arrays.append(freeze(np.array(value, dtype=float)))
            except (TypeError, ValueError) as exc:  # ragged nesting, or no number
                raise ProblemFileError(f"observer block invalid: {key} must be "
                                       f"{_SHAPE_WORDS[ndim]}") from exc
            except OverflowError as exc:
                raise ProblemFileError(f"observer block invalid: {key} has an entry "
                                       "beyond the float range") from exc
        gain, om_lo, om_up = arrays

    _check_scalars(doc)
    return Problem(
        system=system,
        truth=truth,
        observer_gain=gain,
        omega0_lower=om_lo,
        omega0_upper=om_up,
        switching=doc.get("switching"),
        sim_settings=doc.get("sim"),
    )


def load_problem(path: str) -> Problem:
    try:
        fh = open(path, "r", encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise ProblemFileError(f"cannot read {path}: {exc}") from exc
    try:
        with fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from exc
    # bad syntax or UTF-8, an int beyond the digit limit, deep nesting
    except (ValueError, RecursionError) as exc:
        raise ProblemFileError(f"{path} is not valid JSON: {exc}") from exc
    return parse_problem(doc)


def serialize_problem(problem: Problem, observer: synth.ObserverRealization | None = None) -> dict:
    """Canonical document for a problem (optionally with a full observer).

    Each array entry is the frozen numpy array that the problem or the observer
    holds; ``json.dumps(doc, default=np.ndarray.tolist)`` spells the document.
    """
    system, truth = problem.system, problem.truth
    doc = {"domain": system.domain, "n": system.n, "p": system.p, "N": system.nsub,
           "A_lower": system.a_lower, "A_upper": system.a_upper,
           "x0_lower": system.x0_lower, "x0_upper": system.x0_upper}
    if truth is not None:
        doc["truth"] = {"A": truth.a, "x0": truth.x0}
    if observer is not None:
        doc["observer"] = {"L": observer.gain_l, "omega0_lower": observer.omega0_lower,
                           "omega0_upper": observer.omega0_upper,
                           "Ahat_lower": observer.ahat_lower, "Ahat_upper": observer.ahat_upper,
                           "G_lower": observer.g_lower, "G_upper": observer.g_upper,
                           "F": observer.f, "Chat": observer.chat, "Dhat": observer.dhat}
    elif problem.observer_gain is not None:
        doc["observer"] = {"L": problem.observer_gain, "omega0_lower": problem.omega0_lower,
                           "omega0_upper": problem.omega0_upper}
    if problem.switching is not None:
        doc["switching"] = dict(problem.switching)
    if problem.sim_settings is not None:
        doc["sim"] = dict(problem.sim_settings)
    return doc


@functools.lru_cache(maxsize=128)
def _array_template(shape: tuple, pad: str) -> str:
    """The text of ``json.dumps(indent=2)`` for a nonempty list of ``shape``
    starting on a line with ``pad``, with ``%r`` in place of each float."""
    if not shape:
        return "%r"
    inner = pad + "  "
    return "[" + inner + ("," + inner).join([_array_template(shape[1:], inner)] * shape[0]) + pad + "]"


def _dumps_indented(obj, pad: str = "\n") -> str:
    """The text of ``json.dumps(obj, indent=2, default=np.ndarray.tolist)``, with one
    ``%`` per float array.

    ``indent`` sends json to its pure-Python encoder, one generator step per value.
    Here a nonempty float array is spelled on a template of its shape and ``pad``,
    one ``%r`` per entry: ``float.__repr__`` is json's own spelling of a finite
    float.  An empty array, and one whose text holds an ``n`` (a nan or inf), goes
    to ``json.dumps`` as a list.  Dicts recurse; their keys must be strings, as they
    are in every decoded JSON document.  Every other value goes to ``json.dumps``,
    with ``indent`` only for a list, which json spells over lines.  json escapes each
    newline inside a string, so each newline it writes is a line break.  ``pad`` is
    a newline plus the indentation of the line on which ``obj`` starts.
    """
    if isinstance(obj, dict) and obj:
        inner = pad + "  "
        body = ("," + inner).join([encode_basestring_ascii(key) + ": " +
                                   _dumps_indented(value, inner) for key, value in obj.items()])
        return "{" + inner + body + pad + "}"
    if isinstance(obj, np.ndarray):
        if obj.size:
            text = _array_template(obj.shape, pad) % tuple(obj.ravel().tolist())
            if "n" not in text:
                return text
        obj = obj.tolist()
    indent = 2 if isinstance(obj, (list, tuple, dict)) else None  # a scalar takes json's C path
    return json.dumps(obj, indent=indent).replace("\n", pad)


def fixture_path(example_id: str):
    """Filesystem path of a bundled example problem ('4.1' or '4.2')."""
    if example_id not in FIXTURES:
        raise KeyError(f"unknown example id {example_id!r}")
    return resources.files("swposobs").joinpath("fixtures", FIXTURES[example_id])


def format_report(report: synth.ConditionReport) -> str:
    labels = CONDITION_LABELS[report.domain]
    lines = []
    for key, ok in report.as_dict().items():
        lines.append(f"condition ({key:>3}) {labels[key]:<48} {'pass' if ok else 'FAIL'}")
    if report.certificate is not None:
        lam = ", ".join(f"{v:.12g}" for v in report.certificate.lam)
        lines.append(f"copositive witness lambda = [{lam}] (margin {report.certificate.margin:.6g})")
    if report.farkas is not None:
        v = ", ".join(f"{x:.12g}" for x in report.farkas)
        lines.append(f"copositive infeasibility witness v = [{v}]")
    if report.first_violation:
        lines.append(f"first violation: {report.first_violation}")
    lines.append(f"note: {synth.OMEGA_NOTE}")
    lines.append(f"overall: {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines)


def format_bracket(report: simmod.BracketReport, samples: int) -> str:
    lines = [
        f"bracket check over {samples} samples at tol {report.tol:g}:",
        f"  violations: nonneg={report.violations_nonneg} "
        f"lower={report.violations_lower} upper={report.violations_upper}",
    ]
    if report.worst_location is not None:
        layer, t, comp = report.worst_location
        lines.append(
            f"  worst violation {report.worst_violation:.6g} on layer {layer} "
            f"at t={t:g}, component {comp + 1}"
        )
    lines.append(
        f"  sup||xi|| = {report.sup_xi_norm:.6g}, ||xi|| start/end = "
        f"{report.xi_norm_start:.6g} -> {report.xi_norm_end:.6g}"
    )
    lines.append(f"  measured components match output exactly: {report.outputs_exact}")
    return "\n".join(lines)


def cmd_check(args) -> int:
    problem = load_problem(args.file)
    report = synth.check_conditions(problem.system, problem.build_observer())
    print(format_report(report))
    return EXIT_OK if report.passed else EXIT_FAILURE


def _check_writable(path: str | None) -> None:
    """Raise a ValueError with the text of the error that opening ``path`` for writing
    would raise, found without opening it: checked before a design or a simulation,
    so that an unwritable path is reported before either runs.  No path is stdout."""
    if not path:
        return
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOENT
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise ValueError(f"cannot write {path}: {OSError(code, os.strerror(code), path)}")


class _StdoutText:
    """A binary file object that hands each ASCII chunk to ``sys.stdout`` as text."""

    def write(self, data) -> None:
        sys.stdout.write(str(data, "ascii"))


def _write_out(path: str | None, write) -> None:
    """Call ``write(fh)`` on the binary file ``path``, or on ``_StdoutText`` when
    there is no path, so stdout keeps its own line ends and any text stream works.

    An existing file is overwritten in place, then cut at the last byte written,
    also when ``write`` raises: on ext4, truncating it to zero first costs about ten
    times the write.  Only a regular file is cut, never ``/dev/null`` or a FIFO.
    The file holds exactly what ``write`` writes; an OSError is an input error.
    """
    if not path:
        write(_StdoutText())
        return
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
        with open(fd, "wb") as fh:
            try:
                write(fh)
            finally:
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    fh.truncate()
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc


def cmd_synthesize(args) -> int:
    problem = load_problem(args.file)
    _check_writable(args.out)
    if problem.observer_gain is None:
        observer, _ = synth.search_gain(problem.system, budget=args.budget)
    else:
        observer = problem.build_observer()
        report = synth.check_conditions(problem.system, observer)
        if not report.passed:
            raise DesignError(f"supplied gain fails the conditions: {report.first_violation}")
    try:
        text = _dumps_indented(serialize_problem(problem, observer))
    except RecursionError as exc:  # json.load reads objects nested deeper than the writer can
        raise ValueError("the problem file holds a value nested too deeply to write") from exc
    data = (text + "\n").encode("ascii")
    _write_out(args.out, lambda fh: fh.write(data))
    return EXIT_OK


# The most samples, and the most switches, one simulation may ask for: about 500 times
# fixture 4.1 at its own settings (2,007 samples, an 804,920-byte CSV).
SIM_CAP = 1_000_000


def _simulate(problem: Problem, truth, observer, args):
    """Simulate under the flags in ``args`` over the file's settings and defaults;
    returns the trace and the bracket tol.

    A flag of the other time domain is an input error.  So are settings that ask for
    more than ``SIM_CAP`` samples or switches, rejected naming the fields before
    anything is allocated.  A discrete run takes ``steps`` samples and at most as
    many switches; a continuous run takes about ``horizon / step`` samples and at
    most ``horizon / min_dwell`` switches (every dwell is at least ``min_dwell``).
    An unwritable ``args.out`` is reported after these checks, before the run.
    """
    system = problem.system
    domain, switching = system.domain, problem.switching or {}
    other, ignored = ((CONTINUOUS, ("step", "horizon")) if domain == DISCRETE
                      else (DISCRETE, ("steps",)))
    for key in ignored:  # a flag the simulation would ignore is an input error
        if getattr(args, key) is not None:
            raise ValueError(f"--{key} applies only to {other}-time problems, "
                             f"not {domain}-time ones")

    def name(flag, field):
        return f"--{flag}" if getattr(args, flag) is not None else field

    # parse_problem has type-checked the file's values; float() only widens an
    # integer-valued number such as "min_dwell": 5.
    seed = switching.get("seed", 0)
    if domain == DISCRETE:
        steps = args.steps if args.steps is not None else switching.get("steps", 60)
        if steps > SIM_CAP:
            raise ValueError(f"{name('steps', 'switching.steps')} = {steps} asks for more "
                             f"than {SIM_CAP} samples")
        min_dwell = float(switching.get("min_dwell", 5))
        sig = simmod.make_switching_signal(system.nsub, steps, min_dwell, seed, domain=DISCRETE)
        _check_writable(args.out)
        trace = simmod.simulate_discrete(system, truth, observer, sig, steps)
        return trace, DEFAULT_DISC_TOL if args.tol is None else args.tol
    min_dwell = float(switching.get("min_dwell", 0.2))
    horizon = args.horizon if args.horizon is not None else float(switching.get("horizon", 2.0))
    step = args.step if args.step is not None else float((problem.sim_settings or {}).get("step", 1e-3))
    span = f"{name('horizon', 'switching.horizon')} = {horizon:g}"
    if not horizon / step <= SIM_CAP:
        raise ValueError(f"{span} over {name('step', 'sim.step')} = {step:g} asks for more "
                         f"than {SIM_CAP} samples")
    if system.nsub > 1 and min_dwell > 0 and not horizon / min_dwell <= SIM_CAP:
        raise ValueError(f"{span} over switching.min_dwell = {min_dwell:g} asks for more "
                         f"than {SIM_CAP} switches")
    sig = simmod.make_switching_signal(system.nsub, horizon, min_dwell, seed)
    _check_writable(args.out)
    trace = simmod.simulate_continuous(system, truth, observer, sig, step=step, horizon=horizon)
    return trace, DEFAULT_CONT_TOL if args.tol is None else args.tol


def cmd_simulate(args) -> int:
    problem = load_problem(args.file)
    observer = problem.build_observer()
    if args.sample_truth is not None:
        truth = simmod.sample_truth(problem.system, args.sample_truth)
    elif problem.truth is not None:
        truth = problem.truth
    else:
        raise ProblemFileError("problem file has no truth block "
                               "(use --sample-truth SEED to draw one)")
    trace, tol = _simulate(problem, truth, observer, args)
    report = simmod.verify_bracket(trace, tol)
    _write_out(args.out, lambda fh: simmod.export_csv(trace, fh))
    print(format_bracket(report, trace.times.size), file=sys.stdout if args.out else sys.stderr)
    return EXIT_OK if report.ok else EXIT_FAILURE


def cmd_reproduce(args) -> int:
    path = fixture_path(args.example_id)
    problem = load_problem(str(path))
    system = problem.system
    observer = problem.build_observer()
    report = synth.check_conditions(system, observer)
    file_settings = argparse.Namespace(horizon=None, step=None, steps=None, tol=None, out=None)
    trace, tol = _simulate(problem, problem.truth, observer, file_settings)
    decay_bound = 1.0 if system.domain == CONTINUOUS else 0.05
    bracket = simmod.verify_bracket(trace, tol)
    decay_ok = bracket.xi_norm_end < decay_bound * bracket.xi_norm_start
    full = report.passed and bracket.ok and decay_ok

    print(f"reproduction {args.example_id} ({system.domain} time)")
    print(format_report(report))
    print(format_bracket(bracket, trace.times.size))
    print(f"estimate-gap decay ||xi(end)|| < {decay_bound:g} * ||xi(0)||: "
          f"{'pass' if decay_ok else 'FAIL'}")
    print(f"verdict: {'PASS' if full else 'FAIL'}")
    return EXIT_OK if full else EXIT_FAILURE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (``parse_args`` leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="swposobs",
        description="Interval reduced-order observers for uncertain switched positive systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="evaluate the observer-existence conditions")
    p_check.add_argument("file", help="problem JSON (must contain an observer block)")
    p_check.set_defaults(func=cmd_check)

    p_synth = sub.add_parser("synthesize", help="find or validate an observer gain")
    p_synth.add_argument("file", help="problem JSON")
    p_synth.add_argument("--budget", type=int, default=200, help="gain-search candidates")
    p_synth.add_argument("--seed", type=int, default=0, help="accepted (>= 0) and ignored")
    p_synth.add_argument("--out", help="write the solved problem JSON here instead of stdout")
    p_synth.set_defaults(func=cmd_synthesize)

    p_sim = sub.add_parser("simulate", help="co-simulate plant and observers, export CSV")
    p_sim.add_argument("file", help="problem JSON (observer plus truth or --sample-truth)")
    p_sim.add_argument("--out", help="CSV output path (default: stdout)")
    p_sim.add_argument("--sample-truth", type=int, metavar="SEED",
                       help="draw an admissible truth instead of using the file's")
    p_sim.add_argument("--step", type=float, help="RK4 step (continuous time)")
    p_sim.add_argument("--horizon", type=float, help="simulation horizon (continuous time)")
    p_sim.add_argument("--steps", type=int, help="number of steps (discrete time)")
    p_sim.add_argument("--tol", type=float, help="bracket violation tolerance")
    p_sim.set_defaults(func=cmd_simulate)

    p_rep = sub.add_parser("reproduce", help="re-run a bundled example end to end")
    p_rep.add_argument("example_id", choices=sorted(FIXTURES),
                       help="bundled example id")
    p_rep.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    """Run one command; map each error it raises to exit 2 (input) or 1 (method)."""
    args = build_parser().parse_args(argv)
    try:
        _check_flags(args)
        # An overflow leaves a non-finite value, which the layers report as a
        # divergence or an ``error:`` line; numpy's RuntimeWarning would only
        # repeat it on stderr, naming a source line of the package.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except synth.GainSearchError as exc:
        print(f"synthesis failed: {exc}", file=sys.stderr)
        print(f"best candidate gain: {exc.best_gain.tolist()}", file=sys.stderr)
        if exc.witness is not None:
            print(f"no-gain witness y: {exc.witness.tolist()}", file=sys.stderr)
    except DesignError as exc:
        print(f"synthesis failed: {exc}", file=sys.stderr)
    except FloatingPointError as exc:
        print(f"simulation diverged: {exc}", file=sys.stderr)
    except certify.SimplexError as exc:  # a solver failure, not a verdict on the input
        print(f"error: {exc}", file=sys.stderr)
    except (TypeError, ValueError) as exc:  # ProblemFileError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
