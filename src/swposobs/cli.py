"""Command-line front end: problem files in, reports and CSV traces out.

Problem files are JSON documents with the interval model plus optional
``truth``, ``observer``, ``switching`` and ``sim`` blocks (schema in the
README).  Exit codes are a stable contract: 0 success, 1 method-level
failure (conditions, synthesis, bracket), 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import sys
from dataclasses import dataclass
from importlib import resources
from json.encoder import encode_basestring_ascii

import numpy as np

from . import sim as simmod
from . import certify, synth
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


# Optional scalar settings: (block, key, integer only, lower bound, bound allowed)
SCALAR_SETTINGS = (
    ("switching", "seed", True, 0, True),
    ("switching", "steps", True, 1, True),
    ("switching", "min_dwell", False, 0, True),
    ("switching", "horizon", False, 0, False),
    ("sim", "step", False, 0, False),
)


def _in_range(value, low, closed: bool) -> bool:
    """``value > low``, or ``value == low`` when ``closed``; False for nan."""
    return value > low or (closed and value == low)


def _check_scalars(doc: dict) -> None:
    """Optional settings must be JSON integers or numbers, never bool, in range, finite.

    Checked here so that no later conversion silently truncates them and every
    error names the field.
    """
    for name, key, integer, low, closed in SCALAR_SETTINGS:
        if doc.get(name) is None or key not in _block(doc, name):
            continue
        value = doc[name][key]
        if integer and type(value) is not int:
            raise ProblemFileError(f"{name}.{key} must be an integer, got {value!r}")
        if type(value) not in (int, float):
            raise ProblemFileError(f"{name}.{key} must be a number, got {value!r}")
        if not _in_range(value, low, closed):
            raise ProblemFileError(f"{name}.{key} must be {'>=' if closed else '>'} {low}, "
                                   f"got {value!r}")
        if value == math.inf:  # nan and -inf fail the range check
            raise ProblemFileError(f"{name}.{key} must be finite, got {value!r}")


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
        try:
            gain = np.array(_require(block, "L"), dtype=float)
            om_lo = np.array(_require(block, "omega0_lower"), dtype=float)
            om_up = np.array(_require(block, "omega0_upper"), dtype=float)
        except ProblemFileError:
            raise
        except (TypeError, ValueError) as exc:
            raise ProblemFileError(f"observer block invalid: {exc}") from exc

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
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"{path} is not valid JSON: {exc}") from exc
    return parse_problem(doc)


def serialize_problem(problem: Problem, observer: synth.ObserverRealization | None = None) -> dict:
    """Canonical JSON document for a problem (optionally with a full observer)."""
    system = problem.system
    doc = {
        "domain": system.domain,
        "n": system.n,
        "p": system.p,
        "N": system.nsub,
        "A_lower": system.a_lower.tolist(),
        "A_upper": system.a_upper.tolist(),
        "x0_lower": system.x0_lower.tolist(),
        "x0_upper": system.x0_upper.tolist(),
    }
    if problem.truth is not None:
        doc["truth"] = {
            "A": problem.truth.a.tolist(),
            "x0": problem.truth.x0.tolist(),
        }
    if observer is not None:
        doc["observer"] = {
            "L": observer.gain_l.tolist(),
            "omega0_lower": observer.omega0_lower.tolist(),
            "omega0_upper": observer.omega0_upper.tolist(),
            "Ahat_lower": observer.ahat_lower.tolist(),
            "Ahat_upper": observer.ahat_upper.tolist(),
            "G_lower": observer.g_lower.tolist(),
            "G_upper": observer.g_upper.tolist(),
            "F": observer.f.tolist(),
            "Chat": observer.chat.tolist(),
            "Dhat": observer.dhat.tolist(),
        }
    elif problem.observer_gain is not None:
        doc["observer"] = {
            "L": problem.observer_gain.tolist(),
            "omega0_lower": problem.omega0_lower.tolist(),
            "omega0_upper": problem.omega0_upper.tolist(),
        }
    if problem.switching is not None:
        doc["switching"] = dict(problem.switching)
    if problem.sim_settings is not None:
        doc["sim"] = dict(problem.sim_settings)
    return doc


def _dumps_indented(obj, pad: str = "\n") -> str:
    """The text of ``json.dumps(obj, indent=2)``, with one join per list of floats.

    ``indent`` sends json to its pure-Python encoder, one generator step per value.
    Here a list of floats is spelled with ``float.__repr__``, which is json's own
    spelling of a finite float.  A list holding ``nan`` or ``inf``, whose repr holds
    an ``n``, and a list holding anything but floats recurse element by element.
    Every scalar and empty container goes to ``json.dumps``.  Dict keys must be
    strings, as they are in every decoded JSON document.  ``pad`` is a newline plus
    the indentation of the line on which ``obj`` starts.
    """
    if not isinstance(obj, (list, tuple, dict)) or not obj:
        return json.dumps(obj)
    inner = pad + "  "
    sep = "," + inner
    if isinstance(obj, dict):
        body = sep.join([encode_basestring_ascii(key) + ": " + _dumps_indented(value, inner)
                         for key, value in obj.items()])
        return "{" + inner + body + pad + "}"
    body = None
    if type(obj[0]) is float:
        try:
            body = sep.join(map(float.__repr__, obj))
        except TypeError:  # a later element is not a float
            pass
    if body is None or "n" in body:
        body = sep.join([_dumps_indented(item, inner) for item in obj])
    return "[" + inner + body + pad + "]"


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
    for note in report.notes:
        lines.append(f"note: {note}")
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
    try:
        problem = load_problem(args.file)
        report = synth.check_conditions(problem.system, problem.build_observer())
    except (ProblemFileError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print(format_report(report))
    return EXIT_OK if report.passed else EXIT_FAILURE


def cmd_synthesize(args) -> int:
    try:
        _check_flags(args)
        problem = load_problem(args.file)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    omega = None if problem.omega0_lower is None else (problem.omega0_lower, problem.omega0_upper)
    step_logger = logging.getLogger("swposobs.synth")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    step_logger.addHandler(handler)
    previous_level = step_logger.level
    step_logger.setLevel(logging.INFO)
    try:
        observer = synth.run_design_procedure(problem.system, gain=problem.observer_gain,
                                              omega=omega, budget=args.budget, seed=args.seed)
    except synth.GainSearchError as exc:
        print(f"synthesis failed: {exc}", file=sys.stderr)
        print(f"best candidate gain: {exc.best_gain.tolist()}", file=sys.stderr)
        if exc.witness is not None:
            print(f"no-gain witness y: {exc.witness.tolist()}", file=sys.stderr)
        return EXIT_FAILURE
    except DesignError as exc:
        print(f"synthesis failed: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        step_logger.removeHandler(handler)
        step_logger.setLevel(previous_level)
    text = _dumps_indented(serialize_problem(problem, observer)) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_INPUT
    else:
        sys.stdout.write(text)
    return EXIT_OK


# numeric flags of simulate and synthesize: (name, lower bound, bound allowed);
# each must also be finite
FLAGS = (("step", 0, False), ("horizon", 0, False), ("steps", 1, True), ("tol", 0, True),
         ("sample_truth", 0, True), ("budget", 1, True), ("seed", 0, True))


def _check_flags(args) -> None:
    """Reject an out-of-range or non-finite flag of the command, naming it: a nan or
    inf ``--tol`` would let no bracket comparison fail, and a negative ``--seed``
    would go unnoticed until the gain search draws a random gain."""
    for key, low, closed in FLAGS:
        value = getattr(args, key, None)
        if value is not None and not (_in_range(value, low, closed) and math.isfinite(value)):
            raise ValueError(f"--{key.replace('_', '-')} must be finite and "
                             f"{'>=' if closed else '>'} {low}, got {value!r}")


def _resolve_sim_settings(problem: Problem, args):
    switching = problem.switching or {}
    domain = problem.system.domain
    # parse_problem has type-checked these values; float() only widens an
    # integer-valued number such as "min_dwell": 5.
    seed = switching.get("seed", 0)
    horizon = steps = step = None
    if domain == CONTINUOUS:
        other, ignored = DISCRETE, ("steps",)
        min_dwell = float(switching.get("min_dwell", 0.2))
        horizon = args.horizon if args.horizon is not None else float(switching.get("horizon", 2.0))
        step = args.step if args.step is not None else float((problem.sim_settings or {}).get("step", 1e-3))
        tol = args.tol if args.tol is not None else DEFAULT_CONT_TOL
    else:
        other, ignored = CONTINUOUS, ("step", "horizon")
        min_dwell = float(switching.get("min_dwell", 5))
        steps = args.steps if args.steps is not None else switching.get("steps", 60)
        tol = args.tol if args.tol is not None else DEFAULT_DISC_TOL
    for key in ignored:  # a flag the simulation would ignore is an input error
        if getattr(args, key) is not None:
            raise ValueError(f"--{key} applies only to {other}-time problems, "
                             f"not {domain}-time ones")
    _check_sim_size(problem, args, min_dwell, horizon, steps, step)
    return seed, min_dwell, horizon, steps, step, tol


# The most samples, and the most switches, one simulation may ask for: about 500 times
# fixture 4.1 at its own settings (2,007 samples, an 804,920-byte CSV).
SIM_CAP = 1_000_000


def _check_sim_size(problem: Problem, args, min_dwell, horizon, steps, step) -> None:
    """Reject settings that ask for more than ``SIM_CAP`` samples or switches, naming
    the fields, before anything is allocated.  A continuous run takes about
    ``horizon / step`` samples and at most ``horizon / min_dwell`` switches (every
    dwell is at least ``min_dwell``); a discrete run takes ``steps`` samples and at
    most as many switches."""
    def name(flag, block, key):
        return f"--{flag}" if getattr(args, flag) is not None else f"{block}.{key}"

    if steps is not None:
        if steps > SIM_CAP:
            raise ValueError(f"{name('steps', 'switching', 'steps')} = {steps} asks for more "
                             f"than {SIM_CAP} samples")
        return
    span = f"{name('horizon', 'switching', 'horizon')} = {horizon:g}"
    if not horizon / step <= SIM_CAP:
        raise ValueError(f"{span} over {name('step', 'sim', 'step')} = {step:g} asks for more "
                         f"than {SIM_CAP} samples")
    if problem.system.nsub > 1 and min_dwell > 0 and not horizon / min_dwell <= SIM_CAP:
        raise ValueError(f"{span} over switching.min_dwell = {min_dwell:g} asks for more "
                         f"than {SIM_CAP} switches")


def _run_simulation(problem: Problem, truth, observer, args):
    """Simulate under the resolved settings; returns the trace and the bracket tol."""
    seed, min_dwell, horizon, steps, step, tol = _resolve_sim_settings(problem, args)
    system = problem.system
    if system.domain == CONTINUOUS:
        sig = simmod.make_switching_signal(system.nsub, horizon, min_dwell, seed)
        trace = simmod.simulate_continuous(system, truth, observer, sig,
                                           step=step, horizon=horizon)
    else:
        sig = simmod.make_switching_signal(system.nsub, steps, min_dwell, seed,
                                           domain=DISCRETE)
        trace = simmod.simulate_discrete(system, truth, observer, sig, steps)
    return trace, tol


def cmd_simulate(args) -> int:
    try:
        _check_flags(args)
        problem = load_problem(args.file)
        observer = problem.build_observer()
        if args.sample_truth is not None:
            truth = simmod.sample_truth(problem.system, args.sample_truth)
        elif problem.truth is not None:
            truth = problem.truth
        else:
            raise ProblemFileError(
                "problem file has no truth block (use --sample-truth SEED to draw one)"
            )
        simmod.validate_truth(problem.system, truth)
    except (ProblemFileError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    try:
        trace, tol = _run_simulation(problem, truth, observer, args)
    except FloatingPointError as exc:
        print(f"simulation diverged: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except (TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    report = simmod.verify_bracket(trace, tol)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                simmod.export_csv(trace, fh)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_INPUT
        print(format_bracket(report, trace.times.size))
    else:
        simmod.export_csv(trace, sys.stdout)
        print(format_bracket(report, trace.times.size), file=sys.stderr)
    return EXIT_OK if report.ok else EXIT_FAILURE


def cmd_reproduce(args) -> int:
    path = fixture_path(args.example_id)
    problem = load_problem(str(path))
    system = problem.system
    observer = problem.build_observer()
    report = synth.check_conditions(system, observer)
    file_settings = argparse.Namespace(horizon=None, step=None, steps=None, tol=None)
    trace, tol = _run_simulation(problem, problem.truth, observer, file_settings)
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
    p_synth.add_argument("--seed", type=int, default=0, help="gain-search seed")
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
    args = build_parser().parse_args(argv)
    try:
        # An overflow leaves a non-finite value, which the layers report as a
        # divergence or an ``error:`` line; numpy's RuntimeWarning would only
        # repeat it on stderr, naming a source line of the package.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except certify.SimplexError as exc:  # a solver failure, not a verdict on the input
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
