"""Command dispatch, problem-file handling, exit codes, determinism."""

import json
import logging
import re
import time

import numpy as np
import pytest

from swposobs import certify, cli, synth


@pytest.fixture()
def fixture_41_path():
    return str(cli.fixture_path("4.1"))


@pytest.fixture()
def fixture_42_path():
    return str(cli.fixture_path("4.2"))


def _write(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _fixture_doc(path):
    with open(path) as fh:
        return json.load(fh)


def _set(doc, path, value):
    """Replace the entry of ``doc`` at the key/index ``path`` with ``value``."""
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


# Non-finite numbers, ill-typed fields and out-of-range settings of fixture
# 4.1, with the message each must be rejected with as an input error.  A setting the simulation
# would read with int() or float() must be rejected rather than truncated.
BAD_INPUTS = [
    (("A_lower", 0, 0, 0), float("nan"), "A_lower[0] has a non-finite entry at (0, 0)"),
    (("x0_upper", 4), float("inf"), "x0_upper has a non-finite entry at 4"),
    (("observer", "L", 0, 0), float("nan"), "gain_l has a non-finite entry at (0, 0)"),
    (("truth", "A", 1, 2, 3), float("-inf"),
     "truth block invalid: A[1] has a non-finite entry at (2, 3)"),
    (("A_lower",), 5, "A_lower must be a list of N=3 matrices"),
    (("truth",), 3, "truth block must be an object"),
    (("n",), 5.7, "n must be an integer, got 5.7"),
    (("N",), True, "N must be an integer, got True"),
    (("switching", "seed"), 2.9, "switching.seed must be an integer, got 2.9"),
    (("switching", "seed"), True, "switching.seed must be an integer, got True"),
    (("switching", "steps"), 60.5, "switching.steps must be an integer, got 60.5"),
    (("switching", "horizon"), "2", "switching.horizon must be a number, got '2'"),
    (("switching", "min_dwell"), False, "switching.min_dwell must be a number, got False"),
    (("sim", "step"), True, "sim.step must be a number, got True"),
    (("observer",), [1.0], "observer block must be an object"),
    (("truth", "A"), 5, "truth block invalid: A must be a list of matrices"),
    (("switching", "steps"), -5, "switching.steps must be >= 1, got -5"),
    (("switching", "steps"), 0, "switching.steps must be >= 1, got 0"),
    (("switching", "seed"), -1, "switching.seed must be >= 0, got -1"),
    (("switching", "horizon"), 0, "switching.horizon must be > 0, got 0"),
    (("switching", "horizon"), float("nan"), "switching.horizon must be > 0, got nan"),
    (("switching", "min_dwell"), -0.5, "switching.min_dwell must be >= 0, got -0.5"),
    (("sim", "step"), -1e-3, "sim.step must be > 0, got -0.001"),
    (("sim", "step"), 0.0, "sim.step must be > 0, got 0.0"),
    (("sim", "step"), float("inf"), "sim.step must be finite, got inf"),
    (("switching", "min_dwell"), float("inf"), "switching.min_dwell must be finite, got inf"),
    (("switching", "horizon"), float("inf"), "switching.horizon must be finite, got inf"),
]


class TestProblemFile:
    def test_round_trip_is_semantically_identical(self, fixture_41_path):
        first = cli.load_problem(fixture_41_path)
        doc = cli.serialize_problem(first)
        second = cli.parse_problem(json.loads(json.dumps(doc)))
        for a, b in zip(first.system.a_lower, second.system.a_lower):
            assert np.array_equal(a, b)
        for a, b in zip(first.system.a_upper, second.system.a_upper):
            assert np.array_equal(a, b)
        assert np.array_equal(first.system.x0_lower, second.system.x0_lower)
        assert np.array_equal(first.truth.x0, second.truth.x0)
        assert np.array_equal(first.observer_gain, second.observer_gain)
        assert first.switching == second.switching

    def test_missing_key_reported(self, tmp_path, fixture_41_path):
        doc = _fixture_doc(fixture_41_path)
        del doc["A_upper"]
        with pytest.raises(cli.ProblemFileError, match="A_upper"):
            cli.load_problem(_write(tmp_path, doc))

    def test_invalid_partition_reported(self, tmp_path, fixture_41_path):
        doc = _fixture_doc(fixture_41_path)
        doc["p"] = 5
        with pytest.raises(cli.ProblemFileError, match="invalid partition"):
            cli.load_problem(_write(tmp_path, doc))

    def test_assumption_violation_reported(self, tmp_path, fixture_41_path):
        doc = _fixture_doc(fixture_41_path)
        doc["A_lower"][2][3][1] = -1.0
        with pytest.raises(cli.ProblemFileError,
                           match=r"assumption \(iii\).*A_lower\[2\].*\(3, 1\)"):
            cli.load_problem(_write(tmp_path, doc))

    def test_truth_outside_intervals_reported(self, tmp_path, fixture_41_path):
        doc = _fixture_doc(fixture_41_path)
        doc["truth"]["A"][0][0][0] = 5.0
        with pytest.raises(cli.ProblemFileError, match=r"truth.*A\[0\] entry \(0, 0\)"):
            cli.load_problem(_write(tmp_path, doc))

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all {")
        with pytest.raises(cli.ProblemFileError, match="not valid JSON"):
            cli.load_problem(str(path))

    @pytest.mark.parametrize("command", ["check", "simulate"])
    @pytest.mark.parametrize("path, value, message", BAD_INPUTS)
    def test_bad_input_exit_2(self, tmp_path, fixture_41_path, capsys, command, path, value,
                              message):
        doc = _set(_fixture_doc(fixture_41_path), path, value)
        assert cli.main([command, _write(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("path, name", [(("A_lower",), "A_lower"), (("A_upper",), "A_upper"),
                                            (("truth", "A"), "truth block invalid: A")])
    @pytest.mark.parametrize("cut", ["short row", "mixed size"])
    def test_ragged_matrices_exit_2_naming_the_field(self, tmp_path, fixture_41_path, capsys,
                                                     path, name, cut):
        """One matrix row cut to 4 entries, or one 4x4 matrix among 5x5 ones, is reported
        on one line that names the field, not with numpy's text."""
        doc = _fixture_doc(fixture_41_path)
        mats = doc
        for key in path:
            mats = mats[key]
        if cut == "short row":
            mats[0][1] = mats[0][1][:4]
        else:
            mats[1] = [row[:4] for row in mats[1][:4]]
        assert cli.main(["check", _write(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {name} must be N equal-shape matrices of numbers\n"
        assert captured.out == ""

    @pytest.mark.parametrize("block, key", [("sim", "step"), ("switching", "horizon")])
    def test_infinite_continuous_setting_rejected_in_discrete_file(self, tmp_path, capsys,
                                                                   fixture_42_path, block, key):
        """A discrete run never reads these, but an infinite one is still an input
        error, as an out-of-range one is."""
        doc = _fixture_doc(fixture_42_path)
        doc.setdefault(block, {})[key] = float("inf")
        assert cli.main(["simulate", _write(tmp_path, doc)]) == 2
        assert capsys.readouterr().err == f"error: {block}.{key} must be finite, got inf\n"


class TestCheckCommand:
    def test_fixture_41_passes(self, fixture_41_path, capsys):
        assert cli.main(["check", fixture_41_path]) == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out
        assert "lambda" in out

    def test_fixture_42_passes(self, fixture_42_path, capsys):
        assert cli.main(["check", fixture_42_path]) == 0

    def test_failing_conditions_exit_1(self, tmp_path, fixture_42_path, capsys):
        doc = _fixture_doc(fixture_42_path)
        doc["observer"]["omega0_upper"] = [10.0, 6.0]
        assert cli.main(["check", _write(tmp_path, doc)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "(iv)" in out

    def test_failing_iii_prints_verified_farkas_vector(self, tmp_path, capsys):
        # A_12 = 0, and the second A_22 block is unstable on its own
        a0 = [[-2.0, 0.0, 0.0], [0.0, -1.0, 0.5], [0.0, 0.5, -1.0]]
        a1 = [[-2.0, 0.0, 0.0], [0.0, -1.0, 2.0], [0.0, 2.0, -1.0]]
        doc = {"domain": "continuous", "n": 3, "p": 1, "N": 2, "A_lower": [a0, a1],
               "A_upper": [a0, a1], "x0_lower": [1.0] * 3, "x0_upper": [2.0] * 3,
               "observer": {"L": [[0.0], [0.0]], "omega0_lower": [1.0, 1.0],
                            "omega0_upper": [2.0, 2.0]}}
        assert cli.main(["check", _write(tmp_path, doc)]) == 1
        out = capsys.readouterr().out
        assert ("first violation: (iii): no common copositive vector exists "
                "(verified Farkas vector)\n") in out
        v = np.array(json.loads(re.search(r"copositive infeasibility witness v = (\[.*\])\n",
                                          out).group(1)))
        combo = sum(np.array(a)[1:, 1:] @ w for a, w in zip((a0, a1), v.reshape(2, 2)))
        assert np.all(v >= 0) and v.sum() == pytest.approx(1.0, abs=1e-11)
        assert np.all(combo >= -1e-11)

    def test_missing_observer_exit_2(self, tmp_path, fixture_41_path, capsys):
        doc = _fixture_doc(fixture_41_path)
        del doc["observer"]
        assert cli.main(["check", _write(tmp_path, doc)]) == 2
        assert "no observer block" in capsys.readouterr().err

    def test_invalid_partition_exit_2(self, tmp_path, fixture_41_path, capsys):
        doc = _fixture_doc(fixture_41_path)
        doc["p"] = 6
        assert cli.main(["check", _write(tmp_path, doc)]) == 2
        assert "invalid partition" in capsys.readouterr().err


class TestSynthesizeCommand:
    def test_search_emits_checkable_observer(self, tmp_path, fixture_41_path, capsys):
        doc = _fixture_doc(fixture_41_path)
        del doc["observer"]
        problem = _write(tmp_path, doc)
        out_path = str(tmp_path / "solved.json")
        assert cli.main(["synthesize", problem, "--seed", "3", "--out", out_path]) == 0
        solved = json.load(open(out_path))
        assert "observer" in solved
        for key in ("L", "omega0_lower", "omega0_upper", "Ahat_lower", "Ahat_upper",
                    "G_lower", "G_upper", "F", "Chat", "Dhat"):
            assert key in solved["observer"]
        capsys.readouterr()
        assert cli.main(["check", out_path]) == 0

    def test_supplied_observer_validated(self, fixture_41_path, capsys):
        assert cli.main(["synthesize", fixture_41_path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["observer"]["L"] == [[0.1, 0.4], [0.15, 0.2], [0.1, 0.05]]

    def test_infeasible_toy_exit_1(self, tmp_path, capsys):
        doc = {
            "domain": "discrete", "n": 2, "p": 1, "N": 1,
            "A_lower": [[[0.0, 0.0], [0.0, 2.0]]],
            "A_upper": [[[0.0, 0.0], [0.0, 2.0]]],
            "x0_lower": [0.0, 0.0], "x0_upper": [1.0, 1.0],
        }
        assert cli.main(["synthesize", _write(tmp_path, doc), "--budget", "30"]) == 1
        err = capsys.readouterr().err
        assert "best" in err

    def test_proved_infeasible_prints_witness(self, tmp_path, capsys):
        doc = {
            "domain": "discrete", "n": 2, "p": 1, "N": 1,
            "A_lower": [[[0.0, 0.0], [0.0, 2.0]]],
            "A_upper": [[[0.0, 0.0], [0.0, 2.0]]],
            "x0_lower": [0.0, 0.0], "x0_upper": [1.0, 1.0],
        }
        assert cli.main(["synthesize", _write(tmp_path, doc)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            "synthesis failed: proved: no nonnegative gain satisfies (iii)\n"
            "best candidate gain: [[0.0]]\n"
            "no-gain witness y: [1.0, 0.0, 0.0]\n"
        )

    @pytest.mark.parametrize("flag, value, message", [
        ("--seed", "-1", "--seed must be finite and >= 0, got -1"),
        ("--budget", "0", "--budget must be finite and >= 1, got 0"),
    ])
    @pytest.mark.parametrize("problem", ["fixture 4.1", "2x2"])
    def test_out_of_range_flag_exit_2(self, tmp_path, fixture_41_path, capsys, problem, flag,
                                      value, message):
        # fixture 4.1 passes at the zero gain, before the search seeds its
        # generator, so only the up-front check catches a negative seed there
        doc = _fixture_doc(fixture_41_path)
        del doc["observer"]
        if problem == "2x2":
            a = [[-3.0, 1.0], [0.5, 0.55]]
            doc = {"domain": "continuous", "n": 2, "p": 1, "N": 1, "A_lower": [a],
                   "A_upper": [a], "x0_lower": [1.0, 1.0], "x0_upper": [1.0, 2.0]}
        assert cli.main(["synthesize", _write(tmp_path, doc), flag, value]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_byte_identical_across_runs(self, tmp_path, fixture_41_path, capsys):
        doc = _fixture_doc(fixture_41_path)
        del doc["observer"]
        problem = _write(tmp_path, doc)
        outputs = []
        for _ in range(2):
            assert cli.main(["synthesize", problem, "--seed", "7"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("case", ["4.1 searched", "4.2 searched", "2x2 searched",
                                      "4.1 supplied"])
    def test_bytes_match_json_dumps_indent_2(self, tmp_path, capsys, case):
        """stdout and ``--out`` both carry ``json.dumps(..., indent=2)`` plus a newline."""
        name, how = case.split()
        doc = _two_by_two_doc() if name == "2x2" else _fixture_doc(str(cli.fixture_path(name)))
        if how == "searched":
            del doc["observer"]
        path = _write(tmp_path, doc)
        problem = cli.load_problem(path)
        omega = (None if problem.omega0_lower is None
                 else (problem.omega0_lower, problem.omega0_upper))
        observer = synth.run_design_procedure(problem.system, gain=problem.observer_gain,
                                              omega=omega)
        want = json.dumps(cli.serialize_problem(problem, observer), indent=2) + "\n"
        out_path = tmp_path / "solved.json"
        assert cli.main(["synthesize", path, "--out", str(out_path)]) == 0
        assert out_path.read_bytes() == want.encode("utf-8")
        assert cli.main(["synthesize", path]) == 0
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("target", ["missing directory", "directory"])
    def test_unwritable_out_exit_2(self, tmp_path, fixture_41_path, capsys, target):
        out = str(tmp_path / "no-such-dir" / "x.json" if target == "missing directory" else tmp_path)
        assert cli.main(["synthesize", fixture_41_path, "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        # the design's step log comes first, as on every synthesize run
        lines = [line for line in captured.err.splitlines() if not line.startswith("step ")]
        assert len(lines) == 1
        assert lines[0].startswith(f"error: cannot write {out}: ")


class TestSimplexFailure:
    """Both LP forms raise.  Fixture 4.1's copositive LP has a nonnegative right-hand
    side and needs no solve, so these runs use the 2x2 case, whose LPs pivot."""

    MESSAGE = "phase-1 simplex: rounding left the ratio test without a row; the LP is undecided"

    @pytest.fixture()
    def failing_simplex(self, monkeypatch):
        def fail(a, b):
            raise certify.SimplexError(self.MESSAGE)

        monkeypatch.setattr(certify, "_phase1_feasible", fail)

    def test_check_exit_1_with_one_error_line(self, failing_simplex, tmp_path, capsys):
        assert cli.main(["check", _write(tmp_path, _two_by_two_doc())]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {self.MESSAGE}\n"

    def test_synthesize_exit_1_with_one_error_line(self, failing_simplex, tmp_path, capsys):
        doc = _two_by_two_doc()
        del doc["observer"]
        handlers = list(logging.getLogger("swposobs.synth").handlers)
        assert cli.main(["synthesize", _write(tmp_path, doc)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"\nerror: {self.MESSAGE}\n")
        assert captured.err.count("error:") == 1
        assert "Traceback" not in captured.err
        assert logging.getLogger("swposobs.synth").handlers == handlers

    def test_other_runtime_errors_propagate(self, monkeypatch, tmp_path):
        def fail(a, b):
            raise RecursionError("not a simplex failure")

        monkeypatch.setattr(certify, "_phase1_feasible", fail)
        with pytest.raises(RecursionError):
            cli.main(["check", _write(tmp_path, _two_by_two_doc())])


class TestSimulateCommand:
    # The range check comes first: "--steps 0" on the continuous 4.1 fails on
    # its range, not on its domain.
    @pytest.mark.parametrize("example, flags, message", [
        ("4.1", "--tol -1", "--tol must be finite and >= 0, got -1.0"),
        ("4.1", "--tol nan", "--tol must be finite and >= 0, got nan"),
        ("4.1", "--tol inf", "--tol must be finite and >= 0, got inf"),
        ("4.1", "--step inf", "--step must be finite and > 0, got inf"),
        ("4.1", "--step nan", "--step must be finite and > 0, got nan"),
        ("4.1", "--step 0", "--step must be finite and > 0, got 0.0"),
        ("4.1", "--horizon -2", "--horizon must be finite and > 0, got -2.0"),
        ("4.1", "--horizon nan", "--horizon must be finite and > 0, got nan"),
        ("4.1", "--horizon inf", "--horizon must be finite and > 0, got inf"),
        ("4.1", "--steps 0", "--steps must be finite and >= 1, got 0"),
        ("4.1", "--sample-truth -1", "--sample-truth must be finite and >= 0, got -1"),
        ("4.2", "--step 0.5 --horizon 3",
         "--step applies only to continuous-time problems, not discrete-time ones"),
        ("4.1", "--steps 5", "--steps applies only to discrete-time problems, not continuous-time ones"),
    ])
    def test_out_of_range_flag_exit_2(self, tmp_path, capsys, example, flags, message):
        out = tmp_path / "t.csv"
        path = str(cli.fixture_path(example))
        assert cli.main(["simulate", path, "--out", str(out), *flags.split()]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    def test_fixture_41_zero_violations(self, tmp_path, fixture_41_path, capsys):
        out_path = str(tmp_path / "trace.csv")
        assert cli.main(["simulate", fixture_41_path, "--out", out_path]) == 0
        report = capsys.readouterr().out
        assert "violations: nonneg=0 lower=0 upper=0" in report
        header = open(out_path).readline().strip()
        assert header.startswith("t,x1,") and header.endswith(",sigma")

    def test_fixture_42_zero_violations(self, tmp_path, fixture_42_path, capsys):
        out_path = str(tmp_path / "trace.csv")
        assert cli.main(["simulate", fixture_42_path, "--out", out_path]) == 0
        assert "violations: nonneg=0 lower=0 upper=0" in capsys.readouterr().out
        assert len(open(out_path).readlines()) == 62

    def test_sampled_truth_still_brackets(self, fixture_41_path, capsys):
        assert cli.main(["simulate", fixture_41_path, "--sample-truth", "7",
                         "--horizon", "1.0"]) == 0
        err = capsys.readouterr().err
        assert "violations: nonneg=0 lower=0 upper=0" in err

    def test_missing_truth_exit_2(self, tmp_path, fixture_41_path, capsys):
        doc = _fixture_doc(fixture_41_path)
        del doc["truth"]
        assert cli.main(["simulate", _write(tmp_path, doc)]) == 2
        assert "sample-truth" in capsys.readouterr().err

    def test_truth_outside_intervals_exit_2(self, tmp_path, fixture_41_path, capsys):
        doc = _fixture_doc(fixture_41_path)
        doc["truth"]["A"][2][1][1] = 0.0
        assert cli.main(["simulate", _write(tmp_path, doc)]) == 2
        assert "A[2] entry (1, 1)" in capsys.readouterr().err

    def test_csv_byte_identical_across_runs(self, tmp_path, fixture_42_path, capsys):
        paths = [str(tmp_path / f"trace{i}.csv") for i in range(2)]
        for path in paths:
            assert cli.main(["simulate", fixture_42_path, "--out", path]) == 0
        capsys.readouterr()
        assert open(paths[0], "rb").read() == open(paths[1], "rb").read()

    @pytest.mark.parametrize("target", ["missing directory", "directory"])
    def test_unwritable_out_exit_2(self, tmp_path, fixture_42_path, capsys, target):
        out = str(tmp_path / "no-such-dir" / "x.csv" if target == "missing directory" else tmp_path)
        assert cli.main(["simulate", fixture_42_path, "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"error: cannot write {out}: ")

    def test_stdout_csv_when_no_out(self, fixture_42_path, capsys):
        assert cli.main(["simulate", fixture_42_path, "--steps", "10"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("t,x1,")
        assert "bracket check" in captured.err

    @pytest.mark.parametrize("example, block, key, value, flags, message", [
        ("4.1", "switching", "horizon", 1e308, [],
         "switching.horizon = 1e+308 over sim.step = 0.001 asks for more than 1000000 samples"),
        ("4.1", "switching", "min_dwell", 1e-300, [],
         "switching.horizon = 2 over switching.min_dwell = 1e-300 asks for more than 1000000 "
         "switches"),
        ("4.1", "sim", "step", 1e-300, [],
         "switching.horizon = 2 over sim.step = 1e-300 asks for more than 1000000 samples"),
        ("4.1", "sim", "step", 1e-3, ["--horizon", "2e3", "--step", "1e-3"],
         "--horizon = 2000 over --step = 0.001 asks for more than 1000000 samples"),
        ("4.2", "switching", "steps", 10**12, [],
         "switching.steps = 1000000000000 asks for more than 1000000 samples"),
        ("4.2", "switching", "steps", 60, ["--steps", "1000001"],
         "--steps = 1000001 asks for more than 1000000 samples"),
    ])
    def test_oversized_simulation_exit_2_at_once(self, tmp_path, capsys, example, block, key,
                                                 value, flags, message):
        doc = _fixture_doc(str(cli.fixture_path(example)))
        doc.setdefault(block, {})[key] = value
        out = tmp_path / "t.csv"
        start = time.perf_counter()
        assert cli.main(["simulate", _write(tmp_path, doc), "--out", str(out), *flags]) == 2
        assert time.perf_counter() - start < 0.5
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    def test_divergent_discrete_truth_exit_1(self, tmp_path, capsys):
        a = [[1e100, 1e100], [1e100, 1e100]]
        doc = {
            "domain": "discrete", "n": 2, "p": 1, "N": 1,
            "A_lower": [a], "A_upper": [a], "x0_lower": [1.0, 1.0], "x0_upper": [1.0, 1.0],
            "truth": {"A": [a], "x0": [1.0, 1.0]},
            "observer": {"L": [[0.0]], "omega0_lower": [0.0], "omega0_upper": [2.0]},
            "switching": {"seed": 0, "min_dwell": 2, "steps": 10},
        }
        assert cli.main(["simulate", _write(tmp_path, doc)]) == 1
        captured = capsys.readouterr()
        assert "simulation diverged: non-finite state at step 4" in captured.err
        assert captured.out == ""

    def test_divergent_continuous_truth_exit_1(self, tmp_path, capsys):
        # Each RK4 step of h A = 3.5e24 multiplies the state by about 1e98,
        # so the sample at t = 0.004 is the first to overflow.
        a = [[3.5e27, 3.5e27], [3.5e27, 3.5e27]]
        doc = {
            "domain": "continuous", "n": 2, "p": 1, "N": 1,
            "A_lower": [a], "A_upper": [a], "x0_lower": [1.0, 1.0], "x0_upper": [1.0, 1.0],
            "truth": {"A": [a], "x0": [1.0, 1.0]},
            "observer": {"L": [[0.0]], "omega0_lower": [0.0], "omega0_upper": [2.0]},
            "switching": {"seed": 0, "min_dwell": 0.005, "horizon": 0.01},
            "sim": {"step": 0.001},
        }
        assert cli.main(["simulate", _write(tmp_path, doc)]) == 1
        assert capsys.readouterr() == (
            "", "simulation diverged: non-finite state at t = 0.004\n")

    def test_invalid_flag_values_exit_2(self, fixture_41_path, capsys):
        assert cli.main(["simulate", fixture_41_path, "--horizon", "-1"]) == 2
        assert "error" in capsys.readouterr().err
        assert cli.main(["simulate", fixture_41_path, "--step", "0"]) == 2
        capsys.readouterr()


class TestReproduceCommand:
    @pytest.mark.parametrize("example_id", ["4.1", "4.2"])
    def test_bundled_examples_reproduce(self, example_id, capsys):
        assert cli.main(["reproduce", example_id]) == 0
        out = capsys.readouterr().out
        assert "verdict: PASS" in out
        assert "violations: nonneg=0 lower=0 upper=0" in out

    def test_unknown_id_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["reproduce", "9.9"])
        assert err.value.code == 2


class TestDumpsIndented:
    """``cli._dumps_indented`` spells every JSON value as ``json.dumps(indent=2)`` does."""

    @pytest.mark.parametrize("value", [
        -0.0, 5e-324, 1e16, 1e22, 1.7976931348623157e308,
        [-0.0, 5e-324, 1e16, 1e22, 1.7976931348623157e308],
        float("nan"), float("inf"), float("-inf"),
        [float("nan"), 1.0], [1.0, float("inf")], [[float("-inf")], [2.5]],
        [1.0, True], [1.0, "a"], [1.0, 2], [1.0, None], [[], {}], [[[]], [{}], {"a": []}],
        {"\u00e9t\u00e9": "line\nbreak", "\u03bb": ["\u2713", 1.0]},
        {"nested": {"m": [[1.0, 2.0], [3.0, 4.0]], "k": 3, "b": False, "z": None}},
        (1.0, 2.0), 0, True, None, "", [], {},
    ], ids=repr)
    def test_matches_json(self, value):
        assert cli._dumps_indented(value) == json.dumps(value, indent=2)


class TestParserReuse:
    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_commands_repeat_after_parse_error(self, tmp_path, capsys, fixture_41_path,
                                               fixture_42_path):
        doc = _fixture_doc(fixture_42_path)
        del doc["observer"]
        runs = [["check", fixture_41_path],
                ["synthesize", _write(tmp_path, doc), "--budget", "5"],
                ["simulate", fixture_42_path, "--steps", "20"],
                ["reproduce", "4.1"],
                ["reproduce", "4.2"]]
        rounds = []
        for _ in range(2):
            with pytest.raises(SystemExit) as err:
                cli.main(["no-such-command"])
            assert err.value.code == 2
            outputs = [capsys.readouterr()]
            assert "invalid choice" in outputs[0].err
            rounds.append(outputs + [(cli.main(argv), *capsys.readouterr()) for argv in runs])
        assert [run[0] for run in rounds[0][1:]] == [0, 0, 0, 0, 0]
        assert rounds[0] == rounds[1]


def _paths(node, path=()):
    """Every key or index path of a decoded JSON document below its root."""
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield path + (key,)
            yield from _paths(child, path + (key,))


_DELETE = object()
# a deleted key or list entry, non-finite and extreme numbers, a string, null,
# wrong-shaped and ragged lists and a bool
MUTATIONS = [_DELETE, float("nan"), float("inf"), 1e308, -1e308, "x", None,
             [[0.5, 0.5]], [[1.0], [1.0, 1.0]], True]


def _two_by_two_doc():
    a = [[-3.0, 1.0], [0.5, 0.55]]
    return {"domain": "continuous", "n": 2, "p": 1, "N": 1, "A_lower": [a], "A_upper": [a],
            "x0_lower": [1.0, 1.0], "x0_upper": [1.0, 2.0],
            "truth": {"A": [a], "x0": [1.0, 1.5]},
            "observer": {"L": [[0.8]], "omega0_lower": [0.2], "omega0_upper": [1.2]},
            "switching": {"seed": 0, "min_dwell": 0.2, "horizon": 1.0}, "sim": {"step": 0.01}}


def _mutate(doc, path, mutation):
    """``doc`` with the entry at ``path`` set to ``mutation``, or deleted."""
    if mutation is not _DELETE:
        return _set(doc, path, mutation)
    node = doc
    for key in path[:-1]:
        node = node[key]
    del node[path[-1]]
    return doc


class TestMutationFuzz:
    """Seeded mutations of fixtures 4.1, 4.2 and the 2x2 case: every command exits
    0, 1 or 2, no exception leaves ``main`` and no numpy warning reaches stderr (a
    RuntimeWarning fails the test).  The simulate flags of the file's own domain
    keep every simulation grid small whatever the mutated settings say."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_mutated_documents_keep_the_exit_contract(self, tmp_path, capsys, fixture_41_path,
                                                     fixture_42_path):
        bases = [_fixture_doc(fixture_41_path), _fixture_doc(fixture_42_path), _two_by_two_doc()]
        grid = {"continuous": ["--step", "0.05", "--horizon", "0.5"], "discrete": ["--steps", "10"]}
        rng = np.random.default_rng(0)
        out = str(tmp_path / "out")
        codes = []
        for k in range(200):
            base = bases[k % len(bases)]
            doc = json.loads(json.dumps(base))
            paths = list(_paths(doc))
            path = paths[rng.integers(len(paths))]
            mutation = MUTATIONS[rng.integers(len(MUTATIONS))]
            problem = _write(tmp_path, _mutate(doc, path, mutation))
            for argv in (["check", problem], ["synthesize", problem, "--budget", "5", "--out", out],
                         ["simulate", problem, "--out", out, *grid[base["domain"]]]):
                code = cli.main(argv)
                err = capsys.readouterr().err
                assert code in (0, 1, 2), (argv[0], path, mutation, err)
                assert "Warning" not in err, (argv[0], path, mutation, err)
                codes.append(code)
        assert set(codes) == {0, 1, 2}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_mutated_settings_run_at_their_own_size(self, tmp_path, capsys, fixture_41_path,
                                                    fixture_42_path):
        """Mutations of the switching and sim blocks only, simulated with no grid flag:
        the file's own settings size each run, so only the sample and switch cap keeps
        it short.  Exit 2 prints one line naming the block."""
        bases = [_fixture_doc(fixture_41_path), _fixture_doc(fixture_42_path), _two_by_two_doc()]
        values = MUTATIONS + [0.0, -1.0, 1e-300]
        rng = np.random.default_rng(1)
        out = str(tmp_path / "out.csv")
        codes = []
        for k in range(200):
            doc = json.loads(json.dumps(bases[k % len(bases)]))
            paths = [path for path in _paths(doc) if path[0] in ("switching", "sim")]
            path = paths[rng.integers(len(paths))]
            value = values[rng.integers(len(values))]
            problem = _write(tmp_path, _mutate(doc, path, value))
            start = time.perf_counter()
            code = cli.main(["simulate", problem, "--out", out])
            elapsed = time.perf_counter() - start
            err = capsys.readouterr().err
            assert code in (0, 1, 2), (path, value, err)
            assert "Warning" not in err, (path, value, err)
            assert elapsed < 5.0, (path, value, elapsed)
            if code == 2:
                assert err.count("\n") == 1, (path, value, err)
                assert re.search(r"\b(switching|sim)\b", err), (path, value, err)
            codes.append(code)
        assert codes.count(0) and codes.count(2)
