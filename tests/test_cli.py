"""Command dispatch, problem-file handling, exit codes, determinism."""

import contextlib
import dataclasses
import io
import json
import os
import re
import stat
import sys
import time

import numpy as np
import pytest

from swposobs import certify, cli, sim, synth

from conftest import random_gain_family


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


_DELETE = object()


def _mutate(doc, path, mutation):
    """``doc`` with the entry at ``path`` set to ``mutation``, or deleted."""
    if mutation is not _DELETE:
        return _set(doc, path, mutation)
    node = doc
    for key in path[:-1]:
        node = node[key]
    del node[path[-1]]
    return doc


# Non-finite numbers, ill-typed fields and out-of-range settings of fixture
# 4.1, with the message each must be rejected with as an input error.  A setting the simulation
# would read with int() or float() must be rejected rather than truncated.
BAD_INPUTS = [
    (("A_lower", 0, 0, 0), float("nan"), "A_lower[0] has a non-finite entry at (0, 0)"),
    (("x0_upper", 4), float("inf"), "x0_upper has a non-finite entry at 4"),
    (("observer", "L", 0, 0), float("nan"),
     "observer block invalid: L has a non-finite entry at (0, 0)"),
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
    # a ragged observer field is named, not reported with numpy's text
    (("observer", "L", 0), [0.1], "observer block invalid: L must be a matrix of numbers"),
    (("observer", "omega0_lower", 1), [0.0, 1.0],
     "observer block invalid: omega0_lower must be a list of numbers"),
    (("observer", "omega0_upper", 2), [9.0],
     "observer block invalid: omega0_upper must be a list of numbers"),
    # a JSON object where an array belongs is named as a ragged entry is
    (("x0_upper",), {"a": 1}, "x0_upper must be a list of numbers"),
    (("truth", "x0", 0), {"a": 1}, "truth block invalid: x0 must be a list of numbers"),
    (("observer", "L"), {"a": 1}, "observer block invalid: L must be a matrix of numbers"),
    (("A_lower", 0), {"a": 1}, "A_lower must be N equal-shape matrices of numbers"),
    # a JSON integer beyond every float is not finite either
    *[pytest.param((block, key), 10 ** 400, f"{block}.{key} must be finite, got {10 ** 400}",
                   id=f"{block}.{key}-huge-int")
      for block, key in (("switching", "horizon"), ("switching", "min_dwell"), ("sim", "step"))],
]


class TestProblemFile:
    def test_round_trip_is_semantically_identical(self):
        """On both fixtures the observer is built on load, bit for bit as
        ``build_observer`` builds it from the document's own values, and its full
        block round-trips bit for bit."""
        for example_id in sorted(cli.FIXTURES):
            doc = _fixture_doc(str(cli.fixture_path(example_id)))
            first = cli.parse_problem(doc)
            block = doc["observer"]
            built = synth.build_observer(first.system, block["L"], block["omega0_lower"],
                                         block["omega0_upper"])
            doc = cli.serialize_problem(first)
            second = cli.parse_problem(json.loads(json.dumps(doc, default=np.ndarray.tolist)))
            for a, b in zip(first.system.a_lower, second.system.a_lower):
                assert np.array_equal(a, b)
            for a, b in zip(first.system.a_upper, second.system.a_upper):
                assert np.array_equal(a, b)
            assert np.array_equal(first.system.x0_lower, second.system.x0_lower)
            assert np.array_equal(first.truth.x0, second.truth.x0)
            for field in dataclasses.fields(built):
                arrays = [getattr(obs, field.name)
                          for obs in (built, first.observer, second.observer)]
                assert len({(a.shape, a.tobytes()) for a in arrays}) == 1, (example_id, field.name)
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

    # json.load raises RecursionError on deep nesting and UnicodeDecodeError on bytes
    # that are not UTF-8; both name the file on one line
    @pytest.mark.parametrize("text, reason", [
        (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded"),
        (b'{"domain": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
    ], ids=["deeply nested", "not UTF-8"])
    def test_undecodable_file_exit_2_naming_it(self, tmp_path, capsys, text, reason):
        path = tmp_path / "bad.json"
        path.write_bytes(text)
        assert cli.main(["check", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {path} is not valid JSON: {reason}")
        assert err.count("\n") == 1

    def test_integer_beyond_digit_limit_exit_2_naming_it(self, tmp_path, capsys,
                                                         fixture_41_path):
        """json.load raises a plain ValueError on an integer longer than Python's
        int-string limit; it names the file on one line, as bad syntax does."""
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # added in 3.10.7
        if not limit:
            pytest.skip("no int-string digit limit in this interpreter")
        doc = _set(_fixture_doc(fixture_41_path), ("switching", "seed"), "SEED")
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc).replace('"SEED"', "1" * (limit + 1)))
        assert cli.main(["simulate", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {path} is not valid JSON: Exceeds the limit ({limit} digits)")
        assert err.count("\n") == 1

    def test_path_with_nul_byte_cannot_be_read(self, capsys):
        """``open`` raises ValueError on a NUL byte; the path is unreadable, not bad JSON."""
        assert cli.main(["check", "a\0b.json"]) == 2
        assert capsys.readouterr() == ("", "error: cannot read a\0b.json: embedded null byte\n")

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

    @pytest.mark.parametrize("command", ["check", "synthesize", "simulate"])
    @pytest.mark.parametrize("path, name", [
        (("A_upper", 0, 0, 0), "A_upper"),
        (("observer", "L", 0, 0), "observer block invalid: L"),
        (("truth", "x0", 0), "truth block invalid: x0"),
        (("x0_upper", 0), "x0_upper"),
    ])
    def test_integer_beyond_float_range_exit_2_naming_the_field(self, tmp_path, fixture_41_path,
                                                                capsys, command, path, name):
        """A JSON integer too large for a float (1 and 400 zeros) is reported on one
        line that names the field, not as an OverflowError traceback."""
        doc = _set(_fixture_doc(fixture_41_path), path, 10**400)
        assert cli.main([command, _write(tmp_path, doc)]) == 2
        assert capsys.readouterr() == ("", f"error: {name} has an entry beyond the float range\n")

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
        assert capsys.readouterr() == ("", "")
        with open(out_path) as fh:
            solved = json.load(fh)
        assert "observer" in solved
        for key in ("L", "omega0_lower", "omega0_upper", "Ahat_lower", "Ahat_upper",
                    "G_lower", "G_upper", "F", "Chat", "Dhat"):
            assert key in solved["observer"]
        capsys.readouterr()
        assert cli.main(["check", out_path]) == 0

    def test_supplied_observer_validated(self, fixture_41_path, capsys):
        assert cli.main(["synthesize", fixture_41_path]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        doc = json.loads(captured.out)
        assert doc["observer"]["L"] == [[0.1, 0.4], [0.15, 0.2], [0.1, 0.05]]

    @pytest.mark.parametrize("key, value, message", [
        ("L", [[1.0]], "observer block invalid: L must be 2x2, got (1, 1)"),
        ("omega0_lower", [-1, 1], "observer block invalid: omega0_lower[0] = -1 is negative"),
        ("omega0_lower", [13, 1], "observer block invalid: omega0_lower[0] > omega0_upper[0]"),
        ("L", [0.002, 0.042],
         "observer block invalid: L must be 2-D and non-empty, got shape (2,)"),
        ("L", [], "observer block invalid: L must be 2-D and non-empty, got shape (0,)"),
        ("omega0_upper", [12, float("nan")],
         "observer block invalid: omega0_upper has a non-finite entry at 1"),
        ("omega0_upper", _DELETE, "missing required key 'omega0_upper'"),
        # a finite gain whose G blocks overflow
        ("L", [[1e308, 1e308], [1e308, 1e308]],
         "observer block invalid: g_lower[0] has a non-finite entry at (0, 0)"),
    ], ids=["L shape", "negative omega0_lower", "omega0_lower above upper", "1-D L", "empty L",
            "NaN omega0_upper", "no omega0_upper", "overflowing L"])
    def test_malformed_observer_block_exit_2(self, tmp_path, fixture_42_path, capsys, key,
                                             value, message):
        """An observer block that cannot be built is an input error on load, for every
        command that reads the file, and an existing ``--out`` file is left as it was."""
        doc = _mutate(_fixture_doc(fixture_42_path), ("observer", key), value)
        problem = _write(tmp_path, doc)
        out = tmp_path / "solved.json"
        out.write_bytes(b"kept\r\n")
        for command in (["check", problem], ["simulate", problem, "--out", str(out)],
                        ["synthesize", problem, "--out", str(out)]):
            assert cli.main(command) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")
        assert out.read_bytes() == b"kept\r\n"

    @pytest.mark.parametrize("kind", ["list", "object"])
    @pytest.mark.parametrize("block", ["sim", "switching"])
    def test_deeply_nested_extra_value(self, tmp_path, fixture_42_path, capsys, block, kind):
        """json.load reads a value nested 900 deep under an extra key.  json.dumps writes
        the list; the writer recurses through each object, so the object is an input
        error on one line, with --out left as it was."""
        doc = _fixture_doc(fixture_42_path)
        doc.setdefault(block, {})["extra"] = "deep"
        deep = "[" * 900 + "]" * 900 if kind == "list" else '{"a": ' * 900 + "{" + "}" * 901
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc).replace('"deep"', deep))
        out = tmp_path / "solved.json"
        out.write_bytes(b"kept\r\n")
        code = cli.main(["synthesize", str(path), "--out", str(out)])
        if kind == "list":
            problem = cli.load_problem(str(path))
            want = json.dumps(cli.serialize_problem(problem),
                              indent=2, default=np.ndarray.tolist) + "\n"
            assert (code, capsys.readouterr(), out.read_text()) == (0, ("", ""), want)
        else:
            assert (code, capsys.readouterr(), out.read_bytes()) == (
                2, ("", "error: the problem file holds a value nested too deeply to write\n"),
                b"kept\r\n")

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
        # the gain search ignores the seed, so only the up-front check catches a
        # negative one
        doc = _fixture_doc(fixture_41_path)
        del doc["observer"]
        if problem == "2x2":
            a = [[-3.0, 1.0], [0.5, 0.55]]
            doc = {"domain": "continuous", "n": 2, "p": 1, "N": 1, "A_lower": [a],
                   "A_upper": [a], "x0_lower": [1.0, 1.0], "x0_upper": [1.0, 2.0]}
        assert cli.main(["synthesize", _write(tmp_path, doc), flag, value]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("flag, default", [("--seed", "0"), ("--budget", "200")])
    def test_huge_integer_flag_runs_as_the_default(self, tmp_path, fixture_42_path, capsys,
                                                   flag, default):
        """An integer flag above every float is finite: the search runs as at the default."""
        doc = _fixture_doc(fixture_42_path)
        del doc["observer"]
        problem = _write(tmp_path, doc)
        outputs = []
        for value in (str(10 ** 400), default):
            assert cli.main(["synthesize", problem, flag, value]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]

    def test_byte_identical_across_runs(self, tmp_path, fixture_41_path, capsys):
        # --seed is ignored: the 2x2 case, whose gain the gain LP designs, gives
        # the same bytes at every seed
        for doc in (_fixture_doc(fixture_41_path), _two_by_two_doc()):
            del doc["observer"]
            problem = _write(tmp_path, doc)
            outputs = []
            for seed in ("7", "7", "0"):
                assert cli.main(["synthesize", problem, "--seed", seed]) == 0
                outputs.append(capsys.readouterr())
            assert outputs[0] == outputs[1] == outputs[2]

    # The gain families on which the search ends without a passing gain or a
    # witness: the only ones where the removed random restart drew gains, so
    # the only ones where --seed could still leak into the output.
    @pytest.mark.parametrize("k", [4607, 8191, 6883])
    def test_seed_ignored_when_search_fails(self, tmp_path, capsys, k):
        system = random_gain_family(np.random.default_rng([7, k]), synth.DISCRETE)
        doc = {"domain": system.domain, "n": system.n, "p": system.p, "N": system.nsub,
               "A_lower": system.a_lower.tolist(), "A_upper": system.a_upper.tolist(),
               "x0_lower": system.x0_lower.tolist(), "x0_upper": system.x0_upper.tolist()}
        problem = _write(tmp_path, doc)
        outputs = []
        for seed in ("0", "1", "123"):
            assert cli.main(["synthesize", problem, "--seed", seed]) == 1
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1] == outputs[2]
        out, err = outputs[0]
        assert out == ""
        assert "synthesis failed: no passing gain within " in err
        assert "no-gain witness" not in err
        # 4607 and 8191 stop on an infeasible gain LP, 6883 at the budget
        assert ("no passing gain within 200 candidates" in err) == (k == 6883)

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
        if how == "searched":
            problem = dataclasses.replace(problem, observer=synth.search_gain(problem.system)[0])
        want = json.dumps(cli.serialize_problem(problem), indent=2,
                          default=np.ndarray.tolist) + "\n"
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
        # the path is checked before the design
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: cannot write {out}: ")

    def test_existing_out_survives_failed_design(self, tmp_path, capsys):
        """A design that fails leaves the file at ``--out`` as it was: with A12 = 0 no
        gain moves Ahat = 0.55, and the search proves it."""
        doc = _two_by_two_doc()
        del doc["observer"]
        for key in ("A_lower", "A_upper"):
            doc[key] = [[[-3.0, 0.0], [0.5, 0.55]]]
        doc["truth"]["A"] = doc["A_lower"]
        out = tmp_path / "solved.json"
        out.write_text("kept\n")
        assert cli.main(["synthesize", _write(tmp_path, doc), "--out", str(out)]) == 1
        assert "synthesis failed: proved: no nonnegative gain" in capsys.readouterr().err
        assert out.read_text() == "kept\n"


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
        assert cli.main(["synthesize", _write(tmp_path, doc)]) == 1
        assert capsys.readouterr() == ("", f"error: {self.MESSAGE}\n")

    def test_other_runtime_errors_propagate(self, monkeypatch, tmp_path):
        def fail(a, b):
            raise RecursionError("not a simplex failure")

        monkeypatch.setattr(certify, "_phase1_feasible", fail)
        with pytest.raises(RecursionError):
            cli.main(["check", _write(tmp_path, _two_by_two_doc())])


# Each error class a library call can raise, with the exit code and stderr lines main
# gives it.
EXIT_MAP = [
    (ValueError("bad value"), 2, ["error: bad value"]),
    (TypeError("bad type"), 2, ["error: bad type"]),
    (cli.ProblemFileError("bad file"), 2, ["error: bad file"]),
    (synth.GainSearchError("proved: none", best_gain=np.zeros((1, 2)), candidates=1,
                           witness=np.array([1.0, 0.5])), 1,
     ["synthesis failed: proved: none", "best candidate gain: [[0.0, 0.0]]",
      "no-gain witness y: [1.0, 0.5]"]),
    (synth.GainSearchError("no passing gain", best_gain=np.ones((1, 1)), candidates=3), 1,
     ["synthesis failed: no passing gain", "best candidate gain: [[1.0]]"]),
    (synth.DesignError("supplied gain fails"), 1, ["synthesis failed: supplied gain fails"]),
    (FloatingPointError("non-finite state at t = 0.004"), 1,
     ["simulation diverged: non-finite state at t = 0.004"]),
    (certify.SimplexError("undecided"), 1, ["error: undecided"]),
]


class TestExitMap:
    """``main`` alone maps an error to its exit code, whichever command raised it.  The
    parser is cached with the commands bound, so the library call is patched."""

    COMMANDS = {
        "check": (synth, "check_conditions", ["check", "4.1"]),
        "synthesize": (synth, "search_gain", ["synthesize", "4.1"]),
        "simulate": (sim, "simulate_discrete", ["simulate", "4.2"]),
        "reproduce": (sim, "simulate_continuous", ["reproduce", "4.1"]),
    }

    @pytest.mark.parametrize("command", list(COMMANDS))
    @pytest.mark.parametrize("exc, code, lines", EXIT_MAP, ids=[
        "ValueError", "TypeError", "ProblemFileError", "GainSearchError+witness",
        "GainSearchError", "DesignError", "FloatingPointError", "SimplexError"])
    def test_error_class_gets_its_exit_code(self, monkeypatch, tmp_path, capsys, command, exc,
                                            code, lines):
        module, name, argv = self.COMMANDS[command]

        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(module, name, fail)
        if argv[0] == "synthesize":  # the gain search runs only without an observer block
            doc = _fixture_doc(str(cli.fixture_path(argv[1])))
            del doc["observer"]
            argv = [argv[0], _write(tmp_path, doc)]
        elif argv[0] != "reproduce":
            argv = [argv[0], str(cli.fixture_path(argv[1]))]
        assert cli.main(argv) == code
        assert capsys.readouterr() == ("", "".join(line + "\n" for line in lines))


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

    def test_huge_integer_flags(self, fixture_42_path, capsys):
        """``--steps`` above every float meets the sample cap; ``--sample-truth`` seeds."""
        big = 10 ** 400
        assert cli.main(["simulate", fixture_42_path, "--steps", str(big)]) == 2
        assert capsys.readouterr() == (
            "", f"error: --steps = {big} asks for more than 1000000 samples\n")
        assert cli.main(["simulate", fixture_42_path, "--steps", "20",
                         "--sample-truth", str(big)]) == 0
        assert "violations: nonneg=0 lower=0 upper=0" in capsys.readouterr().err

    def test_fixture_41_zero_violations(self, tmp_path, fixture_41_path, capsys):
        out_path = str(tmp_path / "trace.csv")
        assert cli.main(["simulate", fixture_41_path, "--out", out_path]) == 0
        report = capsys.readouterr().out
        assert "violations: nonneg=0 lower=0 upper=0" in report
        with open(out_path) as fh:
            header = fh.readline().strip()
        assert header.startswith("t,x1,") and header.endswith(",sigma")

    def test_fixture_42_zero_violations(self, tmp_path, fixture_42_path, capsys):
        out_path = str(tmp_path / "trace.csv")
        assert cli.main(["simulate", fixture_42_path, "--out", out_path]) == 0
        assert "violations: nonneg=0 lower=0 upper=0" in capsys.readouterr().out
        with open(out_path) as fh:
            assert len(fh.readlines()) == 62

    def test_tiny_horizon_keeps_the_start_row(self, tmp_path, fixture_41_path, capsys):
        out_path = str(tmp_path / "trace.csv")
        assert cli.main(["simulate", fixture_41_path, "--horizon", "1e-13",
                         "--out", out_path]) == 0
        assert "bracket check over 2 samples" in capsys.readouterr().out
        with open(out_path) as fh:
            times = [line.split(",")[0] for line in fh.readlines()[1:]]
        assert times == ["0.000000000000e+00", "1.000000000000e-13"]

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
        with open(paths[0], "rb") as first, open(paths[1], "rb") as second:
            assert first.read() == second.read()

    @pytest.mark.parametrize("target", ["missing directory", "directory"])
    def test_unwritable_out_exit_2(self, tmp_path, fixture_42_path, capsys, target):
        out = str(tmp_path / "no-such-dir" / "x.csv" if target == "missing directory" else tmp_path)
        assert cli.main(["simulate", fixture_42_path, "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"error: cannot write {out}: ")

    @pytest.mark.parametrize("example, flags", [("4.1", ["--horizon", "200"]),
                                                ("4.2", ["--steps", "2000"])])
    def test_unwritable_out_checked_before_the_run(self, tmp_path, monkeypatch, capsys,
                                                   example, flags):
        """The path is checked after the settings and before the simulation, which
        here would fail the test if it ran."""
        def no_run(*args, **kwargs):
            pytest.fail("simulated before checking --out")

        for name in ("simulate_continuous", "simulate_discrete"):
            monkeypatch.setattr(cli.simmod, name, no_run)
        out = str(tmp_path / "missing" / "x.csv")
        argv = ["simulate", str(cli.fixture_path(example)), "--out", out, *flags]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"error: cannot write {out}: ")

    @pytest.mark.parametrize("flags, message", [
        (["--step", "-1"], "--step must be finite and > 0, got -1.0"),
        (["--tol", "-1"], "--tol must be finite and >= 0, got -1.0"),
        (["--steps", "5"], "--steps applies only to discrete-time problems"),
    ])
    def test_other_errors_keep_their_message_on_unwritable_out(self, tmp_path, capsys,
                                                               flags, message):
        out = str(tmp_path / "missing" / "x.csv")
        argv = ["simulate", str(cli.fixture_path("4.1")), "--out", out, *flags]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")

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

    def test_dwell_with_infinite_double_diverges_without_traceback(self, tmp_path, capsys,
                                                                   fixture_41_path):
        """``2 * min_dwell`` overflows; the dwell draw must not, so the run ends in the
        state's own overflow."""
        doc = _fixture_doc(fixture_41_path)
        doc["switching"].update(min_dwell=1e308, horizon=1.5e308)
        argv = ["simulate", _write(tmp_path, doc), "--step", "1e303", "--out", os.devnull]
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "simulation diverged: non-finite state at t = 1e+303\n"

    def test_invalid_flag_values_exit_2(self, fixture_41_path, capsys):
        assert cli.main(["simulate", fixture_41_path, "--horizon", "-1"]) == 2
        assert "error" in capsys.readouterr().err
        assert cli.main(["simulate", fixture_41_path, "--step", "0"]) == 2
        capsys.readouterr()


class TestOutFile:
    """``--out`` overwrites an existing file in place and cuts it at the last byte
    written; a new file is created as ``open(path, "w")`` would create it."""

    def test_shorter_trace_over_longer_one_matches_fresh_write(self, tmp_path, capsys,
                                                                fixture_42_path):
        out, fresh = tmp_path / "t.csv", tmp_path / "fresh.csv"
        assert cli.main(["simulate", fixture_42_path, "--steps", "600", "--out", str(out)]) == 0
        inode, long_size = out.stat().st_ino, out.stat().st_size
        assert cli.main(["simulate", fixture_42_path, "--steps", "60", "--out", str(out)]) == 0
        assert cli.main(["simulate", fixture_42_path, "--steps", "60", "--out", str(fresh)]) == 0
        capsys.readouterr()
        assert out.read_bytes() == fresh.read_bytes()
        assert out.stat().st_size < long_size
        assert out.stat().st_ino == inode

    def test_solved_problem_over_longer_file_matches_fresh_write(self, tmp_path, capsys,
                                                                 fixture_42_path):
        out, fresh = tmp_path / "solved.json", tmp_path / "fresh.json"
        out.write_text("{}\n" * 100_000)
        for path in (out, fresh):
            assert cli.main(["synthesize", fixture_42_path, "--out", str(path)]) == 0
        capsys.readouterr()
        assert out.read_bytes() == fresh.read_bytes()
        assert json.loads(out.read_text())["domain"] == "discrete"

    @pytest.mark.skipif(not os.path.exists(os.devnull), reason=f"no {os.devnull}")
    @pytest.mark.parametrize("command, flags", [("simulate", ["--steps", "60"]),
                                                ("synthesize", [])])
    def test_null_device_out(self, capsys, fixture_42_path, command, flags):
        """A target that is not a regular file is written, never truncated."""
        assert cli.main([command, fixture_42_path, *flags, "--out", os.devnull]) == 0
        assert "error" not in capsys.readouterr().err

    def test_new_file_mode_follows_umask(self, tmp_path, capsys, fixture_42_path):
        out = tmp_path / "t.csv"
        previous = os.umask(0o027)
        try:
            assert cli.main(["simulate", fixture_42_path, "--out", str(out)]) == 0
        finally:
            os.umask(previous)
        capsys.readouterr()
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~0o027

    def test_out_opened_without_truncation(self, tmp_path, capsys, monkeypatch,
                                           fixture_42_path):
        out = str(tmp_path / "t.csv")
        flags = []
        real_open = os.open

        def spy(path, flag, *args, **kwargs):
            if path == out:
                flags.append(flag)
            return real_open(path, flag, *args, **kwargs)

        monkeypatch.setattr(os, "open", spy)
        for _ in range(2):  # a new file, then an existing one
            assert cli.main(["simulate", fixture_42_path, "--out", out]) == 0
        capsys.readouterr()
        assert len(flags) == 2
        assert not any(flag & os.O_TRUNC for flag in flags)

    @pytest.mark.parametrize("stdout", ["binary", "text only"])
    @pytest.mark.parametrize("argv", [["simulate", "4.1"], ["simulate", "4.2", "--steps", "600"],
                                      ["synthesize", "4.2"]], ids=" ".join)
    def test_stdout_carries_the_out_bytes(self, tmp_path, capfdbinary, argv, stdout):
        """Stdout gets the bytes of ``--out``, whether it is the process's stdout
        or an ``io.StringIO`` from ``redirect_stdout`` with no binary layer."""
        command, example, *flags = argv
        argv = [command, str(cli.fixture_path(example)), *flags]
        out = tmp_path / "out"
        assert cli.main([*argv, "--out", str(out)]) == 0
        capfdbinary.readouterr()
        if stdout == "binary":
            assert cli.main(argv) == 0
            got = capfdbinary.readouterr().out
        else:
            text = io.StringIO()
            with contextlib.redirect_stdout(text):
                assert cli.main(argv) == 0
            got = text.getvalue().encode("ascii")
        assert got == out.read_bytes()

    @pytest.mark.parametrize("size", [3, 100_000], ids=["buffered", "flushed"])
    def test_failed_write_leaves_only_its_bytes(self, tmp_path, size):
        """The old tail is cut also when ``write`` raises, whether or not the text
        written so far has left the buffer."""
        out = tmp_path / "t.csv"
        out.write_text("x" * 300_000)

        def write(fh):
            fh.write(b"a" * size)
            raise RuntimeError("stopped")

        with pytest.raises(RuntimeError, match="stopped"):
            cli._write_out(str(out), write)
        assert out.read_bytes() == b"a" * size


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

    @pytest.mark.parametrize("pad", ["\n", "\n    "], ids=["pad 0", "pad 4"])
    @pytest.mark.parametrize("array", [
        [-0.0, 0.0, 5e-324, -2.2250738585072e-308, 1e16, 1e22, 1.7976931348623157e308],
        [[1e16, -1e22], [5e-324, -0.0], [0.1, -1.7976931348623157e308]],
        [[[1.0, float("nan")]], [[float("inf"), float("-inf")]]],
        [float("nan")], [float("inf")], [[float("-inf")]],
        [], [[], []], [[[]]], [[[], []], [[], []]],
        np.zeros((0, 3)), np.zeros((0, 2, 2)), np.zeros((2, 0, 3)),
        np.arange(24.0).reshape(2, 3, 4) / 7,
    ], ids=repr)
    def test_array_matches_json(self, array, pad):
        """An array is spelled as json.dumps(indent=2) spells its list, also where the
        array starts on an indented line."""
        a = np.array(array, dtype=float)
        assert cli._dumps_indented(a, pad) == json.dumps(a.tolist(), indent=2).replace("\n", pad)

    def test_arrays_in_a_document(self):
        doc = {"m": np.eye(2), "e": np.zeros((1, 0)), "x": {"v": np.array([float("nan"), 2.0])},
               "k": 3, "s": "a\nb", "l": [1.0, {"z": None}]}
        assert cli._dumps_indented(doc) == json.dumps(doc, indent=2, default=np.ndarray.tolist)

    def test_templates_are_cached_and_bounded(self, fixture_41_path):
        """Writing a solved document again builds no template; 200 shapes fill the
        cache to its bound and no further."""
        problem = cli.load_problem(fixture_41_path)
        doc = cli.serialize_problem(problem)
        arrays = sum(isinstance(value, np.ndarray) for block in (doc, doc["truth"], doc["observer"])
                     for value in block.values())
        first = cli._dumps_indented(doc)
        before = cli._array_template.cache_info()
        assert cli._dumps_indented(doc) == first
        after = cli._array_template.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (arrays, 0)
        for k in range(200):
            cli._dumps_indented(np.ones(k + 1))
        info = cli._array_template.cache_info()
        assert info.currsize == info.maxsize < 200


class TestSerializeProblem:
    def test_array_entries_are_the_frozen_arrays(self, fixture_41_path):
        """Each array entry of the document is the array that the problem holds, not a
        copy, and it is read-only; a problem without an observer has no observer block."""
        problem = cli.load_problem(fixture_41_path)
        system, truth, observer = problem.system, problem.truth, problem.observer
        held = {"A_lower": system.a_lower, "A_upper": system.a_upper,
                "x0_lower": system.x0_lower, "x0_upper": system.x0_upper}
        built = {"L": observer.gain_l, "omega0_lower": observer.omega0_lower,
                 "omega0_upper": observer.omega0_upper, "Ahat_lower": observer.ahat_lower,
                 "Ahat_upper": observer.ahat_upper, "G_lower": observer.g_lower,
                 "G_upper": observer.g_upper, "F": observer.f, "Chat": observer.chat,
                 "Dhat": observer.dhat}
        doc = cli.serialize_problem(problem)
        entries = ([(doc[key], held[key]) for key in held]
                   + [(doc["truth"]["A"], truth.a), (doc["truth"]["x0"], truth.x0)]
                   + [(doc["observer"][key], built[key]) for key in built])
        assert list(doc["observer"]) == list(built)
        assert all(got is want and not want.flags.writeable for got, want in entries)
        assert "observer" not in cli.serialize_problem(dataclasses.replace(problem, observer=None))


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
