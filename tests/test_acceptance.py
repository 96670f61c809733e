"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the assertions enforce every stated tolerance.
"""

import json
import time

import numpy as np
import pytest

from swposobs import certify, cli, matcore, sim, synth

import oracles
from conftest import (
    ordered_metzler_pair,
    random_metzler,
    random_nonneg,
    random_passing_scenario,
)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_continuous_example_reproduction(problem_41):
    start = time.perf_counter()
    report = synth.check_conditions(problem_41.system, problem_41.build_observer())
    sw = problem_41.switching
    sig = sim.make_switching_signal(3, sw["horizon"], sw["min_dwell"], sw["seed"])
    trace = sim.simulate_continuous(
        problem_41.system, problem_41.truth, problem_41.build_observer(), sig,
        step=1e-3, horizon=2.0,
    )
    bracket = sim.verify_bracket(trace, 1e-6)
    elapsed = time.perf_counter() - start
    ok = (
        report.passed
        and bracket.total_violations == 0
        and np.isfinite(bracket.sup_xi_norm)
        and bracket.xi_norm_end < bracket.xi_norm_start
        and elapsed < 5.0
    )
    _report(
        "1",
        ok,
        f"conditions {report.as_dict()}, {bracket.total_violations} violations at 1e-6, "
        f"||xi|| {bracket.xi_norm_start:.4g} -> {bracket.xi_norm_end:.4g}, "
        f"check+simulate+verify {elapsed:.2f}s < 5s",
    )


def test_criterion_2_discrete_example_reproduction(problem_42):
    start = time.perf_counter()
    report = synth.check_conditions(problem_42.system, problem_42.build_observer())
    sw = problem_42.switching
    sig = sim.make_switching_signal(3, sw["steps"], sw["min_dwell"], sw["seed"],
                                    domain=synth.DISCRETE)
    trace = sim.simulate_discrete(
        problem_42.system, problem_42.truth, problem_42.build_observer(), sig, 60
    )
    bracket = sim.verify_bracket(trace, 1e-12)
    elapsed = time.perf_counter() - start
    ratio = bracket.xi_norm_end / bracket.xi_norm_start
    ok = (report.passed and bracket.total_violations == 0 and ratio < 0.05
          and elapsed < 1.0)
    _report(
        "2",
        ok,
        f"conditions {report.as_dict()}, {bracket.total_violations} violations at 1e-12, "
        f"||xi(60)||/||xi(0)|| = {ratio:.3g} < 0.05, "
        f"check+simulate+verify {elapsed:.2f}s < 1s",
    )


def test_criterion_3_positivity_and_monotonicity_of_flows():
    rng = np.random.default_rng(2024)
    ts = (0.1, 0.5, 1.0, 2.0)
    worst_floor = 0.0
    for _ in range(200):
        m = random_metzler(rng)
        for t in ts:
            worst_floor = min(worst_floor, float(matcore.expm(m, t).min()))
    worst_gap = 0.0
    for _ in range(200):
        m, n = ordered_metzler_pair(rng)
        for t in ts:
            gap = float((matcore.expm(m, t) - matcore.expm(n, t)).max())
            worst_gap = max(worst_gap, gap)
    ok = worst_floor >= -1e-9 and worst_gap <= 1e-9
    _report(
        "3",
        ok,
        f"200 matrices: min entry {worst_floor:.3g} >= -1e-9; "
        f"200 ordered pairs: max excess {worst_gap:.3g} <= 1e-9",
    )


def test_criterion_4_certificate_matches_minor_oracles():
    rng = np.random.default_rng(4096)
    cont_checked = 0
    for _ in range(200):
        m = random_metzler(rng)
        feasible = certify.find_lambda([m]) is not None
        if feasible != oracles.metzler_is_hurwitz(m):
            _report("4", False, f"continuous disagreement on {m.tolist()}")
        cont_checked += 1
    disc_checked = 0
    for _ in range(200):
        b = random_nonneg(rng)
        shifted = [b - np.eye(b.shape[0])]
        feasible = certify.find_lambda(shifted) is not None
        if feasible != oracles.nonneg_is_schur(b):
            _report("4", False, f"discrete disagreement on {b.tolist()}")
        disc_checked += 1
    _report(
        "4",
        cont_checked == 200 and disc_checked == 200,
        f"LP feasibility == minor test on {cont_checked} Metzler and "
        f"{disc_checked} shifted nonnegative matrices",
    )


@pytest.mark.parametrize("domain", [synth.CONTINUOUS, synth.DISCRETE])
def test_criterion_5_randomized_bracket_property(domain):
    rng = np.random.default_rng(5150 if domain == synth.CONTINUOUS else 5151)
    start = time.perf_counter()
    violations = 0
    runs = 0
    for _ in range(100):
        system, obs, truth = random_passing_scenario(rng, domain)
        for seed in range(5):
            if domain == synth.CONTINUOUS:
                sig = sim.make_switching_signal(system.nsub, 1.0, 0.2, seed=seed)
                trace = sim.simulate_continuous(system, truth, obs, sig,
                                                step=1e-3, horizon=1.0)
                tol = 1e-6
            else:
                sig = sim.make_switching_signal(system.nsub, 60, 5, seed=seed,
                                                domain=synth.DISCRETE)
                trace = sim.simulate_discrete(system, truth, obs, sig, 60)
                tol = 1e-12
            violations += sim.verify_bracket(trace, tol).total_violations
            runs += 1
    elapsed = time.perf_counter() - start
    _report(
        f"5-{domain}",
        violations == 0 and runs == 500,
        f"{runs} runs (100 scenarios x 5 switching seeds), "
        f"{violations} bracket violations, {elapsed:.1f}s",
    )


def test_criterion_6_rk4_convergence_order(problem_41):
    sw = problem_41.switching
    sig = sim.make_switching_signal(3, sw["horizon"], sw["min_dwell"], sw["seed"])
    obs = problem_41.build_observer()

    def run(step):
        return sim.simulate_continuous(problem_41.system, problem_41.truth, obs, sig,
                                       step=step, horizon=sw["horizon"])

    traces = [run(h) for h in (1e-3, 5e-4, 2.5e-4)]

    def sup_diff(coarse, fine):
        idx = np.searchsorted(fine.times, coarse.times)
        assert np.array_equal(fine.times[idx], coarse.times)
        return max(
            np.abs(fine.x[idx] - coarse.x).max(),
            np.abs(fine.xhat_lower[idx] - coarse.xhat_lower).max(),
            np.abs(fine.xhat_upper[idx] - coarse.xhat_upper).max(),
        )

    d1 = sup_diff(traces[0], traces[1])
    d2 = sup_diff(traces[1], traces[2])
    order = float(np.log2(d1 / d2))
    _report(
        "6",
        order >= 3.5,
        f"refinement 1e-3 -> 5e-4 -> 2.5e-4: sup diffs {d1:.3g}, {d2:.3g}, "
        f"observed order {order:.2f} >= 3.5",
    )


def test_criterion_7_deterministic_outputs(tmp_path, capsys):
    fixture = str(cli.fixture_path("4.1"))
    with open(fixture) as fh:
        doc = json.load(fh)
    del doc["observer"]
    problem_path = tmp_path / "search.json"
    problem_path.write_text(json.dumps(doc))

    synth_outputs = []
    for _ in range(2):
        assert cli.main(["synthesize", str(problem_path), "--seed", "11"]) == 0
        synth_outputs.append(capsys.readouterr().out)

    csv_paths = [tmp_path / f"run{i}.csv" for i in range(2)]
    sim_outputs = []
    for path in csv_paths:
        assert cli.main(["simulate", fixture, "--out", str(path)]) == 0
        sim_outputs.append(capsys.readouterr().out)
    csv_bytes = [p.read_bytes() for p in csv_paths]

    ok = (
        synth_outputs[0] == synth_outputs[1]
        and sim_outputs[0] == sim_outputs[1]
        and csv_bytes[0] == csv_bytes[1]
    )
    with capsys.disabled():
        _report(
            "7",
            ok,
            f"synthesize stdout ({len(synth_outputs[0])} bytes) and simulate CSV "
            f"({len(csv_bytes[0])} bytes) byte-identical across two runs",
        )
