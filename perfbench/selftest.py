"""Self-test of the output checks: good outputs pass, corrupted ones are rejected."""

from __future__ import annotations

import numpy as np

import checks
import workloads


def _csv(doc, times, ids, ref) -> str:
    x, xl, xu = ref
    rows = [checks.csv_header(int(doc["n"]))]
    for k in range(times.size):
        vals = [times[k], *x[k], *xl[k], *xu[k], *(xu[k] - xl[k])]
        rows.append(",".join(f"{v:.12e}" for v in vals) + f",{int(ids[k])}")
    return "\n".join(rows) + "\n"


def run(root: str) -> list:
    """Returns the list of self-test failures (empty when the checks work)."""
    failures = []

    def expect(ok: bool, what: str):
        if not ok:
            failures.append(what)

    # A planted lambda verifies; the same lambda with one sign flipped does not.
    for domain in ("continuous", "discrete"):
        doc, _, lam = workloads.ladder_instance(np.random.default_rng(0), domain, 5, 3, "PASS")
        report = "copositive witness lambda = [{}]\noverall: PASS\n"
        good = report.format(", ".join(f"{v:.12g}" for v in lam))
        expect(checks.check_check_pass(doc, 0, good) == [], f"{domain}: planted lambda rejected")
        flipped = lam.copy()
        flipped[2] = -flipped[2]
        bad = report.format(", ".join(f"{v:.12g}" for v in flipped))
        expect(checks.check_check_pass(doc, 0, bad) != [], f"{domain}: flipped lambda accepted")

    # A trace CSV written from the reference passes; one bracket violation fails.
    doc = workloads.load_fixture(root, "discrete_4_2.json")
    steps, sw = 20, doc["switching"]
    sw_times, sw_ids = checks.switching(int(doc["N"]), steps, float(sw["min_dwell"]),
                                        int(sw["seed"]), True)
    times = checks.sim_grid(doc, sw_times, steps=steps)
    ids = checks.active(sw_times, sw_ids, times)
    ref = checks.reference_trajectory(doc, checks.sample_truth(doc, 1), times, ids)
    text = _csv(doc, times, ids, ref)
    errors, _ = checks.check_trace(doc, text, times, ids, ref, 1e-12, workloads.DISC_REF_REL)
    expect(errors == [], f"reference CSV rejected: {errors}")
    x, xl, xu = (a.copy() for a in ref)
    xu[5, 3] = x[5, 3] * (1 - 1e-3)
    errors, _ = checks.check_trace(doc, _csv(doc, times, ids, (x, xl, xu)), times, ids, ref,
                                   1e-12, workloads.DISC_REF_REL)
    expect(any("bracket" in e for e in errors), "CSV with a bracket violation accepted")

    # A gain inside 0.55 < L <= 1 passes the 2x2 case; L = 5 breaks (ii).
    doc = workloads.two_by_two()
    ok = checks.check_conditions(doc, [[0.8]], [0.2], [1.2], np.array([1.0]))
    expect(ok == {}, f"valid 2x2 gain rejected: {ok}")
    broken = checks.check_conditions(doc, [[5.0]], [0.0], [2.0], np.array([1.0]))
    expect("ii" in broken, "gain breaking (ii) accepted")
    return failures
