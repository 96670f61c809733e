"""Seeded inputs for the benchmark workloads.

Every input is derived from the workload seed: the same seed writes the same
problem files and command lines.  A workload is a sequence of rounds; each
round is a fixed mix of jobs, so every whole round has the same proportions
of job kinds whatever the seed.  A job is one ``swposobs`` command line plus
the check that judges its output.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

WHY = {
    "validate-cont": (
        "simulate on fixture 4.1 with a new truth seed per job and rotating switching seeds: "
        "the RK4 loop and export_csv do nearly all the work"
    ),
    "validate-disc": (
        "simulate on fixture 4.2 for 600 steps: the same sim layer with a cheap map step, "
        "export_csv dominant and per-job overhead a larger share"
    ),
    "certify-ladder": (
        "check at zero gain on planted instances: the FAIL instances pivot through the "
        "whole margin sweep, so the copositive LP pivot loop dominates"
    ),
    "design": (
        "synthesize with no observer block: many tiny LPs, so per-call cost in find_lambda "
        "and the 25-LP bisection dominate"
    ),
}

# The ladder grid: (m, N) cells, with m the observer order (LP columns) and
# N the number of subsystems (the LP has N*m rows).  At the seed commit the
# simplex raises "phase-1 simplex became unbounded" on 0.1-1% of the PASS
# instances whose LP has to pivot, at every size probed, and about one
# (10, 10) FAIL instance in a thousand ends in "exceeded its iteration
# budget" after some 15 s.  A timed workload must complete every job, so
# those run in the defect probe.  The timed ladder holds the FAIL instances
# of the three smaller cells, which pivot through the whole margin sweep
# (none of 12,000 raised), and continuous PASS instances planted at the
# all-ones vector, whose LP needs no pivot, at all four cells.
LADDER_CELLS = [(5, 3), (5, 10), (10, 3), (10, 10)]
# (domain, m, N, verdict, instances).  A run certifies the same batch every
# round, which keeps each seed's exposure to the defects small.  Job times
# cluster by kind, and a quantile that falls on a gap between clusters jumps
# between runs; these counts put the median inside the discrete (10, 3) FAIL
# jobs (14-26 ms, the 40-60% band) and the 90th percentile inside the
# discrete (5, 10) FAIL jobs (33-48 ms, the top 30%).
LADDER_KINDS = (
    [("continuous", m, nsub, "PASS-ones", 5) for m, nsub in LADDER_CELLS]
    + [("continuous", 5, 3, "FAIL", 5), ("discrete", 5, 3, "FAIL", 5),
       ("continuous", 10, 3, "FAIL", 10), ("discrete", 10, 3, "FAIL", 20),
       ("continuous", 5, 10, "FAIL", 10), ("discrete", 5, 10, "FAIL", 30)])
# m=40, N=10 is left out: its PASS instances either raise after about 2.5 s
# or run about 170 s before the iteration budget ends them.
DEFECT_KINDS = [(d, m, nsub, "PASS", 50) for d in ("continuous", "discrete")
                for m, nsub in LADDER_CELLS + [(20, 3), (20, 10), (40, 3)]]
LADDER_P = 2

# 600 steps keeps the discrete states near 1e-90; at 2000 steps they reach
# 1e-298 and subnormal arithmetic would dominate the run.
DISC_STEPS = 600
CONT_SWITCHING_VARIANTS = 8
# Continuous traces: RK4 at step 1e-3 matches the exact flow to about 1e-8
# of max|x|.  Discrete traces: iteration is exact up to roundoff and the
# 13 significant digits of the CSV.
CONT_REF_REL = 1e-6
DISC_REF_REL = 1e-12

# Failures the defect probe sees at the seed commit with seed 0.  A fix of
# the simplex shows up as a drop in this count.
EXPECTED_DEFECT_FAILURES = 23


@dataclass
class Verdict:
    errors: list
    solved: bool
    state_err: float | None = None


@dataclass
class Job:
    label: str
    argv: list
    verify: Callable[[int, str, str], Verdict]


def _dump(path: str, doc: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tags])


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# generators


def ladder_instance(rng: np.random.Generator, domain: str, m: int, nsub: int, verdict: str):
    """A zero-gain check instance whose verdict on condition (iii) is planted.

    PASS: every upper 22-block satisfies M^T lam* < 0 (continuous) or
    M^T lam* < lam* (discrete) for a lam* spread over [e^-2.5, 1], far from
    the all-ones vector, so the LP has to pivot.
    PASS-ones (continuous only): lam* = 1 with M^T 1 <= -1, so every LP row
    starts feasible and the LP ends without a pivot.
    FAIL: as PASS, but one subsystem's upper 22-block is made unstable on
    its own, so no common vector exists and the whole margin sweep runs.
    Returns ``(doc, bad, lam_star)`` with ``bad = -1`` for PASS.
    """
    p = LADDER_P
    n = p + m
    ones = verdict == "PASS-ones"
    lam = np.ones(m) if ones else np.exp(rng.uniform(-2.5, 0.0, m))
    slack = (1.0, 2.0) if ones else (0.2, 1.0)
    bad = int(rng.integers(nsub)) if verdict == "FAIL" else -1
    a_lo, a_up = [], []
    for i in range(nsub):
        up = rng.uniform(0.0, 1.0, (n, n)) * (rng.uniform(size=(n, n)) < 0.5)
        m22 = up[p:, p:]
        if domain == "continuous":
            np.fill_diagonal(up, 0.0)
            diag = -(lam @ m22 + rng.uniform(*slack, m) * lam) / lam
            if i == bad:
                diag[int(rng.integers(m))] = rng.uniform(0.1, 0.5)
            m22[np.diag_indices(m)] = diag
            up[np.arange(p), np.arange(p)] = -rng.uniform(1.0, 3.0, p) - up[:, :p].sum(axis=0)
            lo = up * rng.uniform(0.5, 1.0, (n, n))
            lo[np.diag_indices(n)] = np.diagonal(up) - rng.uniform(0.0, 0.5, n)
        else:
            m22 *= rng.uniform(0.5, 0.95, m) * lam / np.maximum(lam @ m22, 1e-12)
            if i == bad:
                m22[(j := int(rng.integers(m))), j] = rng.uniform(1.1, 1.5)
            up[:, :p] *= 0.5 / max(1e-9, float(up[:, :p].sum(axis=0).max()))
            lo = up * rng.uniform(0.3, 1.0, (n, n))
        a_lo.append(lo)
        a_up.append(up)
    x0l = rng.uniform(0.0, 2.0, n)
    x0u = x0l + rng.uniform(0.0, 1.0, n)
    doc = {
        "domain": domain, "n": n, "p": p, "N": nsub,
        "A_lower": [a.tolist() for a in a_lo], "A_upper": [a.tolist() for a in a_up],
        "x0_lower": x0l.tolist(), "x0_upper": x0u.tolist(),
        "observer": {"L": np.zeros((m, p)).tolist(),
                     "omega0_lower": x0l[p:].tolist(), "omega0_upper": x0u[p:].tolist()},
    }
    return doc, bad, lam


def two_by_two() -> dict:
    """Continuous 2x2 case whose passing gains are exactly 0.55 < L <= 1."""
    a = [[-3.0, 1.0], [0.5, 0.55]]
    return {"domain": "continuous", "n": 2, "p": 1, "N": 1, "A_lower": [a], "A_upper": [a],
            "x0_lower": [1.0, 1.0], "x0_upper": [1.0, 2.0]}


def unstabilizable_toy() -> dict:
    """Discrete toy with A_12 = 0 and A_22 = 2: no gain passes (iii)."""
    a = [[0.0, 0.0], [0.0, 2.0]]
    return {"domain": "discrete", "n": 2, "p": 1, "N": 1, "A_lower": [a], "A_upper": [a],
            "x0_lower": [0.0, 0.0], "x0_upper": [1.0, 1.0]}


def hard_search_recipe(rng: np.random.Generator, n: int, p: int = 3, nsub: int = 4) -> dict:
    """Gain-search problem whose candidates reach LPs with right-hand sides near 1e-6."""
    a_lo, a_up = [], []
    for _ in range(nsub):
        a = rng.uniform(0.0, 0.3, (n, n))
        np.fill_diagonal(a, -1.0)
        a[:p, p:] = rng.uniform(0.5, 1.0, (p, n - p))
        a[p:, p:][np.diag_indices(n - p)] = 0.2
        a_lo.append(a)
        a_up.append(a + 0.02 * (a > 0))
    return {"domain": "continuous", "n": n, "p": p, "N": nsub,
            "A_lower": [a.tolist() for a in a_lo], "A_upper": [a.tolist() for a in a_up],
            "x0_lower": [1.0] * n, "x0_upper": [2.0] * n}


def load_fixture(root: str, name: str) -> dict:
    return json.loads(_read(os.path.join(root, "src", "swposobs", "fixtures", name)))


# ---------------------------------------------------------------------------
# job builders


def simulate_job(label, doc, path, out, truth_seed, extra, horizon=None, steps=None):
    """simulate with --sample-truth; checks the report, the CSV and the reference."""
    nsub = int(doc["N"])
    sw = doc["switching"]
    discrete = doc["domain"] == "discrete"
    span = steps if discrete else horizon
    # the command line's default bracket tolerances
    tol, ref_rel = (1e-12, DISC_REF_REL) if discrete else (1e-6, CONT_REF_REL)

    def verify(rc, stdout, stderr):
        errors = checks.check_bracket_report(rc, stdout)
        if rc != 0:
            return Verdict(errors, False)
        sw_times, sw_ids = checks.switching(nsub, span, float(sw["min_dwell"]),
                                            int(sw["seed"]), discrete)
        times = checks.sim_grid(doc, sw_times, horizon=horizon, steps=steps)
        ids = checks.active(sw_times, sw_ids, times)
        ref = checks.reference_trajectory(doc, checks.sample_truth(doc, truth_seed), times, ids)
        more, err = checks.check_trace(doc, _read(out), times, ids, ref, tol, ref_rel)
        errors += more
        return Verdict(errors, not errors, err)

    argv = ["simulate", path, "--out", out, "--sample-truth", str(truth_seed)] + extra
    return Job(label, argv, verify)


class Workload:
    """Problem files written once at set-up; ``round(r)`` yields the r-th job mix."""

    def __init__(self, name: str, seed: int, workdir: str, root: str, witness):
        self.name = name
        self.why = WHY[name]
        self.seed = seed
        self.workdir = workdir
        self.root = root
        # witness(path) -> printed lambda of `check` on a problem file, or None
        self.witness = witness
        self._setup = getattr(self, "_setup_" + name.replace("-", "_"))
        self._round = getattr(self, "_round_" + name.replace("-", "_"))
        self._setup()

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def round(self, r: int) -> list:
        return self._round(r)

    # validate-cont ---------------------------------------------------------

    def _setup_validate_cont(self):
        base = load_fixture(self.root, "continuous_4_1.json")
        rng = _rng(self.seed, 0)
        self.variants = []
        for k in range(CONT_SWITCHING_VARIANTS):
            doc = json.loads(json.dumps(base))
            doc["switching"]["seed"] = int(rng.integers(1 << 30))
            self.variants.append((doc, _dump(self.path(f"cont_{k}.json"), doc)))

    def _round_validate_cont(self, r):
        rng = _rng(self.seed, 1, r)
        jobs = []
        for k, (doc, path) in enumerate(self.variants):
            truth = int(rng.integers(1 << 30))
            jobs.append(simulate_job(f"cont/switching{k}", doc, path, self.path("trace.csv"),
                                     truth, [], horizon=float(doc["switching"]["horizon"])))
        return jobs

    # validate-disc ---------------------------------------------------------

    def _setup_validate_disc(self):
        self.doc = load_fixture(self.root, "discrete_4_2.json")
        self.file = _dump(self.path("disc.json"), self.doc)

    def _round_validate_disc(self, r):
        rng = _rng(self.seed, 2, r)
        return [simulate_job("disc", self.doc, self.file, self.path("trace.csv"),
                             int(rng.integers(1 << 30)), ["--steps", str(DISC_STEPS)],
                             steps=DISC_STEPS)
                for _ in range(8)]

    # certify-ladder --------------------------------------------------------

    def _setup_certify_ladder(self):
        self.ladder = ladder_jobs(self.seed, self.workdir, LADDER_KINDS, 3)

    def _round_certify_ladder(self, r):
        return self.ladder

    # design ----------------------------------------------------------------

    def _setup_design(self):
        self.cases = []
        for name in ("continuous_4_1.json", "discrete_4_2.json"):
            doc = load_fixture(self.root, name)
            del doc["observer"]
            self.cases.append(("fixture-" + name[-8:-5], doc))
        self.cases.append(("2x2", two_by_two()))
        self.cases.append(("toy", unstabilizable_toy()))
        self.files = {label: _dump(self.path(f"design_{label}.json"), doc)
                      for label, doc in self.cases}

    def _round_design(self, r):
        rng = _rng(self.seed, 4, r)
        docs = dict(self.cases)
        # Four cheap fixture jobs in six put the median inside the fixture
        # class (per-job overhead) and the 90th percentile inside the toy
        # class (LP count), away from the edges between classes.
        mix = ["fixture-4_1", "fixture-4_2", "fixture-4_1", "fixture-4_2", "2x2", "toy"]
        jobs = []
        for label in mix:
            search_seed = int(rng.integers(1 << 30))
            jobs.append(synthesize_job(f"design/{label}", docs[label], self.files[label],
                                       self.path("design_out.json"), search_seed, self.witness,
                                       expect_gain=label.startswith("fixture"),
                                       no_gain=label == "toy"))
        return jobs


def check_job(label, doc, path, bad):
    def verify(rc, stdout, stderr):
        if bad < 0:
            errors = checks.check_check_pass(doc, rc, stdout)
        else:
            errors = checks.check_check_fail(doc, bad, rc, stdout)
        return Verdict(errors, bad < 0 and not errors)

    return Job(label, ["check", path], verify)


def synthesize_job(label, doc, path, out, search_seed, witness, expect_gain, no_gain):
    """synthesize; a returned gain must pass (i)-(iv) re-derived from the input model.

    ``expect_gain``: the zero gain passes, so exit 1 is wrong.  ``no_gain``:
    exit 1 is the only right answer.  Otherwise exit 1 (search budget spent)
    is a valid but unsolved outcome, since the search is heuristic.
    """

    def verify(rc, stdout, stderr):
        if no_gain:
            return Verdict(checks.check_no_gain(doc, rc, stderr), False)
        if rc == 1 and not expect_gain:
            return Verdict([] if "synthesis failed" in stderr else ["exit 1 without message"],
                           False)
        if rc != 0:
            return Verdict([f"exit code {rc}, expected 0"], False)
        obs = json.loads(_read(out))["observer"]
        failed = checks.check_conditions(doc, obs["L"], obs["omega0_lower"],
                                         obs["omega0_upper"], witness(out))
        errors = [f"({k}) {v}" for k, v in failed.items()]
        return Verdict(errors, not errors)

    argv = ["synthesize", path, "--out", out, "--seed", str(search_seed), "--budget", "200"]
    return Job(label, argv, verify)


def ladder_jobs(seed, workdir, kinds, *tags):
    jobs = []
    for c, (domain, m, nsub, verdict, count) in enumerate(kinds):
        for k in range(count):
            doc, bad, _ = ladder_instance(_rng(seed, *tags, c, k), domain, m, nsub, verdict)
            label = f"ladder/{domain}/m{m}/N{nsub}/{verdict}"
            path = _dump(os.path.join(workdir, f"ladder_{c}_{k}.json"), doc)
            jobs.append(check_job(label, doc, path, bad))
    return jobs


def defect_jobs(seed: int, workdir: str, witness) -> list:
    """Jobs that reach the known simplex defects at the seed commit (see README).

    Ladder PASS instances whose LP has to pivot, and the gain-search recipe
    whose candidates reach LPs with right-hand sides near 1e-6.
    """
    jobs = ladder_jobs(seed, workdir, DEFECT_KINDS, 5)
    for n in (6, 8, 12):
        doc = hard_search_recipe(_rng(seed, 6, n), n)
        path = _dump(os.path.join(workdir, f"defect_recipe_{n}.json"), doc)
        jobs.append(synthesize_job(f"design/recipe-n{n}", doc, path,
                                   os.path.join(workdir, "defect_out.json"), seed, witness,
                                   expect_gain=False, no_gain=False))
    return jobs
