"""Switching signals, co-simulation, bracket verification, CSV export."""

import dataclasses
import io
import math
import re
import warnings

import numpy as np
import pytest

from swposobs import sim, synth

from conftest import random_passing_scenario, tight_omega


def _rk4_step(mat, z, h):
    """Staged classical RK4 step: the reference for the cached propagators."""
    k1 = mat @ z
    k2 = mat @ (z + 0.5 * h * k1)
    k3 = mat @ (z + 0.5 * h * k2)
    k4 = mat @ (z + h * k3)
    return z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _reference_rk4_rows(mats, sigma, h, z0):
    """Per-sample stepping with a dict of propagators cached per (subsystem id,
    h) pair: the reference for the propagator table and its blocked stepping."""
    eye = np.eye(mats[0].shape[0])
    cache = {}
    props = []
    for idx, step in zip(sigma.tolist(), h.tolist()):
        if (idx, step) not in cache:
            x = step * mats[idx - 1]
            poly = eye + x / 4.0
            for j in (3.0, 2.0, 1.0):
                poly = eye + (x / j) @ poly
            cache[idx, step] = poly
        props.append(cache[idx, step])
    return _reference_rows(props, z0)


def _reference_rows(props, z0):
    """``z[k+1] = props[k] @ z[k]`` with one ``np.matmul`` per sample."""
    rows = np.empty((len(props) + 1, z0.size))
    rows[0] = z0
    with np.errstate(over="ignore", invalid="ignore"):
        for k, prop in enumerate(props):
            np.matmul(prop, rows[k], out=rows[k + 1])
    return rows


def _trace_rows(trace):
    """The coupled state rows (x, omega_l, omega_u) of a trace."""
    return np.hstack([trace.x, trace.omega_lower, trace.omega_upper])


def _random_family(rng, domain, nsub):
    """A random model with ``nsub`` subsystems, a realization and an observer
    at a random nonnegative gain; no condition is checked."""
    n = int(rng.integers(2, 6))
    p = int(rng.integers(1, n))
    if domain == synth.CONTINUOUS:
        a = rng.uniform(0.0, 2.0, (nsub, n, n))
        a[:, np.arange(n), np.arange(n)] = rng.uniform(-3.0 * n, -n, (nsub, n))
    else:
        a = rng.uniform(0.0, 1.0 / n, (nsub, n, n))
    width = 0.1 * np.abs(a)
    x0 = rng.uniform(0.0, 1.0, n)
    system = synth.IntervalSystem(domain=domain, p=p, a_lower=tuple(a - width),
                                  a_upper=tuple(a + width), x0_lower=x0, x0_upper=x0 + 1.0)
    obs = synth.build_observer(system, rng.uniform(0.0, 0.1, (n - p, p)),
                               np.zeros(n - p), np.ones(n - p))
    truth = sim.TrueSystem(a=tuple(a), x0=x0 + 0.5)
    return system, obs, truth


def _row_by_row_csv(trace, fileobj):
    """Per-row f-string CSV writer: the byte-level reference for export_csv."""
    n = trace.n
    header = (["t"] + [f"x{j + 1}" for j in range(n)] + [f"xhatl{j + 1}" for j in range(n)]
              + [f"xhatu{j + 1}" for j in range(n)] + [f"xi{j + 1}" for j in range(n)]
              + ["sigma"])
    fileobj.write(",".join(header) + "\n")
    for i in range(trace.times.size):
        values = np.concatenate([[trace.times[i]], trace.x[i], trace.xhat_lower[i],
                                 trace.xhat_upper[i], trace.xi[i]])
        cells = [f"{v:.12e}" for v in values] + [str(int(trace.sigma[i]))]
        fileobj.write(",".join(cells) + "\n")


def _exported(trace):
    """``export_csv``'s bytes for ``trace``, decoded (which fails on a non-ASCII
    byte), and ``_row_by_row_csv``'s text."""
    got, want = io.BytesIO(), io.StringIO()
    sim.export_csv(trace, got)
    _row_by_row_csv(trace, want)
    return got.getvalue().decode("ascii"), want.getvalue()


def _chunk_rows(trace):
    """Rows in an ``export_csv`` chunk of ``trace``: its cell budget over the
    cells of a row, at least one."""
    return max(1, sim._CSV_CHUNK_CELLS // (1 + 4 * trace.n))


def _counting_spell_cells(monkeypatch):
    """Patch ``sim._spell_cells`` (the slot path) to record the shape of each chunk
    it spells; returns that list."""
    slot_calls = []
    spell_cells = sim._spell_cells

    def counting_spell_cells(values, out):
        slot_calls.append(values.shape)
        return spell_cells(values, out)

    monkeypatch.setattr(sim, "_spell_cells", counting_spell_cells)
    return slot_calls


def _counting_spell_plain_rows(monkeypatch):
    """Patch ``sim._spell_plain_rows`` (the fixed-offset path) to record the shape
    of each block of rows it spells; returns that list."""
    plain_calls = []
    spell_plain_rows = sim._spell_plain_rows

    def counting_spell_plain_rows(values, ids, buf):
        plain_calls.append(values.shape)
        return spell_plain_rows(values, ids, buf)

    monkeypatch.setattr(sim, "_spell_plain_rows", counting_spell_plain_rows)
    return plain_calls


def _assert_same_lines(got, want):
    """``got == want``, failing on the first differing line: a diff of the
    whole text would take pytest minutes."""
    got_lines, want_lines = got.splitlines(keepends=True), want.splitlines(keepends=True)
    for k, (g, w) in enumerate(zip(got_lines, want_lines)):
        assert g == w, f"line {k}"
    assert len(got_lines) == len(want_lines)


@pytest.fixture(scope="module")
def trace_42_600(problem_42):
    sw = problem_42.switching
    sig = sim.make_switching_signal(3, 600, sw["min_dwell"], sw["seed"],
                                    domain=synth.DISCRETE)
    return sim.simulate_discrete(problem_42.system, problem_42.truth,
                                 problem_42.build_observer(), sig, 600)


@pytest.fixture(scope="module")
def trace_41_special_cells(trace_41):
    """Fixture 4.1 with non-finite, signed-zero, subnormal and huge cells."""
    x, xi = trace_41.x.copy(), trace_41.xi.copy()
    x[3, :] = [np.nan, np.inf, -np.inf, -0.0, 5e-324]
    x[700, 0], x[700, 4] = 1e300, -1e300
    xi[2006, :] = [-np.nan, 0.0, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    return dataclasses.replace(trace_41, x=x, xi=xi)


@pytest.fixture(scope="module")
def trace_12_subsystems(trace_42_600):
    """Fixture 4.2 relabelled as if switching among 12 subsystems."""
    sigma = np.arange(trace_42_600.times.size) % 12 + 1
    return dataclasses.replace(trace_42_600, sigma=sigma)


def _exact_model_trace(problem):
    """The observer pair of the exact model ``[truth.a, truth.a]``, simulated on
    the problem's own signal and grid, as ``trace_41`` and ``trace_42`` are."""
    system, truth, sw = problem.system, problem.truth, problem.switching
    obs = problem.build_observer()
    exact_model = synth.IntervalSystem(system.domain, system.p, truth.a, truth.a,
                                       system.x0_lower, system.x0_upper)
    exact = synth.build_observer(exact_model, obs.gain_l, obs.omega0_lower, obs.omega0_upper)
    if system.domain == synth.CONTINUOUS:
        sig = sim.make_switching_signal(system.nsub, sw["horizon"], sw["min_dwell"], sw["seed"])
        return sim.simulate_continuous(system, truth, exact, sig,
                                       step=problem.sim_settings["step"], horizon=sw["horizon"])
    sig = sim.make_switching_signal(system.nsub, sw["steps"], sw["min_dwell"], sw["seed"],
                                    domain=synth.DISCRETE)
    return sim.simulate_discrete(system, truth, exact, sig, sw["steps"])


@pytest.fixture(scope="module")
def exact_41(problem_41):
    return _exact_model_trace(problem_41)


@pytest.fixture(scope="module")
def exact_42(problem_42):
    return _exact_model_trace(problem_42)


def _assert_order_chain(interval, exact, tol):
    """The exact-model pair lies between the interval pair on the same grid."""
    assert np.array_equal(interval.times, exact.times)
    assert np.array_equal(interval.x, exact.x)
    assert np.all(interval.omega_lower <= exact.omega_lower + tol)
    assert np.all(exact.omega_lower <= exact.omega_upper + tol)
    assert np.all(exact.omega_upper <= interval.omega_upper + tol)


def _assert_proof_errors_nonnegative(problem, exact, tol):
    """The one-sided errors ``F x - omega`` the bracket rests on stay >= 0."""
    fx = exact.x @ problem.build_observer().f.T
    assert (fx - exact.omega_lower).min() >= -tol
    assert (exact.omega_upper - fx).min() >= -tol


def _uniform_dwell_signal(n_subsystems, horizon, min_dwell, seed, domain):
    """Times and ids of the earlier ``make_switching_signal`` loop, verbatim: the
    reference for the stream of its draws."""
    rng = np.random.default_rng(seed)
    first = int(rng.integers(1, n_subsystems + 1))
    times = [0.0]
    indices = [first]
    if n_subsystems > 1 and 0 < min_dwell < horizon:
        t = 0.0
        while True:
            dwell = rng.uniform(min_dwell, 2.0 * min_dwell)
            if domain == synth.DISCRETE:
                dwell = float(max(math.ceil(min_dwell), round(dwell)))
            t += dwell
            if t >= horizon:
                break
            others = [j for j in range(1, n_subsystems + 1) if j != indices[-1]]
            times.append(t)
            indices.append(others[int(rng.integers(len(others)))])
    return np.array(times), np.array(indices)


def _generator_signal(n_subsystems, horizon, min_dwell, seed, domain):
    """Times and ids of the ``make_switching_signal`` loop that called the
    ``Generator`` for each draw, verbatim: the reference for its raw-word draws."""
    rng = np.random.default_rng(seed)
    last = int(rng.integers(1, n_subsystems + 1))
    times = [0.0]
    indices = [last]
    if n_subsystems > 1 and 0 < min_dwell < horizon:
        t = 0.0
        while True:
            dwell = min_dwell + min_dwell * rng.random()
            if domain == synth.DISCRETE and dwell < math.inf:
                dwell = float(max(math.ceil(min_dwell), round(dwell)))
            t += dwell
            if t >= horizon:
                break
            k = int(rng.integers(n_subsystems - 1)) + 1
            last = k + (k >= last)
            times.append(t)
            indices.append(last)
    return np.array(times), np.array(indices)


class TestSwitchingSignal:
    def test_single_subsystem_constant(self):
        sig = sim.make_switching_signal(1, 10.0, 0.5, seed=0)
        assert sig.times.tolist() == [0.0]
        assert sig.indices.tolist() == [1]

    def test_deterministic(self):
        a = sim.make_switching_signal(3, 10.0, 0.5, seed=42)
        b = sim.make_switching_signal(3, 10.0, 0.5, seed=42)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.indices, b.indices)

    def test_validity(self):
        sig = sim.make_switching_signal(3, 10.0, 0.5, seed=7)
        assert sig.times[0] == 0.0
        assert np.all(np.diff(sig.times) >= 0.5)
        assert np.all(np.diff(sig.times) <= 1.0 + 1e-12)
        assert sig.times[-1] < 10.0
        assert np.all((sig.indices >= 1) & (sig.indices <= 3))
        assert np.all(np.diff(sig.indices) != 0)

    def test_degenerate_dwell_yields_single_interval(self):
        assert sim.make_switching_signal(3, 1.0, 2.0, seed=0).times.size == 1
        assert sim.make_switching_signal(3, 1.0, 0.0, seed=0).times.size == 1

    def test_discrete_whole_step_dwells(self):
        sig = sim.make_switching_signal(3, 60, 5, seed=7, domain=synth.DISCRETE)
        assert np.all(sig.times == np.round(sig.times))
        assert np.all(np.diff(sig.times) >= 1.0)

    @pytest.mark.parametrize("min_dwell", [0.3, 1.4, 5.4, 5])
    def test_discrete_dwells_keep_min_dwell(self, min_dwell):
        """Every discrete dwell is at least ``ceil(min_dwell)`` steps, so the signal
        builds; an integer ``min_dwell`` gives the times of plain rounding."""
        for seed in range(50):
            sig = sim.make_switching_signal(3, 200, min_dwell, seed, domain=synth.DISCRETE)
            assert np.all(np.diff(sig.times) >= math.ceil(min_dwell))
            if min_dwell == 5:  # the old rounding, with the same draws: first id, then dwell and id
                rng = np.random.default_rng(seed)
                rng.integers(1, 4)
                times = [0.0]
                while (t := times[-1] + max(1.0, float(round(rng.uniform(5, 10))))) < 200:
                    times.append(t)
                    rng.integers(2)
                assert sig.times.tolist() == times

    @pytest.mark.parametrize("domain", [synth.CONTINUOUS, synth.DISCRETE])
    @pytest.mark.parametrize("nsub", [1, 2, 3, 5])
    def test_same_stream_as_uniform_dwell_and_id_list(self, domain, nsub):
        """The dwell ``m + m * random()`` and the arithmetic choice of the next id give
        the times and ids of ``uniform(m, 2 m)`` and a list of the other ids."""
        horizon = 12.0 if domain == synth.CONTINUOUS else 60
        for seed in range(60):
            for min_dwell in (0.03, 0.2, 1.4, 5):
                sig = sim.make_switching_signal(nsub, horizon, min_dwell, seed, domain=domain)
                times, indices = _uniform_dwell_signal(nsub, horizon, min_dwell, seed, domain)
                assert sig.times.tobytes() == times.tobytes(), (seed, min_dwell)
                assert np.array_equal(sig.indices, indices), (seed, min_dwell)

    # 2**31 + 5 rejects about half of its 32-bit draws; 2**32 takes a whole 32-bit
    # half; 2**32 + 5 and 2**62 draw on whole words, and 3 * 2**61 + 2 rejects
    # about a quarter of them.
    @pytest.mark.parametrize("domain, horizon", [(synth.CONTINUOUS, 2.0), (synth.DISCRETE, 60)])
    def test_raw_words_give_the_generator_stream(self, domain, horizon):
        """The draws read off raw words are the values ``rng.integers`` and
        ``rng.random`` return; a numpy whose stream changed would fail here."""
        for nsub in (1, 2, 3, 4, 7, 1000, 2**31 + 5, 2**32, 2**32 + 5, 2**62, 3 * 2**61 + 2):
            for min_dwell in (0.03, 0.2, 1.4, 2.4, 5):
                for seed in range(200):
                    sig = sim.make_switching_signal(nsub, horizon, min_dwell, seed, domain=domain)
                    times, indices = _generator_signal(nsub, horizon, min_dwell, seed, domain)
                    assert sig.times.tobytes() == times.tobytes(), (nsub, min_dwell, seed)
                    assert sig.indices.tolist() == indices.tolist(), (nsub, min_dwell, seed)

    @pytest.mark.parametrize("nsub", [3, 2**31 + 5, 2**62])
    def test_raw_words_past_one_block(self, nsub):
        """Over 6,000 switches use more raw words than one block of at most 4,098
        holds, so further blocks are drawn."""
        for seed in range(3):
            sig = sim.make_switching_signal(nsub, 300.0, 0.03, seed)
            times, indices = _generator_signal(nsub, 300.0, 0.03, seed, synth.CONTINUOUS)
            assert sig.times.size > 6000
            assert sig.times.tobytes() == times.tobytes()
            assert sig.indices.tolist() == indices.tolist()

    @pytest.mark.parametrize("seed", [1, 2, 3, 5, 7, 8])
    def test_infinite_discrete_dwell_ends_the_signal(self, seed):
        """``min_dwell + min_dwell * random()`` overflows to inf for these seeds; that
        dwell ends the signal rather than failing to round to whole steps."""
        sig = sim.make_switching_signal(3, 1.5e308, 1e308, seed, domain=synth.DISCRETE)
        assert sig.times[0] == 0.0
        assert np.all(sig.times < 1.5e308)
        assert np.all(np.diff(sig.indices) != 0)

    def test_unknown_domain_rejected(self):
        with pytest.raises(ValueError, match="domain must be 'continuous' or 'discrete', "
                                             "got 'discrte'"):
            sim.make_switching_signal(3, 10, 3, seed=0, domain="discrte")

    def test_indices_at_is_right_continuous(self):
        sig = sim.SwitchingSignal(times=[0.0, 1.0], indices=[1, 2], n_subsystems=2)
        assert sig.indices_at([0.0, 0.999, 1.0, 5.0]).tolist() == [1, 1, 2, 2]
        assert sig.indices_at(0.999) == 1

    # An infinite horizon is rejected by the same check; it is not run here
    # because without that check the dwell loop never ends.
    @pytest.mark.parametrize("horizon, min_dwell", [(np.nan, 0.2), (2.0, np.nan), (2.0, np.inf)])
    def test_non_finite_settings_rejected(self, horizon, min_dwell):
        with pytest.raises(ValueError, match="must be finite"):
            sim.make_switching_signal(3, horizon, min_dwell, seed=0)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            sim.SwitchingSignal(times=[0.5, 1.0], indices=[1, 2], n_subsystems=2)
        with pytest.raises(ValueError):
            sim.SwitchingSignal(times=[0.0, 0.0], indices=[1, 2], n_subsystems=2)
        with pytest.raises(ValueError):
            sim.SwitchingSignal(times=[0.0, 1.0], indices=[1, 3], n_subsystems=2)
        with pytest.raises(ValueError):
            sim.SwitchingSignal(times=[0.0, 1.0], indices=[1, 2], n_subsystems=2,
                                min_dwell=2.0)
        # a nan switch would pass the gap test and vanish from indices_at
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="^switch times must be finite$"):
                sim.SwitchingSignal(times=[0.0, bad], indices=[1, 2], n_subsystems=2,
                                    min_dwell=0.5)
        for bad in (np.nan, np.inf, -0.5):
            with pytest.raises(ValueError, match="^min_dwell must be finite and >= 0$"):
                sim.SwitchingSignal(times=[0.0, 1.0], indices=[1, 2], n_subsystems=2,
                                    min_dwell=bad)


class TestTruthValidation:
    def test_fixture_truths_admissible(self, problem_41, problem_42):
        sim.validate_truth(problem_41.system, problem_41.truth)
        sim.validate_truth(problem_42.system, problem_42.truth)

    def test_out_of_interval_entry_named(self, problem_41):
        mats = [m.copy() for m in problem_41.truth.a]
        mats[1][0, 0] = 100.0
        bad = sim.TrueSystem(a=tuple(mats), x0=problem_41.truth.x0)
        with pytest.raises(ValueError, match=r"A\[1\] entry \(0, 0\)"):
            sim.validate_truth(problem_41.system, bad)

    def test_non_finite_truth_rejected(self, problem_41):
        mats = [m.copy() for m in problem_41.truth.a]
        mats[2][1, 3] = -np.inf
        with pytest.raises(ValueError, match=r"^A\[2\] has a non-finite entry at \(1, 3\)$"):
            sim.TrueSystem(a=tuple(mats), x0=problem_41.truth.x0)
        with pytest.raises(ValueError, match=r"^x0 has a non-finite entry at 0$"):
            sim.TrueSystem(a=problem_41.truth.a, x0=[np.nan] * 5)

    def test_out_of_box_start_named(self, problem_41):
        bad = sim.TrueSystem(a=problem_41.truth.a, x0=np.zeros(5))
        with pytest.raises(ValueError, match="x0"):
            sim.validate_truth(problem_41.system, bad)

    def test_sample_truth_admissible_and_deterministic(self, problem_41):
        t1 = sim.sample_truth(problem_41.system, seed=5)
        t2 = sim.sample_truth(problem_41.system, seed=5)
        sim.validate_truth(problem_41.system, t1)
        assert all(np.array_equal(a, b) for a, b in zip(t1.a, t2.a))
        assert np.array_equal(t1.x0, t2.x0)


class TestContinuousSimulation:
    @pytest.mark.parametrize("step, horizon", [(np.inf, 2.0), (np.nan, 2.0), (0.0, 2.0),
                                               (1e-3, np.inf), (1e-3, np.nan)])
    def test_non_finite_step_or_horizon_rejected(self, problem_41, step, horizon):
        sig = sim.make_switching_signal(3, 2.0, 0.2, seed=0)
        with pytest.raises(ValueError, match="must be finite and > 0"):
            sim.simulate_continuous(problem_41.system, problem_41.truth,
                                    problem_41.build_observer(), sig, step=step, horizon=horizon)

    def test_bracket_holds_fixture_41(self, trace_41):
        report = sim.verify_bracket(trace_41, 1e-6)
        assert report.total_violations == 0
        assert report.ok
        assert report.outputs_exact
        assert np.isfinite(report.sup_xi_norm)
        assert report.xi_norm_end < report.xi_norm_start

    def test_grid_contains_switch_times(self, trace_41, problem_41):
        sw = problem_41.switching
        sig = sim.make_switching_signal(3, sw["horizon"], sw["min_dwell"], sw["seed"])
        for t in sig.times:
            assert np.any(trace_41.times == t)

    def test_grid_ends_once_at_the_horizon(self, problem_41):
        """``n * step`` can round an ulp past (or short of) the horizon, as 3 * 0.1 and
        700 * 1e-3 do; that grid point goes, so the trace ends on one horizon row.  The
        first grid point, t = 0, stays however short the horizon."""
        obs = problem_41.build_observer()
        for step in (1e-3, 1e-2, 0.05, 0.1):
            for k in range(1, 51):
                horizon = k / 10
                sig = sim.make_switching_signal(3, horizon, 0.2, seed=k)
                trace = sim.simulate_continuous(problem_41.system, problem_41.truth, obs, sig,
                                                step=step, horizon=horizon)
                times = trace.times
                assert times[-1] == horizon
                assert np.all(np.diff(times) > 1e-9 * step)
                if (step, k) in ((1e-3, 7), (0.1, 3)):
                    buf = io.BytesIO()
                    sim.export_csv(trace, buf)
                    last_two = [row.split(b",")[0] for row in buf.getvalue().splitlines()[-2:]]
                    assert last_two[0] != last_two[1]
        # a horizon at or below 1e-9 steps still starts at t = 0
        sig = sim.make_switching_signal(3, 1.0, 0.2, seed=0)
        for horizon in (1e-13, 1e-9 * 1e-3):
            trace = sim.simulate_continuous(problem_41.system, problem_41.truth, obs, sig,
                                            step=1e-3, horizon=horizon)
            assert trace.times.tolist() == [0.0, horizon]

    def test_order_chain(self, trace_41, exact_41):
        _assert_order_chain(trace_41, exact_41, 1e-9)

    def test_proof_errors_stay_nonnegative(self, problem_41, exact_41):
        # the minima on fixture 4.1 are 8.5e-16 and 5.9e-16
        _assert_proof_errors_nonnegative(problem_41, exact_41, 1e-9)

    def test_agrees_with_half_step_rerun(self, problem_41, trace_41):
        sw = problem_41.switching
        sig = sim.make_switching_signal(3, sw["horizon"], sw["min_dwell"], sw["seed"])
        half = sim.simulate_continuous(
            problem_41.system, problem_41.truth, problem_41.build_observer(), sig,
            step=problem_41.sim_settings["step"] / 2.0, horizon=sw["horizon"],
        )
        idx = np.searchsorted(half.times, trace_41.times)
        assert np.array_equal(half.times[idx], trace_41.times)
        assert np.abs(half.x[idx] - trace_41.x).max() < 1e-7
        assert np.abs(half.omega_lower[idx] - trace_41.omega_lower).max() < 1e-7

    def test_zero_width_intervals_collapse_estimates(self, problem_41):
        truth = problem_41.truth
        system = synth.IntervalSystem(
            domain=synth.CONTINUOUS, p=2, a_lower=truth.a, a_upper=truth.a,
            x0_lower=truth.x0, x0_upper=truth.x0,
        )
        gain = problem_41.observer_gain
        fx0 = truth.x0[2:] - gain @ truth.x0[:2]
        obs = synth.build_observer(system, gain, fx0, fx0)
        sig = sim.make_switching_signal(3, 1.0, 0.2, seed=3)
        trace = sim.simulate_continuous(system, truth, obs, sig, step=1e-3, horizon=1.0)
        assert np.abs(trace.xhat_lower - trace.xhat_upper).max() < 1e-9
        assert np.abs(trace.xhat_lower - trace.x).max() < 1e-9

    # The coupled matrices' observer rows are build_observer's blocks, bit for
    # bit, for every subsystem.  The (6, 5) draws are ones where numpy's matmul
    # rounds strided slices of a plant matrix differently from contiguous blocks
    # (subsystems 1 and 3 of the N = 3 draw).
    @pytest.mark.parametrize("n, p, nsub, seed", [(5, 2, 1, 0), (6, 5, 1, 5), (6, 5, 3, 17)])
    def test_true_observer_rows_match_build_observer(self, n, p, nsub, seed):
        from swposobs.sim import _coupled_matrices

        rng = np.random.default_rng(seed)
        a = rng.uniform(0.0, 1.0, (nsub, n, n))
        a[:, np.arange(n), np.arange(n)] = -float(n)
        x0 = rng.uniform(0.0, 1.0, n)
        system = synth.IntervalSystem(domain=synth.CONTINUOUS, p=p, a_lower=tuple(a),
                                      a_upper=tuple(a), x0_lower=x0, x0_upper=x0)
        m = n - p
        obs = synth.build_observer(system, rng.uniform(0.0, 1.0, (m, p)), np.zeros(m), np.ones(m))
        big = _coupled_matrices(a, obs)
        assert big.shape == (nsub, n + 2 * m, n + 2 * m)
        for i in range(nsub):
            assert np.array_equal(big[i, :n, :n], a[i])
            for k, (ahat, g) in enumerate([(obs.ahat_lower, obs.g_lower),
                                           (obs.ahat_upper, obs.g_upper)]):
                rows = slice(n + k * m, n + (k + 1) * m)
                assert np.array_equal(big[i, rows, rows], ahat[i])
                assert np.array_equal(big[i, rows, :p], g[i])

    def test_estimate_continuity_scales_with_step(self, problem_41):
        sw = problem_41.switching
        sig = sim.make_switching_signal(3, sw["horizon"], sw["min_dwell"], sw["seed"])
        obs = problem_41.build_observer()

        def max_switch_jump(step):
            trace = sim.simulate_continuous(problem_41.system, problem_41.truth, obs,
                                            sig, step=step, horizon=sw["horizon"])
            jumps = []
            for t in sig.times[1:]:
                j = int(np.flatnonzero(trace.times == t)[0])
                jumps.append(np.abs(trace.xhat_lower[j] - trace.xhat_lower[j - 1]).max())
                jumps.append(np.abs(trace.xhat_upper[j] - trace.xhat_upper[j - 1]).max())
            return max(jumps)

        coarse = max_switch_jump(2e-3)
        fine = max_switch_jump(1e-3)
        assert fine <= 0.75 * coarse + 1e-9

    def test_divergent_truth_reported_with_time(self):
        a = np.full((2, 2), 500.0)
        system = synth.IntervalSystem(
            domain=synth.CONTINUOUS, p=1, a_lower=(a,), a_upper=(a,),
            x0_lower=[1.0, 1.0], x0_upper=[1.0, 1.0],
        )
        obs = synth.build_observer(system, np.zeros((1, 1)), [0.0], [2.0])
        truth = sim.TrueSystem(a=(a,), x0=[1.0, 1.0])
        sig = sim.make_switching_signal(1, 2.0, 0.5, seed=0)
        with pytest.raises(FloatingPointError, match="t ="):
            sim.simulate_continuous(system, truth, obs, sig, step=1e-3, horizon=2.0)

    def test_divergence_names_first_non_finite_sample(self):
        # With h A = 3.5e24 everywhere, each RK4 step multiplies the state by
        # about 1e98: sample 3 (~1e294) is finite and sample 4 overflows.
        a = np.full((2, 2), 3.5e27)
        system = synth.IntervalSystem(
            domain=synth.CONTINUOUS, p=1, a_lower=(a,), a_upper=(a,),
            x0_lower=[1.0, 1.0], x0_upper=[1.0, 1.0],
        )
        obs = synth.build_observer(system, np.zeros((1, 1)), [0.0], [2.0])
        truth = sim.TrueSystem(a=(a,), x0=[1.0, 1.0])
        sig = sim.make_switching_signal(1, 0.01, 0.005, seed=0)
        with pytest.raises(FloatingPointError, match=r"non-finite state at t = 0\.004$"):
            sim.simulate_continuous(system, truth, obs, sig, step=1e-3, horizon=0.01)

    def test_step_validation(self, problem_41):
        sig = sim.make_switching_signal(3, 1.0, 0.2, seed=0)
        with pytest.raises(ValueError):
            sim.simulate_continuous(problem_41.system, problem_41.truth,
                                    problem_41.build_observer(), sig, step=0.0, horizon=1.0)

    def test_matches_adaptive_reference_integrator(self, problem_41, trace_41):
        integrate = pytest.importorskip("scipy.integrate")
        from swposobs.sim import _coupled_matrices

        system = problem_41.system
        obs = problem_41.build_observer()
        truth = problem_41.truth
        mats = _coupled_matrices(np.array(truth.a), obs)
        z = np.concatenate([truth.x0, obs.omega0_lower, obs.omega0_upper])
        sw = problem_41.switching
        sig = sim.make_switching_signal(3, sw["horizon"], sw["min_dwell"], sw["seed"])
        bounds = np.concatenate([sig.times, [sw["horizon"]]])
        ref_rows = {0.0: z.copy()}
        for k in range(sig.times.size):
            t0, t1 = bounds[k], bounds[k + 1]
            mat = mats[sig.indices[k] - 1]
            wanted = trace_41.times[(trace_41.times > t0) & (trace_41.times <= t1)]
            sol = integrate.solve_ivp(lambda _, y: mat @ y, (t0, t1), z,
                                      t_eval=wanted, rtol=1e-12, atol=1e-12,
                                      method="DOP853")
            assert sol.success
            for t, col in zip(sol.t, sol.y.T):
                ref_rows[float(t)] = col
            z = sol.y[:, -1]
        n, m = system.n, obs.order
        worst = 0.0
        for j, t in enumerate(trace_41.times):
            ref = ref_rows[float(t)]
            worst = max(worst, np.abs(trace_41.x[j] - ref[:n]).max(),
                        np.abs(trace_41.omega_lower[j] - ref[n:n + m]).max(),
                        np.abs(trace_41.omega_upper[j] - ref[n + m:n + 2 * m]).max())
        assert worst < 1e-7, worst

    @pytest.mark.parametrize("step", [1e-3, 7e-4])
    def test_matches_staged_rk4(self, problem_41, step):
        from swposobs.sim import _coupled_matrices

        system, truth, obs = problem_41.system, problem_41.truth, problem_41.build_observer()
        sw = problem_41.switching
        sig = sim.make_switching_signal(3, sw["horizon"], sw["min_dwell"], sw["seed"])
        trace = sim.simulate_continuous(system, truth, obs, sig, step=step,
                                        horizon=sw["horizon"])
        # The steps taken: whole cells step with `step` itself, and the pieces a
        # switch splits off keep their lengths, some under half a step.
        times, h = sim._grid(sig, step, sw["horizon"])
        assert np.array_equal(times, trace.times)
        assert h.min() < 0.5 * step
        mats = _coupled_matrices(np.array(truth.a), obs)
        sigma = trace.sigma[:-1]
        table, which = sim._rk4_propagators(mats, sigma, h)
        # The (sigma, h) pairs are exactly the table: one matrix per distinct pair,
        # shared by every sample of that pair and by no other.
        pairs, pair_of = np.unique(np.stack([sigma, h], axis=1), axis=0, return_inverse=True)
        links = np.unique(np.stack([pair_of.ravel(), which], axis=1), axis=0)
        assert len(links) == len(pairs) == len(table) == which.max() + 1

        z = np.concatenate([truth.x0, obs.omega0_lower, obs.omega0_upper])
        ref = [z]
        for j in range(times.size - 1):
            z = _rk4_step(mats[sigma[j] - 1], z, h[j])
            ref.append(z)
        ref = np.array(ref)
        got = _trace_rows(trace)
        assert trace.sigma.tolist() == sig.indices_at(trace.times).tolist()
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def test_convergence_order_quick(self, problem_41):
        sig = sim.make_switching_signal(3, 0.5, 0.2, seed=11)
        obs = problem_41.build_observer()

        def run(step):
            return sim.simulate_continuous(problem_41.system, problem_41.truth, obs,
                                           sig, step=step, horizon=0.5)

        traces = [run(h) for h in (2e-3, 1e-3, 5e-4)]

        def diff(a, b):
            idx = np.searchsorted(b.times, a.times)
            assert np.array_equal(b.times[idx], a.times)
            return max(np.abs(b.x[idx] - a.x).max(),
                       np.abs(b.omega_lower[idx] - a.omega_lower).max(),
                       np.abs(b.omega_upper[idx] - a.omega_upper).max())

        d1 = diff(traces[0], traces[1])
        d2 = diff(traces[1], traces[2])
        assert np.log2(d1 / d2) >= 3.5


def _assert_near_per_sample(rows, want):
    """Each column of ``rows`` is within ``B d u`` of its largest entry in ``want``
    (``B = sim._POWERS`` samples a block, ``d`` states, ``u`` the unit roundoff)."""
    bound = sim._POWERS * want.shape[1] * 2.0**-53 * np.abs(want).max(axis=0)
    assert np.all(np.abs(rows - want) <= bound)


class TestBlockedStepping:
    """The propagator table stepped in blocks of its powers stays within ``B d u``
    of each column's largest |z| from dict-cached propagators applied with one
    ``np.matmul`` per sample, on the same table."""

    @staticmethod
    def _assert_continuous(system, truth, obs, sig, step, horizon):
        trace = sim.simulate_continuous(system, truth, obs, sig, step=step, horizon=horizon)
        mats, z0 = sim._setup(system, truth, obs, sig)
        times, h = sim._grid(sig, step, horizon)
        assert np.array_equal(trace.times, times)
        sigma = trace.sigma[:-1]
        table, which = sim._rk4_propagators(mats, sigma, h)
        # one matrix per distinct (subsystem, integration step)
        assert len(table) == len(set(zip(sigma.tolist(), h.tolist())))
        rows = sim._propagate(table, which, z0, str)
        assert _trace_rows(trace).tobytes() == rows.tobytes()
        _assert_near_per_sample(rows, _reference_rk4_rows(list(mats), sigma, h, z0))
        return trace

    @staticmethod
    def _assert_discrete(system, truth, obs, sig, steps):
        trace = sim.simulate_discrete(system, truth, obs, sig, steps)
        mats, z0 = sim._setup(system, truth, obs, sig)
        want = _reference_rows([mats[i - 1] for i in trace.sigma[:-1].tolist()], z0)
        _assert_near_per_sample(_trace_rows(trace), want)
        return trace, want

    @pytest.mark.parametrize("step, horizon", [(1e-3, 1.9995), (7e-4, 2.0), (0.013, 2.0),
                                               (0.05, 1.99)])
    def test_fixture_41(self, problem_41, step, horizon):
        sw = problem_41.switching
        sig = sim.make_switching_signal(3, horizon, sw["min_dwell"], sw["seed"])
        trace = self._assert_continuous(problem_41.system, problem_41.truth,
                                        problem_41.build_observer(), sig, step, horizon)
        assert np.diff(trace.times)[-1] < 0.99 * step

    def test_fixture_41_own_settings(self, problem_41, monkeypatch):
        """Fixture 4.1's 2,006 steps take 16 matrices: the whole-cell step of each
        of its 3 subsystems, the 12 pieces at its 6 switches and the last step.
        Its 20 runs of one matrix step in at most 100 products."""
        sw, step = problem_41.switching, problem_41.sim_settings["step"]
        sig = sim.make_switching_signal(3, sw["horizon"], sw["min_dwell"], sw["seed"])
        mats, z0 = sim._setup(problem_41.system, problem_41.truth,
                              problem_41.build_observer(), sig)
        times, h = sim._grid(sig, step, sw["horizon"])
        table, which = sim._rk4_propagators(mats, sig.indices_at(times)[:-1], h)
        assert (len(table), which.size, sig.times.size) == (16, 2006, 7)
        assert np.count_nonzero(h == step) == 2006 - 13
        calls = []

        def counting(product):
            def wrapper(*args, **kwargs):
                calls.append(product.__name__)
                return product(*args, **kwargs)
            return wrapper

        for name in ("dot", "matmul"):
            monkeypatch.setattr(np, name, counting(getattr(np, name)))
        sim._propagate(table, which, z0, str)
        assert 0 < len(calls) <= 100

    @pytest.mark.parametrize("steps", [None, 600])
    def test_fixture_42(self, problem_42, steps):
        sw = problem_42.switching
        steps = steps or sw["steps"]
        sig = sim.make_switching_signal(3, steps, sw["min_dwell"], sw["seed"],
                                        domain=synth.DISCRETE)
        self._assert_discrete(problem_42.system, problem_42.truth,
                              problem_42.build_observer(), sig, steps)

    @pytest.mark.parametrize("nsub", [1, 2, 3, 4])
    def test_random_families(self, nsub):
        rng = np.random.default_rng(1000 + nsub)
        for seed in range(3):
            system, obs, truth = _random_family(rng, synth.CONTINUOUS, nsub)
            sig = sim.make_switching_signal(nsub, 0.3, 0.03, seed=seed)
            self._assert_continuous(system, truth, obs, sig, float(rng.choice([1e-3, 7e-3])), 0.3)
            system, obs, truth = _random_family(rng, synth.DISCRETE, nsub)
            sig = sim.make_switching_signal(nsub, 50, 3, seed=seed, domain=synth.DISCRETE)
            self._assert_discrete(system, truth, obs, sig, 50)

    @pytest.mark.parametrize("a, x0", [
        # The unmeasured state never leaves 0: P^4 holds inf, and inf * 0 = nan.
        ([[0.5, 0.1], [0.0, 1e100]], [1.0, 0.0]),
        # P^4 is subnormal and would lose digits; the state stays normal for 6 steps.
        ([[1e-80, 5e-81], [5e-81, 1e-80]], [1e250, 1e250]),
    ])
    def test_power_stacks_end_before_non_normal_powers(self, a, x0):
        a = np.array(a)
        system = synth.IntervalSystem(domain=synth.DISCRETE, p=1, a_lower=(a,), a_upper=(a,),
                                      x0_lower=x0, x0_upper=x0)
        obs = synth.build_observer(system, np.zeros((1, 1)), [0.0], [x0[1]])
        truth = sim.TrueSystem(a=(a,), x0=x0)
        sig = sim.make_switching_signal(1, 6, 2, seed=0, domain=synth.DISCRETE)
        trace, want = self._assert_discrete(system, truth, obs, sig, 6)
        # entrywise too: each row is close to its own reference row
        bound = sim._POWERS * want.shape[1] * 2.0**-53 * np.abs(want)
        assert np.all(np.abs(_trace_rows(trace) - want) <= bound)


class TestDiscreteSimulation:
    def test_bracket_holds_fixture_42(self, trace_42):
        report = sim.verify_bracket(trace_42, 1e-12)
        assert report.total_violations == 0
        assert report.outputs_exact

    def test_gap_decays_after_transient(self, trace_42):
        norms = np.linalg.norm(trace_42.xi, axis=1)
        assert norms[-1] < 0.05 * norms[0]
        tail = norms[1:]
        assert np.all(tail[1:] <= tail[:-1] * (1.0 + 1e-12))

    def test_order_chain(self, trace_42, exact_42):
        _assert_order_chain(trace_42, exact_42, 1e-12)

    def test_proof_errors_stay_nonnegative(self, problem_42, exact_42):
        # fixture 4.2's errors reach about -1e-25 on states near 1e-90
        _assert_proof_errors_nonnegative(problem_42, exact_42, 1e-12)

    def test_zero_truth_dynamics(self, problem_42):
        base = problem_42.system
        system = synth.IntervalSystem(
            domain=synth.DISCRETE, p=base.p,
            a_lower=tuple(np.zeros((4, 4)) for _ in range(3)),
            a_upper=base.a_upper,
            x0_lower=base.x0_lower, x0_upper=base.x0_upper,
        )
        truth = sim.TrueSystem(a=system.a_lower, x0=system.x0_lower)
        gain = np.zeros((2, 2))
        obs = synth.build_observer(system, gain, *tight_omega(system, gain))
        sig = sim.make_switching_signal(3, 20, 2, seed=1, domain=synth.DISCRETE)
        trace = sim.simulate_discrete(system, truth, obs, sig, 20)
        assert np.all(trace.x[1:] == 0.0)
        assert np.all(trace.omega_lower[1:] == 0.0)
        assert np.all(trace.xhat_lower[1:] == 0.0)
        assert np.abs(trace.omega_upper[-1]).max() < np.abs(trace.omega_upper[0]).max()

    def test_divergent_truth_reported_with_step(self):
        a = np.full((2, 2), 1e100)
        system = synth.IntervalSystem(
            domain=synth.DISCRETE, p=1, a_lower=(a,), a_upper=(a,),
            x0_lower=[1.0, 1.0], x0_upper=[1.0, 1.0],
        )
        obs = synth.build_observer(system, np.zeros((1, 1)), [0.0], [2.0])
        truth = sim.TrueSystem(a=(a,), x0=[1.0, 1.0])
        sig = sim.make_switching_signal(1, 10, 2, seed=0, domain=synth.DISCRETE)
        # x_k = 2^k 1e(100 k): 8e300 at step 3 is finite, step 4 overflows.
        with pytest.raises(FloatingPointError, match=r"non-finite state at step 4$"):
            sim.simulate_discrete(system, truth, obs, sig, 10)

    def test_horizon_validation(self, problem_42):
        sig = sim.make_switching_signal(3, 10, 2, seed=1, domain=synth.DISCRETE)
        with pytest.raises(ValueError):
            sim.simulate_discrete(problem_42.system, problem_42.truth,
                                  problem_42.build_observer(), sig, 0)


class TestVerifyBracket:
    def test_constructed_upper_violation(self, trace_42):
        broken = dataclasses.replace(trace_42, xhat_upper=trace_42.xhat_upper - 1.0)
        report = sim.verify_bracket(broken, 1e-12)
        assert report.violations_upper > 0
        assert report.violations_lower == 0
        assert report.worst_location[0] == "upper"
        assert report.worst_violation > 0.9

    def test_constructed_nonneg_violation(self, trace_42):
        broken = dataclasses.replace(trace_42, xhat_lower=trace_42.xhat_lower - 1.0)
        report = sim.verify_bracket(broken, 1e-12)
        assert report.violations_nonneg > 0

    def test_norms_of_representable_rows_keep_their_bits(self, trace_41):
        norms = np.linalg.norm(trace_41.xi, axis=1)
        report = sim.verify_bracket(trace_41, 1e-6)
        assert report.sup_xi_norm == norms.max()
        assert report.xi_norm_start == norms[0]
        assert report.xi_norm_end == norms[-1]

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_huge_and_tiny_row_norms(self, trace_42, scale):
        rng = np.random.default_rng(5)
        xi = rng.uniform(0.1, 1.0, trace_42.xi.shape) * scale
        report = sim.verify_bracket(dataclasses.replace(trace_42, xi=xi), 1e-12)
        want = [math.hypot(*row) for row in xi.tolist()]
        assert report.xi_norm_start == pytest.approx(want[0], rel=1e-15, abs=0.0)
        assert report.xi_norm_end == pytest.approx(want[-1], rel=1e-15, abs=0.0)
        assert report.sup_xi_norm == pytest.approx(max(want), rel=1e-15, abs=0.0)

    def test_zero_and_infinite_rows_keep_the_plain_norm(self, trace_42):
        xi = np.zeros_like(trace_42.xi)
        xi[-1, 0] = np.inf
        report = sim.verify_bracket(dataclasses.replace(trace_42, xi=xi), 1e-12)
        assert (report.xi_norm_start, report.xi_norm_end, report.sup_xi_norm) == (
            0.0, np.inf, np.inf)

    def test_tol_validation(self, trace_42):
        # nan and inf would let no comparison fail: a false pass
        for tol in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="tol must be finite and >= 0"):
                sim.verify_bracket(trace_42, tol)


class TestCsvExport:
    def test_header_and_shape(self, trace_42):
        buf = io.BytesIO()
        sim.export_csv(trace_42, buf)
        lines = buf.getvalue().decode("ascii").splitlines()
        assert lines[0] == (
            "t,x1,x2,x3,x4,xhatl1,xhatl2,xhatl3,xhatl4,"
            "xhatu1,xhatu2,xhatu3,xhatu4,xi1,xi2,xi3,xi4,sigma"
        )
        assert len(lines) == trace_42.times.size + 1
        first = lines[1].split(",")
        assert len(first) == 18
        assert re.fullmatch(r"-?\d\.\d{12}e[+-]\d{2,3}", first[1])
        assert first[-1] == str(trace_42.sigma[0])

    @pytest.mark.parametrize("name", ["trace_41", "trace_42_600", "trace_41_special_cells",
                                      "trace_12_subsystems"])
    def test_bytes_match_row_by_row_writer(self, name, request):
        trace = request.getfixturevalue(name)
        got, want = _exported(trace)
        _assert_same_lines(got, want)
        if name == "trace_41":
            assert trace.times.size == 2007
            assert trace.times.size % _chunk_rows(trace)  # a partial last chunk
        elif name == "trace_42_600":
            assert re.search(r"e-\d{3},", got)  # three-digit exponents
        elif name == "trace_41_special_cells":
            assert got.splitlines()[4].split(",")[1:6] == [
                "nan", "inf", "-inf", "-0.000000000000e+00", "4.940656458412e-324"]
        else:
            assert {row.rsplit(",", 1)[1] for row in got.splitlines()[1:]} == {
                str(i) for i in range(1, 13)}

    # Fixture 4.1 with one edit each, and how many of its chunks are not plain
    # (a sign bit, a cell outside [1e-99, 1e100), or ids of two widths).
    @pytest.mark.parametrize("case, slot_chunks", [
        ("as is", 0), ("negated, 1e-150", 2), ("9.9999999999999e99", 1), ("-0.0", 1),
        ("ids 9 and 10", 1)])
    def test_plain_and_slot_chunks_match_row_by_row_writer(self, trace_41, monkeypatch,
                                                          case, slot_chunks):
        x, sigma = trace_41.x.copy(), trace_41.sigma.copy()
        rows = _chunk_rows(trace_41)
        if case == "negated, 1e-150":  # one edit in each of the first two chunks
            assert 300 < rows < rows + 300 < trace_41.times.size
            x[300, 1], x[rows + 300, 2] = -x[300, 1], 1e-150
        elif case == "9.9999999999999e99":  # spelled 1.000000000000e+100, 20 bytes
            x[300, 1] = 9.9999999999999e99
        elif case == "-0.0":
            x[300, 1] = -0.0
        elif case == "ids 9 and 10":  # as if N = 10; the first chunk holds both
            sigma = np.where(np.arange(sigma.size) < 300, 9, 10)
        trace = dataclasses.replace(trace_41, x=x, sigma=sigma)
        slot_calls = _counting_spell_cells(monkeypatch)
        got, want = _exported(trace)
        _assert_same_lines(got, want)
        assert len(slot_calls) == slot_chunks
        if case == "9.9999999999999e99":
            assert got.splitlines()[301].split(",")[2] == "1.000000000000e+100"

    # Cell budgets: one row a chunk; 100 rows of fixture 4.2 (80 of 4.1), whose
    # 600-step trace then has plain chunks and, from its e-1xx rows on, slot
    # chunks; and the whole trace in one chunk.
    @pytest.mark.parametrize("budget", ["one row", "mixed", "whole trace"])
    @pytest.mark.parametrize("name", ["trace_41", "trace_42_600", "trace_12_subsystems"])
    def test_cell_budget_chunks_match_row_by_row_writer(self, name, budget, request,
                                                        monkeypatch):
        trace = request.getfixturevalue(name)
        size = trace.times.size
        monkeypatch.setattr(sim, "_CSV_CHUNK_CELLS", {"one row": 1, "mixed": 1700,
                                                      "whole trace": 10**9}[budget])
        rows = _chunk_rows(trace)
        assert rows == {"one row": 1, "mixed": 1700 // (1 + 4 * trace.n)}.get(budget, rows)
        slot_calls = _counting_spell_cells(monkeypatch)
        got, want = _exported(trace)
        _assert_same_lines(got, want)
        assert all(shape[0] <= min(rows, size) for shape in slot_calls)
        chunks = -(-size // rows)
        if budget == "whole trace":
            assert chunks == 1
        if name == "trace_41":
            assert not slot_calls  # every chunk plain
        elif budget == "whole trace" or (name == "trace_12_subsystems" and budget == "mixed"):
            assert len(slot_calls) == chunks  # e-1xx cells, or ids of two widths, in each
        else:
            assert 0 < len(slot_calls) < chunks  # plain and slot chunks in one file

    def test_decayed_tail_alone_takes_slots(self, trace_42_600, monkeypatch):
        """The 600-step trace of fixture 4.2 is one window whose rows fall below
        1e-99 from row 530 on: the rows before are spelled plain, the rest in slots."""
        trace = trace_42_600
        values = np.hstack([trace.times[:, None], trace.x, trace.xhat_lower, trace.xhat_upper,
                            trace.xi])
        first = int(np.argmax(((values != 0.0) & (values < 1e-99)).any(axis=1)))
        assert first == 530
        plain_calls = _counting_spell_plain_rows(monkeypatch)
        slot_calls = _counting_spell_cells(monkeypatch)
        got, want = _exported(trace)
        _assert_same_lines(got, want)
        assert plain_calls == [(first, values.shape[1])]
        assert slot_calls == [(values.shape[0] - first, values.shape[1])]
        assert re.search(r"e-1\d\d,", got.splitlines()[first + 1])

    @pytest.mark.parametrize("budget", [sim._CSV_CHUNK_CELLS, 1700, 1])
    def test_alternating_rows_take_two_spell_calls_a_window(self, trace_41, monkeypatch,
                                                            budget):
        """Every odd row holds a negative cell: each window spells its one leading
        plain row at fixed offsets and the rest in slots."""
        monkeypatch.setattr(sim, "_CSV_CHUNK_CELLS", budget)
        x = trace_41.x.copy()
        x[1::2, 1] *= -1.0
        trace = dataclasses.replace(trace_41, x=x)
        plain_calls = _counting_spell_plain_rows(monkeypatch)
        slot_calls = _counting_spell_cells(monkeypatch)
        got, want = _exported(trace)
        _assert_same_lines(got, want)
        rows = _chunk_rows(trace)
        windows = -(-trace.times.size // rows)
        assert len(plain_calls) + len(slot_calls) <= 2 * windows
        assert all(shape[0] == 1 for shape in plain_calls)
        # one leading plain row a window; a window of one row is plain on even rows
        assert len(plain_calls) == (windows if rows > 1 else (trace.times.size + 1) // 2)

    def test_extreme_subsystem_ids_exported_exactly(self, trace_42):
        sigma = trace_42.sigma.copy()
        sigma[::2] = np.iinfo(np.int64).min
        sigma[1] = np.iinfo(np.int64).max
        trace = dataclasses.replace(trace_42, sigma=sigma)
        got, want = _exported(trace)
        _assert_same_lines(got, want)
        rows = got.splitlines()
        assert rows[1].endswith(",-9223372036854775808")
        assert rows[2].endswith(",9223372036854775807")

    def test_round_trip_values(self, trace_42):
        buf = io.BytesIO()
        sim.export_csv(trace_42, buf)
        buf.seek(0)
        data = np.genfromtxt(buf, delimiter=",", skip_header=1)
        assert data.shape == (trace_42.times.size, 18)
        assert np.allclose(data[:, 1:5], trace_42.x, rtol=1e-11, atol=1e-300)
        assert np.array_equal(data[:, -1].astype(int), trace_42.sigma)


def _spelled(values):
    """Cells of ``sim._spell_cells`` as strings, and its fallback mask."""
    out = np.zeros(values.shape + (sim._CELL_WORDS,), dtype=np.uint32)
    fallback = sim._spell_cells(values, out)
    return out.tobytes().translate(None, b"\0").decode("ascii").split(",")[:-1], fallback


def _mismatches(values, got):
    """(value, spelled, "%.12e") for the cells spelled unlike CPython."""
    want = ["%.12e" % v for v in values.ravel().tolist()]
    assert len(got) == len(want)
    return [(v, g, w) for v, g, w in zip(values.ravel().tolist(), got, want) if g != w]


def _value_classes():
    """Seeded float64 sets, each named after what it probes in the spelling."""
    rng = np.random.default_rng(2010)
    tens = np.array([float(f"1e{e}") for e in range(-307, 309)])
    ties = rng.integers(10**12, 10**13, 4000)
    return {
        "uniform": rng.uniform(-1.0, 1.0, 20000),
        "log_spread": rng.choice([-1.0, 1.0], 20000) * 10.0 ** rng.uniform(-300, 300, 20000),
        "integers": rng.integers(-10**15, 10**15, 10000).astype(float),
        # k + 1/2 and 10 k + 5 with 13-digit k are exact ties at 13 digits.
        "exact_ties": np.concatenate([ties + 0.5, ties * 10.0 + 5.0, -(ties + 0.5)]),
        "decimal_near_ties": (rng.integers(10**12, 10**13, 10000) + 0.5)
        * 10.0 ** rng.integers(-40, 0, 10000),
        "dyadic": rng.integers(1, 2**20, 10000) * 2.0 ** rng.integers(-70, 70, 10000),
        "powers_of_ten": np.concatenate([tens, np.nextafter(tens, 0.0),
                                         np.nextafter(tens, np.inf)]),
        # Mantissas that carry into the next exponent when rounded.
        "carries": (tens[7:-9, None]
                    * (9.9999999999995 + np.linspace(-4e-13, 4e-13, 41))).ravel(),
        # Just below 10**e with |e| >= 256, log10 can round up to e, one too large.
        "log10_rounds_up": (tens[:, None] * (1.0 - np.linspace(4e-14, 8e-14, 21))).ravel(),
        "extremes": np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                              -2.2250738585072014e-308, 1e-310, 1e-280, 1e280,
                              1.7976931348623157e308, -1.7976931348623157e308]),
        "subnormal": rng.uniform(-1.0, 1.0, 2000) * 2.2250738585072014e-308,
        "non_finite": np.array([np.inf, -np.inf, np.nan, -np.nan]),
    }


class TestCellSpelling:
    """``sim._spell_cells`` against CPython's ``"%.12e" %`` on every value class."""

    @pytest.fixture(autouse=True)
    def _warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def test_matches_python_formatter(self):
        classes = _value_classes()
        values = np.concatenate(list(classes.values()))
        got, fallback = _spelled(values)
        bad = _mismatches(values, got)
        assert not bad, bad[:5]
        assert fallback.any() and not fallback.all()  # both paths are exercised

    def test_ties_and_unrepresentable_cells_fall_back(self):
        classes = _value_classes()
        for name in ("exact_ties", "subnormal", "non_finite"):
            assert _spelled(classes[name])[1].all(), name
        got, fallback = _spelled(np.array([0.0, -0.0]))
        assert got == ["0.000000000000e+00", "-0.000000000000e+00"]
        assert not fallback.any()

    def test_few_cells_of_trace_41_fall_back(self, trace_41):
        values = np.hstack([trace_41.times[:, None], trace_41.x, trace_41.xhat_lower,
                            trace_41.xhat_upper, trace_41.xi])
        got, fallback = _spelled(values)
        assert not _mismatches(values, got)
        assert 0 < fallback.sum() < 0.02 * values.size

    def test_three_digit_exponents_stay_on_the_fast_path(self, trace_42_600):
        got, fallback = _spelled(np.array([1.234567890123e-150, -9.87e250]))
        assert got == ["1.234567890123e-150", "-9.870000000000e+250"]
        assert not fallback.any()
        values = np.hstack([trace_42_600.times[:, None], trace_42_600.x,
                            trace_42_600.xhat_lower, trace_42_600.xhat_upper, trace_42_600.xi])
        got, fallback = _spelled(values)
        assert not _mismatches(values, got)
        assert any(re.fullmatch(r"-?\d\.\d{12}e-\d{3}", cell) for cell in got)
        assert fallback.sum() < 0.02 * values.size

    def test_fallback_cells_written_through_a_strided_view(self):
        """``export_csv`` passes the float slots of each row, ``words[:, :cols]``, a
        view whose rows are one slot apart; fallback cells must land in it too."""
        classes = _value_classes()
        values = np.stack([classes["exact_ties"][:7], classes["uniform"][:7],
                           np.array([np.nan, 1.5, -np.inf, 5e-324, -0.0, 0.1, 1e300])])
        words = np.zeros((3, 8, sim._CELL_WORDS), dtype=np.uint32)
        fallback = sim._spell_cells(values, words[:, :7])
        assert fallback[0].all() and fallback[2].sum() == 4
        text = words[:, :7].tobytes().translate(None, b"\0").decode("ascii")
        assert text == "".join("%.12e," % v for v in values.ravel().tolist())
        assert not words[:, 7].any()  # the slot after each row is left alone


class TestRandomizedBracketMini:
    @pytest.mark.parametrize("domain", [synth.CONTINUOUS, synth.DISCRETE])
    def test_random_scenarios(self, domain):
        rng = np.random.default_rng(99)
        for case in range(10):
            system, obs, truth = random_passing_scenario(rng, domain)
            for seed in range(2):
                if domain == synth.CONTINUOUS:
                    sig = sim.make_switching_signal(system.nsub, 0.5, 0.1, seed=seed)
                    trace = sim.simulate_continuous(system, truth, obs, sig,
                                                    step=1e-3, horizon=0.5)
                    tol = 1e-6
                else:
                    sig = sim.make_switching_signal(system.nsub, 40, 4, seed=seed,
                                                    domain=synth.DISCRETE)
                    trace = sim.simulate_discrete(system, truth, obs, sig, 40)
                    tol = 1e-12
                report = sim.verify_bracket(trace, tol)
                assert report.total_violations == 0, (domain, case, seed)
