"""Observer construction, condition checks, and gain search."""

import numpy as np
import pytest

from swposobs import certify, synth

from conftest import random_interval_system

TOL = 1e-12


def _observer(problem):
    return problem.build_observer()


class TestBuildObserver:
    def test_cross_paired_blocks_fixture_41(self, problem_41):
        obs = _observer(problem_41)
        # frozen by direct block arithmetic on the bundled interval data
        assert np.allclose(
            obs.ahat_lower[0],
            [[-28.8, 0.7, 2.1], [3.9, -28.15, 0.75], [1.35, 5.15, -29.75]],
            atol=TOL,
        )
        assert np.allclose(
            obs.g_lower[0],
            [[0.435, 2.625], [4.9425, 5.4175], [4.7325, 4.8825]],
            atol=TOL,
        )
        assert np.allclose(
            obs.ahat_upper[0],
            [[-27.3, 3.2, 3.7], [6.25, -25.8, 2.25], [4.5, 6.3, -27.5]],
            atol=TOL,
        )
        m, p = obs.order, obs.p
        assert np.array_equal(obs.f, np.hstack([-obs.gain_l, np.eye(m)]))
        assert np.array_equal(obs.chat, np.vstack([np.zeros((p, m)), np.eye(m)]))
        assert np.array_equal(obs.dhat, np.vstack([np.eye(p), obs.gain_l]))

    def test_zero_gain_collapses_to_blocks(self, problem_41):
        system = problem_41.system
        p = system.p
        obs = synth.build_observer(system, np.zeros((system.n - p, p)),
                                   np.zeros(system.n - p), system.x0_upper[p:])
        for i in range(system.nsub):
            assert np.array_equal(obs.ahat_lower[i], system.a_lower[i][p:, p:])
            assert np.array_equal(obs.g_lower[i], system.a_lower[i][p:, :p])
        assert np.array_equal(obs.dhat, np.vstack([np.eye(p), np.zeros((system.n - p, p))]))

    def test_zero_width_intervals_collapse(self, problem_41):
        truth = problem_41.truth
        system = synth.IntervalSystem(
            domain=synth.CONTINUOUS, p=2,
            a_lower=truth.a, a_upper=truth.a,
            x0_lower=truth.x0, x0_upper=truth.x0,
        )
        gain = problem_41.observer_gain
        w_lo, w_up = synth.tight_omega(system, gain)
        obs = synth.build_observer(system, gain, w_lo, w_up)
        for i in range(system.nsub):
            assert np.array_equal(obs.ahat_lower[i], obs.ahat_upper[i])
            assert np.array_equal(obs.g_lower[i], obs.g_upper[i])

    def test_rejects_negative_gain(self, problem_41):
        with pytest.raises(ValueError, match="negative"):
            synth.build_observer(problem_41.system, -np.ones((3, 2)),
                                 np.zeros(3), np.ones(3))

    def test_rejects_bad_dimensions(self, problem_41):
        with pytest.raises(ValueError):
            synth.build_observer(problem_41.system, np.zeros((2, 2)),
                                 np.zeros(2), np.ones(2))

    def test_sandwich_property_random(self):
        rng = np.random.default_rng(21)
        for k in range(500):
            domain = synth.CONTINUOUS if k % 2 == 0 else synth.DISCRETE
            system = random_interval_system(rng, domain)
            m, p = system.n - system.p, system.p
            gain = rng.uniform(0.0, 0.3, size=(m, p))
            obs = synth.build_observer(system, gain, np.zeros(m), np.ones(m))
            for i in range(system.nsub):
                assert np.all(obs.ahat_lower[i] <= obs.ahat_upper[i] + 1e-12)
                assert np.all(obs.g_lower[i] <= obs.g_upper[i] + 1e-12)


class TestConditionChecks:
    def test_fixture_41_passes_theorem1(self, problem_41):
        report = synth.check_theorem1(problem_41.system, _observer(problem_41))
        assert report.as_dict() == {"i": True, "ii": True, "iii": True, "iv": True}
        assert report.passed
        assert report.first_violation is None
        assert report.certificate is not None
        assert certify.check_lambda(list(_observer(problem_41).ahat_upper), report.certificate)

    def test_fixture_42_passes_theorem2(self, problem_42):
        obs = _observer(problem_42)
        report = synth.check_theorem2(problem_42.system, obs)
        assert report.passed
        closure = [a - np.eye(obs.order) for a in obs.ahat_upper]
        assert certify.check_lambda(closure, report.certificate)

    def test_domain_mismatch_rejected(self, problem_41, problem_42):
        with pytest.raises(ValueError):
            synth.check_theorem2(problem_41.system, _observer(problem_41))
        with pytest.raises(ValueError):
            synth.check_theorem1(problem_42.system, _observer(problem_42))

    def test_envelope_bounds_fixture_41(self, problem_41):
        system = problem_41.system
        gain = problem_41.observer_gain
        lo = system.x0_lower[2:] - gain @ system.x0_upper[:2]
        up = system.x0_upper[2:] - gain @ system.x0_lower[:2]
        assert np.allclose(lo, [3.4, 0.1, 2.15], atol=TOL)
        assert np.allclose(up, [7.7, 7.25, 4.75], atol=TOL)

    def test_condition_iv_failure_41(self, problem_41):
        obs = synth.build_observer(problem_41.system, problem_41.observer_gain,
                                   [4.0, 4.0, 4.0], problem_41.omega0_upper)
        report = synth.check_theorem1(problem_41.system, obs)
        assert not report.cond_iv
        assert report.cond_i and report.cond_ii and report.cond_iii
        assert report.first_violation.startswith("(iv)")

    def test_condition_iv_failure_42(self, problem_42):
        system = problem_42.system
        gain = problem_42.observer_gain
        up = system.x0_upper[2:] - gain @ system.x0_lower[:2]
        assert np.allclose(up, [10.872, 6.912], atol=TOL)
        obs = synth.build_observer(system, gain, problem_42.omega0_lower, [10.0, 6.0])
        report = synth.check_theorem2(system, obs)
        assert not report.cond_iv
        assert report.first_violation.startswith("(iv)")

    def test_condition_i_failure_named_discrete(self, problem_42):
        system = problem_42.system
        obs = synth.build_observer(system, np.eye(2), [0.0, 0.0], [1.0, 1.0])
        report = synth.check_theorem2(system, obs)
        assert not report.cond_i
        assert "ahat_lower[0]" in report.first_violation

    def test_zero_gain_satisfies_first_two_conditions(self):
        rng = np.random.default_rng(22)
        for k in range(40):
            domain = synth.CONTINUOUS if k % 2 == 0 else synth.DISCRETE
            system = random_interval_system(rng, domain)
            m = system.n - system.p
            obs = synth.build_observer(system, np.zeros((m, system.p)),
                                       np.zeros(m), np.ones(m))
            report = synth.check_conditions(system, obs)
            assert report.cond_i and report.cond_ii

    def test_reports_are_pure(self, problem_41):
        obs = _observer(problem_41)
        r1 = synth.check_theorem1(problem_41.system, obs)
        r2 = synth.check_theorem1(problem_41.system, obs)
        assert r1.as_dict() == r2.as_dict()
        assert np.array_equal(r1.certificate.lam, r2.certificate.lam)
        assert r1.certificate.margin == r2.certificate.margin
        assert r1.first_violation == r2.first_violation

    def test_widening_never_creates_certificate_passes(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            system = random_interval_system(rng, synth.CONTINUOUS)
            m, p = system.n - system.p, system.p
            gain = rng.uniform(0.0, 0.1, size=(m, p))
            obs = synth.build_observer(system, gain, np.zeros(m), np.ones(m))
            cert = certify.find_lambda(list(obs.ahat_upper))
            if cert is None:
                continue
            widened = synth.IntervalSystem(
                domain=system.domain, p=p,
                a_lower=system.a_lower,
                a_upper=tuple(u + rng.uniform(0.0, 3.0, size=u.shape)
                              for u in system.a_upper),
                x0_lower=system.x0_lower, x0_upper=system.x0_upper,
            )
            wobs = synth.build_observer(widened, gain, np.zeros(m), np.ones(m))
            if certify.check_lambda(list(wobs.ahat_upper), cert):
                assert certify.check_lambda(list(obs.ahat_upper), cert)


class TestCorollary:
    def _single(self, problem, i=0):
        system = problem.system
        return synth.IntervalSystem(
            domain=system.domain, p=system.p,
            a_lower=(system.a_lower[i],), a_upper=(system.a_upper[i],),
            x0_lower=system.x0_lower, x0_upper=system.x0_upper,
        )

    def test_fixture_41_first_subsystem(self, problem_41):
        system = self._single(problem_41)
        gain = problem_41.observer_gain
        obs = synth.build_observer(system, gain, *synth.tight_omega(system, gain))
        report = synth.check_corollary(system, obs)
        assert report.passed
        assert report.certificate is not None

    def test_discrete_scalar_schur(self):
        system = synth.IntervalSystem(
            domain=synth.DISCRETE, p=1,
            a_lower=(np.array([[0.0, 0.0], [0.0, 0.5]]),),
            a_upper=(np.array([[0.0, 0.0], [0.0, 0.5]]),),
            x0_lower=[0.0, 0.0], x0_upper=[1.0, 1.0],
        )
        obs = synth.build_observer(system, np.zeros((1, 1)), [0.0], [1.0])
        assert synth.check_corollary(system, obs).cond_iii

    def test_continuous_zero_dynamics_not_hurwitz(self):
        system = synth.IntervalSystem(
            domain=synth.CONTINUOUS, p=1,
            a_lower=(np.zeros((2, 2)),), a_upper=(np.zeros((2, 2)),),
            x0_lower=[0.0, 0.0], x0_upper=[1.0, 1.0],
        )
        obs = synth.build_observer(system, np.zeros((1, 1)), [0.0], [1.0])
        report = synth.check_corollary(system, obs)
        assert not report.cond_iii
        assert report.first_violation.startswith("(iii)")

    def test_requires_single_subsystem(self, problem_41):
        with pytest.raises(ValueError):
            synth.check_corollary(problem_41.system, _observer(problem_41))


class TestGainSearch:
    def test_fixture_41_search_finds_passing_gain(self, problem_41):
        obs, report = synth.search_gain(problem_41.system, budget=50, seed=0)
        assert report.passed
        check = synth.check_theorem1(problem_41.system, obs)
        assert check.passed

    def test_search_deterministic(self, problem_41):
        a = synth.search_gain(problem_41.system, budget=50, seed=0)[0]
        b = synth.search_gain(problem_41.system, budget=50, seed=0)[0]
        assert np.array_equal(a.gain_l, b.gain_l)
        assert np.array_equal(a.omega0_lower, b.omega0_lower)

    def test_unstabilizable_discrete_toy(self):
        system = synth.IntervalSystem(
            domain=synth.DISCRETE, p=1,
            a_lower=(np.array([[0.0, 0.0], [0.0, 2.0]]),),
            a_upper=(np.array([[0.0, 0.0], [0.0, 2.0]]),),
            x0_lower=[0.0, 0.0], x0_upper=[1.0, 1.0],
        )
        with pytest.raises(synth.GainSearchError) as err:
            synth.search_gain(system, budget=30, seed=1)
        assert err.value.best_penalty > 0
        assert err.value.candidates == 30

    def test_zero_width_stable_system_accepts_zero_gain(self):
        a = np.array([[-2.0, 0.5], [0.3, -3.0]])
        system = synth.IntervalSystem(
            domain=synth.CONTINUOUS, p=1, a_lower=(a,), a_upper=(a,),
            x0_lower=[1.0, 1.0], x0_upper=[2.0, 2.0],
        )
        obs, report = synth.search_gain(system, budget=10, seed=0)
        assert report.passed
        assert np.array_equal(obs.gain_l, np.zeros((1, 1)))

    def test_given_omega_policy(self, problem_41):
        omega = (problem_41.omega0_lower, problem_41.omega0_upper)
        obs, report = synth.search_gain(problem_41.system, omega_policy="given",
                                        omega0=omega, budget=50, seed=0)
        assert report.passed
        assert np.array_equal(obs.omega0_lower, problem_41.omega0_lower)

    def test_policy_validation(self, problem_41):
        with pytest.raises(ValueError):
            synth.search_gain(problem_41.system, omega_policy="loose")
        with pytest.raises(ValueError):
            synth.search_gain(problem_41.system, omega_policy="given")
        with pytest.raises(ValueError):
            synth.search_gain(problem_41.system, budget=0)


class TestDesignProcedure:
    def test_supplied_gain_and_envelope(self, problem_41):
        obs = synth.run_design_procedure(
            problem_41.system, gain=problem_41.observer_gain,
            omega=(problem_41.omega0_lower, problem_41.omega0_upper),
        )
        expected = _observer(problem_41)
        for a, b in zip(obs.ahat_lower, expected.ahat_lower):
            assert np.array_equal(a, b)
        assert np.array_equal(obs.omega0_lower, expected.omega0_lower)

    def test_missing_gain_equals_search_then_build(self, problem_41):
        via_procedure = synth.run_design_procedure(problem_41.system, budget=50, seed=0)
        via_search, _ = synth.search_gain(problem_41.system, budget=50, seed=0)
        assert np.array_equal(via_procedure.gain_l, via_search.gain_l)
        assert np.array_equal(via_procedure.omega0_upper, via_search.omega0_upper)

    def test_supplied_gain_discrete_fixture(self, problem_42):
        obs = synth.run_design_procedure(
            problem_42.system, gain=problem_42.observer_gain,
            omega=(problem_42.omega0_lower, problem_42.omega0_upper),
        )
        assert synth.check_theorem2(problem_42.system, obs).passed

    def test_bad_supplied_gain_raises(self, problem_42):
        with pytest.raises(synth.DesignError):
            synth.run_design_procedure(problem_42.system, gain=np.eye(2))


class TestIntervalSystemValidation:
    def test_partition_bounds(self, problem_41):
        system = problem_41.system
        with pytest.raises(ValueError, match="invalid partition"):
            synth.IntervalSystem(domain=synth.CONTINUOUS, p=5,
                                 a_lower=system.a_lower, a_upper=system.a_upper,
                                 x0_lower=system.x0_lower, x0_upper=system.x0_upper)

    def test_assumption_i_negative_start(self):
        with pytest.raises(ValueError, match=r"assumption \(i\)"):
            synth.IntervalSystem(domain=synth.DISCRETE, p=1,
                                 a_lower=(np.zeros((2, 2)),), a_upper=(np.zeros((2, 2)),),
                                 x0_lower=[-1.0, 0.0], x0_upper=[1.0, 1.0])

    def test_assumption_ii_ordering(self):
        with pytest.raises(ValueError, match=r"assumption \(ii\)"):
            synth.IntervalSystem(domain=synth.DISCRETE, p=1,
                                 a_lower=(np.full((2, 2), 0.5),),
                                 a_upper=(np.zeros((2, 2)),),
                                 x0_lower=[0.0, 0.0], x0_upper=[1.0, 1.0])

    def test_assumption_iii_metzler(self):
        bad = np.array([[0.0, -0.5], [1.0, 0.0]])
        with pytest.raises(ValueError, match=r"assumption \(iii\).*not Metzler at entry \(0, 1\)"):
            synth.IntervalSystem(domain=synth.CONTINUOUS, p=1,
                                 a_lower=(bad,), a_upper=(np.ones((2, 2)),),
                                 x0_lower=[0.0, 0.0], x0_upper=[1.0, 1.0])

    def test_assumption_iii_nonneg_discrete(self):
        bad = np.array([[0.0, -0.5], [1.0, 0.0]])
        with pytest.raises(ValueError, match=r"assumption \(iii\).*negative entry"):
            synth.IntervalSystem(domain=synth.DISCRETE, p=1,
                                 a_lower=(bad,), a_upper=(np.ones((2, 2)),),
                                 x0_lower=[0.0, 0.0], x0_upper=[1.0, 1.0])

    def test_non_finite_entries_rejected(self, problem_41):
        system = problem_41.system
        a_lower = [m.copy() for m in system.a_lower]
        a_lower[1][2, 0] = np.nan
        with pytest.raises(ValueError, match=r"^A_lower\[1\] has a non-finite entry at \(2, 0\)$"):
            synth.IntervalSystem(domain=synth.CONTINUOUS, p=2,
                                 a_lower=tuple(a_lower), a_upper=system.a_upper,
                                 x0_lower=system.x0_lower, x0_upper=system.x0_upper)
        x0_upper = system.x0_upper.copy()
        x0_upper[3] = np.inf
        with pytest.raises(ValueError, match=r"^x0_upper has a non-finite entry at 3$"):
            synth.IntervalSystem(domain=synth.CONTINUOUS, p=2,
                                 a_lower=system.a_lower, a_upper=system.a_upper,
                                 x0_lower=system.x0_lower, x0_upper=x0_upper)
        gain = problem_41.observer_gain.copy()
        gain[0, 0] = np.nan
        with pytest.raises(ValueError, match=r"^gain_l has a non-finite entry at \(0, 0\)$"):
            synth.build_observer(system, gain, problem_41.omega0_lower, problem_41.omega0_upper)
        with pytest.raises(ValueError, match=r"^omega0_upper has a non-finite entry at 0$"):
            synth.build_observer(system, problem_41.observer_gain, problem_41.omega0_lower,
                                 [np.nan, 1.0, 1.0])


def test_value_types_are_immutable(problem_41):
    system = problem_41.system
    obs = _observer(problem_41)
    with pytest.raises(ValueError, match="read-only"):
        system.a_lower[0][0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        system.x0_lower[0] = -1.0
    with pytest.raises(ValueError, match="read-only"):
        obs.gain_l[0, 0] = 5.0
    with pytest.raises(ValueError, match="read-only"):
        obs.ahat_upper[1][0, 0] = 0.0


def test_tight_omega_clamps_at_zero(problem_41):
    system = problem_41.system
    gain = np.full((3, 2), 2.0)  # large gain drives the raw lower bound negative
    lo, up = synth.tight_omega(system, gain)
    assert np.all(lo >= 0.0)
    raw = system.x0_lower[2:] - gain @ system.x0_upper[:2]
    assert np.all(lo == np.maximum(raw, 0.0))
    assert np.array_equal(up, system.x0_upper[2:] - gain @ system.x0_lower[:2])
