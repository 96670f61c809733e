"""Observer construction, condition checks, and gain search."""

import inspect
import json
from dataclasses import fields, replace

import numpy as np
import pytest

import swposobs
from swposobs import certify, cli, matcore, sim, synth

import oracles
from conftest import random_gain_family, random_iii_family, random_interval_system, tight_omega

TOL = 1e-12


class TestBuildObserver:
    def test_cross_paired_blocks_fixture_41(self, problem_41):
        obs = problem_41.observer
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
        gain = problem_41.observer.gain_l
        w_lo, w_up = tight_omega(system, gain)
        obs = synth.build_observer(system, gain, w_lo, w_up)
        for i in range(system.nsub):
            assert np.array_equal(obs.ahat_lower[i], obs.ahat_upper[i])
            assert np.array_equal(obs.g_lower[i], obs.g_upper[i])

    def test_stacked_blocks_match_lone_blocks(self):
        """Every subsystem's blocks equal, bit for bit, the formula on that
        subsystem's own contiguous partition blocks."""
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 8))
            p, nsub = int(rng.integers(1, n)), int(rng.integers(1, 5))
            lower = rng.uniform(0.0, 1.0, (nsub, n, n))
            system = synth.IntervalSystem(domain=synth.DISCRETE, p=p, a_lower=tuple(lower),
                                          a_upper=tuple(lower + rng.uniform(0.0, 1.0, lower.shape)),
                                          x0_lower=np.zeros(n), x0_upper=np.ones(n))
            m = n - p
            gain = rng.uniform(0.0, 1.0, (m, p))
            obs = synth.build_observer(system, gain, np.zeros(m), np.ones(m))
            for i, (lo, up) in enumerate(zip(system.a_lower, system.a_upper)):
                for own, cross, ahat, g in ((lo, up, obs.ahat_lower[i], obs.g_lower[i]),
                                            (up, lo, obs.ahat_upper[i], obs.g_upper[i])):
                    own, cross = matcore.partition(own, p), matcore.partition(cross, p)
                    expected = own.a22 - gain @ cross.a12
                    assert np.array_equal(ahat, expected)
                    assert np.array_equal(g, expected @ gain + own.a21 - gain @ cross.a11)

    def test_overflowing_gain_names_the_stack(self, problem_41):
        """A finite gain whose blocks overflow is rejected by build_observer, naming the
        first non-finite entry in the order ahat_lower, ahat_upper, g_lower, g_upper."""
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError,
                               match=r"^ahat_lower\[0\] has a non-finite entry at \(0, 0\)$"):
                synth.build_observer(problem_41.system, np.full((3, 2), 1e308),
                                     np.zeros(3), np.ones(3))

    @pytest.mark.parametrize("gain, omega0_lower, message", [
        (-np.ones((3, 2)), [0.0, 0.0, 0.0], r"^L has negative entry at \(0, 0\)$"),
        (np.zeros((3, 2)), [0.0, -0.5, 0.0], r"^omega0_lower\[1\] = -0\.5 is negative$"),
        (np.zeros((3, 2)), [0.0, 0.0, 2.0], r"^omega0_lower\[2\] > omega0_upper\[2\]$"),
    ], ids=["gain", "omega0_lower_negative", "omega0_lower_above_upper"])
    def test_rejects_negative_gain(self, problem_41, gain, omega0_lower, message):
        """build_observer rejects a negative gain or start, and an inverted
        envelope; this is what enforces condition (iv)'s omega0_lower >= 0."""
        with pytest.raises(ValueError, match=message):
            synth.build_observer(problem_41.system, gain, omega0_lower, np.ones(3))

    def test_rejects_bad_dimensions(self, problem_41):
        with pytest.raises(ValueError):
            synth.build_observer(problem_41.system, np.zeros((2, 2)),
                                 np.zeros(2), np.ones(2))

    def test_sandwich_property_random(self):
        """The lower blocks are at most the upper ones exactly, in floating point: for
        L >= 0 every operation of the block formulas is monotone, which is why condition
        (i) is tested on ahat_lower alone.  Matrix entries span 16 decades and gains 20,
        with some zero gain entries and some all-zero gains, in both domains."""
        rng = np.random.default_rng(21)
        for k in range(500):
            domain = synth.CONTINUOUS if k % 2 == 0 else synth.DISCRETE
            n = int(rng.integers(2, 7))
            p, nsub = int(rng.integers(1, n)), int(rng.integers(1, 4))
            shape = (nsub, n, n)
            lower = 10.0 ** rng.uniform(-8.0, 8.0, shape) * (rng.random(shape) < 0.8)
            if domain == synth.CONTINUOUS:  # a Metzler bound has diagonal entries of any sign
                lower[:, range(n), range(n)] *= rng.choice([-1.0, 1.0], (nsub, n))
            upper = lower + 10.0 ** rng.uniform(-8.0, 8.0, shape) * (rng.random(shape) < 0.5)
            system = synth.IntervalSystem(domain=domain, p=p, a_lower=lower, a_upper=upper,
                                          x0_lower=np.zeros(n), x0_upper=np.ones(n))
            m = n - p
            gain = 10.0 ** rng.uniform(-10.0, 10.0, (m, p)) * (rng.random((m, p)) < 0.7)
            gain *= k % 7 != 0
            obs = synth.build_observer(system, gain, np.zeros(m), np.ones(m))
            assert np.all(obs.ahat_lower <= obs.ahat_upper)
            assert np.all(obs.g_lower <= obs.g_upper)


class TestConditionChecks:
    def test_fixture_41_passes_theorem1(self, problem_41):
        report = synth.check_conditions(problem_41.system, problem_41.observer)
        assert report.as_dict() == {"i": True, "ii": True, "iii": True, "iv": True}
        assert report.passed
        assert report.first_violation is None
        assert report.certificate is not None
        assert oracles.check_lambda(list(problem_41.observer.ahat_upper), report.certificate)

    def test_fixture_42_passes_theorem2(self, problem_42):
        obs = problem_42.observer
        report = synth.check_conditions(problem_42.system, obs)
        assert report.passed
        closure = [a - np.eye(obs.order) for a in obs.ahat_upper]
        assert oracles.check_lambda(closure, report.certificate)

    def test_conditions_follow_system_domain(self, problem_42):
        """The same matrices pass the Schur test of (iii) in discrete time and fail
        the Hurwitz test in continuous time: nonnegative matrices are never Hurwitz."""
        obs = problem_42.observer
        assert synth.check_conditions(problem_42.system, obs).passed
        system = replace(problem_42.system, domain=synth.CONTINUOUS)
        report = synth.check_conditions(system, obs)
        assert report.domain == synth.CONTINUOUS
        assert report.cond_i and report.cond_ii and not report.cond_iii
        assert report.first_violation.startswith("(iii)")

    def test_envelope_bounds_fixture_41(self, problem_41):
        system = problem_41.system
        gain = problem_41.observer.gain_l
        lo = system.x0_lower[2:] - gain @ system.x0_upper[:2]
        up = system.x0_upper[2:] - gain @ system.x0_lower[:2]
        assert np.allclose(lo, [3.4, 0.1, 2.15], atol=TOL)
        assert np.allclose(up, [7.7, 7.25, 4.75], atol=TOL)

    def test_condition_iv_failure_41(self, problem_41):
        obs = synth.build_observer(problem_41.system, problem_41.observer.gain_l,
                                   [4.0, 4.0, 4.0], problem_41.observer.omega0_upper)
        report = synth.check_conditions(problem_41.system, obs)
        assert not report.cond_iv
        assert report.cond_i and report.cond_ii and report.cond_iii
        assert report.first_violation.startswith("(iv)")

    def test_condition_iv_failure_42(self, problem_42):
        system = problem_42.system
        gain = problem_42.observer.gain_l
        up = system.x0_upper[2:] - gain @ system.x0_lower[:2]
        assert np.allclose(up, [10.872, 6.912], atol=TOL)
        obs = synth.build_observer(system, gain, problem_42.observer.omega0_lower, [10.0, 6.0])
        report = synth.check_conditions(system, obs)
        assert not report.cond_iv
        assert report.first_violation.startswith("(iv)")

    def test_condition_i_failure_named_discrete(self, problem_42):
        system = problem_42.system
        obs = synth.build_observer(system, np.eye(2), [0.0, 0.0], [1.0, 1.0])
        report = synth.check_conditions(system, obs)
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
        obs = problem_41.observer
        r1 = synth.check_conditions(problem_41.system, obs)
        r2 = synth.check_conditions(problem_41.system, obs)
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
            if oracles.check_lambda(list(wobs.ahat_upper), cert):
                assert oracles.check_lambda(list(obs.ahat_upper), cert)


class TestSingleSubsystem:
    """The no-switching corollary is :func:`synth.check_conditions` with N = 1: for one
    Metzler (nonnegative) matrix, the LP's copositive vector exists exactly when the
    matrix is Hurwitz (Schur), so the minor predicates of ``oracles`` are its reference."""

    def _single(self, problem, i=0):
        system = problem.system
        return synth.IntervalSystem(
            domain=system.domain, p=system.p,
            a_lower=(system.a_lower[i],), a_upper=(system.a_upper[i],),
            x0_lower=system.x0_lower, x0_upper=system.x0_upper,
        )

    def test_fixture_41_first_subsystem(self, problem_41):
        system = self._single(problem_41)
        gain = problem_41.observer.gain_l
        obs = synth.build_observer(system, gain, *tight_omega(system, gain))
        report = synth.check_conditions(system, obs)
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
        assert synth.check_conditions(system, obs).cond_iii

    def test_continuous_zero_dynamics_not_hurwitz(self):
        system = synth.IntervalSystem(
            domain=synth.CONTINUOUS, p=1,
            a_lower=(np.zeros((2, 2)),), a_upper=(np.zeros((2, 2)),),
            x0_lower=[0.0, 0.0], x0_upper=[1.0, 1.0],
        )
        obs = synth.build_observer(system, np.zeros((1, 1)), [0.0], [1.0])
        report = synth.check_conditions(system, obs)
        assert not report.cond_iii
        assert report.first_violation.startswith("(iii)")

    IV = "(iv): omega0_upper[0] = 0.5 is below required upper start 1"
    FARKAS = "(iii): no common copositive vector exists (verified Farkas vector)"
    UNDECIDED = "(iii): no common copositive vector found (no verified certificate or Farkas vector)"

    @pytest.mark.parametrize("a22, omega0_upper, stable, lp, first", [
        # the minor test and the LP both pass, and (iv) passes or fails
        ([[-1.0, 0.0], [0.0, -1.0]], [1.0, 1.0], True, True, None),
        ([[-1.0, 0.0], [0.0, -1.0]], [0.5, 1.0], True, True, IV),
        # both fail, and the LP proves it
        ([[0.0, 0.0], [0.0, 0.0]], [0.5, 1.0], False, False, FARKAS),
        # known disagreement: the minor test fails a stable matrix at its tolerance
        # (a minor of 5e-10), the LP certifies
        ([[-5e-10, 0.0], [0.0, -1.0]], [0.5, 1.0], False, True, IV),
        # known disagreement: the minor test passes, and the LP's lam = (1e-16, 1) has
        # margin 0 once rounded, so (iii) is undecided (ROADMAP item 4)
        ([[-1.0, 1e16], [0.0, -1.0]], [1.0, 1.0], True, False, UNDECIDED),
        ([[-1.0, 1e16], [0.0, -1.0]], [0.5, 1.0], True, False, UNDECIDED),
    ])
    def test_first_violation(self, a22, omega0_upper, stable, lp, first):
        """A continuous n = 3, p = 1 subsystem with A12 = A21 = 0 and the zero gain, so
        (i) and (ii) pass and Ahat_upper = A22, with the envelope ([0, 0], omega0_upper)
        against the bounds [0, 0] and [1, 1]."""
        self._check_first_violation(synth.CONTINUOUS, a22, omega0_upper, stable, lp, first)

    @pytest.mark.parametrize("a22, omega0_upper, stable, lp, first", [
        ([[0.5, 0.0], [0.0, 0.5]], [1.0, 1.0], True, True, None),
        ([[0.5, 0.0], [0.0, 0.5]], [0.5, 1.0], True, True, IV),
        ([[1.0, 0.0], [0.0, 1.0]], [0.5, 1.0], False, False, FARKAS),
        # I - A22 has a minor of 5e-10, under the test's tolerance; the LP certifies
        ([[1.0 - 5e-10, 0.0], [0.0, 0.0]], [0.5, 1.0], False, True, IV),
        # the minor test passes on I - A22, and the LP finds nothing for A22 - I
        ([[0.0, 1e16], [0.0, 0.0]], [1.0, 1.0], True, False, UNDECIDED),
        ([[0.0, 1e16], [0.0, 0.0]], [0.5, 1.0], True, False, UNDECIDED),
    ])
    def test_first_violation_discrete(self, a22, omega0_upper, stable, lp, first):
        """The rows of test_first_violation on the Schur route."""
        self._check_first_violation(synth.DISCRETE, a22, omega0_upper, stable, lp, first)

    def _check_first_violation(self, domain, a22, omega0_upper, stable, lp, first):
        a = np.zeros((3, 3))
        a[1:, 1:] = a22
        system = synth.IntervalSystem(domain=domain, p=1, a_lower=(a,), a_upper=(a,),
                                      x0_lower=np.zeros(3), x0_upper=np.ones(3))
        obs = synth.build_observer(system, np.zeros((2, 1)), [0.0, 0.0], omega0_upper)
        report = synth.check_conditions(system, obs)
        # nonneg_is_schur shifts to I - A22 itself, so it takes A22 as the plant has it
        is_stable = (oracles.metzler_is_hurwitz if domain == synth.CONTINUOUS
                     else oracles.nonneg_is_schur)
        assert is_stable(np.array(a22)) == stable
        assert (report.cond_i, report.cond_ii, report.cond_iii) == (True, True, lp)
        assert (report.certificate is not None) == lp
        assert (report.farkas is not None) == (first == self.FARKAS)
        assert report.first_violation == first
        assert report.passed == (first is None)


def _toy():
    """Discrete toy with A_12 = 0 and A_22 = 2: no gain passes (iii)."""
    a = np.array([[0.0, 0.0], [0.0, 2.0]])
    return synth.IntervalSystem(domain=synth.DISCRETE, p=1, a_lower=(a,), a_upper=(a,),
                                x0_lower=[0.0, 0.0], x0_upper=[1.0, 1.0])


def _two_by_two(x0_lower=(1.0, 1.0)):
    """Continuous 2x2 case whose passing gains are exactly 0.55 < L <= 1."""
    a = np.array([[-3.0, 1.0], [0.5, 0.55]])
    return synth.IntervalSystem(domain=synth.CONTINUOUS, p=1, a_lower=(a,), a_upper=(a,),
                                x0_lower=x0_lower, x0_upper=[1.0, 2.0])


def _witness_holds(system, witness, tol=1e-12):
    """Motzkin's alternative to the LP rows ``a`` of (i), (iii), (iv), by direct
    products: y >= 0, a[:, m:]^T y >= 0 (the Y columns), a[:, :m]^T y >= 0 (the
    lam columns), and the strict (iii) rows of y plus a[:, :m]^T y sum to >= 1."""
    m = system.n - system.p
    a = synth._design_rows(system)
    y = np.asarray(witness)
    on_lam = a[:, :m].T @ y
    return bool(np.all(y >= 0) and np.all(a[:, m:].T @ y >= -tol) and np.all(on_lam >= -tol)
                and y[:m * system.nsub].sum() + on_lam.sum() >= 1.0 - tol)


def _lone_design_rows(system):
    """The rows of :func:`synth._design_rows`, built one subsystem at a time from its
    own contiguous partition blocks, the reference for the stacked build."""
    m, p = system.n - system.p, system.p
    parts = [(matcore.partition(lo, p), matcore.partition(up, p))
             for lo, up in zip(system.a_lower, system.a_upper)]
    eye_m = np.eye(m)
    closure = [pu.a22 if system.domain == synth.CONTINUOUS else pu.a22 - eye_m for _, pu in parts]
    rows = [np.hstack([c.T, -np.kron(np.ones((1, m)), pl.a12.T)])
            for (pl, _), c in zip(parts, closure)]
    keep = ~np.eye(m, dtype=bool).ravel() if system.domain == synth.CONTINUOUS else slice(None)
    spread = np.repeat(eye_m, m, axis=0)
    rows += [np.hstack([-spread[keep] * pl.a22.ravel()[keep, None],
                        np.kron(eye_m, pu.a12.T)[keep]]) for pl, pu in parts]
    rows.append(np.hstack([-np.diag(system.x0_lower[p:]),
                           np.kron(eye_m, system.x0_upper[None, :p])]))
    return np.vstack(rows)


def _lone_gain_rows(system, a, lam, current):
    """The rows and rhs of :func:`synth._gain_step` before its margin, with the (ii)
    block built one subsystem at a time from its own contiguous partition blocks."""
    m, p = current.shape
    rows, rhs = [a[:, m:] * np.repeat(lam, p)], [-(a[:, :m] @ lam)]
    for lo, up in zip(system.a_lower, system.a_upper):
        pl, pu = matcore.partition(lo, p), matcore.partition(up, p)
        ahat = pl.a22 - current @ pu.a12
        rows.append(np.kron(np.eye(m), (pu.a11 + pu.a12 @ current).T) - np.kron(ahat, np.eye(p)))
        rhs.append((pl.a21 + current @ pu.a12 @ current).ravel())
    return np.vstack(rows), np.concatenate(rhs)


def _same_bits(x, y):
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def _hard_search_recipe(rng, n, p=3, nsub=4):
    """Continuous family whose A_22 diagonal sits at 0.2 (unstable at L = 0) while
    every A_12 entry is at least 0.5; a copy of perfbench's gain-search recipe."""
    a_lo, a_up = [], []
    for _ in range(nsub):
        a = rng.uniform(0.0, 0.3, (n, n))
        np.fill_diagonal(a, -1.0)
        a[:p, p:] = rng.uniform(0.5, 1.0, (p, n - p))
        a[p:, p:][np.diag_indices(n - p)] = 0.2
        a_lo.append(a)
        a_up.append(a + 0.02 * (a > 0))
    return synth.IntervalSystem(domain=synth.CONTINUOUS, p=p, a_lower=tuple(a_lo),
                                a_upper=tuple(a_up), x0_lower=np.ones(n),
                                x0_upper=2.0 * np.ones(n))


def _counting_phase1(monkeypatch):
    """Count the phase-1 solves from here on; returns the list of LP shapes."""
    solve = certify._phase1_feasible
    calls = []

    def counting(a, b):
        calls.append(a.shape)
        return solve(a, b)

    monkeypatch.setattr(certify, "_phase1_feasible", counting)
    return calls


def _failing_gain_families(count):
    """The first ``count`` gain families, seeds ``[7, k]`` in alternating domains,
    whose zero gain fails the conditions."""
    k = 0
    while count:
        domain = synth.CONTINUOUS if k % 2 == 0 else synth.DISCRETE
        system = random_gain_family(np.random.default_rng([7, k]), domain)
        k += 1
        zero_gain = np.zeros((system.n - system.p, system.p))
        zero = synth.build_observer(system, zero_gain, *tight_omega(system, zero_gain))
        if not synth.check_conditions(system, zero).passed:
            count -= 1
            yield k - 1, system


def _search_outcome(system):
    """How ``search_gain`` ends: designed, proved (a no-gain witness) or stopped."""
    try:
        synth.search_gain(system, budget=200)
    except synth.GainSearchError as err:
        return "stopped" if err.witness is None else "proved"
    return "designed"


class TestGainSearch:
    def test_fixture_41_search_finds_passing_gain(self, problem_41):
        obs, report = synth.search_gain(problem_41.system, budget=50)
        assert report.passed
        check = synth.check_conditions(problem_41.system, obs)
        assert check.passed

    def test_search_deterministic(self, problem_41):
        a = synth.search_gain(problem_41.system, budget=50)[0]
        b = synth.search_gain(problem_41.system, budget=50)[0]
        assert np.array_equal(a.gain_l, b.gain_l)
        assert np.array_equal(a.omega0_lower, b.omega0_lower)

    def test_unstabilizable_discrete_toy(self):
        system = _toy()
        with pytest.raises(synth.GainSearchError) as err:
            synth.search_gain(system, budget=30)
        assert _witness_holds(system, err.value.witness)
        assert err.value.witness.tolist() == [1.0, 0.0, 0.0]
        assert err.value.candidates == 1
        assert str(err.value) == "proved: no nonnegative gain satisfies (iii)"

    def test_iv_capped_gain_proved(self):
        # condition (iv) forces L = 0 here, while (iii) needs L > 0.55
        system = _two_by_two(x0_lower=[1.0, 0.0])
        with pytest.raises(synth.GainSearchError) as err:
            synth.search_gain(system, budget=30)
        assert str(err.value) == "proved: no nonnegative gain satisfies (iii) and (iv)"
        assert err.value.candidates == 1
        assert _witness_holds(system, err.value.witness)

    def test_budget_exhausted_without_witness(self):
        # G_lower = -L^2, so (ii) forces L = 0, while (iii) needs L > 0.55; the LP
        # for (i), (iii) and (iv) is feasible, so no witness exists.  The gain LP
        # at the first designed gain is infeasible, which ends the search.
        a = np.array([[0.55, 1.0], [0.0, 0.55]])
        system = synth.IntervalSystem(domain=synth.CONTINUOUS, p=1, a_lower=(a,), a_upper=(a,),
                                      x0_lower=[0.5, 1.0], x0_upper=[1.0, 2.0])
        with pytest.raises(synth.GainSearchError) as err:
            synth.search_gain(system, budget=30)
        assert err.value.candidates == 2
        assert err.value.witness is None
        assert err.value.best_gain.tolist() == [[0.0]]
        assert str(err.value).startswith("no passing gain within 2 candidates "
                                         "(best candidate fails (")

    # Families 4607 and 8191 stop on an infeasible gain LP; family 6883's gain LPs
    # stay feasible until the budget runs out.
    @pytest.mark.parametrize("k, at_budget", [(4607, False), (8191, False), (6883, True)])
    def test_search_stops_without_witness(self, k, at_budget):
        domain = synth.CONTINUOUS if k % 2 == 0 else synth.DISCRETE
        system = random_gain_family(np.random.default_rng([7, k]), domain)
        with pytest.raises(synth.GainSearchError) as err:
            synth.search_gain(system, budget=200)
        assert err.value.witness is None
        assert err.value.candidates == 200 if at_budget else err.value.candidates <= 3
        assert str(err.value).startswith(f"no passing gain within {err.value.candidates} "
                                         "candidates (best candidate fails (")

    def test_budget_counts_the_zero_gain(self):
        # the zero gain fails (iii) and the design LP is feasible, so a budget of
        # one stops before the first designed gain
        with pytest.raises(synth.GainSearchError) as err:
            synth.search_gain(_two_by_two(), budget=1)
        assert err.value.candidates == 1
        assert err.value.witness is None
        assert err.value.best_gain.tolist() == [[0.0]]
        assert str(err.value).startswith("no passing gain within 1 candidates "
                                         "(best candidate fails (iii)")

    # The search has no seed; the seed here draws the unit of the state.  The
    # conditions are homogeneous in the start box, so the design must not
    # depend on it: the same gain, and an envelope in the same unit.
    @pytest.mark.parametrize("seed", range(10))
    def test_two_by_two_solved(self, seed):
        unit = 10.0 ** np.random.default_rng(seed).uniform(-3.0, 3.0)
        base = _two_by_two()
        system = replace(base, x0_lower=unit * base.x0_lower, x0_upper=unit * base.x0_upper)
        obs, report = synth.search_gain(system)
        assert report.passed
        assert 0.55 < obs.gain_l[0, 0] <= 1.0
        # the gain LP asks (iii) for the largest margin it can meet, so the
        # gain stays off the stability edge L = 0.55
        assert report.certificate.margin >= 0.05
        reference, _ = synth.search_gain(base)
        assert np.allclose(obs.gain_l, reference.gain_l, rtol=1e-12, atol=0.0)
        assert np.allclose(obs.omega0_lower, unit * reference.omega0_lower, rtol=1e-12, atol=0.0)
        assert np.allclose(obs.omega0_upper, unit * reference.omega0_upper, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("domain", [synth.CONTINUOUS, synth.DISCRETE])
    def test_design_rows_match_observer_algebra(self, domain):
        """At (lam, Y = diag(lam) L) the LP rows equal C_i^T lam for (iii), and
        -lam_r times the Ahat_lower entry or the (iv) start bound otherwise."""
        rng = np.random.default_rng(5)
        for _ in range(30):
            system = random_gain_family(rng, domain)
            m, p = system.n - system.p, system.p
            gain = rng.uniform(0.0, 0.3, size=(m, p))
            lam = rng.uniform(0.1, 1.0, size=m)
            rows = synth._design_rows(system)
            values = rows @ np.concatenate([lam, (lam[:, None] * gain).ravel()])
            obs = synth.build_observer(system, gain, np.zeros(m), np.ones(m))
            shift = np.eye(m) if domain == synth.DISCRETE else 0.0
            keep = np.ones((m, m), bool)
            if domain == synth.CONTINUOUS:
                np.fill_diagonal(keep, False)
            lo_start = system.x0_lower[p:] - gain @ system.x0_upper[:p]
            expected = [(a - shift).T @ lam for a in obs.ahat_upper]
            expected += [-(lam[:, None] * a)[keep] for a in obs.ahat_lower]
            expected.append(-lam * lo_start)
            assert np.allclose(values, np.concatenate(expected), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("domain", [synth.CONTINUOUS, synth.DISCRETE])
    def test_lp_rows_match_lone_subsystem_rows(self, monkeypatch, domain):
        """The design LP rows, and the gain LP rows and rhs that reach certify._decide,
        equal bit for bit (signed zeros included) those built one subsystem at a time."""
        decided = []
        monkeypatch.setattr(certify, "_decide",
                            lambda a, b, **kwargs: decided.append((a, b)) or (None, None))
        rng = np.random.default_rng(13)
        for k in range(100):
            system = random_gain_family(rng, domain)
            m, p = system.n - system.p, system.p
            a = synth._design_rows(system)
            assert _same_bits(a, _lone_design_rows(system))
            lam = rng.uniform(0.1, 1.0, m)
            current = rng.uniform(0.0, 0.3, (m, p)) if k % 5 else np.zeros((m, p))
            decided.clear()
            assert synth._gain_step(system, a, lam, current) is None
            rows, rhs = _lone_gain_rows(system, a, lam, current)
            strict = np.arange(rhs.size) < m * system.nsub
            assert len(decided) == 6
            for (got_a, got_b), delta in zip(decided, 10.0 ** -np.arange(1, 7)):
                assert _same_bits(got_a, rows)
                assert _same_bits(got_b, rhs - delta * strict)

    @pytest.mark.parametrize("a, low, high", [
        # (ii) binds: G(L) = -L^2 + 0.55 L + 0.03, so the first gain, linearised
        # at L = 0, fails (ii) and the second, linearised at it, passes
        ([[0.0, 1.0], [0.03, 0.55]], 0.55, 0.6),
        # (iv) binds: L x0_upper[0] <= x0_lower[1] caps the gain at 1
        ([[-3.0, 1.0], [0.5, 0.95]], 0.95, 1.0),
    ])
    def test_narrow_gain_window_solved(self, a, low, high):
        a = np.array(a)
        system = synth.IntervalSystem(domain=synth.CONTINUOUS, p=1, a_lower=(a,), a_upper=(a,),
                                      x0_lower=[0.5, 1.0], x0_upper=[1.0, 2.0])
        obs, report = synth.search_gain(system, budget=3)
        assert report.passed
        assert low < obs.gain_l[0, 0] <= high

    def test_gain_step_meets_its_constraints(self):
        """A gain from the gain LP meets (i), (iv), (iii) for the given lam with
        margin >= 1e-6, and (ii) linearised at the current gain."""
        rng = np.random.default_rng(9)
        found = 0
        for k in range(60):
            system = random_gain_family(rng, synth.CONTINUOUS if k % 2 else synth.DISCRETE)
            m, p = system.n - system.p, system.p
            parts = [(matcore.partition(lo, p), matcore.partition(up, p))
                     for lo, up in zip(system.a_lower, system.a_upper)]
            lam = rng.uniform(0.1, 1.0, size=m)
            current = rng.uniform(0.0, 0.05, size=(m, p))
            gain = synth._gain_step(system, synth._design_rows(system), lam, current)
            if gain is None:
                continue
            found += 1
            obs = synth.build_observer(system, gain, np.zeros(m), np.ones(m))
            at_current = synth.build_observer(system, current, np.zeros(m), np.ones(m))
            shift = np.eye(m) if system.domain == synth.DISCRETE else 0.0
            for i, (pl, pu) in enumerate(parts):
                ahat = obs.ahat_lower[i].copy()
                if system.domain == synth.CONTINUOUS:
                    np.fill_diagonal(ahat, 0.0)
                assert ahat.min() >= -1e-9
                assert np.all((obs.ahat_upper[i] - shift).T @ lam <= -1e-6 + 1e-12)
                step = gain - current
                linear = (at_current.g_lower[i] + pl.a22 @ step - step @ pu.a12 @ current
                          - current @ pu.a12 @ step - step @ pu.a11)
                assert linear.min() >= -1e-9
            assert np.all(gain @ system.x0_upper[:p] <= system.x0_lower[p:] + 1e-9)
        assert found >= 10

    def test_unconfirmed_witness_not_reported(self, monkeypatch):
        # y = (1, 0) is no witness for the 2x2 case: on the Y column, the (iii)
        # row has -A_12 = -1, so a[:, m:]^T y = -1 < 0
        monkeypatch.setattr(certify, "_phase1_feasible", lambda a, b: (None, np.array([1.0, 0.0])))
        system = _two_by_two()
        assert synth._design_lambda(system, synth._design_rows(system)) \
            == (None, None)

    def test_phase1_solves_per_design(self, monkeypatch):
        calls = _counting_phase1(monkeypatch)
        with pytest.raises(synth.GainSearchError):
            synth.search_gain(_toy())
        assert len(calls) <= 10
        calls.clear()
        synth.search_gain(_two_by_two())
        assert len(calls) <= 20
        # the design LP decides feasibility and proof with one solve
        for system in (_toy(), _two_by_two()):
            calls.clear()
            synth._design_lambda(system, synth._design_rows(system))
            assert len(calls) == 1

    def test_witness_iff_reference_lp_infeasible(self):
        """A witness comes back exactly when HiGHS finds no (lam, vec(Y)) with
        lam >= 1, Y >= 0, the (iii) rows <= -1 and the (i), (iv) rows <= 0 (the
        LP is homogeneous).  Every family whose (iii)-only LP, C_i^T lam - B_i^T w
        <= -1 with lam >= 1 and w >= 0, is infeasible gets one."""
        scipy_opt = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(41)
        witnesses = 0
        for k in range(200):
            system = random_iii_family(rng, synth.CONTINUOUS if k % 2 else synth.DISCRETE)
            p, m = system.p, system.n - system.p
            a = synth._design_rows(system)
            strict = np.arange(a.shape[0]) < m * system.nsub
            ref = scipy_opt.linprog(np.zeros(a.shape[1]), A_ub=a, b_ub=-1.0 * strict,
                                    bounds=[(1, None)] * m + [(0, None)] * (m * p),
                                    method="highs")
            eye = np.eye(m) if system.domain == synth.DISCRETE else 0.0
            iii = np.vstack([np.hstack([(up[p:, p:] - eye).T, -lo[:p, p:].T])
                             for lo, up in zip(system.a_lower, system.a_upper)])
            iii_ref = scipy_opt.linprog(np.zeros(m + p), A_ub=iii, b_ub=-np.ones(iii.shape[0]),
                                        bounds=[(1, None)] * m + [(0, None)] * p, method="highs")
            assert ref.status in (0, 2) and iii_ref.status in (0, 2)
            try:
                synth.search_gain(system, budget=1)
                witness = None
            except synth.GainSearchError as err:
                witness = err.witness
            assert (witness is not None) == (ref.status == 2)
            if iii_ref.status == 2:
                assert witness is not None
            if witness is not None:
                assert _witness_holds(system, witness)
                witnesses += 1
        assert witnesses >= 50

    def test_discrete_family_needing_a_gain_solved(self):
        # The gain LP is infeasible at the lambda of the (iii)-only LP here, so
        # the first lambda must come from the LP for (i), (iii) and (iv) together.
        system = random_gain_family(np.random.default_rng([7, 1387]), synth.DISCRETE)
        m, p = system.n - system.p, system.p
        zero_gain = np.zeros((m, p))
        zero = synth.build_observer(system, zero_gain, *tight_omega(system, zero_gain))
        assert not synth.check_conditions(system, zero).cond_iii
        obs, report = synth.search_gain(system)
        assert report.passed
        assert obs.gain_l.any()
        assert synth.check_conditions(system, obs).passed

    def test_zero_width_stable_system_accepts_zero_gain(self):
        a = np.array([[-2.0, 0.5], [0.3, -3.0]])
        system = synth.IntervalSystem(
            domain=synth.CONTINUOUS, p=1, a_lower=(a,), a_upper=(a,),
            x0_lower=[1.0, 1.0], x0_upper=[2.0, 2.0],
        )
        obs, report = synth.search_gain(system, budget=10)
        assert report.passed
        assert np.array_equal(obs.gain_l, np.zeros((1, 1)))

    def test_every_gain_step_gets_the_exact_lp_lambda(self, monkeypatch):
        # a family whose design linearises (ii) at a first gain before the next passes
        system = random_gain_family(np.random.default_rng([7, 685]), synth.DISCRETE)
        lam, _ = synth._design_lambda(system, synth._design_rows(system))
        steps = []
        gain_step = synth._gain_step

        def spy_step(sys, a, lam, current):
            steps.append(lam.copy())
            return gain_step(sys, a, lam, current)

        monkeypatch.setattr(synth, "_gain_step", spy_step)
        obs, report = synth.search_gain(system)
        assert report.passed
        assert 1 <= len(steps) <= 2
        for step_lam in steps:
            assert np.array_equal(step_lam, lam)

    def test_gain_families_end_designed_or_proved(self, monkeypatch):
        """The first 150 gain families whose zero gain fails are each designed or
        proved, none at the budget; each proof takes <= 10 phase-1 solves."""
        calls = _counting_phase1(monkeypatch)
        designed = proved = 0
        for k, system in _failing_gain_families(150):
            calls.clear()
            try:
                obs, _ = synth.search_gain(system, budget=200)
            except synth.GainSearchError as err:
                assert err.witness is not None, f"family {k}: {err}"
                assert len(calls) <= 10
                assert _witness_holds(system, err.witness)
                proved += 1
            else:
                assert synth.check_conditions(system, obs).passed
                designed += 1
        assert (designed, proved) == (103, 47)

    def test_exact_symmetries_keep_the_search_outcome(self):
        """Reversing the subsystems, appending a copy of subsystem 0, and reversing
        the unmeasured states (the rows and columns past ``p`` of both A stacks and
        both x0 bounds) describe the same model, so the search ends the same way."""
        for k, system in _failing_gain_families(150):
            lo, up, p = system.a_lower, system.a_upper, system.p
            perm = np.r_[:p, system.n - 1 : p - 1 : -1]
            variants = {
                "reversed subsystems": replace(system, a_lower=lo[::-1], a_upper=up[::-1]),
                "copy of subsystem 0": replace(system, a_lower=np.r_[lo, lo[:1]],
                                               a_upper=np.r_[up, up[:1]]),
                "reversed unmeasured states": replace(
                    system, a_lower=lo[:, perm][:, :, perm], a_upper=up[:, perm][:, :, perm],
                    x0_lower=system.x0_lower[perm], x0_upper=system.x0_upper[perm]),
            }
            outcome = _search_outcome(system)
            for name, variant in variants.items():
                assert _search_outcome(variant) == outcome, f"family {k}, {name}"

    def test_hard_search_recipe_proved(self, monkeypatch):
        system = _hard_search_recipe(np.random.default_rng([0, 6, 6]), 6)
        calls = _counting_phase1(monkeypatch)
        with pytest.raises(synth.GainSearchError) as err:
            synth.search_gain(system)
        assert str(err.value).startswith("proved: no nonnegative gain satisfies ")
        assert err.value.candidates == 1
        assert _witness_holds(system, err.value.witness)
        assert len(calls) <= 10

    def test_budget_validation(self, problem_41):
        with pytest.raises(ValueError):
            synth.search_gain(problem_41.system, budget=0)


class TestDesignProcedure:
    """``synthesize`` designs through :func:`synth.search_gain` alone, and checks a
    supplied observer block with :func:`synth.check_conditions` alone."""

    @staticmethod
    def _synthesize(capsys, path, *flags):
        code = cli.main(["synthesize", str(path), *flags])
        out, err = capsys.readouterr()
        return code, out, err

    def _assert_supplied_bytes(self, capsys, problem, example_id):
        """The supplied observer comes back as built, with stderr empty."""
        want = json.dumps(cli.serialize_problem(problem), indent=2,
                          default=np.ndarray.tolist) + "\n"
        assert self._synthesize(capsys, cli.fixture_path(example_id)) == (0, want, "")

    def test_supplied_gain_and_envelope(self, problem_41, capsys):
        self._assert_supplied_bytes(capsys, problem_41, "4.1")

    def test_missing_gain_equals_search_then_build(self, problem_41, tmp_path, capsys):
        doc = cli.serialize_problem(problem_41)
        del doc["observer"]
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc, default=np.ndarray.tolist))
        code, out, err = self._synthesize(capsys, path, "--budget", "50")
        assert (code, err) == (0, "")
        via_search, _ = synth.search_gain(problem_41.system, budget=50)
        observer = json.loads(out)["observer"]
        assert observer["L"] == via_search.gain_l.tolist()
        assert observer["omega0_upper"] == via_search.omega0_upper.tolist()

    def test_supplied_gain_discrete_fixture(self, problem_42, capsys):
        self._assert_supplied_bytes(capsys, problem_42, "4.2")

    def test_bad_supplied_gain_exit_1(self, problem_42, tmp_path, capsys):
        doc = cli.serialize_problem(problem_42)
        doc["observer"]["L"] = np.eye(2).tolist()
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc, default=np.ndarray.tolist))
        out = tmp_path / "solved.json"
        out.write_bytes(b"kept\n")
        supplied = problem_42.observer
        report = synth.check_conditions(problem_42.system, synth.build_observer(
            problem_42.system, np.eye(2), supplied.omega0_lower, supplied.omega0_upper))
        assert self._synthesize(capsys, path, "--out", str(out)) == (
            1, "", f"synthesis failed: supplied gain fails the conditions: "
                   f"{report.first_violation}\n")
        assert out.read_bytes() == b"kept\n"

    def test_bad_supplied_gain_raises(self, problem_42, tmp_path):
        """``cmd_synthesize`` raises the ``DesignError`` that ``main`` maps to exit 1."""
        doc = cli.serialize_problem(problem_42)
        doc["observer"]["L"] = np.eye(2).tolist()
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc, default=np.ndarray.tolist))
        args = cli.build_parser().parse_args(["synthesize", str(path)])
        with pytest.raises(synth.DesignError, match=r"^supplied gain fails the conditions: \("):
            cli.cmd_synthesize(args)

    def test_supplied_gain_skips_the_search(self, problem_41, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("search_gain called for a supplied observer block")

        monkeypatch.setattr(synth, "search_gain", fail)
        self._assert_supplied_bytes(capsys, problem_41, "4.1")


class TestPublicApi:
    REMOVED = ("run_design_procedure", "check_theorem1", "check_theorem2", "check_corollary",
               # no command called these (see tests/test_reach.py)
               "check_lambda", "tight_omega", "is_nonneg", "is_metzler", "metzler_is_hurwitz",
               "nonneg_is_schur", "expm", "partition", "PartitionedBlocks",
               # every layer converts arrays with matcore._as_finite
               "as_matrix", "as_vector")

    def test_removed_names_are_gone(self):
        for name in self.REMOVED:
            assert name not in swposobs.__all__
            assert not hasattr(swposobs, name)
            assert not hasattr(synth, name)
            assert not hasattr(certify, name)
            assert name not in matcore.__all__

    def test_report_has_no_notes(self):
        assert "notes" not in {f.name for f in fields(synth.ConditionReport)}

    def test_search_gain_takes_no_envelope(self, problem_41):
        params = inspect.signature(synth.search_gain).parameters
        assert list(params) == ["sys", "budget"]
        assert params["budget"].default == 200
        observer = problem_41.observer
        with pytest.raises(TypeError):
            synth.search_gain(problem_41.system,
                              omega0=(observer.omega0_lower, observer.omega0_upper))


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
        obs = problem_41.observer
        gain = obs.gain_l.copy()
        gain[0, 0] = np.nan
        with pytest.raises(ValueError, match=r"^L has a non-finite entry at \(0, 0\)$"):
            synth.build_observer(system, gain, obs.omega0_lower, obs.omega0_upper)
        with pytest.raises(ValueError, match=r"^omega0_upper has a non-finite entry at 0$"):
            synth.build_observer(system, obs.gain_l, obs.omega0_lower, [np.nan, 1.0, 1.0])


def test_value_types_are_immutable(problem_41):
    system = problem_41.system
    obs = problem_41.observer
    with pytest.raises(ValueError, match="read-only"):
        system.a_lower[0][0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        system.x0_lower[0] = -1.0
    with pytest.raises(ValueError, match="read-only"):
        obs.gain_l[0, 0] = 5.0
    with pytest.raises(ValueError, match="read-only"):
        obs.ahat_upper[1][0, 0] = 0.0
    cert = synth.check_conditions(system, obs).certificate
    for array in (obs.f, obs.chat, obs.dhat, obs.omega0_lower, cert.lam, cert.residuals):
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 0.5


class TestModelStacks:
    """The model's matrices are frozen (N, n, n) stacks, built from any sequence."""

    @staticmethod
    def _stacks(problem):
        system, obs = problem.system, problem.observer
        n, m, p, nsub = system.n, obs.order, obs.p, system.nsub
        return [(system.a_lower, (nsub, n, n)), (system.a_upper, (nsub, n, n)),
                (obs.ahat_lower, (nsub, m, m)), (obs.ahat_upper, (nsub, m, m)),
                (obs.g_lower, (nsub, m, p)), (obs.g_upper, (nsub, m, p)),
                (problem.truth.a, (nsub, n, n))]

    def test_frozen_stacks(self, problem_41):
        for stack, shape in self._stacks(problem_41):
            assert type(stack) is np.ndarray and stack.shape == shape
            with pytest.raises(ValueError, match="read-only"):
                stack[0, 0, 0] = 1.0
            assert len(stack) == shape[0]
            mats = list(stack)
            assert len(mats) == shape[0]
            for i, mat in enumerate(mats):
                assert mat.shape == shape[1:] and not mat.flags.writeable
                assert np.array_equal(mat, stack[i]) and not stack[i].flags.writeable

    def test_tuple_and_list_input(self, problem_41):
        system, truth = problem_41.system, problem_41.truth
        for convert in (tuple, list, lambda stack: stack.tolist()):
            again = synth.IntervalSystem(domain=system.domain, p=system.p,
                                         a_lower=convert(system.a_lower),
                                         a_upper=convert(system.a_upper),
                                         x0_lower=system.x0_lower, x0_upper=system.x0_upper)
            assert np.array_equal(again.a_lower, system.a_lower)
            assert np.array_equal(again.a_upper, system.a_upper)
            again = sim.TrueSystem(a=convert(truth.a), x0=truth.x0)
            assert np.array_equal(again.a, truth.a)

    def test_input_arrays_are_copied(self, problem_41):
        lower = np.array(problem_41.system.a_lower)
        system = replace(problem_41.system, a_lower=lower)
        lower[0, 0, 0] -= 1.0
        assert system.a_lower[0, 0, 0] == problem_41.system.a_lower[0, 0, 0]
        assert lower.flags.writeable


def test_envelope_bounds_are_the_condition_iv_starts(problem_41):
    """``_envelope_bounds`` gives (iv)'s raw start bounds, which a large gain drives
    below zero; the search clamps the lower one at zero itself."""
    system = problem_41.system
    gain = np.full((3, 2), 2.0)
    lo, up = synth._envelope_bounds(system, gain)
    assert np.any(lo < 0.0)
    assert np.array_equal(lo, system.x0_lower[2:] - gain @ system.x0_upper[:2])
    assert np.array_equal(up, system.x0_upper[2:] - gain @ system.x0_lower[:2])
