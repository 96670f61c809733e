"""Copositive certificate search and verification."""

import dataclasses

import numpy as np
import pytest

from swposobs import certify, matcore

from conftest import random_metzler, random_nonneg


def test_diagonal_family_feasible():
    cert = certify.find_lambda([np.diag([-1.0, -1.0])], margin=0.1)
    assert cert is not None
    assert certify.check_lambda([np.diag([-1.0, -1.0])], cert)
    # the normalised all-ones vector is itself a valid witness here
    hand = dataclasses.replace(cert, lam=np.ones(2), margin=1.0, residuals=np.array([-1.0]))
    assert certify.check_lambda([np.diag([-1.0, -1.0])], hand)


@pytest.mark.parametrize("margin", [1e-2, 1e-4, 1e-6, 1e-8])
def test_scalar_positive_always_infeasible(margin):
    assert certify.find_lambda([np.array([[1.0]])], margin=margin) is None


def test_certificate_normalised_to_unit_max():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        mats = [m - (np.abs(m).sum() + 1.0) * np.eye(n)
                for m in [rng.uniform(0, 1, size=(n, n)) for _ in range(3)]]
        cert = certify.find_lambda(mats)
        assert cert is not None
        assert cert.lam.max() == pytest.approx(1.0, abs=0.0)
        assert cert.margin > 0
        assert cert.residuals.shape == (3,)
        assert np.all(cert.residuals <= -cert.margin)


def test_zeroed_component_fails_check():
    mats = [np.diag([-1.0, -1.0])]
    cert = certify.find_lambda(mats, margin=0.1)
    broken = dataclasses.replace(cert, lam=cert.lam * np.array([1.0, 0.0]))
    assert not certify.check_lambda(mats, broken)


def test_scaled_witness_still_valid():
    mats = [np.array([[-3.0, 1.0], [0.5, -2.0]]), np.array([[-2.5, 0.2], [1.0, -4.0]])]
    cert = certify.find_lambda(mats)
    assert cert is not None
    for factor in (1.0, 2.0, 10.0):
        scaled = dataclasses.replace(cert, lam=factor * cert.lam)
        assert certify.check_lambda(mats, scaled)


def test_soundness_on_random_feasible_families(problem_41):
    obs = problem_41.build_observer()
    cert = certify.find_lambda(list(obs.ahat_upper))
    assert cert is not None
    assert certify.check_lambda(list(obs.ahat_upper), cert)

    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        nsub = int(rng.integers(1, 4))
        mats = []
        for _ in range(nsub):
            m = rng.uniform(0.0, 2.0, size=(n, n))
            np.fill_diagonal(m, -(m.sum(axis=0) + rng.uniform(0.5, 3.0, size=n)))
            mats.append(m)
        cert = certify.find_lambda(mats)
        assert cert is not None
        assert certify.check_lambda(mats, cert)


def test_single_metzler_matrix_matches_hurwitz_oracle():
    rng = np.random.default_rng(13)
    for _ in range(60):
        m = random_metzler(rng)
        feasible = certify.find_lambda([m]) is not None
        assert feasible == matcore.metzler_is_hurwitz(m)


def test_single_shifted_nonneg_matches_schur_oracle():
    rng = np.random.default_rng(14)
    for _ in range(60):
        b = random_nonneg(rng)
        feasible = certify.find_lambda([b - np.eye(b.shape[0])]) is not None
        assert feasible == matcore.nonneg_is_schur(b)


def test_family_feasibility_implies_each_member_hurwitz():
    rng = np.random.default_rng(15)
    found = 0
    for _ in range(80):
        n = int(rng.integers(2, 5))
        mats = [random_metzler(rng, max_size=n) for _ in range(3)]
        mats = [m for m in mats if m.shape == (n, n)]
        if len(mats) < 2:
            continue
        cert = certify.find_lambda(mats)
        if cert is None:
            continue
        found += 1
        for m in mats:
            assert matcore.metzler_is_hurwitz(m)
    assert found >= 1


def test_determinism():
    mats = [np.array([[-3.0, 1.0], [0.5, -2.0]]), np.array([[-2.5, 0.2], [1.0, -4.0]])]
    a = certify.find_lambda(mats)
    b = certify.find_lambda(mats)
    assert np.array_equal(a.lam, b.lam)
    assert a.margin == b.margin


def test_input_validation():
    with pytest.raises(ValueError):
        certify.find_lambda([])
    with pytest.raises(ValueError):
        certify.find_lambda([np.zeros((2, 2)), np.zeros((3, 3))])
    with pytest.raises(ValueError):
        certify.find_lambda([np.zeros((2, 3))])
    with pytest.raises(ValueError):
        certify.find_lambda([np.diag([-1.0])], margin=0.0)
    with pytest.raises(ValueError, match=r"mats\[1\] has a non-finite entry at \(0, 0\)"):
        certify.find_lambda([np.diag([-1.0]), np.diag([np.nan])])
    cert = certify.find_lambda([np.diag([-1.0, -1.0])])
    with pytest.raises(ValueError):
        certify.check_lambda([np.diag([-1.0, -1.0, -1.0])], cert)


def test_margin_sweep_reaches_small_margins():
    # feasible system: every attempted margin succeeds, including tiny ones
    mats = [np.array([[-1e-3]])]
    cert = certify.find_lambda(mats, margin=1e-6)
    assert cert is not None
    assert certify.check_lambda(mats, cert)


def test_phase1_fuzz_against_reference_solver():
    scipy_opt = pytest.importorskip("scipy.optimize")
    from swposobs.certify import _phase1_feasible

    rng = np.random.default_rng(31)
    agreements = 0
    for case in range(300):
        nrows = int(rng.integers(1, 12))
        nvars = int(rng.integers(1, 7))
        a = rng.normal(size=(nrows, nvars))
        b = rng.normal(size=nrows)
        if case % 5 == 0:
            b[rng.integers(nrows)] = 0.0  # degenerate boundary row
        mu = _phase1_feasible(a, b)
        ref = scipy_opt.linprog(np.zeros(nvars), A_ub=a, b_ub=b,
                                bounds=[(0, None)] * nvars, method="highs")
        if mu is not None:
            assert np.all(mu >= 0)
            assert np.all(a @ mu <= b + 1e-7)
        # skip the occasional draw where the reference lands on the boundary
        if ref.status in (0, 2):
            assert (mu is not None) == (ref.status == 0)
            agreements += 1
    assert agreements >= 280
