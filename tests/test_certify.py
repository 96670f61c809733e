"""Copositive certificate search and verification."""

import dataclasses
import time
import warnings

import numpy as np
import pytest

from swposobs import certify, synth

import oracles
from conftest import random_iii_family, random_metzler, random_nonneg


def _holds(mats, cert) -> bool:
    """``certify._lambda_holds``'s verdict on a hand-made ``cert``, which must be the
    verdict of the per-matrix oracle too."""
    mats = np.array(mats, dtype=float)
    verdict = certify._lambda_holds(np.swapaxes(mats, 1, 2), cert)
    assert verdict == oracles.check_lambda(mats, cert)
    return verdict


def test_diagonal_family_feasible():
    cert = certify.find_lambda([np.diag([-1.0, -1.0])])
    assert cert is not None
    assert oracles.check_lambda([np.diag([-1.0, -1.0])], cert)
    # the normalised all-ones vector is itself a valid witness here
    hand = dataclasses.replace(cert, lam=np.ones(2), margin=1.0, residuals=np.array([-1.0]))
    assert _holds([np.diag([-1.0, -1.0])], hand)


def test_scalar_positive_always_infeasible():
    assert certify.find_lambda([np.array([[1.0]])]) is None


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
    cert = certify.find_lambda(mats)
    broken = dataclasses.replace(cert, lam=cert.lam * np.array([1.0, 0.0]))
    assert not _holds(mats, broken)


@pytest.mark.parametrize("mat, margin", [([[1.0]], -1.0), ([[0.0, 0.0], [0.0, 0.0]], 0.0)])
def test_non_positive_margin_rejected(mat, margin):
    """A margin that is not positive certifies nothing: here M^T lam <= -margin holds,
    for an unstable and for a zero matrix."""
    lam = np.ones(len(mat))
    cert = certify.Certificate(lam=lam, margin=margin, residuals=[float(np.max(mat))])
    assert not _holds([mat], cert)


def test_scaled_witness_still_valid():
    mats = [np.array([[-3.0, 1.0], [0.5, -2.0]]), np.array([[-2.5, 0.2], [1.0, -4.0]])]
    cert = certify.find_lambda(mats)
    assert cert is not None
    for factor in (1.0, 2.0, 10.0):
        scaled = dataclasses.replace(cert, lam=factor * cert.lam)
        assert _holds(mats, scaled)


def test_soundness_on_random_feasible_families(problem_41):
    obs = problem_41.build_observer()
    cert = certify.find_lambda(list(obs.ahat_upper))
    assert cert is not None
    assert oracles.check_lambda(list(obs.ahat_upper), cert)

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
        assert oracles.check_lambda(mats, cert)


def _per_matrix_products(mats, v):
    """``M_i^T v`` one matrix at a time: the reference for the stacked product."""
    return np.stack([m.T @ v for m in mats])


@pytest.mark.parametrize("shift", [False, True])
def test_stacked_products_round_as_per_matrix_products(shift):
    """``np.swapaxes(mats, 1, 2) @ v`` on a C-contiguous stack is bit for bit the
    per-matrix ``m.T @ v`` of ``oracles.check_lambda``, with and without the
    discrete ``- I`` shift of condition (iii)."""
    rng = np.random.default_rng(21)
    for _ in range(1500):
        nsub, size = int(rng.integers(1, 13)), int(rng.integers(1, 41))
        mats = rng.normal(size=(nsub, size, size)) * 10.0 ** rng.uniform(-3, 3, (nsub, 1, 1))
        if shift:
            mats = mats - np.eye(size)
        for v in (np.ones(size), rng.uniform(0.0, 1.0, size)):
            stacked = np.swapaxes(mats, 1, 2) @ v
            assert stacked.tobytes() == _per_matrix_products(mats, v).tobytes()


@pytest.mark.parametrize("domain", ["continuous", "discrete"])
def test_certificate_residuals_match_per_matrix_products(domain):
    """The residuals and margin of planted-PASS certificates equal those of the
    per-matrix products, and ``certify._lambda_holds`` agrees with the per-matrix
    check of ``oracles.check_lambda``."""
    rng = np.random.default_rng(22)
    for _ in range(40):
        m, nsub = int(rng.integers(2, 11)), int(rng.integers(1, 6))
        mats = np.array(_planted_family(rng, domain, m, nsub, "PASS"))
        cert = certify.find_lambda(mats)
        assert cert is not None
        products = _per_matrix_products(mats, cert.lam)
        assert cert.residuals.tobytes() == products.max(axis=1).tobytes()
        assert cert.margin == min(float(cert.lam.min()), -float(products.max()))
        for margin in (cert.margin, float(-products.min(axis=1).max())):
            probe = dataclasses.replace(cert, margin=margin)
            holds = certify._lambda_holds(np.swapaxes(mats, 1, 2), probe)
            assert holds == oracles.check_lambda(mats, probe)


def test_single_metzler_matrix_matches_hurwitz_oracle():
    rng = np.random.default_rng(13)
    for _ in range(60):
        m = random_metzler(rng)
        feasible = certify.find_lambda([m]) is not None
        assert feasible == oracles.metzler_is_hurwitz(m)


def test_single_shifted_nonneg_matches_schur_oracle():
    rng = np.random.default_rng(14)
    for _ in range(60):
        b = random_nonneg(rng)
        feasible = certify.find_lambda([b - np.eye(b.shape[0])]) is not None
        assert feasible == oracles.nonneg_is_schur(b)


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
            assert oracles.metzler_is_hurwitz(m)
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
    with pytest.raises(ValueError, match=r"mats\[1\] has a non-finite entry at \(0, 0\)"):
        certify.find_lambda([np.diag([-1.0]), np.diag([np.nan])])
    cert = certify.find_lambda([np.diag([-1.0, -1.0])])
    with pytest.raises(ValueError):
        oracles.check_lambda([np.diag([-1.0, -1.0, -1.0])], cert)


def test_small_stability_margin_certified():
    mats = [np.array([[-1e-3]])]
    cert = certify.find_lambda(mats)
    assert cert is not None
    assert oracles.check_lambda(mats, cert)


def test_phase1_fuzz_against_reference_solver():
    scipy_opt = pytest.importorskip("scipy.optimize")
    from swposobs.certify import _phase1_feasible

    rng = np.random.default_rng(31)
    agreements = infeasible = proved = 0
    for case in range(300):
        nrows = int(rng.integers(1, 12))
        nvars = int(rng.integers(1, 7))
        a = rng.normal(size=(nrows, nvars))
        b = rng.normal(size=nrows)
        if case % 5 == 0:
            b[rng.integers(nrows)] = 0.0  # degenerate boundary row
        mu, y = _phase1_feasible(a, b)
        ref = scipy_opt.linprog(np.zeros(nvars), A_ub=a, b_ub=b,
                                bounds=[(0, None)] * nvars, method="highs")
        if mu is not None:
            assert np.all(mu >= 0)
            assert np.all(a @ mu <= b + 1e-7)
        else:
            infeasible += 1
            if certify._farkas_proof(a, b, y) is not None:
                proved += 1
                assert ref.status == 2  # a verified proof is never wrong
        # skip the occasional draw where the reference lands on the boundary
        if ref.status in (0, 2):
            assert (mu is not None) == (ref.status == 0)
            agreements += 1
    assert agreements >= 280
    assert proved == infeasible == 169


def _reference_phase1(a, b):
    """The scalar phase-1 loop that ``_phase1_feasible`` vectorises (same pivots),
    with the Farkas vector read off the slack columns of its objective row."""
    tol = certify._PIVOT_TOL
    nrows, nvars = a.shape
    neg = b < 0
    tab_a = np.where(neg[:, None], -a, a)
    rhs = np.where(neg, -b, b)
    slack_sign = np.where(neg, -1.0, 1.0)
    art_rows = np.flatnonzero(neg)
    n_art = art_rows.size
    ncols = nvars + nrows + n_art
    tab = np.zeros((nrows + 1, ncols + 1))
    tab[:nrows, :nvars] = tab_a
    tab[np.arange(nrows), nvars + np.arange(nrows)] = slack_sign
    for k, r in enumerate(art_rows):
        tab[r, nvars + nrows + k] = 1.0
    tab[:nrows, -1] = rhs
    basis = nvars + np.arange(nrows)
    basis[art_rows] = nvars + nrows + np.arange(n_art)
    tab[-1, :] = tab[art_rows, :].sum(axis=0)
    tab[-1, nvars + nrows : ncols] -= 1.0
    structural = ncols - n_art
    for _ in range(200 * (ncols + 1)):
        entering = -1
        for j in range(structural):
            if tab[-1, j] > tol:
                entering = j
                break
        if entering < 0:
            break
        leaving = -1
        best_ratio = np.inf
        for i in range(nrows):
            coef = tab[i, entering]
            if coef > tol:
                ratio = tab[i, -1] / coef
                if ratio < best_ratio - tol or (
                    abs(ratio - best_ratio) <= tol
                    and (leaving < 0 or basis[i] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            raise RuntimeError("phase-1 simplex: rounding left the ratio test without a row; "
                               "the LP is undecided")
        tab[leaving, :] /= tab[leaving, entering]
        for i in range(nrows + 1):
            if i != leaving and tab[i, entering] != 0.0:
                tab[i, :] -= tab[i, entering] * tab[leaving, :]
        basis[leaving] = entering
    else:
        raise RuntimeError("phase-1 simplex exceeded its iteration budget")
    scale = max(1.0, float(np.abs(rhs).max(initial=0.0)))
    if tab[-1, -1] > 1e-9 * scale:
        return None, np.array([-tab[-1, nvars + i] for i in range(nrows)])
    mu = np.zeros(nvars)
    for i in range(nrows):
        if basis[i] < nvars:
            mu[basis[i]] = tab[i, -1]
    return np.maximum(mu, 0.0), None


def _outcome(solver, a, b):
    """``mu`` and the Farkas vector as raw bytes or None, or the RuntimeError message."""
    try:
        mu, y = solver(a, b)
    except RuntimeError as exc:
        return f"raised: {exc}"
    return tuple(None if v is None else v.tobytes() for v in (mu, y))


def _fuzz_lps(seed=31, count=300):
    """The random LPs of ``test_phase1_fuzz_against_reference_solver``."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        nrows = int(rng.integers(1, 12))
        nvars = int(rng.integers(1, 7))
        a = rng.normal(size=(nrows, nvars))
        b = rng.normal(size=nrows)
        if case % 5 == 0:
            b[rng.integers(nrows)] = 0.0
        yield a, b


def _planted_family(rng, domain, m, nsub, verdict):
    """Condition-(iii) family of a zero-gain instance with a planted verdict.

    PASS: every member satisfies M^T lam* < 0 (continuous) or M^T lam* < lam*
    (discrete, before the shift by I) for a lam* spread over [e^-2.5, 1], so
    the LP has to pivot.  FAIL: one member is made unstable on its own, so
    the LP is infeasible.
    """
    lam = np.exp(rng.uniform(-2.5, 0.0, m))
    bad = int(rng.integers(nsub)) if verdict == "FAIL" else -1
    family = []
    for i in range(nsub):
        mat = rng.uniform(0.0, 1.0, (m, m)) * (rng.uniform(size=(m, m)) < 0.5)
        if domain == "continuous":
            np.fill_diagonal(mat, 0.0)
            diag = -(lam @ mat + rng.uniform(0.2, 1.0, m) * lam) / lam
            if i == bad:
                diag[int(rng.integers(m))] = rng.uniform(0.1, 0.5)
            np.fill_diagonal(mat, diag)
        else:
            mat *= rng.uniform(0.5, 0.95, m) * lam / np.maximum(lam @ mat, 1e-12)
            if i == bad:
                mat[(j := int(rng.integers(m))), j] = rng.uniform(1.1, 1.5)
            mat -= np.eye(m)
        family.append(mat)
    return family


@pytest.mark.parametrize("domain, m, nsub, k", [
    ("discrete", 20, 10, 8), ("continuous", 40, 3, 102), ("discrete", 40, 3, 78)])
def test_large_planted_pass_certified(domain, m, nsub, k):
    """Planted-PASS families on which the simplex raised SimplexError at the old
    rhs ``-1e-6 * base`` of every margin; the normalised rhs certifies them."""
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng([45, m, nsub, domain == "discrete", k])
    family = _planted_family(rng, domain, m, nsub, "PASS")
    cert = certify.find_lambda(family)
    assert cert is not None
    assert oracles.check_lambda(family, cert)
    a = np.vstack([mat.T for mat in family])
    ref = scipy_opt.linprog(np.zeros(m), A_ub=a, b_ub=-np.ones(len(a)),
                            bounds=[(1, None)] * m, method="highs")
    assert ref.status == 0


@pytest.mark.parametrize("verdict", ["PASS", "FAIL"])
@pytest.mark.parametrize("domain", ["continuous", "discrete"])
@pytest.mark.parametrize("m, nsub", [(20, 10), (40, 3), (40, 10)])
def test_large_planted_families_decided(domain, m, nsub, verdict):
    """Tall planted LPs (up to 400 x 40) are decided with a verified lam or Farkas
    vector in seconds; at (40, 10) the LP as it stands ran about 170 s or raised."""
    for k in range(4):
        rng = np.random.default_rng([47, m, nsub, domain == "discrete", verdict == "PASS", k])
        family = _planted_family(rng, domain, m, nsub, verdict)
        proof = []
        start = time.perf_counter()
        cert = certify.find_lambda(family, proof=proof)
        assert time.perf_counter() - start < 5.0
        if verdict == "PASS":
            assert cert is not None and oracles.check_lambda(family, cert)
        else:
            assert cert is None and len(proof) == 1
            _assert_gordan(family, proof[0])
        assert _highs_feasible(family) == (verdict == "PASS")


def _recording_phase1(monkeypatch, failing=()):
    """Record the shape of every phase-1 solve from here on; raise SimplexError on
    the shapes in ``failing``."""
    solve = certify._phase1_feasible
    shapes = []

    def recording(a, b):
        shapes.append(a.shape)
        if a.shape in failing:
            raise certify.SimplexError("injected failure")
        return solve(a, b)

    monkeypatch.setattr(certify, "_phase1_feasible", recording)
    return shapes


@pytest.mark.parametrize("nrows, nvars, primal_first", [
    (12, 3, False), (12, 3, True), (3, 12, False), (4, 4, False)])
@pytest.mark.parametrize("failing", ["none", "first", "both"])
def test_form_choice_and_retry(monkeypatch, nrows, nvars, primal_first, failing):
    """A tall LP is solved on its Farkas alternative first, any other LP (or a tall one
    with ``primal_first``) as it stands; when the first form raises, the other form
    decides, and only when both raise does the error leave ``_decide``."""
    scipy_opt = pytest.importorskip("scipy.optimize")
    primal, farkas = (nrows, nvars), (nvars + 1, nrows)
    order = [farkas, primal] if nrows > nvars and not primal_first else [primal, farkas]
    raising = {"none": [], "first": order[:1], "both": order}[failing]
    shapes = _recording_phase1(monkeypatch, raising)
    rng = np.random.default_rng([48, nrows, nvars])
    for k in range(20):
        a = rng.normal(size=(nrows, nvars))
        if k % 2:  # planted Farkas vector y0 > 0: a^T y0 >= 0 and b^T y0 = -1
            y0, b = rng.uniform(0.1, 1.0, nrows), rng.normal(size=nrows)
            a[-1] = (rng.uniform(0.0, 1.0, nvars) - y0[:-1] @ a[:-1]) / y0[-1]
            b[-1] = (-1.0 - y0[:-1] @ b[:-1]) / y0[-1]
        else:  # planted solution mu0 > 0, with b[0] < 0 so that some form runs
            a[0] = -np.abs(a[0]) - 1.0
            b = a @ rng.uniform(0.5, 1.0, nvars) + rng.uniform(0.0, 0.1, nrows)
        shapes.clear()
        if failing == "both":
            with pytest.raises(certify.SimplexError, match="injected failure"):
                certify._decide(a, b, primal_first=primal_first)
            assert shapes == order
            continue
        mu, y = certify._decide(a, b, primal_first=primal_first)
        assert shapes == (order[:1] if failing == "none" else order)
        ref = scipy_opt.linprog(np.zeros(nvars), A_ub=a, b_ub=b, bounds=[(0, None)] * nvars,
                                method="highs")
        if k % 2:
            assert mu is None and certify._farkas_proof(a, b, y) is not None
            assert ref.status == 2
        else:
            assert y is None and np.all(mu >= 0) and certify._rows_hold(a, b, mu)
            assert ref.status == 0


def test_pivots_match_scalar_reference_on_fuzz_lps():
    for a, b in _fuzz_lps():
        assert _outcome(certify._phase1_feasible, a, b) == _outcome(_reference_phase1, a, b)
    # small-integer LPs: exact ratio ties, so the tie-break by basis index decides
    rng = np.random.default_rng(32)
    for _ in range(300):
        nrows, nvars = int(rng.integers(2, 10)), int(rng.integers(1, 6))
        a = rng.integers(-2, 3, size=(nrows, nvars)).astype(float)
        b = rng.integers(-2, 3, size=nrows).astype(float)
        assert _outcome(certify._phase1_feasible, a, b) == _outcome(_reference_phase1, a, b)


@pytest.mark.parametrize("domain", ["continuous", "discrete"])
@pytest.mark.parametrize("m, nsub", [(5, 3), (10, 3), (5, 10)])
def test_pivots_match_scalar_reference_on_planted_families(monkeypatch, domain, m, nsub):
    solve = certify._phase1_feasible
    lps = []

    def recording(a, b):
        lps.append((a.copy(), b.copy()))
        return solve(a, b)

    monkeypatch.setattr(certify, "_phase1_feasible", recording)
    rng = np.random.default_rng([41, m, nsub, domain == "discrete"])
    verdicts = {}
    for verdict in ("PASS", "FAIL"):
        for _ in range(4):
            try:
                cert = certify.find_lambda(_planted_family(rng, domain, m, nsub, verdict))
            except RuntimeError:
                continue
            verdicts.setdefault(verdict, set()).add(cert is not None)
    assert verdicts == {"PASS": {True}, "FAIL": {False}}
    for a, b in lps:
        assert _outcome(solve, a, b) == _outcome(_reference_phase1, a, b)


def _counting_rhs(monkeypatch):
    """Record the right-hand side of every phase-1 solve from here on."""
    solve = certify._phase1_feasible
    rhs = []

    def counting(a, b):
        rhs.append(b.copy())
        return solve(a, b)

    monkeypatch.setattr(certify, "_phase1_feasible", counting)
    return rhs


def _unstable_scalar_report():
    """Report at the zero gain of a model whose (iii) family is ``[[1]]``."""
    a = np.array([[-1.0, 0.0], [0.0, 1.0]])
    system = synth.IntervalSystem(domain=synth.CONTINUOUS, p=1, a_lower=(a,), a_upper=(a,),
                                  x0_lower=[1.0, 1.0], x0_upper=[2.0, 2.0])
    return synth.check_conditions(system, synth.build_observer(system, [[0.0]], [1.0], [2.0]))


def test_find_lambda_solves_once(monkeypatch):
    rhs = _counting_rhs(monkeypatch)
    # M = [1]: the LP row is mu <= -(1 + 1), normalised to mu <= -1; its Farkas
    # vector y = [1] proves it infeasible
    proof = []
    assert certify.find_lambda([np.array([[1.0]])], proof=proof) is None
    assert [b.tolist() for b in rhs] == [[-1.0]]
    assert [v.tolist() for v in proof] == [[1.0]]
    rhs.clear()
    report = _unstable_scalar_report()
    assert len(rhs) == 1
    assert report.farkas.tolist() == [1.0]
    assert report.first_violation == (
        "(iii): no common copositive vector exists (verified Farkas vector)")
    rhs.clear()
    # base = 1 + M^T 1 = (0.5, 0.5) > 0, so the square LP pivots, as it stands
    assert certify.find_lambda([np.array([[-1.0, 0.5], [0.5, -1.0]])]) is not None
    assert [b.tolist() for b in rhs] == [[-1.0, -1.0]]


def test_unproved_infeasibility_tries_each_form_once(monkeypatch):
    rhs = _counting_rhs(monkeypatch)
    monkeypatch.setattr(certify, "_farkas_proof", lambda a, b, y: None)
    proof = []
    assert certify.find_lambda([np.array([[1.0]])], proof=proof) is None
    # the LP as it stands, then its Farkas alternative y >= 0, -y <= 0, -y <= -1
    assert [b.tolist() for b in rhs] == [[-1.0], [0.0, -1.0]]
    assert proof == []
    report = _unstable_scalar_report()
    assert report.farkas is None
    assert report.first_violation == ("(iii): no common copositive vector found "
                                      "(no verified certificate or Farkas vector)")


def test_zero_base_gives_unit_lambda(monkeypatch):
    # M = -I: base = 1 + M^T 1 = 0, so the rhs is 0 and mu = 0 with no division
    rhs = _counting_rhs(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = certify.find_lambda([np.diag([-1.0])])
    assert rhs == []
    assert cert.lam.tolist() == [1.0]
    assert oracles.check_lambda([np.diag([-1.0])], cert)


def test_nonnegative_rhs_needs_no_solve(monkeypatch):
    """mu = 0 solves ``a @ mu <= b`` whenever ``b >= 0``: no phase-1 solve, in either form
    and for every caller, and the same zero vector the solve returned."""
    def no_solve(a, b):
        raise AssertionError("phase-1 solve on a nonnegative rhs")

    monkeypatch.setattr(certify, "_phase1_feasible", no_solve)
    rng = np.random.default_rng(46)
    for shape in [(1, 1), (2, 5), (12, 3)]:
        a, b = rng.normal(size=shape), rng.uniform(0.0, 1.0, shape[0])
        b[0] = 0.0
        for primal_first in (False, True):
            mu, y = certify._decide(a, b, primal_first=primal_first)
            assert mu.tobytes() == np.zeros(shape[1]).tobytes() and y is None
    # continuous PASS-ones family: M^T 1 <= -1 on every row, so base <= 0
    family = [np.array([[-3.0, 1.0], [1.0, -2.5]]), np.array([[-2.0, 0.5], [0.0, -4.0]])]
    cert = certify.find_lambda(family)
    assert cert.lam.tolist() == [1.0, 1.0]
    assert oracles.check_lambda(family, cert)


def test_farkas_proof_checks_every_inequality():
    a, y = np.array([[1.0]]), np.array([2.0])
    assert certify._farkas_proof(a, np.array([-1.0]), y).tolist() == [1.0]
    # b^T y >= 0: mu = 0 is a solution
    assert certify._farkas_proof(a, np.array([1.0]), y) is None
    assert certify._farkas_proof(a, np.array([0.0]), y) is None
    # a^T y < 0: mu = 1 solves -mu <= -1
    assert certify._farkas_proof(-a, np.array([-1.0]), y) is None
    # y clipped to zero proves nothing
    assert certify._farkas_proof(a, np.array([-1.0]), -y) is None
    # read-off noise below the pivot tolerance is dropped before the check
    a1, b1 = np.array([[1.0, 0.0], [0.0, -1.0]]), np.array([-1.0, 0.0])
    assert certify._farkas_proof(a1, b1, np.array([1.0, 1e-17])).tolist() == [1.0, 0.0]
    # a^T y within 1e-9 of |a|^T y below zero still proves
    a2, b2 = np.array([[1.0, -1.0], [-1.0 - 1e-10, 1.0]]), np.array([-1.0, 0.0])
    assert certify._farkas_proof(a2, b2, np.ones(2)).tolist() == [0.5, 0.5]
    assert certify._farkas_proof(a2 - [[0.0, 0.0], [1e-8, 0.0]], b2, np.ones(2)) is None


def _full_sweep_find_lambda(mats, margin=1e-6, sweep_to=1e-8):
    """The margin sweep ``find_lambda`` replaced: the closed system at rhs
    ``-eps * base`` for ``eps`` = 1e-6, 1e-7, 1e-8 until one gives a certificate."""
    a = np.vstack([m.T for m in mats])
    ones = np.ones(mats[0].shape[0])
    base = np.concatenate([ones + m.T @ ones for m in mats])
    eps = margin
    while True:
        mu = certify._phase1_feasible(a, -eps * base)[0]
        if mu is not None:
            lam = mu + eps
            lam = lam / lam.max()
            products = [m.T @ lam for m in mats]
            witnessed = min(float(lam.min()), min(float(-v.max()) for v in products))
            if witnessed > 0.0:
                residuals = np.array([float(v.max()) for v in products])
                return certify.Certificate(lam=lam, margin=witnessed, residuals=residuals)
        if eps <= sweep_to * (1 + 1e-12):
            return None
        eps = max(eps / 10.0, sweep_to)


def _one_solve_find_lambda(mats):
    """``find_lambda`` spelled out: one phase-1 solve at rhs ``-base / max|base|``,
    ``lam = mu * max|base| + 1`` normalised to ``max(lam) = 1``."""
    a = np.vstack([m.T for m in mats])
    ones = np.ones(mats[0].shape[0])
    base = np.concatenate([ones + m.T @ ones for m in mats])
    scale = np.abs(base).max()
    mu = certify._phase1_feasible(a, -base / scale)[0]
    if mu is None:
        return None
    lam = mu * scale + 1.0
    lam = lam / lam.max()
    products = [m.T @ lam for m in mats]
    witnessed = min(float(lam.min()), min(float(-v.max()) for v in products))
    if witnessed <= 0.0:
        return None
    residuals = np.array([float(v.max()) for v in products])
    return certify.Certificate(lam=lam, margin=witnessed, residuals=residuals)


def _highs_feasible(mats):
    """HiGHS's verdict on the closed system ``lam >= 1``, ``M_i^T lam <= -1``."""
    scipy_opt = pytest.importorskip("scipy.optimize")
    a = np.vstack([m.T for m in mats])
    ref = scipy_opt.linprog(np.zeros(a.shape[1]), A_ub=a, b_ub=-np.ones(len(a)),
                            bounds=[(1, None)] * a.shape[1], method="highs")
    assert ref.status in (0, 2)
    return ref.status == 0


def _assert_gordan(mats, v):
    """``v = (v_1, ..., v_N)``: ``1^T v = 1`` and ``sum_i M_i v_i >= -1e-9 sum_i |M_i| v_i``."""
    blocks = v.reshape(len(mats), -1)
    assert np.all(v >= 0)
    assert v.sum() == pytest.approx(1.0, abs=1e-12)
    combo = sum(m @ w for m, w in zip(mats, blocks))
    scale = sum(np.abs(m) @ w for m, w in zip(mats, blocks))
    assert np.all(combo >= -1e-9 * scale)


def _same_outcome_as_full_sweep(mats):
    """Check ``find_lambda`` against its one-solve spelling and the margin sweep (the
    same verdict) and against HiGHS, its ``lam`` with ``oracles.check_lambda`` and its
    proof as a Gordan vector; returns the certificate and the proof."""
    proof = []
    cert = certify.find_lambda(mats, proof=proof)
    for reference in (_one_solve_find_lambda, _full_sweep_find_lambda):
        assert (cert is None) == (reference(mats) is None)
    assert (cert is not None) == _highs_feasible(mats)
    if cert is not None:
        assert oracles.check_lambda(mats, cert)
    if proof:
        assert cert is None
        _assert_gordan(mats, proof[0])
    return cert, proof[0] if proof else None


@pytest.mark.parametrize("domain", ["continuous", "discrete"])
@pytest.mark.parametrize("m, nsub", [(5, 3), (10, 3), (5, 10)])
def test_farkas_stop_keeps_outcomes_on_planted_families(domain, m, nsub):
    rng = np.random.default_rng([43, m, nsub, domain == "discrete"])
    for verdict in ("PASS", "FAIL") * 4:
        _, proof = _same_outcome_as_full_sweep(_planted_family(rng, domain, m, nsub, verdict))
        # every planted FAIL is proved
        assert (proof is not None) == (verdict == "FAIL")


def test_farkas_stop_keeps_outcomes_on_random_iii_families():
    rng = np.random.default_rng(44)
    failed = proved = 0
    for k in range(300):
        system = random_iii_family(rng, synth.CONTINUOUS if k % 2 else synth.DISCRETE)
        obs = synth.build_observer(system, np.zeros((system.n - system.p, system.p)),
                                   system.x0_lower[system.p:], system.x0_upper[system.p:])
        family = synth._cond_iii_family(obs.ahat_upper, system.domain)
        cert, proof = _same_outcome_as_full_sweep(family)
        failed += cert is None
        proved += proof is not None
    # every infeasible family of this corpus is proved
    assert proved == failed > 100
