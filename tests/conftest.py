"""Shared fixtures: bundled example problems, random generators, oracles."""

from __future__ import annotations

import numpy as np
import pytest

from swposobs import cli, sim, synth


@pytest.fixture(scope="session")
def problem_41() -> cli.Problem:
    return cli.load_problem(str(cli.fixture_path("4.1")))


@pytest.fixture(scope="session")
def problem_42() -> cli.Problem:
    return cli.load_problem(str(cli.fixture_path("4.2")))


@pytest.fixture(scope="session")
def trace_41(problem_41) -> sim.SimulationTrace:
    sw = problem_41.switching
    sig = sim.make_switching_signal(
        problem_41.system.nsub, sw["horizon"], sw["min_dwell"], sw["seed"]
    )
    return sim.simulate_continuous(
        problem_41.system,
        problem_41.truth,
        problem_41.observer,
        sig,
        step=problem_41.sim_settings["step"],
        horizon=sw["horizon"],
    )


@pytest.fixture(scope="session")
def trace_42(problem_42) -> sim.SimulationTrace:
    sw = problem_42.switching
    sig = sim.make_switching_signal(
        problem_42.system.nsub, sw["steps"], sw["min_dwell"], sw["seed"], domain="discrete"
    )
    return sim.simulate_discrete(
        problem_42.system, problem_42.truth, problem_42.observer, sig, sw["steps"]
    )


# ---------------------------------------------------------------------------
# random generators


def random_metzler(rng: np.random.Generator, max_size: int = 5,
                   lo: float = -30.0, hi: float = 10.0) -> np.ndarray:
    """Entries uniform in [lo, hi] with off-diagonals clamped at zero."""
    n = int(rng.integers(1, max_size + 1))
    m = rng.uniform(lo, hi, size=(n, n))
    off_mask = ~np.eye(n, dtype=bool)
    m[off_mask] = np.maximum(m[off_mask], 0.0)
    return m


def ordered_metzler_pair(rng: np.random.Generator, max_size: int = 5):
    """Metzler pair with m <= n elementwise (n = m plus a nonnegative bump)."""
    m = random_metzler(rng, max_size)
    n = m + rng.uniform(0.0, 0.5, size=m.shape)
    return m, n


def random_nonneg(rng: np.random.Generator, max_size: int = 5) -> np.ndarray:
    """Dense positive matrix whose spectral radius straddles 1 across draws."""
    n = int(rng.integers(1, max_size + 1))
    b = rng.uniform(0.0, 1.0, size=(n, n))
    return b * rng.uniform(0.1, 2.5) / max(n / 2.0, 1.0)


def random_interval_system(rng: np.random.Generator, domain: str) -> synth.IntervalSystem:
    """Well-conditioned random interval model that passes the checker at L = 0.

    Continuous matrices are made column-dominant with negative diagonals so
    the upper 22-block admits the all-ones copositive vector; discrete
    matrices keep all column sums below one.
    """
    n = int(rng.integers(3, 6))
    p = int(rng.integers(1, min(3, n)))
    nsub = int(rng.integers(2, 4))
    a_lo, a_up = [], []
    for _ in range(nsub):
        if domain == synth.CONTINUOUS:
            off_lo = rng.uniform(0.0, 2.0, size=(n, n))
            width = rng.uniform(0.0, 0.5, size=(n, n))
            lo = off_lo.copy()
            up = off_lo + width
            col_sums = up.sum(axis=0) - np.diagonal(up)
            diag_up = -(col_sums + rng.uniform(1.0, 5.0, size=n))
            np.fill_diagonal(up, diag_up)
            np.fill_diagonal(lo, diag_up - rng.uniform(0.0, 0.5, size=n))
        else:
            up = rng.uniform(0.0, 1.0, size=(n, n))
            up *= rng.uniform(0.3, 0.9, size=n) / np.maximum(up.sum(axis=0), 1e-9)
            lo = up * rng.uniform(0.3, 1.0, size=(n, n))
        a_lo.append(lo)
        a_up.append(up)
    x0_lo = rng.uniform(0.0, 5.0, size=n)
    x0_up = x0_lo + rng.uniform(0.0, 3.0, size=n)
    return synth.IntervalSystem(
        domain=domain, p=p, a_lower=tuple(a_lo), a_upper=tuple(a_up),
        x0_lower=x0_lo, x0_upper=x0_up,
    )


def random_gain_family(rng: np.random.Generator, domain: str) -> synth.IntervalSystem:
    """Random interval model whose zero gain often fails and some gain may pass.

    The unmeasured states drive the measured ones strongly (every entry of
    the upper A_12 block is at least 0.2), so a gain can act on them, while
    the unmeasured block A_22 is near or past the stability edge.
    """
    n = int(rng.integers(3, 6))
    p = int(rng.integers(1, min(3, n)))
    m = n - p
    lo_l, up_l = [], []
    for _ in range(int(rng.integers(1, 4))):
        if domain == synth.CONTINUOUS:
            up = rng.uniform(0.0, 1.0, (n, n))
            up[:p, p:] = rng.uniform(0.5, 2.0, (p, m))
            cols = up.sum(axis=0) - np.diagonal(up)
            diag = -cols + rng.uniform(-1.5, 1.0, n)
            diag[:p] = -cols[:p] - rng.uniform(2.0, 6.0, p)
            np.fill_diagonal(up, diag)
            lo = up - rng.uniform(0.0, 0.2, (n, n)) * (up > 0)
            off = ~np.eye(n, dtype=bool)
            lo[off] = np.maximum(lo[off], 0.0)
            lo[np.diag_indices(n)] = diag - rng.uniform(0.0, 0.3, n)
        else:
            up = rng.uniform(0.0, 1.0, (n, n))
            up[:, p:] *= rng.uniform(0.7, 1.4, m) / np.maximum(up[:, p:].sum(axis=0), 1e-9)
            up[:, :p] *= 0.5 / np.maximum(up[:, :p].sum(axis=0), 1e-9)
            up[:p, p:] = np.maximum(up[:p, p:], rng.uniform(0.2, 0.8, (p, m)))
            lo = up * rng.uniform(0.6, 1.0, (n, n))
        lo_l.append(lo)
        up_l.append(up)
    x0l = rng.uniform(0.0, 1.0, n)
    x0l[p:] += rng.uniform(1.0, 3.0, m)
    return synth.IntervalSystem(domain=domain, p=p, a_lower=tuple(lo_l), a_upper=tuple(up_l),
                                x0_lower=x0l, x0_upper=x0l + rng.uniform(0.0, 1.0, n))


def random_iii_family(rng: np.random.Generator, domain: str) -> synth.IntervalSystem:
    """Random interval model for which condition (iii) may fail for every gain.

    About half of the A_12 entries are zero, so some unmeasured states are
    invisible in the output, and the diagonal of A_22 straddles the stability
    edge.
    """
    n = int(rng.integers(2, 6))
    p = int(rng.integers(1, min(3, n)))
    lo_l, up_l = [], []
    for _ in range(int(rng.integers(1, 4))):
        if domain == synth.CONTINUOUS:
            up = rng.uniform(0.0, 1.0, (n, n))
            np.fill_diagonal(up, rng.uniform(-4.0, 0.5, n))
        else:
            up = rng.uniform(0.0, 0.6, (n, n))
            np.fill_diagonal(up, rng.uniform(0.0, 1.5, n))
        up[:p, p:] *= rng.uniform(size=(p, n - p)) < 0.5
        lo = up - rng.uniform(0.0, 0.2, (n, n)) * (up > 0)
        off = ~np.eye(n, dtype=bool) if domain == synth.CONTINUOUS else np.ones((n, n), bool)
        lo[off] = np.maximum(lo[off], 0.0)
        lo_l.append(lo)
        up_l.append(up)
    x0l = rng.uniform(0.0, 1.0, n)
    return synth.IntervalSystem(domain=domain, p=p, a_lower=tuple(lo_l), a_upper=tuple(up_l),
                                x0_lower=x0l, x0_upper=x0l + rng.uniform(0.0, 1.0, n))


def tight_omega(system: synth.IntervalSystem, gain) -> tuple[np.ndarray, np.ndarray]:
    """Tightest admissible observer start envelope for ``gain``: condition (iv)'s
    bounds, with the lower one clamped at zero."""
    lo, up = synth._envelope_bounds(system, np.asarray(gain, dtype=float))
    return np.maximum(lo, 0.0), up


def random_passing_scenario(rng: np.random.Generator, domain: str):
    """System plus checked observer plus admissible truth for bracket tests.

    Half the scenarios try a small random nonnegative gain first and keep it
    when the checker passes; the rest (and any failures) use the zero gain,
    which passes by construction of the generator.
    """
    system = random_interval_system(rng, domain)
    m, p = system.n - system.p, system.p
    candidates = [np.zeros((m, p))]
    if rng.uniform() < 0.5:
        candidates.insert(0, rng.uniform(0.0, 0.1, size=(m, p)))
    obs = report = None
    for gain in candidates:
        w_lo, w_up = tight_omega(system, gain)
        if np.any(w_lo < 0) or np.any(w_up < w_lo):
            continue
        candidate_obs = synth.build_observer(system, gain, w_lo, w_up)
        candidate_report = synth.check_conditions(system, candidate_obs)
        if candidate_report.passed:
            obs, report = candidate_obs, candidate_report
            break
    assert report is not None and report.passed, "generator must produce passing scenarios"
    truth = sim.TrueSystem(
        a=tuple(lo + rng.uniform(size=lo.shape) * (up - lo)
                for lo, up in zip(system.a_lower, system.a_upper)),
        x0=system.x0_lower + rng.uniform(size=system.n) * (system.x0_upper - system.x0_lower),
    )
    return system, obs, truth


# ---------------------------------------------------------------------------
# independent oracles


def series_expm(m: np.ndarray, t: float, max_terms: int = 400) -> np.ndarray:
    """Brute-force Taylor series for e^{mt}; usable for moderate norms."""
    x = np.asarray(m, dtype=float) * t
    term = np.eye(x.shape[0])
    total = term.copy()
    for k in range(1, max_terms):
        term = term @ x / k
        total += term
        if np.abs(term).max() < 1e-18 * max(1.0, np.abs(total).max()):
            return total
    raise RuntimeError("series did not converge; norm too large for the oracle")


def charpoly_coeffs(m: np.ndarray) -> np.ndarray:
    """det(sI - m) coefficients via the Faddeev-LeVerrier recursion."""
    n = m.shape[0]
    coeffs = np.empty(n + 1)
    coeffs[0] = 1.0
    work = np.eye(n)
    for k in range(1, n + 1):
        work = m @ work
        coeffs[k] = -np.trace(work) / k
        work += coeffs[k] * np.eye(n)
    return coeffs


def spectral_abscissa_bruteforce(m: np.ndarray) -> float:
    """Max real part of the eigenvalues via characteristic-polynomial roots."""
    return float(np.max(np.roots(charpoly_coeffs(m)).real))


def perron_radius(b: np.ndarray, tol: float = 1e-10, max_iter: int = 100000):
    """Spectral radius of a positive matrix by Collatz-Wielandt bracketing.

    Returns None when the bracket fails to tighten (reducible or otherwise
    degenerate input); callers should skip such draws.
    """
    n = b.shape[0]
    v = np.ones(n)
    for _ in range(max_iter):
        w = b @ v
        if np.any(w <= 0):
            return None
        ratios = w / v
        lo, hi = float(ratios.min()), float(ratios.max())
        if hi - lo < tol:
            return 0.5 * (lo + hi)
        v = w / w.sum()
    return None
