"""Output checks written against the README's mathematics, in plain numpy.

Nothing here imports swposobs: every verdict the benchmark accepts is
re-derived from the problem data it generated and the bytes the command
line wrote.  Each ``check_*`` function returns a list of problems found; an
empty list means the output is correct.
"""

from __future__ import annotations

import io
import math
import re

import numpy as np

# A witness lambda is printed with 12 significant digits; the margins the
# certifier closes with are at least 1e-8 of max(lambda) = 1, so rounding
# cannot flip a strict inequality that held before printing.
LAMBDA_RE = re.compile(r"copositive witness lambda = \[([^\]]*)\]")
VIOLATIONS_RE = re.compile(r"violations: nonneg=(\d+) lower=(\d+) upper=(\d+)")
# Entry tolerance of the sign tests in conditions (i), (ii), (iv).
SIGN_TOL = 1e-9
# Trace CSV floats carry 13 significant digits.
CSV_REL = 2e-12


def blocks(doc: dict):
    """Per-subsystem (lower, upper) matrices of a problem document."""
    lo = [np.array(m, dtype=float) for m in doc["A_lower"]]
    up = [np.array(m, dtype=float) for m in doc["A_upper"]]
    return lo, up


def observer_matrices(doc: dict, gain):
    """Ahat_lower, Ahat_upper, G_lower, G_upper per subsystem (README formulas)."""
    p = int(doc["p"])
    gain = np.array(gain, dtype=float)
    out = {"ahat_lower": [], "ahat_upper": [], "g_lower": [], "g_upper": []}
    for lo, up in zip(*blocks(doc)):
        al = lo[p:, p:] - gain @ up[:p, p:]
        au = up[p:, p:] - gain @ lo[:p, p:]
        out["ahat_lower"].append(al)
        out["ahat_upper"].append(au)
        out["g_lower"].append(al @ gain + lo[p:, :p] - gain @ up[:p, :p])
        out["g_upper"].append(au @ gain + up[p:, :p] - gain @ lo[:p, :p])
    return out


def copositive_family(doc: dict, gain) -> list[np.ndarray]:
    """Matrices M_i of condition (iii): Ahat_upper, shifted by -I in discrete time."""
    mats = observer_matrices(doc, gain)["ahat_upper"]
    if doc["domain"] == "discrete":
        mats = [m - np.eye(m.shape[0]) for m in mats]
    return mats


def parse_lambda(stdout: str):
    match = LAMBDA_RE.search(stdout)
    if match is None:
        return None
    return np.array([float(v) for v in match.group(1).split(",")])


def check_lambda(mats, lam) -> list[str]:
    """lambda > 0 and M_i^T lambda < 0 for every i, by direct products."""
    if lam is None:
        return ["no copositive witness printed"]
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (mats[0].shape[0],):
        return [f"witness has length {lam.size}, expected {mats[0].shape[0]}"]
    errors = []
    if not np.all(lam > 0):
        errors.append(f"witness not positive: min lambda = {lam.min():.3g}")
    for i, m in enumerate(mats):
        worst = float((m.T @ lam).max())
        if not worst < 0:
            errors.append(f"M_{i}^T lambda not negative: max = {worst:.3g}")
    return errors


def check_conditions(doc: dict, gain, omega_lower, omega_upper, lam) -> dict:
    """Re-derive conditions (i)-(iv) for ``gain``; returns {condition: problem}."""
    continuous = doc["domain"] == "continuous"
    p = int(doc["p"])
    gain = np.array(gain, dtype=float)
    mats = observer_matrices(doc, gain)
    failed = {}
    if np.any(gain < 0):
        failed["gain"] = "gain has a negative entry"
    for i, a in enumerate(mats["ahat_lower"]):
        probe = a.copy()
        if continuous:
            np.fill_diagonal(probe, 0.0)
        if probe.min(initial=0.0) < -SIGN_TOL:
            failed["i"] = f"Ahat_lower[{i}] not {'Metzler' if continuous else 'nonnegative'}"
            break
    for i, g in enumerate(mats["g_lower"]):
        if g.min(initial=0.0) < -SIGN_TOL:
            failed["ii"] = f"G_lower[{i}] has a negative entry ({g.min():.3g})"
            break
    errors = check_lambda(copositive_family(doc, gain), lam)
    if errors:
        failed["iii"] = "; ".join(errors)
    x0l = np.array(doc["x0_lower"], dtype=float)
    x0u = np.array(doc["x0_upper"], dtype=float)
    w_lo = np.array(omega_lower, dtype=float)
    w_up = np.array(omega_upper, dtype=float)
    if (np.any(w_lo < -SIGN_TOL)
            or np.any(w_lo > x0l[p:] - gain @ x0u[:p] + SIGN_TOL)
            or np.any(w_up < x0u[p:] - gain @ x0l[:p] - SIGN_TOL)):
        failed["iv"] = "observer start envelope not admissible"
    return failed


def unstable(mat: np.ndarray, domain: str) -> bool:
    """Eigenvalue test: not Hurwitz (continuous) or not Schur (discrete)."""
    eig = np.linalg.eigvals(mat)
    if domain == "continuous":
        return bool(eig.real.max() >= 0.0)
    return bool(np.abs(eig).max() >= 1.0)


def check_check_pass(doc: dict, rc: int, stdout: str) -> list[str]:
    """`check` on an instance with a planted copositive vector."""
    errors = [] if rc == 0 else [f"exit code {rc}, expected 0"]
    if "overall: PASS" not in stdout:
        errors.append("report does not say overall: PASS")
    gain = doc["observer"]["L"]
    return errors + check_lambda(copositive_family(doc, gain), parse_lambda(stdout))


def check_check_fail(doc: dict, bad: int, rc: int, stdout: str) -> list[str]:
    """`check` on an instance whose subsystem ``bad`` is unstable on its own.

    Such a subsystem admits no copositive vector, so no common one exists
    for any family containing it: FAIL on (iii) is the only right verdict.
    """
    errors = [] if rc == 1 else [f"exit code {rc}, expected 1"]
    if not re.search(r"condition \(iii\).*FAIL", stdout):
        errors.append("report does not fail condition (iii)")
    mats = observer_matrices(doc, doc["observer"]["L"])["ahat_upper"]
    if not unstable(mats[bad], doc["domain"]):
        errors.append(f"planted subsystem {bad} is stable by its eigenvalues")
    return errors


def check_no_gain(doc: dict, rc: int, stderr: str) -> list[str]:
    """`synthesize` on a model that no nonnegative gain can make pass (iii).

    When every A_12 block is zero, Ahat_upper = A_upper^22 for every gain;
    an unstable A_upper^22 then rules out (iii) for all gains.
    """
    errors = [] if rc == 1 else [f"exit code {rc}, expected 1"]
    if "synthesis failed" not in stderr:
        errors.append("no 'synthesis failed' message")
    p = int(doc["p"])
    lo, up = blocks(doc)
    if any(np.any(m[:p, p:] != 0) for m in lo):
        errors.append("A_lower^12 is not zero; the no-gain argument does not apply")
    if not any(unstable(m[p:, p:], doc["domain"]) for m in up):
        errors.append("no A_upper^22 block is unstable")
    return errors


# ---------------------------------------------------------------------------
# simulation: switching, truth and reference trajectories


def switching(nsub: int, horizon: float, min_dwell: float, seed: int, discrete: bool):
    """Switch times and 1-based ids as the README's seeded switching defines them."""
    rng = np.random.default_rng(seed)
    times, ids = [0.0], [int(rng.integers(1, nsub + 1))]
    if nsub > 1 and 0 < min_dwell < horizon:
        t = 0.0
        while True:
            dwell = rng.uniform(min_dwell, 2.0 * min_dwell)
            if discrete:
                dwell = max(1.0, float(round(dwell)))
            t += dwell
            if t >= horizon:
                break
            others = [j for j in range(1, nsub + 1) if j != ids[-1]]
            times.append(t)
            ids.append(others[int(rng.integers(len(others)))])
    return np.array(times), np.array(ids)


def active(times, ids, t):
    """Active id at each time in ``t`` (right-continuous)."""
    pos = np.searchsorted(times, t, side="right") - 1
    return ids[np.maximum(pos, 0)]


def sample_truth(doc: dict, seed: int):
    """The realization ``--sample-truth seed`` draws: uniform in each interval."""
    rng = np.random.default_rng(seed)
    lo, up = blocks(doc)
    mats = [a + rng.uniform(size=a.shape) * (b - a) for a, b in zip(lo, up)]
    x0l = np.array(doc["x0_lower"], dtype=float)
    x0u = np.array(doc["x0_upper"], dtype=float)
    return mats, x0l + rng.uniform(size=x0l.size) * (x0u - x0l)


def _generator(a: np.ndarray, ahat_l, g_l, ahat_u, g_u, p: int) -> np.ndarray:
    """Block matrix driving (x, omega_lower, omega_upper)."""
    n, m = a.shape[0], ahat_l.shape[0]
    big = np.zeros((n + 2 * m, n + 2 * m))
    big[:n, :n] = a
    big[n:n + m, :p] = g_l
    big[n:n + m, n:n + m] = ahat_l
    big[n + m:, :p] = g_u
    big[n + m:, n + m:] = ahat_u
    return big


def expm(mat: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling, a 20-term Taylor sum, and squaring."""
    norm = float(np.abs(mat).sum(axis=1).max())
    squarings = max(0, math.ceil(math.log2(norm / 0.25))) if norm > 0.25 else 0
    x = mat / 2.0 ** squarings
    out = np.eye(mat.shape[0])
    for k in range(20, 0, -1):
        out = np.eye(mat.shape[0]) + x @ out / k
    for _ in range(squarings):
        out = out @ out
    return out


def reference_trajectory(doc: dict, truth, times: np.ndarray, ids: np.ndarray):
    """x, xhat_lower, xhat_upper at ``times``: exact flow (continuous) or map iteration.

    ``ids[k]`` is the subsystem active on [times[k], times[k+1]).
    """
    obs = doc["observer"]
    p, n = int(doc["p"]), int(doc["n"])
    gain = np.array(obs["L"], dtype=float)
    mats = observer_matrices(doc, gain)
    a_true, x0 = truth
    gens = [_generator(a_true[i], mats["ahat_lower"][i], mats["g_lower"][i],
                       mats["ahat_upper"][i], mats["g_upper"][i], p)
            for i in range(len(a_true))]
    z = np.concatenate([x0, obs["omega0_lower"], obs["omega0_upper"]])
    rows = np.empty((times.size, z.size))
    rows[0] = z
    continuous = doc["domain"] == "continuous"
    cache = {}
    for k in range(times.size - 1):
        i = int(ids[k]) - 1
        if continuous:
            h = float(times[k + 1] - times[k])
            key = (i, round(h, 15))
            if key not in cache:
                cache[key] = expm(gens[i] * h)
            z = cache[key] @ z
        else:
            z = gens[i] @ z
        rows[k + 1] = z
    m = n - p
    x = rows[:, :n]
    y = x[:, :p]
    xhat_l = np.hstack([y, rows[:, n:n + m] + y @ gain.T])
    xhat_u = np.hstack([y, rows[:, n + m:] + y @ gain.T])
    return x, xhat_l, xhat_u


def csv_header(n: int) -> str:
    cols = (["t"] + [f"x{j}" for j in range(1, n + 1)]
            + [f"xhatl{j}" for j in range(1, n + 1)]
            + [f"xhatu{j}" for j in range(1, n + 1)]
            + [f"xi{j}" for j in range(1, n + 1)] + ["sigma"])
    return ",".join(cols)


def sim_grid(doc: dict, sw_times, horizon=None, steps=None) -> np.ndarray:
    """Sample times: the uniform step grid plus every switch instant (continuous)."""
    if doc["domain"] == "discrete":
        return np.arange(steps + 1, dtype=float)
    step = float(doc["sim"]["step"])
    base = np.arange(int(np.floor(horizon / step + 1e-9)) + 1) * step
    inner = sw_times[(sw_times > 0) & (sw_times < horizon)]
    return np.unique(np.concatenate([base, inner, [horizon]]))


def check_trace(doc: dict, text: str, times, ids, ref, tol: float, ref_rel: float):
    """Check a trace CSV against the grid, switching and reference trajectory.

    Returns ``(problems, state_err)``.  ``state_err`` is the largest
    deviation of x, xhat_lower and xhat_upper from ``ref``; in continuous time
    it is scaled by max |x| and must stay below ``ref_rel``, in discrete time
    it is elementwise relative and must stay below ``ref_rel``.
    """
    n = int(doc["n"])
    header, _, body = text.partition("\n")
    if header != csv_header(n):
        return [f"CSV header {header[:60]!r}... is wrong"], math.inf
    data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    if data.shape != (times.size, 4 * n + 2):
        return [f"CSV has shape {data.shape}, expected ({times.size}, {4 * n + 2})"], math.inf
    errors = []
    if not np.allclose(data[:, 0], times, rtol=CSV_REL, atol=1e-15):
        errors.append("sample times differ from the step grid with switch instants")
    if not np.array_equal(data[:, -1].astype(int), active(times, ids, times)):
        errors.append("sigma column differs from the seeded switching")
    x, xl, xu = data[:, 1:n + 1], data[:, n + 1:2 * n + 1], data[:, 2 * n + 1:3 * n + 1]
    slack = CSV_REL * np.maximum(np.abs(x), np.maximum(np.abs(xl), np.abs(xu)))
    bad = int((xl < -tol - slack).sum() + (xl > x + tol + slack).sum()
              + (x > xu + tol + slack).sum())
    if bad:
        errors.append(f"{bad} bracket violations in the CSV")
    if not np.allclose(data[:, 3 * n + 1:4 * n + 1], xu - xl, rtol=1e-9, atol=1e-9 * np.abs(xu).max()):
        errors.append("xi column is not xhat_upper - xhat_lower")
    dev = np.abs(np.hstack([x, xl, xu]) - np.hstack(ref))
    if doc["domain"] == "continuous":
        state_err = float(dev.max() / np.abs(ref[0]).max())
    else:
        scale = np.abs(np.hstack(ref))
        state_err = float((dev / np.where(scale > 0, scale, 1.0)).max())
    if not state_err <= ref_rel:
        errors.append(f"state deviation {state_err:.3g} from the reference exceeds {ref_rel:g}")
    return errors, state_err


def check_bracket_report(rc: int, stdout: str) -> list[str]:
    errors = [] if rc == 0 else [f"exit code {rc}, expected 0"]
    match = VIOLATIONS_RE.search(stdout)
    if match is None:
        errors.append("no bracket report printed")
    elif any(int(v) for v in match.groups()):
        errors.append(f"bracket report lists violations: {match.group(0)}")
    return errors
