"""Observer construction, condition checking, and gain search.

The plant model is an uncertain switched positive linear system whose state
matrices are only known to lie in elementwise intervals and whose output is
the first ``p`` state components (output matrix ``[I_p 0]``).  From a
nonnegative gain ``L`` the toolkit builds a pair of reduced-order observers
of dimension ``n - p`` that bracket the unmeasured states from below and
above for every admissible realization, provided four checkable conditions
hold.  This module builds the observer matrices, evaluates the conditions
(continuous and discrete time), and designs a feasible gain.

Model assumptions enforced on :class:`IntervalSystem` (referenced by number
in error messages; see README):

    (i)   0 <= x0_lower <= x0_upper
    (ii)  A_lower[i] <= A_upper[i] elementwise
    (iii) continuous time: every A_lower[i] is Metzler;
          discrete time:  every A_lower[i] is nonnegative
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from . import certify, matcore
from .certify import Certificate
from .matcore import DEFAULT_TOL, _as_finite, _first_entry, as_matrix, as_vector, freeze

__all__ = [
    "CONTINUOUS",
    "DISCRETE",
    "ConditionReport",
    "DesignError",
    "GainSearchError",
    "IntervalSystem",
    "ObserverRealization",
    "build_observer",
    "check_conditions",
    "check_corollary",
    "check_theorem1",
    "check_theorem2",
    "run_design_procedure",
    "search_gain",
    "tight_omega",
]

logger = logging.getLogger(__name__)

CONTINUOUS = "continuous"
DISCRETE = "discrete"

OMEGA_NOTE = "condition (iv) also enforces omega0_lower >= 0 (observer states start nonnegative)"


class DesignError(RuntimeError):
    """Observer design failed (conditions not satisfiable as requested)."""


class GainSearchError(DesignError):
    """No gain passes: ``witness`` is the Motzkin vector ``y`` of :func:`_design_lambda`
    that proves it, or None when ``candidates`` checked gains ran out; ``best_gain``
    passed the most conditions."""

    def __init__(self, message: str, best_gain: np.ndarray, candidates: int, witness=None):
        super().__init__(message)
        self.best_gain = best_gain
        self.candidates = candidates
        self.witness = witness


@dataclass(frozen=True)
class IntervalSystem:
    """Uncertain switched positive plant with interval matrices and initial box.

    ``a_lower[i] <= A_i <= a_upper[i]`` and ``x0_lower <= x0 <= x0_upper``
    bound the admissible realizations; the output is always the first ``p``
    state components.  ``a_lower``/``a_upper`` may be given as any sequence of
    matrices and are stored as frozen (N, n, n) stacks.
    """

    domain: str
    p: int
    a_lower: np.ndarray
    a_upper: np.ndarray
    x0_lower: np.ndarray
    x0_upper: np.ndarray

    def __post_init__(self):
        if self.domain not in (CONTINUOUS, DISCRETE):
            raise ValueError(f"domain must be '{CONTINUOUS}' or '{DISCRETE}', got {self.domain!r}")
        lo, up = _as_finite(self.a_lower, 3, "A_lower"), _as_finite(self.a_upper, 3, "A_upper")
        n = lo.shape[1]
        if lo.shape[2] != n or up.shape != lo.shape:
            raise ValueError("A_lower and A_upper must be N square matrices of one size, "
                             f"got shapes {lo.shape} and {up.shape}")
        bad = _first_entry(lo > up)
        if bad is not None:
            raise ValueError(f"assumption (ii) violated: A_lower[{bad[0]}] > A_upper[{bad[0]}] "
                             f"at entry {bad[1:]}")
        if not 1 <= self.p < n:
            raise ValueError(f"invalid partition: p={self.p} must satisfy 1 <= p < n={n}")
        x0l = as_vector(self.x0_lower, "x0_lower")
        x0u = as_vector(self.x0_upper, "x0_upper")
        if x0l.shape != (n,) or x0u.shape != (n,):
            raise ValueError(f"x0 bounds must have length n={n}")
        j = _first_entry(x0l < 0)
        if j is not None:
            raise ValueError(f"assumption (i) violated: x0_lower[{j}] = {x0l[j]:g} is negative")
        j = _first_entry(x0l > x0u)
        if j is not None:
            raise ValueError(f"assumption (i) violated: x0_lower[{j}] > x0_upper[{j}]")
        continuous = self.domain == CONTINUOUS
        kind = "not Metzler at entry" if continuous else "has negative entry at"
        bad = _first_entry(lo < 0, skip_diagonal=continuous)
        if bad is not None:
            raise ValueError(f"assumption (iii) violated: A_lower[{bad[0]}] {kind} {bad[1:]}")
        object.__setattr__(self, "a_lower", freeze(lo))
        object.__setattr__(self, "a_upper", freeze(up))
        object.__setattr__(self, "x0_lower", freeze(x0l))
        object.__setattr__(self, "x0_upper", freeze(x0u))

    @property
    def n(self) -> int:
        return self.a_lower.shape[1]

    @property
    def nsub(self) -> int:
        return len(self.a_lower)


@dataclass(frozen=True)
class ObserverRealization:
    """All matrices of the reduced-order interval observer pair.

    ``f = [-L I]`` projects a full state onto the observer coordinates,
    ``chat``/``dhat`` reconstruct full-state estimates from observer state
    and measured output, and the frozen (N, n - p, .) stacks ``ahat_*``/``g_*``
    drive the lower/upper observer dynamics, one matrix per subsystem.
    """

    gain_l: np.ndarray
    ahat_lower: np.ndarray
    ahat_upper: np.ndarray
    g_lower: np.ndarray
    g_upper: np.ndarray
    f: np.ndarray
    chat: np.ndarray
    dhat: np.ndarray
    omega0_lower: np.ndarray
    omega0_upper: np.ndarray

    def __post_init__(self):
        gain = as_matrix(self.gain_l, "gain_l")
        bad = _first_entry(gain < 0)
        if bad is not None:
            raise ValueError(f"gain_l has negative entry at {bad}")
        lo = as_vector(self.omega0_lower, "omega0_lower")
        up = as_vector(self.omega0_upper, "omega0_upper")
        m, p = gain.shape
        if lo.shape != (m,) or up.shape != (m,):
            raise ValueError(f"omega0 vectors must have length {m}")
        j = _first_entry(lo < 0)
        if j is not None:
            raise ValueError(f"omega0_lower[{j}] = {lo[j]:g} is negative")
        j = _first_entry(lo > up)
        if j is not None:
            raise ValueError(f"omega0_lower[{j}] > omega0_upper[{j}]")
        object.__setattr__(self, "gain_l", freeze(gain))
        object.__setattr__(self, "omega0_lower", freeze(lo))
        object.__setattr__(self, "omega0_upper", freeze(up))
        nsub = len(self.ahat_lower)
        for name, cols in (("ahat_lower", m), ("ahat_upper", m), ("g_lower", p), ("g_upper", p)):
            stack = _as_finite(getattr(self, name), 3, name)
            if stack.shape != (nsub, m, cols):
                raise ValueError(f"{name} has shape {stack.shape}, not {(nsub, m, cols)}")
            object.__setattr__(self, name, freeze(stack))
        for name in ("f", "chat", "dhat"):
            object.__setattr__(self, name, freeze(as_matrix(getattr(self, name), name)))

    @property
    def order(self) -> int:
        return self.gain_l.shape[0]

    @property
    def p(self) -> int:
        return self.gain_l.shape[1]


@dataclass(frozen=True)
class ConditionReport:
    """Verdicts for the four observer-existence conditions.

    ``first_violation`` names the earliest failing condition together with
    the subsystem and entry that broke it; ``certificate`` carries the
    copositive witness when condition (iii) holds via the LP route, and
    ``farkas`` the verified Farkas vector ``v`` of :func:`certify.find_lambda`
    when it fails with a proof that no common copositive vector exists.
    """

    domain: str
    cond_i: bool
    cond_ii: bool
    cond_iii: bool
    cond_iv: bool
    certificate: Certificate | None = None
    first_violation: str | None = None
    notes: tuple = field(default_factory=tuple)
    farkas: np.ndarray | None = None

    @property
    def passed(self) -> bool:
        return self.cond_i and self.cond_ii and self.cond_iii and self.cond_iv

    def as_dict(self) -> dict:
        return {
            "i": self.cond_i,
            "ii": self.cond_ii,
            "iii": self.cond_iii,
            "iv": self.cond_iv,
        }


def _observer_blocks(own: np.ndarray, cross: np.ndarray, gain: np.ndarray):
    """Observer dynamics and injection ``(Ahat, G)`` for gain ``L``, one pair per subsystem.

    ``own`` and ``cross`` are (N, n, n) stacks cut at ``p = L.shape[1]``:
    ``Ahat = own22 - L cross12`` and ``G = Ahat L + own21 - L cross11``.
    The lower observer takes own = lower and cross = upper bounds, the upper
    observer the reverse, and an exact plant matrix is both own and cross.
    The matmul operands are contiguous copies, which numpy rounds as it rounds lone blocks.
    """
    p = gain.shape[1]
    ahat = own[:, p:, p:] - gain @ np.ascontiguousarray(cross[:, :p, p:])
    return ahat, ahat @ gain + own[:, p:, :p] - gain @ np.ascontiguousarray(cross[:, :p, :p])


def _envelope_bounds(sys: IntervalSystem, gain: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Condition (iv) bounds on the observer start: ``(x0l2 - L x0u1, x0u2 - L x0l1)``."""
    p = sys.p
    return sys.x0_lower[p:] - gain @ sys.x0_upper[:p], sys.x0_upper[p:] - gain @ sys.x0_lower[:p]


def _cond_iii_family(ahat_upper: np.ndarray, domain: str) -> np.ndarray:
    """The stack condition (iii) needs a common copositive vector for:
    ``Ahat_upper`` in continuous time, ``Ahat_upper - I`` in discrete time."""
    if domain == CONTINUOUS:
        return ahat_upper
    return ahat_upper - np.eye(ahat_upper.shape[-1])


def build_observer(sys: IntervalSystem, gain_l, omega0_lower, omega0_upper) -> ObserverRealization:
    """Assemble the observer matrices for gain ``L`` and initial envelope.

    The lower dynamics pair the lower 22-block with the *upper* 12-block
    (and vice versa for the upper dynamics) so that the true, unknown
    observer matrices are always sandwiched between the two.
    """
    gain = as_matrix(gain_l, "gain_l")
    p, m = sys.p, sys.n - sys.p
    if gain.shape != (m, p):
        raise ValueError(f"gain_l must be {m}x{p}, got {gain.shape}")
    # rows 0..N-1 of the stacks give the lower observer, rows N..2N-1 the upper
    ahat, g = _observer_blocks(np.concatenate([sys.a_lower, sys.a_upper]),
                               np.concatenate([sys.a_upper, sys.a_lower]), gain)
    return ObserverRealization(
        gain_l=gain,
        ahat_lower=ahat[:sys.nsub],
        ahat_upper=ahat[sys.nsub:],
        g_lower=g[:sys.nsub],
        g_upper=g[sys.nsub:],
        f=np.hstack([-gain, np.eye(m)]),
        chat=np.vstack([np.zeros((p, m)), np.eye(m)]),
        dhat=np.vstack([np.eye(p), gain]),
        omega0_lower=as_vector(omega0_lower, "omega0_lower"),
        omega0_upper=as_vector(omega0_upper, "omega0_upper"),
    )


def tight_omega(sys: IntervalSystem, gain_l) -> tuple[np.ndarray, np.ndarray]:
    """Tightest admissible observer initial envelope for a given gain."""
    lo_raw, up = _envelope_bounds(sys, as_matrix(gain_l, "gain_l"))
    return np.maximum(lo_raw, 0.0), up


def _first_entry_below(mats: np.ndarray, tol: float, off_diagonal_only: bool):
    bad = _first_entry(mats < -tol, skip_diagonal=off_diagonal_only)
    return None if bad is None else (*bad, float(mats[bad]))


def _check_cond_iv(sys: IntervalSystem, obs: ObserverRealization, tol: float):
    lo_bound, up_bound = _envelope_bounds(sys, obs.gain_l)
    j = _first_entry(obs.omega0_lower < -tol)
    if j is not None:
        return False, f"(iv): omega0_lower[{j}] = {obs.omega0_lower[j]:g} is negative"
    over = obs.omega0_lower - lo_bound
    if np.any(over > tol):
        j = int(np.argmax(over))
        return False, (
            f"(iv): omega0_lower[{j}] = {obs.omega0_lower[j]:g} exceeds admissible "
            f"lower start {lo_bound[j]:g}"
        )
    under = up_bound - obs.omega0_upper
    if np.any(under > tol):
        j = int(np.argmax(under))
        return False, (
            f"(iv): omega0_upper[{j}] = {obs.omega0_upper[j]:g} is below required "
            f"upper start {up_bound[j]:g}"
        )
    return True, None


def _first_violation(verdicts: dict, violations: dict) -> str | None:
    for key in ("i", "ii", "iii", "iv"):
        if not verdicts[key]:
            return violations[key]
    return None


def check_conditions(sys: IntervalSystem, obs: ObserverRealization,
                     tol: float = DEFAULT_TOL) -> ConditionReport:
    """Evaluate the four observer-existence conditions for ``sys.domain``."""
    continuous = sys.domain == CONTINUOUS
    notes = [OMEGA_NOTE]
    verdicts: dict = {}
    violations: dict = {"i": None, "ii": None, "iii": None, "iv": None}

    bad = _first_entry_below(obs.ahat_lower, tol, off_diagonal_only=continuous)
    verdicts["i"] = bad is None
    if bad is not None:
        i, r, c, v = bad
        kind = "not Metzler" if continuous else "negative"
        violations["i"] = f"(i): ahat_lower[{i}] {kind} at entry ({r}, {c}) = {v:g}"

    bad = _first_entry_below(obs.g_lower, tol, off_diagonal_only=False)
    verdicts["ii"] = bad is None
    if bad is not None:
        i, r, c, v = bad
        violations["ii"] = f"(ii): g_lower[{i}] has negative entry ({r}, {c}) = {v:g}"

    proof = []
    cert = certify.find_lambda(_cond_iii_family(obs.ahat_upper, sys.domain), proof=proof)
    farkas = proof[0] if proof else None
    verdicts["iii"] = cert is not None
    if farkas is not None:
        violations["iii"] = "(iii): no common copositive vector exists (verified Farkas vector)"
    elif cert is None:
        violations["iii"] = ("(iii): no common copositive vector found "
                             "(no verified certificate or Farkas vector)")

    # Upper dynamics inherit Metzler/nonnegative structure from condition (i)
    # whenever the interval data is consistent; a failure here flags bad input.
    if verdicts["i"]:
        probe = _first_entry_below(obs.ahat_upper, tol, off_diagonal_only=continuous)
        if probe is not None:
            kind = "Metzler" if continuous else "nonnegative"
            notes.append(
                f"diagnostic: ahat_upper[{probe[0]}] is not {kind} although condition (i) "
                "holds; interval data is inconsistent"
            )

    verdicts["iv"], violations["iv"] = _check_cond_iv(sys, obs, tol)

    return ConditionReport(
        domain=sys.domain,
        cond_i=verdicts["i"],
        cond_ii=verdicts["ii"],
        cond_iii=verdicts["iii"],
        cond_iv=verdicts["iv"],
        certificate=cert,
        first_violation=_first_violation(verdicts, violations),
        notes=tuple(notes),
        farkas=farkas,
    )


def check_theorem1(sys, obs, tol: float = DEFAULT_TOL):
    """Condition check for continuous-time systems."""
    if sys.domain != CONTINUOUS:
        raise ValueError("check_theorem1 requires a continuous-time system")
    return check_conditions(sys, obs, tol=tol)


def check_theorem2(sys, obs, tol: float = DEFAULT_TOL):
    """Condition check for discrete-time systems."""
    if sys.domain != DISCRETE:
        raise ValueError("check_theorem2 requires a discrete-time system")
    return check_conditions(sys, obs, tol=tol)


def check_corollary(sys, obs, tol: float = DEFAULT_TOL):
    """Single-subsystem check: condition (iii) via the principal-minor test.

    The LP certificate search still runs alongside as a consistency
    diagnostic; a disagreement with the minor test is noted in the report.
    """
    if sys.nsub != 1:
        raise ValueError(f"check_corollary requires exactly one subsystem, got {sys.nsub}")
    report = check_conditions(sys, obs, tol=tol)
    is_stable = (matcore.metzler_is_hurwitz if sys.domain == CONTINUOUS
                 else matcore.nonneg_is_schur)
    try:
        stable = is_stable(obs.ahat_upper[0], tol)
    except ValueError:
        stable = False
    notes = list(report.notes)
    if stable != report.cond_iii:
        notes.append(
            f"diagnostic: minor-based stability test ({stable}) disagrees with "
            f"LP certificate search ({report.cond_iii})"
        )
    verdicts = {"i": report.cond_i, "ii": report.cond_ii, "iii": stable, "iv": report.cond_iv}
    violations = {
        "i": report.first_violation,
        "ii": report.first_violation,
        "iii": "(iii): ahat_upper[0] fails the principal-minor stability test",
        "iv": _check_cond_iv(sys, obs, tol)[1],
    }
    return replace(report, cond_iii=stable, notes=tuple(notes),
                   first_violation=_first_violation(verdicts, violations))


def _design_rows(sys: IntervalSystem, omega0) -> np.ndarray:
    """Conditions (iii), (i), (iv) as homogeneous LP rows ``a`` in ``(lam, vec(Y))``.

    ``Y = diag(lam) L``, so ``L^T lam = Y^T 1`` and the rows ``a @ (lam, vec(Y))
    <= -strict`` (strict: 1 on the first ``m N`` rows, (iii)) hold for some scaling
    of ``(lam, Y)`` exactly when ``L = diag(lam)^-1 Y`` meets the conditions with
    ``lam`` as its (iii) vector.
    ``vec`` is row-major: ``vec(X Y) = (X kron I) vec(Y)``, ``vec(Y Z) = (I kron Z^T) vec(Y)``.
    Each block is built for all N subsystems at once: ``np.kron`` of a stack and a
    matrix is the stack of the per-subsystem products.
    """
    m, p, nsub = sys.n - sys.p, sys.p, sys.nsub
    eye_m = np.eye(m)
    a12_lower_t, a12_upper_t = (np.swapaxes(a[:, :p, p:], 1, 2)
                                for a in (sys.a_lower, sys.a_upper))
    closure_t = np.swapaxes(_cond_iii_family(sys.a_upper[:, p:, p:], sys.domain), 1, 2)
    rows = [np.concatenate([closure_t, -np.kron(np.ones((1, m)), a12_lower_t)], axis=2)]
    # (i): Y A12_upper <= diag(lam) A22_lower off the diagonal (everywhere in discrete time)
    keep = ~np.eye(m, dtype=bool).ravel() if sys.domain == CONTINUOUS else slice(None)
    spread = np.repeat(eye_m, m, axis=0)
    a22_lower = sys.a_lower[:, p:, p:].reshape(nsub, m * m)
    rows.append(np.concatenate([-spread[keep] * a22_lower[:, keep, None],
                                np.kron(eye_m, a12_upper_t)[:, keep]], axis=2))
    rows = [block.reshape(-1, m + m * p) for block in rows]
    # (iv): L x0u_1 <= x0l_2 - omega0_lower, and L x0l_1 >= x0u_2 - omega0_upper
    # for a given envelope (the tight one meets the latter by definition)
    x0l, x0u = sys.x0_lower, sys.x0_upper
    w_lo = np.zeros(m) if omega0 is None else omega0[0]
    rows.append(np.hstack([-np.diag(x0l[p:] - w_lo), np.kron(eye_m, x0u[None, :p])]))
    if omega0 is not None:
        rows.append(np.hstack([np.diag(x0u[p:] - omega0[1]), -np.kron(eye_m, x0l[None, :p])]))
    return np.vstack(rows)


def _design_lambda(sys: IntervalSystem, a: np.ndarray):
    """Decide the rows ``a`` of :func:`_design_rows` over every gain with
    :func:`certify._solve_homogeneous`.

    Returns ``(lam, None)`` with ``max(lam) = 1``, or ``(None, y)`` when the verified
    Farkas vector ``y`` of :func:`certify._solve_homogeneous` proves that no gain
    exists, or ``(None, None)``.  ``y >= 0`` has ``a[:, m:]^T y >= 0`` and ``z =
    a[:, :m]^T y >= 0`` with ``1^T y[:mN] + 1^T z > 0``: Motzkin's alternative, since
    any ``lam > 0``, ``Y >= 0`` meeting the rows would give ``z^T lam <= y^T a (lam,
    vec(Y)) <= 0``, one side strict.  ``y`` is scaled so that its (iii) block sums
    to 1, or so that ``1^T z = 1`` when that block has no weight.
    """
    m, strict = sys.n - sys.p, (sys.n - sys.p) * sys.nsub
    base = a[:, :m].sum(axis=1)  # lam = mu + 1, as in find_lambda
    base[:strict] += 1.0
    mu, y = certify._solve_homogeneous(a, base)
    if mu is not None:
        lam = mu[:m] + 1.0
        return lam / lam.max(), None
    if y is None:
        return None, None
    weight = y[:strict].sum()
    return None, y / (weight if weight > 0 else (a[:, :m].T @ y).sum())


def _gain_step(sys: IntervalSystem, a: np.ndarray, lam, current):
    """Gain LP for a fixed ``lam``: (i), (iii), (iv) as in :func:`_design_rows`, and (ii),
    ``Ahat L + A21_lower - L A11_upper >= 0``, linearised at ``current`` through ``L A12 L
    ~ current A12 L + L A12 current - current A12 current``.  The (iii) margin runs from
    1e-1 down to 1e-6, keeping the vertex off that constraint.  The LP is solved as it
    stands first, whatever its shape: its first feasible vertex from ``L = 0`` keeps the
    gain small, and with it the ``L A12 L`` term the linearisation drops.  The Farkas
    form's vertex can sit farther out: on fixture 4.1 with its own envelope, its gains
    alternate between two that fail (ii).  Returns ``L`` or None."""
    m, p = current.shape
    ahat, _ = _observer_blocks(sys.a_lower, sys.a_upper, current)
    a12_upper = np.ascontiguousarray(sys.a_upper[:, :p, p:])
    ii = (np.kron(np.eye(m), np.swapaxes(sys.a_upper[:, :p, :p] + a12_upper @ current, 1, 2))
          - np.kron(ahat, np.eye(p)))
    ii_rhs = sys.a_lower[:, p:, :p] + current @ a12_upper @ current
    b = np.concatenate([-(a[:, :m] @ lam), ii_rhs.ravel()])
    a = np.vstack([a[:, m:] * np.repeat(lam, p), ii.reshape(-1, m * p)])
    strict = np.arange(b.size) < m * sys.nsub
    for delta in 10.0 ** -np.arange(1, 7):
        gain, _ = certify._decide(a, b - delta * strict, primal_first=True)
        if gain is not None:
            return gain.reshape(m, p)
    return None


def search_gain(
    sys: IntervalSystem,
    omega_policy: str = "tight",
    omega0=None,
    budget: int = 200,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
):
    """Design a gain passing all four conditions, or prove that none exists.

    After the zero gain, one LP (:func:`_design_lambda`) states (i), (iii) and
    (iv) over every ``L >= 0``; (ii) only removes gains.  If it is infeasible,
    its verified Farkas vector is the Motzkin witness that no gain exists, and
    the conditions named are the row blocks where the witness exceeds ``tol``.
    Otherwise its ``lam`` stays fixed while the gain LP (:func:`_gain_step`)
    relinearises (ii) at each checked gain; a gain LP that is infeasible is
    replaced by a gain drawn from ``U(0, 0.5)`` with ``seed``.  Returns
    ``(observer, report)`` or raises :class:`GainSearchError`, with the
    witness, or without one after ``budget`` checked gains.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if omega_policy not in ("tight", "given"):
        raise ValueError(f"unknown omega policy {omega_policy!r}")
    if omega_policy == "given" and omega0 is None:
        raise ValueError("omega policy 'given' needs omega0=(lower, upper)")
    omega0 = None if omega_policy == "tight" else (as_vector(omega0[0], "omega0_lower"),
                                                   as_vector(omega0[1], "omega0_upper"))

    m, p = sys.n - sys.p, sys.p
    checked = []  # (conditions passed, gain, report) per checked gain

    def check(gain: np.ndarray):
        w_lo, w_up = omega0 or tight_omega(sys, gain)
        if omega0 is None:  # an empty tight envelope fails (iv), not build_observer
            w_up = np.maximum(w_up, w_lo)
        obs = build_observer(sys, gain, w_lo, w_up)
        report = check_conditions(sys, obs, tol=tol)
        checked.append((sum(report.as_dict().values()), gain, report))
        return obs, report

    current = np.zeros((m, p))
    obs, report = check(current)
    if report.passed:
        return obs, report
    a = _design_rows(sys, omega0)
    lam, witness = _design_lambda(sys, a)
    if witness is not None:
        strict, iv_start = m * sys.nsub, len(a) - m * (1 if omega0 is None else 2)
        blocks = (("(i)", witness[strict:iv_start]), ("(iii)", witness[:strict]),
                  ("(iv)", witness[iv_start:]))
        names = [name for name, part in blocks if np.any(part > tol)]
        if names:
            raise GainSearchError("proved: no nonnegative gain satisfies "
                                  + " and ".join(filter(None, [", ".join(names[:-1]), names[-1]])),
                                  best_gain=current, candidates=1, witness=witness)
    rng = np.random.default_rng(seed)
    while len(checked) < budget:
        gain = None if lam is None else _gain_step(sys, a, lam, current)
        if gain is None:
            gain = rng.uniform(0.0, 0.5, size=(m, p))
        obs, report = check(gain)
        if report.passed:
            return obs, report
        current = gain
    _, best_gain, best = max(checked, key=lambda item: item[0])
    raise GainSearchError(f"no passing gain within {budget} candidates (best candidate fails "
                          f"{best.first_violation})", best_gain=best_gain, candidates=len(checked))


def run_design_procedure(
    sys: IntervalSystem,
    gain=None,
    omega=None,
    budget: int = 200,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> ObserverRealization:
    """Full design pipeline: dimensions, partition, envelope, gain, assembly.

    ``gain``/``omega`` may be supplied; whatever is missing is derived (the
    tight envelope for a supplied gain, a searched gain otherwise).  The
    result is always validated against the conditions before it is returned.
    """
    n, p = sys.n, sys.p
    logger.info("step 1: state dimension n=%d, output rank p=%d (%s time)", n, p, sys.domain)
    logger.info("step 2: partitioned %d interval pairs at block index %d", sys.nsub, p)

    if gain is None:
        logger.info("step 3: observer start envelope deferred to tight policy" if omega is None
                    else "step 3: using supplied observer start envelope")
        obs, _ = search_gain(sys, omega_policy="tight" if omega is None else "given",
                             omega0=omega, budget=budget, seed=seed, tol=tol)
        logger.info("step 4: search found gain %s", obs.gain_l.tolist())
    else:
        gain = as_matrix(gain, "gain")
        if omega is None:
            omega = tight_omega(sys, gain)
            logger.info("step 3: tight observer start envelope %s / %s",
                        omega[0].tolist(), omega[1].tolist())
        else:
            logger.info("step 3: using supplied observer start envelope")
        logger.info("step 4: using supplied gain")
        try:
            obs = build_observer(sys, gain, omega[0], omega[1])
        except ValueError as exc:
            raise DesignError(f"supplied gain yields no admissible start envelope: {exc}") from exc
        report = check_conditions(sys, obs, tol=tol)
        if not report.passed:
            raise DesignError(f"supplied gain fails the conditions: {report.first_violation}")
    logger.info("step 5: observer matrices assembled for %d subsystems", sys.nsub)
    logger.info("step 6: observer pair ready (order %d, conditions pass)", obs.order)
    return obs
