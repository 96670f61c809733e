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

from dataclasses import dataclass

import numpy as np

from . import certify
from .certify import Certificate
from .matcore import DEFAULT_TOL, _as_finite, _first_entry, freeze

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
    "search_gain",
]

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
        x0l = _as_finite(self.x0_lower, 1, "x0_lower")
        x0u = _as_finite(self.x0_upper, 1, "x0_upper")
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
    and measured output, and the (N, n - p, .) stacks ``ahat_*``/``g_*``
    drive the lower/upper observer dynamics, one matrix per subsystem.  Only
    :func:`build_observer` checks and freezes them; a hand-built one is taken as given.
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

    @property
    def order(self) -> int:
        return self.gain_l.shape[0]

    @property
    def p(self) -> int:
        return self.gain_l.shape[1]


@dataclass(frozen=True)
class ConditionReport:
    """Verdicts for the four observer-existence conditions.

    ``cond_*`` is true when its condition holds, and ``first_violation`` is the
    text of the first failed condition in the order i, ii, iii, iv, naming the
    subsystem and entry that broke it.  ``certificate`` carries the copositive
    witness when condition (iii) holds, and ``farkas`` the verified Farkas vector
    ``v`` of :func:`certify.find_lambda` when it fails with a proof that no common
    copositive vector exists.
    """

    domain: str
    cond_i: bool
    cond_ii: bool
    cond_iii: bool
    cond_iv: bool
    certificate: Certificate | None = None
    first_violation: str | None = None
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
    """Check ``L >= 0`` and ``0 <= omega0_lower <= omega0_upper`` (``OMEGA_NOTE``'s claim)
    and build the frozen observer matrices, naming a stack that overflows: the one place
    an observer is checked.

    The lower dynamics pair the lower 22-block with the *upper* 12-block
    (and vice versa for the upper dynamics) so that the true, unknown
    observer matrices are always sandwiched between the two.
    """
    gain = _as_finite(gain_l, 2, "L")
    lo = _as_finite(omega0_lower, 1, "omega0_lower")
    up = _as_finite(omega0_upper, 1, "omega0_upper")
    p, m, nsub = sys.p, sys.n - sys.p, sys.nsub
    if gain.shape != (m, p):
        raise ValueError(f"L must be {m}x{p}, got {gain.shape}")
    if (bad := _first_entry(gain < 0)) is not None:
        raise ValueError(f"L has negative entry at {bad}")
    if lo.shape != (m,) or up.shape != (m,):
        raise ValueError(f"omega0 vectors must have length {m}")
    if (j := _first_entry(lo < 0)) is not None:
        raise ValueError(f"omega0_lower[{j}] = {lo[j]:g} is negative")
    if (j := _first_entry(lo > up)) is not None:
        raise ValueError(f"omega0_lower[{j}] > omega0_upper[{j}]")
    # rows 0..N-1 of the stacks give the lower observer, rows N..2N-1 the upper
    ahat, g = _observer_blocks(np.concatenate([sys.a_lower, sys.a_upper]),
                               np.concatenate([sys.a_upper, sys.a_lower]), gain)
    for name, stack in (("ahat", ahat), ("g", g)):
        if not np.isfinite(stack).all():  # a finite L can still overflow
            i, r, c = _first_entry(~np.isfinite(stack))
            side = "lower" if i < nsub else "upper"
            raise ValueError(f"{name}_{side}[{i % nsub}] has a non-finite entry at {(r, c)}")
    return ObserverRealization(
        gain_l=freeze(gain),
        ahat_lower=freeze(ahat[:nsub]),
        ahat_upper=freeze(ahat[nsub:]),
        g_lower=freeze(g[:nsub]),
        g_upper=freeze(g[nsub:]),
        f=freeze(np.concatenate([-gain, np.eye(m)], axis=1)),
        chat=freeze(np.eye(sys.n, m, -p)),
        dhat=freeze(np.concatenate([np.eye(p), gain])),
        omega0_lower=freeze(lo),
        omega0_upper=freeze(up),
    )


def _first_entry_below(mats: np.ndarray, off_diagonal_only: bool):
    """The first entry below ``-DEFAULT_TOL`` as ``(*index, value)``, or None."""
    bad = _first_entry(mats < -DEFAULT_TOL, skip_diagonal=off_diagonal_only)
    return None if bad is None else (*bad, float(mats[bad]))


def check_conditions(sys: IntervalSystem, obs: ObserverRealization) -> ConditionReport:
    """Evaluate the four observer-existence conditions for ``sys.domain``, for any
    number of subsystems: with one, this decides the paper's no-switching corollary.

    (i) is tested on ``ahat_lower`` alone: for a validated system and ``L >= 0`` every
    step of :func:`_observer_blocks` is monotone, so ``ahat_upper >= ahat_lower``
    entrywise.  (iv) tests only the start bounds: :func:`build_observer` rejects a
    negative ``omega0_lower`` (``OMEGA_NOTE``'s claim)."""
    continuous = sys.domain == CONTINUOUS
    texts = [None] * 4  # the text of each failed condition, (i) to (iv)
    bad = _first_entry_below(obs.ahat_lower, off_diagonal_only=continuous)
    if bad is not None:
        i, r, c, v = bad
        kind = "not Metzler" if continuous else "negative"
        texts[0] = f"(i): ahat_lower[{i}] {kind} at entry ({r}, {c}) = {v:g}"

    bad = _first_entry_below(obs.g_lower, off_diagonal_only=False)
    if bad is not None:
        i, r, c, v = bad
        texts[1] = f"(ii): g_lower[{i}] has negative entry ({r}, {c}) = {v:g}"

    proof = []
    cert = certify.find_lambda(_cond_iii_family(obs.ahat_upper, sys.domain), proof=proof)
    farkas = proof[0] if proof else None
    if farkas is not None:
        texts[2] = "(iii): no common copositive vector exists (verified Farkas vector)"
    elif cert is None:
        texts[2] = ("(iii): no common copositive vector found "
                    "(no verified certificate or Farkas vector)")

    lo_bound, up_bound = _envelope_bounds(sys, obs.gain_l)
    if ((over := obs.omega0_lower - lo_bound) > DEFAULT_TOL).any():
        j = int(np.argmax(over))
        texts[3] = (f"(iv): omega0_lower[{j}] = {obs.omega0_lower[j]:g} exceeds "
                    f"admissible lower start {lo_bound[j]:g}")
    elif ((under := up_bound - obs.omega0_upper) > DEFAULT_TOL).any():
        j = int(np.argmax(under))
        texts[3] = (f"(iv): omega0_upper[{j}] = {obs.omega0_upper[j]:g} is below "
                    f"required upper start {up_bound[j]:g}")
    return ConditionReport(sys.domain, *(text is None for text in texts), certificate=cert,
                           first_violation=next(filter(None, texts), None), farkas=farkas)


def _design_rows(sys: IntervalSystem) -> np.ndarray:
    """Conditions (iii), (i), (iv) as homogeneous LP rows ``a`` in ``(lam, vec(Y))``.

    ``Y = diag(lam) L``, so ``L^T lam = Y^T 1`` and the rows ``a @ (lam, vec(Y))
    <= -strict`` (strict: 1 on the first ``m N`` rows, (iii)) hold for some scaling
    of ``(lam, Y)`` exactly when ``L = diag(lam)^-1 Y`` meets the conditions with
    ``lam`` as its (iii) vector.
    ``vec`` is row-major: ``vec(X Y) = (X kron I) vec(Y)``, ``vec(Y Z) = (I kron Z^T) vec(Y)``.
    Each Kronecker block is one broadcast product over all N subsystems, reshaped to rows:
    it forms the single products ``np.kron`` would, so the rows are the same bits, and
    ``ones kron X`` is ``X`` repeated.
    """
    m, p, nsub = sys.n - sys.p, sys.p, sys.nsub
    eye_m = np.eye(m)
    a12_lower_t, a12_upper_t = (np.swapaxes(a[:, :p, p:], 1, 2)
                                for a in (sys.a_lower, sys.a_upper))
    closure_t = np.swapaxes(_cond_iii_family(sys.a_upper[:, p:, p:], sys.domain), 1, 2)
    rows = [np.concatenate([closure_t] + [-a12_lower_t] * m, axis=2)]
    # (i): Y A12_upper <= diag(lam) A22_lower off the diagonal (everywhere in discrete time)
    keep = eye_m.ravel() == 0 if sys.domain == CONTINUOUS else slice(None)
    lam_i = (-eye_m[:, None, :] * sys.a_lower[:, p:, p:, None]).reshape(nsub, m * m, m)
    y_i = (eye_m[:, None, :, None] * a12_upper_t[:, None, :, None, :]).reshape(nsub, m * m, -1)
    rows.append(np.concatenate([lam_i, y_i], axis=2)[:, keep])
    rows = [block.reshape(-1, m + m * p) for block in rows]
    # (iv): L x0u_1 <= x0l_2, so the tight start envelope has omega0_lower >= 0
    # (its upper start meets the other bound by definition)
    rows.append(np.hstack([-np.diag(sys.x0_lower[p:]),
                           (eye_m[:, :, None] * sys.x0_upper[:p]).reshape(m, -1)]))
    return np.vstack(rows)


def _design_lambda(sys: IntervalSystem, a: np.ndarray):
    """Decide the rows ``a`` of :func:`_design_rows` over every gain with
    :func:`certify._solve_lambda`.

    Returns ``(lam, None)`` with ``max(lam) = 1``, or ``(None, y)`` when the verified
    Farkas vector ``y`` of :func:`certify._solve_lambda` proves that no gain
    exists, or ``(None, None)``.  ``y >= 0`` has ``a[:, m:]^T y >= 0`` and ``z =
    a[:, :m]^T y >= 0`` with ``1^T y[:mN] + 1^T z > 0``: Motzkin's alternative, since
    any ``lam > 0``, ``Y >= 0`` meeting the rows would give ``z^T lam <= y^T a (lam,
    vec(Y)) <= 0``, one side strict.  ``y`` is scaled so that its (iii) block sums
    to 1, or so that ``1^T z = 1`` when that block has no weight.
    """
    m, strict = sys.n - sys.p, (sys.n - sys.p) * sys.nsub
    base = a[:, :m].sum(axis=1)  # lam = mu + 1, as in find_lambda
    base[:strict] += 1.0
    lam, y = certify._solve_lambda(a, base, m)
    if y is None:
        return lam, None
    weight = y[:strict].sum()
    return None, y / (weight if weight > 0 else (a[:, :m].T @ y).sum())


def _gain_step(sys: IntervalSystem, a: np.ndarray, lam, current):
    """Gain LP for a fixed ``lam``: (i), (iii), (iv) as in :func:`_design_rows`, and (ii),
    ``Ahat L + A21_lower - L A11_upper >= 0``, linearised at ``current`` through ``L A12 L
    ~ current A12 L + L A12 current - current A12 current``.  The (iii) margin runs from
    1e-1 down to 1e-6, keeping the vertex off that constraint.  The LP is solved as it
    stands first, whatever its shape: its first feasible vertex from ``L = 0`` keeps the
    gain small, and with it the ``L A12 L`` term the linearisation drops; the Farkas
    form's vertex can sit farther out.  Returns ``L`` or None."""
    m, p = current.shape
    ahat, _ = _observer_blocks(sys.a_lower, sys.a_upper, current)
    a12_upper = np.ascontiguousarray(sys.a_upper[:, :p, p:])
    # eye(m) kron (A11 + A12 current)^T - Ahat kron eye(p) as broadcasts on axes (k, i, r, j, c)
    cross_t = np.swapaxes(sys.a_upper[:, :p, :p] + a12_upper @ current, 1, 2)
    ii = (np.eye(m)[:, None, :, None] * cross_t[:, None, :, None, :]
          - ahat[:, :, None, :, None] * np.eye(p)[:, None, :])
    ii_rhs = sys.a_lower[:, p:, :p] + current @ a12_upper @ current
    b = np.concatenate([-(a[:, :m] @ lam), ii_rhs.ravel()])
    a = np.concatenate([a[:, m:] * np.repeat(lam, p), ii.reshape(-1, m * p)])
    strict = np.arange(b.size) < m * sys.nsub
    for delta in 10.0 ** -np.arange(1, 7):
        gain, _ = certify._decide(a, b - delta * strict, primal_first=True)
        if gain is not None:
            return gain.reshape(m, p)
    return None


def search_gain(sys: IntervalSystem, budget: int = 200):
    """Design a gain passing all four conditions, or prove that none exists.

    Each checked gain gets its tightest admissible start envelope: the bounds of
    :func:`_envelope_bounds`, with the lower one clamped at zero.
    After the zero gain, one LP (:func:`_design_lambda`) states (i), (iii) and
    (iv) over every ``L >= 0``; (ii) only removes gains.  If it is infeasible,
    its verified Farkas vector is the Motzkin witness that no gain exists, and
    the conditions named are the row blocks where the witness exceeds ``DEFAULT_TOL``.
    Otherwise its ``lam`` stays fixed while the gain LP (:func:`_gain_step`)
    relinearises (ii) at each checked gain, until a gain passes, a gain LP is
    infeasible or ``budget`` gains are checked.  Returns ``(observer, report)``
    or raises :class:`GainSearchError`, with the witness, or without one when
    the search stops short of a passing gain.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    m, p = sys.n - sys.p, sys.p
    checked = []  # (conditions passed, gain, report) per checked gain

    def check(gain: np.ndarray):
        lo, up = _envelope_bounds(sys, gain)
        w_lo = np.maximum(lo, 0.0)  # an empty envelope fails (iv), not build_observer
        obs = build_observer(sys, gain, w_lo, np.maximum(up, w_lo))
        report = check_conditions(sys, obs)
        checked.append((sum(report.as_dict().values()), gain, report))
        return obs, report

    current = np.zeros((m, p))
    obs, report = check(current)
    if report.passed:
        return obs, report
    a = _design_rows(sys)
    lam, witness = _design_lambda(sys, a)
    if witness is not None:
        strict, iv_start = m * sys.nsub, len(a) - m
        blocks = (("(i)", witness[strict:iv_start]), ("(iii)", witness[:strict]),
                  ("(iv)", witness[iv_start:]))
        names = [name for name, part in blocks if np.any(part > DEFAULT_TOL)]
        if names:
            raise GainSearchError("proved: no nonnegative gain satisfies "
                                  + " and ".join(filter(None, [", ".join(names[:-1]), names[-1]])),
                                  best_gain=current, candidates=1, witness=witness)
    while lam is not None and len(checked) < budget:
        current = _gain_step(sys, a, lam, current)
        if current is None:
            break
        obs, report = check(current)
        if report.passed:
            return obs, report
    _, best_gain, best = max(checked, key=lambda item: item[0])
    raise GainSearchError(f"no passing gain within {len(checked)} candidates (best candidate fails "
                          f"{best.first_violation})", best_gain=best_gain, candidates=len(checked))
