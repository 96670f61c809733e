"""Observer construction, condition checking, and gain search.

The plant model is an uncertain switched positive linear system whose state
matrices are only known to lie in elementwise intervals and whose output is
the first ``p`` state components (output matrix ``[I_p 0]``).  From a
nonnegative gain ``L`` the toolkit builds a pair of reduced-order observers
of dimension ``n - p`` that bracket the unmeasured states from below and
above for every admissible realization, provided four checkable conditions
hold.  This module builds the observer matrices, evaluates the conditions
(continuous and discrete time), and searches for a feasible gain.

Model assumptions enforced on :class:`IntervalSystem` (referenced by number
in error messages; see README):

    (i)   0 <= x0_lower <= x0_upper
    (ii)  A_lower[i] <= A_upper[i] elementwise
    (iii) continuous time: every A_lower[i] is Metzler;
          discrete time:  every A_lower[i] is nonnegative
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import certify, matcore
from .certify import Certificate
from .matcore import DEFAULT_TOL, PartitionedBlocks, _first_entry, as_matrix, as_vector, freeze

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
    """Gain search exhausted its budget without a passing candidate."""

    def __init__(self, message: str, best_penalty: float, best_gain: np.ndarray, candidates: int):
        super().__init__(message)
        self.best_penalty = best_penalty
        self.best_gain = best_gain
        self.candidates = candidates


@dataclass(frozen=True)
class IntervalSystem:
    """Uncertain switched positive plant with interval matrices and initial box.

    ``a_lower[i] <= A_i <= a_upper[i]`` and ``x0_lower <= x0 <= x0_upper``
    bound the admissible realizations; the output is always the first ``p``
    state components.
    """

    domain: str
    p: int
    a_lower: tuple
    a_upper: tuple
    x0_lower: np.ndarray
    x0_upper: np.ndarray

    def __post_init__(self):
        if self.domain not in (CONTINUOUS, DISCRETE):
            raise ValueError(f"domain must be '{CONTINUOUS}' or '{DISCRETE}', got {self.domain!r}")
        lo = tuple(as_matrix(m, f"A_lower[{i}]") for i, m in enumerate(self.a_lower))
        up = tuple(as_matrix(m, f"A_upper[{i}]") for i, m in enumerate(self.a_upper))
        if len(lo) != len(up) or not lo:
            raise ValueError("A_lower and A_upper must be nonempty lists of equal length")
        n = lo[0].shape[0]
        for i, (ml, mu) in enumerate(zip(lo, up)):
            if ml.shape != (n, n) or mu.shape != (n, n):
                raise ValueError(f"subsystem {i} matrices must be {n}x{n}")
            bad = _first_entry(ml > mu)
            if bad is not None:
                raise ValueError(
                    f"assumption (ii) violated: A_lower[{i}] > A_upper[{i}] at entry {bad}"
                )
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
        for i, ml in enumerate(lo):
            bad = _first_entry(ml < 0, skip_diagonal=continuous)
            if bad is not None:
                raise ValueError(f"assumption (iii) violated: A_lower[{i}] {kind} {bad}")
        object.__setattr__(self, "a_lower", tuple(freeze(m) for m in lo))
        object.__setattr__(self, "a_upper", tuple(freeze(m) for m in up))
        object.__setattr__(self, "x0_lower", freeze(x0l))
        object.__setattr__(self, "x0_upper", freeze(x0u))

    @property
    def n(self) -> int:
        return self.a_lower[0].shape[0]

    @property
    def nsub(self) -> int:
        return len(self.a_lower)


@dataclass(frozen=True)
class ObserverRealization:
    """All matrices of the reduced-order interval observer pair.

    ``f = [-L I]`` projects a full state onto the observer coordinates,
    ``chat``/``dhat`` reconstruct full-state estimates from observer state
    and measured output, and per subsystem ``ahat_*``/``g_*`` drive the
    lower/upper observer dynamics.
    """

    gain_l: np.ndarray
    ahat_lower: tuple
    ahat_upper: tuple
    g_lower: tuple
    g_upper: tuple
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
        m = gain.shape[0]
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
        for name in ("ahat_lower", "ahat_upper", "g_lower", "g_upper"):
            mats = tuple(freeze(as_matrix(m, name)) for m in getattr(self, name))
            object.__setattr__(self, name, mats)
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
    copositive witness when condition (iii) holds via the LP route.
    """

    domain: str
    cond_i: bool
    cond_ii: bool
    cond_iii: bool
    cond_iv: bool
    certificate: Certificate | None = None
    first_violation: str | None = None
    notes: tuple = field(default_factory=tuple)

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


def _observer_blocks(own: PartitionedBlocks, cross: PartitionedBlocks, gain: np.ndarray):
    """Observer dynamics and injection ``(Ahat, G)`` for gain ``L``.

    ``Ahat = own.a22 - L cross.a12`` and ``G = Ahat L + own.a21 - L cross.a11``.
    The lower observer takes own = lower and cross = upper bounds, the upper
    observer the reverse, and an exact plant matrix is both own and cross.
    """
    ahat = own.a22 - gain @ cross.a12
    return ahat, ahat @ gain + own.a21 - gain @ cross.a11


def _envelope_bounds(sys: IntervalSystem, gain: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Condition (iv) bounds on the observer start: ``(x0l2 - L x0u1, x0u2 - L x0l1)``."""
    p = sys.p
    return sys.x0_lower[p:] - gain @ sys.x0_upper[:p], sys.x0_upper[p:] - gain @ sys.x0_lower[:p]


def _cond_iii_family(ahat_upper, domain: str) -> list:
    """The matrices condition (iii) needs a common copositive vector for:
    ``Ahat_upper`` in continuous time, ``Ahat_upper - I`` in discrete time."""
    if domain == CONTINUOUS:
        return list(ahat_upper)
    eye = np.eye(ahat_upper[0].shape[0])
    return [a - eye for a in ahat_upper]


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
    parts = [(matcore.partition(lo, p), matcore.partition(up, p))
             for lo, up in zip(sys.a_lower, sys.a_upper)]
    ahat_lo, g_lo = zip(*(_observer_blocks(bl, bu, gain) for bl, bu in parts))
    ahat_up, g_up = zip(*(_observer_blocks(bu, bl, gain) for bl, bu in parts))
    f = np.hstack([-gain, np.eye(m)])
    chat = np.vstack([np.zeros((p, m)), np.eye(m)])
    dhat = np.vstack([np.eye(p), gain])
    return ObserverRealization(
        gain_l=gain,
        ahat_lower=ahat_lo,
        ahat_upper=ahat_up,
        g_lower=g_lo,
        g_upper=g_up,
        f=f,
        chat=chat,
        dhat=dhat,
        omega0_lower=as_vector(omega0_lower, "omega0_lower"),
        omega0_upper=as_vector(omega0_upper, "omega0_upper"),
    )


def tight_omega(sys: IntervalSystem, gain_l) -> tuple[np.ndarray, np.ndarray]:
    """Tightest admissible observer initial envelope for a given gain."""
    lo_raw, up = _envelope_bounds(sys, as_matrix(gain_l, "gain_l"))
    return np.maximum(lo_raw, 0.0), up


def _first_entry_below(mats, tol: float, off_diagonal_only: bool):
    for i, m in enumerate(mats):
        bad = _first_entry(m < -tol, skip_diagonal=off_diagonal_only)
        if bad is not None:
            return i, *bad, float(m[bad])
    return None


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


def check_conditions(
    sys: IntervalSystem,
    obs: ObserverRealization,
    margin: float = certify.DEFAULT_MARGIN,
    tol: float = DEFAULT_TOL,
) -> ConditionReport:
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

    cert = certify.find_lambda(_cond_iii_family(obs.ahat_upper, sys.domain), margin=margin)
    verdicts["iii"] = cert is not None
    if cert is None:
        violations["iii"] = (
            "(iii): no common copositive vector found "
            f"(margins swept {margin:g} down to {certify.DEFAULT_SWEEP_TO:g})"
        )

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
    )


def check_theorem1(sys, obs, margin: float = certify.DEFAULT_MARGIN, tol: float = DEFAULT_TOL):
    """Condition check for continuous-time systems."""
    if sys.domain != CONTINUOUS:
        raise ValueError("check_theorem1 requires a continuous-time system")
    return check_conditions(sys, obs, margin=margin, tol=tol)


def check_theorem2(sys, obs, margin: float = certify.DEFAULT_MARGIN, tol: float = DEFAULT_TOL):
    """Condition check for discrete-time systems."""
    if sys.domain != DISCRETE:
        raise ValueError("check_theorem2 requires a discrete-time system")
    return check_conditions(sys, obs, margin=margin, tol=tol)


def check_corollary(sys, obs, margin: float = certify.DEFAULT_MARGIN, tol: float = DEFAULT_TOL):
    """Single-subsystem check: condition (iii) via the principal-minor test.

    The LP certificate search still runs alongside as a consistency
    diagnostic; a disagreement with the minor test is noted in the report.
    """
    if sys.nsub != 1:
        raise ValueError(f"check_corollary requires exactly one subsystem, got {sys.nsub}")
    report = check_conditions(sys, obs, margin=margin, tol=tol)
    ahat = obs.ahat_upper[0]
    try:
        if sys.domain == CONTINUOUS:
            stable = matcore.metzler_is_hurwitz(ahat, tol)
        else:
            stable = matcore.nonneg_is_schur(ahat, tol)
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
    return ConditionReport(
        domain=report.domain,
        cond_i=report.cond_i,
        cond_ii=report.cond_ii,
        cond_iii=stable,
        cond_iv=report.cond_iv,
        certificate=report.certificate,
        first_violation=_first_violation(verdicts, violations),
        notes=tuple(notes),
    )


class _GainEvaluator:
    """Penalty scoring of gain candidates against the four conditions."""

    def __init__(self, sys: IntervalSystem, omega0, margin: float):
        self.sys = sys
        self.omega0 = omega0  # None selects the tight policy
        self.margin = margin
        self.parts = [(matcore.partition(lo, sys.p), matcore.partition(up, sys.p))
                      for lo, up in zip(sys.a_lower, sys.a_upper)]
        self.continuous = sys.domain == CONTINUOUS
        self.shift_hi = 1.0 + max(
            sys.n * float(np.max(np.abs(pu.a22))) + sys.n * float(np.max(np.abs(pl.a12)))
            for pl, pu in self.parts
        )

    def _cond_iii_shift(self, closure) -> float:
        """Smallest diagonal shift making the copositive LP feasible."""
        lo, hi = 0.0, self.shift_hi
        size = closure[0].shape[0]
        eye = np.eye(size)
        if certify.find_lambda([c - hi * eye for c in closure], margin=self.margin) is None:
            return 2.0 * hi  # should not happen; rank it worst
        for _ in range(24):
            mid = 0.5 * (lo + hi)
            if certify.find_lambda([c - mid * eye for c in closure], margin=self.margin) is None:
                lo = mid
            else:
                hi = mid
        return hi

    def penalty(self, gain: np.ndarray) -> float:
        ahat_lo, g_lo = zip(*(_observer_blocks(pl, pu, gain) for pl, pu in self.parts))
        total = 0.0
        for a in ahat_lo:
            probe = a.copy()
            if self.continuous:
                np.fill_diagonal(probe, 0.0)
            total += float(np.maximum(-probe, 0.0).sum())
        for g in g_lo:
            total += float(np.maximum(-g, 0.0).sum())

        lo_raw, up_raw = _envelope_bounds(self.sys, gain)
        if self.omega0 is None:
            total += float(np.maximum(-lo_raw, 0.0).sum())
            total += float(np.maximum(-up_raw, 0.0).sum())
        else:
            w_lo, w_up = self.omega0
            total += float(np.maximum(w_lo - lo_raw, 0.0).sum())
            total += float(np.maximum(up_raw - w_up, 0.0).sum())
            total += float(np.maximum(-w_lo, 0.0).sum())

        ahat_up = [_observer_blocks(pu, pl, gain)[0] for pl, pu in self.parts]
        closure = _cond_iii_family(ahat_up, self.sys.domain)
        if certify.find_lambda(closure, margin=self.margin) is None:
            total += self._cond_iii_shift(closure)
        return total

    def omega_for(self, gain: np.ndarray):
        if self.omega0 is not None:
            return self.omega0
        return tight_omega(self.sys, gain)


def search_gain(
    sys: IntervalSystem,
    omega_policy: str = "tight",
    omega0=None,
    budget: int = 200,
    seed: int = 0,
    margin: float = certify.DEFAULT_MARGIN,
    tol: float = DEFAULT_TOL,
):
    """Look for a gain passing all four conditions.

    The zero gain is tried first (it satisfies conditions (i) and (ii) by
    the model assumptions); failing that, a seeded randomized coordinate
    search over nonnegative gains minimises the summed condition-violation
    penalty, re-solving the copositive LP for every candidate.  Returns
    ``(observer, report)`` or raises :class:`GainSearchError` after
    ``budget`` candidates (which is not a proof that no gain exists).
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if omega_policy not in ("tight", "given"):
        raise ValueError(f"unknown omega policy {omega_policy!r}")
    if omega_policy == "given":
        if omega0 is None:
            raise ValueError("omega policy 'given' needs omega0=(lower, upper)")
        omega0 = (as_vector(omega0[0], "omega0_lower"), as_vector(omega0[1], "omega0_upper"))
    else:
        omega0 = None

    m, p = sys.n - sys.p, sys.p
    evaluator = _GainEvaluator(sys, omega0, margin)
    rng = np.random.default_rng(seed)

    def try_candidate(gain: np.ndarray):
        w_lo, w_up = evaluator.omega_for(gain)
        if np.any(w_lo < 0) or np.any(w_up < w_lo):
            return None
        obs = build_observer(sys, gain, w_lo, w_up)
        report = check_conditions(sys, obs, margin=margin, tol=tol)
        return (obs, report) if report.passed else None

    warm_starts = [np.zeros((m, p))]
    if omega0 is not None:
        # The upper half of condition (iv) is linear in L; seed the walk with
        # the minimal-norm row solution of those constraints.
        x0l1 = sys.x0_lower[:p]
        denom = float(x0l1 @ x0l1)
        if denom > 0.0:
            need = np.maximum(0.0, _envelope_bounds(sys, warm_starts[0])[1] - omega0[1])
            repair = np.outer(need / denom, x0l1)
            if repair.any():
                warm_starts.append(repair)

    best_gain, best_penalty = None, np.inf
    for start in warm_starts:
        pen = evaluator.penalty(start)
        if pen == 0.0:
            hit = try_candidate(start)
            if hit is not None:
                return hit
        if pen < best_penalty:
            best_gain, best_penalty = start, pen

    current = best_gain.copy()
    current_penalty = best_penalty
    for k in range(len(warm_starts), budget):
        if k % 20 == 0:
            candidate = rng.uniform(0.0, 0.5, size=(m, p))
        else:
            candidate = current.copy()
            r = int(rng.integers(m))
            c = int(rng.integers(p))
            scale = 10.0 ** rng.uniform(-2.0, 0.0)
            candidate[r, c] = max(0.0, candidate[r, c] + rng.normal(0.0, scale))
        pen = evaluator.penalty(candidate)
        if pen == 0.0:
            hit = try_candidate(candidate)
            if hit is not None:
                return hit
        if pen <= current_penalty:
            current, current_penalty = candidate, pen
        if pen < best_penalty:
            best_gain, best_penalty = candidate.copy(), pen
    raise GainSearchError(
        f"no passing gain within {budget} candidates (best penalty {best_penalty:.6g})",
        best_penalty=best_penalty,
        best_gain=best_gain,
        candidates=budget,
    )


def run_design_procedure(
    sys: IntervalSystem,
    gain=None,
    omega=None,
    budget: int = 200,
    seed: int = 0,
    margin: float = certify.DEFAULT_MARGIN,
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
        if omega is not None:
            logger.info("step 3: using supplied observer start envelope")
            obs, _ = search_gain(
                sys, omega_policy="given", omega0=omega, budget=budget, seed=seed,
                margin=margin, tol=tol,
            )
        else:
            logger.info("step 3: observer start envelope deferred to tight policy")
            obs, _ = search_gain(
                sys, omega_policy="tight", budget=budget, seed=seed, margin=margin, tol=tol,
            )
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
        report = check_conditions(sys, obs, margin=margin, tol=tol)
        if not report.passed:
            raise DesignError(f"supplied gain fails the conditions: {report.first_violation}")
    logger.info("step 5: observer matrices assembled for %d subsystems", sys.nsub)
    logger.info("step 6: observer pair ready (order %d, conditions pass)", obs.order)
    return obs
