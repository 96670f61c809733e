"""Co-simulation of a switched plant with its interval observer pair.

The plant and the lower/upper observers are one coupled linear system per
active subsystem.  Both time domains run one loop ``z[k+1] = P[which[k]] @ z[k]``
over a stack P: the maps themselves in discrete time, and in continuous time the
RK4 step matrices I + X(I + X/2(I + X/3(I + X/4))), X = h M, one per distinct
(subsystem, h) pair of a grid that hits every switch instant exactly, with
``h = step`` on every whole cell.  These equal staged RK4 up to rounding.  A run
of one matrix is stepped in blocks of its powers, one BLAS product a block, and
stays within ``_POWERS d u`` of each column's largest entry from one product per
sample.  ``export_csv`` spells each float as ``"%.12e"`` does, from tables of
4-byte words: the leading rows of a chunk whose cells are unsigned with
two-digit exponents, which the positive observers give almost everywhere, as
fixed 19-byte cells, the rest of the chunk in 24-byte slots.

Each trace holds what the state bracket ``0 <= xhat_lower <= x <= xhat_upper``
is checked on.  The one-sided errors ``F x - omega`` behind the bracket are
those of the observer pair built from the exact model ``[truth.a, truth.a]``
(``build_observer`` on that model), which simulates like any other pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matcore import _as_finite, _first_entry, as_vector, freeze
from .synth import CONTINUOUS, DISCRETE, IntervalSystem, ObserverRealization

__all__ = [
    "BracketReport",
    "SimulationTrace",
    "SwitchingSignal",
    "TrueSystem",
    "export_csv",
    "make_switching_signal",
    "sample_truth",
    "simulate_continuous",
    "simulate_discrete",
    "validate_truth",
    "verify_bracket",
]

# Cells spelled per CSV chunk: numpy's per-call cost falls with the chunk and
# the cost of its temporaries rises, so this is sized in cells, not rows.
_CSV_CHUNK_CELLS = 21_504


def _cell_tables() -> tuple:
    """A cell's word tables, sliced out of the 100 two-digit spellings (built with
    arithmetic and fancy indexing, they raised an import's peak RSS by 0.25 MB
    more).  A zero byte spells nothing."""
    pairs = np.frombuffer(b"".join([b"%02d" % k for k in range(100)]), np.uint8).reshape(100, 2)
    quads = np.empty((100, 100, 4), dtype=np.uint8)  # "0000" .. "9999"
    quads[..., :2], quads[..., 2:] = pairs[:, None], pairs
    quads = quads.reshape(10000, 4)
    tails = quads[::10].copy()  # "ddd0" -> "ddde"
    tails[:, 3] = ord("e")
    heads = np.zeros((2, 100, 4), dtype=np.uint8)  # "d.d", then "-d.d"
    heads[1, :, 0], heads[..., 1::2], heads[..., 2] = ord("-"), pairs, ord(".")
    exponents = np.zeros((600, 8), dtype=np.uint8)  # "-123," .. "-01," "+00," .. "+299,"
    exponents[:300, 0], exponents[300:, 0], exponents[:, 4] = ord("-"), ord("+"), ord(",")
    exponents[:300, 1:4], exponents[300:, 1:4] = quads[300:0:-1, 1:], quads[:300, 1:]
    exponents[201:400, 1] = 0
    # A plain cell's head drops the sign byte ("d.d", then a byte that is
    # overwritten) and its exponent the hundreds digit ("+dd,").
    plain_heads = np.roll(heads[0], -1, axis=1)
    plain_exponents = exponents[:, [0, 2, 3, 4]].copy()
    return (heads.view(np.uint32).ravel(), quads.view(np.uint32).ravel(),
            tails.view(np.uint32).ravel(), exponents.view(np.uint64).ravel(),
            plain_heads.view(np.uint32).ravel(), plain_exponents.view(np.uint32).ravel())


# One CSV cell is 6 words (24 bytes): sign, first digit, "." and second digit;
# two 4-digit groups; the last 3 digits and "e"; the exponent and "," in two.
_CELL_WORDS = 6
_HEADS, _QUADS, _TAILS, _EXPONENTS, _PLAIN_HEADS, _PLAIN_EXPONENTS = _cell_tables()
# A plain cell is 19 bytes, five unaligned words stored in this order at these
# offsets: the head, two groups, the last 3 digits and "e", the exponent.
_PLAIN_CELL_BYTES = 19
_PLAIN_OFFSETS = (0, 3, 7, 11, 15)
# Correctly rounded 10**(12 - e) at e + 300; e < -296 (never read) gives inf.
_SCALES = np.array([float(f"1e{12 - e}") for e in range(-300, 300)])
# s = |v| * 10**(12 - e) is rounded twice, so below 1e13 it is off by less
# than 1e13 * 2**-52 < 2.3e-3; a fraction farther than this from 1/2
# rounds the same way as the exact product.
_TIE_GUARD = 1.0 / 400.0
_TINY = np.finfo(float).tiny
# A row norm below this (about 1.5e-154) is a sum of subnormal squares.
_NORM_TINY = float(np.sqrt(_TINY))
# A run of one propagator steps in blocks of at most _POWERS samples, and the
# power stacks of all propagators together hold at most _POWER_CELLS cells.
_POWERS, _POWER_CELLS = 32, 32_768


@dataclass(frozen=True)
class TrueSystem:
    """One admissible realization: exact subsystem matrices, stored as a frozen
    (N, n, n) stack, and initial state."""

    a: np.ndarray
    x0: np.ndarray

    def __post_init__(self):
        mats = _as_finite(self.a, 3, "A")
        n = mats.shape[1]
        if mats.shape[2] != n:
            raise ValueError(f"A must be N matrices of size {n}x{n}, got shape {mats.shape}")
        x0 = as_vector(self.x0, "x0")
        if x0.shape != (n,):
            raise ValueError(f"x0 must have length {n}")
        object.__setattr__(self, "a", freeze(mats))
        object.__setattr__(self, "x0", freeze(x0))


def validate_truth(sys: IntervalSystem, truth: TrueSystem) -> None:
    """Raise when the realization leaves the interval model, naming the entry."""
    if len(truth.a) != sys.nsub:
        raise ValueError(f"truth has {len(truth.a)} subsystems, model has {sys.nsub}")
    if truth.x0.shape != sys.x0_lower.shape:  # TrueSystem ties it to the matrix size
        raise ValueError("truth x0 has wrong length")
    below = truth.a < sys.a_lower
    bad = _first_entry(below | (truth.a > sys.a_upper))
    if bad is not None:
        side = "below A_lower" if below[bad] else "above A_upper"
        bound = (sys.a_lower if below[bad] else sys.a_upper)[bad]
        i, entry = bad[0], bad[1:]
        raise ValueError(f"truth A[{i}] entry {entry} = {truth.a[bad]:g} is {side} = {bound:g}")
    if np.any(truth.x0 < sys.x0_lower) or np.any(truth.x0 > sys.x0_upper):
        j = int(np.argmax(np.maximum(sys.x0_lower - truth.x0, truth.x0 - sys.x0_upper)))
        raise ValueError(
            f"truth x0[{j}] = {truth.x0[j]:g} outside [{sys.x0_lower[j]:g}, {sys.x0_upper[j]:g}]"
        )


def sample_truth(sys: IntervalSystem, seed: int) -> TrueSystem:
    """Draw an admissible realization uniformly from the interval model."""
    rng = np.random.default_rng(seed)
    mats = sys.a_lower + rng.uniform(size=sys.a_lower.shape) * (sys.a_upper - sys.a_lower)
    x0 = sys.x0_lower + rng.uniform(size=sys.n) * (sys.x0_upper - sys.x0_lower)
    return TrueSystem(a=mats, x0=x0)


@dataclass(frozen=True)
class SwitchingSignal:
    """Piecewise-constant subsystem selection.

    ``times`` holds the interval start points (time values in continuous
    time, step indices in discrete time), finite, beginning at 0 and strictly
    increasing; ``indices`` holds the matching 1-based subsystem ids.
    """

    times: np.ndarray
    indices: np.ndarray
    n_subsystems: int
    min_dwell: float = 0.0

    def __post_init__(self):
        times = np.array(self.times, dtype=float)
        idx = np.array(self.indices, dtype=int)
        if times.ndim != 1 or idx.shape != times.shape or times.size < 1:
            raise ValueError("times and indices must be 1-D of equal nonzero length")
        if times[0] != 0.0:
            raise ValueError("switching must start at time 0")
        if not np.isfinite(times).all():  # a nan gap would pass the test below
            raise ValueError("switch times must be finite")
        if not 0 <= self.min_dwell < np.inf:
            raise ValueError("min_dwell must be finite and >= 0")
        gaps = times[1:] - times[:-1]
        if (gaps <= 0).any():
            raise ValueError("switch times must be strictly increasing")
        if self.min_dwell > 0 and gaps.size and gaps.min() < self.min_dwell - 1e-12:
            raise ValueError("an interval is shorter than min_dwell")
        if idx.min() < 1 or idx.max() > self.n_subsystems:
            raise ValueError(f"subsystem ids must lie in 1..{self.n_subsystems}")
        object.__setattr__(self, "times", freeze(times))
        object.__setattr__(self, "indices", freeze(idx))

    def indices_at(self, t) -> np.ndarray:
        """Active subsystem ids at the times ``t`` (right-continuous)."""
        pos = np.searchsorted(self.times, t, side="right") - 1
        return self.indices[np.maximum(pos, 0)]


def make_switching_signal(
    n_subsystems: int,
    horizon: float,
    min_dwell: float,
    seed: int,
    domain: str = CONTINUOUS,
) -> SwitchingSignal:
    """Seeded random switching: dwell uniform in [min_dwell, 2 min_dwell].

    Consecutive ids always differ when more than one subsystem exists.  A
    dwell of zero, or one at least as long as the horizon, degenerates to a
    single interval covering the whole horizon.  Discrete-time dwells are
    rounded to whole steps, none shorter than ``ceil(min_dwell)``.

    The draws are ``default_rng(seed)``'s ``integers(1, N + 1)``, then per switch
    ``random()`` and ``integers(N - 1)``, read off blocks of raw words as those calls
    read them, so the signal is the same bit for bit: ``random()`` is ``(w >> 11) *
    2**-53``; ``integers(k)`` is Lemire's multiply-shift with rejection on a word, or
    for ``k <= 2**32`` on the low half of a fresh word and then on its high half.
    """
    if domain not in (CONTINUOUS, DISCRETE):
        raise ValueError(f"domain must be '{CONTINUOUS}' or '{DISCRETE}', got {domain!r}")
    if n_subsystems < 1:
        raise ValueError("n_subsystems must be >= 1")
    if not 0 < horizon < np.inf:
        raise ValueError("horizon must be finite and > 0")
    if not 0 <= min_dwell < np.inf:
        raise ValueError("min_dwell must be finite and >= 0")
    bit_generator = np.random.default_rng(seed).bit_generator
    # Raw words in blocks of what a signal draws when no draw is rejected: the first
    # id, the last dwell, and a dwell and an id for each of at most horizon / min_dwell
    # switches.
    block = 2 + 2 * int(min(horizon / min_dwell, 2048.0)) if min_dwell > 0 else 2
    words = (w for _ in iter(int, 1) for w in bit_generator.random_raw(block).tolist())
    half = None  # the unused high half of the last word a 32-bit draw split

    def integer(k):  # rng.integers(k): Lemire's multiply-shift with rejection
        nonlocal half
        bits = 32 if k <= 1 << 32 else 64
        threshold = (1 << bits) % k  # a low part below it is rejected
        while k > 1:
            if bits == 64:
                m = next(words) * k
            elif half is None:
                word = next(words)
                m, half = (word & 0xFFFFFFFF) * k, word >> 32
            else:
                m, half = half * k, None
            if m & ((1 << bits) - 1) >= threshold:
                return m >> bits
        return 0

    last = integer(n_subsystems) + 1
    times = [0.0]
    indices = [last]
    if n_subsystems > 1 and 0 < min_dwell < horizon:
        t = 0.0
        while True:
            # rng.random(); rng.uniform(min_dwell, 2 * min_dwell) draws the same
            # value, but raises OverflowError when 2 * min_dwell is not finite.
            dwell = min_dwell + min_dwell * ((next(words) >> 11) * 2.0**-53)
            if domain == DISCRETE and dwell < math.inf:  # an infinite dwell ends the signal
                dwell = float(max(math.ceil(min_dwell), round(dwell)))
            t += dwell
            if t >= horizon:
                break
            k = integer(n_subsystems - 1) + 1  # the k-th id other than last
            last = k + (k >= last)
            times.append(t)
            indices.append(last)
    return SwitchingSignal(times=times, indices=indices, n_subsystems=n_subsystems,
                           min_dwell=min_dwell)


@dataclass(frozen=True)
class SimulationTrace:
    """Time-indexed samples of the plant and the observer pair.

    ``sigma`` is the active 1-based subsystem id per sample.
    """

    domain: str
    times: np.ndarray
    x: np.ndarray
    y: np.ndarray
    omega_lower: np.ndarray
    omega_upper: np.ndarray
    xhat_lower: np.ndarray
    xhat_upper: np.ndarray
    xi: np.ndarray
    sigma: np.ndarray

    @property
    def n(self) -> int:
        return self.x.shape[1]

    @property
    def p(self) -> int:
        return self.y.shape[1]


def _coupled_matrices(a: np.ndarray, obs: ObserverRealization) -> np.ndarray:
    """Block generator/step matrix of (x, omega_l, omega_u) per plant in ``a``."""
    n, m, p = a.shape[1], obs.order, obs.p
    big = np.zeros((len(a), n + 2 * m, n + 2 * m))
    big[:, :n, :n] = a
    rows = [(obs.ahat_lower, obs.g_lower), (obs.ahat_upper, obs.g_upper)]
    for k, (ahat, g) in enumerate(rows):
        r0 = n + k * m
        big[:, r0 : r0 + m, :p] = g
        big[:, r0 : r0 + m, r0 : r0 + m] = ahat
    return big


def _rk4_propagators(mats: np.ndarray, sigma: np.ndarray, h: np.ndarray) -> tuple:
    """The RK4 step matrices of the distinct (subsystem id, h) pairs as one
    stack, and per sample the index of its matrix in that stack: 16 matrices
    for the 2,006 steps of fixture 4.1, whose whole cells share one h."""
    steps, h_id = np.unique(h, return_inverse=True)
    keys, which = np.unique(h_id * len(mats) + (sigma - 1), return_inverse=True)
    h_idx, mat_idx = np.divmod(keys, len(mats))
    x = steps[h_idx, None, None] * mats[mat_idx]
    eye = np.eye(mats.shape[1])
    table = eye + x / 4.0
    for j in (3.0, 2.0, 1.0):
        table = eye + (x / j) @ table
    return table, which


def _propagate(table: np.ndarray, which: np.ndarray, z0: np.ndarray, where) -> np.ndarray:
    """Rows of ``z[k+1] = table[which[k]] @ z[k]`` from ``z[0] = z0``; raises
    FloatingPointError naming ``where(k)`` for the first non-finite row ``k``.

    A run of one index steps in blocks: one ``np.dot`` of its stacked powers
    ``P, P^2, ..., P^m`` with a row writes the next ``m`` rows.  One batched
    doubling builds the powers, ending each stack before its first power with
    a non-finite or subnormal entry.  Each column stays within ``_POWERS d u``
    of its largest entry from one product per sample (``u`` the unit roundoff).
    """
    d = z0.size
    starts = np.flatnonzero(np.diff(which, prepend=-1))  # the first sample of each run
    lengths = np.diff(starts, append=which.size)
    runs = which[starts]  # the table index of each run
    stacks = list(table)
    rows = np.empty((which.size + 1, d))
    rows[0] = z0
    flat = rows.ravel()
    with np.errstate(over="ignore", invalid="ignore"):
        longs = np.flatnonzero(np.bincount(runs[lengths > 1], minlength=len(table)))
        depth = min(_POWERS, int(lengths.max()), _POWER_CELLS // max(1, longs.size * d * d))
        if depth > 1:
            powers = np.empty((longs.size, depth * d, d))  # rows of P, P^2, ... per index
            powers[:, :d] = table[longs]
            for k in (2**i for i in range((depth - 1).bit_length())):
                m = min(k, depth - k)  # P^(k+1) .. P^(k+m) = (P .. P^m) P^k
                np.matmul(powers[:, : m * d], powers[:, (k - 1) * d : k * d],
                          out=powers[:, k * d : (k + m) * d])
            mag = np.abs(powers).reshape(longs.size, depth, d * d)
            normal = (((mag >= _TINY) & (mag < np.inf)) | (mag == 0.0)).all(axis=2)
            for j, stack, size in zip(longs.tolist(), powers, normal.cumprod(axis=1).sum(axis=1)):
                stacks[j] = stack[: max(1, size) * d]
        for start, stop, j in zip(starts.tolist(), (starts + lengths).tolist(), runs.tolist()):
            stack = stacks[j]
            size = len(stack) // d
            for i in range(start, stop, size):
                m = min(size, stop - i)
                np.dot(stack[: m * d], rows[i], out=flat[(i + 1) * d : (i + 1 + m) * d])
    bad = np.flatnonzero(~np.isfinite(rows[1:]).all(axis=1))
    if bad.size:
        raise FloatingPointError(f"non-finite state at {where(int(bad[0]) + 1)}")
    return rows


def _setup(sys: IntervalSystem, truth: TrueSystem, obs: ObserverRealization,
           sig: SwitchingSignal) -> tuple:
    """Check the inputs agree; return the coupled matrices and the initial state."""
    validate_truth(sys, truth)
    if obs.order != sys.n - sys.p or obs.p != sys.p:
        raise ValueError("observer dimensions do not match the system")
    if sig.n_subsystems != sys.nsub:
        raise ValueError(
            f"switching signal covers {sig.n_subsystems} subsystems, model has {sys.nsub}"
        )
    mats = _coupled_matrices(truth.a, obs)
    z0 = np.concatenate([truth.x0, obs.omega0_lower, obs.omega0_upper])
    return mats, z0


def _assemble_trace(sys, obs, domain, times, z_rows, sigma) -> SimulationTrace:
    n, p, m = sys.n, sys.p, obs.order
    x = z_rows[:, :n]
    y = x[:, :p].copy()
    omega_l = z_rows[:, n : n + m]
    omega_u = z_rows[:, n + m : n + 2 * m]
    xhat_l = omega_l @ obs.chat.T + y @ obs.dhat.T
    xhat_u = omega_u @ obs.chat.T + y @ obs.dhat.T
    return SimulationTrace(
        domain=domain,
        times=times,
        x=x,
        y=y,
        omega_lower=omega_l,
        omega_upper=omega_u,
        xhat_lower=xhat_l,
        xhat_upper=xhat_u,
        xi=xhat_u - xhat_l,
        sigma=sigma,
    )


def _grid(sig: SwitchingSignal, step: float, horizon: float) -> tuple:
    """The sample times of :func:`simulate_continuous` and the step of each interval."""
    n_whole = int(np.floor(horizon / step + 1e-9))
    base = np.arange(n_whole + 1) * step
    keep = base < horizon - 1e-9 * step  # the horizon itself is appended once
    keep[0] = True  # and t = 0 stays, however short the horizon
    base = base[keep]
    interior_switches = sig.times[(sig.times > 0.0) & (sig.times < horizon)]
    points = np.concatenate([base, interior_switches, [horizon]])
    order = np.argsort(points, kind="stable")  # a grid point first among equal times
    first = np.diff(points[order], prepend=-1.0) > 0  # (np.unique would import numpy.ma)
    times, on_grid = points[order][first], order[first] < base.size
    h = np.diff(times)
    h[on_grid[:-1] & on_grid[1:]] = step
    return times, h


def simulate_continuous(
    sys: IntervalSystem,
    truth: TrueSystem,
    obs: ObserverRealization,
    sig: SwitchingSignal,
    step: float = 1e-3,
    horizon: float = 2.0,
) -> SimulationTrace:
    """Integrate plant and observers over [0, horizon] with fixed-step RK4.

    The sample grid is the uniform ``step`` grid with every switch instant
    inserted exactly, so no integration interval straddles a switch.  A whole
    cell of the grid is stepped with ``step`` itself; the pieces a switch
    splits off and the last step, which ends on the horizon, keep their exact
    lengths.  All states are continuous across switches; only the driving
    matrices change.
    """
    if sys.domain != CONTINUOUS:
        raise ValueError("simulate_continuous requires a continuous-time system")
    if not 0 < step < np.inf:
        raise ValueError("step must be finite and > 0")
    if not 0 < horizon < np.inf:
        raise ValueError("horizon must be finite and > 0")
    mats, z0 = _setup(sys, truth, obs, sig)

    times, h = _grid(sig, step, horizon)
    sigma = sig.indices_at(times)
    rows = _propagate(*_rk4_propagators(mats, sigma[:-1], h), z0, lambda k: f"t = {times[k]:.9g}")
    return _assemble_trace(sys, obs, CONTINUOUS, times, rows, sigma)


def simulate_discrete(
    sys: IntervalSystem,
    truth: TrueSystem,
    obs: ObserverRealization,
    sig: SwitchingSignal,
    horizon_steps: int,
) -> SimulationTrace:
    """Iterate the coupled maps for ``horizon_steps`` steps in floating point: the maps
    are exact, so there is no discretisation error."""
    if sys.domain != DISCRETE:
        raise ValueError("simulate_discrete requires a discrete-time system")
    if horizon_steps < 1:
        raise ValueError("horizon_steps must be >= 1")
    mats, z0 = _setup(sys, truth, obs, sig)

    times = np.arange(horizon_steps + 1, dtype=float)
    sigma = sig.indices_at(times)
    rows = _propagate(mats, sigma[:-1] - 1, z0, lambda k: f"step {k}")
    return _assemble_trace(sys, obs, DISCRETE, times, rows, sigma)


@dataclass(frozen=True)
class BracketReport:
    """Violation counts for the three bracket layers plus summary statistics.

    Layers: ``nonneg`` (xhat_lower >= 0), ``lower`` (xhat_lower <= x) and
    ``upper`` (x <= xhat_upper), each counted elementwise over the grid with
    slack ``tol``.  ``outputs_exact`` records whether the measured components
    of both estimates equal the output bit-for-bit.
    """

    tol: float
    violations_nonneg: int
    violations_lower: int
    violations_upper: int
    worst_violation: float
    worst_location: tuple | None
    sup_xi_norm: float
    xi_norm_start: float
    xi_norm_end: float
    outputs_exact: bool

    @property
    def total_violations(self) -> int:
        return self.violations_nonneg + self.violations_lower + self.violations_upper

    @property
    def ok(self) -> bool:
        return self.total_violations == 0


def verify_bracket(trace: SimulationTrace, tol: float = 1e-6) -> BracketReport:
    """Count elementwise bracket violations beyond ``tol`` over the trace."""
    if not 0 <= tol < np.inf:
        raise ValueError("tol must be finite and >= 0")
    layers = {
        "nonneg": trace.xhat_lower,
        "lower": trace.x - trace.xhat_lower,
        "upper": trace.xhat_upper - trace.x,
    }
    counts = {}
    worst = 0.0
    worst_loc = None
    for name, slack in layers.items():
        mask = slack < -tol
        counts[name] = int(mask.sum())
        if counts[name]:
            flat = np.argmin(slack)
            t_idx, comp = np.unravel_index(flat, slack.shape)
            magnitude = float(-slack[t_idx, comp])
            if magnitude > worst:
                worst = magnitude
                worst_loc = (name, float(trace.times[t_idx]), int(comp))
    with np.errstate(over="ignore"):
        xi_norms = np.linalg.norm(trace.xi, axis=1)
    # Rescale the finite nonzero rows whose sum of squares over- or underflowed.
    redo = np.flatnonzero(~((xi_norms >= _NORM_TINY) & (xi_norms < np.inf)))
    big = np.abs(trace.xi[redo]).max(axis=1)
    keep = (big > 0.0) & (big < np.inf)
    redo, big = redo[keep], big[keep]
    xi_norms[redo] = big * np.linalg.norm(trace.xi[redo] / big[:, None], axis=1)
    p = trace.p
    outputs_exact = (
        np.array_equal(trace.y, trace.x[:, :p])
        and np.array_equal(trace.xhat_lower[:, :p], trace.y)
        and np.array_equal(trace.xhat_upper[:, :p], trace.y)
    )
    return BracketReport(
        tol=tol,
        violations_nonneg=counts["nonneg"],
        violations_lower=counts["lower"],
        violations_upper=counts["upper"],
        worst_violation=worst,
        worst_location=worst_loc,
        sup_xi_norm=float(xi_norms.max()),
        xi_norm_start=float(xi_norms[0]),
        xi_norm_end=float(xi_norms[-1]),
        outputs_exact=outputs_exact,
    )


def _decimal(values: np.ndarray) -> tuple:
    """The exponent (e + 300) and 13-digit mantissa of ``"%.12e" % v`` for every
    cell of ``values``, each 0.0 or in [1e-280, 1e280), and the mask of the cells
    whose rounding the float64 arithmetic cannot decide (within ``_TIE_GUARD`` of
    a tie); those, and zeros, get mantissa 0 and exponent 0."""
    exp = np.floor(np.log10(np.maximum(values, 1e-280))).astype(np.intp) + 300
    scaled = values * _SCALES[exp]
    mant = np.rint(scaled)  # a tie, rounded to even, is undecided below
    # scaled >= 1e12 also rejects a zero and an exponent one too large (which could
    # round to mant = 1e12); |scaled - mant| is exact, 1/2 less the fraction's distance to 1/2.
    slow = ~((scaled >= 1e12) & (mant < 1e13) & (np.abs(scaled - mant) < 0.5 - _TIE_GUARD))
    mant[slow] = 0.0  # zeros spell 0.000000000000e+00
    exp[slow] = 300
    return exp, mant, slow


def _store_digits(exp: np.ndarray, mant: np.ndarray, stores: tuple, heads: np.ndarray,
                  exponents: np.ndarray) -> None:
    """Store the words of each cell from its exponent and mantissa (:func:`_decimal`).

    ``stores`` holds five arrays of ``mant.shape``, written in order: the head
    from ``heads`` (indexed by the mantissa's leading two digits), two 4-digit
    groups, the last 3 digits and "e", and the exponent from ``exponents``.
    """
    rest = mant.astype(np.int64)  # below 2e13: exact integer arithmetic
    group = rest // 10**11
    stores[0][...] = heads[group]
    rest -= group * 10**11
    np.floor_divide(rest, 10**7, out=group)
    stores[1][...] = _QUADS[group]
    rest -= group * 10**7
    np.floor_divide(rest, 1000, out=group)
    stores[2][...] = _QUADS[group]
    rest -= group * 1000
    stores[3][...] = _TAILS[rest]
    stores[4][...] = exponents[exp]


def _spell_cells(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write ``"%.12e," % v`` for every cell of ``values`` into ``out``.

    ``out`` is a uint32 array, or a view of one, of shape ``values.shape +
    (_CELL_WORDS,)``; read as bytes, with the zero bytes dropped, each cell's
    words spell the cell.  The nonzero cells ``_decimal`` cannot decide, and
    those outside [1e-280, 1e280) or not finite, are spelled by Python's
    formatter instead.  Returns the mask of those cells.
    """
    stores = (out[..., 0], out[..., 1], out[..., 2], out[..., 3],
              out[..., 4:6].view(np.uint64)[..., 0])
    mag = np.abs(values)
    np.copyto(mag, 0.0, where=~((mag >= 1e-280) & (mag < 1e280)))  # nan fails both
    exp, mant, slow = _decimal(mag)
    np.add(mant, 1e13, out=mant, where=np.signbit(values))  # the signed heads 100..199
    _store_digits(exp, mant, stores, _HEADS, _EXPONENTS)
    fallback = slow & (values != 0.0)
    if fallback.any():
        flat = np.flatnonzero(fallback)
        # Padded to the 24 bytes of a cell; the longest spelling has 20.
        text = "".join(["%-23.12e," % v for v in values.take(flat).tolist()])
        spelled = np.frombuffer(text.encode("ascii"), dtype=np.uint8).copy()
        spelled[spelled == ord(" ")] = 0
        cells = np.unravel_index(flat, fallback.shape)  # out may be a strided view
        out[cells] = spelled.view(np.uint32).reshape(-1, _CELL_WORDS)
    return fallback


def _spell_plain_rows(values: np.ndarray, ids: np.ndarray, buf: np.ndarray) -> memoryview:
    """A view of the CSV rows of ``values`` and the ``sigma`` bytes ``ids``, spelled
    in the byte array ``buf`` at ``_PLAIN_CELL_BYTES`` a cell with no padding, every
    byte written.  Each cell must be +0.0 or in [1e-99, 9.9999999999995e99), which
    spells with no sign and a two-digit exponent.
    """
    rows, cols = values.shape
    cell = _PLAIN_CELL_BYTES
    width = cell * cols + ids.shape[1] + 1

    def view(offset, dtype, shape, strides):
        return np.ndarray(shape, dtype, buffer=buf, offset=offset, strides=strides)

    stores = [view(k, np.uint32, values.shape, (width, cell)) for k in _PLAIN_OFFSETS]
    exp, mant, slow = _decimal(values)
    _store_digits(exp, mant, stores, _PLAIN_HEADS, _PLAIN_EXPONENTS)
    fallback = slow & (values != 0.0)
    if fallback.any():
        flat = np.flatnonzero(fallback)
        text = "".join(["%.12e," % v for v in values.take(flat).tolist()])
        cells = view(0, np.uint8, (rows, cols, cell), (width, cell, 1))
        cells[np.unravel_index(flat, fallback.shape)] = np.frombuffer(
            text.encode("ascii"), dtype=np.uint8).reshape(-1, cell)
    tail = view(cell * cols, np.uint8, (rows, ids.shape[1] + 1), (width, 1))
    tail[:, :-1] = ids
    tail[:, -1] = ord("\n")
    return memoryview(buf)[: rows * width]


def export_csv(trace: SimulationTrace, fileobj) -> None:
    """Write the trace as ASCII CSV to the binary ``fileobj``: t, x, both estimates, xi, sigma.

    Each float is written as CPython's ``"%.12e" % v`` (13 significant digits,
    correctly rounded) and ``sigma`` as a decimal integer.  The trace is
    spelled in chunks of at most ``_CSV_CHUNK_CELLS`` cells, at least one row
    each: 1,024 rows of fixture 4.1's 21 columns, and the whole 601-row trace
    of fixture 4.2 in one.  A plain row has an id as wide as the chunk's first
    and every cell +0.0 or in [1e-99, 9.9999999999995e99): the cells spelled in
    19 bytes, as that float is the least spelled ``1.000000000000e+100``.  A
    chunk's leading plain rows, all of them in a plain chunk, are spelled by
    ``_spell_plain_rows`` at fixed offsets; the rest by ``_spell_cells`` in
    24-byte slots whose zero bytes are then dropped.  Each layout's workspace
    is allocated by the first chunk that uses it and never zero-filled: every
    byte of a row is written before it is read.  The plain rows go out as a
    view of theirs, which the next chunk reuses: io's ``write`` contract has
    ``write`` read its argument only until it returns.
    """
    names = [f"{name}{j + 1}" for name in ("x", "xhatl", "xhatu", "xi") for j in range(trace.n)]
    fileobj.write((",".join(["t", *names, "sigma"]) + "\n").encode("ascii"))
    cols = 1 + 4 * trace.n
    columns = (trace.times[:, None], trace.x, trace.xhat_lower, trace.xhat_upper, trace.xi)
    ids, which = np.unique(trace.sigma.astype(np.int64), return_inverse=True)
    ids = ids.astype("S")  # at most 21 bytes, each distinct id spelled once
    ids = ids.view(np.uint8).reshape(ids.size, ids.itemsize)
    id_widths = np.count_nonzero(ids, axis=1)[which]
    ids = ids[which]
    size = trace.times.size
    step = max(1, min(size, _CSV_CHUNK_CELLS // cols))
    plain = chunk = None
    for start in range(0, size, step):
        stop = min(start + step, size)
        values = np.hstack([c[start:stop] for c in columns], dtype=float)
        width = id_widths[start]
        cells = ((values >= 1e-99) & (values < 9.9999999999995e99)) | (values.view(np.int64) == 0)
        plain_rows = cells.all(axis=1) & (id_widths[start:stop] == width)  # nan fails
        head = stop - start if plain_rows.all() else int(plain_rows.argmin())  # plain head
        if head:
            if plain is None:
                plain = np.empty(step * (_PLAIN_CELL_BYTES * cols + ids.shape[1] + 1), np.uint8)
            fileobj.write(_spell_plain_rows(values[:head], ids[start : start + head, :width], plain))
        if head < stop - start:
            if chunk is None:  # each row: cols cell slots, one for sigma and "\n"
                chunk = np.empty((step, cols + 1, _CELL_WORDS), dtype=np.uint32)
            words = chunk[: stop - start - head]
            _spell_cells(values[head:], words[:, :cols])
            slots = words.view(np.uint8).reshape(len(words), cols + 1, 4 * _CELL_WORDS)
            slots[:, cols] = 0
            slots[:, cols, : ids.shape[1]] = ids[start + head : stop]
            slots[:, cols, -1] = ord("\n")
            fileobj.write(slots.tobytes().translate(None, b"\0"))
