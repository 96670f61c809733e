"""Co-simulation of a switched plant with its interval observer pair.

The plant, the lower/upper observers, and the two diagnostic observers run
from the exact (sampled) plant matrices are one coupled linear system per
active subsystem.  Both time domains run one loop ``z[k+1] = P[which[k]] @ z[k]``
over a stack P, one BLAS ``dgemv`` per sample: the maps themselves in discrete
time, and in continuous time the RK4 step matrices I + X(I + X/2(I + X/3(I + X/4))),
X = h M, one per distinct (subsystem, h) pair of a grid that hits every switch
instant exactly.  These equal staged RK4 up to rounding.  Each step calls the
bound ``dot`` method of its matrix, which reaches the ``dgemv`` that ``np.matmul``
calls, and the stack is built with one ``dgemm`` per matrix, so the states are
bit for bit those of one ``np.matmul`` per sample.  ``export_csv`` spells each
float as ``"%.12e"`` does, from tables of 24-byte cells.

Besides the state bracket ``0 <= xhat_lower <= x <= xhat_upper``, each trace
records the two one-sided errors ``eps_lower = F x - omega_mid_lower`` and
``eps_upper = omega_mid_upper - F x`` whose nonnegativity is what makes the
bracket work; they are exposed for numerical verification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import _as_finite, _first_entry, as_vector, freeze
from .synth import CONTINUOUS, DISCRETE, IntervalSystem, ObserverRealization, _observer_blocks

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

_CSV_CHUNK_ROWS = 256


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
    return (heads.view(np.uint32).ravel(), quads.view(np.uint32).ravel(),
            tails.view(np.uint32).ravel(), exponents.view(np.uint64).ravel())


# One CSV cell is 6 words (24 bytes): sign, first digit, "." and second digit;
# two 4-digit groups; the last 3 digits and "e"; the exponent and "," in two.
_CELL_WORDS = 6
_HEADS, _QUADS, _TAILS, _EXPONENTS = _cell_tables()
# Correctly rounded 10**(12 - e) at e + 300; e < -296 (never read) gives inf.
_SCALES = np.array([float(f"1e{12 - e}") for e in range(-300, 300)])
# s = |v| * 10**(12 - e) is rounded twice, so below 1e13 it is off by less
# than 1e13 * 2**-52 < 2.3e-3; a fraction farther than this from 1/2
# rounds the same way as the exact product.
_TIE_GUARD = 1.0 / 256.0
# A row norm below this (about 1.5e-154) is a sum of subnormal squares.
_NORM_TINY = float(np.sqrt(np.finfo(float).tiny))


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


def validate_truth(sys: IntervalSystem, truth: TrueSystem, tol: float = 0.0) -> None:
    """Raise when the realization leaves the interval model, naming the entry."""
    if len(truth.a) != sys.nsub:
        raise ValueError(f"truth has {len(truth.a)} subsystems, model has {sys.nsub}")
    for i, (m, lo, up) in enumerate(zip(truth.a, sys.a_lower, sys.a_upper)):
        if m.shape != lo.shape:
            raise ValueError(f"truth A[{i}] has shape {m.shape}, expected {lo.shape}")
        bad = _first_entry(m < lo - tol)
        if bad is not None:
            raise ValueError(
                f"truth A[{i}] entry {bad} = {m[bad]:g} is below A_lower = {lo[bad]:g}"
            )
        bad = _first_entry(m > up + tol)
        if bad is not None:
            raise ValueError(
                f"truth A[{i}] entry {bad} = {m[bad]:g} is above A_upper = {up[bad]:g}"
            )
    if truth.x0.shape != sys.x0_lower.shape:
        raise ValueError("truth x0 has wrong length")
    if np.any(truth.x0 < sys.x0_lower - tol) or np.any(truth.x0 > sys.x0_upper + tol):
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
    time, step indices in discrete time) beginning at 0 and strictly
    increasing; ``indices`` holds the matching 1-based subsystem ids.
    """

    times: np.ndarray
    indices: np.ndarray
    n_subsystems: int
    min_dwell: float = 0.0
    seed: int | None = None

    def __post_init__(self):
        times = np.array(self.times, dtype=float)
        idx = np.array(self.indices, dtype=int)
        if times.ndim != 1 or idx.shape != times.shape or times.size < 1:
            raise ValueError("times and indices must be 1-D of equal nonzero length")
        if times[0] != 0.0:
            raise ValueError("switching must start at time 0")
        if np.any(np.diff(times) <= 0):
            raise ValueError("switch times must be strictly increasing")
        if self.min_dwell > 0 and times.size > 1:
            if np.min(np.diff(times)) < self.min_dwell - 1e-12:
                raise ValueError("an interval is shorter than min_dwell")
        if np.any(idx < 1) or np.any(idx > self.n_subsystems):
            raise ValueError(f"subsystem ids must lie in 1..{self.n_subsystems}")
        object.__setattr__(self, "times", freeze(times))
        object.__setattr__(self, "indices", freeze(idx))

    def indices_at(self, t) -> np.ndarray:
        """Active subsystem ids at the times ``t`` (right-continuous)."""
        pos = np.searchsorted(self.times, t, side="right") - 1
        return self.indices[np.maximum(pos, 0)]

    def index_at(self, t: float) -> int:
        """Active subsystem id at time ``t`` (right-continuous)."""
        return int(self.indices_at(t))


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
    rounded to whole steps (at least one).
    """
    if n_subsystems < 1:
        raise ValueError("n_subsystems must be >= 1")
    if not 0 < horizon < np.inf:
        raise ValueError("horizon must be finite and > 0")
    if not 0 <= min_dwell < np.inf:
        raise ValueError("min_dwell must be finite and >= 0")
    rng = np.random.default_rng(seed)
    first = int(rng.integers(1, n_subsystems + 1))
    times = [0.0]
    indices = [first]
    if n_subsystems > 1 and 0 < min_dwell < horizon:
        t = 0.0
        while True:
            dwell = rng.uniform(min_dwell, 2.0 * min_dwell)
            if domain == DISCRETE:
                dwell = max(1.0, float(round(dwell)))
            t += dwell
            if t >= horizon:
                break
            others = [j for j in range(1, n_subsystems + 1) if j != indices[-1]]
            times.append(t)
            indices.append(others[int(rng.integers(len(others)))])
    return SwitchingSignal(
        times=np.array(times),
        indices=np.array(indices),
        n_subsystems=n_subsystems,
        min_dwell=min_dwell,
        seed=seed,
    )


@dataclass(frozen=True)
class SimulationTrace:
    """Time-indexed samples of the plant, observers, and proof errors.

    ``sigma`` is the active 1-based subsystem id per sample;
    ``omega_mid_lower``/``omega_mid_upper`` are the diagnostic observers run
    with the exact plant matrices, from which the one-sided errors
    ``eps_lower``/``eps_upper`` are formed.
    """

    domain: str
    times: np.ndarray
    x: np.ndarray
    y: np.ndarray
    omega_lower: np.ndarray
    omega_upper: np.ndarray
    omega_mid_lower: np.ndarray
    omega_mid_upper: np.ndarray
    xhat_lower: np.ndarray
    xhat_upper: np.ndarray
    xi: np.ndarray
    eps_lower: np.ndarray
    eps_upper: np.ndarray
    sigma: np.ndarray

    @property
    def n(self) -> int:
        return self.x.shape[1]

    @property
    def p(self) -> int:
        return self.y.shape[1]


def _coupled_matrices(a: np.ndarray, obs: ObserverRealization) -> np.ndarray:
    """Block generator/step matrix of (x, omega_l, omega_u, mid_l, mid_u) per plant in ``a``."""
    n, m, p = a.shape[1], obs.order, obs.p
    a_true, g_true = _observer_blocks(a, a, obs.gain_l)
    big = np.zeros((len(a), n + 4 * m, n + 4 * m))
    big[:, :n, :n] = a
    rows = [(obs.ahat_lower, obs.g_lower), (obs.ahat_upper, obs.g_upper),
            (a_true, g_true), (a_true, g_true)]
    for k, (ahat, g) in enumerate(rows):
        r0 = n + k * m
        big[:, r0 : r0 + m, :p] = g
        big[:, r0 : r0 + m, r0 : r0 + m] = ahat
    return big


def _rk4_propagators(mats: np.ndarray, sigma: np.ndarray, h: np.ndarray) -> tuple:
    """The RK4 step matrices of the distinct (subsystem id, h) pairs as one
    stack, and per sample the index of its matrix in that stack."""
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
    """Rows of ``z[k+1] = table[which[k]] @ z[k]`` from ``z[0] = z0``, one
    ``dgemv`` each; raises FloatingPointError naming ``where(k)`` for the first
    non-finite row ``k``."""
    dots = [m.dot for m in table]  # bound methods skip np.dot's dispatch
    rows = np.empty((which.size + 1, z0.size))
    rows[0] = z0
    with np.errstate(over="ignore", invalid="ignore"):
        for j, src, dst in zip(which.tolist(), rows, rows[1:]):
            dots[j](src, dst)
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
    z0 = np.concatenate([truth.x0, obs.omega0_lower, obs.omega0_upper,
                         obs.omega0_lower, obs.omega0_upper])
    return mats, z0


def _assemble_trace(sys, obs, domain, times, z_rows, sigma) -> SimulationTrace:
    n, p, m = sys.n, sys.p, obs.order
    x = z_rows[:, :n]
    y = x[:, :p].copy()
    omega_l = z_rows[:, n : n + m]
    omega_u = z_rows[:, n + m : n + 2 * m]
    mid_l = z_rows[:, n + 2 * m : n + 3 * m]
    mid_u = z_rows[:, n + 3 * m : n + 4 * m]
    xhat_l = omega_l @ obs.chat.T + y @ obs.dhat.T
    xhat_u = omega_u @ obs.chat.T + y @ obs.dhat.T
    fx = x @ obs.f.T
    return SimulationTrace(
        domain=domain,
        times=times,
        x=x,
        y=y,
        omega_lower=omega_l,
        omega_upper=omega_u,
        omega_mid_lower=mid_l,
        omega_mid_upper=mid_u,
        xhat_lower=xhat_l,
        xhat_upper=xhat_u,
        xi=xhat_u - xhat_l,
        eps_lower=fx - mid_l,
        eps_upper=mid_u - fx,
        sigma=sigma,
    )


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
    inserted exactly, so no integration interval straddles a switch.  All
    states are continuous across switches; only the driving matrices change.
    """
    if sys.domain != CONTINUOUS:
        raise ValueError("simulate_continuous requires a continuous-time system")
    if not 0 < step < np.inf:
        raise ValueError("step must be finite and > 0")
    if not 0 < horizon < np.inf:
        raise ValueError("horizon must be finite and > 0")
    mats, z0 = _setup(sys, truth, obs, sig)

    n_whole = int(np.floor(horizon / step + 1e-9))
    base = np.arange(n_whole + 1) * step
    interior_switches = sig.times[(sig.times > 0.0) & (sig.times < horizon)]
    times = np.unique(np.concatenate([base, interior_switches, [horizon]]))

    sigma = sig.indices_at(times)
    rows = _propagate(*_rk4_propagators(mats, sigma[:-1], np.diff(times)), z0,
                      lambda k: f"t = {times[k]:.9g}")
    return _assemble_trace(sys, obs, CONTINUOUS, times, rows, sigma)


def simulate_discrete(
    sys: IntervalSystem,
    truth: TrueSystem,
    obs: ObserverRealization,
    sig: SwitchingSignal,
    horizon_steps: int,
) -> SimulationTrace:
    """Iterate the coupled maps for ``horizon_steps`` steps (exact arithmetic)."""
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


def _spell_cells(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write ``"%.12e," % v`` for every cell of ``values`` into ``out``.

    ``out`` is a uint32 array, or a view of one, of shape ``values.shape +
    (_CELL_WORDS,)``; read as bytes, with the zero bytes dropped, each cell's
    words spell the cell.  A cell whose 13-digit rounding the float64
    arithmetic cannot decide (within ``_TIE_GUARD`` of a tie, outside
    [1e-280, 1e280), not finite) is spelled by Python's formatter instead.
    Returns the mask of those cells.
    """
    mag = np.abs(values)
    normal = (mag >= 1e-280) & (mag < 1e280)
    np.copyto(mag, 1.0, where=~normal)
    exp = np.floor(np.log10(mag)).astype(np.intp) + 300  # e + 300
    scaled = mag * _SCALES[exp]
    whole = np.floor(scaled)
    frac = scaled - whole
    mant = whole + (frac > 0.5)
    # whole >= 1e12 also rejects an exponent one too large, whose rounding
    # at the 12th digit could give mant = 1e12.
    slow = ~(normal & (np.abs(frac - 0.5) > _TIE_GUARD) & (whole >= 1e12) & (mant < 1e13))
    mant[slow] = 0.0  # zeros spell 0.000000000000e+00
    exp[slow] = 300

    head = np.floor(mant / 1e11)
    rest = mant - head * 1e11
    quad = np.floor(rest / 1e7)
    rest -= quad * 1e7
    out[..., 1] = _QUADS[quad.astype(np.intp)]
    np.floor(rest / 1e3, out=quad)
    rest -= quad * 1e3
    np.add(head, 100.0, out=head, where=np.signbit(values))
    out[..., 0] = _HEADS[head.astype(np.intp)]
    out[..., 2] = _QUADS[quad.astype(np.intp)]
    out[..., 3] = _TAILS[rest.astype(np.intp)]
    out[..., 4:6].view(np.uint64)[..., 0] = _EXPONENTS[exp]

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


def export_csv(trace: SimulationTrace, fileobj) -> None:
    """Write the trace as CSV: t, x, both estimates, xi, active subsystem id.

    Each float is written as CPython's ``"%.12e" % v`` (13 significant digits,
    correctly rounded) and ``sigma`` as a decimal integer.  The float cells are
    spelled by ``_spell_cells`` in chunks of ``_CSV_CHUNK_ROWS`` rows.
    """
    n = trace.n
    header = (
        ["t"]
        + [f"x{j + 1}" for j in range(n)]
        + [f"xhatl{j + 1}" for j in range(n)]
        + [f"xhatu{j + 1}" for j in range(n)]
        + [f"xi{j + 1}" for j in range(n)]
        + ["sigma"]
    )
    fileobj.write(",".join(header) + "\n")
    cols = 1 + 4 * n
    columns = (trace.times[:, None], trace.x, trace.xhat_lower, trace.xhat_upper, trace.xi)
    ids, which = np.unique(trace.sigma.astype(np.int64), return_inverse=True)
    ids = ids.astype("S")  # at most 21 bytes, each distinct id spelled once
    ids = ids.view(np.uint8).reshape(ids.size, ids.itemsize)[which]
    # Each row is cols cell slots and one slot holding sigma and "\n".
    chunk = np.empty((_CSV_CHUNK_ROWS, cols + 1, _CELL_WORDS), dtype=np.uint32)
    for start in range(0, trace.times.size, _CSV_CHUNK_ROWS):
        stop = min(start + _CSV_CHUNK_ROWS, trace.times.size)
        words = chunk[: stop - start]
        _spell_cells(np.hstack([c[start:stop] for c in columns]), words[:, :cols])
        text = words.view(np.uint8).reshape(stop - start, cols + 1, 4 * _CELL_WORDS)
        text[:, cols] = 0
        text[:, cols, : ids.shape[1]] = ids[start:stop]
        text[:, cols, -1] = ord("\n")
        fileobj.write(text.tobytes().translate(None, b"\0").decode("ascii"))
