"""Common linear copositive stability certificates via LP feasibility.

A family of square matrices ``M_1 .. M_N`` admits a common linear copositive
certificate when some vector ``lam > 0`` satisfies ``M_i^T lam < 0`` for all
``i``.  The strict system is homogeneous, so it is feasible exactly when the
closed system

    lam >= 1        and        M_i^T lam <= -1

is.  It is solved on a right-hand side normalised to ``max|b| = 1``.  Every LP
of the package, ``mu >= 0`` with ``a @ mu <= b``, is decided by :func:`_decide`
with a small dense phase-1 simplex under Bland's rule; no external solver is
involved.

- A right-hand side with no negative entry is solved by ``mu = 0``, with no
  solve.
- An LP with more rows than columns, such as the ``m N`` by ``m`` copositive
  LP, is solved first on its Farkas alternative, which has one row per column
  plus one.  Any other LP, and the gain LP of the design whatever its shape
  (see ``synth._gain_step``), is solved first as it stands.
- If the first form raises :class:`SimplexError` or its answer fails
  verification, the other form is solved once.

A solution ``mu`` is verified by its rows, a Farkas vector by
:func:`_farkas_proof`, and the certificate :func:`find_lambda` builds from
``lam`` by :func:`_lambda_holds`, the package's one test of a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import _as_finite, freeze

__all__ = ["Certificate", "find_lambda"]

_PIVOT_TOL = 1e-10
# Relative slack of the a^T y >= 0 rows of a Farkas proof (see _farkas_proof)
# and of the a @ mu <= b rows of a solution (see _rows_hold).
_FARKAS_RTOL = 1e-9


class SimplexError(RuntimeError):
    """The phase-1 simplex failed numerically and decided nothing."""


@dataclass(frozen=True)
class Certificate:
    """Witness vector for the closed copositive system.

    ``lam`` is normalised so its largest component equals 1, and ``margin``
    is the margin this normalised vector achieves, computed in floating point:
    ``min(min(lam), min_i min(-M_i^T lam))``.  It is not a bound in exact
    arithmetic: on 200 planted PASS instances, ``M_i^T lam <= -margin`` failed
    exactly in 97 (ROADMAP *Baseline*); ROADMAP item 3 plans a rigorous lower
    bound.  ``residuals[i]`` records ``max(M_i^T lam)`` per subsystem (all < 0
    for a valid certificate).
    """

    lam: np.ndarray
    margin: float
    residuals: np.ndarray

    def __post_init__(self):
        lam = np.array(self.lam, dtype=float)
        res = np.array(self.residuals, dtype=float)
        if lam.ndim != 1 or res.ndim != 1:
            raise ValueError("lam and residuals must be 1-D")
        object.__setattr__(self, "lam", freeze(lam))
        object.__setattr__(self, "residuals", freeze(res))


def _stack_mats(mats) -> np.ndarray:
    """``mats`` as an (N, n, n) stack: one or more square matrices of one size."""
    mats = _as_finite(mats, 3, "mats")
    if mats.shape[1] != mats.shape[2]:
        raise ValueError(f"mats must be square matrices, got shape {mats.shape}")
    return mats


def _phase1_feasible(a: np.ndarray, b: np.ndarray):
    """Find ``mu >= 0`` with ``a @ mu <= b``: returns ``(mu, None)``, or ``(None, y)``
    when none exists.

    Dense phase-1 simplex: slacks make the rows equalities, rows with a
    negative right-hand side are negated and given an artificial variable,
    and the sum of artificials is minimised.  Bland's rule (smallest
    eligible index, ties by smallest basis variable) prevents cycling.
    Each pivot is one rank-1 update of the whole tableau.

    When the artificial sum stays positive, the slack columns of the objective
    row hold the row multipliers ``w``; every reduced cost is nonpositive, so
    ``y = -w`` has ``y >= 0``, ``a^T y >= 0`` and ``b^T y`` = -optimum < 0 up to
    the pivot tolerance: a Farkas vector (Schrijver 1986, section 7).
    """
    nrows, nvars = a.shape
    neg = b < 0
    sign = np.where(neg, -1.0, 1.0)  # a row times -1.0 is its exact negation
    art_rows = neg.nonzero()[0]
    n_art = art_rows.size
    ncols = nvars + nrows + n_art
    art_cols = np.arange(nvars + nrows, ncols)

    tab = np.zeros((nrows + 1, ncols + 1))
    tab[:nrows, :nvars] = a * sign[:, None]
    tab[:nrows, -1] = rhs = b * sign
    tab.ravel()[nvars : nrows * (ncols + 2) : ncols + 2] = sign  # the slack diagonal
    # Objective row: z_j - c_j for "minimise sum of artificials" (the running objective in
    # the rhs cell), the sum of the artificial rows taken before their unit entries go in.
    tab[art_rows].sum(axis=0, out=tab[-1])
    tab[art_rows, art_cols] = 1.0
    basis = np.arange(nvars, nvars + nrows)
    basis[art_rows] = art_cols

    structural = ncols - n_art  # artificial columns may not re-enter
    # Views into the tableau, which every pivot updates in place.
    obj = tab[-1, :structural]
    values = tab[:nrows, -1]  # the basic variables' current values
    max_iter = 200 * (ncols + 1)
    for _ in range(max_iter):
        eligible = obj > _PIVOT_TOL
        entering = int(eligible.argmax())
        if not eligible[entering]:
            break
        col = tab[:nrows, entering]
        rows = (col > _PIVOT_TOL).nonzero()[0]
        # Sequential ratio test over the candidates in row order: a ratio
        # within tolerance of the best so far is a tie, won by the smaller
        # basis index.  A min-plus-tolerance rule could pick another row.
        leaving = leaving_var = -1
        best_ratio = np.inf
        for i, ratio, var in zip(rows.tolist(), (values[rows] / col[rows]).tolist(),
                                 basis[rows].tolist()):
            if ratio < best_ratio - _PIVOT_TOL or (
                abs(ratio - best_ratio) <= _PIVOT_TOL
                and (leaving < 0 or var < leaving_var)
            ):
                best_ratio = ratio
                leaving, leaving_var = i, var
        if leaving < 0:
            raise SimplexError("phase-1 simplex: rounding left the ratio test without a row; "
                               "the LP is undecided")
        tab[leaving, :] /= tab[leaving, entering]
        factors = tab[:, entering].copy()
        factors[leaving] = 0.0  # the pivot row keeps its normalised values
        tab -= factors[:, None] * tab[leaving, :]
        basis[leaving] = entering
    else:
        raise SimplexError("phase-1 simplex exceeded its iteration budget")

    scale = max(1.0, float(np.abs(rhs).max(initial=0.0)))
    if tab[-1, -1] > 1e-9 * scale:
        return None, -tab[-1, nvars : nvars + nrows]
    mu = np.zeros(nvars)
    in_basis = basis < nvars
    mu[basis[in_basis]] = values[in_basis]
    return np.maximum(mu, 0.0), None


def _farkas_proof(a: np.ndarray, b: np.ndarray, y: np.ndarray) -> np.ndarray | None:
    """``y`` scaled to ``1^T y = 1`` if it proves that no ``mu >= 0`` has ``a @ mu <= b``,
    else None: ``a^T y >= -_FARKAS_RTOL * |a|^T y`` and ``b^T y < 0`` by direct products.

    Entries up to ``_PIVOT_TOL``, which the simplex treats as zero, are zeroed
    first: kept, a 1e-17 entry can leave a column of ``a^T y`` at ``-|a|^T y``.
    """
    y = np.where(y > _PIVOT_TOL, y, 0.0)
    total = y.sum()
    if not total > 0.0:
        return None
    y = y / total
    if (a.T @ y >= -_FARKAS_RTOL * (np.abs(a).T @ y)).all() and b @ y < 0.0:
        return y
    return None


def _rows_hold(a: np.ndarray, b: np.ndarray, mu: np.ndarray) -> bool:
    """``a @ mu <= b`` by direct products, up to ``_FARKAS_RTOL * (|a| @ mu + |b|)``."""
    return bool((a @ mu <= b + _FARKAS_RTOL * (np.abs(a) @ mu + np.abs(b))).all())


def _farkas_form(a: np.ndarray, b: np.ndarray):
    """Decide ``a @ mu <= b`` on its Farkas alternative ``y >= 0``, ``-a^T y <= 0``,
    ``b^T y <= -1``: one phase-1 solve with ``a.shape[1] + 1`` rows and one artificial.

    A feasible alternative gives ``(None, y)``.  An infeasible one ends with its own
    Farkas vector ``(mu', t)``, for which ``a mu' <= t b``: when ``t > _PIVOT_TOL`` it
    gives ``(mu'/t, None)``, else ``(None, None)``.  Neither answer is verified here.
    """
    y, w = _phase1_feasible(np.vstack([-a.T, b]), np.append(np.zeros(a.shape[1]), -1.0))
    if y is not None:
        return None, y
    t = float(w[-1])
    if not t > _PIVOT_TOL:
        return None, None
    return np.maximum(w[:-1], 0.0) / t, None


def _decide(a: np.ndarray, b: np.ndarray, *, primal_first: bool = False):
    """Decide ``mu >= 0`` with ``a @ mu <= b``: ``(mu, None)`` with rows that
    :func:`_rows_hold`, ``(None, y)`` with ``y`` verified by :func:`_farkas_proof`, or
    ``(None, None)``, with the forms of the module docstring; ``primal_first`` solves
    a tall LP as it stands first.  :class:`SimplexError` leaves only when both forms raise.
    """
    if not np.count_nonzero(b < 0):
        return np.zeros(a.shape[1]), None
    forms = [_farkas_form, _phase1_feasible]
    if primal_first or a.shape[0] <= a.shape[1]:
        forms.reverse()
    errors = []
    for form in forms:
        try:
            mu, y = form(a, b)
        except SimplexError as exc:
            errors.append(exc)
            continue
        if mu is not None and _rows_hold(a, b, mu):
            return mu, None
        if y is not None and (proof := _farkas_proof(a, b, y)) is not None:
            return None, proof
    if len(errors) == len(forms):
        raise errors[0]
    return None, None


def _solve_lambda(a: np.ndarray, base: np.ndarray, size: int):
    """Decide ``a @ mu <= -base`` (``mu >= 0``) with :func:`_decide` and return ``lam =
    mu[:size] + 1`` scaled to ``max(lam) = 1`` as ``(lam, None)``, or ``(None, y)``.

    The system is homogeneous in ``(mu, base)``, so it is solved on the rhs ``-base /
    max|base|`` (zero when ``base`` is), and ``mu`` is scaled back before ``lam`` is formed.
    """
    scale = float(np.abs(base).max())
    mu, y = _decide(a, -base / scale if scale > 0 else np.zeros_like(base))
    if mu is None:
        return None, y
    lam = mu[:size] * scale + 1.0
    return lam / lam.max(), None


def find_lambda(mats, *, proof: list | None = None):
    """Search for a common copositive certificate for ``mats`` with :func:`_solve_lambda`.

    Returns a :class:`Certificate` that :func:`_lambda_holds` accepts, or None.  When
    the LP is infeasible and its Farkas vector ``v = (v_1, ..., v_N) >= 0``, ``1^T v = 1``,
    ``sum_i M_i v_i >= -1e-9 sum_i |M_i| v_i`` verifies (Gordan's alternative: no
    ``lam`` with ``max(lam) = 1`` has a margin above ``1e-9 * 1^T sum_i |M_i| v_i``),
    ``v`` is appended to the list ``proof`` if one is given.
    """
    mats = _stack_mats(mats)
    size = mats.shape[1]
    transposed = np.swapaxes(mats, 1, 2)
    a = transposed.reshape(-1, size)
    # Substituting mu = lam - 1 >= 0 turns the closed system into the
    # standard-form feasibility problem a @ mu <= -base.
    base = (1.0 + transposed @ np.ones(size)).ravel()
    lam, farkas = _solve_lambda(a, base, size)
    if lam is None:
        if farkas is not None and proof is not None:
            proof.append(freeze(farkas))
        return None
    residuals = (transposed @ lam).max(axis=1)
    cert = Certificate(lam=lam, margin=min(float(lam.min()), -float(residuals.max())),
                       residuals=residuals)
    return cert if _lambda_holds(transposed, cert) else None


def _lambda_holds(transposed: np.ndarray, cert: Certificate) -> bool:
    """Verify ``cert`` by direct matrix-vector products on the stack of the ``M_i^T``:
    its margin is positive, ``lam >= margin`` and ``M_i^T lam <= -margin`` for every ``i``."""
    lam, margin = cert.lam, cert.margin
    return bool(margin > 0 and (lam >= margin).all() and (transposed @ lam <= -margin).all())
