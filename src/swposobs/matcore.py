"""Dense-array helpers shared by the package's layers.

Everything operates on plain numpy float arrays: input is converted to finite
arrays, with errors that name the entry at fault, stored arrays are frozen, and
the first entry of a mask is located.  Sign conditions are tested against a
tolerance because exact floating-point comparisons are meaningless; the shared
default is ``DEFAULT_TOL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-9

__all__ = ["DEFAULT_TOL", "as_matrix", "as_vector", "freeze"]


def _first_entry(mask: np.ndarray, skip_diagonal: bool = False):
    """Row-major index of the first True entry of ``mask``, or None.

    The index is an int for a vector and a tuple for a matrix or a stack of
    them; ``skip_diagonal`` ignores the diagonal of every matrix of the mask.
    """
    if skip_diagonal:
        mask = mask & ~np.eye(mask.shape[-1], dtype=bool)
    hits = mask.ravel().nonzero()[0]
    if not hits.size:
        return None
    index = np.unravel_index(hits[0], mask.shape)
    return int(index[0]) if mask.ndim == 1 else tuple(int(i) for i in index)


_SHAPE_WORDS = {1: "a list of numbers", 2: "a matrix of numbers",
                3: "N equal-shape matrices of numbers"}


def _as_finite(a, ndim: int, name: str) -> np.ndarray:
    try:
        arr = np.array(a, dtype=float)
    except ValueError as exc:  # ragged nesting, or text that is no number
        raise ValueError(f"{name} must be {_SHAPE_WORDS[ndim]}") from exc
    except OverflowError as exc:  # an integer beyond the float range
        raise ValueError(f"{name} has an entry beyond the float range") from exc
    if arr.ndim != ndim or arr.size < 1:
        raise ValueError(f"{name} must be {ndim}-D and non-empty, got shape {arr.shape}")
    # count_nonzero is the cheapest exact test on the LP loop's small arrays: half of .all()'s cost.
    if np.count_nonzero(np.isfinite(arr)) < arr.size:
        bad = _first_entry(~np.isfinite(arr))
        if ndim == 3:  # a stack of matrices: name the matrix, as for a lone one
            name, bad = f"{name}[{bad[0]}]", bad[1:]
        raise ValueError(f"{name} has a non-finite entry at {bad}")
    return arr


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a finite 2-D float array with at least one row and column."""
    return _as_finite(a, 2, name)


def freeze(a: np.ndarray) -> np.ndarray:
    """Mark an array read-only (value types store only frozen arrays)."""
    a.flags.writeable = False
    return a


def as_vector(a, name: str = "vector") -> np.ndarray:
    """Coerce ``a`` to a finite, non-empty 1-D float array."""
    return _as_finite(a, 1, name)


def _require_square(m: np.ndarray, who: str) -> np.ndarray:
    m = as_matrix(m, who)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{who} requires a square matrix, got shape {m.shape}")
    return m


# Truncated-series order for the scaled exponential core; with the scaled
# norm held below 0.5 the truncation error is far under 1e-14 relative.
_EXPM_ORDER = 17
_EXPM_THETA = 0.5
_EXPM_MAX_SQUARINGS = 60


# No command calls expm; perfbench's tracer (tracing.LAYERS) looks it up by name (ROADMAP 1b, 7).
def expm(m, t: float = 1.0) -> np.ndarray:
    """Matrix exponential ``e^{m t}`` by scaling and squaring.

    The diagonal is shifted so the scaled-and-squared core runs on a
    nonnegative matrix whenever ``m`` is Metzler; the shift is restored as a
    scalar factor folded into the core before squaring.  All core arithmetic
    on Metzler input is then sums and products of nonnegative numbers, so the
    result is entrywise nonnegative without roundoff excursions.

    Raises OverflowError when the result (or a squaring intermediate) leaves
    the double-precision range.
    """
    m = _require_square(m, "expm")
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    n = m.shape[0]
    x = m * t
    shift = max(0.0, -float(np.min(np.diagonal(x))))
    b = x + shift * np.eye(n)

    norm = float(np.linalg.norm(b, np.inf))
    if not math.isfinite(norm):
        raise OverflowError("expm: input norm is not finite")
    squarings = 0
    if norm > _EXPM_THETA:
        squarings = int(math.ceil(math.log2(norm / _EXPM_THETA)))
        if squarings > _EXPM_MAX_SQUARINGS:
            raise OverflowError(f"expm: norm {norm:.3g} too large to scale")

    y = b / 2.0**squarings
    result = np.eye(n)
    for k in range(_EXPM_ORDER, 0, -1):
        result = np.eye(n) + (y / k) @ result
    result *= math.exp(-shift / 2.0**squarings)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(squarings):
            result = result @ result
            if not np.isfinite(result).all():
                raise OverflowError("expm: overflow while squaring")
    if not np.isfinite(result).all():
        raise OverflowError("expm: result is not finite")
    return result


# Only partition builds these blocks; both go with ROADMAP item 1b.
@dataclass(frozen=True)
class PartitionedBlocks:
    """Four-block split of a square matrix at row/column index ``p``."""

    a11: np.ndarray
    a12: np.ndarray
    a21: np.ndarray
    a22: np.ndarray

    def __post_init__(self):
        p, q = self.a11.shape
        if p != q:
            raise ValueError("a11 must be square")
        r = self.a22.shape[0]
        if self.a22.shape != (r, r) or self.a12.shape != (p, r) or self.a21.shape != (r, p):
            raise ValueError("block shapes are inconsistent with a single square parent")

    @property
    def p(self) -> int:
        return self.a11.shape[0]

    def assemble(self) -> np.ndarray:
        """Reassemble the original matrix from the four blocks."""
        return np.block([[self.a11, self.a12], [self.a21, self.a22]])


# No command calls partition; perfbench's tracer (tracing.LAYERS) looks it up by name (ROADMAP 1b).
def partition(m, p: int) -> PartitionedBlocks:
    """Split the n x n matrix ``m`` into blocks at index ``p`` (1 <= p < n)."""
    m = _require_square(m, "partition")
    n = m.shape[0]
    if not 1 <= p < n:
        raise ValueError(f"partition index p={p} out of range for n={n}")
    return PartitionedBlocks(
        a11=m[:p, :p].copy(),
        a12=m[:p, p:].copy(),
        a21=m[p:, :p].copy(),
        a22=m[p:, p:].copy(),
    )
