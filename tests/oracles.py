"""Reference checks that the tests compare the package against.

No command needs these, so they live with the tests.  The principal-minor
predicates decide stability of one Metzler or nonnegative matrix without an LP:
they are the reference for ``certify.find_lambda`` on a single matrix, and so
for the paper's no-switching corollary.  :func:`check_lambda` verifies a
certificate with one product ``m.T @ lam`` per matrix, the reference for the
stacked product of ``certify._lambda_holds``.
"""

import numpy as np

from swposobs.certify import Certificate, _stack_mats
from swposobs.matcore import DEFAULT_TOL, _first_entry, _require_square


def is_nonneg(m, tol: float = DEFAULT_TOL) -> bool:
    """True iff every entry of ``m`` is >= -tol."""
    if tol < 0:
        raise ValueError("tol must be >= 0")
    return _first_entry(~(np.asarray(m, dtype=float) >= -tol)) is None


def is_metzler(m, tol: float = DEFAULT_TOL) -> bool:
    """True iff every off-diagonal entry of the square matrix ``m`` is >= -tol."""
    if tol < 0:
        raise ValueError("tol must be >= 0")
    m = _require_square(m, "is_metzler")
    return _first_entry(~(m >= -tol), skip_diagonal=True) is None


def _leading_minors(m: np.ndarray) -> np.ndarray:
    n = m.shape[0]
    return np.array([np.linalg.det(m[: k + 1, : k + 1]) for k in range(n)])


def metzler_is_hurwitz(m, tol: float = DEFAULT_TOL) -> bool:
    """Stability test for Metzler matrices.

    A Metzler matrix ``m`` is Hurwitz exactly when ``-m`` is a nonsingular
    M-matrix, i.e. all leading principal minors of ``-m`` are strictly
    positive.  The equivalence fails for general matrices, so non-Metzler
    input is rejected.
    """
    m = _require_square(m, "metzler_is_hurwitz")
    if not is_metzler(m, tol):
        raise ValueError("metzler_is_hurwitz requires Metzler input")
    return bool(np.all(_leading_minors(-m) > tol))


def nonneg_is_schur(m, tol: float = DEFAULT_TOL) -> bool:
    """Spectral radius < 1 test for nonnegative matrices.

    A nonnegative square matrix has spectral radius < 1 exactly when
    ``I - m`` is a nonsingular M-matrix (all leading principal minors
    strictly positive).  Input with negative entries is rejected.
    """
    m = _require_square(m, "nonneg_is_schur")
    if not is_nonneg(m, tol):
        raise ValueError("nonneg_is_schur requires nonnegative input")
    return bool(np.all(_leading_minors(np.eye(m.shape[0]) - m) > tol))



def check_lambda(mats, cert: Certificate) -> bool:
    """Verify a certificate by per-matrix products: its margin is positive,
    ``lam >= margin`` and ``m.T @ lam <= -margin`` for every matrix ``m``."""
    mats = _stack_mats(mats)
    if cert.lam.shape != mats.shape[1:2]:
        raise ValueError(f"certificate length {cert.lam.shape} does not match size {mats.shape[1]}")
    lam, margin = cert.lam, cert.margin
    return bool(margin > 0 and (lam >= margin).all()
                and all((m.T @ lam <= -margin).all() for m in mats))
