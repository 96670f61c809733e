"""The principal-minor predicates of ``oracles``, the reference for the copositive LP."""

import numpy as np
import pytest

import oracles

from conftest import perron_radius, random_metzler, random_nonneg, spectral_abscissa_bruteforce


class TestIsNonneg:
    def test_positive_block(self):
        assert oracles.is_nonneg([[0.03, 0.07], [0.12, 0.13]], tol=0.0)

    def test_zero_matrix_zero_tol(self):
        assert oracles.is_nonneg(np.zeros((3, 3)), tol=0.0)

    def test_tolerance_window(self):
        m = [[1.0, -1e-15]]
        assert oracles.is_nonneg(m, tol=1e-12)
        assert not oracles.is_nonneg(m, tol=0.0)

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            oracles.is_nonneg([[1.0]], tol=-1.0)


class TestIsMetzler:
    def test_negative_diagonal_ok(self):
        assert oracles.is_metzler([[-23.0, 4.0], [6.0, -28.0]])

    def test_identity(self):
        assert oracles.is_metzler(np.eye(4))

    def test_negative_offdiagonal(self):
        assert not oracles.is_metzler([[0.0, -0.5], [1.0, 0.0]])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            oracles.is_metzler(np.zeros((2, 3)))


class TestMetzlerIsHurwitz:
    def test_stable_diagonal(self):
        assert oracles.metzler_is_hurwitz([[-1.0, 0.0], [0.0, -1.0]])

    def test_scalar_unstable(self):
        assert not oracles.metzler_is_hurwitz([[1.0]])

    def test_coupled_stable(self):
        # leading minors of -m are 2 and 3
        assert oracles.metzler_is_hurwitz([[-2.0, 1.0], [1.0, -2.0]])

    def test_non_metzler_rejected(self):
        with pytest.raises(ValueError):
            oracles.metzler_is_hurwitz([[-1.0, -0.1], [0.0, -1.0]])

    def test_agrees_with_root_oracle(self):
        rng = np.random.default_rng(101)
        checked = 0
        for _ in range(200):
            m = random_metzler(rng)
            alpha = spectral_abscissa_bruteforce(m)
            if abs(alpha) < 1e-6:
                continue
            assert oracles.metzler_is_hurwitz(m) == (alpha < 0)
            checked += 1
        assert checked >= 190


class TestNonnegIsSchur:
    def test_zero_matrix(self):
        assert oracles.nonneg_is_schur(np.zeros((3, 3)))

    def test_identity_on_boundary(self):
        assert not oracles.nonneg_is_schur(np.eye(2))

    def test_coupled_contraction(self):
        # leading minors of I - m are 0.5 and 0.1875
        assert oracles.nonneg_is_schur([[0.5, 0.25], [0.25, 0.5]])

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            oracles.nonneg_is_schur([[0.5, -0.1], [0.0, 0.5]])

    def test_agrees_with_power_iteration(self):
        rng = np.random.default_rng(202)
        checked = 0
        for _ in range(200):
            b = random_nonneg(rng)
            rho = perron_radius(b)
            if rho is None or abs(rho - 1.0) < 1e-6:
                continue
            assert oracles.nonneg_is_schur(b) == (rho < 1.0)
            checked += 1
        assert checked >= 190
