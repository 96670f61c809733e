"""Matrix predicates, exponential, and partitioning."""

import numpy as np
import pytest

from swposobs import matcore

from conftest import (
    ordered_metzler_pair,
    perron_radius,
    random_metzler,
    random_nonneg,
    series_expm,
    spectral_abscissa_bruteforce,
)


class TestIsNonneg:
    def test_positive_block(self):
        assert matcore.is_nonneg([[0.03, 0.07], [0.12, 0.13]], tol=0.0)

    def test_zero_matrix_zero_tol(self):
        assert matcore.is_nonneg(np.zeros((3, 3)), tol=0.0)

    def test_tolerance_window(self):
        m = [[1.0, -1e-15]]
        assert matcore.is_nonneg(m, tol=1e-12)
        assert not matcore.is_nonneg(m, tol=0.0)

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            matcore.is_nonneg([[1.0]], tol=-1.0)


class TestIsMetzler:
    def test_negative_diagonal_ok(self):
        assert matcore.is_metzler([[-23.0, 4.0], [6.0, -28.0]])

    def test_identity(self):
        assert matcore.is_metzler(np.eye(4))

    def test_negative_offdiagonal(self):
        assert not matcore.is_metzler([[0.0, -0.5], [1.0, 0.0]])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            matcore.is_metzler(np.zeros((2, 3)))


class TestMetzlerIsHurwitz:
    def test_stable_diagonal(self):
        assert matcore.metzler_is_hurwitz([[-1.0, 0.0], [0.0, -1.0]])

    def test_scalar_unstable(self):
        assert not matcore.metzler_is_hurwitz([[1.0]])

    def test_coupled_stable(self):
        # leading minors of -m are 2 and 3
        assert matcore.metzler_is_hurwitz([[-2.0, 1.0], [1.0, -2.0]])

    def test_non_metzler_rejected(self):
        with pytest.raises(ValueError):
            matcore.metzler_is_hurwitz([[-1.0, -0.1], [0.0, -1.0]])

    def test_agrees_with_root_oracle(self):
        rng = np.random.default_rng(101)
        checked = 0
        for _ in range(200):
            m = random_metzler(rng)
            alpha = spectral_abscissa_bruteforce(m)
            if abs(alpha) < 1e-6:
                continue
            assert matcore.metzler_is_hurwitz(m) == (alpha < 0)
            checked += 1
        assert checked >= 190


class TestNonnegIsSchur:
    def test_zero_matrix(self):
        assert matcore.nonneg_is_schur(np.zeros((3, 3)))

    def test_identity_on_boundary(self):
        assert not matcore.nonneg_is_schur(np.eye(2))

    def test_coupled_contraction(self):
        # leading minors of I - m are 0.5 and 0.1875
        assert matcore.nonneg_is_schur([[0.5, 0.25], [0.25, 0.5]])

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            matcore.nonneg_is_schur([[0.5, -0.1], [0.0, 0.5]])

    def test_agrees_with_power_iteration(self):
        rng = np.random.default_rng(202)
        checked = 0
        for _ in range(200):
            b = random_nonneg(rng)
            rho = perron_radius(b)
            if rho is None or abs(rho - 1.0) < 1e-6:
                continue
            assert matcore.nonneg_is_schur(b) == (rho < 1.0)
            checked += 1
        assert checked >= 190


class TestExpm:
    def test_zero_matrix(self):
        assert np.array_equal(matcore.expm(np.zeros((3, 3)), 1.0), np.eye(3))

    def test_diagonal(self):
        out = matcore.expm(np.diag([-1.0, -2.0]), 1.0)
        assert np.allclose(out, np.diag([np.exp(-1.0), np.exp(-2.0)]), rtol=1e-12)

    def test_against_series_oracle(self):
        m = np.array([[-2.0, 1.0], [1.0, -2.0]])
        assert np.allclose(matcore.expm(m, 0.5), series_expm(m, 0.5), rtol=1e-10, atol=1e-14)

    def test_negative_time(self):
        m = np.array([[0.3, 0.1], [0.2, 0.4]])
        assert np.allclose(matcore.expm(m, -1.0) @ matcore.expm(m, 1.0), np.eye(2), atol=1e-10)

    def test_overflow_reported(self):
        with pytest.raises(OverflowError):
            matcore.expm(np.array([[800.0]]), 1.0)

    def test_non_finite_time_rejected(self):
        with pytest.raises(ValueError):
            matcore.expm(np.eye(2), np.inf)

    @pytest.mark.parametrize("t", [0.1, 0.5, 1.0, 2.0])
    def test_metzler_flow_nonnegative(self, t):
        rng = np.random.default_rng(303)
        for _ in range(60):
            m = random_metzler(rng)
            assert matcore.expm(m, t).min() >= -1e-9

    @pytest.mark.parametrize("t", [0.1, 0.5, 1.0, 2.0])
    def test_metzler_flow_monotone(self, t):
        rng = np.random.default_rng(404)
        for _ in range(60):
            m, n = ordered_metzler_pair(rng)
            assert np.all(matcore.expm(m, t) <= matcore.expm(n, t) + 1e-9)

    def test_accuracy_against_high_precision_reference(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        rng = np.random.default_rng(505)
        worst = 0.0
        for case in range(40):
            if case % 2 == 0:
                m = random_metzler(rng)
            else:
                n = int(rng.integers(2, 6))
                m = rng.normal(size=(n, n))
                m *= rng.uniform(1.0, 30.0) / max(np.linalg.norm(m, np.inf), 1e-9)
            norm = np.linalg.norm(m, np.inf)
            t = float(rng.uniform(0.1, min(2.0, 60.0 / max(norm, 1e-9))))
            mine = matcore.expm(m, t)
            ref = mpmath.expm(mpmath.matrix((m * t).tolist()))
            ref = np.array([[float(ref[i, j]) for j in range(m.shape[0])]
                            for i in range(m.shape[0])])
            rel = np.abs(mine - ref).max() / max(np.abs(ref).max(), 1e-30)
            worst = max(worst, rel)
        assert worst <= 1e-10, worst


class TestPartition:
    A1_LOWER = np.array(
        [
            [-23.0, 4, 1, 4, 1],
            [6, -28, 8, 6, 8],
            [4, 4, -25, 4, 6],
            [7, 5, 6, -26, 3],
            [5, 4, 2, 6, -29],
        ]
    )

    def test_example_blocks(self):
        blocks = matcore.partition(self.A1_LOWER, 2)
        assert np.array_equal(blocks.a22, [[-25.0, 4, 6], [6, -26, 3], [2, 6, -29]])
        assert np.array_equal(blocks.a11, [[-23.0, 4], [6, -28]])
        assert np.array_equal(blocks.a12, [[1.0, 4, 1], [8, 6, 8]])
        assert np.array_equal(blocks.a21, [[4.0, 4], [7, 5], [5, 4]])

    def test_degenerate_split(self):
        blocks = matcore.partition(self.A1_LOWER, 4)
        assert blocks.a22.shape == (1, 1)
        assert blocks.a22[0, 0] == -29.0

    def test_matches_direct_slicing(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(4, 4))
        blocks = matcore.partition(m, 2)
        assert np.array_equal(blocks.a11, m[:2, :2])
        assert np.array_equal(blocks.a12, m[:2, 2:])
        assert np.array_equal(blocks.a21, m[2:, :2])
        assert np.array_equal(blocks.a22, m[2:, 2:])

    @pytest.mark.parametrize("p", [0, 5, 6])
    def test_out_of_range(self, p):
        with pytest.raises(ValueError):
            matcore.partition(self.A1_LOWER, p)

    def test_reassembly_round_trip(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            p = int(rng.integers(1, n))
            m = rng.normal(size=(n, n))
            assert np.array_equal(matcore.partition(m, p).assemble(), m)


class TestFirstEntry:
    def test_row_major_first_hit(self):
        mask = np.array([[False, False, True], [True, False, False]])
        assert matcore._first_entry(mask) == (0, 2)
        assert matcore._first_entry(mask.T) == (0, 1)

    def test_diagonal_skipped(self):
        mask = np.array([[True, False], [True, True]])
        assert matcore._first_entry(mask) == (0, 0)
        assert matcore._first_entry(mask, skip_diagonal=True) == (1, 0)
        assert matcore._first_entry(np.eye(3, dtype=bool), skip_diagonal=True) is None

    def test_vector_gives_int(self):
        index = matcore._first_entry(np.array([False, False, True, True]))
        assert index == 2 and type(index) is int

    def test_no_hit(self):
        assert matcore._first_entry(np.zeros((2, 3), dtype=bool)) is None
        assert matcore._first_entry(np.zeros(4, dtype=bool)) is None


class TestFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_matrix_entry_named(self, bad):
        m = np.zeros((2, 3))
        m[1, 2] = bad
        with pytest.raises(ValueError, match=r"^A_lower\[0\] has a non-finite entry at \(1, 2\)$"):
            matcore.as_matrix(m, "A_lower[0]")

    def test_vector_entry_named(self):
        with pytest.raises(ValueError, match=r"^x0 has a non-finite entry at 1$"):
            matcore.as_vector([0.0, np.nan, np.inf], "x0")

    def test_predicates_and_expm_reject_nan(self):
        m = [[-1.0, np.nan], [0.0, -1.0]]
        for func in (matcore.is_metzler, matcore.expm, matcore.metzler_is_hurwitz):
            with pytest.raises(ValueError, match="non-finite"):
                func(m)
        assert not matcore.is_nonneg(m)
