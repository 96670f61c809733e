"""Finite-input conversion, first-entry search, exponential, and partitioning."""

import numpy as np
import pytest

from swposobs import matcore

import oracles
from conftest import ordered_metzler_pair, random_metzler, series_expm


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

    def test_stack_skips_every_diagonal(self):
        mask = np.array([np.eye(3, dtype=bool), np.eye(3, dtype=bool)])
        assert matcore._first_entry(mask, skip_diagonal=True) is None
        mask[1, 2, 0] = True
        assert matcore._first_entry(mask) == (0, 0, 0)
        assert matcore._first_entry(mask, skip_diagonal=True) == (1, 2, 0)
        assert mask[0, 0, 0]  # the caller's mask is left as it was

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
            matcore._as_finite(m, 2, "A_lower[0]")

    def test_vector_entry_named(self):
        with pytest.raises(ValueError, match=r"^x0 has a non-finite entry at 1$"):
            matcore._as_finite([0.0, np.nan, np.inf], 1, "x0")

    def test_ragged_input_named(self):
        with pytest.raises(ValueError, match=r"^mats must be N equal-shape matrices of numbers$"):
            matcore._as_finite([np.zeros((2, 2)), np.zeros((3, 3))], 3, "mats")
        with pytest.raises(ValueError, match=r"^gain_l must be a matrix of numbers$"):
            matcore._as_finite([[1.0, 2.0], [3.0]], 2, "gain_l")
        with pytest.raises(ValueError, match=r"^x0 must be a list of numbers$"):
            matcore._as_finite([0.0, "x"], 1, "x0")

    def test_predicates_and_expm_reject_nan(self):
        m = [[-1.0, np.nan], [0.0, -1.0]]
        for func in (oracles.is_metzler, matcore.expm, oracles.metzler_is_hurwitz):
            with pytest.raises(ValueError, match="non-finite"):
                func(m)
        assert not oracles.is_nonneg(m)
