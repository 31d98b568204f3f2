import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l0l1.numerics import (
    lp_norm,
    load_matrix_auto,
    read_matrix,
    read_matrix_csv,
    read_vector,
    restricted_lsq,
    write_matrix,
    write_vector,
)


def gaussian_elimination_solve(a, b):
    """Independent dense solver for the normal-equation oracle: plain
    Gaussian elimination with partial pivoting, no library calls."""
    a = [row[:] for row in a.tolist()]
    b = list(b.tolist())
    n = len(b)
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(a[r][col]))
        a[col], a[pivot] = a[pivot], a[col]
        b[col], b[pivot] = b[pivot], b[col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            for c in range(col, n):
                a[r][c] -= factor * a[col][c]
            b[r] -= factor * b[col]
    x = [0.0] * n
    for r in range(n - 1, -1, -1):
        s = b[r] - sum(a[r][c] * x[c] for c in range(r + 1, n))
        x[r] = s / a[r][r]
    return np.array(x)


def gradient_rounding(a_s, f):
    """Rounding level of the restricted gradient A_S^T (f - A_S x) at a
    least-squares minimizer x: 100 eps times the squared condition number
    of A_S's distinct columns, on the scale ||A_S||_2 ||f||_2."""
    kappa = np.linalg.cond(np.unique(a_s, axis=1)) ** 2
    return 100 * np.finfo(float).eps * kappa * np.linalg.norm(a_s, 2) * np.linalg.norm(f)


class TestLpNorm:
    def test_l2(self):
        assert lp_norm(np.array([3.0, -4.0]), 2) == 5.0

    def test_l1(self):
        assert lp_norm(np.array([3.0, -4.0]), 1) == 7.0

    def test_linf(self):
        assert lp_norm(np.array([3.0, -4.0]), np.inf) == 4.0

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            lp_norm(np.ones(2), 0.5)

    def test_rejects_nan_p(self):
        # it returned nan
        with pytest.raises(ValueError, match="p >= 1"):
            lp_norm(np.ones(2), np.nan)


class TestRestrictedLsq:
    def test_orthonormal_columns(self):
        out = restricted_lsq(np.eye(3), np.array([1.0, 2.0, 3.0]), [0, 2])
        np.testing.assert_allclose(out, [1.0, 0.0, 3.0], atol=1e-12)

    def test_one_dimensional_closed_form(self):
        # single column (1, 1): v = (A^T f) / (A^T A) = 4/2
        out = restricted_lsq(np.array([[1.0], [1.0]]), np.array([1.0, 3.0]), [0])
        np.testing.assert_allclose(out, [2.0], atol=1e-12)

    def test_empty_support_is_zero(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 6))
        assert np.array_equal(restricted_lsq(a, rng.normal(size=4), []), np.zeros(6))

    def test_off_support_exactly_zero(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(10, 20))
        out = restricted_lsq(a, rng.normal(size=10), [2, 5, 11])
        mask = np.ones(20, dtype=bool)
        mask[[2, 5, 11]] = False
        assert np.all(out[mask] == 0.0)

    def test_matches_normal_equation_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            m, size = 12, int(rng.integers(1, 9))
            a = rng.normal(size=(m, 16))
            f = rng.normal(size=m)
            support = np.sort(rng.choice(16, size=size, replace=False))
            out = restricted_lsq(a, f, support)
            a_s = a[:, support]
            expected = gaussian_elimination_solve(a_s.T @ a_s, a_s.T @ f)
            np.testing.assert_allclose(out[support], expected, atol=1e-8)

    def test_restricted_gradient_below_tol(self):
        # the solve is direct: the restricted gradient is rounding noise
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.normal(size=(15, 30))
            f = rng.normal(size=15)
            support = np.sort(rng.choice(30, size=7, replace=False))
            v = restricted_lsq(a, f, support)
            grad = a.T @ (f - a @ v)
            assert lp_norm(grad[support], 2) <= gradient_rounding(a[:, support], f)

    def test_singular_gram_no_crash(self):
        # duplicated column makes the restricted Gram singular
        a = np.array([[1.0, 1.0], [2.0, 2.0]])
        out = restricted_lsq(a, np.array([1.0, 2.0]), [0, 1])
        residual = np.array([1.0, 2.0]) - a @ out
        assert lp_norm(residual, 2) <= 1e-9

    def test_support_larger_than_rows_rejected(self):
        with pytest.raises(ValueError):
            restricted_lsq(np.ones((2, 5)), np.ones(2), [0, 1, 2])

    @pytest.mark.parametrize("defect", ["nan in a", "nan in f", "short f"])
    def test_bad_input_raises_value_error(self, defect):
        rng = np.random.default_rng(4)
        a, f = rng.normal(size=(6, 9)), rng.normal(size=6)
        if defect == "nan in a":
            a[2, 7] = np.nan
        elif defect == "nan in f":
            f[3] = np.nan
        else:
            f = f[:-1]
        with pytest.raises(ValueError):
            restricted_lsq(a, f, [1, 4])

    @pytest.mark.parametrize("support", [[0.7, 2.9], [1.0, 2.5], [np.nan], [1.0, np.inf]])
    def test_non_integer_support_raises_value_error(self, support):
        # [0.7, 2.9] was truncated to [0, 2] and solved there
        a, f = np.eye(4), np.arange(1.0, 5.0)
        with pytest.raises(ValueError, match="integers"):
            restricted_lsq(a, f, support)

    @pytest.mark.parametrize("support", [[], np.array([], dtype=float), [0.0, 2.0],
                                         np.array([0, 2], dtype=np.int32)])
    def test_integer_valued_support_passes(self, support):
        a, f = np.eye(4), np.arange(1.0, 5.0)
        out = restricted_lsq(a, f, support)
        expected = np.zeros(4)
        expected[np.asarray(support, dtype=np.int64)] = f[np.asarray(support, dtype=np.int64)]
        assert np.array_equal(out, expected)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 40),
        size=st.integers(1, 40),
        extra=st.integers(0, 10),
        duplicate=st.booleans(),
    )
    def test_property_exact_on_the_support(self, seed, m, size, extra, duplicate):
        # |S| = min(size, m), so |S| = m is common; a duplicated column
        # makes the restricted Gram matrix singular
        rng = np.random.default_rng(seed)
        size = min(size, m)
        n = size + extra
        a, f = rng.normal(size=(m, n)), rng.normal(size=m)
        support = np.sort(rng.choice(n, size=size, replace=False))
        if duplicate and size > 1:
            a[:, support[1]] = a[:, support[0]]
        out = restricted_lsq(a, f, support)
        assert np.all(np.isfinite(out))
        assert np.all(np.delete(out, support) == 0.0)
        a_s = a[:, support]
        grad = a_s.T @ (f - a_s @ out[support])
        assert lp_norm(grad, 2) <= gradient_rounding(a_s, f)


class TestFileFormats:
    def test_matrix_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(7, 3))
        path = tmp_path / "a.bin"
        write_matrix(path, a)
        np.testing.assert_array_equal(read_matrix(path), a)

    def test_vector_round_trip(self, tmp_path):
        x = np.array([1.5, -2.25, 1e-300, 3e200])
        path = tmp_path / "x.bin"
        write_vector(path, x)
        np.testing.assert_array_equal(read_vector(path), x)

    def test_magic_and_layout(self, tmp_path):
        path = tmp_path / "m.bin"
        write_matrix(path, np.array([[1.0, 2.0]]))
        blob = path.read_bytes()
        assert blob[:4] == b"SPD1"
        assert int.from_bytes(blob[4:12], "little") == 1
        assert int.from_bytes(blob[12:20], "little") == 2
        assert np.frombuffer(blob[20:], dtype="<f8").tolist() == [1.0, 2.0]

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            read_matrix(path)

    def test_csv_reader(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1.0,2.5\n-3.0,4.0\n")
        np.testing.assert_array_equal(
            read_matrix_csv(path), np.array([[1.0, 2.5], [-3.0, 4.0]])
        )

    def test_auto_loader_sniffs_format(self, tmp_path):
        a = np.array([[0.5, 1.5], [2.5, -3.5]])
        bin_path, csv_path = tmp_path / "a.bin", tmp_path / "a.csv"
        write_matrix(bin_path, a)
        csv_path.write_text("0.5,1.5\n2.5,-3.5\n")
        np.testing.assert_array_equal(load_matrix_auto(bin_path), a)
        np.testing.assert_array_equal(load_matrix_auto(csv_path), a)
