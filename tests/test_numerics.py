import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l0l1.bench import ExperimentPlan
from l0l1.bregman import BregmanGeometry, euclidean_geometry, lifted_entropy_geometry
from l0l1.game import GameConfig
from l0l1.numerics import (
    as_matrix,
    as_vector,
    check_budget,
    lp_norm,
    load_matrix_auto,
    read_matrix,
    read_matrix_csv,
    read_vector,
    restricted_lsq,
    write_matrix,
    write_vector,
)
from l0l1.projections import ConstraintSet, hard_threshold, top_k_support
from l0l1.pursuit import PursuitConfig, iht_solve, lasso_pg_solve
from l0l1.synth import ProblemSpec, rip_probe


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


class TestValidation:
    def test_matrix_must_be_two_dimensional(self):
        with pytest.raises(ValueError, match="expected a 2-d matrix"):
            as_matrix(np.ones(3))

    def test_vector_must_be_one_dimensional(self):
        with pytest.raises(ValueError, match="expected a 1-d vector"):
            as_vector(np.ones((2, 2)))


class TestLpNorm:
    def test_l2(self):
        assert lp_norm(np.array([3.0, -4.0]), 2) == 5.0

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_l2_outside_the_normal_range(self, scale):
        # the sum of squares overflowed to inf, with a RuntimeWarning, or
        # underflowed to 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = lp_norm(np.array([3.0, -4.0]) * scale, 2)
        np.testing.assert_allclose(got, 5.0 * scale, rtol=1e-15)

    def test_l1(self):
        assert lp_norm(np.array([3.0, -4.0]), 1) == 7.0

    def test_linf(self):
        assert lp_norm(np.array([3.0, -4.0]), np.inf) == 4.0

    def test_general_p(self):
        # the branch `l0l1 rip --q 3` reaches
        np.testing.assert_allclose(
            lp_norm(np.array([3.0, -4.0]), 3), np.linalg.norm([3.0, -4.0], 3), rtol=1e-15
        )

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            lp_norm(np.ones(2), 0.5)

    def test_rejects_nan_p(self):
        # it returned nan
        with pytest.raises(ValueError, match="p >= 1"):
            lp_norm(np.ones(2), np.nan)

    @pytest.mark.parametrize("x", [np.ones((2, 2)), np.float64(3.0)])
    def test_rejects_a_matrix_or_scalar(self, x):
        # a matrix gave its Frobenius norm
        with pytest.raises(ValueError, match="1-d vector"):
            lp_norm(x, 2)


# every count and seed setting: (its name in the message, its lower
# bound, a call that passes the value to it)
COUNT_SITES = {
    "ProblemSpec.n": ("n", 1, lambda v: ProblemSpec(n=v, m=2, k=1)),
    "ProblemSpec.m": ("m", 1, lambda v: ProblemSpec(n=4, m=v, k=1)),
    "ProblemSpec.k": ("k", 1, lambda v: ProblemSpec(n=4, m=4, k=v)),
    "ProblemSpec.seed": ("seed", 0, lambda v: ProblemSpec(n=4, m=4, k=1, seed=v)),
    "ExperimentPlan.trials": ("trials", 1, lambda v: ExperimentPlan(trials=v)),
    "ExperimentPlan.workers": ("workers", 1, lambda v: ExperimentPlan(workers=v)),
    "ExperimentPlan.game_rounds": ("game_rounds", 1, lambda v: ExperimentPlan(game_rounds=v)),
    "ExperimentPlan.seed": ("seed", 0, lambda v: ExperimentPlan(seed=v)),
    "rip_probe.s": ("s", 1, lambda v: rip_probe(np.eye(5), v, 2, 3, 0)),
    "rip_probe.trials": ("trials", 1, lambda v: rip_probe(np.eye(5), 2, 2, v, 0)),
    "rip_probe.seed": ("seed", 0, lambda v: rip_probe(np.eye(5), 2, 2, 3, v)),
    "PursuitConfig.sparsity": ("sparsity", 1, lambda v: PursuitConfig(sparsity=v)),
    "iht_solve.k": ("sparsity", 1, lambda v: iht_solve(np.eye(4), np.ones(4), v)),
    "lasso_pg_solve.max_iter": (
        "max_iter", 1, lambda v: lasso_pg_solve(np.eye(4), np.ones(4), 1.0, max_iter=v)
    ),
    "GameConfig.rounds": ("rounds", 1, lambda v: GameConfig(rounds=v)),
    "ConstraintSet.k": ("sparsity budget k", 1, lambda v: ConstraintSet(k=v, tau=1.0)),
    "hard_threshold.k": ("k", 1, lambda v: hard_threshold(np.ones(4), v)),
    "top_k_support.k": ("k", 0, lambda v: top_k_support(np.ones(4), v)),
    "BregmanGeometry.dim": ("dim", 1, lambda v: BregmanGeometry("entropy", v)),
    "euclidean_geometry.dim": ("dim", 1, lambda v: euclidean_geometry(v)),
    "lifted_entropy_geometry.m": ("m", 1, lambda v: lifted_entropy_geometry(v)),
}


class TestCountChecks:
    @pytest.mark.parametrize("site", sorted(COUNT_SITES))
    def test_every_site_rejects_what_check_count_rejects(self, site):
        # bools ran as 1 or 0, fractions raised TypeError in top_k_support,
        # and rip_probe and ExperimentPlan took any integer seed
        name, low, call = COUNT_SITES[site]
        for value in (True, np.True_, 1.5, 2.0):
            with pytest.raises(ValueError, match=f"^{re.escape(name)} must be an integer"):
                call(value)
        if name == "seed":
            for value in (-1, 2**64):
                with pytest.raises(ValueError, match=r"^seed must lie in \[0, 2\^64\)"):
                    call(value)
            with warnings.catch_warnings():
                # rip_probe's draw at this key warns; only the check is
                # tested here (test_synth's key-rounding case)
                warnings.simplefilter("ignore", RuntimeWarning)
                call(np.uint64(2**64 - 1))
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(name)} must be >= {low}"):
                call(low - 1)
            call(np.int64(low + 1))


class TestBudgetCheck:
    @pytest.mark.parametrize(
        "value", [0, 0.5, np.float32(0.25), np.int64(3), np.float64(2.0), 10**400, np.inf]
    )
    def test_real_scalars_pass(self, value):
        check_budget("tau", value)

    @pytest.mark.parametrize(
        "value, positive, finite, message",
        [
            (np.nan, False, False, "tau must be >= 0, got nan"),
            (-np.inf, False, False, "tau must be >= 0, got -inf"),
            (-0.5, False, False, "tau must be >= 0, got -0.5"),
            (0.0, True, False, "tau must be positive, got 0.0"),
            (np.inf, True, True, "tau must be positive and finite, got inf"),
            (np.inf, False, True, "tau must be >= 0 and finite, got inf"),
            (True, False, False, "tau must be a real number, got True"),
            (np.True_, False, False, "tau must be a real number, got "),
            ("1", False, False, "tau must be a real number, got '1'"),
            (np.array([1.0]), False, False, "tau must be a real number, got "),
            (1 + 0j, False, False, "tau must be a real number, got "),
        ],
    )
    def test_rejects_with_one_wording(self, value, positive, finite, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            check_budget("tau", value, positive, finite)


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

    @pytest.mark.parametrize("support", [[0.7, 2.9], [1.0, 2.5], [np.nan], [1.0, np.inf],
                                         [False, True], np.array([True, False, True, True])])
    def test_non_integer_support_raises_value_error(self, support):
        # [0.7, 2.9] was truncated to [0, 2] and solved there, and the
        # boolean mask [False, True] read as the indices [0, 1]
        a, f = np.eye(4), np.arange(1.0, 5.0)
        with pytest.raises(ValueError, match="integers"):
            restricted_lsq(a, f, support)

    @pytest.mark.parametrize(
        "support, message",
        [([1, 4], "lie in"), ([-1, 2], "lie in"), ([2, 1], "increasing"), ([1, 1], "increasing")],
    )
    def test_bad_index_set_raises_value_error(self, support, message):
        a, f = np.eye(4), np.arange(1.0, 5.0)
        with pytest.raises(ValueError, match=message):
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

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "short.bin"
        write_matrix(path, np.ones((2, 3)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="truncated"):
            read_matrix(path)

    # struct.error escaped from a short header's unpack, and OverflowError
    # from the read of a claimed 2^62 x 8 payload
    @pytest.mark.parametrize("header", [b"\x00" * 3, struct.pack("<QQ", 2**62, 8)],
                             ids=["short header", "2^62 rows"])
    def test_header_beyond_the_file_rejected(self, tmp_path, header):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"SPD1" + header)
        with pytest.raises(ValueError, match="truncated"):
            read_matrix(path)

    def test_vector_reader_rejects_a_matrix(self, tmp_path):
        path = tmp_path / "m.bin"
        write_matrix(path, np.ones((2, 2)))
        with pytest.raises(ValueError, match="expected a vector"):
            read_vector(path)

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
