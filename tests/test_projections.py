from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l0l1.projections import (
    ConstraintSet,
    hard_threshold,
    l1_project,
    project_k_tau,
    top_k_support,
)


def l1_project_theta_oracle(w, tau):
    """Independent oracle: bisection on theta until the soft-thresholded
    l1 norm equals tau."""
    mags = np.abs(w)
    if mags.sum() <= tau:
        return w.copy()
    lo, hi = 0.0, float(mags.max())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.maximum(mags - mid, 0.0).sum() > tau:
            lo = mid
        else:
            hi = mid
    theta = 0.5 * (lo + hi)
    return np.sign(w) * np.maximum(mags - theta, 0.0)


def l1_ball_oracle(w, tau):
    """Exhaustive oracle for the l1 ball projection: w itself when inside
    the ball, else the closest of 0 and the candidates that soft-threshold
    a support S by theta = (||w_S||_1 - tau) / |S| >= 0 without moving an
    entry of S past zero.  Each candidate lies in the ball, and the
    projection is one of them."""
    n = w.size
    if np.abs(w).sum() <= tau:
        return w.copy()
    best, best_d = np.zeros(n), float(np.sum(w**2))
    for r in range(1, n + 1):
        for support in combinations(range(n), r):
            idx = list(support)
            mags = np.abs(w[idx])
            theta = (mags.sum() - tau) / r
            if theta < 0 or np.any(mags < theta):
                continue
            x = np.zeros(n)
            x[idx] = np.sign(w[idx]) * (mags - theta)
            d = float(np.sum((x - w) ** 2))
            if d < best_d:
                best, best_d = x, d
    return best


def joint_projection_oracle(w, k, tau):
    """Exhaustive-support oracle: project each size-k restriction onto the
    l1 ball, keep the closest."""
    n = w.size
    best, best_d = None, np.inf
    for support in combinations(range(n), min(k, n)):
        x = np.zeros(n)
        idx = list(support)
        x[idx] = l1_project(w[idx], tau)
        d = float(np.sum((x - w) ** 2))
        if d < best_d:
            best, best_d = x, d
    return best, best_d


class TestHardThreshold:
    def test_top2_unambiguous(self):
        assert np.array_equal(hard_threshold(np.array([3.0, -1.0, 2.0]), 2), [3.0, 0.0, 2.0])

    def test_tie_breaks_to_lowest_index(self):
        assert np.array_equal(hard_threshold(np.array([1.0, 1.0]), 1), [1.0, 0.0])

    def test_k_equal_length_identity(self):
        w = np.array([0.1, -0.2, 0.3])
        assert np.array_equal(hard_threshold(w, 3), w)

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            hard_threshold(np.ones(3), 0)

    def test_rejects_a_fractional_count(self):
        # numpy's partition raised TypeError on these
        with pytest.raises(ValueError, match="k must be an integer"):
            hard_threshold(np.ones(3), 2.5)
        with pytest.raises(ValueError, match="sparsity budget k must be an integer"):
            ConstraintSet(k=1.5, tau=1.0)

    def test_minimizes_distance_over_all_supports(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(1, 11))
            k = int(rng.integers(1, n + 1))
            w = rng.normal(size=n)
            out = hard_threshold(w, k)
            d_mine = np.sum((out - w) ** 2)
            d_best = min(
                np.sum(np.delete(w, list(keep)) ** 2) if len(keep) else np.sum(w**2)
                for r in [k]
                for keep in combinations(range(n), r)
            )
            assert d_mine <= d_best + 1e-12

    def test_top_k_support_sorted(self):
        s = top_k_support(np.array([0.0, 5.0, -7.0, 1.0]), 2)
        assert np.array_equal(s, [1, 2])

    def test_top_k_support_rejects_negative_k(self):
        w = np.array([0.0, 5.0, -7.0, 1.0])
        with pytest.raises(ValueError):
            top_k_support(w, -1)
        assert top_k_support(w, 0).size == 0

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        values=st.lists(
            st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5, np.inf, -np.inf, np.nan])
            | st.floats(-3.0, 3.0),
            max_size=40,
        ),
        k=st.integers(0, 45),
    )
    def test_top_k_support_matches_stable_argsort(self, values, k):
        # drawn mostly from a few values, so most draws tie at the k-th
        # magnitude; the stable sort keeps the lowest-index ties and ranks
        # NaN below every number
        w = np.array(values, dtype=np.float64)
        expected = np.sort(np.argsort(-np.abs(w), kind="stable")[:k])
        got = top_k_support(w, k)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)


class TestL1Project:
    def test_derived_example(self):
        np.testing.assert_allclose(l1_project(np.array([3.0, 1.0]), 2.0), [2.0, 0.0], atol=1e-12)

    def test_already_feasible(self):
        w = np.array([0.5, -0.25])
        assert np.array_equal(l1_project(w, 1.0), w)

    def test_zero_radius(self):
        assert np.array_equal(l1_project(np.array([0.5, -0.5]), 0.0), [0.0, 0.0])

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            l1_project(np.ones(2), -1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("tau", [0.5, np.inf])
    def test_non_finite_input_rejected(self, bad, tau):
        with pytest.raises(ValueError, match="finite"):
            l1_project(np.array([0.1, bad, -0.2]), tau)

    def test_matches_theta_search_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            n = int(rng.integers(1, 30))
            w = rng.normal(size=n) * rng.choice([0.1, 1.0, 10.0])
            tau = float(rng.uniform(0.0, 1.2 * np.abs(w).sum()))
            np.testing.assert_allclose(
                l1_project(w, tau), l1_project_theta_oracle(w, tau), atol=1e-10
            )

    def test_matches_dense_grid_cross_check(self):
        # coarse quadratic-program grid over the 2-d l1 ball
        w = np.array([3.0, 1.0])
        tau = 2.0
        grid = np.linspace(-tau, tau, 801)
        best, best_d = None, np.inf
        for x0 in grid:
            rem = tau - abs(x0)
            for x1 in (-rem, 0.0, rem, min(rem, 1.0), -min(rem, 1.0)):
                d = (x0 - w[0]) ** 2 + (x1 - w[1]) ** 2
                if d < best_d:
                    best, best_d = np.array([x0, x1]), d
        out = l1_project(w, tau)
        assert np.sum((out - w) ** 2) <= best_d + 1e-6
        np.testing.assert_allclose(out, best, atol=5e-3)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            w = rng.normal(size=12)
            tau = float(rng.uniform(0, 4))
            once = l1_project(w, tau)
            assert np.array_equal(l1_project(once, tau), once)

    def test_feasible_output(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            w = rng.normal(size=9) * 3
            tau = float(rng.uniform(0, 2))
            assert np.abs(l1_project(w, tau)).sum() <= tau + 1e-12

    def test_nonexpansive(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            w1, w2 = rng.normal(size=8), rng.normal(size=8)
            tau = float(rng.uniform(0.1, 3))
            lhs = np.linalg.norm(l1_project(w1, tau) - l1_project(w2, tau))
            assert lhs <= np.linalg.norm(w1 - w2) + 1e-12


class TestProjectKTau:
    def test_derived_example(self):
        out = project_k_tau(np.array([3.0, 1.0, 0.5]), ConstraintSet(2, 3.0))
        np.testing.assert_allclose(out, [2.5, 0.5, 0.0], atol=1e-12)

    def test_inactive_tau_reduces_to_hard_threshold(self):
        w = np.array([3.0, -1.0, 2.0])
        out = project_k_tau(w, ConstraintSet(2, 10.0))
        assert np.array_equal(out, hard_threshold(w, 2))

    def test_identity_on_feasible_points(self):
        w = np.array([0.5, 0.0, -0.25, 0.0])
        assert np.array_equal(project_k_tau(w, ConstraintSet(2, 1.0)), w)

    def test_idempotent(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            w = rng.normal(size=10)
            c = ConstraintSet(int(rng.integers(1, 10)), float(rng.uniform(0, 3)))
            once = project_k_tau(w, c)
            assert np.array_equal(project_k_tau(once, c), once)

    def test_feasibility(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            w = rng.normal(size=11) * 2
            c = ConstraintSet(int(rng.integers(1, 11)), float(rng.uniform(0, 4)))
            out = project_k_tau(w, c)
            assert np.count_nonzero(out) <= c.k
            assert np.abs(out).sum() <= c.tau + 1e-12

    def test_matches_exhaustive_oracle_small(self):
        rng = np.random.default_rng(8)
        for n in range(1, 8):
            for k in range(1, n + 1):
                for _ in range(5):
                    w = rng.normal(size=n) * rng.choice([0.5, 2.0])
                    tau = float(rng.uniform(0, 1.5 * np.abs(w).sum() + 0.1))
                    mine = project_k_tau(w, ConstraintSet(k, tau))
                    _, best_d = joint_projection_oracle(w, k, tau)
                    assert np.sum((mine - w) ** 2) <= best_d + 1e-9

    @pytest.mark.parametrize(
        "k, tau, message",
        [(0, 1.0, "k must be >= 1"), (2, -1.0, "tau must be >= 0"), (2, np.nan, "tau must be >= 0")],
    )
    def test_bad_constraint_set_rejected(self, k, tau, message):
        with pytest.raises(ValueError, match=message):
            ConstraintSet(k, tau)

    def test_k_above_length_rejected(self):
        with pytest.raises(ValueError, match="exceeds vector length"):
            project_k_tau(np.ones(3), ConstraintSet(4, 1.0))

    def test_zero_vector_everywhere(self):
        for proj in (
            lambda w: hard_threshold(w, 2),
            lambda w: l1_project(w, 1.5),
            lambda w: project_k_tau(w, ConstraintSet(2, 1.5)),
        ):
            assert np.array_equal(proj(np.zeros(5)), np.zeros(5))


# vectors of length <= 8 with repeated magnitudes likely, so that ties
# between entries get exercised
small_vectors = st.lists(
    st.sampled_from([0.0, 0.5, 1.0, 2.5]) | st.floats(-10.0, 10.0),
    min_size=1, max_size=8,
).map(np.array)


class TestProjectionProperties:
    """The projections against the exhaustive-support oracles on generated
    inputs, beyond the fixed seeds of the tests above."""

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(w=small_vectors, frac=st.floats(0.0, 1.5))
    def test_l1_project_matches_oracle(self, w, frac):
        tau = frac * float(np.abs(w).sum())
        mine = l1_project(w, tau)
        best = l1_ball_oracle(w, tau)
        scale = 1e-9 * max(1.0, float(w @ w))
        assert np.abs(mine).sum() <= tau
        assert np.sum((mine - w) ** 2) <= np.sum((best - w) ** 2) + scale
        np.testing.assert_allclose(mine, best, atol=1e-6 * max(1.0, np.abs(w).max()))

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(w=small_vectors, k_frac=st.floats(0.0, 1.0), frac=st.floats(0.0, 1.5))
    def test_project_k_tau_matches_oracle(self, w, k_frac, frac):
        k = 1 + int(k_frac * (w.size - 1))
        tau = frac * float(np.abs(w).sum())
        mine = project_k_tau(w, ConstraintSet(k, tau))
        best_d = min(
            float(np.sum((l1_ball_oracle(np.where(keep, w, 0.0), tau) - w) ** 2))
            for support in combinations(range(w.size), k)
            for keep in [np.isin(np.arange(w.size), support)]
        )
        assert np.count_nonzero(mine) <= k
        assert np.abs(mine).sum() <= tau
        assert np.sum((mine - w) ** 2) <= best_d + 1e-9 * max(1.0, float(w @ w))

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(w=small_vectors)
    def test_top_k_support_is_the_support_of_hard_threshold(self, w):
        # CLASH prunes a vector of more than k nonzeros to top_k_support,
        # and its inner-answer memo is keyed on the bytes of the support
        for k in range(1, np.count_nonzero(w)):
            kept = np.flatnonzero(hard_threshold(w, k))
            assert top_k_support(w, k).tobytes() == kept.tobytes()
