import numpy as np
import pytest

from l0l1.bregman import (
    ENTROPY,
    BregmanGeometry,
    DualBall,
    bregman_distance,
    bregman_project,
    euclidean_geometry,
    grad_map,
    grad_map_inverse,
    lifted_entropy_geometry,
    simplex_to_dual,
    uniform_simplex_weights,
)


def random_simplex_point(rng, dim):
    w = -np.log(rng.uniform(1e-12, 1.0, size=dim))
    return w / w.sum()


class TestClosedForms:
    def test_squared_euclidean_value(self):
        g = euclidean_geometry(2)
        assert bregman_distance(g, np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 2.0

    def test_entropy_equal_points_zero(self):
        g = BregmanGeometry(ENTROPY, 2)
        p = np.array([0.3, 0.7])
        assert bregman_distance(g, p, p) == 0.0

    def test_entropy_derived_value(self):
        g = BregmanGeometry(ENTROPY, 2)
        val = bregman_distance(g, np.array([0.5, 0.5]), np.array([0.25, 0.75]))
        expected = 0.5 * np.log(2.0) + 0.5 * np.log(2.0 / 3.0)
        np.testing.assert_allclose(val, expected, atol=1e-12)
        np.testing.assert_allclose(val, 0.14384, atol=1e-5)

    def test_scale_multiplies(self):
        g1 = BregmanGeometry(ENTROPY, 2, scale=1.0)
        g2 = BregmanGeometry(ENTROPY, 2, scale=2.0)
        p, q = np.array([0.4, 0.6]), np.array([0.5, 0.5])
        assert bregman_distance(g2, p, q) == 2.0 * bregman_distance(g1, p, q)

    def test_entropy_rejects_nonpositive(self):
        g = BregmanGeometry(ENTROPY, 2)
        with pytest.raises(ValueError):
            bregman_distance(g, np.array([0.0, 1.0]), np.array([0.5, 0.5]))


class TestGradMaps:
    def test_euclidean_grad(self):
        g = euclidean_geometry(2)
        assert np.array_equal(grad_map(g, np.array([1.0, 2.0])), [2.0, 4.0])

    def test_entropy_grad(self):
        g = BregmanGeometry(ENTROPY, 2)
        np.testing.assert_allclose(
            grad_map(g, np.array([1.0, np.e])), [0.0, 1.0], atol=1e-15
        )

    def test_round_trips(self):
        rng = np.random.default_rng(0)
        for g in (euclidean_geometry(6), BregmanGeometry(ENTROPY, 6, scale=2.0)):
            for _ in range(20):
                p = rng.uniform(0.05, 2.0, size=6)
                np.testing.assert_allclose(
                    grad_map_inverse(g, grad_map(g, p)), p, atol=1e-12
                )

    def test_unsupported_geometry_rejected(self):
        with pytest.raises(ValueError, match="unknown geometry kind"):
            BregmanGeometry("itakura-saito", 2)


class TestProjection:
    def test_radial(self):
        g = euclidean_geometry(2)
        out = bregman_project(g, DualBall(2, 2), np.array([3.0, 4.0]))
        np.testing.assert_allclose(out, [0.6, 0.8], atol=1e-15)

    def test_interior_fixed(self):
        g = euclidean_geometry(2)
        q = np.array([0.1, 0.2])
        assert np.array_equal(bregman_project(g, DualBall(2, 2), q), q)

    def test_simplex_normalization(self):
        g = lifted_entropy_geometry(1)
        out = bregman_project(g, DualBall(1, 1), np.array([2.0, 1.0, 1.0]))
        np.testing.assert_allclose(out, [0.5, 0.25, 0.25], atol=1e-15)

    def test_simplex_normalization_is_kl_optimal(self):
        # fine grid over the 2-simplex: no feasible point is KL-closer
        g = BregmanGeometry(ENTROPY, 3)
        q = np.array([2.0, 1.0, 1.0])
        projected = bregman_project(lifted_entropy_geometry(1), DualBall(1, 1), q)
        best = np.inf
        steps = 120
        for i in range(steps + 1):
            for j in range(steps + 1 - i):
                w = np.array(
                    [i / steps, j / steps, (steps - i - j) / steps]
                ).clip(1e-9)
                w = w / w.sum()
                best = min(best, bregman_distance(g, w, q))
        assert bregman_distance(g, projected, q) <= best + 1e-9

    def test_unsupported_pairing_rejected(self):
        with pytest.raises(ValueError):
            bregman_project(euclidean_geometry(2), DualBall(1, 2), np.ones(2))


class TestLift:
    def test_round_trip(self):
        # positive parts, negative parts, slack 1 - ||P||_1
        p = np.array([0.25, -0.5, 0.0])
        w = np.concatenate([np.maximum(p, 0.0), np.maximum(-p, 0.0), [0.25]])
        assert np.array_equal(simplex_to_dual(w), p)

    def test_uniform_encodes_zero(self):
        w = uniform_simplex_weights(4)
        assert np.array_equal(simplex_to_dual(w), np.zeros(4))


class TestProperties:
    """Distance axioms for the two geometries the game plays in."""

    GEOMETRIES = ("euclidean", "entropy")

    def _sample(self, rng, which, dim):
        if which == "euclidean":
            return rng.normal(size=dim)
        return random_simplex_point(rng, dim)

    def _geometry(self, which, dim):
        if which == "euclidean":
            return euclidean_geometry(dim)
        return BregmanGeometry(ENTROPY, dim, scale=2.0)

    @pytest.mark.parametrize("which", GEOMETRIES)
    def test_nonnegative_zero_iff_equal(self, which):
        rng = np.random.default_rng(17)
        g = self._geometry(which, 8)
        for _ in range(200):
            p, q = self._sample(rng, which, 8), self._sample(rng, which, 8)
            d = bregman_distance(g, p, q)
            assert d >= 0.0
            if not np.allclose(p, q):
                assert d > 0.0
            assert bregman_distance(g, p, p) <= 1e-12

    @pytest.mark.parametrize("which", GEOMETRIES)
    def test_three_point_identity(self, which):
        # B(P,Q) = B(P,T) + B(T,Q) + <P - T, grad R(T) - grad R(Q)>,
        # as follows from expanding the definition
        rng = np.random.default_rng(18)
        g = self._geometry(which, 6)
        for _ in range(200):
            p = self._sample(rng, which, 6)
            q = self._sample(rng, which, 6)
            t = self._sample(rng, which, 6)
            lhs = bregman_distance(g, p, q)
            rhs = (
                bregman_distance(g, p, t)
                + bregman_distance(g, t, q)
                + (p - t) @ (grad_map(g, t) - grad_map(g, q))
            )
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    @pytest.mark.parametrize("which", GEOMETRIES)
    def test_symmetrized_identity(self, which):
        rng = np.random.default_rng(19)
        g = self._geometry(which, 6)
        for _ in range(200):
            p = self._sample(rng, which, 6)
            q = self._sample(rng, which, 6)
            lhs = bregman_distance(g, p, q) + bregman_distance(g, q, p)
            rhs = (p - q) @ (grad_map(g, p) - grad_map(g, q))
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_pythagorean_euclidean(self):
        rng = np.random.default_rng(20)
        g = euclidean_geometry(5)
        ball = DualBall(2, 5)
        for _ in range(200):
            q = rng.normal(size=5) * 3
            if np.linalg.norm(q) <= 1:
                continue
            p = rng.normal(size=5)
            p = p / max(1.0, np.linalg.norm(p))
            pq = bregman_project(g, ball, q)
            assert bregman_distance(g, p, q) >= bregman_distance(g, p, pq) - 1e-10

    def test_pythagorean_entropy(self):
        rng = np.random.default_rng(21)
        m = 3
        g = lifted_entropy_geometry(m)
        ball = DualBall(1, m)
        for _ in range(200):
            q = rng.uniform(0.05, 2.0, size=2 * m + 1)
            p = random_simplex_point(rng, 2 * m + 1)
            pq = bregman_project(g, ball, q)
            assert bregman_distance(g, p, q) >= bregman_distance(g, p, pq) - 1e-10

    def test_strong_convexity_euclidean(self):
        rng = np.random.default_rng(22)
        g = euclidean_geometry(7)
        for _ in range(200):
            p, q = rng.normal(size=7), rng.normal(size=7)
            p /= max(1.0, np.linalg.norm(p))
            q /= max(1.0, np.linalg.norm(q))
            assert bregman_distance(g, p, q) >= np.sum((p - q) ** 2) - 1e-10

    def test_strong_convexity_entropy_pinsker(self):
        rng = np.random.default_rng(23)
        g = lifted_entropy_geometry(4)
        for _ in range(200):
            p = random_simplex_point(rng, 9)
            q = random_simplex_point(rng, 9)
            assert bregman_distance(g, p, q) >= np.abs(p - q).sum() ** 2 - 1e-10
