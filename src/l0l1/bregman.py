"""Bregman distances, gradient maps and Bregman projections for the two
geometries the game's dual player plays in, each with its own feasible
set and a scale fixed by its kind:

* squared Euclidean, scale 1, on the unit 2-ball in R^dim (dual exponent
  p = 2), so the distance lower bound B(P, Q) >= ||P - Q||_2^2 holds with
  equality, and
* entropy, scale 2, on the probability simplex in R^dim, so Pinsker's
  inequality gives B(P, Q) >= ||P - Q||_1^2.  The game lifts the l1 unit
  ball (dual exponent p = 1) onto it.

The l1 ball {P in R^M : ||P||_1 <= 1} is represented by 2M + 1 nonnegative
weights summing to one: positive parts, negative parts, and one slack
coordinate.  The encoded point is P_i = w_i - w_{M+i}.

The game steps in closed form (`game.max_update`): at p = 2 the gradient
map and its inverse cancel to an additive step followed by radial
shrinking, and at p = 1 to multiplicative weights followed by
renormalization, the entropy projection onto the simplex.  The maps and
projections below are those steps written term by term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import as_vector, check_count

SQUARED_EUCLIDEAN = "squared-euclidean"
ENTROPY = "entropy"


@dataclass(frozen=True)
class BregmanGeometry:
    """A potential R (by name, with the scale its kind fixes) and its
    domain dimension."""

    kind: str
    dim: int

    def __post_init__(self):
        if self.kind not in (SQUARED_EUCLIDEAN, ENTROPY):
            raise ValueError(f"unknown geometry kind {self.kind!r}")
        check_count("dim", self.dim)


def euclidean_geometry(dim: int) -> BregmanGeometry:
    """The squared Euclidean potential (B(P,Q) = ||P-Q||_2^2)."""
    return BregmanGeometry(SQUARED_EUCLIDEAN, dim)


def lifted_entropy_geometry(m: int) -> BregmanGeometry:
    """The entropy potential on the lifted simplex for an l1 ball in R^m."""
    check_count("m", m)
    return BregmanGeometry(ENTROPY, 2 * m + 1)


def _check_point(g: BregmanGeometry, x, name: str, positive: bool = True) -> np.ndarray:
    x = as_vector(x, name, g.dim)
    if positive and g.kind == ENTROPY and np.any(x <= 0):
        raise ValueError(f"{name} must be strictly positive for {g.kind}")
    return x


def bregman_distance(g: BregmanGeometry, p: np.ndarray, q: np.ndarray) -> float:
    """B_R(P, Q) = R(P) - R(Q) - <P - Q, grad R(Q)>, in closed form.

    Closed forms:

    * squared Euclidean:  ||P - Q||_2^2
    * entropy:            2 (sum_i P_i log(P_i / Q_i) - sum_i (P_i - Q_i))

    Entropy requires strictly positive entries.
    """
    p = _check_point(g, p, "P")
    q = _check_point(g, q, "Q")
    if g.kind == SQUARED_EUCLIDEAN:
        d = p - q
        return float(d @ d)
    return 2.0 * float(np.sum(p * np.log(p / q)) - np.sum(p - q))


def grad_map(g: BregmanGeometry, p: np.ndarray) -> np.ndarray:
    """grad R at P: 2 P for squared Euclidean, 2 log P for entropy."""
    p = _check_point(g, p, "P")
    return 2.0 * (p if g.kind == SQUARED_EUCLIDEAN else np.log(p))


def grad_map_inverse(g: BregmanGeometry, y: np.ndarray) -> np.ndarray:
    """Inverse of `grad_map`: y / 2 for squared Euclidean, exp(y / 2) for
    entropy."""
    y = _check_point(g, y, "y", positive=False) / 2.0
    return y if g.kind == SQUARED_EUCLIDEAN else np.exp(y)


def bregman_project(g: BregmanGeometry, q: np.ndarray) -> np.ndarray:
    """Bregman projection of Q onto the geometry's feasible set: radial
    shrinking onto the unit 2-ball when ||Q||_2 > 1 for squared
    Euclidean, and renormalization, the KL projection onto the simplex,
    of nonnegative weights not all zero for entropy."""
    q = _check_point(g, q, "Q", positive=False)
    if g.kind == SQUARED_EUCLIDEAN:
        nrm = float(np.sqrt(q @ q))
        return q.copy() if nrm <= 1.0 else q / nrm
    if np.any(q < 0):
        raise ValueError("weights must be nonnegative")
    total = float(np.sum(q))
    if total <= 0:
        raise ValueError("weights must not all vanish")
    return q / total


def simplex_to_dual(w: np.ndarray) -> np.ndarray:
    """Decode lifted weights back to the encoded point P_i = w_i - w_{M+i}."""
    w = np.asarray(w, dtype=np.float64)
    if w.size % 2 != 1:
        raise ValueError("lifted weights must have odd length 2 M + 1")
    m = w.size // 2
    return w[:m] - w[m : 2 * m]


def uniform_simplex_weights(m: int) -> np.ndarray:
    """The uniform lifted weights (1/(2M+1), ...), encoding P = 0."""
    return np.full(2 * m + 1, 1.0 / (2 * m + 1))
