"""Bregman distances, gradient maps and Bregman projections for the two
geometries the game's dual player plays in:

* squared Euclidean on the l2 unit ball (dual exponent p = 2), and
* scaled entropy on a lifted probability simplex encoding the l1 unit
  ball (dual exponent p = 1).

The l1 ball {P in R^M : ||P||_1 <= 1} is represented by 2M + 1 nonnegative
weights summing to one: positive parts, negative parts, and one slack
coordinate.  The encoded point is P_i = w_i - w_{M+i}.

The game steps in closed form (`game.max_update`): at p = 2 the gradient
map and its inverse cancel to an additive step followed by radial
shrinking, and at p = 1 to multiplicative weights followed by
renormalization, the entropy projection onto the simplex.  The maps and
projections below are those steps written term by term, and `grad_map`
states the three-point and symmetrized identities of the distances.

Scale conventions: the Euclidean potential uses scale 1, so the distance
lower bound B(P, Q) >= ||P - Q||_2^2 holds with equality; the entropy
potential uses scale 2, so Pinsker's inequality gives
B(P, Q) >= ||P - Q||_1^2 on the simplex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SQUARED_EUCLIDEAN = "squared-euclidean"
ENTROPY = "entropy"


@dataclass(frozen=True)
class BregmanGeometry:
    """A potential R (by name), its domain dimension, and a positive scale
    multiplying R."""

    kind: str
    dim: int
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in (SQUARED_EUCLIDEAN, ENTROPY):
            raise ValueError(f"unknown geometry kind {self.kind!r}")
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        if not self.scale > 0:
            raise ValueError("scale must be positive")


@dataclass(frozen=True)
class DualBall:
    """The feasible set {P in R^M : ||P||_p <= 1} for p in {1, 2}."""

    p: int
    dim: int

    def __post_init__(self):
        if self.p not in (1, 2):
            raise ValueError(f"dual ball exponent must be 1 or 2, got {self.p}")
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")


def euclidean_geometry(dim: int) -> BregmanGeometry:
    """Scale-1 squared Euclidean potential (B(P,Q) = ||P-Q||_2^2)."""
    return BregmanGeometry(SQUARED_EUCLIDEAN, dim)


def lifted_entropy_geometry(m: int) -> BregmanGeometry:
    """Scale-2 entropy potential on the lifted simplex for an l1 ball in R^m."""
    return BregmanGeometry(ENTROPY, 2 * m + 1, scale=2.0)


def _check_point(g: BregmanGeometry, x: np.ndarray, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (g.dim,):
        raise ValueError(f"{name} has shape {x.shape}, geometry dimension is {g.dim}")
    if g.kind == ENTROPY and np.any(x <= 0):
        raise ValueError(f"{name} must be strictly positive for {g.kind}")
    return x


def bregman_distance(g: BregmanGeometry, p: np.ndarray, q: np.ndarray) -> float:
    """B_R(P, Q) = R(P) - R(Q) - <P - Q, grad R(Q)>, in closed form.

    Closed forms, each multiplied by the geometry scale:

    * squared Euclidean:  ||P - Q||_2^2
    * entropy:            sum_i P_i log(P_i / Q_i) - sum_i (P_i - Q_i)

    Entropy requires strictly positive entries.
    """
    p = _check_point(g, p, "P")
    q = _check_point(g, q, "Q")
    if g.kind == SQUARED_EUCLIDEAN:
        d = p - q
        val = float(d @ d)
    else:
        val = float(np.sum(p * np.log(p / q)) - np.sum(p - q))
    return g.scale * val


def grad_map(g: BregmanGeometry, p: np.ndarray) -> np.ndarray:
    """grad R at P: 2 s P for squared Euclidean with scale s, s log P for
    entropy with scale s."""
    p = _check_point(g, p, "P")
    if g.kind == SQUARED_EUCLIDEAN:
        return 2.0 * g.scale * p
    return g.scale * np.log(p)


def grad_map_inverse(g: BregmanGeometry, y: np.ndarray) -> np.ndarray:
    """Inverse of `grad_map`: y / (2 s) for squared Euclidean, exp(y / s)
    for entropy."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (g.dim,):
        raise ValueError(f"gradient has shape {y.shape}, geometry dimension is {g.dim}")
    if g.kind == SQUARED_EUCLIDEAN:
        return y / (2.0 * g.scale)
    return np.exp(y / g.scale)


def bregman_project(g: BregmanGeometry, ball: DualBall, q: np.ndarray) -> np.ndarray:
    """Bregman projection of Q onto the dual feasible set.

    Supported pairings:

    * (squared Euclidean, p = 2): Euclidean projection onto the unit
      2-ball, i.e. radial shrinking when ||Q||_2 > 1.
    * (entropy, p = 1): Q holds the 2M + 1 lifted nonnegative weights; the
      KL projection onto the probability simplex is renormalization.
    """
    q = np.asarray(q, dtype=np.float64)
    if g.kind == SQUARED_EUCLIDEAN and ball.p == 2:
        if q.shape != (ball.dim,):
            raise ValueError("point dimension does not match the ball")
        nrm = float(np.sqrt(q @ q))
        return q.copy() if nrm <= 1.0 else q / nrm
    if g.kind == ENTROPY and ball.p == 1:
        if q.shape != (2 * ball.dim + 1,):
            raise ValueError("lifted weights must have length 2 M + 1")
        if np.any(q < 0):
            raise ValueError("lifted weights must be nonnegative")
        total = float(np.sum(q))
        if total <= 0:
            raise ValueError("lifted weights must not all vanish")
        return q / total
    raise ValueError(f"unsupported geometry/ball pairing ({g.kind}, p={ball.p})")


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
