"""Tour of the building blocks: Euclidean projections onto the sparsity
and l1 balls (and their intersection), and the Bregman machinery the dual
player updates with."""

import numpy as np

from l0l1 import (
    ConstraintSet,
    bregman_distance,
    bregman_project,
    euclidean_geometry,
    grad_map,
    grad_map_inverse,
    hard_threshold,
    l1_project,
    lifted_entropy_geometry,
    max_update,
    project_k_tau,
)
from l0l1.bregman import (
    ENTROPY,
    BregmanGeometry,
    DualBall,
    simplex_to_dual,
    uniform_simplex_weights,
)

w = np.array([3.0, 1.0, 0.5, -0.2])
print("w =", w)
print("keep top 2 magnitudes:   ", hard_threshold(w, 2))
print("shrink into l1 ball (2): ", l1_project(w, 2.0))
print("both, k=2 and tau=3:     ", project_k_tau(w, ConstraintSet(2, 3.0)))

print("\nBregman distances of the dual player's two geometries:")
p, q = np.array([0.5, 0.5]), np.array([0.25, 0.75])
eu = euclidean_geometry(2)
print("  squared euclidean:", bregman_distance(eu, p, q))
print("  entropy (KL form):", bregman_distance(BregmanGeometry(ENTROPY, 2), p, q))

print("\ngradient maps invert each other:")
x = np.array([0.2, 1.7])
print("  euclidean round trip:", grad_map_inverse(eu, grad_map(eu, x)))

print("\nthe dual player's feasible sets:")
q_out = np.array([3.0, 4.0])
print("  l2 ball projection of (3,4):", bregman_project(eu, DualBall(2, 2), q_out))

# the l1 ball is handled through nonnegative simplex weights
# (positive parts, negative parts, slack)
weights = np.array([0.25, 0.0, 0.0, 0.5, 0.25])
print("  (0.25, -0.5) lifted:", weights)
ent = lifted_entropy_geometry(2)
rescaled = bregman_project(ent, DualBall(1, 2), weights * 3.0)
print("  KL projection is renormalization:", simplex_to_dual(rescaled))

print("\none closed-form dual step of each game, at eta = 0.5:")
r = np.array([1.0, -2.0])
print("  q = 2, P + (eta/2) r:", max_update(np.zeros(2), r, 0.5, eu, DualBall(2, 2)))
w = max_update(uniform_simplex_weights(2), r, 0.5, ent, DualBall(1, 2))
print("  q = inf, multiplicative weights:", w, "-> P =", simplex_to_dual(w))
