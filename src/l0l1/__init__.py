"""Sparse linear inverse problems under joint sparsity and l1-norm budgets.

The package solves  minimize ||Phi a - f||_q  over  ||a||_0 <= k,
||a||_1 <= tau  with a primal-dual game solver (`game_solve`,
`dantzig_game_solve`), hard-thresholding pursuits (`sp_solve`,
`clash_solve`, `iht_solve`), and an accelerated projected-gradient
Lasso baseline (`lasso_pg_solve`), plus seeded synthetic problem
generation (`synth`) and a reproducible benchmark harness with a CLI
(`bench`).
"""

__version__ = "0.1.0"

from .bregman import (
    BregmanGeometry,
    bregman_distance,
    bregman_project,
    euclidean_geometry,
    grad_map,
    grad_map_inverse,
    lifted_entropy_geometry,
)
from .game import (
    GameCertificate,
    GameConfig,
    dantzig_game_solve,
    game_solve,
    holder_optimal_dual,
    loss,
    loss_bound,
    max_update,
    sparse_best_response,
)
from .numerics import lp_norm, restricted_lsq
from .projections import ConstraintSet, hard_threshold, l1_project, project_k_tau
from .pursuit import (
    PursuitConfig,
    clash_solve,
    contraction_check,
    iht_solve,
    lasso_pg_solve,
    sp_solve,
)
from .results import IterateTrace, SolverResult
from .synth import GeneratedProblem, ProblemSpec, generate, rip_probe

__all__ = [
    "__version__",
    "BregmanGeometry",
    "bregman_distance",
    "bregman_project",
    "euclidean_geometry",
    "grad_map",
    "grad_map_inverse",
    "lifted_entropy_geometry",
    "GameCertificate",
    "GameConfig",
    "dantzig_game_solve",
    "game_solve",
    "holder_optimal_dual",
    "loss",
    "loss_bound",
    "max_update",
    "sparse_best_response",
    "lp_norm",
    "restricted_lsq",
    "ConstraintSet",
    "hard_threshold",
    "l1_project",
    "project_k_tau",
    "PursuitConfig",
    "clash_solve",
    "contraction_check",
    "iht_solve",
    "lasso_pg_solve",
    "sp_solve",
    "IterateTrace",
    "SolverResult",
    "GeneratedProblem",
    "ProblemSpec",
    "generate",
    "rip_probe",
]
