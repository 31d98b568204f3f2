"""The result record shared by every solver in the package.

A pursuit's history holds the residual 2-norm ||f - Phi alpha||_2 after
each iteration, so its last entry is `residual_l2`; the game solvers'
holds each round's loss (`game.loss`).  `pursuit.sp_solve` and
`pursuit.clash_solve` also return the list of their iterates, one array
per history entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class SolverResult:
    """What a solver hands back: the recovered vector, residual norms,
    a per-iteration history, and why it stopped."""

    alpha: np.ndarray
    residual_l2: float
    residual_q: float
    history: list[float] = field(default_factory=list)
    iterations: int = 0
    termination: str = ""
