"""Result records shared by every solver in the package."""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

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


@dataclass
class IterateTrace:
    """Per-iteration bookkeeping of a pursuit run.

    Built with the ground truth vector `alpha_true`, `truth_distances`
    holds each iterate's 2-norm distance to it, as `contraction_check`
    requires; otherwise it is None.  Built with `keep_iterates`,
    `iterates` holds a copy of each iterate; otherwise it is None.
    """

    alpha_true: InitVar[np.ndarray | None] = None
    keep_iterates: InitVar[bool] = False
    supports: list[np.ndarray] = field(default_factory=list)
    residual_norms: list[float] = field(default_factory=list)
    iterate_deltas: list[float] = field(default_factory=list)
    truth_distances: list[float] | None = field(default=None, init=False)
    iterates: list[np.ndarray] | None = field(default=None, init=False)

    def __post_init__(self, alpha_true, keep_iterates):
        self._truth = alpha_true
        self.truth_distances = None if alpha_true is None else []
        self.iterates = [] if keep_iterates else None

    def record(self, support, residual_norm, delta, iterate):
        self.supports.append(np.asarray(support, dtype=np.int64))
        self.residual_norms.append(float(residual_norm))
        self.iterate_deltas.append(float(delta))
        if self.truth_distances is not None:
            self.truth_distances.append(float(np.sqrt(np.sum((iterate - self._truth) ** 2))))
        if self.iterates is not None:
            self.iterates.append(np.array(iterate, dtype=np.float64))
