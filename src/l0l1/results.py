"""Result records shared by every solver in the package."""

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


@dataclass
class IterateTrace:
    """Per-iteration bookkeeping of a pursuit run.

    `truth_distances` is filled only when the caller supplies the ground
    truth vector; it is required by `contraction_check`.  `iterates`
    collects full iterate copies when a solver is asked to keep them.
    """

    supports: list[np.ndarray] = field(default_factory=list)
    residual_norms: list[float] = field(default_factory=list)
    iterate_deltas: list[float] = field(default_factory=list)
    truth_distances: list[float] | None = None
    iterates: list[np.ndarray] | None = None

    def record(self, support, residual_norm, delta, truth_distance=None, iterate=None):
        self.supports.append(np.asarray(support, dtype=np.int64))
        self.residual_norms.append(float(residual_norm))
        self.iterate_deltas.append(float(delta))
        if truth_distance is not None:
            if self.truth_distances is None:
                self.truth_distances = []
            self.truth_distances.append(float(truth_distance))
        if iterate is not None:
            if self.iterates is None:
                self.iterates = []
            self.iterates.append(np.array(iterate, dtype=np.float64))
