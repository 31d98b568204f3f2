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
    """Per-iteration record of a pursuit run: each iterate's support, its
    2-norm distance from the iterate before it, and a copy of the iterate.
    The residual norms are the run's `SolverResult.history`."""

    supports: list[np.ndarray] = field(default_factory=list)
    iterate_deltas: list[float] = field(default_factory=list)
    iterates: list[np.ndarray] = field(default_factory=list)

    def record(self, support, delta, iterate):
        self.supports.append(np.asarray(support, dtype=np.int64))
        self.iterate_deltas.append(float(delta))
        self.iterates.append(np.array(iterate, dtype=np.float64))
