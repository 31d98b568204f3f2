"""Euclidean projections onto the sparsity ball, the l1 ball, and their
intersection {x : ||x||_0 <= k and ||x||_1 <= tau}.

All three projections are exact (sort-based, no iterative solves) and
deterministic: magnitude ties are always broken toward the lowest index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import as_vector, check_budget, check_count


@dataclass(frozen=True)
class ConstraintSet:
    """A joint budget: at most `k` nonzeros and l1 norm at most `tau`."""

    k: int
    tau: float

    def __post_init__(self):
        check_count("sparsity budget k", self.k)
        check_budget("tau", self.tau)


def hard_threshold(w: np.ndarray, k: int) -> np.ndarray:
    """The k largest-magnitude entries of w, the rest zeroed: the Euclidean
    projection onto {x : ||x||_0 <= k}, ties broken toward the lowest index,
    a copy of w for k >= len(w).  w goes through `as_vector`, k through
    `check_count`."""
    w = as_vector(w, "w")
    check_count("k", k)
    keep = top_k_support(w, k)
    out = np.zeros_like(w)
    out[keep] = w[keep]
    return out


def top_k_support(w: np.ndarray, k: int) -> np.ndarray:
    """Sorted indices of the k largest-magnitude entries (lowest-index ties).

    k = 0 gives an empty array and k >= len(w) every index; a k that is
    not an integer, or is negative, raises ValueError.
    """
    w = np.asarray(w, dtype=np.float64)
    check_count("k", k, 0)
    if k == 0 or k >= w.size:
        return np.arange(min(k, w.size))
    # every magnitude above the k-th largest, then the lowest-index ties
    # of it; a partition sorts NaN last, so it ranks below every number
    mags = np.abs(w)
    kth = -np.partition(-mags, k - 1)[k - 1]
    if np.isnan(kth):
        keep, tied = ~np.isnan(mags), np.isnan(mags)
    else:
        keep, tied = mags > kth, mags == kth
    keep[np.flatnonzero(tied)[: k - np.count_nonzero(keep)]] = True
    return np.flatnonzero(keep)


def l1_project(w: np.ndarray, tau: float) -> np.ndarray:
    """Euclidean projection onto the l1 ball of radius tau: a copy of w if
    ||w||_1 <= tau, else w soft-thresholded by the theta >= 0 that makes its
    l1 norm tau, found exactly by sort and scan in O(n log n).  w goes
    through `as_vector`, tau through `check_budget`; ValueError if ||w||_1
    overflows."""
    w = as_vector(w, "w")
    check_budget("tau", tau)
    mags = np.abs(w)
    total = np.sum(mags)
    if not np.isfinite(total):
        raise ValueError(f"l1_project needs a finite ||w||_1, got {total}")
    if total <= tau:
        return w.copy()
    if tau == 0:
        return np.zeros_like(w)
    u = np.sort(mags)[::-1]
    cum = np.cumsum(u)
    j = np.arange(1, u.size + 1)
    above = u > (cum - tau) / j
    # u_0 > u_0 - tau holds for every tau > 0, but not in floating point
    # once tau is below the rounding of u_0
    above[0] = True
    rho = int(np.nonzero(above)[0][-1])
    theta = (cum[rho] - tau) / (rho + 1)
    out = np.sign(w) * np.maximum(mags - theta, 0.0)
    # the result sits on the l1 sphere of radius tau up to roundoff; the
    # nudge makes it feasible in floating point, so that a second
    # application is an exact no-op
    return clip_into_l1_ball(out, tau)


def clip_into_l1_ball(x: np.ndarray, tau: float) -> np.ndarray:
    """`x` itself if ||x||_1 <= tau as ``np.sum(np.abs(x))`` sums it, else a
    copy rescaled by the few ulps by which a vector on the l1 sphere may
    overshoot it."""
    for _ in range(4):
        total = float(np.sum(np.abs(x)))
        if total <= tau:
            break
        x = x * (tau / total)
    return x


def project_k_tau(w: np.ndarray, c: ConstraintSet) -> np.ndarray:
    """Euclidean projection onto {x : ||x||_0 <= k and ||x||_1 <= tau}: the
    l1 projection of the top-k hard threshold.  ValueError for k above
    len(w)."""
    w = as_vector(w, "w")
    if c.k > w.size:
        raise ValueError(f"k={c.k} exceeds vector length {w.size}")
    kept = hard_threshold(w, c.k)
    return l1_project(kept, c.tau)
