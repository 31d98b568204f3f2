"""Primal-dual game solver for sparse approximation in the lq norm.

The constrained residual-minimization problem

    minimize ||Phi a - f||_q  over  ||a||_0 <= k, ||a||_1 <= tau

is recast as a two-player zero-sum game with the bilinear loss
L(P, a) = <P, Phi a - f> played between a dual player choosing P in the
unit lp ball (p = q / (q - 1)) and a primal player choosing a in the l1
ball of radius tau.  Each round the primal player answers the current P
with an exactly 1-sparse best response, and the dual player takes a
regularized ascent step in its Bregman geometry followed by a Bregman
projection back onto its ball.  The average of the T primal plays is
therefore T-sparse and l1-feasible by construction, and its residual is
within an additive D*G / (2 sqrt(T)) of the best l1-feasible residual.

Two instantiations are provided: q = 2 plays in the squared-Euclidean
geometry (additive updates), q = inf plays in the scale-2 entropy geometry
on the lifted simplex (multiplicative updates).  The Dantzig-selector form
is the q = inf solver run verbatim on the precomputed pair
(Phi^T Phi, Phi^T f).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bregman import (
    BregmanGeometry,
    DualBall,
    bregman_project,
    euclidean_geometry,
    grad_map,
    grad_map_inverse,
    lifted_entropy_geometry,
    simplex_to_dual,
    uniform_simplex_weights,
)
from .numerics import lp_norm
from .projections import clip_into_l1_ball
from .results import SolverResult


@dataclass
class GameConfig:
    """Solver knobs: round count T, residual norm exponent q in {2, inf},
    l1 radius tau, and the dual step size eta ("auto" = 2 D / (G sqrt(T)))."""

    rounds: int
    q: float = 2
    tau: float = 1.0
    eta: float | str = "auto"

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not (self.q == 2 or np.isinf(self.q)):
            raise ValueError(f"q must be 2 or inf, got {self.q}")
        if not self.tau > 0:
            raise ValueError("tau must be positive")
        if self.eta != "auto" and not float(self.eta) >= 0:
            raise ValueError("eta must be nonnegative or 'auto'")


@dataclass
class GameCertificate:
    """Run certificate: the loss bound G over 1-sparse feasible plays, the
    Bregman diameter D of the dual ball from the initial strategy, the
    additive regret bound D*G / (2 sqrt(T)), and the achieved residual."""

    loss_bound: float
    diameter: float
    regret_bound: float
    achieved_residual: float


@dataclass
class GameState:
    """Mutable per-round state: the dual strategy (a vector for p = 2,
    lifted simplex weights for p = 1), integer play counts whose scaled sum
    is the running primal sum, the round index, and per-round losses."""

    dual: np.ndarray
    play_counts: np.ndarray
    tau: float
    t: int = 0
    history: list[float] = field(default_factory=list)

    @property
    def alpha_sum(self) -> np.ndarray:
        return self.tau * self.play_counts.astype(np.float64)


def loss(p: np.ndarray, alpha: np.ndarray, phi: np.ndarray, f: np.ndarray) -> float:
    """The bilinear loss <P, Phi alpha - f>."""
    p = np.asarray(p, dtype=np.float64)
    phi = np.asarray(phi, dtype=np.float64)
    if p.shape[0] != phi.shape[0] or alpha.shape[0] != phi.shape[1]:
        raise ValueError("dimension mismatch between dual point, matrix, and play")
    return float(p @ (phi @ alpha - f))


def holder_optimal_dual(
    alpha: np.ndarray, phi: np.ndarray, f: np.ndarray, q: float
) -> np.ndarray:
    """The dual point making Holder's inequality tight:
    L(P*, alpha) = ||Phi alpha - f||_q.

    q = 2: the normalized residual.  q = inf: the signed indicator of a
    maximal-magnitude residual coordinate (ties -> lowest index).  A zero
    residual returns the zero dual point (any P is optimal, loss 0).
    """
    r = np.asarray(phi, dtype=np.float64) @ alpha - f
    if q == 2:
        nrm = float(np.sqrt(r @ r))
        return np.zeros_like(r) if nrm == 0.0 else r / nrm
    if np.isinf(q):
        out = np.zeros_like(r)
        i = int(np.argmax(np.abs(r)))
        if r[i] != 0.0:
            out[i] = np.sign(r[i])
        return out
    raise ValueError(f"q must be 2 or inf, got {q}")


def sparse_best_response(
    p: np.ndarray, phi: np.ndarray, f: np.ndarray, tau: float
) -> np.ndarray:
    """The primal player's exact best response to the dual strategy P.

    With r = Phi^T P, the minimum of <P, Phi a - f> over the l1 ball of
    radius tau is attained by the 1-sparse play -tau * sign(r_i) * e_i at a
    largest-magnitude index i (ties -> lowest index); its loss is
    -tau * ||Phi^T P||_inf + <P, -f>.  r = 0 returns the zero play.
    """
    if not tau > 0:
        raise ValueError("tau must be positive")
    r = np.asarray(phi, dtype=np.float64).T @ p
    i = int(np.argmax(np.abs(r)))
    out = np.zeros(phi.shape[1])
    if r[i] != 0.0:
        out[i] = -tau * np.sign(r[i])
    return out


def max_update(
    p: np.ndarray,
    residual: np.ndarray,
    eta: float,
    geometry: BregmanGeometry,
    ball: DualBall,
) -> np.ndarray:
    """One regularized ascent step of the dual player.

    Moves to the unconstrained minimizer Q of the regularized loss, i.e.
    grad R(Q) = grad R(P) + eta * residual in the native geometry, then
    Bregman-projects Q back onto the ball.  For the p = 1 lift, `p` holds
    the 2M + 1 weights and the residual is applied with + sign to positive
    parts, - sign to negative parts, and 0 to the slack coordinate.
    """
    residual = np.asarray(residual, dtype=np.float64)
    if ball.p == 2:
        step = residual
    else:
        step = np.concatenate([residual, -residual, [0.0]])
    q = grad_map_inverse(geometry, grad_map(geometry, p) + eta * step)
    return bregman_project(geometry, ball, q)


def loss_bound(phi: np.ndarray, f: np.ndarray, tau: float, q: float) -> float:
    """Exact maximum of ||Phi a - f||_q over 1-sparse plays with
    ||a||_1 <= tau.

    The objective is convex on each segment [-tau e_j, +tau e_j], so the
    maximum over the set is attained at one of the 2N signed, tau-scaled
    canonical vectors; tau = 0 leaves only a = 0.
    """
    phi = np.asarray(phi, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    if tau == 0:
        return lp_norm(f, q)
    plus = tau * phi - f[:, None]
    minus = -tau * phi - f[:, None]
    if np.isinf(q):
        col = np.max(np.abs(plus), axis=0)
        col_m = np.max(np.abs(minus), axis=0)
    else:
        col = np.sqrt(np.sum(plus * plus, axis=0))
        col_m = np.sqrt(np.sum(minus * minus, axis=0))
    return float(max(np.max(col), np.max(col_m)))


def game_solve(
    phi: np.ndarray, f: np.ndarray, cfg: GameConfig
) -> tuple[SolverResult, GameCertificate]:
    """Run T rounds of primal best response / dual ascent and average.

    Output guarantees (by construction): ||alpha||_0 <= T and
    ||alpha||_1 <= tau.  The certificate carries G (loss bound over
    1-sparse feasible plays), D (geometry-specific Bregman diameter from
    the initial dual strategy: 1 for p = 2 started at zero,
    sqrt(2 ln(2M + 1)) for the p = 1 lift started uniform), and the
    additive bound D*G / (2 sqrt(T)).
    """
    phi = np.asarray(phi, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    m, n = phi.shape
    t_rounds = cfg.rounds
    q = cfg.q

    g_bound = loss_bound(phi, f, cfg.tau, q)
    if np.isinf(q):
        geometry = lifted_entropy_geometry(m)
        ball = DualBall(1, m)
        diameter = float(np.sqrt(2.0 * np.log(2 * m + 1)))
        dual = uniform_simplex_weights(m)
        decode = simplex_to_dual
    else:
        geometry = euclidean_geometry(m)
        ball = DualBall(2, m)
        diameter = 1.0
        dual = np.zeros(m)
        decode = lambda p: p

    regret_bound = diameter * g_bound / (2.0 * np.sqrt(t_rounds))
    state = GameState(dual=dual, play_counts=np.zeros(n, dtype=np.int64), tau=cfg.tau)

    if g_bound == 0.0:
        # f = 0 and Phi = 0: every feasible play is optimal, return zero
        alpha = np.zeros(n)
        res = SolverResult(alpha, 0.0, 0.0, [], 0, "degenerate: zero loss bound")
        return res, GameCertificate(0.0, diameter, 0.0, 0.0)

    eta = 2.0 * diameter / (g_bound * np.sqrt(t_rounds)) if cfg.eta == "auto" else float(cfg.eta)

    for _ in range(t_rounds):
        p_t = decode(state.dual)
        play = sparse_best_response(p_t, phi, f, cfg.tau)
        state.history.append(loss(p_t, play, phi, f))
        nz = np.nonzero(play)[0]
        if nz.size:
            state.play_counts[nz[0]] += 1 if play[nz[0]] > 0 else -1
        residual_t = phi @ play - f
        state.dual = max_update(state.dual, residual_t, eta, geometry, ball)
        state.t += 1

    # averaging may overshoot tau by a few ulps
    alpha = clip_into_l1_ball(state.alpha_sum / t_rounds, cfg.tau)
    achieved = lp_norm(phi @ alpha - f, q)
    res = SolverResult(
        alpha=alpha,
        residual_l2=lp_norm(phi @ alpha - f, 2),
        residual_q=achieved,
        history=state.history,
        iterations=t_rounds,
        termination=f"completed {t_rounds} rounds",
    )
    return res, GameCertificate(g_bound, diameter, regret_bound, achieved)


def dantzig_game_solve(
    phi: np.ndarray, f: np.ndarray, cfg: GameConfig
) -> tuple[SolverResult, GameCertificate]:
    """Dantzig-selector form: the q = inf game run on (Phi^T Phi, Phi^T f).

    The certificate and residuals refer to the transformed system, i.e.
    the achieved residual is ||Phi^T Phi alpha - Phi^T f||_inf.
    """
    phi = np.asarray(phi, dtype=np.float64)
    gram = phi.T @ phi
    fg = phi.T @ np.asarray(f, dtype=np.float64)
    cfg_inf = GameConfig(rounds=cfg.rounds, q=np.inf, tau=cfg.tau, eta=cfg.eta)
    return game_solve(gram, fg, cfg_inf)
