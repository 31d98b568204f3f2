"""Primal-dual game solver for sparse approximation in the lq norm,
q in {2, inf}:

    minimize ||Phi a - f||_q  over  ||a||_0 <= k, ||a||_1 <= tau

is played as a zero-sum game with the bilinear loss L(P, a) =
<P, Phi a - f> between a dual player on the unit lp ball
(p = q / (q - 1)) and a primal player on the l1 ball of radius tau.
Each round the primal player answers P with an exactly 1-sparse best
response (`sparse_best_response`) and the dual player takes a step of
mirror ascent (`max_update`), so the average of T plays is T-sparse and
l1-feasible, and its residual is within D*G / (2 sqrt(T)) of the best
l1-feasible one.  Inputs are checked by `numerics.as_system`,
`numerics.as_vector` and `numerics.check_budget`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .bregman import simplex_to_dual, uniform_simplex_weights
from .numerics import as_system, as_vector, check_budget, check_count, lp_norm
from .projections import clip_into_l1_ball
from .results import SolverResult


@dataclass
class GameConfig:
    """Round count T, residual norm exponent q in {2, inf}, and finite l1
    radius tau.  The dual step size is not settable: it is 2 D / (G sqrt(T))
    for the certificate's diameter D and loss bound G.
    """

    rounds: int
    q: float = 2
    tau: float = 1.0

    def __post_init__(self):
        check_count("rounds", self.rounds)
        _infinite_q(self.q)  # raises unless q is 2 or inf
        check_budget("tau", self.tau, positive=True, finite=True)


@dataclass
class GameCertificate:
    """Run certificate: the loss bound G over 1-sparse feasible plays, the
    Bregman diameter D of the dual ball from the initial strategy, the
    additive regret bound D*G / (2 sqrt(T)), and the achieved residual."""

    loss_bound: float
    diameter: float
    regret_bound: float
    achieved_residual: float


def loss(p: np.ndarray, alpha: np.ndarray, phi: np.ndarray, f: np.ndarray) -> float:
    """The bilinear loss <P, Phi alpha - f>, P of M entries and alpha of N."""
    phi, f = as_system(phi, f)
    p, alpha = as_vector(p, "p", phi.shape[0]), as_vector(alpha, "alpha", phi.shape[1])
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
    phi, f = as_system(phi, f)
    r = phi @ as_vector(alpha, "alpha", phi.shape[1]) - f
    if not _infinite_q(q):
        nrm = float(np.sqrt(r @ r))
        return np.zeros_like(r) if nrm == 0.0 else r / nrm
    out = np.zeros_like(r)
    i = int(np.argmax(np.abs(r)))
    if r[i] != 0.0:
        out[i] = np.sign(r[i])
    return out


def sparse_best_response(
    p: np.ndarray, phi: np.ndarray, f: np.ndarray, tau: float
) -> np.ndarray:
    """The primal player's exact best response to the dual strategy P.

    With r = Phi^T P, the minimum of <P, Phi a - f> over the l1 ball of
    radius tau is attained by the 1-sparse play -tau * sign(r_i) * e_i at a
    largest-magnitude index i (ties -> lowest index); its loss is
    -tau * ||Phi^T P||_inf + <P, -f>.  r = 0 returns the zero play.
    """
    phi, f = as_system(phi, f)
    check_budget("tau", tau, positive=True, finite=True)
    i, sign = _best_index(phi.T @ as_vector(p, "p", phi.shape[0]))
    out = np.zeros(phi.shape[1])
    if sign != 0.0:
        out[i] = -tau * sign
    return out


def _best_index(r: np.ndarray) -> tuple[int, float]:
    """A largest-magnitude index of the correlations r (ties -> lowest
    index) and the sign of r there, 0.0 when r is zero."""
    i = int(np.argmax(np.abs(r)))
    return i, float(np.sign(r[i]))


def max_update(p: np.ndarray, residual: np.ndarray, eta: float, q: float) -> np.ndarray:
    """One mirror-ascent step of the dual player at rate eta / 2: the point
    Q with grad R(Q) = grad R(P) + eta residual, Bregman-projected back
    (`bregman`).  At q = 2 that is P + eta / 2 residual, shrunk radially
    into the unit 2-ball.  At q = inf `p` holds the 2M + 1 positive lifted
    weights w, and the step is w exp(eta / 2 [residual; -residual; 0]),
    renormalized to sum to one.
    """
    lifted = _infinite_q(q)
    check_budget("eta", eta, finite=True)
    p, residual = as_vector(p, "p"), as_vector(residual, "residual")
    m = residual.size
    if p.size != (2 * m + 1 if lifted else m):
        raise ValueError(f"p of {p.size} entries does not fit a residual of {m} at q = {q}")
    if lifted and np.any(p <= 0):
        raise ValueError("lifted weights must be strictly positive")
    return _dual_step(p, residual, eta / 2.0, lifted)


def _infinite_q(q: float) -> bool:
    """Whether the residual norm exponent is q = inf, where the dual player
    plays on the lifted simplex, rather than q = 2; ValueError for any
    other q."""
    if not (q == 2 or q == np.inf):
        raise ValueError(f"q must be 2 or inf, got {q}")
    return bool(q == np.inf)


def _dual_step(dual: np.ndarray, residual: np.ndarray, rate: float, lifted: bool) -> np.ndarray:
    """The step of `max_update` at `rate`, unchecked: multiplicative
    weights (Freund & Schapire 1999) when `lifted`, else the shrunk
    Euclidean step."""
    if lifted:
        # |r_i| <= G in the game, so no factor exceeds exp(D / sqrt(T)); a
        # weight that underflows is too small to move P, and no log is taken
        w = dual * np.exp(rate * np.concatenate((residual, -residual, [0.0])))
        return w / np.sum(w)
    q = dual + rate * residual
    nrm = float(np.sqrt(q @ q))
    return q if nrm <= 1.0 else q / nrm


def loss_bound(phi: np.ndarray, f: np.ndarray, tau: float, q: float) -> float:
    """Exact maximum of ||Phi a - f||_q, q in {2, inf}, over 1-sparse
    plays with ||a||_1 <= tau: the objective is convex on each segment
    [-tau e_j, +tau e_j], so the maximum is at one of the 2N vectors
    +-tau e_j, or a = 0 at tau = 0.
    """
    phi, f = as_system(phi, f)
    check_budget("tau", tau, finite=True)
    return _loss_bound(phi, f, tau, q)


def _loss_bound(phi: np.ndarray, f: np.ndarray, tau: float, q: float) -> float:
    """`loss_bound` on a system and a tau that are already checked."""
    infinite = _infinite_q(q)
    if tau == 0:
        return lp_norm(f, q)
    if infinite:
        return _linf_bound(np.max(np.abs(phi), axis=1), f, tau)
    # the larger of ||tau phi_j -/+ f||^2, with no M x N temporary
    col_sq = np.einsum("ij,ij->j", phi, phi)
    cross = np.abs(phi.T @ f)
    return float(np.sqrt(np.max(tau * tau * col_sq + 2.0 * tau * cross + f @ f)))


def _linf_bound(row_max: np.ndarray, f: np.ndarray, tau: float) -> float:
    """max over j and both signs of ||tau A_j -/+ f||_inf, given
    row_max[i] = max_j |A_ij|, equal bit for bit to the maximum over the 2N
    candidates without forming them."""
    # max(|a - b|, |a + b|) = |a| + |b|, kept by rounding, which is monotone
    return float(np.max(tau * row_max + np.abs(f)))


def game_solve(
    phi: np.ndarray, f: np.ndarray, cfg: GameConfig
) -> tuple[SolverResult, GameCertificate]:
    """T rounds of primal best response and dual ascent (`_play`),
    averaged: ||alpha||_0 <= T and ||alpha||_1 <= tau by construction.  The
    certificate's diameter D is 1 for p = 2 started at zero and
    sqrt(2 ln(2M + 1)) for the p = 1 lift started uniform.
    """
    phi, f = as_system(phi, f)
    return _play(
        correlate=lambda p: phi.T @ p,
        column=lambda i: phi[:, i],
        apply=lambda a: phi @ a,
        f=f,
        n=phi.shape[1],
        g_bound=_loss_bound(phi, f, cfg.tau, cfg.q),
        cfg=cfg,
    )


def dantzig_game_solve(
    phi: np.ndarray, f: np.ndarray, cfg: GameConfig
) -> tuple[SolverResult, GameCertificate]:
    """Dantzig-selector form: the q = inf game on (Phi^T Phi, Phi^T f).
    Its certificate and residuals are those of the transformed system, so
    the achieved residual is ||Phi^T Phi alpha - Phi^T f||_inf.  No N x N
    matrix is stored: G = Phi^T Phi is applied as Phi^T (Phi p), only the
    last M columns played are kept, and the loss bound reads only the rows
    of G that `_dantzig_bound` screens in.
    """
    phi, f = as_system(phi, f)
    fg = phi.T @ f
    gram = lambda x: phi.T @ (phi @ x)

    @functools.lru_cache(maxsize=phi.shape[0])
    def gram_column(i):
        return phi.T @ phi[:, i]

    return _play(
        correlate=gram,
        column=gram_column,
        apply=gram,
        f=fg,
        n=phi.shape[1],
        g_bound=_dantzig_bound(phi, fg, cfg.tau),
        cfg=GameConfig(rounds=cfg.rounds, q=np.inf, tau=cfg.tau),
    )


def _dantzig_bound(phi: np.ndarray, fg: np.ndarray, tau: float) -> float:
    """`_linf_bound` of the row maxima of |G|, G = Phi^T Phi, reading only
    the rows that pass a Cauchy-Schwarz screen, equal to the bound from
    every row of G as the same products compute it."""
    m = phi.shape[0]
    col_sq = np.einsum("ij,ij->j", phi, phi)
    norms = np.sqrt(col_sq)
    afg = np.abs(fg)
    # |G_ij| <= ||phi_i|| ||phi_j|| bounds row i's term, and the largest term
    # is at least max_i (tau G_ii + |fg_i|).  Both sides are widened by
    # (2M + 16) eps, which covers Higham's gamma_M bound on products of M
    # terms and the few operations after them, assuming no underflow
    margin = (2 * m + 16) * np.finfo(np.float64).eps
    floor = np.max(tau * col_sq + afg) * (1.0 - margin)
    rows = np.flatnonzero((tau * norms * np.max(norms) + afg) * (1.0 + margin) >= floor)
    # numpy hands a single column to gemv, which sums in another order
    # than gemm does; a repeated column keeps the product on gemm
    if rows.size == 1:
        rows = np.repeat(rows, 2)
    row_max = np.concatenate([
        np.max(np.abs(phi.T @ phi[:, block]), axis=0)
        for block in np.array_split(rows, -(-rows.size // 128))
    ])
    return _linf_bound(row_max, fg[rows], tau)


def _play(correlate, column, apply, f, n, g_bound, cfg):
    """The round loop of both forms, on a matrix A of shape (f.size, n)
    seen only through `correlate(p)` = A^T p, `column(i)` = A[:, i] and,
    once at the end, `apply(a)` = A a, so a round costs one correlation, one
    column and O(M).  The dual step is `max_update`'s, unchecked
    (`_dual_step`).
    """
    m = f.size
    t_rounds, q, tau = cfg.rounds, cfg.q, cfg.tau
    lifted = _infinite_q(q)
    if lifted:
        diameter = float(np.sqrt(2.0 * np.log(2 * m + 1)))
        dual = uniform_simplex_weights(m)
        decode = simplex_to_dual
    else:
        diameter = 1.0
        dual = np.zeros(m)
        decode = lambda p: p

    regret_bound = diameter * g_bound / (2.0 * np.sqrt(t_rounds))

    if not np.isfinite(g_bound):
        raise ValueError("the loss bound G overflows float64: scale the system or tau down")
    if g_bound == 0.0:
        # f = 0 and A = 0: every feasible play is optimal, return zero
        res = SolverResult(np.zeros(n), 0.0, 0.0, [], 0, "degenerate: zero loss bound")
        return res, GameCertificate(0.0, diameter, 0.0, 0.0)

    eta = 2.0 * diameter / (g_bound * np.sqrt(t_rounds))
    rate = eta / 2.0

    # integer play counts: tau times them is the running sum of the plays
    play_counts = np.zeros(n, dtype=np.int64)
    history = []
    for _ in range(t_rounds):
        p_t = decode(dual)
        i, sign = _best_index(correlate(p_t))
        if sign != 0.0:
            # A play - f by a column lookup: the dense product adds only zeros
            residual_t = (-tau * sign) * column(i) - f
            play_counts[i] -= int(sign)
        else:
            residual_t = -f
        history.append(float(p_t @ residual_t))
        dual = _dual_step(dual, residual_t, rate, lifted)

    # averaging may overshoot tau by a few ulps
    alpha = clip_into_l1_ball(tau * play_counts / t_rounds, tau)
    residual = apply(alpha) - f
    achieved = lp_norm(residual, q)
    res = SolverResult(
        alpha=alpha,
        residual_l2=lp_norm(residual, 2),
        residual_q=achieved,
        history=history,
        iterations=t_rounds,
        termination=f"completed {t_rounds} rounds",
    )
    return res, GameCertificate(g_bound, diameter, regret_bound, achieved)
