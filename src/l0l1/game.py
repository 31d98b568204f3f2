"""Primal-dual game solver for sparse approximation in the lq norm.

The constrained residual-minimization problem

    minimize ||Phi a - f||_q  over  ||a||_0 <= k, ||a||_1 <= tau

is recast as a two-player zero-sum game with the bilinear loss
L(P, a) = <P, Phi a - f> played between a dual player choosing P in the
unit lp ball (p = q / (q - 1)) and a primal player choosing a in the l1
ball of radius tau.  Each round the primal player answers the current P
with an exactly 1-sparse best response (`sparse_best_response`), and the
dual player takes one step of mirror ascent on the loss (`max_update`).
The average of the T primal plays is therefore T-sparse and l1-feasible
by construction, and its residual is within an additive D*G / (2 sqrt(T))
of the best l1-feasible residual (`game_solve`).  `dantzig_game_solve`
plays the q = inf game on (Phi^T Phi, Phi^T f), and both forms share the
round loop `_play`.  Both raise ValueError unless Phi and f are finite
and f has one entry per row of Phi (`numerics.as_system`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .bregman import (
    ENTROPY,
    BregmanGeometry,
    DualBall,
    simplex_to_dual,
    uniform_simplex_weights,
)
from .numerics import as_system, check_integer, lp_norm
from .projections import clip_into_l1_ball
from .results import SolverResult


@dataclass
class GameConfig:
    """Solver settings: round count T, residual norm exponent q in {2, inf},
    and finite l1 radius tau.  The dual step size is not settable: it is
    2 D / (G sqrt(T)), from the certificate's diameter D and loss bound G.
    """

    rounds: int
    q: float = 2
    tau: float = 1.0

    def __post_init__(self):
        check_integer("rounds", self.rounds)
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not (self.q == 2 or np.isinf(self.q)):
            raise ValueError(f"q must be 2 or inf, got {self.q}")
        if not 0 < self.tau < np.inf:
            raise ValueError("tau must be positive and finite")


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
    i, sign = _best_index(np.asarray(phi, dtype=np.float64).T @ p)
    out = np.zeros(phi.shape[1])
    if sign != 0.0:
        out[i] = -tau * sign
    return out


def _best_index(r: np.ndarray) -> tuple[int, float]:
    """A largest-magnitude index of the correlations r (ties -> lowest
    index) and the sign of r there, 0.0 when r is zero."""
    i = int(np.argmax(np.abs(r)))
    return i, float(np.sign(r[i]))


def max_update(
    p: np.ndarray,
    residual: np.ndarray,
    eta: float,
    geometry: BregmanGeometry,
    ball: DualBall,
) -> np.ndarray:
    """One mirror-ascent step of the dual player, in closed form.

    The step moves to the point Q with grad R(Q) = grad R(P) + eta * step
    and projects Q back onto the ball in the geometry's Bregman sense.
    For R = s ||P||_2^2 on the 2-ball (p = 2) this is P + eta / (2 s) *
    residual, shrunk radially when it leaves the ball.  For R = s times
    entropy on the p = 1 lift, `p` holds the 2M + 1 positive weights and
    the step is w * exp(eta / s * [residual; -residual; 0]), renormalized
    to sum to one.  The game's geometries have s = 1 and s = 2, so both
    steps have rate eta / 2.
    """
    lifted = geometry.kind == ENTROPY
    p, residual = np.asarray(p, dtype=np.float64), np.asarray(residual, dtype=np.float64)
    dim = 2 * ball.dim + 1 if lifted else ball.dim
    shapes = (p.shape, residual.shape, geometry.dim)
    if lifted != (ball.p == 1) or shapes != ((dim,), (ball.dim,), dim):
        raise ValueError(
            f"P {p.shape} and residual {residual.shape} do not fit the {geometry.kind!r} "
            f"geometry of dimension {geometry.dim} on the unit {ball.p}-ball in R^{ball.dim}"
        )
    if lifted and np.any(p <= 0):
        raise ValueError("lifted weights must be strictly positive")
    rate = eta / geometry.scale if lifted else eta / (2.0 * geometry.scale)
    return _dual_step(p, residual, rate, lifted)


def _dual_step(dual: np.ndarray, residual: np.ndarray, rate: float, lifted: bool) -> np.ndarray:
    """The step of `max_update` at `rate`, unchecked: multiplicative
    weights (Freund & Schapire 1999) when `lifted`, else the shrunk
    Euclidean step.

    In the game |r_i| <= G, so a lifted step scales a weight by at most
    exp(D / sqrt(T)) and nothing overflows.  A weight that falls below
    the normal range rounds to a subnormal or to 0, too small to move P;
    no log is taken, so no floor is needed.
    """
    if lifted:
        w = dual * np.exp(rate * np.concatenate((residual, -residual, [0.0])))
        return w / np.sum(w)
    q = dual + rate * residual
    nrm = float(np.sqrt(q @ q))
    return q if nrm <= 1.0 else q / nrm


def loss_bound(phi: np.ndarray, f: np.ndarray, tau: float, q: float) -> float:
    """Exact maximum of ||Phi a - f||_q over 1-sparse plays with
    ||a||_1 <= tau.

    The objective is convex on each segment [-tau e_j, +tau e_j], so the
    maximum over the set is attained at one of the 2N signed, tau-scaled
    canonical vectors; tau = 0 leaves only a = 0.  For q = 2 the larger
    of ||tau phi_j -/+ f||_2^2 is tau^2 ||phi_j||^2 + 2 tau |phi_j^T f| +
    ||f||^2, a sum of nonnegative terms, so the bound takes the column
    norms and one product Phi^T f, and forms no M x N temporary.
    """
    phi = np.asarray(phi, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    if tau == 0:
        return lp_norm(f, q)
    if np.isinf(q):
        return _linf_bound(np.max(np.abs(phi), axis=1), f, tau)
    col_sq = np.einsum("ij,ij->j", phi, phi)
    cross = np.abs(phi.T @ f)
    return float(np.sqrt(np.max(tau * tau * col_sq + 2.0 * tau * cross + f @ f)))


def _linf_bound(row_max: np.ndarray, f: np.ndarray, tau: float) -> float:
    """max over j and both signs of ||tau A_j -/+ f||_inf, given
    row_max[i] = max_j |A_ij|.

    max(|a - b|, |a + b|) = |a| + |b|, and rounding keeps the identity and
    is monotone, so this equals the maximum over the 2N candidates bit for
    bit without forming them.
    """
    return float(np.max(tau * row_max + np.abs(f)))


def game_solve(
    phi: np.ndarray, f: np.ndarray, cfg: GameConfig
) -> tuple[SolverResult, GameCertificate]:
    """Run T rounds of primal best response / dual ascent and average.

    Output guarantees (by construction): ||alpha||_0 <= T and
    ||alpha||_1 <= tau.  The certificate's diameter D is 1 for p = 2
    started at zero and sqrt(2 ln(2M + 1)) for the p = 1 lift started
    uniform.
    """
    phi, f = as_system(phi, f)
    return _play(
        correlate=lambda p: phi.T @ p,
        column=lambda i: phi[:, i],
        apply=lambda a: phi @ a,
        f=f,
        n=phi.shape[1],
        g_bound=loss_bound(phi, f, cfg.tau, cfg.q),
        cfg=cfg,
    )


def dantzig_game_solve(
    phi: np.ndarray, f: np.ndarray, cfg: GameConfig
) -> tuple[SolverResult, GameCertificate]:
    """Dantzig-selector form: the q = inf game on (Phi^T Phi, Phi^T f).

    Rounds apply G = Phi^T Phi as Phi^T (Phi p) and take its column i as
    Phi^T phi_i.  The last M columns played are kept, no more memory than
    Phi itself, so no N x N matrix is stored.  The loss bound reads only
    the rows of G that pass a Cauchy-Schwarz screen (`_dantzig_bound`).
    The certificate and residuals refer to the transformed system, i.e.
    the achieved residual is ||Phi^T Phi alpha - Phi^T f||_inf.
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
    """`_linf_bound` of the row maxima of |G| for G = Phi^T Phi, reading
    only the rows of G that can set it.

    |G_ij| <= ||phi_i|| ||phi_j||, so row i's term tau max_j |G_ij| +
    |fg_i| is at most tau ||phi_i|| max_j ||phi_j|| + |fg_i|, while the
    largest term is at least max_i (tau G_ii + |fg_i|).  Each side is
    widened by a margin of (2M + 16) eps, which covers Higham's gamma_M
    bound on the rounding of every product of M terms here and of the
    few operations after it (the model assumes no underflow).  A row
    whose widened bound stays below the widened floor cannot hold the
    maximum and is skipped; the rest are read exactly, from products of
    Phi^T with blocks of their columns.  The result equals the bound
    from every row of G as the same products compute it.
    """
    m = phi.shape[0]
    col_sq = np.einsum("ij,ij->j", phi, phi)
    norms = np.sqrt(col_sq)
    afg = np.abs(fg)
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
    """The round loop shared by both forms, on a matrix A of shape
    (f.size, n) seen only through `correlate(p)` = A^T p, `column(i)` =
    A[:, i] and, once at the end, `apply(a)` = A a.

    A round answers P with the 1-sparse play -tau sign(r_i) e_i, whose
    residual A play - f is the column lookup -tau sign(r_i) A[:, i] - f
    (equal to the dense product, which only adds exact zeros), and whose
    loss is <P, residual>.  The dual step is `_dual_step` at rate eta / 2,
    the step `max_update` takes in the game's geometries.  So a round
    costs one correlation, one column and O(M).
    """
    m = f.size
    t_rounds, q, tau = cfg.rounds, cfg.q, cfg.tau
    lifted = bool(np.isinf(q))
    if lifted:
        diameter = float(np.sqrt(2.0 * np.log(2 * m + 1)))
        dual = uniform_simplex_weights(m)
        decode = simplex_to_dual
    else:
        diameter = 1.0
        dual = np.zeros(m)
        decode = lambda p: p

    regret_bound = diameter * g_bound / (2.0 * np.sqrt(t_rounds))

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
