"""Hard-thresholding pursuits and the projected-gradient Lasso baseline.

* `clash_solve` - the joint (k, tau) pursuit.  Its loop is `_clash_loop`,
  its exact inner solve `_l1_restricted_lsq`, and its portfolio of warm
  starts `_pursue`.
* `sp_solve` - subspace pursuit, `clash_solve` at tau = inf.
* `lasso_pg_solve` - monotone FISTA over the l1 ball, a baseline.
* `iht_solve` - normalized iterative hard thresholding, a baseline.

All top-k selections break magnitude ties toward the lowest index, so
every solver is deterministic given its inputs.  Every solver checks
its system by `numerics.as_system` and solves at a power-of-two scale of f
(`_unit_scale`).  The stop tests of SP, CLASH and IHT are relative, so
scaling Phi by c scales their answer by 1/c.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import _restricted_lsq, as_system, as_vector, check_budget, check_count, independent
from .projections import clip_into_l1_ball, hard_threshold, l1_project, top_k_support
from .results import SolverResult


# (stage budgets as fractions of tau, momentum) for each warm start of
# `clash_solve`, in the order `_pursue` runs them
CONTINUATION_PORTFOLIO: tuple[tuple[tuple[float, ...], bool], ...] = (
    ((), False),
    ((), True),
    ((0.7, 0.8, 0.9, 0.95), False),
    ((0.5, 0.65, 0.8, 0.9, 0.96), False),
    ((0.6, 0.85), False),
)


# Stops of the pursuits' outer loop and of IHT: the relative iterate change
# at or below which a run has converged, and the iteration caps.
_TOLERANCE = 1e-6
_MAX_ITERATIONS = 100
_IHT_MAX_ITERATIONS = 500
# Lasso's power iteration: its cap, and the relative change that stops it
_POWER_ITERATIONS = 20
_POWER_TOLERANCE = 1e-6
# normalized IHT's step shrinkage: c bounds the step against the move's
# curvature, and a rejected step is divided by kappa (1 - c)
_NIHT_C = 0.01
_NIHT_KAPPA = 2.0
# the factor by which Lasso's trial curvature shrinks each iteration
_LASSO_SHRINK = 0.9


@dataclass
class PursuitConfig:
    """Budgets of the pursuits: the sparsity k and the l1 budget tau,
    +inf for none (SP).  Nothing else is settable: `_clash_loop` and
    `_pursue` state the stops, and every inner solve is exact.
    """

    sparsity: int
    tau: float = np.inf

    def __post_init__(self):
        check_count("sparsity", self.sparsity)
        check_budget("tau", self.tau, positive=True)


@dataclass
class ContractionReport:
    """Outcome of an empirical per-iteration contraction check."""

    passed: bool
    rho: float
    noise_term: float
    violations: list[tuple[int, float, float]]


def _check_sparsity(k: int, phi: np.ndarray) -> None:
    """`check_count` on k, and ValueError above min(M, N): no more columns
    than Phi has, nor than a least-squares fit on its rows determines."""
    check_count("sparsity", k)
    if k > min(phi.shape):
        m, n = phi.shape
        raise ValueError(f"sparsity {k} exceeds min(M, N) = min({m}, {n})")


def _unit_scale(f: np.ndarray, *budgets: float) -> tuple:
    """(e, 2^-e f, 2^-e b for each budget b), e the binary exponent of
    max |f|, so the scaled f peaks in [1/2, 1); `_scale_back` undoes it.

    Power-of-two scaling is exact, so each solver's answer is the one on
    f itself (Lasso's with `tol` scaled too), but an f near either end of
    the float64 range neither overflows nor underflows the residual norms
    and objectives the steps compare.  A budget that overflows at f's
    scale becomes inf and cannot bind.
    """
    e = np.frexp(np.max(np.abs(f)))[1]
    with np.errstate(over="ignore"):
        return (e, np.ldexp(f, -e), *(float(np.ldexp(b, -e)) for b in budgets))


def _scale_back(e: int, result: SolverResult, iterates: list | None = None):
    """A `result` computed on 2^-e f (`_unit_scale`), for f itself: alpha,
    the residual norms and the history of residual norms times 2^e, the
    history reading inf where that overflows.  With `iterates`, returns
    (result, iterates) with each iterate scaled like alpha."""
    with np.errstate(over="ignore"):
        history = np.ldexp(result.history, e).tolist()
    scaled = SolverResult(
        np.ldexp(result.alpha, e), float(np.ldexp(result.residual_l2, e)),
        float(np.ldexp(result.residual_q, e)), history, result.iterations,
        result.termination,
    )
    if iterates is None:
        return scaled
    return scaled, [np.ldexp(it, e) for it in iterates]


def _power_iter_cols(a: np.ndarray) -> float:
    """Largest eigenvalue of A^T A by power iteration, without forming
    the Gram matrix, from the uniform unit vector, or, if that lies in A's
    null space, from the unit vector of A's longest column: positive
    whenever A is nonzero (short of underflow).  Raises ValueError if the
    estimate overflows."""
    n = a.shape[1]
    lam = _power_iter(a, np.full(n, 1.0 / np.sqrt(n)))
    if lam == 0.0 and np.any(a):
        start = np.zeros(n)
        start[np.argmax(np.einsum("ij,ij->j", a, a))] = 1.0
        lam = _power_iter(a, start)
    return lam


def _power_iter(a: np.ndarray, v: np.ndarray) -> float:
    """Power iteration on A^T A from the unit vector v; 0 if it meets the
    null space."""
    lam = 0.0
    for _ in range(_POWER_ITERATIONS):
        with np.errstate(over="ignore", invalid="ignore"):
            w = a.T @ (a @ v)
            nw = float(np.sqrt(w @ w))
        if not np.isfinite(nw):
            raise ValueError("power iteration on Phi^T Phi overflows float64")
        if nw == 0.0:
            return 0.0
        v = w / nw
        if lam > 0 and abs(nw - lam) <= _POWER_TOLERANCE * nw:
            return nw
        lam = nw
    return lam


def _l1_restricted_lsq(
    phi: np.ndarray,
    f: np.ndarray,
    support: np.ndarray,
    tau: float,
    warm: np.ndarray | None,
    factor: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Exact minimizer of ||f - Phi v||_2^2 over supp(v) in `support`,
    ||v||_1 <= tau, and its factorization.

    G = Phi_S^T Phi_S and b = Phi_S^T f are formed once, and
    `_l1_active_set` finds the minimizer from the signs of `warm`; the
    support may hold more columns than Phi has rows.  A factorization is
    (columns, G_AA^{-1}) for the ordered active columns A.  `factor`, if
    given, is the one of exactly the nonzeros of `warm`, and `support`
    must then be sorted.  When the unconstrained fit lies inside the ball
    the answer is that fit, off the l1 sphere; when it lies outside, even
    by rounding, the answer is on the sphere.  Returns a full-length
    vector, zero off the support, whose l1 norm summed over the full
    length is at most tau, and the factorization the pivoting ended on.
    """
    m, n = phi.shape
    out = np.zeros(n)
    if support.size == 0:
        return out, (support, np.empty((0, 0)))
    a_s = phi[:, support]
    gram = a_s.T @ a_s
    b = a_s.T @ f
    start = np.zeros(support.size) if warm is None else warm[support]
    if factor is not None:
        factor = np.searchsorted(support, factor[0]), factor[1]
    out[support], act, hinv = _l1_active_set(gram, b, tau, start, m, factor)
    return clip_into_l1_ball(out, tau), (support[act], hinv)


# Columns per block when `_border` forms G_AA^{-1} from scratch
_BLOCK = 64


def _border(gram: np.ndarray, idx: np.ndarray, hinv: np.ndarray) -> np.ndarray | None:
    """G_AA^{-1} for the ordered indices A = `idx` of the Gram matrix G,
    given `hinv`, the inverse for the leading hinv.shape[0] of them (empty
    to form it from scratch).  The other indices are bordered in `_BLOCK`
    at a time: with H the inverse so far and c = H G_Aj, the Schur
    complement G_jj - G_Aj^T c is the square of the Cholesky pivot that
    column j adds.  None if a column lies numerically in the span of the
    ones before it, by the rule of `numerics.independent`.
    """
    n, m = idx.size, hinv.shape[0]
    h = np.empty((n, n))
    h[:m, :m] = hinv
    for p in range(m, n, _BLOCK):
        q = min(p + _BLOCK, n)
        new = idx[p:q]
        # G is symmetric: the new rows hold both G_A,new and G_new,new
        rows = gram[new]
        cross = rows[:, idx[:p]].T
        c = h[:p, :p] @ cross
        schur = rows[:, new] - cross.T @ c
        if not independent(schur, gram.diagonal()[new]):
            return None
        s_inv = np.linalg.inv(schur)
        cs = c @ s_inv
        h[:p, :p] += cs @ c.T
        h[:p, p:q] = -cs
        h[p:q, :p] = -cs.T
        h[p:q, p:q] = s_inv
    return h


def _remove(
    hinv: np.ndarray, out: np.ndarray | list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """The positions kept, in order, when those in `out` leave the active
    set, and their inverse G_KK^{-1} = H_KK - H_KO H_OO^{-1} H_OK with
    H = `hinv` = G_AA^{-1}, in O(|A|^2 |out|)."""
    keep = np.delete(np.arange(hinv.shape[0]), out)
    h_k, h_o = hinv[keep], hinv[out]
    return keep, h_k[:, keep] - h_k[:, out] @ np.linalg.solve(h_o[:, out], h_o[:, keep])


def _from_scratch(gram: np.ndarray, act: np.ndarray) -> np.ndarray:
    """G_AA^{-1} for the ordered positions A = `act` of G, formed from
    scratch by `_border`; RuntimeError if singular."""
    hinv = _border(gram, act, np.empty((0, 0)))
    if hinv is None:
        raise RuntimeError(
            f"l1-constrained least squares: singular active set of {act.size}"
        )
    return hinv


def _first_zero(xa: np.ndarray, sgn: np.ndarray, d: np.ndarray) -> tuple[float, int]:
    """The step t >= 0 at which xa + t d first has a coordinate reach zero
    from its sign, and that coordinate's position; t = inf if none moves
    toward zero.  xa is not empty."""
    closing = sgn * d < 0
    ratios = np.full(xa.size, np.inf)
    ratios[closing] = -xa[closing] / d[closing]
    i = int(np.argmin(ratios))
    return max(float(ratios[i]), 0.0), i


def _trade(
    act: np.ndarray, sgn: np.ndarray, xa: np.ndarray, j: int, sj: float, d: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column j traded into the active set at constant residual: x_j = t s_j
    and xa + t d, d = -s_j G_AA^{-1} G_Aj, lower ||x||_1 until a coordinate
    of A reaches zero; it leaves.  Returns the new act, sgn and xa."""
    step, i = _first_zero(xa, sgn, d)
    xa = np.concatenate((np.delete(xa + step * d, i), [step * sj]))
    return (
        np.concatenate((np.delete(act, i), [j])),
        np.concatenate((np.delete(sgn, i), [sj])),
        xa,
    )


# Block exchanges in a row that do not lower the count of violators
# before `_l1_active_set` turns to its backup for the rest of the solve
_BACKUP = 3


def _l1_active_set(
    gram: np.ndarray,
    b: np.ndarray,
    tau: float,
    start: np.ndarray,
    rows: int,
    factor: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact minimizer of 1/2 x^T G x - b^T x over ||x||_1 <= tau, with
    the final ordered active positions A and the G_AA^{-1} it ended on.

    Block principal pivoting on the sign pattern (Kim & Park 2011): with
    active set A and signs s, each step solves the face {supp(x) in A,
    s^T x_A <= tau}: x_A = u - lam v, u = G_AA^{-1} b_A, v = G_AA^{-1} s,
    lam = max((s^T u - tau) / (s^T v), 0).  Every violator is exchanged:
    i in A with s_i x_i < 0 leaves, and j off A with |g_j| > lam,
    g = b - G x, enters with the sign of g_j.  After `_BACKUP` steps that
    do not lower the count of violators, or at an entry that would make
    G_AA singular, the backup exchanges one index at a time from x = 0:
    x moves toward the face minimizer until a coordinate reaches zero and
    leaves, and at the minimizer the largest violator enters, so the
    objective falls.  An entered index that the next step moves against
    its sign entered on rounding noise and is barred.  A column j in the
    span of A's, c = G_AA^{-1} G_Aj, has g_j = lam s^T c at a face
    minimizer: if |s^T c| > 1 `_trade` brings it in, else it is barred.
    Bars and trades use G_AA^{-1} formed from scratch (`_from_scratch`),
    not its updates by `_border` and `_remove`, which can drift.  When no
    index enters or leaves, x is returned if the inverse is fresh or the
    face equations |g_A - lam s_A| hold within the entry test's rounding
    tolerance (without its 1e-10 lam margin): with g computed from G,
    those are the optimality conditions, to rounding.  A failed check
    forms the inverse from scratch and steps again.

    Starts from the signs of `start`, on `factor` = (positions,
    G_AA^{-1}) of exactly its nonzeros if given, which the face check
    then guards; else on G_AA^{-1} formed from scratch, or from A empty if
    that block is singular, as with more nonzeros than `rows`.  Raises
    RuntimeError after 20|S| + 50 steps, or if G_AA^{-1} formed from
    scratch is singular or indefinite.
    """
    size, g_max = b.size, gram.diagonal().max()
    # rounding bound of g_j = b_j - G_j x, |S| terms with ||x||_1 <= tau;
    # the error of x_A adds the same amplified by the condition number of
    # G_AA, estimated at each step as g_max max(diag(G_AA^{-1}))
    slack = size * np.finfo(np.float64).eps * (np.max(np.abs(b)) + g_max * tau)
    if factor is None:
        act = np.nonzero(start)[0]
        hinv = _border(gram, act, np.empty((0, 0))) if act.size <= rows else None
        if hinv is None:
            act, hinv = act[:0], np.empty((0, 0))
    else:
        act, hinv = factor
    sgn = np.sign(start[act])
    fresh, fewest, backup, entered = factor is None, size + 1, _BACKUP, -1
    barred = np.zeros(size, dtype=bool)
    # the iterate of the single exchanges; None while block exchanges run
    xa = None
    for _ in range(20 * size + 50):
        u, v = hinv @ b[act], hinv @ sgn
        curve = float(sgn @ v) if act.size else 1.0
        if not curve > 0.0:
            # s^T G_AA^{-1} s > 0 while G_AA^{-1} stays positive definite
            if fresh:
                raise RuntimeError("l1-constrained least squares: indefinite G_AA")
            hinv, fresh = _from_scratch(gram, act), True
            continue
        lam = max(float(sgn @ u - tau) / curve, 0.0)
        za = u - lam * v
        if xa is not None and act.size:
            step, i = _first_zero(xa, sgn, za - xa)
            if step < 1.0:
                if act[i] == entered and not fresh:
                    hinv, fresh = _from_scratch(gram, act), True
                    continue
                if act[i] == entered:
                    barred[entered] = True
                keep, hinv = _remove(hinv, [i])
                act, sgn, xa = act[keep], sgn[keep], (xa + step * (za - xa))[keep]
                fresh, entered = False, -1
                continue
            # a sign that rounding flipped at zero is put back to zero
            xa = za = np.where(sgn * za < 0.0, 0.0, za)
            entered = -1
        x = np.zeros(size)
        x[act] = za
        g = b - gram @ x
        excess = np.abs(g) - lam
        excess[act] = -np.inf
        excess[barred] = -np.inf
        tol = slack * (1.0 + g_max * (hinv.diagonal().max() if act.size else 0.0))
        enter = np.nonzero(excess > tol + 1e-10 * lam)[0]
        leave = np.nonzero(sgn * za < 0.0)[0]
        if enter.size == 0 and leave.size == 0:
            # the face equations g_A = lam s_A, with g computed from G, to
            # rounding
            if fresh or np.all(np.abs(g[act] - lam * sgn) <= tol):
                return x, act, hinv
            hinv, fresh = _from_scratch(gram, act), True
            continue
        if xa is None:
            if enter.size + leave.size < fewest:
                fewest, backup = enter.size + leave.size, _BACKUP
            else:
                backup -= 1
        else:
            enter = enter[[np.argmax(excess[enter])]]
        grown = None
        if xa is not None or backup >= 0:
            if leave.size:
                keep, hinv = _remove(hinv, leave)
                act, sgn = act[keep], sgn[keep]
            if act.size + enter.size <= rows:
                grown = hinv
                # after a leave-only step `_remove` has the inverse already
                if enter.size:
                    grown = _border(gram, np.concatenate((act, enter)), hinv)
        if grown is not None:
            act = np.concatenate((act, enter))
            sgn = np.concatenate((sgn, np.sign(g[enter])))
            hinv, fresh = grown, False
            if xa is not None:
                xa, entered = np.concatenate((xa, [0.0])), enter[0]
            continue
        if xa is None:
            # the backup, from x = 0 on an inverse formed from scratch
            xa = np.zeros(act.size)
            hinv, fresh = _from_scratch(gram, act), True
            continue
        j, sj = enter[0], np.sign(g[enter[0]])
        if not fresh:
            hinv, fresh = _from_scratch(gram, act), True
            continue
        trade = -sj * (hinv @ gram[act, j])
        if sgn @ trade < -1.0:
            act, sgn, xa = _trade(act, sgn, xa, j, sj, trade)
            hinv = _from_scratch(gram, act)
        else:
            # |g_j| = lam |s^T c| <= lam: j violates on rounding noise only
            barred[j] = True
    raise RuntimeError(
        f"l1-constrained least squares: no optimum after {20 * size + 50} pivots"
    )


def sp_solve(
    phi: np.ndarray, f: np.ndarray, cfg: PursuitConfig
) -> tuple[SolverResult, list[np.ndarray]]:
    """Subspace pursuit (Dai & Milenkovic 2009): `clash_solve` at
    tau = inf, whatever `cfg.tau` is, so one run of `_clash_loop` from
    alpha = 0 with restricted least squares as its inner solve.

    Returns the result and the list of iterates, as `clash_solve` does.
    The first iteration is the least-squares fit on the top-k
    correlations of Phi^T f, and it counts in `iterations` and is entry 0
    of the history and of the iterates.
    """
    return _pursue(phi, f, cfg.sparsity, np.inf)


def _clash_loop(
    phi: np.ndarray,
    f: np.ndarray,
    k: int,
    tau: float,
    alpha0: np.ndarray,
    momentum: bool = False,
    memo: dict | None = None,
    factor: tuple[np.ndarray, np.ndarray] | None = None,
    target: np.ndarray | None = None,
) -> tuple[SolverResult, list[np.ndarray], tuple[np.ndarray, np.ndarray] | None]:
    """The four steps of `clash_solve` at a fixed budget (k, tau), from
    alpha0.  Returns the result, the list of iterates and the
    factorization of the last iterate.

    The result holds the last iterate, its residual norm, the residual
    norm of every iterate as history, the iteration count and the
    termination.  Each iterate is a fresh array, never written again, so
    the list holds the arrays themselves, not copies.  The expansion ranks
    g = Phi^T (f - Phi alpha) off the support, or with `momentum` the same
    at an extrapolation of the last two iterates.  The de-bias is skipped
    when pruning keeps every nonzero of the step-2 answer, which then
    also minimizes over the pruned support.

    Stops: "converged" once the relative iterate change is at most 1e-6;
    "max-iterations" after 100 iterations; "repeat" once an iterate
    equals `target` entry for entry; at tau = inf, "residual stopped
    decreasing" when an iterate's residual norm exceeds the one before,
    which is dropped, as in subspace pursuit; and at a finite tau without
    momentum, "certified", not counting the iteration it skips, once an
    iterate after the first iteration has a duality gap over the whole
    tau-ball within its rounding (`_duality_gap`), taken on the g of the
    next expansion: alpha then minimizes over every extended support, and
    the next iteration would return it.

    `memo` caches inner answers across every loop that shares it: under
    (tau, support) it holds the read-only values of the answer on the
    support and its factorization, the (columns, G_AA^{-1}) its solve
    ended on (`_l1_restricted_lsq`), or None at tau = inf and for an
    answer of more than k nonzeros, which cannot become an iterate.  A
    support met before at the same budget is not solved again: the
    minimizer is unique while G_SS is nonsingular, so another warm start
    would change its rounding only.  Step 2 starts from the iterate's
    factorization when its columns are exactly the iterate's nonzeros:
    `factor` for alpha0, then each iterate's own.  The de-bias forms its
    inverse from scratch.
    """
    norm_active = np.isfinite(tau)
    memo = {} if memo is None else memo

    def inner(support: np.ndarray, warm: np.ndarray, warm_factor=None):
        key = (tau, support.tobytes())
        if key not in memo:
            if norm_active:
                solved, formed = _l1_restricted_lsq(phi, f, support, tau, warm, warm_factor)
                formed = formed if np.count_nonzero(solved) <= k else None
            else:
                solved, formed = _restricted_lsq(phi, f, support), None
            values = solved[support]
            values.flags.writeable = False
            memo[key] = values, formed
        values, formed = memo[key]
        out = np.zeros(phi.shape[1])
        out[support] = values
        return out, formed

    certify = norm_active and not momentum
    alpha = alpha0
    alpha_prev = alpha0
    support = np.nonzero(alpha)[0]
    residual = f - phi @ alpha
    res_norm = float(np.sqrt(residual @ residual))
    history: list[float] = []
    iterates: list[np.ndarray] = []
    termination = "max-iterations"
    for it in range(_MAX_ITERATIONS):
        if momentum and it > 0:
            probe = alpha + (it / (it + 3.0)) * (alpha - alpha_prev)
            corr = phi.T @ (f - phi @ probe)
        else:
            corr = phi.T @ residual
            if certify and it > 0:
                gap, rounding = _duality_gap(phi, f, alpha, tau, corr)
                if gap <= rounding:
                    termination = "certified"
                    break
        corr[support] = 0.0
        # restricted least squares takes at most M columns, so with 2k > M
        # the expansion at tau = inf adds only M - |support| of them
        grow = k if norm_active else min(k, phi.shape[0] - support.size)
        # the sorted union; top_k_support may return support indices when
        # fewer than `grow` correlations off the support are nonzero
        mark = np.zeros(phi.shape[1], dtype=bool)
        mark[support] = True
        mark[top_k_support(corr, grow)] = True
        extended = np.flatnonzero(mark)
        if factor is not None and not np.array_equal(np.sort(factor[0]), support):
            factor = None
        v, factor_new = inner(extended, alpha, factor)
        if np.count_nonzero(v) <= k:
            # pruning keeps all of v, which then also minimizes over its own
            # support: the de-bias would return it again
            alpha_new = v
        else:
            gamma = hard_threshold(v, k)
            alpha_new, factor_new = inner(np.nonzero(gamma)[0], gamma)
        residual_new = f - phi @ alpha_new
        res_norm_new = float(np.sqrt(residual_new @ residual_new))
        if not norm_active and res_norm_new > res_norm:
            termination = "residual stopped decreasing"
            break
        delta = float(np.sqrt(np.sum((alpha_new - alpha) ** 2)))
        alpha_prev = alpha
        alpha, support, factor = alpha_new, np.nonzero(alpha_new)[0], factor_new
        residual, res_norm = residual_new, res_norm_new
        history.append(res_norm)
        iterates.append(alpha)
        if target is not None and np.array_equal(alpha, target):
            termination = "repeat"
            break
        if delta <= _TOLERANCE * float(np.sqrt(alpha @ alpha)):
            termination = "converged"
            break
    iterations = it if termination == "certified" else it + 1
    result = SolverResult(alpha, res_norm, res_norm, history, iterations, termination)
    return result, iterates, factor


def clash_solve(
    phi: np.ndarray, f: np.ndarray, cfg: PursuitConfig
) -> tuple[SolverResult, list[np.ndarray]]:
    """Joint sparsity-and-norm pursuit.

    Per iteration: (1) active set expansion - union the current support
    with the k strongest gradient coordinates from its complement;
    (2) greedy descent with shrinkage - l1-constrained least squares over
    the <= 2k extended support; (3) combinatorial selection - prune to the
    k largest entries; (4) de-bias - l1-constrained least squares on the
    pruned support, so every iterate has at most k nonzeros and an l1
    norm, summed over the full length, of at most tau.  Steps 2 and 4 are
    solved exactly (`_l1_restricted_lsq`), warm-started from the current
    iterate and from the pruned vector; RuntimeError if one fails to
    reach the optimum.  `_clash_loop` runs the iteration and states its
    stops and its cache of inner answers.

    With a finite tau the loop runs from a portfolio of warm starts and
    the smallest final residual wins; `_pursue` states the order and the
    stops.  Returns the result and the list of iterates of the winning
    member's full-budget loop, whose history and iteration count the
    result reports.  With tau = inf both are `sp_solve`'s.
    """
    return _pursue(phi, f, cfg.sparsity, cfg.tau)


def _duality_gap(
    phi: np.ndarray,
    f: np.ndarray,
    alpha: np.ndarray,
    tau: float,
    g: np.ndarray | None = None,
) -> tuple[float, float]:
    """Frank-Wolfe duality gap of alpha for min 1/2 ||f - Phi a||_2^2 over
    ||a||_1 <= tau (Jaggi 2013), and the rounding bound of its computation.

    With g = Phi^T (f - Phi alpha), the negative gradient, the gap is
    tau ||g||_inf - g^T alpha.  For a feasible alpha it is at least
    1/2 ||f - Phi alpha||_2^2 - P*, P* the minimum over the whole ball, and
    it is 0 at a minimizer.  The bound, M eps (tau ||g||_inf + |g|^T |alpha|)
    with M = Phi's row count, is the rounding of a gap computed at a
    minimizer: each g_j sums M products.  `g`, if given, is that negative
    gradient, already computed.
    """
    if g is None:
        g = phi.T @ (f - phi @ alpha)
    top = tau * float(np.max(np.abs(g)))
    scale = top + float(np.abs(g) @ np.abs(alpha))
    return top - float(g @ alpha), phi.shape[0] * np.finfo(np.float64).eps * scale


def _pursue(
    phi: np.ndarray, f: np.ndarray, k: int, tau: float
) -> tuple[SolverResult, list[np.ndarray]]:
    """The body of `clash_solve` and `sp_solve`: one cold start from
    alpha = 0 when tau is infinite, else the portfolio of warm starts.

    The loop can stall on fixed points short of the best solution near
    its recovery phase transition, so each member of
    `CONTINUATION_PORTFOLIO` runs in turn from alpha = 0: a `_clash_loop`
    at each stage budget, then one at tau.  The stage budgets are
    fractions of tau ascending inside (0, 1): early stages shrink harder,
    where supports are easier to find, and each stage's answer lies in
    the next stage's ball, so the projection before each loop returns its
    input.  Each stage loop hands its last factorization to the next, and
    all loops share one inner-answer cache.  The smallest final residual
    wins, ties keeping the earliest member.  The two one-loop members
    come first, so that stop (4) can end the portfolio after one loop
    rather than a staged member's several; CHANGES.md records the census
    that chose the members and their order.

    The portfolio stops after a member once
    (1) the best run so far fits f to 1e-6 relative;
    (2) three members in a row lower the best residual by less than 0.5 %;
    (3) the best run's alpha is certified optimal: its duality gap
        (`_duality_gap`) over the whole l1 ball, which holds the (k, tau)
        feasible set, is within the gap's rounding, so no later member
        can end lower but by rounding; or
    (4) the member ends on the best run's alpha, entry for entry, and that
        alpha's l1 norm is within nnz eps tau of tau: a second warm start
        has reached the same point with the budget binding.  Each later
        member's full-budget loop gets that alpha as its `target` and
        ends "repeat" on reaching it.
    The gap of (3) is taken when the best run changes, unless its
    full-budget loop ended "certified", the same test on the same alpha.
    Stops (2) and (4) are heuristics: a later member may end lower.  The
    solve runs at a power-of-two scale of f and tau (`_unit_scale`).
    """
    phi, f = as_system(phi, f)
    _check_sparsity(k, phi)
    e, f, tau = _unit_scale(f, tau)
    n = phi.shape[1]
    finite = np.isfinite(tau)
    portfolio = CONTINUATION_PORTFOLIO if finite else (((), False),)
    exact_fit = 1e-6 * float(np.sqrt(f @ f))
    best: tuple[SolverResult, list[np.ndarray]] | None = None
    stalls, certified, target = 0, False, None
    memo: dict = {}
    for schedule, momentum in portfolio:
        alpha, factor = np.zeros(n), None
        budgets = [fraction * tau for fraction in schedule] + [tau]
        for stage, budget in enumerate(budgets, 1):
            result, iterates, factor = _clash_loop(
                phi, f, k, budget, l1_project(alpha, budget), momentum, memo,
                factor, target if stage == len(budgets) else None,
            )
            alpha = result.alpha
        res_norm = result.residual_l2
        if best is None or res_norm < best[0].residual_l2 * (1.0 - 5e-3):
            stalls = 0
        else:
            stalls += 1
        if best is None or res_norm < best[0].residual_l2:
            best = result, iterates
            certified = result.termination == "certified"
            if finite and not certified:
                gap, rounding = _duality_gap(phi, f, alpha, tau)
                certified = gap <= rounding
            # stop (4)'s target for the later members: alpha, if the budget
            # binds there; only a finite tau runs a second member
            l1_gap = abs(float(np.sum(np.abs(alpha))) - tau)
            eps = np.finfo(np.float64).eps
            binds = finite and l1_gap <= np.count_nonzero(alpha) * eps * tau
            target = alpha if binds else None
        repeat = result.termination == "repeat"
        if best[0].residual_l2 <= exact_fit or stalls >= 3 or certified or repeat:
            break
    return _scale_back(e, *best)


def lasso_pg_solve(
    phi: np.ndarray,
    f: np.ndarray,
    tau: float,
    tol: float = 1e-8,
    max_iter: int = 2000,
) -> SolverResult:
    """Monotone FISTA with adaptive restart for min ||f - Phi a||_2^2 over
    ||a||_1 <= tau.

    Each iteration takes a projected-gradient step z = P(y - Phi^T
    (Phi y - f) / c) from y, the best point x extrapolated along
    x - x_prev with Nesterov's weights.  The trial curvature c shrinks by
    0.9 each iteration and doubles until ||Phi (z - y)||^2 <= c ||z - y||^2,
    the quadratic upper bound of the objective at y (Beck & Teboulle
    2009's backtracking).  It never exceeds L, the largest eigenvalue of
    Phi^T Phi (`_power_iter_cols`), and at L the step is taken
    unconditionally.  z replaces x only if it does not raise the
    objective.  The momentum restarts (y = x) when z is rejected, or when
    (y - z)^T (x - x_prev) > 0, the gradient restart of O'Donoghue &
    Candes (2015).  The residuals at x and x_prev are carried, and the one
    at y is their combination, so an iteration costs two products with
    Phi, plus one per failed test of the bound.

    Termination: "converged" once ||z - y|| L <= `tol`, which bounds the
    gradient-mapping norm at step 1/L by `tol`, the step at c <= L being
    at least as long; "stalled" once a plain step from the best point (the
    first step, or the first after a restart) does not lower the objective
    in floating point; "max-iterations" after `max_iter` iterations; and
    "degenerate", with no iteration, when tau = 0 or Phi = 0.  `tol` is
    absolute, so scaling Phi by c does not scale the answer by 1/c.  The
    history holds the residual 2-norm at x after each iteration, so it is
    non-increasing.  tau and `tol` are checked by `check_budget`, and
    `max_iter` by `check_count`.  The solve runs at a power-of-two scale
    of f, tau and `tol` (`_unit_scale`).
    """
    phi, f = as_system(phi, f)
    check_budget("tau", tau)
    check_budget("tol", tol)
    check_count("max_iter", max_iter)
    e, f, tau, tol = _unit_scale(f, tau, tol)
    n = phi.shape[1]
    x = np.zeros(n)
    lam = _power_iter_cols(phi)
    if lam == 0.0 or tau == 0.0:
        alpha = l1_project(x, tau)
        r = phi @ alpha - f
        nrm = float(np.sqrt(r @ r))
        return _scale_back(e, SolverResult(alpha, nrm, nrm, [nrm], 0, "degenerate"))
    curve = lam
    rx = phi @ x - f
    fx = float(rx @ rx)
    x_prev, rx_prev = x, rx
    t = 1.0
    history: list[float] = []
    termination = "max-iterations"
    for iterations in range(1, max_iter + 1):
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        if beta == 0.0:
            y, ry = x, rx
        else:
            y = x + beta * (x - x_prev)
            ry = rx + beta * (rx - rx_prev)
        grad = phi.T @ ry
        curve *= _LASSO_SHRINK
        while True:
            z = l1_project(y - grad / curve, tau)
            rz = phi @ z - f
            moved = z - y
            if curve >= lam:
                break
            phi_moved = rz - ry
            if float(phi_moved @ phi_moved) <= curve * float(moved @ moved):
                break
            curve = min(2.0 * curve, lam)
        fz = float(rz @ rz)
        lowered = fz < fx
        restart = fz > fx or float(moved @ (x - z)) > 0.0
        if fz <= fx:
            x_prev, rx_prev, x, rx, fx = x, rx, z, rz, fz
        history.append(float(np.sqrt(fx)))
        if float(np.sqrt(moved @ moved)) * lam <= tol:
            termination = "converged"
            break
        if beta == 0.0 and not lowered:
            termination = "stalled"
            break
        t = 1.0 if restart else t_next
    nrm = history[-1]
    return _scale_back(e, SolverResult(x, nrm, nrm, history, iterations, termination))


def iht_solve(phi: np.ndarray, f: np.ndarray, k: int) -> SolverResult:
    """Normalized iterative hard thresholding (Blumensath & Davies 2010):
    a <- H_k(a + mu * g), g = Phi^T (f - Phi a), H_k keeping the k
    largest magnitudes.

    The support S starts as the top k of |Phi^T f|.  The step mu is the
    exact line search along g_S, ||g_S||^2 / ||Phi g_S||^2.  When the
    thresholded point leaves S, mu is divided by kappa (1 - c), with
    c = 0.01 and kappa = 2, until mu <= (1 - c) ||d||^2 / ||Phi d||^2 for
    the move d; then the residual norm cannot rise.  Stops with
    "converged" once the relative iterate change is at most 1e-6 or
    Phi g_S = 0, else after 500 iterations with "max-iterations".  The
    history holds the residual 2-norm after each iteration.  The solve
    runs at a power-of-two scale of f (`_unit_scale`).

    The residual is carried, f - Phi a - Phi d, with Phi d = mu Phi g_S
    when S does not change.  The columns Phi_S are kept, gathered again
    only when S changes, and Phi g_S and each trial move Phi d are formed
    from them and from the columns entering S, so an iteration makes one
    product with all of Phi, for g.  The returned residual norm is
    recomputed from the returned a.
    """
    phi, f = as_system(phi, f)
    _check_sparsity(k, phi)
    e, f = _unit_scale(f)
    x = np.zeros(phi.shape[1])
    r = f
    g = phi.T @ f
    support = top_k_support(g, k)
    phi_s = phi[:, support]
    on_s = np.zeros(g.size, dtype=bool)
    on_s[support] = True
    history: list[float] = []
    termination = "max-iterations"
    for _ in range(_IHT_MAX_ITERATIONS):
        g_s = g[support]
        with np.errstate(over="ignore", invalid="ignore"):
            phi_g = phi_s @ g_s
            curvature = float(phi_g @ phi_g)
            mu = float(g_s @ g_s) / curvature if curvature else 0.0
        if curvature == 0.0:
            termination = "converged"
            break
        if not (np.isfinite(curvature) and np.isfinite(mu)):
            raise ValueError("IHT step overflows float64: scale Phi down")
        while True:
            w = x + mu * g
            new = top_k_support(w, k)
            x_new = np.zeros_like(x)
            x_new[new] = w[new]
            d = x_new - x
            if np.array_equal(new, support):
                phi_d = mu * phi_g
                break
            # d is zero off S and the entering columns
            added = new[~on_s[new]]
            phi_d = phi_s @ d[support] + phi[:, added] @ d[added]
            if mu * float(phi_d @ phi_d) <= (1.0 - _NIHT_C) * float(d @ d):
                phi_s = phi[:, new]
                on_s[support], on_s[new] = False, True
                break
            mu /= _NIHT_KAPPA * (1.0 - _NIHT_C)
        x, support = x_new, new
        r = r - phi_d
        history.append(float(np.sqrt(r @ r)))
        if float(np.sqrt(d @ d)) <= _TOLERANCE * float(np.sqrt(x @ x)):
            termination = "converged"
            break
        g = phi.T @ r
    r = f - phi @ x
    nrm = float(np.sqrt(r @ r))
    history = history[:-1] + [nrm] if history else []
    return _scale_back(e, SolverResult(x, nrm, nrm, history, len(history), termination))


def contraction_check(
    trace: list[np.ndarray],
    alpha_true: np.ndarray,
    rho_bound: float,
    c1: float,
    noise_norm: float,
) -> ContractionReport:
    """Check the empirical envelope e_{i+1} <= rho * e_i + c1 * ||n||_2,
    with e_i = ||alpha_i - alpha_true||_2 over `trace`, the list of
    iterates that `sp_solve` and `clash_solve` return (at least two); the
    vectors go through `as_vector`, the budgets through `check_budget`."""
    alpha_true = as_vector(alpha_true, "alpha_true")
    for name, value in (("rho_bound", rho_bound), ("c1", c1), ("noise_norm", noise_norm)):
        check_budget(name, value, finite=True)
    if len(trace) < 2:
        raise ValueError("trace has fewer than two iterates to check")
    e = [float(np.sqrt(np.sum((as_vector(it, "trace", alpha_true.size) - alpha_true) ** 2)))
         for it in trace]
    noise_term = c1 * noise_norm
    violations = [
        (i, e[i + 1], rho_bound * e[i] + noise_term)
        for i in range(len(e) - 1)
        if e[i + 1] > rho_bound * e[i] + noise_term
    ]
    return ContractionReport(not violations, rho_bound, noise_term, violations)

