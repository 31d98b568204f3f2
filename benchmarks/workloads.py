"""The benchmark's workloads: instance families, solver calls, output checks.

Every instance is built the way `l0l1.bench._run_cell` builds it, from
``synth.derive_seed(seed, trial)``, so trial i of a workload run with
``--seed S`` is trial i of ``l0l1 bench --experiment <preset> --seed S``.
The solvers are called through their public entry points with the
configurations `bench.run_solver` uses, looked up on their modules at call
time so that `spans.traced` sees them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from l0l1 import game, pursuit, synth
from l0l1.game import GameConfig
from l0l1.pursuit import PursuitConfig


@dataclass(frozen=True)
class Workload:
    """A fixed instance set: `trials` seeds times the sigma grid, each
    instance solved at every tau multiple by every solver.

    `absent` lists layer-name prefixes the workload must never call and
    `largest_child` a (parent, child) layer pair where the child must take
    the most time among the parent's children: the layer isolation the
    workload was chosen for, checked on traced runs.
    """

    name: str
    preset: str
    n: int
    m: int
    k: int
    sigmas: tuple[float, ...]
    tau_mults: tuple[float, ...]
    solvers: tuple[str, ...]
    trials: int
    noise_mode: str = "std"
    absent: tuple[str, ...] = ()
    largest_child: tuple[str, str] | None = None

    @property
    def rounds(self) -> int:
        # the game round count bench uses by default: T = 4k
        return 4 * self.k


WORKLOADS = {
    w.name: w
    for w in (
        # CLASH's inner l1-constrained solves (l1_project on n <= 2k) with
        # the budget binding, tau = 0.5 ||alpha*||_1, each solve running at
        # least four portfolio members.  tau = 1.0 and 2.0 are left out: one
        # solve there takes 0.6 to 6.5 s depending on the instance, so a run
        # of 14 trials moved by 40 % from seed to seed; at tau = 0.5 a run
        # averages over 150 instances.
        Workload(
            name="clash-tau",
            preset="tau-sweep",
            n=500, m=160, k=57,
            sigmas=(0.05,),
            tau_mults=(0.5,),
            solvers=("clash",),
            trials=150,
            noise_mode="fixed-norm",
            largest_child=("pursuit.clash_solve", "projections.l1_project"),
        ),
        # game rounds only: game-linf plays the entropy geometry on the N x N
        # Gram matrix, game-l2 the Euclidean geometry on Phi
        Workload(
            name="game-dantzig",
            preset="dantzig-noise",
            n=1000, m=200, k=20,
            # 1e-3, 1e-2, 1e-1, computed as the preset grid computes them
            sigmas=tuple(float(s) for s in np.logspace(-3.5, -0.5, 7)[1::2]),
            tau_mults=(1.0,),
            solvers=("game-linf", "game-l2"),
            trials=10,
            absent=("pursuit.", "projections."),
        ),
        # full-length products and projections, restricted least squares on
        # |S| <= 2k; no CLASH inner solve and no game, so changes to those
        # predict no change here
        Workload(
            name="wide-baselines",
            preset="noise-resilience",
            n=1000, m=305, k=115,
            # 1e-5, 1e-3, 1e-1: the grid's 10**-5 is not the literal 1e-5
            sigmas=tuple(float(s) for s in np.logspace(-5, -1, 5)[::2]),
            tau_mults=(1.0,),
            solvers=("lasso-pg", "iht", "sp"),
            trials=6,
            absent=("game.", "pursuit.clash_solve"),
        ),
    )
}


@dataclass(frozen=True)
class Job:
    """One solve: a solver on an instance at an l1 budget."""

    trial: int
    sigma: float
    tau_mult: float
    solver: str
    problem: synth.GeneratedProblem

    @property
    def tau(self) -> float:
        return self.tau_mult * self.problem.tau_star


def build(wl: Workload, seed: int) -> list[Job]:
    """Generate the workload's instances; jobs in (trial, sigma, tau, solver)
    order.  Instances that differ only in tau share one generated problem."""
    jobs = []
    for trial in range(wl.trials):
        for sigma in wl.sigmas:
            spec = synth.ProblemSpec(
                n=wl.n, m=wl.m, k=wl.k, sigma=sigma,
                seed=synth.derive_seed(seed, trial),
                matrix_scaling=synth.INV_SQRT_M,
                noise_mode=wl.noise_mode,
            )
            problem = synth.generate(spec)
            jobs += [
                Job(trial, sigma, mult, solver, problem)
                for mult in wl.tau_mults
                for solver in wl.solvers
            ]
    return jobs


SOLVERS = {
    "sp": lambda p, tau, rounds: pursuit.sp_solve(p.phi, p.f, PursuitConfig(sparsity=p.spec.k))[0],
    "clash": lambda p, tau, rounds: pursuit.clash_solve(
        p.phi, p.f, PursuitConfig(sparsity=p.spec.k, tau=tau))[0],
    "lasso-pg": lambda p, tau, rounds: pursuit.lasso_pg_solve(p.phi, p.f, tau),
    "iht": lambda p, tau, rounds: pursuit.iht_solve(p.phi, p.f, p.spec.k),
    "game-l2": lambda p, tau, rounds: game.game_solve(
        p.phi, p.f, GameConfig(rounds=rounds, q=2, tau=tau))[0],
    "game-linf": lambda p, tau, rounds: game.dantzig_game_solve(
        p.phi, p.f, GameConfig(rounds=rounds, q=np.inf, tau=tau))[0],
}


def solve(job: Job, rounds: int) -> np.ndarray:
    """The recovered alpha of one job."""
    return SOLVERS[job.solver](job.problem, job.tau, rounds).alpha


# the output guarantees each solver documents: sparsity <= k (pursuits) or
# <= T (games, T-round averages of 1-sparse plays), and l1 norm <= tau
# where the budget is enforced.  The l1 norm is compared up to the rounding
# bound of the sum that computes it, nnz * eps relative: CLASH nudges its
# inner iterate onto the ball summed over the support, and the same entries
# summed in the full-length vector can land one ulp above tau.
_MAX_NONZEROS = {"sp": "k", "iht": "k", "clash": "k", "game-l2": "T", "game-linf": "T"}
_L1_BOUNDED = {"clash", "lasso-pg", "game-l2", "game-linf"}


def check(job: Job, alpha, rounds: int) -> str | None:
    """Why `alpha` is not an acceptable output of `job`, or None."""
    if alpha is None:
        return "no output"
    if not np.all(np.isfinite(alpha)):
        return "non-finite alpha"
    cap = _MAX_NONZEROS.get(job.solver)
    if cap is not None:
        limit = job.problem.spec.k if cap == "k" else rounds
        nnz = int(np.count_nonzero(alpha))
        if nnz > limit:
            return f"||alpha||_0 = {nnz} > {cap} = {limit}"
    if job.solver in _L1_BOUNDED:
        l1 = float(np.sum(np.abs(alpha)))
        if l1 > job.tau * (1.0 + np.count_nonzero(alpha) * np.finfo(float).eps):
            return f"||alpha||_1 = {l1!r} > tau = {job.tau!r}"
    return None


def rel_error(job: Job, alpha: np.ndarray) -> float:
    """||alpha - alpha*||_2 / ||alpha*||_2."""
    star = job.problem.alpha_star
    return float(np.linalg.norm(alpha - star) / np.linalg.norm(star))
