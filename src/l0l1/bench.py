"""Monte Carlo benchmark harness and command-line interface.

Three preset experiments (`_PRESETS`) reproduce the reference studies
at desk scale, by cutting trial counts, never dimensions:
``dantzig-noise`` (the Dantzig-form game vs. Lasso and subspace pursuit
over a noise grid), ``noise-resilience`` (the joint pursuit vs. Lasso
and subspace pursuit over a wide noise grid) and ``tau-sweep`` (recovery
error as the l1 budget sweeps multiples of ||alpha*||_1).

Each trial draws its instance from a seed derived from the master seed
and the trial index alone, so every grid point sees the same instances
and reruns are bit-identical.  A trial's grid points run back to back
and share the matrix `synth.generate` keeps.  Records are merged in
(trial, grid point, solver) order, so the CSV bytes do not depend on the
worker count; wall times, which do vary, go to a ``.timing.csv``
sidecar.  Floats are written with 17 significant digits.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from copy import deepcopy
from dataclasses import dataclass, field, fields, replace
from functools import partial

import numpy as np

from . import __version__
from .game import GameConfig, dantzig_game_solve, game_solve
from .numerics import SEED_MAX, check_budget, check_count, load_matrix_auto, lp_norm
from .numerics import read_vector, write_vector
from .pursuit import PursuitConfig, clash_solve, iht_solve, lasso_pg_solve, sp_solve
from .results import SolverResult
from .synth import (
    INV_SQRT_M,
    UNIT_VARIANCE,
    GeneratedProblem,
    ProblemSpec,
    derive_seed,
    format_value,
    generate,
    parse_field,
    read_fields,
    rip_probe,
    write_fields,
)

# each preset's desk-scale overrides of the `ExperimentPlan` defaults,
# which "custom" keeps
_PRESETS = {
    "dantzig-noise": dict(
        n=1000,
        m=200,
        k=20,
        sigma_grid=[float(s) for s in np.logspace(-3.5, -0.5, 7)],
        trials=50,
        solvers=["game-linf", "lasso-pg", "sp"],
    ),
    "noise-resilience": dict(
        n=1000,
        m=305,
        k=115,
        sigma_grid=[float(s) for s in np.logspace(-5, -1, 5)],
        trials=50,
        solvers=["clash", "lasso-pg", "sp"],
    ),
    "tau-sweep": dict(
        n=500,
        m=160,
        k=57,
        sigma_grid=[0.05],
        tau_grid=[0.2, 0.5, 1.0, 2.0, 5.0],
        trials=50,
        solvers=["clash", "sp"],
        noise_mode="fixed-norm",
    ),
}
EXPERIMENTS = (*_PRESETS, "custom")

# Each solver as (phi, f, k, tau, rounds) -> SolverResult.  The entry
# points are looked up in this module's namespace at call time, so a
# wrapper bound in place of one (as a tracer does) sees the calls.
_SOLVE = {
    "sp": lambda phi, f, k, tau, rounds: sp_solve(phi, f, PursuitConfig(sparsity=k))[0],
    "clash": lambda phi, f, k, tau, rounds: clash_solve(
        phi, f, PursuitConfig(sparsity=k, tau=tau)
    )[0],
    "lasso-pg": lambda phi, f, k, tau, rounds: lasso_pg_solve(phi, f, tau),
    "iht": lambda phi, f, k, tau, rounds: iht_solve(phi, f, k),
    "game-l2": lambda phi, f, k, tau, rounds: game_solve(
        phi, f, GameConfig(rounds=rounds, q=2, tau=tau)
    )[0],
    "game-linf": lambda phi, f, k, tau, rounds: dantzig_game_solve(
        phi, f, GameConfig(rounds=rounds, q=np.inf, tau=tau)
    )[0],
}
SOLVERS = tuple(_SOLVE)

# reference thresholds quoted in recovery analyses of pursuit iterations;
# an empirical probe can only lower-bound the true constant, so reports
# flag these as annotations, never certificates
DELTA_CONTRACTIVE = 0.3658
DELTA_EXACT_RECOVERY = 0.38427

SUMMARY_HEADER = (
    "experiment,sigma,tau_mult,solver,trials,"
    "median_rel_error,median_abs_error,median_residual,median_iterations"
)


@dataclass
class TrialRecord:
    """One solver run on one instance at one grid point.

    `tau_mult` is the grid coordinate (multiple of ||alpha*||_1), `tau`
    the absolute budget handed to the solver.  `residual` is in the
    solver's native norm.  Wall time is kept on the record but written
    only to the timing sidecar: it is the one non-deterministic field.
    """

    experiment: str
    trial: int
    seed: int
    solver: str
    sigma: float
    tau_mult: float
    tau: float
    k: int
    rel_error: float
    abs_error: float
    residual: float
    iterations: int
    nonzeros: int
    l1_norm: float
    wall_seconds: float

    def csv_row(self) -> str:
        return format_value([getattr(self, name) for name in RECORD_FIELDS])


# the records CSV's columns: every field but the wall time
RECORD_FIELDS = tuple(f_.name for f_ in fields(TrialRecord) if f_.name != "wall_seconds")
RECORD_HEADER = ",".join(RECORD_FIELDS)


@dataclass
class ExperimentPlan:
    """A fully resolved sweep description.

    `sigma_grid` holds noise levels (standard deviations, or exact noise
    2-norms when `noise_mode` is "fixed-norm"); `tau_grid` holds l1
    budgets as multiples of each instance's ||alpha*||_1.  The grid is
    the cross product of the two.  The counts and the seed go through
    `numerics.check_count`, each `tau_grid` entry `numerics.check_budget`.
    """

    experiment: str = "custom"
    n: int = 256
    m: int = 100
    k: int = 10
    sigma_grid: list[float] = field(default_factory=lambda: [0.0])
    tau_grid: list[float] = field(default_factory=lambda: [1.0])
    trials: int = 10
    solvers: list[str] = field(default_factory=lambda: ["clash", "sp"])
    seed: int = 0
    out: str = "results.csv"
    matrix_scaling: str = INV_SQRT_M
    noise_mode: str = "std"
    workers: int = 1
    game_rounds: int | None = None

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        for name in ("solvers", "sigma_grid", "tau_grid"):
            values = getattr(self, name)
            if not values or len(set(values)) < len(values):
                raise ValueError(f"{name} must be nonempty without repeats, got {values}")
        for tau_mult in self.tau_grid:
            check_budget("tau_grid", tau_mult, positive=True, finite=True)
        check_count("trials", self.trials)
        check_count("workers", self.workers)
        check_count("seed", self.seed, 0, SEED_MAX)
        unknown = [s for s in self.solvers if s not in SOLVERS]
        if unknown:
            raise ValueError(f"unknown solvers {unknown}; choose from {SOLVERS}")
        if self.game_rounds is not None:
            check_count("game_rounds", self.game_rounds)
        # the instance settings, checked as each cell will check them
        for sigma in self.sigma_grid:
            self.spec(sigma)

    def spec(self, sigma: float, seed: int = 0) -> ProblemSpec:
        """The instance at noise level `sigma` drawn from `seed`."""
        return ProblemSpec(
            self.n, self.m, self.k, sigma, seed, self.matrix_scaling, self.noise_mode
        )

    @property
    def rounds(self) -> int:
        # game solvers default to 4k rounds: comfortably past the sparsity
        # budget while the additive 1/sqrt(T) term keeps shrinking
        return self.game_rounds if self.game_rounds is not None else 4 * self.k

    def grid(self) -> list[tuple[float, float]]:
        return [(s, t) for s in self.sigma_grid for t in self.tau_grid]


def preset_plan(experiment: str, **overrides) -> ExperimentPlan:
    """The desk-scale defaults for a named experiment (`_PRESETS`), with
    overrides.  ValueError for an unknown name (`ExperimentPlan`)."""
    preset = deepcopy(_PRESETS.get(experiment, {}))
    return ExperimentPlan(**{"experiment": experiment, **preset, **overrides})


def run_solver(
    name: str, problem: GeneratedProblem, tau: float, rounds: int
) -> tuple[np.ndarray, float, int]:
    """Run one named solver on a generated problem.

    Returns (alpha, residual, iterations) where the residual is in the
    solver's native norm: the data-domain 2-norm for sp/clash/lasso-pg/
    iht/game-l2, and the correlated-residual inf-norm for game-linf.
    """
    res = _solve(name, problem.phi, problem.f, problem.spec.k, tau, rounds)
    return res.alpha, res.residual_q, res.iterations


def _solve(name: str, phi, f, k: int, tau: float, rounds: int) -> SolverResult:
    if name not in _SOLVE:
        raise ValueError(f"unknown solver {name!r}; choose from {SOLVERS}")
    return _SOLVE[name](phi, f, k, tau, rounds)


def _run_cell(plan: ExperimentPlan, grid_index: int, trial: int) -> list[TrialRecord]:
    """All solver records for one (grid point, trial) cell."""
    sigma, tau_mult = plan.grid()[grid_index]
    seed = derive_seed(plan.seed, trial)
    problem = generate(plan.spec(sigma, seed))
    tau = tau_mult * problem.tau_star
    truth_norm = float(np.sqrt(np.sum(problem.alpha_star**2)))
    records = []
    for solver in plan.solvers:
        start = time.perf_counter()
        alpha, residual, iterations = run_solver(solver, problem, tau, plan.rounds)
        wall = time.perf_counter() - start
        err = float(np.sqrt(np.sum((alpha - problem.alpha_star) ** 2)))
        records.append(
            TrialRecord(
                experiment=plan.experiment,
                trial=trial,
                seed=seed,
                solver=solver,
                sigma=sigma,
                tau_mult=tau_mult,
                tau=tau,
                k=plan.k,
                rel_error=err / truth_norm,
                abs_error=err,
                residual=residual,
                iterations=iterations,
                nonzeros=int(np.count_nonzero(alpha)),
                l1_norm=float(np.sum(np.abs(alpha))),
                wall_seconds=wall,
            )
        )
    return records


def _run_trial(plan: ExperimentPlan, trial: int) -> list[TrialRecord]:
    """The records of every grid point of one trial, in grid order; the
    cells differ only in sigma and tau, so they share one matrix."""
    return [rec for gi in range(len(plan.grid())) for rec in _run_cell(plan, gi, trial)]


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _map_in_workers(fn, tasks: list, workers: int) -> list:
    """`[fn(t) for t in tasks]` on `workers` spawned processes, with BLAS
    pinned to one thread in the caller's environment while the pool lives.
    Spawned workers load numpy anew and read the pins, where forked ones
    would inherit the caller's multithreaded BLAS.  They import the caller's
    main module again, so a script must guard its top-level work with
    ``if __name__ == "__main__":``.
    """
    saved = {name: os.environ.get(name) for name in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            return list(pool.map(fn, tasks, chunksize=1))
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def summarize_records(records: list[TrialRecord]) -> list[tuple]:
    """Median-aggregate records per (experiment, sigma, tau_mult, solver)
    grid cell, in sorted key order."""
    groups: dict[tuple, list[TrialRecord]] = {}
    for rec in records:
        key = (rec.experiment, rec.sigma, rec.tau_mult, rec.solver)
        groups.setdefault(key, []).append(rec)
    out = []
    for key in sorted(groups):
        grp = groups[key]
        out.append(
            key
            + (
                len(grp),
                float(np.median([r.rel_error for r in grp])),
                float(np.median([r.abs_error for r in grp])),
                float(np.median([r.residual for r in grp])),
                float(np.median([r.iterations for r in grp])),
            )
        )
    return out


def run_experiment(plan: ExperimentPlan) -> dict:
    """Run a plan; write the records CSV, the median summary CSV, the
    ``.meta`` provenance file and the timing sidecar, and return a dict of
    the output paths and the summary rows.  With ``plan.workers > 1`` the
    trials run in spawned processes (`_map_in_workers`).
    """
    run_trial = partial(_run_trial, plan)
    trials = list(range(plan.trials))
    if plan.workers > 1:
        chunks = _map_in_workers(run_trial, trials, plan.workers)
    else:
        chunks = [run_trial(t) for t in trials]
    # each trial's records are in (grid point, solver) order already
    records = [rec for chunk in chunks for rec in chunk]

    records_path = plan.out
    timing_path = plan.out + ".timing.csv"
    summary_path = plan.out + ".summary.csv"
    meta_path = plan.out + ".meta"

    summary = summarize_records(records)
    timing = ("experiment", "trial", "solver", "sigma", "tau_mult", "wall_seconds")
    timing_rows = [format_value([getattr(rec, c) for c in timing]) for rec in records]
    for path, header, rows in (
        (records_path, RECORD_HEADER, [rec.csv_row() for rec in records]),
        (timing_path, ",".join(timing), timing_rows),
        (summary_path, SUMMARY_HEADER, [format_value(list(row)) for row in summary]),
    ):
        with open(path, "w") as fh:
            fh.writelines(line + "\n" for line in (header, *rows))

    write_plan(meta_path, replace(plan, game_rounds=plan.rounds))

    return {
        "records": records_path,
        "summary": summary_path,
        "meta": meta_path,
        "timing": timing_path,
        "summary_rows": summary,
        "record_count": len(records),
        "trial_records": records,
    }


# ---------------------------------------------------------------------------
# plan files: flat key=value text
# ---------------------------------------------------------------------------

def write_plan(path, plan: ExperimentPlan) -> None:
    """Write a plan as flat key=value lines that `read_plan` reads back,
    after comments naming the package, numpy and Python versions."""
    write_fields(
        path,
        plan,
        (
            f"package_version={__version__}",
            f"numpy_version={np.__version__}",
            f"python_version={sys.version.split()[0]}",
        ),
    )


def read_plan(path) -> ExperimentPlan:
    """Parse a plan written by `write_plan` (see `synth.read_fields`)."""
    return read_fields(path, ExperimentPlan)


# ---------------------------------------------------------------------------
# single-problem solving and isometry reports
# ---------------------------------------------------------------------------

def solve_file(
    matrix_path: str,
    observation_path: str,
    solver: str,
    out_path: str,
    k: int,
    tau: float = np.inf,
    rounds: int | None = None,
) -> dict:
    """Run a named solver on a problem stored on disk and write the
    recovered vector in the binary vector format.

    Returns a summary dict (residual, sparsity, l1 norm, iterations).
    """
    check_budget("tau", tau, positive=True)
    phi = load_matrix_auto(matrix_path)
    f = read_vector(observation_path)
    if solver in ("clash", "lasso-pg", "game-l2", "game-linf") and not np.isfinite(tau):
        raise ValueError(f"solver {solver!r} needs a finite --tau")
    res = _solve(solver, phi, f, k, tau, rounds if rounds is not None else 4 * k)
    write_vector(out_path, res.alpha)
    return {
        "solver": solver,
        "out": out_path,
        "residual_l2": lp_norm(phi @ res.alpha - f, 2),
        "residual_native": res.residual_q,
        "nonzeros": int(np.count_nonzero(res.alpha)),
        "l1_norm": float(np.sum(np.abs(res.alpha))),
        "iterations": res.iterations,
        "termination": res.termination,
    }


def rip_report(
    phi: np.ndarray, s_values: list[int], q: float, trials: int, seed: int
) -> str:
    """Empirical isometry-deviation table for a matrix.

    One line per sparsity level s with the probed deviation; levels whose
    probe already exceeds the contraction/recovery reference thresholds
    are flagged.  Every figure is an empirical lower bound only.
    """
    lines = [
        f"empirical isometry probe: q={q}, trials={trials}, seed={seed}",
        f"matrix: {phi.shape[0]} x {phi.shape[1]}",
        "s, epsilon_hat (empirical lower bound only), flags",
    ]
    for s in s_values:
        eps = rip_probe(phi, s, q, trials, seed)
        flags = []
        if eps > DELTA_CONTRACTIVE:
            flags.append(f"above contraction reference {DELTA_CONTRACTIVE}")
        if eps > DELTA_EXACT_RECOVERY:
            flags.append(f"above exact-recovery reference {DELTA_EXACT_RECOVERY}")
        note = "; ".join(flags) if flags else "below both reference thresholds"
        lines.append(f"{s}, {eps:.17g}, {note} (empirical lower bound only)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _add_bench_parser(sub) -> None:
    # each flag's dest names the plan field it sets, parsed as in plan files
    p = sub.add_parser("bench", help="run a Monte Carlo experiment")
    p.add_argument("--experiment", choices=EXPERIMENTS, default=None)
    p.add_argument("--plan", help="flat key=value plan file")
    p.add_argument("--seed")
    p.add_argument("--trials")
    p.add_argument("--out")
    p.add_argument("--solver", dest="solvers", help="comma-separated solver names")
    p.add_argument("--sigma-grid", help="comma-separated noise levels")
    p.add_argument("--tau-grid", help="comma-separated multiples of ||alpha*||_1")
    p.add_argument("--n")
    p.add_argument("--m")
    p.add_argument("--k")
    p.add_argument("--matrix-scaling", help=f"{UNIT_VARIANCE} or {INV_SQRT_M}")
    p.add_argument("--noise-mode", help="std or fixed-norm")
    p.add_argument("--workers")
    p.add_argument("--game-rounds")


def _cmd_bench(args) -> int:
    if args.plan:
        plan = read_plan(args.plan)
        if args.experiment is not None and args.experiment != plan.experiment:
            raise ValueError(
                f"--experiment {args.experiment!r} conflicts with plan file "
                f"experiment {plan.experiment!r}"
            )
    else:
        plan = preset_plan(args.experiment or "custom")
    overrides = {
        f_.name: parse_field(ExperimentPlan, f_.name, getattr(args, f_.name))
        for f_ in fields(ExperimentPlan)
        if getattr(args, f_.name) is not None
    }
    outcome = run_experiment(replace(plan, **overrides))
    print(f"wrote {outcome['record_count']} records to {outcome['records']}")
    print(f"summary: {outcome['summary']}  meta: {outcome['meta']}")
    return 0


def _cmd_solve(args) -> int:
    summary = solve_file(
        args.matrix,
        args.observation,
        args.solver,
        args.out,
        k=args.k,
        tau=args.tau,
        rounds=args.rounds,
    )
    print(f"solver={summary['solver']} wrote {summary['out']}")
    print(
        f"residual_l2={summary['residual_l2']:.6g} "
        f"residual_native={summary['residual_native']:.6g}"
    )
    print(
        f"nonzeros={summary['nonzeros']} l1_norm={summary['l1_norm']:.6g} "
        f"iterations={summary['iterations']} ({summary['termination']})"
    )
    return 0


def _cmd_rip(args) -> int:
    phi = load_matrix_auto(args.matrix)
    s_values = [int(v) for v in args.s.split(",")]
    report = rip_report(phi, s_values, args.q, args.trials, args.seed)
    print(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="l0l1",
        description="sparse recovery under joint sparsity and l1-norm budgets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve a problem stored on disk")
    ps.add_argument("--matrix", required=True, help="binary SPD1 or CSV matrix file")
    ps.add_argument("--observation", required=True, help="binary vector file")
    ps.add_argument("--solver", required=True)
    ps.add_argument("--out", required=True, help="output path for the recovered vector")
    ps.add_argument("--k", type=int, required=True)
    ps.add_argument("--tau", type=float, default=np.inf)
    ps.add_argument("--rounds", type=int, default=None, help="game round count")

    _add_bench_parser(sub)

    pr = sub.add_parser("rip", help="empirical isometry probe of a matrix file")
    pr.add_argument("--matrix", required=True)
    pr.add_argument("--s", required=True, help="comma-separated sparsity levels")
    pr.add_argument("--q", type=float, default=2)
    pr.add_argument("--trials", type=int, default=1000)
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    handlers = {"solve": _cmd_solve, "bench": _cmd_bench, "rip": _cmd_rip}
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
