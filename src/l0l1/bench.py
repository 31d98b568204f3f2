"""Monte Carlo benchmark harness and command-line interface.

Three preset experiments reproduce the reference studies at desk scale
(hours shrunk to minutes by cutting trial counts, never dimensions):

* ``dantzig-noise``   - Dantzig-form game solver vs. projected-gradient
  Lasso and subspace pursuit over a log-spaced noise grid
  (N=1000, M=200, k=20).
* ``noise-resilience`` - joint-constraint pursuit vs. Lasso and subspace
  pursuit over a wide noise grid (N=1000, M=305, k=115).
* ``tau-sweep``       - recovery error as the l1 budget sweeps multiples
  of ||alpha*||_1 (N=500, M=160, fixed-norm noise).

Determinism: each trial draws its instance from a seed derived from the
master seed and the trial index alone, so every grid point sees the same
instances (common random numbers) and reruns are bit-identical.  Trials
may fan out to worker processes; records are merged in (trial, grid
point, solver) order before writing, so the CSV bytes are independent of
the worker count.  Wall-clock timings are inherently non-deterministic
and therefore go to a ``.timing.csv`` sidecar, never the main CSV.

Floats are written with 17 significant digits for lossless round-trips.
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import __version__
from .game import GameConfig, dantzig_game_solve, game_solve
from .numerics import load_matrix_auto, lp_norm, read_vector, write_vector
from .pursuit import PursuitConfig, clash_solve, iht_solve, lasso_pg_solve, sp_solve
from .synth import (
    INV_SQRT_M,
    UNIT_VARIANCE,
    GeneratedProblem,
    ProblemSpec,
    derive_seed,
    generate,
    rip_probe,
)

EXPERIMENTS = ("dantzig-noise", "noise-resilience", "tau-sweep", "custom")
SOLVERS = ("sp", "clash", "lasso-pg", "iht", "game-l2", "game-linf")

# reference thresholds quoted in recovery analyses of pursuit iterations;
# an empirical probe can only lower-bound the true constant, so reports
# flag these as annotations, never certificates
DELTA_CONTRACTIVE = 0.3658
DELTA_EXACT_RECOVERY = 0.38427

RECORD_HEADER = (
    "experiment,trial,seed,solver,sigma,tau_mult,tau,k,"
    "rel_error,abs_error,residual,iterations,nonzeros,l1_norm"
)
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
        vals = (
            self.experiment,
            self.trial,
            self.seed,
            self.solver,
            self.sigma,
            self.tau_mult,
            self.tau,
            self.k,
            self.rel_error,
            self.abs_error,
            self.residual,
            self.iterations,
            self.nonzeros,
            self.l1_norm,
        )
        return ",".join(_fmt(v) for v in vals)


@dataclass
class ExperimentPlan:
    """A fully resolved sweep description.

    `sigma_grid` holds noise levels (standard deviations, or exact noise
    2-norms when `noise_mode` is "fixed-norm"); `tau_grid` holds l1
    budgets as multiples of each instance's ||alpha*||_1.  The grid is
    the cross product of the two.
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
        if not self.sigma_grid or not self.tau_grid:
            raise ValueError("grids must be nonempty")
        if self.trials < 1:
            raise ValueError("trial count must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        unknown = [s for s in self.solvers if s not in SOLVERS]
        if unknown:
            raise ValueError(f"unknown solvers {unknown}; choose from {SOLVERS}")

    @property
    def rounds(self) -> int:
        # game solvers default to 4k rounds: comfortably past the sparsity
        # budget while the additive 1/sqrt(T) term keeps shrinking
        return self.game_rounds if self.game_rounds is not None else 4 * self.k

    def grid(self) -> list[tuple[float, float]]:
        return [(s, t) for s in self.sigma_grid for t in self.tau_grid]


def preset_plan(experiment: str, **overrides) -> ExperimentPlan:
    """The desk-scale defaults for a named experiment, with overrides."""
    if experiment == "dantzig-noise":
        base = ExperimentPlan(
            experiment=experiment,
            n=1000,
            m=200,
            k=20,
            sigma_grid=[float(s) for s in np.logspace(-3.5, -0.5, 7)],
            tau_grid=[1.0],
            trials=50,
            solvers=["game-linf", "lasso-pg", "sp"],
        )
    elif experiment == "noise-resilience":
        base = ExperimentPlan(
            experiment=experiment,
            n=1000,
            m=305,
            k=115,
            sigma_grid=[float(s) for s in np.logspace(-5, -1, 5)],
            tau_grid=[1.0],
            trials=50,
            solvers=["clash", "lasso-pg", "sp"],
        )
    elif experiment == "tau-sweep":
        base = ExperimentPlan(
            experiment=experiment,
            n=500,
            m=160,
            k=57,
            sigma_grid=[0.05],
            tau_grid=[0.2, 0.5, 1.0, 2.0, 5.0],
            trials=50,
            solvers=["clash", "sp"],
            noise_mode="fixed-norm",
        )
    elif experiment == "custom":
        base = ExperimentPlan()
    else:
        raise ValueError(f"unknown experiment {experiment!r}")
    return replace(base, **overrides) if overrides else base


def run_solver(
    name: str, problem: GeneratedProblem, tau: float, rounds: int
) -> tuple[np.ndarray, float, int]:
    """Run one named solver on a generated problem.

    Returns (alpha, residual, iterations) where the residual is in the
    solver's native norm: the data-domain 2-norm for sp/clash/lasso-pg/
    iht/game-l2, and the correlated-residual inf-norm for game-linf.
    """
    phi, f, k = problem.phi, problem.f, problem.spec.k
    if name == "sp":
        res, _ = sp_solve(phi, f, PursuitConfig(sparsity=k))
    elif name == "clash":
        res, _ = clash_solve(phi, f, PursuitConfig(sparsity=k, tau=tau))
    elif name == "lasso-pg":
        res = lasso_pg_solve(phi, f, tau)
    elif name == "iht":
        res = iht_solve(phi, f, k)
    elif name == "game-l2":
        res, _ = game_solve(phi, f, GameConfig(rounds=rounds, q=2, tau=tau))
    elif name == "game-linf":
        res, _ = dantzig_game_solve(
            phi, f, GameConfig(rounds=rounds, q=np.inf, tau=tau)
        )
    else:
        raise ValueError(f"unknown solver {name!r}")
    return res.alpha, res.residual_q, res.iterations


def _run_cell(plan: ExperimentPlan, grid_index: int, trial: int) -> list[TrialRecord]:
    """All solver records for one (grid point, trial) cell."""
    sigma, tau_mult = plan.grid()[grid_index]
    seed = derive_seed(plan.seed, trial)
    spec = ProblemSpec(
        n=plan.n,
        m=plan.m,
        k=plan.k,
        sigma=sigma,
        seed=seed,
        matrix_scaling=plan.matrix_scaling,
        noise_mode=plan.noise_mode,
    )
    problem = generate(spec)
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


def _cell_worker(args) -> list[TrialRecord]:
    return _run_cell(*args)


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _map_in_workers(fn, tasks: list, workers: int) -> list:
    """`[fn(t) for t in tasks]` on `workers` fresh processes, each with its
    BLAS pinned to one thread.

    Workers are spawned, not forked, so they load numpy anew and read the
    pins from their environment; forked workers would inherit the caller's
    multithreaded BLAS and oversubscribe the cores.  A spawned worker
    imports the caller's main module again, so scripts must guard their
    top-level work with ``if __name__ == "__main__":``.  The caller's
    environment is pinned only while the pool lives and restored after.
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


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def summarize_records(records: list[TrialRecord]) -> list[tuple]:
    """Median-aggregate records per (experiment, sigma, tau_mult, solver)
    grid cell, preserving first-appearance order."""
    groups: dict[tuple, list[TrialRecord]] = {}
    order: list[tuple] = []
    for rec in records:
        key = (rec.experiment, rec.sigma, rec.tau_mult, rec.solver)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(rec)
    out = []
    for key in sorted(order):
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
    ``.meta`` provenance file, and the timing sidecar.

    Returns a dict with the output paths and the summary rows.

    With ``plan.workers > 1`` the cells run in spawned processes, which
    import the caller's main module again; a script that calls this at
    top level must do so under ``if __name__ == "__main__":``.
    """
    grid = plan.grid()
    tasks = [(plan, gi, t) for gi in range(len(grid)) for t in range(plan.trials)]
    if plan.workers > 1:
        chunks = _map_in_workers(_cell_worker, tasks, plan.workers)
    else:
        chunks = [_run_cell(*t) for t in tasks]

    solver_order = {name: i for i, name in enumerate(plan.solvers)}
    by_key: dict[tuple, TrialRecord] = {}
    for (_, gi, trial), chunk in zip(tasks, chunks):
        for rec in chunk:
            by_key[(trial, gi, solver_order[rec.solver])] = rec
    records = [by_key[key] for key in sorted(by_key)]

    records_path = plan.out
    timing_path = plan.out + ".timing.csv"
    summary_path = plan.out + ".summary.csv"
    meta_path = plan.out + ".meta"

    with open(records_path, "w") as fh:
        fh.write(RECORD_HEADER + "\n")
        for rec in records:
            fh.write(rec.csv_row() + "\n")

    with open(timing_path, "w") as fh:
        fh.write("experiment,trial,solver,sigma,tau_mult,wall_seconds\n")
        for rec in records:
            vals = (rec.experiment, rec.trial, rec.solver, rec.sigma, rec.tau_mult,
                    rec.wall_seconds)
            fh.write(",".join(_fmt(v) for v in vals) + "\n")

    summary = summarize_records(records)
    with open(summary_path, "w") as fh:
        fh.write(SUMMARY_HEADER + "\n")
        for row in summary:
            fh.write(",".join(_fmt(v) for v in row) + "\n")

    with open(meta_path, "w") as fh:
        fh.write(f"package_version={__version__}\n")
        fh.write(f"numpy_version={np.__version__}\n")
        fh.write(f"python_version={sys.version.split()[0]}\n")
        for item in (
            f"experiment={plan.experiment}",
            f"n={plan.n}",
            f"m={plan.m}",
            f"k={plan.k}",
            "sigma_grid=" + ",".join(_fmt(float(s)) for s in plan.sigma_grid),
            "tau_grid=" + ",".join(_fmt(float(t)) for t in plan.tau_grid),
            f"trials={plan.trials}",
            "solvers=" + ",".join(plan.solvers),
            f"seed={plan.seed}",
            f"matrix_scaling={plan.matrix_scaling}",
            f"noise_mode={plan.noise_mode}",
            f"game_rounds={plan.rounds}",
            f"workers={plan.workers}",
        ):
            fh.write(item + "\n")

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

_LIST_FIELDS = {"sigma_grid", "tau_grid", "solvers"}
_INT_FIELDS = {"n", "m", "k", "trials", "seed", "workers", "game_rounds"}


def write_plan(path, plan: ExperimentPlan) -> None:
    with open(path, "w") as fh:
        for f_ in fields(plan):
            value = getattr(plan, f_.name)
            if value is None:
                continue
            if f_.name in _LIST_FIELDS:
                value = ",".join(_fmt(v) if isinstance(v, float) else str(v) for v in value)
            fh.write(f"{f_.name}={value}\n")


def read_plan(path) -> ExperimentPlan:
    kv: dict[str, str] = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"bad plan line (no '='): {line!r}")
            kv[key.strip()] = value.strip()
    kwargs = {}
    valid = {f_.name for f_ in fields(ExperimentPlan)}
    for key, value in kv.items():
        if key not in valid:
            raise ValueError(f"unknown plan key {key!r}")
        if key in ("sigma_grid", "tau_grid"):
            kwargs[key] = [float(v) for v in value.split(",") if v]
        elif key == "solvers":
            kwargs[key] = [v for v in value.split(",") if v]
        elif key in _INT_FIELDS:
            kwargs[key] = int(value)
        else:
            kwargs[key] = value
    return ExperimentPlan(**kwargs)


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
    phi = load_matrix_auto(matrix_path)
    f = read_vector(observation_path)
    if f.size != phi.shape[0]:
        raise ValueError(
            f"dimension mismatch: matrix is {phi.shape}, observation has length {f.size}"
        )
    if solver in ("clash", "lasso-pg", "game-l2", "game-linf") and not np.isfinite(tau):
        raise ValueError(f"solver {solver!r} needs a finite --tau")
    rounds = rounds if rounds is not None else 4 * k
    if solver == "sp":
        res, _ = sp_solve(phi, f, PursuitConfig(sparsity=k))
    elif solver == "clash":
        res, _ = clash_solve(phi, f, PursuitConfig(sparsity=k, tau=tau))
    elif solver == "lasso-pg":
        res = lasso_pg_solve(phi, f, tau)
    elif solver == "iht":
        res = iht_solve(phi, f, k)
    elif solver == "game-l2":
        res, _ = game_solve(phi, f, GameConfig(rounds=rounds, q=2, tau=tau))
    elif solver == "game-linf":
        res, _ = dantzig_game_solve(phi, f, GameConfig(rounds=rounds, q=np.inf, tau=tau))
    else:
        raise ValueError(f"unknown solver {solver!r}; choose from {SOLVERS}")
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
    p = sub.add_parser("bench", help="run a Monte Carlo experiment")
    p.add_argument("--experiment", choices=EXPERIMENTS, default=None)
    p.add_argument("--plan", help="flat key=value plan file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--solver", default=None, help="comma-separated solver names")
    p.add_argument("--sigma-grid", default=None, help="comma-separated noise levels")
    p.add_argument("--tau-grid", default=None,
                   help="comma-separated multiples of ||alpha*||_1")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--matrix-scaling", choices=(UNIT_VARIANCE, INV_SQRT_M), default=None)
    p.add_argument("--noise-mode", choices=("std", "fixed-norm"), default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--game-rounds", type=int, default=None)


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
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.out is not None:
        overrides["out"] = args.out
    if args.solver is not None:
        overrides["solvers"] = args.solver.split(",")
    if args.sigma_grid is not None:
        overrides["sigma_grid"] = [float(v) for v in args.sigma_grid.split(",")]
    if args.tau_grid is not None:
        overrides["tau_grid"] = [float(v) for v in args.tau_grid.split(",")]
    for name in ("n", "m", "k", "workers"):
        value = getattr(args, name)
        if value is not None:
            overrides[name] = value
    if args.matrix_scaling is not None:
        overrides["matrix_scaling"] = args.matrix_scaling
    if args.noise_mode is not None:
        overrides["noise_mode"] = args.noise_mode
    if args.game_rounds is not None:
        overrides["game_rounds"] = args.game_rounds
    plan = replace(plan, **overrides)
    outcome = run_experiment(plan)
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
