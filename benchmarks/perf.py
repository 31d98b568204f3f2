"""Closed-loop solver benchmark for l0l1.

    python3 benchmarks/perf.py --workload clash-tau --seed 1 --seconds 30 --trace 0

One process solves one instance at a time, single-threaded BLAS, on the
workload's fixed instance set (see `workloads.py`).  A run makes whole
passes over the set: at least one, and another while it is expected to
end within ``--seconds``.  Every output is checked against its solver's
guarantee and against the same solve in the first pass, bit for bit.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see `spans.py`) and the tracing overhead.  The
run prints each metric with its unit, writes a JSON record with the
machine's provenance to ``benchmarks/out/``, and prints as its last line
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

import os

# pinned before numpy loads its BLAS: one solve at a time on one core
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

# set-up time counts from here, before numpy and l0l1 are imported
START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# set-up is measured this many times per run (this process plus fresh
# subprocesses) and reported as the median
SETUP_REPEATS = 5


@dataclass
class Side:
    walls: list
    seconds: list
    alphas: list
    errors: dict


def _load_package():
    """Import l0l1 from this checkout's sources, never from elsewhere."""
    if not (SRC / "l0l1" / "__init__.py").is_file():
        raise SystemExit(f"error: no l0l1 sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import l0l1

    if Path(l0l1.__file__).resolve().parent != SRC / "l0l1":
        raise SystemExit(f"error: imported l0l1 from {l0l1.__file__}, not {SRC}")


def run_passes(jobs, rounds, budget, sides):
    """Solve every job once per pass with each function in `sides`, the
    sides taking turns at going first, so that slow drift of the machine
    falls on all of them alike.  At least one pass, and another while it is
    expected to end within `budget` seconds of the first one's start.

    Returns per side a `Side`: each pass's seconds (the sum over its
    solves), each solve's seconds and alpha (None where it raised), and
    the error of each solve that raised, by (pass, job)."""
    out = [Side([], [], [], {}) for _ in sides]
    begin = time.perf_counter()
    pass_walls = []
    while True:
        t_pass = time.perf_counter()
        for side in out:
            side.seconds.append([0.0] * len(jobs))
            side.alphas.append([None] * len(jobs))
        for i, job in enumerate(jobs):
            for k in range(len(sides)):
                s = (i + k) % len(sides)
                t = time.perf_counter()
                try:
                    alpha = sides[s](job, rounds)
                except Exception as exc:  # a failed solve is counted, not fatal
                    alpha = None
                    out[s].errors[len(out[s].walls), i] = f"raised {type(exc).__name__}: {exc}"
                out[s].seconds[-1][i] = time.perf_counter() - t
                out[s].alphas[-1][i] = alpha
        for side in out:
            side.walls.append(sum(side.seconds[-1]))
        pass_walls.append(time.perf_counter() - t_pass)
        if time.perf_counter() - begin + statistics.median(pass_walls) > budget:
            return out


def verify(wl, jobs, alphas, errors, check, reference=None):
    """Check every output; return (attempted, failed solves, failure list).

    A solve fails if it raised, broke its solver's guarantee, or differs in
    any bit from the same job's output in the first pass (or in `reference`,
    the untraced outputs, for traced passes)."""
    reference = alphas[0] if reference is None else reference
    failed, listed = 0, {}
    for p, pass_alphas in enumerate(alphas):
        for i, (job, alpha) in enumerate(zip(jobs, pass_alphas)):
            why = errors.get((p, i)) or check(job, alpha, wl.rounds)
            if why is None and reference[i] is not None and alpha.tobytes() != reference[i].tobytes():
                why = "alpha differs from the same solve in another pass"
            if why is not None:
                failed += 1
                key = (wl.name, job.trial, job.sigma, job.tau_mult, job.solver, why)
                listed[key] = listed.get(key, 0) + 1
    failures = [
        {"workload": w, "trial": t, "sigma": s, "tau_mult": m, "solver": v,
         "reason": why, "times": n}
        for (w, t, s, m, v, why), n in listed.items()
    ]
    return len(jobs) * len(alphas), failed, failures


def solver_metrics(wl, jobs, seconds, alphas, rel_error):
    """<solver>.s_per_solve (mean over all passes) and <solver>.rel_err_p50."""
    out = {}
    for solver in wl.solvers:
        idx = [i for i, job in enumerate(jobs) if job.solver == solver]
        total = sum(secs[i] for secs in seconds for i in idx)
        errs = [rel_error(jobs[i], alphas[0][i]) for i in idx if alphas[0][i] is not None]
        out[f"{solver}.s_per_solve"] = (total / (len(idx) * len(seconds)), "s")
        out[f"{solver}.rel_err_p50"] = (statistics.median(errs) if errs else float("nan"), "1")
    return out


def measure_setup(workload, seed):
    """Seconds from a fresh process's start to its generated instances."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def provenance():
    """Where and on what the numbers were measured."""
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            git_sha = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def measure(args, wl, jobs, setup, wk):
    """Untraced run: end-to-end metrics, plus the per-solver breakdown."""
    setup += [measure_setup(wl.name, args.seed) for _ in range(SETUP_REPEATS - 1)]
    (plain,) = run_passes(jobs, wl.rounds, args.seconds, [wk.solve])
    attempted, failed, failures = verify(wl, jobs, plain.alphas, plain.errors, wk.check)
    metrics = {"setup_s": (statistics.median(setup), "s"),
               "sweep_s": (statistics.median(plain.walls), "s")}
    breakdown = solver_metrics(wl, jobs, plain.seconds, plain.alphas, wk.rel_error)
    breakdown["failed_share"] = (failed / attempted, "1")
    detail = {"jobs_per_pass": len(jobs), "setup_samples_s": setup, "pass_walls_s": plain.walls}
    return metrics, breakdown, (attempted, failed, failures), detail


def measure_traced(args, wl, jobs, setup_trace, wk):
    """Traced run: per-layer metrics per pass, and the tracing overhead.

    Each job is solved untraced and traced in turn.  The run covers the
    first half of the trials, so that it takes about as long as an
    untraced run."""
    jobs = [job for job in jobs if job.trial < (wl.trials + 1) // 2]
    trace = spans.Trace()

    def traced_solve(job, rounds):
        with spans.traced(trace):
            return wk.solve(job, rounds)

    plain, traced = run_passes(jobs, wl.rounds, args.seconds, [wk.solve, traced_solve])
    a1, f1, fl1 = verify(wl, jobs, plain.alphas, plain.errors, wk.check)
    a2, f2, fl2 = verify(wl, jobs, traced.alphas, traced.errors, wk.check,
                         reference=plain.alphas[0])
    passes = len(traced.walls)
    layer = trace.stats(passes=passes)
    # generation happens once, in set-up, for all trials
    layer.update({k: v for k, v in setup_trace.stats().items() if k.startswith("synth.")})
    metrics = {name: (layer[name], unit) for name, unit in spans.metric_names()}
    metrics["trace.overhead"] = (sum(traced.walls) / sum(plain.walls), "ratio")

    children = {}
    for mod, fn, _, _ in spans.LAYERS:
        kids = trace.child_seconds(f"{mod}.{fn}")
        if kids:
            children[f"{mod}.{fn}"] = {k: v / passes for k, v in kids.items()}
    isolation = []
    for prefix in wl.absent:
        called = [k for k, v in layer.items() if k.startswith(prefix) and k.endswith(".calls") and v]
        isolation.append(f"no {prefix}* calls: " + (f"VIOLATED by {called}" if called else "ok"))
    if wl.largest_child:
        parent, child = wl.largest_child
        kids = children.get(parent, {})
        top = max(kids, key=kids.get) if kids else None
        isolation.append(f"largest child of {parent} is {child}: "
                         + ("ok" if top == child else f"VIOLATED, it is {top}"))

    OUT.mkdir(exist_ok=True)
    trace.save(OUT / f"{wl.name}.spans.npz")
    detail = {"jobs_per_pass": len(jobs), "pass_walls_s": plain.walls,
              "traced_pass_walls_s": traced.walls, "spans": len(trace),
              "child_s_per_pass": children, "isolation": isolation}
    return metrics, {}, (a1 + a2, f1 + f2, fl1 + fl2), detail


def run(args):
    import workloads as wk  # imports l0l1, so only after _load_package

    wl = wk.WORKLOADS.get(args.workload)
    if wl is None:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(wk.WORKLOADS)}")
    with spans.traced() if args.trace else contextlib.nullcontext() as setup_trace:
        jobs = wk.build(wl, args.seed)
    setup = [time.perf_counter() - START]
    if args.setup_only:
        print(json.dumps({"setup_s": setup[0]}))
        return 0

    if args.trace:
        metrics, breakdown, counts, detail = measure_traced(args, wl, jobs, setup_trace, wk)
    else:
        metrics, breakdown, counts, detail = measure(args, wl, jobs, setup, wk)
    attempted, failed, failures = counts
    shown = {**metrics, **breakdown}
    env = provenance()
    OUT.mkdir(exist_ok=True)
    (OUT / f"{wl.name}.trace{args.trace}.json").write_text(json.dumps({
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "attempted": attempted, "failed": failed,
        "failures": failures, "provenance": env, **detail,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }, indent=1) + "\n")

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(detail['pass_walls_s'])}")
    for name, (value, unit) in shown.items():
        print(f"  {name:<40} {value:>12.6g} {unit}")
    print(f"  failed_share {failed}/{attempted} solves")
    for item in failures:
        print(f"  FAILED {item}")
    for line in detail.get("isolation", []):
        print(f"  isolation: {line}")
    for parent, kids in detail.get("child_s_per_pass", {}).items():
        ranked = sorted(kids.items(), key=lambda kv: -kv[1])
        print(f"  children of {parent}: " + ", ".join(f"{k} {v:.3g} s" for k, v in ranked))
    print("  env " + json.dumps(env))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _load_package()
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
