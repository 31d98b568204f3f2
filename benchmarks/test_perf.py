"""Self-tests of the benchmark: instance replay, tracing, output checks.

    PYTHONPATH=src python3 -m pytest benchmarks -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import perf  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from l0l1 import bench, pursuit  # noqa: E402
from l0l1.pursuit import PursuitConfig  # noqa: E402
from l0l1.synth import ProblemSpec, generate  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_instances_replay_the_bench_cells(name, monkeypatch):
    wl = workloads.WORKLOADS[name]
    seed, trial = 7, 1
    jobs = [j for j in workloads.build(replace(wl, trials=trial + 1), seed) if j.trial == trial]
    plan = bench.preset_plan(wl.preset, seed=seed, solvers=["sp"])
    captured = []
    real_generate = bench.generate
    monkeypatch.setattr(bench, "generate", lambda spec: captured.append(real_generate(spec)) or captured[-1])
    for job in jobs:
        # index() also proves that the workload's sigma and tau are preset grid points
        bench._run_cell(plan, plan.grid().index((job.sigma, job.tau_mult)), trial)
        cell = captured[-1]
        assert cell.phi.tobytes() == job.problem.phi.tobytes()
        assert cell.f.tobytes() == job.problem.f.tobytes()


def _small_clash_case():
    p = generate(ProblemSpec(n=120, m=48, k=6, sigma=0.01, seed=3))
    return p, PursuitConfig(sparsity=6, tau=0.9 * p.tau_star)


def test_tracing_catches_imported_names_and_changes_no_output():
    p, cfg = _small_clash_case()
    plain = pursuit.clash_solve(p.phi, p.f, cfg)[0].alpha
    with spans.traced() as trace:
        traced = pursuit.clash_solve(p.phi, p.f, cfg)[0].alpha
    assert traced.tobytes() == plain.tobytes()

    stats = trace.stats()
    assert stats["pursuit.clash_solve.calls"] == 1
    # pursuit calls l1_project through its own imported name
    assert stats["projections.l1_project.calls"] > 0
    children = trace.child_seconds("pursuit.clash_solve")
    assert "projections.l1_project" in children
    assert stats["pursuit.clash_solve.self_s"] == pytest.approx(
        stats["pursuit.clash_solve.s"] - sum(children.values()))
    assert stats["pursuit.clash_solve.iterations"] >= 1
    assert stats["game.game_solve.calls"] == 0


def test_tracing_restores_the_originals():
    before = {mod: dict(vars(mod)) for mod in spans._package_modules()}
    with pytest.raises(RuntimeError):
        with spans.traced():
            assert pursuit.l1_project is not before[pursuit]["l1_project"]
            raise RuntimeError("leave the block early")
    for mod, attrs in before.items():
        for attr, value in attrs.items():
            assert vars(mod)[attr] is value, f"{mod.__name__}.{attr} not restored"


def test_check_flags_each_broken_guarantee():
    p, _ = _small_clash_case()
    job = workloads.Job(trial=0, sigma=0.01, tau_mult=0.9, solver="clash", problem=p)
    rounds = 4 * p.spec.k
    good = np.zeros(p.spec.n)
    good[:3] = job.tau / 3
    assert workloads.check(job, good, rounds) is None
    too_dense = np.full(p.spec.n, job.tau / (2 * p.spec.n))
    assert "||alpha||_0" in workloads.check(job, too_dense, rounds)
    too_long = good * 1.001
    assert "||alpha||_1" in workloads.check(job, too_long, rounds)
    assert workloads.check(job, np.full(p.spec.n, np.nan), rounds) == "non-finite alpha"
    # lasso-pg promises no sparsity, sp no l1 bound
    assert workloads.check(replace(job, solver="lasso-pg"), too_dense, rounds) is None
    assert workloads.check(replace(job, solver="sp"), too_long, rounds) is None


def test_verify_counts_raised_broken_and_unrepeatable_solves():
    p, _ = _small_clash_case()
    wl = workloads.WORKLOADS["clash-tau"]
    jobs = [workloads.Job(t, 0.01, 1.0, "clash", p) for t in range(3)]
    ok = np.zeros(p.spec.n)
    shifted = ok.copy()
    shifted[0] = 1e-300
    alphas = [[ok, ok, None], [ok, shifted, None]]
    raised = {(0, 2): "raised ValueError: x", (1, 2): "raised ValueError: x"}
    attempted, failed, failures = perf.verify(wl, jobs, alphas, raised, workloads.check)
    assert (attempted, failed) == (6, 3)
    reasons = {(f["trial"], f["reason"]) for f in failures}
    assert (1, "alpha differs from the same solve in another pass") in reasons
    assert (2, "raised ValueError: x") in reasons


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "perf.py"), "--workload", "game-dantzig",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
