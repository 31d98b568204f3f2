"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Criteria with stated wall-clock budgets assert them.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time
from dataclasses import fields
from itertools import combinations

import numpy as np
import pytest

from l0l1.bench import ExperimentPlan, preset_plan, run_experiment
from l0l1.bregman import (
    bregman_distance,
    bregman_project,
    euclidean_geometry,
    grad_map,
    lifted_entropy_geometry,
)
from l0l1.game import GameConfig, game_solve, holder_optimal_dual, loss
from l0l1.numerics import lp_norm
from l0l1.projections import ConstraintSet, l1_project, project_k_tau
from l0l1.pursuit import PursuitConfig, clash_solve, lasso_pg_solve, sp_solve
from l0l1.synth import ProblemSpec, derive_seed, generate, rip_probe

GAME_MASTER_SEED = 20250808
CLASH_MASTER_SEED = 777000
BENCH_SEED = 321
DANTZIG_SEED = 555


def report(criterion, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE criterion {criterion}: {status} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def game_battery():
    """Criteria 1, 2, and 12 share one battery: 20 seeded noiseless
    Gaussian instances (M=50, N=200, k=5), solved at T in {25, 100, 400}
    with tau = ||alpha*||_1.  Returns (instances, build_seconds)."""
    start = time.monotonic()
    battery = []
    for i in range(20):
        seed = derive_seed(GAME_MASTER_SEED, i)
        problem = generate(ProblemSpec(n=200, m=50, k=5, sigma=0.0, seed=seed))
        lasso = lasso_pg_solve(problem.phi, problem.f, problem.tau_star,
                               tol=1e-10, max_iter=20000)
        runs = {}
        for rounds in (25, 100, 400):
            res, cert = game_solve(
                problem.phi, problem.f,
                GameConfig(rounds=rounds, q=2, tau=problem.tau_star),
            )
            runs[rounds] = (res, cert)
        battery.append((problem, lasso, runs))
    return battery, time.monotonic() - start


def test_criterion_01_game_regret_inequality(game_battery):
    battery, build_seconds = game_battery
    start = time.monotonic()
    violations = []
    improved = 0
    for idx, (problem, lasso, runs) in enumerate(battery):
        gaps = {}
        for rounds, (res, cert) in runs.items():
            bound = lasso.residual_q + cert.regret_bound + 1e-6
            if res.residual_q > bound:
                violations.append((idx, rounds, res.residual_q, bound))
            gaps[rounds] = res.residual_q - lasso.residual_q
        if gaps[400] <= gaps[25]:
            improved += 1
    elapsed = build_seconds + (time.monotonic() - start)
    ok = not violations and improved >= 18 and elapsed < 60.0
    report(
        1,
        ok,
        f"regret inequality on 60/60 runs (violations={violations}), "
        f"gap(T=400) <= gap(T=25) in {improved}/20 instances, "
        f"solves + checks in {elapsed:.1f}s (< 60s budget)",
    )


def test_criterion_02_game_output_feasibility(game_battery):
    battery, _ = game_battery
    worst_l0, worst_l1_excess = 0, 0.0
    ok = True
    for problem, _, runs in battery:
        for rounds, (res, _) in runs.items():
            nnz = int(np.count_nonzero(res.alpha))
            l1 = float(np.sum(np.abs(res.alpha)))
            worst_l0 = max(worst_l0, nnz - rounds)
            worst_l1_excess = max(worst_l1_excess, l1 - problem.tau_star)
            if nnz > rounds or l1 > problem.tau_star:
                ok = False
    report(
        2,
        ok,
        f"every run exactly feasible: max(nnz - T) = {worst_l0}, "
        f"max(l1 - tau) = {worst_l1_excess:.3e} (must be <= 0)",
    )


def test_criterion_03_holder_tightness():
    rng = np.random.default_rng(derive_seed(GAME_MASTER_SEED, 3))
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(3, 12))
        n = int(rng.integers(3, 20))
        phi = rng.normal(size=(m, n))
        alpha = rng.normal(size=n) * rng.choice([0.1, 1.0, 10.0])
        f = rng.normal(size=m)
        for q in (2, np.inf):
            dual = holder_optimal_dual(alpha, phi, f, q)
            gap = abs(loss(dual, alpha, phi, f) - lp_norm(phi @ alpha - f, q))
            worst = max(worst, gap)
    report(3, worst <= 1e-9, f"max |loss(P*, a) - ||residual||_q| = {worst:.2e} <= 1e-9")


def test_criterion_04_bregman_property_suite():
    rng = np.random.default_rng(derive_seed(GAME_MASTER_SEED, 4))
    m = 4
    lifted_dim = 2 * m + 1
    euclid = euclidean_geometry(6)
    entropy = lifted_entropy_geometry(m)
    worst = {"P1": 0.0, "P3": 0.0, "P4": 0.0, "pyth": 0.0, "strong": 0.0}

    def simplex(dim):
        w = -np.log(rng.uniform(1e-12, 1.0, size=dim))
        return w / w.sum()

    for _ in range(1000):
        # squared Euclidean on the unit 2-ball
        p = rng.normal(size=6)
        p /= max(1.0, np.linalg.norm(p))
        q = rng.normal(size=6)
        q /= max(1.0, np.linalg.norm(q))
        t = rng.normal(size=6)
        t /= max(1.0, np.linalg.norm(t))
        pairs = [(euclid, p, q, t, 2)]
        # scale-2 entropy on the lifted simplex
        pw, qw, tw = simplex(lifted_dim), simplex(lifted_dim), simplex(lifted_dim)
        pairs.append((entropy, pw, qw, tw, 1))
        for g, pp, qq, tt, p_exp in pairs:
            d = bregman_distance(g, pp, qq)
            worst["P1"] = max(worst["P1"], -d, bregman_distance(g, pp, pp))
            three = (
                bregman_distance(g, pp, tt)
                + bregman_distance(g, tt, qq)
                + (pp - tt) @ (grad_map(g, tt) - grad_map(g, qq))
            )
            worst["P3"] = max(worst["P3"], abs(d - three))
            sym = bregman_distance(g, pp, qq) + bregman_distance(g, qq, pp)
            worst["P4"] = max(
                worst["P4"], abs(sym - (pp - qq) @ (grad_map(g, pp) - grad_map(g, qq)))
            )
            norm_sq = (
                np.sum((pp - qq) ** 2) if p_exp == 2 else np.abs(pp - qq).sum() ** 2
            )
            worst["strong"] = max(worst["strong"], norm_sq - d)
        # generalized Pythagorean inequality, both geometries
        q_out = rng.normal(size=6) * 3.0
        if np.linalg.norm(q_out) > 1.0:
            proj = bregman_project(euclid, q_out)
            worst["pyth"] = max(
                worst["pyth"],
                bregman_distance(euclid, p, proj) - bregman_distance(euclid, p, q_out),
            )
        qw_out = rng.uniform(0.05, 2.0, size=lifted_dim)
        proj_w = bregman_project(entropy, qw_out)
        worst["pyth"] = max(
            worst["pyth"],
            bregman_distance(entropy, pw, proj_w) - bregman_distance(entropy, pw, qw_out),
        )
    ok = all(v <= 1e-10 for v in worst.values())
    report(
        4,
        ok,
        "P1/P3/P4 + Pythagorean + strong convexity over 1000 samples per "
        + "geometry, worst slack "
        + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
        + " (all <= 1e-10)",
    )


def test_criterion_05_joint_projection_oracle():
    rng = np.random.default_rng(derive_seed(GAME_MASTER_SEED, 5))
    worst = 0.0
    cases = 0
    for n in range(1, 11):
        for k in range(1, n + 1):
            for _ in range(50):
                w = rng.normal(size=n) * rng.choice([0.3, 1.0, 3.0])
                tau = float(rng.uniform(0.0, 1.3 * np.abs(w).sum() + 0.1))
                mine = project_k_tau(w, ConstraintSet(k, tau))
                d_mine = float(np.sum((mine - w) ** 2))
                d_best = np.inf
                for support in combinations(range(n), k):
                    idx = list(support)
                    x = np.zeros(n)
                    x[idx] = l1_project(w[idx], tau)
                    d_best = min(d_best, float(np.sum((x - w) ** 2)))
                worst = max(worst, d_mine - d_best)
                cases += 1
    report(
        5,
        worst <= 1e-9,
        f"{cases} cases (all N <= 10, all k <= N, 50 each): "
        f"max squared-distance excess over exhaustive oracle = {worst:.2e} <= 1e-9",
    )


def test_criterion_06_clash_exact_recovery():
    start = time.monotonic()
    clash_hits = sp_hits = 0
    for i in range(50):
        seed = derive_seed(CLASH_MASTER_SEED, i)
        p = generate(ProblemSpec(n=500, m=160, k=62, sigma=0.0, seed=seed))
        clash_res, _ = clash_solve(
            p.phi, p.f, PursuitConfig(sparsity=62, tau=p.tau_star)
        )
        sp_res, _ = sp_solve(p.phi, p.f, PursuitConfig(sparsity=62))
        clash_hits += np.linalg.norm(clash_res.alpha - p.alpha_star) <= 1e-4
        sp_hits += np.linalg.norm(sp_res.alpha - p.alpha_star) <= 1e-4
    elapsed = time.monotonic() - start
    ok = clash_hits >= 45 and clash_hits >= sp_hits and elapsed < 300.0
    report(
        6,
        ok,
        f"CLASH {clash_hits}/50 recoveries (need >= 45), SP {sp_hits}/50 "
        f"(need CLASH >= SP), {elapsed:.0f}s (< 300s budget)",
    )


def test_criterion_07_tau_sweep_shape():
    plan = preset_plan(
        "tau-sweep", trials=50, seed=BENCH_SEED, out="/tmp/acceptance_c7.csv",
        workers=2,
    )
    out = run_experiment(plan)
    medians = {
        row[2]: row[5] for row in out["summary_rows"] if row[3] == "clash"
    }
    at_one = medians[1.0]
    ok = (
        min(medians, key=medians.get) == 1.0
        and medians[0.2] > at_one
        and medians[5.0] > at_one
    )
    report(
        7,
        ok,
        "median CLASH error by tau multiple: "
        + ", ".join(f"{m}x: {medians[m]:.4f}" for m in sorted(medians))
        + " (minimum at 1.0x, strictly larger at 0.2x and 5x)",
    )


def test_criterion_08_noise_resilience_ordering():
    start = time.monotonic()
    plan = preset_plan(
        "noise-resilience", trials=20, seed=BENCH_SEED,
        out="/tmp/acceptance_c8.csv", workers=2,
    )
    out = run_experiment(plan)
    med = {}
    for row in out["summary_rows"]:
        med[(row[1], row[3])] = row[5]
    sigmas = sorted({s for s, _ in med})
    rows = []
    ok = True
    for s in sigmas:
        clash, sp, lasso = med[(s, "clash")], med[(s, "sp")], med[(s, "lasso-pg")]
        good = clash <= sp * 1.05 and clash <= lasso * 1.05
        ok = ok and good
        rows.append(f"sigma={s:.0e}: clash={clash:.4f} sp={sp:.4f} lasso={lasso:.4f}")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 600.0
    report(
        8,
        ok,
        "median CLASH <= median SP and <= median Lasso at every grid point "
        f"(5% ties allowed), {elapsed:.0f}s (< 600s budget); " + "; ".join(rows),
    )


def test_criterion_09_dantzig_noise_trend():
    plan = preset_plan(
        "dantzig-noise", trials=10, seed=DANTZIG_SEED,
        out="/tmp/acceptance_c9.csv", workers=2,
    )
    out = run_experiment(plan)
    med = {row[1]: row[5] for row in out["summary_rows"] if row[3] == "game-linf"}
    sigmas = sorted(med)
    medians = [med[s] for s in sigmas]
    inversions = [
        (i, (medians[i] - medians[i + 1]) / medians[i])
        for i in range(len(medians) - 1)
        if medians[i + 1] < medians[i]
    ]
    ok = len(inversions) <= 1 and all(mag <= 0.10 for _, mag in inversions)
    report(
        9,
        ok,
        "median game-linf relative error monotone non-decreasing over the "
        f"sigma grid: {['%.4f' % m for m in medians]}, "
        f"inversions={[(i, f'{mag:.2%}') for i, mag in inversions]} "
        "(at most one, within 10%)",
    )


def test_criterion_10_clash_sp_equivalence_at_infinite_tau():
    mismatched = []
    for i in range(10):
        seed = derive_seed(4242, i)
        p = generate(
            ProblemSpec(n=250, m=80, k=15, sigma=0.01 if i % 2 else 0.0, seed=seed)
        )
        sp_res, sp_trace = sp_solve(p.phi, p.f, PursuitConfig(sparsity=15))
        clash_res, clash_trace = clash_solve(
            p.phi, p.f, PursuitConfig(sparsity=15, tau=np.inf)
        )
        differ = [
            f_.name
            for a, b in ((sp_res, clash_res), (sp_trace, clash_trace))
            for f_ in fields(a)
            if _bits(getattr(a, f_.name)) != _bits(getattr(b, f_.name))
        ]
        if differ:
            mismatched.append((i, differ))
    report(
        10,
        not mismatched,
        f"10 instances, every result and trace field bit-identical; mismatched={mismatched}",
    )


def _bits(value):
    if isinstance(value, np.ndarray):
        return value.tobytes()
    if isinstance(value, list):
        return [_bits(v) for v in value]
    return value


def test_criterion_11_bench_determinism(tmp_path):
    def plan(out, workers):
        return ExperimentPlan(
            experiment="custom",
            n=120,
            m=60,
            k=8,
            sigma_grid=[0.0, 0.01],
            tau_grid=[1.0],
            trials=8,
            solvers=["clash", "sp", "lasso-pg", "game-l2"],
            seed=BENCH_SEED,
            out=str(tmp_path / out),
            workers=workers,
        )

    run_experiment(plan("a.csv", 1))
    run_experiment(plan("b.csv", 1))
    run_experiment(plan("c.csv", 8))
    a = (tmp_path / "a.csv").read_bytes()
    b = (tmp_path / "b.csv").read_bytes()
    c = (tmp_path / "c.csv").read_bytes()
    sum_a = (tmp_path / "a.csv.summary.csv").read_bytes()
    sum_c = (tmp_path / "c.csv.summary.csv").read_bytes()
    ok = a == b and a == c and sum_a == sum_c
    report(
        11,
        ok,
        f"records CSV byte-identical across reruns and 1 vs 8 workers "
        f"({len(a)} bytes), summaries identical too",
    )


def test_criterion_12_data_domain_bound(game_battery):
    battery, _ = game_battery
    checked, skipped = 0, 0
    violations = []
    for idx, (problem, _, runs) in enumerate(battery[:10]):
        for rounds, (res, cert) in runs.items():
            sparsity = min(problem.spec.k + rounds, problem.spec.n)
            eps = rip_probe(
                problem.phi, sparsity, 2, 200,
                seed=derive_seed(problem.spec.seed, rounds),
            )
            if eps >= 1.0:
                skipped += 1
                continue
            checked += 1
            bound = cert.regret_bound / (1.0 - eps)
            err = float(np.linalg.norm(res.alpha - problem.alpha_star))
            if err > bound:
                violations.append((idx, rounds, err, bound, eps))
    report(
        12,
        not violations,
        f"noiseless data-domain bound err <= (D*G/(2*sqrt(T)))/(1-eps_hat): "
        f"{checked} runs checked, {skipped} skipped (eps_hat >= 1), "
        f"violations={violations}",
    )
