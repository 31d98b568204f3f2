import os
import re
import struct
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from l0l1 import bench, synth
from l0l1.bench import (
    SOLVERS,
    ExperimentPlan,
    _map_in_workers,
    main,
    preset_plan,
    read_plan,
    rip_report,
    run_experiment,
    run_solver,
    solve_file,
    summarize_records,
    write_plan,
)
from l0l1.game import GameConfig, dantzig_game_solve, game_solve
from l0l1.numerics import read_vector, write_matrix, write_vector
from l0l1.pursuit import PursuitConfig, clash_solve, iht_solve, lasso_pg_solve, sp_solve
from l0l1.synth import ProblemSpec, generate

# each solver called at its entry point as bench calls it, for (k, tau, T)
DIRECT = {
    "sp": lambda phi, f, k, tau, t: sp_solve(phi, f, PursuitConfig(sparsity=k))[0],
    "clash": lambda phi, f, k, tau, t: clash_solve(phi, f, PursuitConfig(sparsity=k, tau=tau))[0],
    "lasso-pg": lambda phi, f, k, tau, t: lasso_pg_solve(phi, f, tau),
    "iht": lambda phi, f, k, tau, t: iht_solve(phi, f, k),
    "game-l2": lambda phi, f, k, tau, t: game_solve(phi, f, GameConfig(rounds=t, q=2, tau=tau))[0],
    "game-linf": lambda phi, f, k, tau, t: dantzig_game_solve(
        phi, f, GameConfig(rounds=t, q=np.inf, tau=tau))[0],
}


def small_plan(tmp_path, **overrides):
    defaults = dict(
        experiment="custom",
        n=60,
        m=30,
        k=4,
        sigma_grid=[0.0, 0.01],
        tau_grid=[1.0],
        trials=3,
        solvers=["clash", "sp", "lasso-pg", "game-l2"],
        seed=98765,
        out=str(tmp_path / "out.csv"),
    )
    defaults.update(overrides)
    return ExperimentPlan(**defaults)


class TestPlans:
    def test_presets_carry_reference_dimensions(self):
        d = preset_plan("dantzig-noise")
        assert (d.n, d.m, d.k) == (1000, 200, 20)
        assert len(d.sigma_grid) == 7
        assert d.solvers == ["game-linf", "lasso-pg", "sp"]
        nr = preset_plan("noise-resilience")
        assert (nr.n, nr.m, nr.k) == (1000, 305, 115)
        assert len(nr.sigma_grid) == 5
        ts = preset_plan("tau-sweep")
        assert (ts.n, ts.m, ts.k) == (500, 160, 57)
        assert ts.tau_grid == [0.2, 0.5, 1.0, 2.0, 5.0]
        assert ts.noise_mode == "fixed-norm"

    def test_sigma_grid_endpoints(self):
        d = preset_plan("dantzig-noise")
        np.testing.assert_allclose(d.sigma_grid[0], 10**-3.5)
        np.testing.assert_allclose(d.sigma_grid[-1], 10**-0.5)
        nr = preset_plan("noise-resilience")
        np.testing.assert_allclose(nr.sigma_grid[0], 1e-5)
        np.testing.assert_allclose(nr.sigma_grid[-1], 1e-1)

    def test_game_rounds_default(self):
        assert preset_plan("dantzig-noise").rounds == 80

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentPlan(experiment="bogus")
        with pytest.raises(ValueError):
            ExperimentPlan(trials=0)
        with pytest.raises(ValueError):
            ExperimentPlan(solvers=["nope"])
        with pytest.raises(ValueError):
            ExperimentPlan(sigma_grid=[])
        with pytest.raises(ValueError, match="workers"):
            ExperimentPlan(workers=0)
        with pytest.raises(ValueError, match="unknown experiment"):
            preset_plan("bogus")

    @pytest.mark.parametrize("name", ["trials", "workers", "game_rounds", "seed"])
    @pytest.mark.parametrize("value", [2.5, 2.0, "2"])
    def test_non_integer_counts_rejected(self, name, value):
        # trials, workers and seed were accepted and failed in run_experiment
        # with TypeError, and game_rounds only inside GameConfig
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            ExperimentPlan(**{name: value})

    def test_plan_file_round_trip(self, tmp_path):
        plan = small_plan(tmp_path, workers=2, game_rounds=12)
        path = tmp_path / "plan.txt"
        write_plan(path, plan)
        assert read_plan(path) == plan

    def test_plan_file_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "plan.txt"
        path.write_text("experiment=custom\nbogus=1\n")
        with pytest.raises(ValueError):
            read_plan(path)

    @pytest.mark.parametrize(
        "line",
        [
            "noise_mode=bogus",
            "matrix_scaling=bogus",
            "game_rounds=0",
            "k=101",
            "tau_grid=1,0",
            "tau_grid=nan",
            "tau_grid=inf",
            "sigma_grid=nan",
            "sigma_grid=0,-0.1",
            "sigma_grid=0.01,inf",
            "sigma_grid=0.01,0.01",
            "tau_grid=1,2,1",
            "solvers=sp,sp",
            "solvers=",
        ],
    )
    def test_plan_file_with_invalid_value_rejected(self, tmp_path, line):
        path = tmp_path / "plan.txt"
        path.write_text(f"experiment=custom\nn=256\nm=100\n{line}\n")
        with pytest.raises(ValueError):
            read_plan(path)

    def test_plan_file_parse_error_names_key_and_file(self, tmp_path):
        path = tmp_path / "plan.txt"
        path.write_text("experiment=custom\ntrials=x\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: trials: invalid"):
            read_plan(path)


class TestRunExperiment:
    def test_outputs_and_record_count(self, tmp_path):
        plan = small_plan(tmp_path)
        out = run_experiment(plan)
        assert out["record_count"] == 2 * 3 * 4  # grid x trials x solvers
        lines = open(out["records"]).read().strip().split("\n")
        assert len(lines) == 1 + out["record_count"]
        assert lines[0].startswith("experiment,trial,seed,solver")
        assert open(out["meta"]).read().count("seed=98765") == 1
        assert open(out["timing"]).readline().startswith("experiment,trial")

    def test_meta_file_replays_the_plan(self, tmp_path):
        plan = small_plan(tmp_path, solvers=["sp", "game-l2"])
        out = run_experiment(plan)
        replayed = read_plan(out["meta"])
        assert replayed == replace(plan, game_rounds=plan.rounds)
        again = run_experiment(replace(replayed, out=str(tmp_path / "again.csv")))
        assert open(again["records"], "rb").read() == open(out["records"], "rb").read()

    def test_byte_identical_reruns_and_workers(self, tmp_path):
        plan1 = small_plan(tmp_path, out=str(tmp_path / "a.csv"))
        plan2 = small_plan(tmp_path, out=str(tmp_path / "b.csv"))
        plan8 = small_plan(tmp_path, out=str(tmp_path / "c.csv"), workers=4)
        run_experiment(plan1)
        run_experiment(plan2)
        run_experiment(plan8)
        a = open(tmp_path / "a.csv", "rb").read()
        assert a == open(tmp_path / "b.csv", "rb").read()
        assert a == open(tmp_path / "c.csv", "rb").read()

    def test_each_trial_draws_its_matrix_once(self, tmp_path):
        plan = small_plan(tmp_path, sigma_grid=[0.0, 0.01, 0.1], trials=2, solvers=["sp"])
        synth._matrix.cache_clear()
        out = run_experiment(plan)
        # trial-major: the three noise levels of a trial reuse its matrix
        assert synth._matrix.cache_info().misses == 2
        # records in (trial, grid point, solver) order, as the cells give them
        cells = [
            rec.csv_row()
            for trial in range(plan.trials)
            for gi in range(len(plan.grid()))
            for rec in bench._run_cell(plan, gi, trial)
        ]
        assert [rec.csv_row() for rec in out["trial_records"]] == cells
        two = run_experiment(replace(plan, workers=2, out=str(tmp_path / "two.csv")))
        for key in ("records", "summary"):
            assert open(two[key], "rb").read() == open(out[key], "rb").read()

    def test_workers_start_with_blas_pinned(self, monkeypatch):
        names = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"]
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        before = {name: os.environ.get(name) for name in names}
        assert _map_in_workers(os.getenv, names, 2) == ["1", "1", "1"]
        assert {name: os.environ.get(name) for name in names} == before

    def test_summary_matches_recomputation(self, tmp_path):
        plan = small_plan(tmp_path)
        out = run_experiment(plan)
        recomputed = summarize_records(out["trial_records"])
        assert recomputed == out["summary_rows"]
        # medians recomputed independently for one cell
        recs = [
            r
            for r in out["trial_records"]
            if r.solver == "sp" and r.sigma == 0.01
        ]
        row = next(
            r
            for r in out["summary_rows"]
            if r[3] == "sp" and r[1] == 0.01
        )
        assert row[5] == float(np.median([r.rel_error for r in recs]))

    def test_feasibility_columns(self, tmp_path):
        plan = small_plan(tmp_path)
        out = run_experiment(plan)
        for rec in out["trial_records"]:
            if rec.solver in ("sp", "clash"):
                assert rec.nonzeros <= plan.k
            if rec.solver in ("clash", "lasso-pg", "game-l2"):
                assert rec.l1_norm <= rec.tau

    def test_common_instances_across_grid(self, tmp_path):
        # the same trial index sees the same seed at every grid point
        plan = small_plan(tmp_path)
        out = run_experiment(plan)
        seeds = {}
        for rec in out["trial_records"]:
            seeds.setdefault(rec.trial, set()).add(rec.seed)
        assert all(len(s) == 1 for s in seeds.values())


class TestRunSolver:
    def test_all_registered_solvers_run(self):
        p = generate(ProblemSpec(n=50, m=25, k=3, sigma=0.01, seed=7))
        for name in ("sp", "clash", "lasso-pg", "iht", "game-l2", "game-linf"):
            alpha, residual, iterations = run_solver(name, p, p.tau_star, rounds=12)
            assert alpha.shape == (50,)
            assert residual >= 0.0

    # solvers whose output must lie in the l1 ball; sp and iht ignore tau
    L1_BOUNDED = ("clash", "lasso-pg", "game-l2", "game-linf")

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 30),
        n=st.integers(1, 30),
        k_frac=st.floats(0.0, 1.0),
        tau_frac=st.floats(0.05, 2.0),
        rounds=st.integers(1, 30),
    )
    def test_property_feasible_and_deterministic(self, seed, m, n, k_frac, tau_frac, rounds):
        rng = np.random.default_rng(seed)
        phi = rng.normal(size=(m, n)) / np.sqrt(m)
        k = 1 + int(k_frac * (min(m, n) - 1))
        truth = np.zeros(n)
        truth[rng.choice(n, size=k, replace=False)] = rng.normal(size=k)
        f = phi @ truth + 0.01 * rng.normal(size=m)
        tau = tau_frac * np.sum(np.abs(truth)) + 1e-3

        def outputs(r):
            return (r.alpha.tobytes(), r.residual_l2, r.residual_q, r.history,
                    r.iterations, r.termination)

        for name, solve in DIRECT.items():
            res = solve(phi, f, k, tau, rounds)
            sparsity = rounds if name.startswith("game") else k
            if name != "lasso-pg":
                assert np.count_nonzero(res.alpha) <= sparsity, name
            if name in self.L1_BOUNDED:
                assert np.sum(np.abs(res.alpha)) <= tau, name
            assert outputs(solve(phi, f, k, tau, rounds)) == outputs(res), name

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 12),
        n=st.integers(1, 12),
        in_phi=st.booleans(),
        position=st.integers(0, 143),
        value=st.sampled_from([np.nan, np.inf, -np.inf]),
    )
    def test_property_non_finite_input_raises(self, seed, m, n, in_phi, position, value):
        rng = np.random.default_rng(seed)
        phi, f = rng.normal(size=(m, n)), rng.normal(size=m)
        for solve in bench._SOLVE.values():
            solve(phi, f, 1, 1.0, 3)  # the finite instance solves
        bad = phi if in_phi else f
        bad.flat[position % bad.size] = value
        for solve in bench._SOLVE.values():
            with pytest.raises(ValueError):
                solve(phi, f, 1, 1.0, 3)

    def test_unknown_solver_rejected(self):
        p = generate(ProblemSpec(n=50, m=25, k=3, seed=7))
        with pytest.raises(ValueError, match="unknown solver 'bogus'; choose from"):
            run_solver("bogus", p, 1.0, rounds=10)


class TestSolveFile:
    def test_round_trip_identity_sp(self, tmp_path):
        f = np.zeros(12)
        f[[2, 5, 9]] = [1.0, -2.0, 0.5]
        write_matrix(tmp_path / "phi.bin", np.eye(12))
        write_vector(tmp_path / "f.bin", f)
        summary = solve_file(
            str(tmp_path / "phi.bin"),
            str(tmp_path / "f.bin"),
            "sp",
            str(tmp_path / "alpha.bin"),
            k=3,
        )
        out = read_vector(tmp_path / "alpha.bin")
        np.testing.assert_allclose(out, f, atol=1e-12)
        assert summary["nonzeros"] == 3
        assert summary["residual_l2"] <= 1e-12

    def test_unknown_solver_raises(self, tmp_path):
        write_matrix(tmp_path / "phi.bin", np.eye(3))
        write_vector(tmp_path / "f.bin", np.ones(3))
        with pytest.raises(ValueError, match="unknown solver"):
            solve_file(
                str(tmp_path / "phi.bin"),
                str(tmp_path / "f.bin"),
                "bogus",
                str(tmp_path / "alpha.bin"),
                k=1,
            )

    def test_clash_without_a_finite_tau_raises(self, tmp_path):
        write_matrix(tmp_path / "phi.bin", np.eye(3))
        write_vector(tmp_path / "f.bin", np.ones(3))
        with pytest.raises(ValueError, match="finite --tau"):
            solve_file(
                str(tmp_path / "phi.bin"),
                str(tmp_path / "f.bin"),
                "clash",
                str(tmp_path / "alpha.bin"),
                k=1,
            )

    @pytest.mark.parametrize("tau", [np.nan, -1.0, 0.0])
    def test_bad_tau_raises_for_every_solver(self, tmp_path, tau):
        # SP ignores tau, and it solved and wrote the file at nan and -1
        write_matrix(tmp_path / "phi.bin", np.eye(3))
        write_vector(tmp_path / "f.bin", np.ones(3))
        with pytest.raises(ValueError, match="^tau must be positive"):
            solve_file(
                str(tmp_path / "phi.bin"),
                str(tmp_path / "f.bin"),
                "sp",
                str(tmp_path / "alpha.bin"),
                k=1,
                tau=tau,
            )
        assert not (tmp_path / "alpha.bin").exists()

    def test_dimension_mismatch_raises(self, tmp_path):
        write_matrix(tmp_path / "phi.bin", np.eye(3))
        write_vector(tmp_path / "f.bin", np.ones(4))
        with pytest.raises(ValueError, match="mismatch"):
            solve_file(
                str(tmp_path / "phi.bin"),
                str(tmp_path / "f.bin"),
                "sp",
                str(tmp_path / "alpha.bin"),
                k=1,
            )

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_in_process_result_matches_file_bit_exactly(self, tmp_path, solver):
        p = generate(ProblemSpec(n=40, m=20, k=3, sigma=0.01, seed=44))
        write_matrix(tmp_path / "phi.bin", p.phi)
        write_vector(tmp_path / "f.bin", p.f)
        summary = solve_file(
            str(tmp_path / "phi.bin"),
            str(tmp_path / "f.bin"),
            solver,
            str(tmp_path / "alpha.bin"),
            k=3,
            tau=p.tau_star,
        )
        # solve_file's default round count is 4k, as a plan's
        res = DIRECT[solver](p.phi, p.f, 3, p.tau_star, 12)
        assert read_vector(tmp_path / "alpha.bin").tobytes() == res.alpha.tobytes()
        assert summary["iterations"] == res.iterations
        assert summary["residual_native"] == res.residual_q
        alpha, residual, iterations = run_solver(solver, p, p.tau_star, rounds=12)
        assert alpha.tobytes() == res.alpha.tobytes()
        assert (residual, iterations) == (res.residual_q, res.iterations)


class TestRipReport:
    def test_identity_all_zero(self):
        report = rip_report(np.eye(20), [2, 5], 2, trials=30, seed=0)
        assert "empirical lower bound only" in report
        assert "below both reference thresholds" in report

    def test_doubled_identity_flagged(self):
        report = rip_report(2 * np.eye(20), [2], 2, trials=30, seed=0)
        assert "above contraction reference 0.3658" in report
        assert "above exact-recovery reference 0.38427" in report

    def test_desk_gaussian_monotone_in_sparsity(self):
        p = generate(ProblemSpec(n=200, m=60, k=5, seed=55))
        from l0l1.synth import rip_probe

        values = [rip_probe(p.phi, s, 2, 400, seed=9) for s in (4, 16, 48)]
        assert values[0] <= values[1] <= values[2]


class TestCli:
    def test_solve_and_rip_commands(self, tmp_path):
        f = np.zeros(10)
        f[[1, 4]] = [2.0, -1.0]
        write_matrix(tmp_path / "phi.bin", np.eye(10))
        write_vector(tmp_path / "f.bin", f)
        rc = main(
            [
                "solve",
                "--matrix", str(tmp_path / "phi.bin"),
                "--observation", str(tmp_path / "f.bin"),
                "--solver", "sp",
                "--k", "2",
                "--out", str(tmp_path / "alpha.bin"),
            ]
        )
        assert rc == 0
        np.testing.assert_allclose(read_vector(tmp_path / "alpha.bin"), f, atol=1e-12)
        rc = main(
            ["rip", "--matrix", str(tmp_path / "phi.bin"), "--s", "2,4",
             "--trials", "20", "--seed", "1", "--out", str(tmp_path / "rip.txt")]
        )
        assert rc == 0
        assert "empirical lower bound" in open(tmp_path / "rip.txt").read()

    def test_rip_on_non_finite_matrix_exits_nonzero(self, tmp_path, capsys):
        # an SPD1 file by hand: write_matrix refuses a NaN entry
        phi = np.eye(10)
        phi[2, 5] = np.nan
        (tmp_path / "phi.bin").write_bytes(
            b"SPD1" + struct.pack("<QQ", 10, 10) + phi.astype("<f8").tobytes())
        rc = main(["rip", "--matrix", str(tmp_path / "phi.bin"), "--s", "2",
                   "--trials", "20", "--out", str(tmp_path / "rip.txt")])
        assert rc == 1
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "rip.txt").exists()

    def test_unknown_solver_exits_nonzero(self, tmp_path):
        write_matrix(tmp_path / "phi.bin", np.eye(3))
        write_vector(tmp_path / "f.bin", np.ones(3))
        rc = main(
            [
                "solve",
                "--matrix", str(tmp_path / "phi.bin"),
                "--observation", str(tmp_path / "f.bin"),
                "--solver", "bogus",
                "--k", "1",
                "--out", str(tmp_path / "alpha.bin"),
            ]
        )
        assert rc == 1

    def test_missing_file_exits_nonzero(self, tmp_path):
        rc = main(
            [
                "solve",
                "--matrix", str(tmp_path / "missing.bin"),
                "--observation", str(tmp_path / "missing2.bin"),
                "--solver", "sp",
                "--k", "1",
                "--out", str(tmp_path / "alpha.bin"),
            ]
        )
        assert rc == 1

    def test_bench_command_with_flags(self, tmp_path):
        out = tmp_path / "bench.csv"
        rc = main(
            [
                "bench",
                "--experiment", "custom",
                "--n", "40", "--m", "20", "--k", "3",
                "--sigma-grid", "0.0",
                "--tau-grid", "1.0",
                "--trials", "2",
                "--solver", "sp,clash",
                "--seed", "5",
                "--out", str(out),
            ]
        )
        assert rc == 0
        lines = open(out).read().strip().split("\n")
        assert len(lines) == 1 + 2 * 2

    def test_bench_flags_and_plan_file_give_the_same_plan(self, tmp_path, monkeypatch):
        ran = []
        monkeypatch.setattr(
            bench, "run_experiment",
            lambda plan: ran.append(plan) or {"record_count": 0, "records": "", "summary": "", "meta": ""},
        )
        plan = ExperimentPlan(
            experiment="tau-sweep", n=90, m=40, k=5, sigma_grid=[0.0, 0.05],
            tau_grid=[0.5, 2.0], trials=3, solvers=["clash", "game-linf"], seed=11,
            out=str(tmp_path / "x.csv"), matrix_scaling="unit", noise_mode="fixed-norm",
            workers=2, game_rounds=7,
        )
        write_plan(tmp_path / "plan.txt", plan)
        assert main(["bench", "--plan", str(tmp_path / "plan.txt")]) == 0
        assert main(
            ["bench", "--experiment", "tau-sweep", "--n", "90", "--m", "40", "--k", "5",
             "--sigma-grid", "0,0.05", "--tau-grid", "0.5,2", "--trials", "3",
             "--solver", "clash,game-linf", "--seed", "11", "--out", str(tmp_path / "x.csv"),
             "--matrix-scaling", "unit", "--noise-mode", "fixed-norm", "--workers", "2",
             "--game-rounds", "7"]
        ) == 0
        assert ran == [plan, plan]

    def test_bench_invalid_flag_value_exits_nonzero(self, tmp_path):
        rc = main(["bench", "--noise-mode", "bogus", "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert not (tmp_path / "x.csv").exists()

    def test_bench_unparsable_flag_names_the_key(self, tmp_path, capsys):
        rc = main(["bench", "--trials", "x", "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: trials: invalid literal")

    def test_bench_nonpositive_tau_fails_before_solving(self, tmp_path, monkeypatch):
        ran = []
        monkeypatch.setattr(bench, "run_solver", lambda *a: ran.append(a))
        rc = main(["bench", "--n", "30", "--m", "15", "--k", "2", "--trials", "2",
                   "--solver", "sp,clash", "--tau-grid", "1,0",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert ran == []
        assert not (tmp_path / "x.csv").exists()

    def test_bench_unwritable_output_exits_nonzero(self, tmp_path):
        rc = main(
            [
                "bench",
                "--experiment", "custom",
                "--n", "30", "--m", "15", "--k", "2",
                "--trials", "1",
                "--solver", "sp",
                "--out", str(tmp_path / "no_such_dir" / "x.csv"),
            ]
        )
        assert rc == 1

    def test_bench_command_with_plan_file(self, tmp_path):
        plan = small_plan(tmp_path, trials=2, solvers=["sp"], out=str(tmp_path / "p.csv"))
        write_plan(tmp_path / "plan.txt", plan)
        rc = main(["bench", "--plan", str(tmp_path / "plan.txt")])
        assert rc == 0
        assert (tmp_path / "p.csv").exists()

    def test_bench_plan_experiment_conflict_exits_nonzero(self, tmp_path):
        plan = small_plan(tmp_path, trials=1, solvers=["sp"])
        write_plan(tmp_path / "plan.txt", plan)
        rc = main(
            ["bench", "--plan", str(tmp_path / "plan.txt"), "--experiment", "tau-sweep"]
        )
        assert rc == 1

    def test_console_entry_point_runs(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "l0l1.bench", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "solve" in proc.stdout and "bench" in proc.stdout and "rip" in proc.stdout
