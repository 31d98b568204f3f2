"""Reproduce the norm-budget sweep at mini scale through the benchmark
harness: recovery error versus the l1 budget, as a multiple of the true
||a*||_1.

Too small a budget excludes the truth; too large a budget stops helping
the combinatorial selection and the solver behaves like plain subspace
pursuit.  The error curve is U-shaped with its minimum at the true
budget.  (The full desk-scale run is `l0l1 bench --experiment tau-sweep`.)
"""

from l0l1.bench import preset_plan, run_experiment

# run_experiment starts its workers (workers=2) as fresh interpreters that
# import this script again, so the experiment must run only under the
# main-module guard.
if __name__ == "__main__":
    plan = preset_plan(
        "tau-sweep",
        n=250,
        m=80,
        k=28,
        trials=10,
        seed=99,
        out="/tmp/demo_tau_sweep.csv",
        workers=2,
    )
    out = run_experiment(plan)

    print("tau multiple -> median recovery error")
    for row in out["summary_rows"]:
        experiment, sigma, tau_mult, solver, trials, rel, *_ = row
        if solver == "clash":
            bar = "#" * int(min(rel, 1.2) * 50)
            print(f"  {tau_mult:4.1f}x  {rel:8.4f}  {bar}")
    print(f"\nrecords: {out['records']}")
    print(f"summary: {out['summary']}")
    print(f"provenance: {out['meta']} (plus a .timing.csv sidecar)")
