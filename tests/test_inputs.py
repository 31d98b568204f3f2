"""Every callable in `l0l1.__all__` checks its inputs at the call.

One row per callable gives a valid call.  Each array argument is fed a
NaN, +inf, -inf, a wrong length (where another argument fixes it) and a
wrong ndim, and a system's Phi is scaled so that its squared column
norms overflow; each budget argument NaN, -1, True, "1", and +inf where
it must be finite.  Every case must raise ValueError naming the argument.
"""

import re
from typing import Callable, NamedTuple

import numpy as np
import pytest

import l0l1
from l0l1 import (
    BregmanGeometry,
    ConstraintSet,
    GameConfig,
    ProblemSpec,
    PursuitConfig,
    bregman_distance,
    bregman_project,
    clash_solve,
    contraction_check,
    dantzig_game_solve,
    euclidean_geometry,
    game_solve,
    generate,
    grad_map,
    grad_map_inverse,
    hard_threshold,
    holder_optimal_dual,
    iht_solve,
    l1_project,
    lasso_pg_solve,
    lifted_entropy_geometry,
    loss,
    loss_bound,
    lp_norm,
    max_update,
    project_k_tau,
    restricted_lsq,
    rip_probe,
    sp_solve,
    sparse_best_response,
)
from l0l1.bench import ExperimentPlan

# the records carry results; they check nothing
RECORDS = {"SolverResult", "GameCertificate", "GeneratedProblem"}

PHI = np.array([[1.0, 0.2, 0.0, 0.5], [0.0, 1.0, 0.3, -0.4], [0.1, 0.0, 1.0, 0.2]])
F = np.array([0.5, -0.2, 0.3])
ALPHA = np.array([0.1, 0.0, -0.2, 0.0])
P = np.array([0.3, -0.1, 0.2])
SYSTEM = dict(phi=PHI, f=F)


class Row(NamedTuple):
    call: Callable
    args: dict
    # array arguments whose length another argument fixes
    sized: tuple = ()
    # array arguments of any length
    free: tuple = ()
    # budget arguments, each with whether it must be finite
    budgets: dict = {}


ROWS = {
    "BregmanGeometry": Row(BregmanGeometry, dict(kind="entropy", dim=3)),
    "bregman_distance": Row(
        bregman_distance, dict(g=euclidean_geometry(3), p=P, q=F), sized=("p", "q")
    ),
    "bregman_project": Row(bregman_project, dict(g=euclidean_geometry(3), q=P), sized=("q",)),
    "euclidean_geometry": Row(euclidean_geometry, dict(dim=3)),
    "grad_map": Row(grad_map, dict(g=euclidean_geometry(3), p=P), sized=("p",)),
    "grad_map_inverse": Row(grad_map_inverse, dict(g=euclidean_geometry(3), y=P), sized=("y",)),
    "lifted_entropy_geometry": Row(lifted_entropy_geometry, dict(m=3)),
    "GameConfig": Row(GameConfig, dict(rounds=3, q=2, tau=0.5), budgets={"tau": True}),
    "dantzig_game_solve": Row(
        dantzig_game_solve, dict(SYSTEM, cfg=GameConfig(rounds=3)), sized=("phi", "f")
    ),
    "game_solve": Row(game_solve, dict(SYSTEM, cfg=GameConfig(rounds=3)), sized=("phi", "f")),
    "holder_optimal_dual": Row(
        holder_optimal_dual, dict(SYSTEM, alpha=ALPHA, q=2), sized=("alpha", "phi", "f")
    ),
    "loss": Row(loss, dict(SYSTEM, p=P, alpha=ALPHA), sized=("p", "alpha", "phi", "f")),
    "loss_bound": Row(
        loss_bound, dict(SYSTEM, tau=0.5, q=2), sized=("phi", "f"), budgets={"tau": True}
    ),
    "max_update": Row(
        max_update, dict(p=P, residual=F, eta=0.5, q=2), sized=("p", "residual"),
        budgets={"eta": True},
    ),
    "sparse_best_response": Row(
        sparse_best_response, dict(SYSTEM, p=P, tau=0.5), sized=("p", "phi", "f"),
        budgets={"tau": True},
    ),
    "lp_norm": Row(lp_norm, dict(x=ALPHA, p=2), free=("x",)),
    "restricted_lsq": Row(restricted_lsq, dict(SYSTEM, support=[0, 2]), sized=("phi", "f")),
    "ConstraintSet": Row(ConstraintSet, dict(k=2, tau=0.5), budgets={"tau": False}),
    "hard_threshold": Row(hard_threshold, dict(w=ALPHA, k=2), free=("w",)),
    "l1_project": Row(l1_project, dict(w=ALPHA, tau=0.5), free=("w",), budgets={"tau": False}),
    "project_k_tau": Row(project_k_tau, dict(w=ALPHA, c=ConstraintSet(2, 0.5)), free=("w",)),
    "PursuitConfig": Row(PursuitConfig, dict(sparsity=2, tau=0.5), budgets={"tau": False}),
    "clash_solve": Row(clash_solve, dict(SYSTEM, cfg=PursuitConfig(2, 0.5)), sized=("phi", "f")),
    "contraction_check": Row(
        contraction_check,
        dict(trace=[ALPHA, 0.5 * ALPHA], alpha_true=0.4 * ALPHA, rho_bound=0.9, c1=1.0,
             noise_norm=0.0),
        # alpha_true sets the length of the iterates
        sized=("trace",), free=("alpha_true",),
        budgets={"rho_bound": True, "c1": True, "noise_norm": True},
    ),
    "iht_solve": Row(iht_solve, dict(SYSTEM, k=2), sized=("phi", "f")),
    "lasso_pg_solve": Row(
        lasso_pg_solve, dict(SYSTEM, tau=0.5, tol=1e-8), sized=("phi", "f"),
        budgets={"tau": False, "tol": False},
    ),
    "sp_solve": Row(sp_solve, dict(SYSTEM, cfg=PursuitConfig(2)), sized=("phi", "f")),
    "ProblemSpec": Row(ProblemSpec, dict(n=8, m=4, k=2, sigma=0.1), budgets={"sigma": True}),
    "generate": Row(generate, dict(spec=ProblemSpec(n=8, m=4, k=2))),
    "rip_probe": Row(rip_probe, dict(phi=PHI, s=2, q=2, trials=3, seed=0), free=("phi",)),
}

# and the plan of `l0l1.bench`, whose budgets are grids: each bad value
# is fed as a grid of one
ALL_ROWS = {
    **ROWS,
    "ExperimentPlan": Row(ExperimentPlan, dict(tau_grid=[1.0]), budgets={"tau_grid": True}),
}


def poisoned(value):
    def defect(x):
        y = np.array(x, dtype=np.float64)
        y.flat[y.size // 2] = value
        return y

    return defect


ARRAY_DEFECTS = {
    "nan": poisoned(np.nan),
    "+inf": poisoned(np.inf),
    "-inf": poisoned(-np.inf),
    "wrong length": lambda x: x[:-1],
    "wrong ndim": lambda x: x[0] if x.ndim == 2 else x[None],
    "overflowing column norms": lambda x: 1e155 * x,
}


def array_cases():
    for row_name, row in ROWS.items():
        for arg in row.sized + row.free:
            for defect in ARRAY_DEFECTS:
                if defect == "wrong length" and arg not in row.sized:
                    continue
                # only the Phi of a system: rip_probe's takes no f
                if defect == "overflowing column norms" and not (arg == "phi" and arg in row.sized):
                    continue
                yield pytest.param(row_name, arg, defect, id=f"{row_name}-{arg}-{defect}")


def budget_cases():
    for row_name, row in ALL_ROWS.items():
        for arg, finite in row.budgets.items():
            for value in [np.nan, -1, True, "1"] + ([np.inf] if finite else []):
                yield pytest.param(row_name, arg, value, id=f"{row_name}-{arg}-{value!r}")


def raises_naming(arg, call, **args):
    """Assert that the call raises ValueError whose message holds `arg`
    as a word, in any case (the docstrings write Phi and P)."""
    with pytest.raises(ValueError) as info:
        call(**args)
    assert re.search(rf"\b{re.escape(arg)}\b", str(info.value), re.IGNORECASE), info.value


def test_rows_cover_every_public_callable():
    public = {name for name in l0l1.__all__ if callable(getattr(l0l1, name))}
    assert set(ROWS) == public - RECORDS


@pytest.mark.parametrize("row_name", sorted(ALL_ROWS))
def test_valid_call_passes(row_name):
    row = ALL_ROWS[row_name]
    row.call(**row.args)


@pytest.mark.parametrize("row_name, arg, defect", array_cases())
def test_bad_array_raises_naming_it(row_name, arg, defect):
    row, spoil = ROWS[row_name], ARRAY_DEFECTS[defect]
    value = row.args[arg]
    # a trace is a list of vectors: each one is spoiled
    bad = [spoil(x) for x in value] if isinstance(value, list) else spoil(value)
    raises_naming(arg, row.call, **{**row.args, arg: bad})


@pytest.mark.parametrize("row_name, arg, value", budget_cases())
def test_bad_budget_raises_naming_it(row_name, arg, value):
    row = ALL_ROWS[row_name]
    bad = [value] if isinstance(row.args[arg], list) else value
    raises_naming(arg, row.call, **{**row.args, arg: bad})
