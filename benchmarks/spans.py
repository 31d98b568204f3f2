"""In-memory span tracing of the l0l1 layers, from outside the package.

`traced()` replaces each function in LAYERS with a wrapper that records
a span (name, start, end, parent) around every call, and restores the
originals on exit.  Modules such as `pursuit` and `game` import these
functions by name (``from .projections import l1_project``), so the
wrapper is bound in place of *every* ``l0l1.*`` module attribute that
refers to the original; patching only the defining module would miss the
calls made from inside the package.

Spans live in flat typed arrays so that a CLASH pass, about a million
spans, costs tens of megabytes.  Besides spans, a wrapper can accumulate
per-call counts derived from the arguments or the result (input lengths,
iteration counts), recorded where the work happens.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import wraps
from importlib import import_module
from typing import Callable

import numpy as np


def _result(out):
    # pursuit and game entry points return (SolverResult, trace/certificate)
    return out[0] if isinstance(out, tuple) else out


def _solver_counts(args, out) -> dict[str, int]:
    res = _result(out)
    return {"iterations": res.iterations, "capped": int(res.termination == "max-iterations")}


def _input_length(args, out) -> dict[str, int]:
    return {"elems": int(np.size(args[0]))}


def _support_size(args, out) -> dict[str, int]:
    return {"cols": int(np.size(args[2]))}


_SOLVER_STATS = ("calls", "s", "self_s", "iterations", "capped")

# (module, function, statistics reported, per-call counter); `calls`, `s`
# and `self_s` come from the spans, the rest from the counter
LAYERS: tuple[tuple[str, str, tuple[str, ...], Callable | None], ...] = (
    ("synth", "generate", ("calls", "s"), None),
    ("pursuit", "clash_solve", _SOLVER_STATS, _solver_counts),
    ("pursuit", "sp_solve", _SOLVER_STATS, _solver_counts),
    ("pursuit", "lasso_pg_solve", _SOLVER_STATS, _solver_counts),
    ("pursuit", "iht_solve", _SOLVER_STATS, _solver_counts),
    ("game", "game_solve", ("calls", "s", "self_s"), None),
    ("game", "dantzig_game_solve", ("calls", "s", "self_s"), None),
    ("game", "max_update", ("calls", "s", "self_s"), None),
    ("game", "sparse_best_response", ("calls", "s"), None),
    ("game", "loss", ("calls", "s"), None),
    ("game", "loss_bound", ("calls", "s"), None),
    ("bregman", "grad_map", ("calls", "s"), None),
    ("bregman", "grad_map_inverse", ("calls", "s"), None),
    ("bregman", "bregman_project", ("calls", "s"), None),
    ("projections", "l1_project", ("calls", "s", "elems"), _input_length),
    ("projections", "hard_threshold", ("calls", "s", "elems"), _input_length),
    ("projections", "top_k_support", ("calls", "s", "elems"), _input_length),
    ("numerics", "restricted_lsq", ("calls", "s", "cols"), _support_size),
)

NAMES = [f"{mod}.{fn}" for mod, fn, _, _ in LAYERS]

STAT_UNITS = {
    "calls": "count", "s": "s", "self_s": "s", "iterations": "count",
    "capped": "count", "elems": "count", "cols": "count",
}


def metric_names() -> list[tuple[str, str]]:
    """(metric name, unit) for every per-layer statistic, in LAYERS order."""
    return [
        (f"{mod}.{fn}.{stat}", STAT_UNITS[stat])
        for mod, fn, stats, _ in LAYERS
        for stat in stats
    ]


@dataclass
class Trace:
    """Spans in open order.  `name_id[i]` indexes NAMES, and `parent[i]` is
    the index of the span that was open when span i started, or -1."""

    name_id: array = field(default_factory=lambda: array("H"))
    parent: array = field(default_factory=lambda: array("i"))
    start: array = field(default_factory=lambda: array("d"))
    end: array = field(default_factory=lambda: array("d"))
    counts: dict[str, dict[str, int]] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, name: str, fn: Callable, counter: Callable | None) -> Callable:
        nid = NAMES.index(name)
        totals = self.counts.setdefault(name, {})
        stack, name_id, parent, start, end = (
            self._stack, self.name_id, self.parent, self.start, self.end
        )
        clock = time.perf_counter

        @wraps(fn)
        def traced_call(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if counter is not None:
                for key, value in counter(args, out).items():
                    totals[key] = totals.get(key, 0) + value
            return out

        return traced_call

    def arrays(self) -> dict[str, np.ndarray]:
        # copies: a live view would stop the arrays from growing
        return {
            "name_id": np.array(self.name_id, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def self_seconds(self) -> np.ndarray:
        """Each span's duration minus the time its direct children cover
        (children of one span never overlap: the run is single-threaded)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = a["parent"] >= 0
        covered = np.bincount(a["parent"][child], weights=dur[child], minlength=len(dur))
        return dur - covered

    def stats(self, passes: int = 1) -> dict[str, float]:
        """Every per-layer metric of `metric_names()`, divided by `passes`."""
        a = self.arrays()
        nn = len(NAMES)
        dur = a["end"] - a["start"]
        calls = np.bincount(a["name_id"], minlength=nn)
        total = np.bincount(a["name_id"], weights=dur, minlength=nn)
        own = np.bincount(a["name_id"], weights=self.self_seconds(), minlength=nn)
        out: dict[str, float] = {}
        for mod, fn, stats, _ in LAYERS:
            name = f"{mod}.{fn}"
            i = NAMES.index(name)
            from_spans = {"calls": calls[i], "s": total[i], "self_s": own[i]}
            for stat in stats:
                value = from_spans.get(stat, self.counts.get(name, {}).get(stat, 0))
                out[f"{name}.{stat}"] = float(value) / passes
        return out

    def child_seconds(self, parent_name: str) -> dict[str, float]:
        """Seconds spent in each direct child layer of the `parent_name` spans."""
        a = self.arrays()
        pid = NAMES.index(parent_name)
        has_parent = a["parent"] >= 0
        kids = np.nonzero(has_parent)[0]
        kids = kids[a["name_id"][a["parent"][kids]] == pid]
        dur = a["end"][kids] - a["start"][kids]
        sums = np.bincount(a["name_id"][kids], weights=dur, minlength=len(NAMES))
        return {NAMES[i]: float(sums[i]) for i in np.nonzero(sums)[0]}

    def save(self, path) -> None:
        np.savez(path, names=np.array(NAMES), **self.arrays())


def _package_modules() -> list:
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "l0l1" or name.startswith("l0l1."))]


@contextmanager
def traced(trace: Trace | None = None):
    """Trace every call of the LAYERS functions made inside the block.

    Yields the `Trace`, a new one unless `trace` is given to append to.  On
    exit every rebound module attribute holds its original function again,
    whether the block raised or not.
    """
    trace = Trace() if trace is None else trace
    by_id = {}
    for mod, fn, _, counter in LAYERS:
        original = getattr(import_module(f"l0l1.{mod}"), fn)
        by_id[id(original)] = (original, trace.wrap(f"{mod}.{fn}", original, counter))
    rebound = []
    try:
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    rebound.append((module, attr, value))
        yield trace
    finally:
        for module, attr, value in rebound:
            setattr(module, attr, value)
