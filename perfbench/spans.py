"""Outside-in span tracing of thresholdlab's public functions.

The benchmark wraps each traced function from its own files; nothing under
``src/`` knows about tracing.  A function is replaced at every name it is
bound to inside the loaded ``thresholdlab`` modules, because a
``from .discrete import solve_shifted`` in another module holds its own
reference that patching ``discrete.solve_shifted`` alone would miss.
Methods are patched on their class.

Each call records a span (name, start, end, parent, pass id).  Spans stay in
memory until :meth:`Tracer.summary` folds them into per-name call counts,
inclusive time and self time (a span's duration minus its children's).
Counts that live in arguments or results (right-hand-side columns, steps,
iterations, bytes written) are added by per-target hooks after the span
closes.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass(frozen=True)
class Target:
    """One function to trace: where it is defined and the span name it gets."""

    module: str
    qualname: str                  # "func" or "Class.method"
    span: str
    hook: Optional[Callable] = None    # hook(tracer, args, kwargs, result)


@dataclass
class Tracer:
    """In-memory span recorder.  The worker starts a fresh one for each traced pass."""

    clock: Callable[[], float] = time.perf_counter
    names: list = field(default_factory=list)
    starts: list = field(default_factory=list)
    ends: list = field(default_factory=list)
    parents: list = field(default_factory=list)
    passes: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)      # (pass id, key) -> number
    keys: dict = field(default_factory=dict)        # (pass id, key) -> set of distinct keys
    pass_id: int = 0
    _stack: list = field(default_factory=list)

    def add(self, key: str, amount: float = 1) -> None:
        k = (self.pass_id, key)
        self.counts[k] = self.counts.get(k, 0) + amount

    def distinct(self, key: str, value) -> None:
        self.keys.setdefault((self.pass_id, key), set()).add(value)

    def span(self, name: str, fn: Callable, hook: Optional[Callable] = None) -> Callable:
        """Return ``fn`` wrapped so that each call records one span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.passes.append(self.pass_id)
            self.ends.append(0.0)
            self._stack.append(index)
            self.starts.append(self.clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[index] = self.clock()
                self._stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def summary(self, pass_id: int) -> dict:
        """Per-name calls, inclusive seconds and self seconds of one pass.

        Also returns ``roots_s``, the summed duration of the pass's spans that
        have no parent: everything else in the pass ran untraced.
        """
        stats: dict[str, dict] = {}
        child_time: dict[int, float] = {}
        picked = [i for i, p in enumerate(self.passes) if p == pass_id]
        for i in picked:
            parent = self.parents[i]
            if parent >= 0:
                child_time[parent] = child_time.get(parent, 0.0) + self.ends[i] - self.starts[i]
        roots = 0.0
        for i in picked:
            duration = self.ends[i] - self.starts[i]
            entry = stats.setdefault(self.names[i], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_time.get(i, 0.0)
            if self.parents[i] < 0:
                roots += duration
        counts = {k: v for (p, k), v in self.counts.items() if p == pass_id}
        distinct = {k: len(v) for (p, k), v in self.keys.items() if p == pass_id}
        return {"spans": stats, "roots_s": roots, "counts": counts, "distinct": distinct}


def _resolve(target: Target):
    """(owner, attribute, original function) for a target."""
    owner = importlib.import_module(target.module)
    *outer, attr = target.qualname.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


def instrument(tracer: Tracer, targets, package: str = "thresholdlab") -> Callable[[], None]:
    """Wrap every target at every binding in ``package``; return the undo function.

    A module-level function is replaced in each loaded module of ``package``
    whose namespace holds the same function object, so calls through a
    ``from ... import`` binding and calls inside the defining module are both
    traced.  A method is replaced on its class.
    """
    undo = []
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == package or n.startswith(package + "."))]
    for target in targets:
        owner, attr, original = _resolve(target)
        wrapped = tracer.span(target.span, original, target.hook)
        if isinstance(owner, type):
            undo.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            continue
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, name, original))
                    setattr(module, name, wrapped)

    def restore() -> None:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    return restore


# ---------------------------------------------------------------------------
# hooks: counts taken from arguments and results after a span closes
# ---------------------------------------------------------------------------


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _solve_shifted_hook(tracer, args, kwargs, result):
    A = _arg(args, kwargs, 0, "A")
    sigma = _arg(args, kwargs, 1, "sigma")
    grid = A.grid
    tracer.add("discrete.solve_shifted.cols", 1 if result.ndim == 1 else result.shape[1])
    # the operator is identified by what determines its matrix, not by id()
    operator = (grid.geometry, grid.resolution, grid.dimension, A.boundary.kind, A.boundary.beta)
    tracer.distinct("discrete.solve_shifted.operator_sigma", (operator, float(sigma)))


def _solve_monotone_hook(tracer, args, kwargs, result):
    tracer.add("elliptic.solve_monotone.iterations", result.iterations)


def _lambda_star_hook(tracer, args, kwargs, result):
    tracer.add("elliptic.lambda_star.probes", len(result.probes))


def _evolve_hook(tracer, args, kwargs, result):
    outcome, record = result
    tracer.add("parabolic.evolve.steps", len(record) - 1)
    tracer.add("parabolic.evolve.classified", outcome.kind != "undecided")


def _threshold_hook(tracer, args, kwargs, result):
    tracer.add("lab.threshold_experiment.runs", len(result.runs))


def _bytes_hook(path_position: int, path_name: str):
    def hook(tracer, args, kwargs, result):
        tracer.add("lab.io.bytes", os.path.getsize(_arg(args, kwargs, path_position, path_name)))

    return hook


TARGETS = (
    Target("thresholdlab.discrete", "solve_shifted", "discrete.solve_shifted",
           _solve_shifted_hook),
    Target("thresholdlab.discrete", "DiscreteLaplacian.quadratic_form", "discrete.quadratic_form"),
    Target("thresholdlab.discrete", "build_laplacian", "discrete.build_laplacian"),
    Target("thresholdlab.elliptic", "solve_newton", "elliptic.solve_newton"),
    Target("thresholdlab.elliptic", "residual_norm", "elliptic.residual_norm"),
    Target("thresholdlab.elliptic", "shooting_oracle", "elliptic.shooting_oracle"),
    Target("thresholdlab.elliptic", "solve_monotone", "elliptic.solve_monotone",
           _solve_monotone_hook),
    Target("thresholdlab.elliptic", "lambda_star", "elliptic.lambda_star", _lambda_star_hook),
    Target("thresholdlab.parabolic", "evolve", "parabolic.evolve", _evolve_hook),
    Target("thresholdlab.parabolic", "step", "parabolic.step"),
    Target("thresholdlab.parabolic", "adapt_dt", "parabolic.adapt_dt"),
    Target("thresholdlab.analysis", "TrajectoryRecord.finalize", "analysis.finalize"),
    Target("thresholdlab.analysis", "solution_pair_identity", "analysis.solution_pair_identity"),
    Target("thresholdlab.lab.experiments", "threshold_experiment", "lab.threshold_experiment",
           _threshold_hook),
    Target("thresholdlab.lab.cli", "main", "lab.cli.main"),
    Target("thresholdlab.lab.io", "write_result_json", "lab.io", _bytes_hook(1, "path")),
    Target("thresholdlab.lab.io", "write_trajectory_csv", "lab.io", _bytes_hook(1, "path")),
    Target("thresholdlab.lab.io", "save_snapshot", "lab.io", _bytes_hook(0, "path")),
)
