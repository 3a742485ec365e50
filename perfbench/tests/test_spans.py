"""Span bookkeeping and the outside-in wrapper."""

import sys
import types

import numpy as np
import pytest

from spans import TARGETS, Target, Tracer, instrument


class FakeClock:
    """Each reading advances time by one second."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_time_of_nested_spans():
    tracer = Tracer(clock=FakeClock())
    leaf = tracer.span("leaf", lambda: None)
    middle = tracer.span("middle", lambda: (leaf(), leaf()))
    root = tracer.span("root", lambda: (middle(), leaf()))
    root()
    # clock readings: root 1-10, middle 2-7 with leaves 3-4 and 5-6, last leaf 8-9
    stats = tracer.summary(0)["spans"]
    assert stats["leaf"] == {"calls": 3, "total_s": 3.0, "self_s": 3.0}
    assert stats["middle"]["total_s"] == 5.0 and stats["middle"]["self_s"] == 3.0
    assert stats["root"]["total_s"] == 9.0 and stats["root"]["self_s"] == 3.0
    summary = tracer.summary(0)
    assert summary["roots_s"] == 9.0
    assert sum(s["self_s"] for s in summary["spans"].values()) == summary["roots_s"]


def test_spans_are_split_by_pass_and_survive_exceptions():
    tracer = Tracer(clock=FakeClock())

    def fail():
        raise ValueError("boom")

    boom = tracer.span("boom", fail)
    outer = tracer.span("outer", lambda: pytest.raises(ValueError, boom))
    outer()
    tracer.pass_id = 1
    outer()
    for pass_id in (0, 1):
        stats = tracer.summary(pass_id)["spans"]
        assert stats["boom"]["calls"] == 1 and stats["outer"]["calls"] == 1
        assert stats["outer"]["self_s"] == stats["outer"]["total_s"] - stats["boom"]["total_s"]
    assert tracer._stack == []


def test_instrument_patches_every_binding_and_restores(monkeypatch):
    home = types.ModuleType("pkgx.home")
    user = types.ModuleType("pkgx.user")

    def helper():
        return "helper"

    home.helper = helper
    user.helper = helper          # as ``from .home import helper`` leaves it
    monkeypatch.setitem(sys.modules, "pkgx", types.ModuleType("pkgx"))
    monkeypatch.setitem(sys.modules, "pkgx.home", home)
    monkeypatch.setitem(sys.modules, "pkgx.user", user)
    tracer = Tracer()
    restore = instrument(tracer, [Target("pkgx.home", "helper", "home.helper")], package="pkgx")
    assert home.helper is not helper and user.helper is home.helper
    assert user.helper() == "helper"
    assert tracer.summary(0)["spans"]["home.helper"]["calls"] == 1
    restore()
    assert home.helper is helper and user.helper is helper


def test_wrapper_sees_from_import_and_same_module_calls():
    import thresholdlab as tl
    from thresholdlab import elliptic, parabolic

    grid = tl.build_grid(tl.RadialBall(2, 1.0), tl.BoundarySpec.dirichlet(), 32)
    A = tl.build_laplacian(grid)
    spec = tl.ProblemSpec(tl.ExponentPair(3.0, 3.0), tl.RadialBall(2, 1.0))
    wanted = {"discrete.solve_shifted", "parabolic.evolve", "parabolic.step"}
    originals = (tl.discrete.solve_shifted, elliptic.solve_shifted, parabolic.step)
    tracer = Tracer()
    restore = instrument(tracer, [t for t in TARGETS if t.span in wanted])
    try:
        # elliptic holds solve_shifted through ``from .discrete import solve_shifted``
        elliptic._principal_eigenvector(A, iters=5)
        stats = tracer.summary(0)["spans"]
        assert stats["discrete.solve_shifted"]["calls"] == 5

        # evolve calls step through parabolic's own namespace
        tracer.pass_id = 1
        initial = tl.FieldPair(np.full(grid.size, 0.1), np.full(grid.size, 0.1), grid)
        outcome, record = parabolic.evolve(spec, A, initial, tl.IntegratorConfig(dt0=0.01))
        summary = tracer.summary(1)
    finally:
        restore()
    steps = len(record) - 1
    assert outcome.kind == "decay"
    assert summary["spans"]["parabolic.step"]["calls"] == steps
    assert summary["spans"]["discrete.solve_shifted"]["calls"] == steps
    assert summary["counts"]["parabolic.evolve.steps"] == steps
    assert summary["roots_s"] == summary["spans"]["parabolic.evolve"]["total_s"]
    names = [tracer.names[i] for i in range(len(tracer.names)) if tracer.passes[i] == 1]
    parents = {tracer.names[tracer.parents[i]] for i in range(len(tracer.names))
               if tracer.passes[i] == 1 and tracer.names[i] == "parabolic.step"}
    assert names[0] == "parabolic.evolve" and parents == {"parabolic.evolve"}
    assert (tl.discrete.solve_shifted, elliptic.solve_shifted, parabolic.step) == originals
