"""Self-tests of the benchmark's tracer: self-time arithmetic on synthetic
span trees and wrapping of names bound with `from .x import y`.

    python3 -m pytest bench/test_tracer.py -q
"""

import itertools
import sys
import types

import pytest

from tracer import Span, Target, Tracer, installed, layer_self_seconds, span_self_times


def test_span_self_times_subtract_children_and_counted_calls():
    spans = [
        Span("run", 0.0, 10.0, -1),
        Span("solve", 1.0, 4.0, 0, counted=1.5),
        Span("certify", 4.0, 9.0, 0),
        Span("sample", 5.0, 8.0, 2, counted=2.0),
        Span("run", 10.0, 12.0, -1),
    ]
    assert span_self_times(spans) == [2.0, 1.5, 2.0, 1.0, 2.0]


def _tick_tracer():
    """Tracer whose clock advances by one on every reading."""
    return Tracer(clock=itertools.count().__next__)


def _traced(tracer, name, span, fn, layer="x"):
    target = Target("unused", "unused", name, layer, span)
    return lambda *args: tracer.call(target, fn, args, {})


def test_self_times_add_up_to_the_top_level_duration():
    tracer = _tick_tracer()
    leaf = _traced(tracer, "c", False, lambda: 1)
    inner = _traced(tracer, "x", True, lambda: leaf())
    outer = _traced(tracer, "a", True, lambda: (leaf(), inner()))
    outer()
    # Clock readings: a 0..7, c 1..2, x 3..6, c 4..5.
    assert tracer.self_seconds() == {"a": 3, "x": 2, "c": 2}
    assert tracer.inclusive_seconds("a") == 7
    assert tracer.calls("c") == 2
    assert tracer.within == {("c", "a"): 1, ("c", "x"): 1}


def test_span_inside_a_counter_is_owned_by_the_counter():
    tracer = _tick_tracer()
    leaf = _traced(tracer, "c", False, lambda: 1)
    inner = _traced(tracer, "x", True, lambda: leaf())
    hot = _traced(tracer, "d", False, lambda: inner())
    outer = _traced(tracer, "a", True, lambda: hot())
    outer()
    # Clock readings: a 0..7, d 1..6, x 2..5, c 3..4.
    own = tracer.self_seconds()
    assert own == {"a": 2, "d": 2, "x": 2, "c": 1}
    assert sum(own.values()) == tracer.inclusive_seconds("a")


def test_reentry_is_counted_once():
    tracer = _tick_tracer()

    def piecewise_at(depth):
        return at(depth - 1) if depth else 0

    at = _traced(tracer, "at", False, piecewise_at)
    at(2)
    assert tracer.calls("at") == 1
    assert tracer.self_seconds() == {"at": 1}


def test_layer_self_seconds_groups_names_by_layer():
    tracer = _tick_tracer()
    leaf = _traced(tracer, "sets.contains", False, lambda: 1)
    _traced(tracer, "harness.verify_inner_ball", True, lambda: leaf())()
    targets = [Target("m", "f", "sets.contains", "sets", False),
               Target("m", "g", "harness.verify_inner_ball", "families", True)]
    assert layer_self_seconds(tracer, targets) == {"sets": 1, "families": 2}


@pytest.fixture
def fake_package():
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def work(x):
        return 2 * x

    class Shape:
        def at(self, t):
            return t

    class Moved(Shape):
        def at(self, t):
            return t + 1

    core.work, core.Shape, core.Moved = work, Shape, Moved
    user.work = work  # as bound by `from .core import work`
    user.use = lambda x: user.work(x)
    modules = {"fakepkg": pkg, "fakepkg.core": core, "fakepkg.user": user}
    sys.modules.update(modules)
    yield core, user
    for name in modules:
        del sys.modules[name]


def test_installed_wraps_every_binding_and_restores_it(fake_package):
    core, user = fake_package
    original = core.work
    targets = [Target("fakepkg.core", "work", "core.work", "core", True),
               Target("fakepkg.core", "Shape.at", "core.at", "core", False),
               Target("fakepkg.core", "gone", "core.gone", "core", True)]
    tracer = Tracer()
    with installed(tracer, targets, package="fakepkg"):
        assert user.use(3) == 6
        assert core.work(1) == 2
        assert core.Moved().at(1) == 2
        assert core.Shape().at(1) == 1
    assert tracer.calls("core.work") == 2
    assert tracer.calls("core.at") == 2
    assert core.work is original and user.work is original
    assert "at" in vars(core.Moved) and core.Moved().at(0) == 1
    user.use(1)
    assert tracer.calls("core.work") == 2
