"""The benchmark's tracer targets must name code that exists.

bench/tracer.py skips a target it cannot import with a "not found" line, but
it does not look for a `Class.method` target's method at all: one that no
class defines any more is dropped silently and its metric reads 0.  This test
reads bench/tracer.py and bench/workloads.py without changing them.
"""

import importlib
import pathlib

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"

# The one target the package no longer has; the next change to the benchmark
# drops it.
ALLOWED_MISSES = {"sweepsolve.variation.union_sample_times"}


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracer"), importlib.import_module("workloads")


def test_every_tracer_target_resolves(bench):
    tracer, workloads = bench
    missing = set()
    for target in workloads.TARGETS:
        name = f"{target.module}.{target.attr}"
        try:
            owner, found = tracer._resolve(target)
        except (ImportError, AttributeError):
            missing.add(name)
            continue
        if isinstance(owner, type):
            assert any(found in vars(cls) for cls in tracer._subclasses(owner)), name
        else:
            assert callable(found), name
    assert missing <= ALLOWED_MISSES
