"""One benchmark pass per workload must succeed on the current sources.

bench/workloads.py reads `RunReport.level_rows`, the check verdicts, `excess`
and `SamplingBudget`; a change to those that breaks the benchmark shows up
here as a failed operation. The module is imported from bench/ and not
changed. `deep_refinement` is left out: it uses the same calls as the
workloads below and takes about as long as all of them together.
"""

import importlib
import pathlib

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
SEED = 301


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("workloads")


@pytest.mark.parametrize("workload", ["rotating_polytope", "closed_form_suite", "excess_audit"])
def test_one_pass_has_no_failures(workload, workloads, tmp_path):
    inputs = workloads.parse(workload, SEED, workloads.generate(workload, SEED))
    result = workloads.run_pass(inputs, tmp_path)
    assert result.failures == []
    assert result.seconds
