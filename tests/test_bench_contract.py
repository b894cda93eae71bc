"""The benchmark still finds every name it rebinds and every input it builds.

``bench/spans.py`` wraps public functions by module and name, and
``bench/workloads.py`` builds its pairs through the package's generators
and configuration. A rename in the package would silently drop a layer
from the traced run or break a workload, so this checks the contract from
the package side without running the benchmark.
"""

import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from slocceq import equivalence
from slocceq.decomposition import triple_state_set
from slocceq.solver import SolverConfig, solve_ptilde, solve_ptilde_single
from slocceq.states import Bipartition, PureState, make_state

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("spans")


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("workloads")


def test_every_workload_builds_its_first_round(workloads):
    # Building a round touches SolverConfig(restarts=...), the catalog
    # generators and contract_local_ops; the oracle's input view touches
    # tripartite_as_pure_state. No check runs.
    for name, workload in workloads.WORKLOADS.items():
        pairs = workload.make_round(1, 0)
        assert len(pairs) == len(workload.round), name
        for pair in pairs:
            assert callable(getattr(equivalence, pair.entry)), (name, pair.kind)
            assert isinstance(pair.config, SolverConfig), (name, pair.kind)
            for s in (pair.s1, pair.s2):
                assert isinstance(workloads._raw(s), PureState), (name, pair.kind)


def test_every_wrapped_name_resolves(spans):
    for layer, module, name in spans.WRAPPED:
        assert callable(getattr(module, name, None)), (layer, module.__name__, name)


def test_installed_wraps_and_restores(spans):
    originals = [(module, name, getattr(module, name)) for _, module, name in spans.WRAPPED]
    svd = np.linalg.svd
    with spans.Tracer().installed():
        for module, name, original in originals:
            assert getattr(module, name) is not original, name
        assert np.linalg.svd is not svd
    for module, name, original in originals:
        assert getattr(module, name) is original, name
    assert np.linalg.svd is svd


@pytest.mark.parametrize(
    "entry", ["check_fourpartite_equiv", "check_fourpartite_equiv_all_cuts", "check_tripartite_equiv"]
)
def test_check_entry_takes_a_positional_config(entry):
    # Pair.run passes its SolverConfig positionally, after the states and
    # the cut; the check ignores it. No check runs.
    sig = inspect.signature(getattr(equivalence, entry))
    at = 3 if entry == "check_fourpartite_equiv" else 2
    assert list(sig.bind(*[None] * at, SolverConfig()).arguments)[at] == "config", entry
    assert sig.parameters["config"].default is None, entry


def test_outcome_labels_real_solver_outcomes(spans):
    cut = Bipartition((1, 2), (3, 4))
    ghz = triple_state_set(make_state("ghz4"), cut)
    w = triple_state_set(make_state("w4"), cut)
    assert spans._outcome("solver", solve_ptilde(ghz, ghz)) == ("spectral", 0)
    assert spans._outcome("solver", solve_ptilde(w, ghz)) == ("exhausted", 0)
    found = solve_ptilde_single(ghz.u_full, ghz.u_full, ghz.r, (2, 2))
    exhausted = solve_ptilde_single(ghz.u_full, ghz.u_full, ghz.r, (2, 3))
    assert spans._outcome("solver", found) == ("spectral", 0)
    assert spans._outcome("solver", exhausted) == ("exhausted", 0)
