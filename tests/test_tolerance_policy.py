"""Every threshold in the package is bound once, in ``tensorops``, and listed in its table.

A float literal in (0, 1e-3) is almost always a tolerance. Each one in the
package must be the value of a module-level UPPER_CASE constant bound in
``tensorops``, whose docstring table lists every such constant with its
value, what it compares and the only outcome it can change. No other
module binds a name the table lists, so the policy is read, and changed,
in one place. The table's claim that only ``DEFAULT_RTOL`` can yield an
INEQUIVALENT proof is checked by scaling the construction tolerances.
"""

import ast
import importlib
import re
from pathlib import Path

import numpy as np
import pytest

import slocceq
from slocceq import solver, tensorops
from slocceq.catalog import random_orbit_case
from slocceq.equivalence import (
    EquivalenceStatus,
    check_fourpartite_equiv,
    check_fourpartite_equiv_all_cuts,
    check_tripartite_equiv,
)
from slocceq.solver import SolverConfig
from slocceq.states import Bipartition, PureState, make_state

PACKAGE = Path(slocceq.__file__).resolve().parent
BENCH = Path(__file__).resolve().parents[1] / "bench"
HOME = "tensorops.py"


def table(doc: str) -> dict:
    """``{constant: value}`` of the rows ``| ``NAME`` | value | ...`` of a docstring table."""
    return {name: float(value) for name, value in re.findall(r"^\| ``(\w+)`` \| ([^|]+) \|", doc, re.M)}


def thresholds(module) -> dict:
    """The module-level UPPER_CASE numbers of ``module``, by name."""
    return {
        name: value
        for name, value in vars(module).items()
        if name.isupper() and isinstance(value, (int, float)) and not isinstance(value, bool)
    }


def named_constant_values(tree: ast.Module) -> set:
    """Ids of the literal nodes assigned to module-level UPPER_CASE names."""
    ids = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign):
            targets, value = [node.target], node.value
        else:
            continue
        if isinstance(value, ast.Constant) and all(
            isinstance(t, ast.Name) and t.id.isupper() for t in targets
        ):
            ids.add(id(value))
    return ids


def unnamed_tolerances(source: str, home: bool = True) -> list:
    """``(line, value)`` of each float literal in (0, 1e-3) that is no threshold's value.

    Only in ``tensorops`` (``home``) does a module-level UPPER_CASE
    constant count as a threshold's value.
    """
    tree = ast.parse(source)
    named = named_constant_values(tree) if home else set()
    return [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0.0 < node.value < 1e-3
        and id(node) not in named
    ]


def rebound(source: str, names) -> list:
    """``(line, name)`` of each assignment, at any depth, to one of ``names``."""
    return [
        (node.lineno, node.id)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and node.id in names
    ]


def modules():
    paths = sorted(PACKAGE.glob("*.py"))
    assert len(paths) >= 9
    return {path.name: path.read_text(encoding="utf-8") for path in paths}


def test_no_unnamed_tolerance_literals():
    found = {
        name: hits
        for name, source in modules().items()
        if (hits := unnamed_tolerances(source, home=name == HOME))
    }
    assert found == {}


def test_table_lists_exactly_the_tensorops_thresholds():
    assert list(table(tensorops.__doc__).items()) == list(thresholds(tensorops).items())


def test_no_other_module_binds_a_tabled_threshold():
    names = table(tensorops.__doc__).keys()
    found = {
        name: hits
        for name, source in modules().items()
        if name != HOME and (hits := rebound(source, names))
    }
    assert found == {}


def test_guard_catches_an_inline_tolerance():
    source = "EPS = 1e-9\n\ndef f(x, tol=1e-8):\n    return x < 1e-12 and x > EPS\n"
    assert unnamed_tolerances(source) == [(3, 1e-8), (4, 1e-12)]
    assert unnamed_tolerances("class C:\n    TOL = 1e-6\n") == [(2, 1e-6)]


def test_guard_catches_a_threshold_bound_outside_tensorops():
    assert unnamed_tolerances("EPS = 1e-9\n", home=False) == [(1, 1e-9)]
    source = "POLAR_STEPS = 30\n\ndef f():\n    POLAR_TOL = 1\n    return POLAR_TOL\n"
    assert rebound(source, {"POLAR_TOL", "POLAR_STEPS"}) == [(1, "POLAR_STEPS"), (4, "POLAR_TOL")]
    assert rebound("from .tensorops import POLAR_TOL\n", {"POLAR_TOL"}) == []


# -- only DEFAULT_RTOL decides proofs ----------------------------------------

CONFIG = SolverConfig(rng_seed=0)
CUT_12_34 = Bipartition((1, 2), (3, 4))


@pytest.fixture(scope="module")
def workloads():
    mp = pytest.MonkeyPatch()
    mp.syspath_prepend(str(BENCH))
    yield importlib.import_module("workloads")
    mp.undo()


def with_smallest(seed, sigma):
    """A generic four-qubit state whose singular values at 12-34 are ``(1, 0.5, 0.3, sigma)``."""
    m = random_orbit_case((2, 2, 2, 2), seed)[0].tensor().reshape(4, 4)
    u, _, vh = np.linalg.svd(m)
    return PureState((2, 2, 2, 2), ((u * [1.0, 0.5, 0.3, sigma]) @ vh).reshape(-1))


def proofs(workloads):
    """Proof fields of each ``screen-reject`` kind, of GHZ3 against W3, and of a pair on the cutoff.

    The last pair's smallest singular values at 12-34 sit a factor 30
    either side of ``DEFAULT_RTOL``, so a rank rule that read any other
    threshold, scaled by 1e3 or 1e-3, would lose its proof.
    """
    verdicts = [pair.run() for pair in workloads.WORKLOADS["screen-reject"].make_round(1, 0)]
    ghz3, w3 = (workloads._orbit(make_state(name), (0, k)) for k, name in enumerate(("ghz3", "w3")))
    verdicts.append(check_tripartite_equiv(workloads._slices(ghz3), workloads._slices(w3), CONFIG))
    s1, s2 = with_smallest(0, 3e-8), with_smallest(1, 3e-11)
    verdicts.append(check_fourpartite_equiv_all_cuts(s1, s2, CONFIG))
    return [
        None if v.proof is None
        else (v.proof.invariant, v.proof.location, str(v.proof.value_a), str(v.proof.value_b))
        for v in verdicts
    ]


@pytest.fixture(scope="module")
def unscaled_proofs(workloads):
    return proofs(workloads)


def test_unscaled_proofs_cover_every_kind(unscaled_proofs):
    kinds = {kind for kind, *_ in unscaled_proofs}
    assert kinds == {"bipartition-rank", "marginal-rank", "tripartite-class"}
    assert unscaled_proofs[-1] == ("bipartition-rank", "12-34", "4", "3")


@pytest.mark.parametrize("factor", [1e3, 1e-3])
@pytest.mark.parametrize("name", ["CONSTRUCTION_RTOL", "PENCIL_RTOL", "POLAR_TOL"])
def test_construction_tolerances_change_no_proof(monkeypatch, workloads, unscaled_proofs, name, factor):
    monkeypatch.setattr(solver, name, getattr(tensorops, name) * factor)
    assert proofs(workloads) == unscaled_proofs
    for dims in ((2, 2, 2, 2), (2, 2, 3, 3)):
        for seed in range(5):
            state, image, _ = random_orbit_case(dims, seed)
            for verdict in (
                check_fourpartite_equiv(image, state, CUT_12_34, CONFIG),
                check_fourpartite_equiv_all_cuts(image, state, CONFIG),
            ):
                assert verdict.status is not EquivalenceStatus.INEQUIVALENT, (dims, seed)
