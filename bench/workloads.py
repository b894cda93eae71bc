"""Seeded check workloads and the verdict oracle.

A workload is a repeating round of pairs. Each pair names the public check
entry point it goes through, carries the two generated states (the only
thing the program receives) and the set of verdicts its construction
allows. Round ``r`` of a workload under seed ``s`` depends only on
``(s, r)``, so the same seed always gives the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, FrozenSet, List, Optional, Tuple

import numpy as np

from slocceq import catalog, equivalence, states
from slocceq.equivalence import EquivalenceStatus as Status
from slocceq.invariants import tripartite_as_pure_state
from slocceq.solver import SolverConfig
from slocceq.states import STANDARD_CUTS, PureState, TripartiteState, contract_local_ops

CUT_12_34 = STANDARD_CUTS[0]

# Restart budget of every workload, below the CLI default of 64. A few in a
# thousand planted mixed-dimension orbits miss the spectral layer and
# exhaust the budget; at 64 restarts each one costs about 7 s, and their
# count per run alone swung orbit-spectral throughput by half between seeds.
# W3 and W4 orbits the engine decides at all, it decides mostly at restart 1
# or 2, so a budget of 2 rather than 8 loses few verdicts but lets
# engine-search fit about four times as many pairs in a run, which cuts the
# seed-to-seed spread of its decided count.
RESTARTS = 2

ORBIT = frozenset({Status.EQUIVALENT, Status.UNDECIDED})
NON_ORBIT = frozenset({Status.INEQUIVALENT, Status.UNDECIDED})
SCREENED = frozenset({Status.INEQUIVALENT})


@dataclass(frozen=True, eq=False)
class Pair:
    """One check call: entry point, inputs, solver config and allowed verdicts.

    ``entry`` is the name of a check function in :mod:`slocceq.equivalence`;
    it is looked up at call time so a traced run sees its wrappers.
    ``proof`` is the invariant kind an INEQUIVALENT verdict must carry, or
    None when any kind is acceptable.
    """

    kind: str
    entry: str
    s1: object
    s2: object
    config: SolverConfig
    allowed: FrozenSet[Status]
    proof: Optional[str] = None

    def run(self):
        fn = getattr(equivalence, self.entry)
        if self.entry == "check_fourpartite_equiv":
            return fn(self.s1, self.s2, CUT_12_34, self.config)
        return fn(self.s1, self.s2, self.config)


def _int_seed(*key: int) -> int:
    return int(np.random.SeedSequence(key).generate_state(1)[0])


def _orbit(state: PureState, key) -> PureState:
    """Image of ``state`` under random invertible local operators."""
    n = len(state.dims)
    dims = tuple(state.dims) + (2,) * (4 - n)
    ops = catalog.random_invertible_ops(dims, key).ops[:n]
    return PureState(state.dims, contract_local_ops(state.amps, state.dims, ops))


def _round10(state: PureState) -> PureState:
    """The state with every real and imaginary part written to 10 significant digits."""
    rounded = [complex(float(f"{z.real:.9e}"), float(f"{z.imag:.9e}")) for z in state.amps]
    return PureState(state.dims, np.array(rounded))


def _slices(state: PureState) -> TripartiteState:
    t = state.tensor()
    return TripartiteState(state.dims[0], tuple(t[i] for i in range(state.dims[0])))


def _product_on(party: int, core: PureState) -> PureState:
    """|0> on ``party`` (0-based) times a three-party ``core`` on the rest."""
    t = np.multiply.outer(np.array([1.0, 0.0]), core.tensor())
    return PureState((2, 2, 2, 2), np.moveaxis(t, 0, party).reshape(-1))


def _rank3_at_13_24(key: int) -> PureState:
    """Generic four-qubit state truncated to rank 3 across the 13-24 cut."""
    generic = catalog.random_orbit_case((2, 2, 2, 2), key)[0]
    m = np.transpose(generic.tensor(), (0, 2, 1, 3)).reshape(4, 4)
    u, s, vh = np.linalg.svd(m)
    m3 = (u[:, :3] * s[:3]) @ vh[:3]
    t = np.transpose(m3.reshape(2, 2, 2, 2), (0, 2, 1, 3))
    return PureState((2, 2, 2, 2), t.reshape(-1))


# -- pair makers: (seed, round, slot) -> Pair --------------------------------


def _config(key) -> SolverConfig:
    return SolverConfig(rng_seed=_int_seed(*key, 9), restarts=RESTARTS)


def _planted(dims, entry):
    kind = "orbit-" + "".join(str(d) for d in dims)

    def pair(key):
        state, image, _ = catalog.random_orbit_case(dims, _int_seed(*key))
        return Pair(kind, entry, image, state, _config(key), ORBIT)
    return pair


def _screened(kind, proof, left: Callable, right: Callable):
    def pair(key):
        s1 = _orbit(left(key), (*key, 1))
        s2 = _orbit(right(key), (*key, 2))
        return Pair(kind, "check_fourpartite_equiv_all_cuts", s1, s2, _config(key), SCREENED, proof)
    return pair


def _w4_orbit(key):
    w4 = states.make_state("w4")
    s1, s2 = _orbit(w4, (*key, 1)), _orbit(w4, (*key, 2))
    return Pair("w4-orbit", "check_fourpartite_equiv", s1, s2, _config(key), ORBIT)


def _w3_orbit(key):
    w3 = states.make_state("w3")
    t1, t2 = _slices(_orbit(w3, (*key, 1))), _slices(_orbit(w3, (*key, 2)))
    return Pair("w3-orbit", "check_tripartite_equiv", t1, t2, _config(key), ORBIT)


def _generic_pair(key):
    a = catalog.random_orbit_case((2, 2, 2, 2), _int_seed(*key, 1))[0]
    b = catalog.random_orbit_case((2, 2, 2, 2), _int_seed(*key, 2))[0]
    return Pair("generic-2222", "check_fourpartite_equiv", a, b, _config(key), NON_ORBIT)


def _rounded_orbit(key):
    state, image, _ = catalog.random_orbit_case((2, 2, 2, 2), _int_seed(*key))
    return Pair(
        "rounded-2222", "check_fourpartite_equiv", _round10(image), state, _config(key), ORBIT
    )


_o2222 = _planted((2, 2, 2, 2), "check_fourpartite_equiv")
_o2233 = _planted((2, 2, 3, 3), "check_fourpartite_equiv")
_o3322 = _planted((3, 3, 2, 2), "check_fourpartite_equiv")
_o2323_all_cuts = _planted((2, 3, 2, 3), "check_fourpartite_equiv_all_cuts")

_cluster_vs_ghz = _screened(
    "cluster-vs-ghz4", "bipartition-rank",
    lambda key: states.make_state("cluster1d"), lambda key: states.make_state("ghz4"),
)
_generic_vs_rank3 = _screened(
    "generic-vs-rank3", "bipartition-rank",
    lambda key: catalog.random_orbit_case((2, 2, 2, 2), _int_seed(*key, 3))[0],
    lambda key: _rank3_at_13_24(_int_seed(*key, 4)),
)
_product1_vs_product2 = _screened(
    "product1-vs-product2", "marginal-rank",
    lambda key: _product_on(0, states.make_state("ghz3")),
    lambda key: _product_on(1, states.make_state("ghz3")),
)
_ghz_vs_w = _screened(
    "ghz4-vs-w4", "tripartite-class",
    lambda key: states.make_state("ghz4"), lambda key: states.make_state("w4"),
)


@dataclass(frozen=True)
class Workload:
    """A named round of pair makers.

    ``round_s`` is the nominal wall time of one round, inputs included, on
    the reference machine; the traced run uses it to fix its round count, so
    the checks it makes depend on ``--seconds``, not on the program's speed.
    """

    name: str
    round: Tuple[Callable, ...]
    round_s: float

    def make_round(self, seed: int, r: int) -> List[Pair]:
        return [make((seed, r, slot)) for slot, make in enumerate(self.round)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "orbit-spectral",
            (_o2222, _o2233, _o2222, _o2222, _o3322, _o2222),
            0.06,
        ),
        Workload(
            "screen-reject",
            (_cluster_vs_ghz, _generic_vs_rank3, _product1_vs_product2, _ghz_vs_w),
            0.0125,
        ),
        Workload(
            "engine-search",
            (
                _o2323_all_cuts,
                _w4_orbit,
                _w3_orbit,
                _planted((2, 2, 2, 3), "check_fourpartite_equiv"),
                _rounded_orbit,
                _o2323_all_cuts,
                _planted((3, 3, 3, 3), "check_fourpartite_equiv"),
                _o2323_all_cuts,
                _generic_pair,
            ),
            1.7,
        ),
    )
}


def _raw(x) -> PureState:
    return tripartite_as_pure_state(x) if isinstance(x, TripartiteState) else x


# Bound at import, before a traced run rebinds the module attribute, so the
# oracle's re-verification is neither traced nor counted.
_verify = equivalence.verify_equivalence


def oracle_miss(pair: Pair, verdict) -> Optional[str]:
    """Why ``verdict`` is ruled out by the pair's construction, or None.

    Every EQUIVALENT certificate is re-verified against the raw inputs.
    """
    if verdict.status not in pair.allowed:
        return f"{pair.kind}: verdict {verdict.status.name} is not allowed"
    if verdict.status is Status.INEQUIVALENT and pair.proof is not None:
        if verdict.proof.invariant != pair.proof:
            return f"{pair.kind}: proof {verdict.proof.invariant}, expected {pair.proof}"
    if verdict.status is Status.EQUIVALENT:
        passed, _, resid = _verify(_raw(pair.s1), _raw(pair.s2), verdict.certificate.ops)
        if not passed:
            return f"{pair.kind}: certificate fails re-verification (residual {resid:.3e})"
    return None
