"""SLOCC equivalence checking for four-partite pure quantum states.

Decides whether two pure states of four parties are related by invertible
local operators. The decision pipeline decomposes both states into a
triple-state set across a chosen bipartition, screens them with sound
invariants, constructs candidate operators, one per party, from the two
singular frames in closed form, and accepts the first candidate that
re-verifies on the input amplitudes. Inequivalence is established only
through sound invariants; when no candidate verifies the verdict is
UNDECIDED.
"""

from .tensorops import (
    DEFAULT_RTOL,
    FactorizationError,
    fold,
    numerical_rank,
    qr,
    rank1_kron_factor,
    realign,
    svd,
    vectorize,
)
from .states import (
    CATALOG_NAMES,
    Bipartition,
    LocalOperatorTuple,
    PureState,
    STANDARD_CUTS,
    TripartiteState,
    apply_local_ops,
    contract_local_ops,
    make_state,
    read_state_file,
    states_proportional,
    write_state_file,
)
from .decomposition import (
    StateProfile,
    TripleStateSet,
    flatten_bipartition,
    triple_state_set,
)
from .invariants import (
    InequivalenceProof,
    TriClass,
    TriClassLabel,
    classify_tripartite_qubit,
    hyperdeterminant_222,
    invariant_screen,
    tripartite_as_pure_state,
)
from .solver import (
    SolveOutcome,
    SolveStatus,
    SolverConfig,
    solve_ptilde,
    solve_ptilde_single,
)
from .equivalence import (
    Certificate,
    EquivalenceStatus,
    EquivalenceVerdict,
    ProbeResult,
    ProbeStatus,
    RecoveryError,
    check_fourpartite_equiv,
    check_fourpartite_equiv_all_cuts,
    check_tripartite_equiv,
    rank_preservation_probe,
    recover_local_operators,
    verify_equivalence,
)
from .catalog import (
    GoldenCase,
    cluster_pair_operators,
    golden_cases,
    random_invertible_ops,
    random_orbit_case,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_RTOL",
    "FactorizationError",
    "fold",
    "numerical_rank",
    "qr",
    "rank1_kron_factor",
    "realign",
    "svd",
    "vectorize",
    "CATALOG_NAMES",
    "Bipartition",
    "LocalOperatorTuple",
    "PureState",
    "STANDARD_CUTS",
    "TripartiteState",
    "apply_local_ops",
    "contract_local_ops",
    "make_state",
    "read_state_file",
    "states_proportional",
    "write_state_file",
    "StateProfile",
    "TripleStateSet",
    "flatten_bipartition",
    "triple_state_set",
    "InequivalenceProof",
    "TriClass",
    "TriClassLabel",
    "classify_tripartite_qubit",
    "hyperdeterminant_222",
    "invariant_screen",
    "tripartite_as_pure_state",
    "SolveOutcome",
    "SolveStatus",
    "SolverConfig",
    "solve_ptilde",
    "solve_ptilde_single",
    "Certificate",
    "EquivalenceStatus",
    "EquivalenceVerdict",
    "ProbeResult",
    "ProbeStatus",
    "RecoveryError",
    "check_fourpartite_equiv",
    "check_fourpartite_equiv_all_cuts",
    "check_tripartite_equiv",
    "rank_preservation_probe",
    "recover_local_operators",
    "verify_equivalence",
    "GoldenCase",
    "cluster_pair_operators",
    "golden_cases",
    "random_invertible_ops",
    "random_orbit_case",
    "__version__",
]
