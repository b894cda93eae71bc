"""Equivalence decisions for four-partite and tripartite pure states.

Pipeline for the four-partite check: one :class:`StateProfile` per state,
the invariant screen on the two profiles, closed-form construction of
candidate per-party operators from the profiles' singular frames at a
common bipartition, and state-level verification of each candidate in
construction order. Verification is the only acceptance gate: the first
candidate that maps one state onto the other within ``verify_tol``
decides. Each state is decomposed at most once per cut, however many cuts
are screened and searched. A verdict is three-valued: EQUIVALENT carries
an operator certificate that has been re-verified on the input states,
INEQUIVALENT carries an invariant proof, and UNDECIDED carries
diagnostics only, with stage ``coupling_search`` when no candidate was
built and ``verification`` when none of the built ones verified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from .decomposition import StateProfile
from .decomposition import triple_state_set  # noqa: F401 (bench/spans.py rebinds it here)
from .invariants import (
    InequivalenceProof,
    classify_tripartite_qubit,
    invariant_screen,
    tripartite_as_pure_state,
)
from .solver import SolveOutcome, SolverConfig, solve_ptilde, solve_ptilde_single
from .states import (
    Bipartition,
    LocalOperatorTuple,
    PureState,
    STANDARD_CUTS,
    TripartiteState,
    contract_local_ops,
)
from .tensorops import DEFAULT_RTOL, _lead_phase, fold, numerical_rank, vectorize

__all__ = [
    "EquivalenceStatus",
    "Certificate",
    "EquivalenceVerdict",
    "RecoveryError",
    "recover_local_operators",
    "verify_equivalence",
    "check_fourpartite_equiv",
    "check_fourpartite_equiv_all_cuts",
    "check_tripartite_equiv",
    "ProbeStatus",
    "ProbeResult",
    "rank_preservation_probe",
]

DEFAULT_VERIFY_TOL = 1e-8


class EquivalenceStatus(Enum):
    """Outcome of an equivalence check."""

    EQUIVALENT = "equivalent"
    INEQUIVALENT = "inequivalent"
    UNDECIDED = "undecided"


class RecoveryError(ValueError):
    """Raised when a candidate's factors do not form invertible local operators."""


@dataclass(frozen=True, eq=False)
class Certificate:
    """Verified local-operator witness of equivalence.

    ``ops`` maps the second (source) state onto the first (target) state:
    ``target ~ scalar * (ops applied to source)`` with relative error
    ``residual``. For four-partite checks ``ops`` is a
    :class:`LocalOperatorTuple` and ``cut`` records the bipartition the
    certificate was derived at; tripartite certificates store a plain
    3-tuple of matrices and no cut.
    """

    ops: Union[LocalOperatorTuple, Tuple[np.ndarray, ...]]
    scalar: complex
    residual: float
    cut: Optional[Bipartition] = None


@dataclass(frozen=True, eq=False)
class EquivalenceVerdict:
    """Three-valued equivalence decision with supporting evidence."""

    status: EquivalenceStatus
    certificate: Optional[Certificate] = None
    proof: Optional[InequivalenceProof] = None
    diagnostics: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.status is EquivalenceStatus.EQUIVALENT:
            if self.certificate is None or self.proof is not None:
                raise ValueError("EQUIVALENT verdict requires a certificate only")
        elif self.status is EquivalenceStatus.INEQUIVALENT:
            if self.proof is None or self.certificate is not None:
                raise ValueError("INEQUIVALENT verdict requires a proof only")
        else:
            if self.certificate is not None or self.proof is not None:
                raise ValueError("UNDECIDED verdict carries no evidence")


def _gauge(mats):
    """Fix the scale and phase of each operator, keeping their tensor product.

    Every operator but the last gets unit Frobenius norm and a real
    positive leading entry; the last absorbs the removed scale.
    """
    mats = list(mats)
    carry = 1.0 + 0.0j
    for k in range(len(mats) - 1):
        z = np.linalg.norm(mats[k]) * _lead_phase(mats[k].reshape(-1))
        mats[k] = mats[k] / z
        carry *= z
    mats[-1] = mats[-1] * carry
    return mats


def recover_local_operators(
    cut: Bipartition, candidate: Sequence[np.ndarray]
) -> LocalOperatorTuple:
    """Party-ordered, gauged local operators from a candidate's factors.

    ``candidate`` is ``(A_l1, A_l2, A_r1, A_r2)``, the factors of
    :func:`solve_ptilde` for the parties ``cut.left + cut.right``. The
    first three operators of the result have unit Frobenius norm with a
    real positive leading entry; the remaining scale sits in the last.

    Raises
    ------
    RecoveryError
        If a recovered operator is numerically singular.
    """
    by_party = dict(zip(cut.left + cut.right, candidate))
    try:
        return LocalOperatorTuple(tuple(_gauge([by_party[k] for k in (1, 2, 3, 4)])))
    except ValueError as exc:
        raise RecoveryError(f"recovered operator is singular: {exc}") from exc


def _best_scalar(target: np.ndarray, image: np.ndarray) -> Tuple[complex, float]:
    """Least-squares scalar c and relative residual of target - c * image."""
    denom = np.vdot(image, image).real
    target_norm = float(np.linalg.norm(target))
    if denom <= 0.0 or target_norm == 0.0:
        return 0.0 + 0.0j, 1.0
    c = np.vdot(image, target) / denom
    resid = float(np.linalg.norm(target - c * image)) / target_norm
    return complex(c), resid


def verify_equivalence(
    s1: PureState,
    s2: PureState,
    ops: Union[LocalOperatorTuple, Sequence[np.ndarray]],
    tol: float = DEFAULT_VERIFY_TOL,
) -> Tuple[bool, complex, float]:
    """Check whether ``ops`` maps ``s2`` onto ``s1`` up to a scalar.

    Applies one operator per party to ``s2``, fits the best complex scalar
    ``c`` in the least-squares sense, and accepts when the relative
    residual ``|c * image - s1| / |s1|`` is at most ``tol``. Degenerate
    operators that annihilate ``s2`` fail cleanly with residual 1.

    Returns
    -------
    (passed, scalar, residual)
    """
    if s1.dims != s2.dims:
        return False, 0.0 + 0.0j, 1.0
    mats = ops.ops if isinstance(ops, LocalOperatorTuple) else tuple(
        np.asarray(m, dtype=complex) for m in ops
    )
    image = contract_local_ops(s2.amps, s2.dims, mats)
    c, resid = _best_scalar(s1.amps, image)
    return resid <= tol, c, resid


def _undecided(diagnostics: Dict[str, object]) -> EquivalenceVerdict:
    return EquivalenceVerdict(
        status=EquivalenceStatus.UNDECIDED, diagnostics=diagnostics
    )


def _profiles(s1: PureState, s2: PureState, rtol: float):
    if s1.num_parties != 4 or s2.num_parties != 4:
        raise ValueError("four-partite check requires four-party states")
    if s1.dims != s2.dims:
        raise ValueError(f"dimension mismatch: {s1.dims} vs {s2.dims}")
    return StateProfile(s1, rtol), StateProfile(s2, rtol)


def _cut_diagnostics(cut: Bipartition, rtol: float, verify_tol: float) -> Dict[str, object]:
    return {"cut": cut.label, "rtol": rtol, "verify_tol": verify_tol}


def _first_verified(
    outcome: SolveOutcome,
    verify,
    verify_tol: float,
    diagnostics: Dict[str, object],
    cut: Optional[Bipartition] = None,
) -> EquivalenceVerdict:
    """EQUIVALENT at the first candidate that verifies, else UNDECIDED.

    ``verify`` maps a candidate to its ``(ops, scalar, residual)``, or to
    None when the candidate yields no operators. Records the candidate
    count, the accepted (else the best) residual and, when nothing
    verifies, the UNDECIDED stage.
    """
    diagnostics["candidates"] = len(outcome.candidates)
    best = math.inf
    for candidate in outcome.candidates:
        got = verify(candidate)
        if got is None:
            continue
        ops, scalar, resid = got
        best = min(best, resid)
        if resid <= verify_tol:
            diagnostics["verify_residual"] = resid
            return EquivalenceVerdict(
                status=EquivalenceStatus.EQUIVALENT,
                certificate=Certificate(ops=ops, scalar=scalar, residual=resid, cut=cut),
                diagnostics=diagnostics,
            )
    if best < math.inf:
        diagnostics["verify_residual"] = best
    diagnostics["stage"] = "verification" if outcome.candidates else "coupling_search"
    return _undecided(diagnostics)


def check_fourpartite_equiv(
    s1: PureState,
    s2: PureState,
    cut: Bipartition,
    config: SolverConfig,
    rtol: float = DEFAULT_RTOL,
    verify_tol: float = DEFAULT_VERIFY_TOL,
) -> EquivalenceVerdict:
    """Decide SLOCC equivalence of two four-partite states at one cut.

    The certificate, when found, maps ``s2`` onto ``s1``. The check is
    sound in both decisive directions: INEQUIVALENT verdicts carry an
    invariant proof recomputable from the states alone, EQUIVALENT
    verdicts carry operators re-verified on the input amplitudes at
    ``verify_tol``. Search failure yields UNDECIDED, never INEQUIVALENT.
    """
    p1, p2 = _profiles(s1, s2, rtol)
    proof = invariant_screen(p1, p2, cut)
    if proof is not None:
        diagnostics = _cut_diagnostics(cut, rtol, verify_tol)
        diagnostics["stage"] = "invariant_screen"
        return EquivalenceVerdict(
            status=EquivalenceStatus.INEQUIVALENT,
            proof=proof,
            diagnostics=diagnostics,
        )
    return _search_cut(p1, p2, cut, config, verify_tol)


def _search_cut(
    p1: StateProfile,
    p2: StateProfile,
    cut: Bipartition,
    config: SolverConfig,
    verify_tol: float,
) -> EquivalenceVerdict:
    """Construct and verify candidates at a cut; EQUIVALENT or UNDECIDED.

    The screen has passed, so both decompositions have the same rank at ``cut``.
    """
    diagnostics = _cut_diagnostics(cut, p1.rtol, verify_tol)
    triple1 = p1.decomposition(cut)
    triple2 = p2.decomposition(cut)
    warnings = list(triple1.warnings) + list(triple2.warnings)
    if warnings:
        diagnostics["frame_warnings"] = warnings

    def verify(candidate):
        try:
            ops = recover_local_operators(cut, candidate)
        except RecoveryError:
            return None
        _, scalar, resid = verify_equivalence(p1.state, p2.state, ops, verify_tol)
        return ops, scalar, resid

    # s2 is the source (operators act on it), s1 is the target.
    outcome = solve_ptilde(triple2, triple1, config)
    return _first_verified(outcome, verify, verify_tol, diagnostics, cut)


def check_fourpartite_equiv_all_cuts(
    s1: PureState,
    s2: PureState,
    config: SolverConfig,
    rtol: float = DEFAULT_RTOL,
    verify_tol: float = DEFAULT_VERIFY_TOL,
) -> EquivalenceVerdict:
    """Try all three balanced bipartitions and merge the verdicts.

    The screen runs once per cut, and a proof at any cut decides
    INEQUIVALENT before any search runs. The cuts are then searched in
    order on the same profiles; the first cut whose certificate verifies
    decides EQUIVALENT. Otherwise the UNDECIDED verdict holds each cut's
    diagnostics under ``per_cut``.
    """
    p1, p2 = _profiles(s1, s2, rtol)
    for cut in STANDARD_CUTS:
        proof = invariant_screen(p1, p2, cut)
        if proof is not None:
            return EquivalenceVerdict(
                status=EquivalenceStatus.INEQUIVALENT,
                proof=proof,
                diagnostics={"cut": cut.label, "stage": "invariant_screen"},
            )

    per_cut: Dict[str, object] = {}
    for cut in STANDARD_CUTS:
        verdict = _search_cut(p1, p2, cut, config, verify_tol)
        if verdict.status is EquivalenceStatus.EQUIVALENT:
            return verdict
        per_cut[cut.label] = verdict.diagnostics
    return _undecided({"stage": "all_cuts", "per_cut": per_cut})


def _complete_frame(columns: np.ndarray) -> np.ndarray:
    """Unitary completion of a tall column stack, gauged deterministically.

    Returns a square unitary whose first ``k`` columns span the input
    columns, with the triangular factor's diagonal phased real positive.
    """
    n, k = columns.shape
    q, r = np.linalg.qr(columns, mode="complete")
    for j in range(k):
        d = r[j, j]
        if abs(d) > 0.0:
            q[:, j] = q[:, j] * (d / abs(d))
    return q


def check_tripartite_equiv(
    t1: TripartiteState,
    t2: TripartiteState,
    config: SolverConfig,
    rtol: float = DEFAULT_RTOL,
    verify_tol: float = DEFAULT_VERIFY_TOL,
) -> EquivalenceVerdict:
    """Decide SLOCC equivalence of two tripartite states in slice form.

    Both states must have linearly independent slices of equal count and
    shape. For two-qubit-slice pairs (shape (2, 2), two slices) the
    tripartite entanglement-class screen runs first, at ``rtol``, and can
    prove inequivalence. Otherwise the single-sided construction proposes
    slice-space operator pairs from the column frames of the vectorized
    slices; each is completed by a least-squares mixing operator on the
    slice index and verified slice-wise, and the first that verifies
    decides.

    The certificate operators ``(A_first, A_row, A_col)`` act per party:
    ``t1`` slices match ``scalar * sum_j A_first[i, j] * A_row @ t2_j @
    A_col.T`` within the verification tolerance.
    """
    if t1.slice_shape != t2.slice_shape or t1.r_dim != t2.r_dim:
        raise ValueError(
            f"dimension mismatch: {t1.r_dim} slices of {t1.slice_shape} vs "
            f"{t2.r_dim} slices of {t2.slice_shape}"
        )
    if t1.slice_rank(rtol) < t1.r_dim or t2.slice_rank(rtol) < t2.r_dim:
        raise ValueError("slices must be linearly independent for the check")

    i1, i2 = t1.slice_shape
    r = t1.r_dim
    diagnostics: Dict[str, object] = {"rtol": rtol, "verify_tol": verify_tol}

    if r == 2 and (i1, i2) == (2, 2):
        class1 = classify_tripartite_qubit(tripartite_as_pure_state(t1), rtol)
        class2 = classify_tripartite_qubit(tripartite_as_pure_state(t2), rtol)
        diagnostics["class_a"] = class1.label.name
        diagnostics["class_b"] = class2.label.name
        if class1.label != class2.label:
            proof = InequivalenceProof(
                invariant="tripartite-class",
                location="three-qubit states",
                value_a=class1.label.name,
                value_b=class2.label.name,
                description=(
                    f"entanglement classes differ: {class1.label.name} vs "
                    f"{class2.label.name}"
                ),
            )
            return EquivalenceVerdict(
                status=EquivalenceStatus.INEQUIVALENT,
                proof=proof,
                diagnostics=diagnostics,
            )

    # Column stacks of vectorized slices; t2 is the source, t1 the target.
    w2 = np.column_stack([vectorize(s) for s in t2.slices])
    w1 = np.column_stack([vectorize(s) for s in t1.slices])

    def verify(candidate):
        a_col, a_row = candidate
        # Mixing operator on the slice index from the least-squares fit of
        # the mapped source stack onto the target stack.
        a_first = np.linalg.lstsq(np.kron(a_col, a_row) @ w2, w1, rcond=None)[0].T
        if numerical_rank(a_first, rtol) < r:
            return None
        ops = tuple(_gauge([a_first, a_row, a_col]))
        image = np.tensordot(ops[0], ops[1] @ t2.stacked() @ ops[2].T, axes=([1], [0]))
        scalar, resid = _best_scalar(t1.stacked().reshape(-1), image.reshape(-1))
        return ops, scalar, resid

    outcome = solve_ptilde_single(
        _complete_frame(w2), _complete_frame(w1), r, (i2, i1), config
    )
    return _first_verified(outcome, verify, verify_tol, diagnostics)


class ProbeStatus(Enum):
    """Outcome of the randomized rank-preservation probe."""

    CONSISTENT = "consistent"
    VIOLATED = "violated"


@dataclass(frozen=True, eq=False)
class ProbeResult:
    """Result of :func:`rank_preservation_probe`.

    ``witness`` is a vector whose fold rank changes under the map when the
    probe found a violation; ``checked`` counts the samples examined.
    """

    status: ProbeStatus
    witness: Optional[np.ndarray]
    checked: int
    rank_input: Optional[int] = None
    rank_image: Optional[int] = None


def rank_preservation_probe(
    phi: np.ndarray,
    i1: int,
    i2: int,
    samples: int = 64,
    seed: int = 0,
    rtol: float = DEFAULT_RTOL,
) -> ProbeResult:
    """Randomized necessary-condition test for per-party linear maps.

    A map of the form B (x) C, possibly composed with the fold-transpose,
    preserves the rank of ``fold(a, i1, i2)`` for every vector ``a``. The
    probe draws random vectors stratified by fold rank (rank k built as a
    sum of k outer products) and compares the fold rank before and after
    applying ``phi``. The first discrepancy is returned as a witness;
    exhausting the samples is evidence of consistency, not proof.
    """
    phi = np.asarray(phi, dtype=complex)
    n = i1 * i2
    if phi.shape != (n, n):
        raise ValueError(f"map has shape {phi.shape}, expected {(n, n)}")
    if samples < 1:
        raise ValueError("samples must be at least 1")

    rng = np.random.default_rng(seed)
    kmax = min(i1, i2)

    def draw(shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)

    for index in range(samples):
        k = (index % kmax) + 1
        a = np.zeros(n, dtype=complex)
        for _ in range(k):
            a += np.kron(draw(i2), draw(i1))
        rank_in = numerical_rank(fold(a, i1, i2), rtol)
        rank_out = numerical_rank(fold(phi @ a, i1, i2), rtol)
        if rank_in != rank_out:
            return ProbeResult(
                status=ProbeStatus.VIOLATED,
                witness=a,
                checked=index + 1,
                rank_input=rank_in,
                rank_image=rank_out,
            )
    return ProbeResult(status=ProbeStatus.CONSISTENT, witness=None, checked=samples)
