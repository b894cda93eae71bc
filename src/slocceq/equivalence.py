"""Equivalence decisions for four-partite and tripartite pure states.

Pipeline for the four-partite check: one :class:`StateProfile` per state,
the invariant screen on the two profiles, closed-form construction of
candidate per-party operators from the profiles' decompositions at a
common bipartition, and state-level verification of each candidate in
construction order. Verification is the only acceptance gate: it pulls
the candidates one at a time, and the first that maps one state onto the
other within ``verify_tol`` decides, so no later candidate is built.
However many cuts are screened and searched, each state's flattening
at a cut is factored by one values-only SVD, and its singular frames by
at most one more, taken only when the class screen or a rank-one or
rank-two construction reads them. The single-cut and all-cuts checks run
one loop over their cuts: screen every cut, then search them in order.
Every candidate, four-party or tripartite, becomes a
:class:`LocalOperatorTuple` before it is verified; that type's
invertibility rule is the only one a candidate meets.
A verdict is three-valued: EQUIVALENT carries an operator certificate
that has been re-verified on the input states, INEQUIVALENT carries an
invariant proof, and UNDECIDED carries diagnostics only, with stage
``coupling_search`` when no candidate was built and ``verification``
when none of the built ones verified.
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
    class_proof,
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
from .tensorops import DEFAULT_RTOL, _lead_phase, qr, vectorize

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
    ``residual``. ``ops`` is a :class:`LocalOperatorTuple`, one operator
    per party: four for four-partite checks, where ``cut`` records the
    bipartition the certificate was derived at, and ``(A_first, A_row,
    A_col)`` for tripartite checks, which record no cut.
    """

    ops: LocalOperatorTuple
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
    positive leading entry; the last absorbs the removed scale. A zero
    operator is left as it is, for :class:`LocalOperatorTuple` to reject.
    """
    mats = list(mats)
    carry = 1.0 + 0.0j
    for k in range(len(mats) - 1):
        z = np.linalg.norm(mats[k]) * _lead_phase(mats[k].reshape(-1))
        if z:
            mats[k] = mats[k] / z
            carry *= z
    mats[-1] = mats[-1] * carry
    return mats


def _local_operators(mats) -> LocalOperatorTuple:
    """Gauged :class:`LocalOperatorTuple` of ``mats``, in party order.

    Raises
    ------
    RecoveryError
        If an operator is numerically singular.
    """
    try:
        return LocalOperatorTuple(tuple(_gauge(mats)))
    except ValueError as exc:
        raise RecoveryError(f"recovered operator is singular: {exc}") from exc


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
    return _local_operators([by_party[k] for k in (1, 2, 3, 4)])


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
    mats = ops.ops if isinstance(ops, LocalOperatorTuple) else ops
    image = contract_local_ops(s2.amps, s2.dims, mats)
    c, resid = _best_scalar(s1.amps, image)
    return resid <= tol, c, resid


def _undecided(diagnostics: Dict[str, object]) -> EquivalenceVerdict:
    return EquivalenceVerdict(
        status=EquivalenceStatus.UNDECIDED, diagnostics=diagnostics
    )


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
    None when :class:`LocalOperatorTuple` rejects its operators as
    singular. Candidates are pulled one at a time and none is built past
    the first that verifies. Records the
    number pulled, the accepted (else the best) residual and, when nothing
    verifies, the UNDECIDED stage: ``coupling_search`` when no candidate
    was built, ``verification`` otherwise.
    """
    diagnostics["candidates"] = 0
    best = math.inf
    for candidate in outcome.candidates:
        diagnostics["candidates"] += 1
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
    diagnostics["stage"] = "verification" if diagnostics["candidates"] else "coupling_search"
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
    return _check_cuts(s1, s2, (cut,), config, rtol, verify_tol)


def _check_cuts(s1, s2, cuts: Tuple[Bipartition, ...], config, rtol, verify_tol):
    """The one check loop: screen every cut, then search the cuts in order.

    Both states are profiled once for all cuts. One cut's UNDECIDED
    verdict is returned as it is; several cuts' diagnostics are merged
    under ``per_cut``.
    """
    if s1.num_parties != 4 or s2.num_parties != 4:
        raise ValueError("four-partite check requires four-party states")
    if s1.dims != s2.dims:
        raise ValueError(f"dimension mismatch: {s1.dims} vs {s2.dims}")
    p1, p2 = StateProfile(s1, rtol), StateProfile(s2, rtol)
    for cut in cuts:
        proof = invariant_screen(p1, p2, cut)
        if proof is not None:
            diagnostics = _cut_diagnostics(cut, rtol, verify_tol)
            diagnostics["stage"] = "invariant_screen"
            return EquivalenceVerdict(
                status=EquivalenceStatus.INEQUIVALENT,
                proof=proof,
                diagnostics=diagnostics,
            )

    per_cut: Dict[str, object] = {}
    for cut in cuts:
        verdict = _search_cut(p1, p2, cut, config, verify_tol)
        if verdict.status is EquivalenceStatus.EQUIVALENT or len(cuts) == 1:
            return verdict
        per_cut[cut.label] = verdict.diagnostics
    return _undecided({"stage": "all_cuts", "per_cut": per_cut})


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
    return _check_cuts(s1, s2, STANDARD_CUTS, config, rtol, verify_tol)


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
    slice index, gauged into a :class:`LocalOperatorTuple` (a singular
    operator drops the candidate) and verified on the stacked slices, and
    the first that verifies decides.

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
        proof = class_proof(class1, class2, "three-qubit states")
        if proof is not None:
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
        try:
            ops = _local_operators([a_first, a_row, a_col])
        except RecoveryError:
            return None
        image = contract_local_ops(t2.stacked(), (r, i1, i2), ops.ops)
        scalar, resid = _best_scalar(t1.stacked().reshape(-1), image)
        return ops, scalar, resid

    outcome = solve_ptilde_single(qr(w2)[0], qr(w1)[0], r, (i2, i1), config)
    return _first_verified(outcome, verify, verify_tol, diagnostics)

