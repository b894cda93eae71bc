"""Equivalence decisions for four-partite and tripartite pure states.

Pipeline for the four-partite check: one :class:`StateProfile` of both
states, the invariant screen on it, closed-form construction of
candidate per-party operators from its two decompositions at a
common bipartition, and state-level verification of each candidate in
construction order. :func:`verify_equivalence` is the one acceptance
gate, four-party and tripartite alike: it pulls the candidates one at a
time, and the first that maps one state onto the other within
``verify_tol`` decides, so no later candidate is built.
However many cuts are screened and searched, the two states'
flattenings at a cut are factored by one stacked values-only SVD, and
their singular frames by at most one more, taken only when the class
screen or a rank-one or rank-two construction reads them. The single-cut and all-cuts checks run
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
from .invariants import InequivalenceProof, _tri_classes, first_violation, invariant_screen
from .solver import SolveOutcome, SolverConfig, solve_ptilde, solve_ptilde_single
from .states import (
    Bipartition,
    LocalOperatorTuple,
    PureState,
    STANDARD_CUTS,
    TripartiteState,
    contract_local_ops,
)
from .tensorops import DEFAULT_RTOL, _lead_phase, pow2_scaled, sigma_rank, svd

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
        z = np.linalg.norm(mats[k]) * _lead_phase(mats[k].reshape(-1, 1))[0]
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


def verify_equivalence(
    s1: Union[PureState, TripartiteState],
    s2: Union[PureState, TripartiteState],
    ops: Union[LocalOperatorTuple, Sequence[np.ndarray]],
    tol: float = DEFAULT_VERIFY_TOL,
) -> Tuple[bool, complex, float]:
    """Check whether ``ops`` maps ``s2`` onto ``s1`` up to a scalar.

    The package's one acceptance test, for :class:`PureState` and
    :class:`TripartiteState` (one-slice too) pairs. Applies one operator
    per party to ``s2``, fits the best complex scalar ``c`` in the
    least-squares sense, and accepts when the relative residual
    ``|c * image - s1| / |s1|`` is at most ``tol``. Each operator, ``s1``
    and the image are scaled exactly by powers of two first, so no scale
    over- or underflows the fit; ``c`` refers to the raw inputs. Dims
    that differ, an image of zero, or a ``c`` beyond the float range
    (overflowing or rounding to zero) fail with residual 1; a subnormal
    ``c`` passes.

    Returns
    -------
    (passed, scalar, residual)
    """
    if s1.dims != s2.dims:
        return False, 0.0 + 0.0j, 1.0
    mats = ops.ops if isinstance(ops, LocalOperatorTuple) else ops
    scaled, exps = zip(*(pow2_scaled(m) for m in mats))
    target, image = s1.amps, contract_local_ops(s2.amps, s2.dims, scaled)
    top_t, top_i = np.abs(target).max(), np.abs(image).max()
    if top_t == 0.0 or top_i == 0.0:
        return False, 0.0 + 0.0j, 1.0
    t, e_t = pow2_scaled(target, top_t)
    im, e_i = pow2_scaled(image, top_i)
    c = complex(np.vdot(im, t) / np.vdot(im, im).real)
    resid = float(np.linalg.norm(t - c * im)) / float(np.linalg.norm(t))
    shift = e_t - e_i - sum(exps)
    try:
        c = complex(math.ldexp(c.real, shift), math.ldexp(c.imag, shift))
    except OverflowError:
        c = 0.0 + 0.0j
    return (resid <= tol, c, resid) if c else (False, 0.0 + 0.0j, 1.0)


def _undecided(diagnostics: Dict[str, object]) -> EquivalenceVerdict:
    return EquivalenceVerdict(
        status=EquivalenceStatus.UNDECIDED, diagnostics=diagnostics
    )


def _cut_diagnostics(cut: Bipartition, rtol: float, verify_tol: float) -> Dict[str, object]:
    return {"cut": cut.label, "rtol": rtol, "verify_tol": verify_tol}


def _first_verified(
    outcome: SolveOutcome,
    recover,
    target,
    source,
    verify_tol: float,
    diagnostics: Dict[str, object],
    cut: Optional[Bipartition] = None,
) -> EquivalenceVerdict:
    """EQUIVALENT at the first candidate that verifies, else UNDECIDED.

    ``recover`` maps a candidate to its :class:`LocalOperatorTuple`, or
    raises :class:`RecoveryError` (singular operator: skipped). Only
    :func:`verify_equivalence` of ``target`` against ``source`` accepts.
    Candidates are pulled one at a time and none is built past the first
    that verifies. Records the number pulled, the accepted (else the
    best) residual and, when nothing verifies, the UNDECIDED stage:
    ``coupling_search`` when no candidate was built, ``verification``
    otherwise.
    """
    diagnostics["candidates"] = 0
    best = math.inf
    for candidate in outcome.candidates:
        diagnostics["candidates"] += 1
        try:
            ops = recover(candidate)
        except RecoveryError:
            continue
        passed, scalar, resid = verify_equivalence(target, source, ops, verify_tol)
        best = min(best, resid)
        if passed:
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

    One :class:`StateProfile` holds both states, for all cuts. One cut's
    UNDECIDED verdict is returned as it is; several cuts' diagnostics are
    merged under ``per_cut``.
    """
    if s1.num_parties != 4 or s2.num_parties != 4:
        raise ValueError("four-partite check requires four-party states")
    profile = StateProfile((s1, s2), rtol)
    for cut in cuts:
        proof = invariant_screen(profile, cut)
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
        verdict = _search_cut(profile, cut, config, verify_tol)
        if verdict.status is EquivalenceStatus.EQUIVALENT or len(cuts) == 1:
            return verdict
        per_cut[cut.label] = verdict.diagnostics
    return _undecided({"stage": "all_cuts", "per_cut": per_cut})


def _search_cut(
    profile: StateProfile,
    cut: Bipartition,
    config: SolverConfig,
    verify_tol: float,
) -> EquivalenceVerdict:
    """Construct and verify candidates at a cut; EQUIVALENT or UNDECIDED.

    The screen has passed, so both decompositions have the same rank at
    ``cut``. Each frame warning names its state, ``a`` (the target) or
    ``b`` (the source).
    """
    diagnostics = _cut_diagnostics(cut, profile.rtol, verify_tol)
    triple1, triple2 = triples = profile.decompositions(cut)
    warnings = [f"state {name}: {w}" for name, t in zip("ab", triples) for w in t.warnings]
    if warnings:
        diagnostics["frame_warnings"] = warnings

    def recover(candidate):  # looked up per call, as bench/spans.py rebinds it
        return recover_local_operators(cut, candidate)

    # s2 is the source (operators act on it), s1 is the target.
    outcome = solve_ptilde(triple2, triple1, config)
    return _first_verified(outcome, recover, *profile.states, verify_tol, diagnostics, cut)


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
    shape; one stacked SVD of both states' flattened slices gives their
    slice ranks and column frames. For two-qubit-slice pairs (shape (2, 2),
    two slices) the tripartite entanglement-class screen runs first, at
    ``rtol``, and can prove inequivalence. Otherwise the single-sided
    construction proposes slice-space operator pairs from the column
    frames; each is completed by a least-squares mixing operator on the
    slice index, gauged into a :class:`LocalOperatorTuple` (a singular
    operator drops the candidate) and verified on the two states by
    :func:`verify_equivalence`, and the first that verifies decides.

    The certificate operators ``(A_first, A_row, A_col)`` act per party:
    ``t1`` slices match ``scalar * sum_j A_first[i, j] * A_row @ t2_j @
    A_col.T`` within the verification tolerance. ``config`` is unused.
    """
    if t1.dims != t2.dims:
        raise ValueError(
            f"dimension mismatch: {t1.r_dim} slices of {t1.slice_shape} vs "
            f"{t2.r_dim} slices of {t2.slice_shape}"
        )
    r, i1, i2 = t1.dims
    # Row-major flattened slices as columns, each stack scaled by a power
    # of two so that the mixing operator carries no amplitude scale; t2 is
    # the source, t1 the target. One SVD gives both slice ranks and frames.
    w2, w1 = (pow2_scaled(t.stacked().reshape(r, -1).T)[0] for t in (t2, t1))
    frames, sigmas, _ = svd(np.stack([w2, w1]))
    if any(sigma_rank(s, rtol) < r for s in sigmas):
        raise ValueError("slices must be linearly independent for the check")

    diagnostics: Dict[str, object] = {"rtol": rtol, "verify_tol": verify_tol}
    if r == 2 and (i1, i2) == (2, 2):
        a, b = (c.label.value for c in _tri_classes(np.stack([t1.stacked(), t2.stacked()]), rtol))
        diagnostics.update(class_a=a, class_b=b)
        proof = first_violation([("tripartite-class", "three-qubit states", a, b)])
        if proof is not None:
            return EquivalenceVerdict(
                status=EquivalenceStatus.INEQUIVALENT,
                proof=proof,
                diagnostics=diagnostics,
            )

    def recover(candidate):
        a_row, a_col = candidate
        # Mixing operator on the slice index from the least-squares fit of
        # the mapped source stack onto the target stack.
        a_first = np.linalg.lstsq(np.kron(a_row, a_col) @ w2, w1, rcond=None)[0].T
        return _local_operators([a_first, a_row, a_col])

    outcome = solve_ptilde_single(frames[0], frames[1], r, (i1, i2))
    return _first_verified(outcome, recover, t1, t2, verify_tol, diagnostics)

