"""Cheap, sound inequivalence screens.

Two kinds of invariants are checked: matrix ranks of the state at every
two-party cut (and every single-party marginal), and, for qubit systems
whose triple-state factors are three-qubit states, the exact
SLOCC class of those factors (product / biseparable / W / GHZ), where
the hyperdeterminant, the discriminant of the slice pencil
``det(x T0 + y T1)``, tells GHZ from W. A proof from this module never
depends on search convergence; an empty result means nothing, only that
no cheap obstruction was found.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .decomposition import StateProfile, flatten_party
from .states import STANDARD_CUTS, Bipartition, PureState, TripartiteState
from .tensorops import DEFAULT_RTOL, numerical_rank, pencil_det_form, pow2_scaled


class TriClassLabel(Enum):
    PRODUCT = "PRODUCT"
    BISEP_A_BC = "BISEP_A_BC"
    BISEP_B_AC = "BISEP_B_AC"
    BISEP_C_AB = "BISEP_C_AB"
    W_CLASS = "W_CLASS"
    GHZ_CLASS = "GHZ_CLASS"


@dataclass(frozen=True)
class TriClass:
    """Three-qubit SLOCC class with the witnesses that decided it.

    ``hyperdet_magnitude`` is ``|Det(psi)| / |psi|^4``, the hyperdeterminant
    of the state scaled to unit norm: 1/4 for GHZ3, 0 on the W class.
    """

    label: TriClassLabel
    marginal_ranks: tuple[int, int, int]
    hyperdet_magnitude: float


@dataclass(frozen=True)
class InequivalenceProof:
    """A violated SLOCC invariant, with the two differing values.

    ``invariant`` is one of ``bipartition-rank``, ``marginal-rank`` or
    ``tripartite-class``; ``location`` names the cut, party or factor
    side it was found at.
    """

    invariant: str
    location: str
    value_a: object
    value_b: object
    description: str

    def to_dict(self) -> dict:
        return {
            "invariant": self.invariant,
            "location": self.location,
            "value_a": str(self.value_a),
            "value_b": str(self.value_b),
            "description": self.description,
        }


def hyperdeterminant_222(amps: np.ndarray) -> complex:
    """Cayley hyperdeterminant of a 2x2x2 tensor, ``b^2 - 4ac`` of its slice pencil.

    ``det(x T0 + y T1) = a x^2 + b x y + c y^2`` (Miyake, *PRA* 67, 012108,
    2003). Vanishes exactly on the closure of the W class; the GHZ state
    gives 1/4. Scales by det(A1)^2 det(A2)^2 det(A3)^2 under local operators.
    """
    t = np.asarray(amps, dtype=complex).reshape(2, 2, 2)
    a, b, c = pencil_det_form(t[0], t[1])
    return b * b - 4 * a * c


def classify_tripartite_qubit(state: PureState, tol: float = DEFAULT_RTOL) -> TriClass:
    """SLOCC class of a three-qubit pure state.

    Marginal ranks separate product and biseparable states; among the
    genuinely entangled ones the hyperdeterminant separates the GHZ
    class (nonzero) from the W class. ``tol`` sets both the rank cutoff
    and the zero threshold of the scale-free ``|Det(psi)| / |psi|^4``,
    the reported ``hyperdet_magnitude``, which is computed on the
    amplitudes scaled by a power of two, so no amplitude scale under- or
    overflows it.
    """
    if state.dims != (2, 2, 2):
        raise ValueError(f"three-qubit classification needs dims (2,2,2), got {state.dims}")
    ranks = tuple(numerical_rank(flatten_party(state, k), tol) for k in (1, 2, 3))
    amps = pow2_scaled(state.amps)[0]
    det_mag = abs(hyperdeterminant_222(amps)) / np.vdot(amps, amps).real ** 2
    if ranks == (1, 1, 1):
        label = TriClassLabel.PRODUCT
    elif ranks[0] == 1:
        label = TriClassLabel.BISEP_A_BC
    elif ranks[1] == 1:
        label = TriClassLabel.BISEP_B_AC
    elif ranks[2] == 1:
        label = TriClassLabel.BISEP_C_AB
    elif det_mag > tol:
        label = TriClassLabel.GHZ_CLASS
    else:
        label = TriClassLabel.W_CLASS
    return TriClass(label=label, marginal_ranks=ranks, hyperdet_magnitude=float(det_mag))


def class_proof(a: TriClass, b: TriClass, location: str) -> Optional[InequivalenceProof]:
    """The ``tripartite-class`` proof at ``location`` when two classes differ, else None."""
    if a.label is b.label:
        return None
    return InequivalenceProof(
        invariant="tripartite-class",
        location=location,
        value_a=a.label.value,
        value_b=b.label.value,
        description=f"triple-state {location} classifies {a.label.value} vs {b.label.value}",
    )


def tripartite_as_pure_state(t: TripartiteState) -> PureState:
    """View a slice tuple as an ordinary pure state (first party = slice index)."""
    rows, cols = t.slice_shape
    return PureState((t.r_dim, rows, cols), t.stacked().reshape(-1))


def invariant_screen(
    p1: StateProfile,
    p2: StateProfile,
    cut: Bipartition,
) -> Optional[InequivalenceProof]:
    """Look for a cheap invariant separating two profiled four-partite states.

    Checks, in order: bipartition ranks at all three cuts, single-party
    marginal ranks, and (for qubit states of rank 2 at ``cut``) the SLOCC
    classes of the triple-state factors at ``cut``, all at the profiles'
    ``rtol``. Only the class test decomposes the states, so a rank proof
    costs no singular vectors.
    Returns the first violation found, or None. None means no obstruction
    was found, never that the states are equivalent.
    """
    dims = p1.state.dims
    if dims != p2.state.dims:
        raise ValueError(f"states have different dims: {dims} vs {p2.state.dims}")
    if p1.rtol != p2.rtol:
        raise ValueError(f"profiles use different rtol: {p1.rtol} vs {p2.rtol}")

    for c in STANDARD_CUTS:
        ra, rb = p1.rank(c), p2.rank(c)
        if ra != rb:
            return InequivalenceProof(
                invariant="bipartition-rank",
                location=c.label,
                value_a=ra,
                value_b=rb,
                description=(
                    f"bipartition rank at cut {c.label} differs: {ra} vs {rb}"
                ),
            )

    for party in (1, 2, 3, 4):
        ra, rb = p1.marginal_rank(party), p2.marginal_rank(party)
        if ra != rb:
            return InequivalenceProof(
                invariant="marginal-rank",
                location=f"party {party}",
                value_a=ra,
                value_b=rb,
                description=f"marginal rank of party {party} differs: {ra} vs {rb}",
            )

    if all(d == 2 for d in dims) and p1.rank(cut) == 2:
        triple1 = p1.decomposition(cut)
        triple2 = p2.decomposition(cut)
        for side, f1, f2 in (
            ("u", triple1.psi_u, triple2.psi_u),
            ("v", triple1.psi_v, triple2.psi_v),
        ):
            proof = class_proof(
                classify_tripartite_qubit(tripartite_as_pure_state(f1), p1.rtol),
                classify_tripartite_qubit(tripartite_as_pure_state(f2), p2.rtol),
                f"factor {side} at cut {cut.label}",
            )
            if proof is not None:
                return proof
    return None
