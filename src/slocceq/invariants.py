"""Cheap, sound inequivalence screens.

Two kinds of invariants are checked: matrix ranks of the state at every
two-party cut (and every single-party marginal), and, for qubit systems
whose triple-state factors are three-qubit states, the exact
SLOCC class of those factors (product / biseparable / W / GHZ), where
the hyperdeterminant, the discriminant of the slice pencil
``det(x T0 + y T1)``, tells GHZ from W. A screen is an ordered sequence
of rows ``(invariant, location, value_a, value_b)``; :func:`first_violation`
builds every proof, from the first row whose values differ, and a proof's
description is derived from its kind and values. A proof never depends
on search convergence; an empty result means nothing, only that no cheap
obstruction was found.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

import numpy as np

from .decomposition import StateProfile, flatten_party
from .states import STANDARD_CUTS, Bipartition, PureState, TripartiteState
from .tensorops import DEFAULT_RTOL, pencil_det_form, pow2_scaled, sigma_rank


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


# One sentence per invariant kind, filled from the proof's own fields.
_DESCRIPTIONS = {
    "bipartition-rank": "bipartition rank at cut {location} differs: {value_a} vs {value_b}",
    "marginal-rank": "marginal rank of {location} differs: {value_a} vs {value_b}",
    "tripartite-class": "triple-state {location} classifies {value_a} vs {value_b}",
}


@dataclass(frozen=True)
class InequivalenceProof:
    """A violated SLOCC invariant, with the two differing values.

    ``invariant`` is one of ``bipartition-rank``, ``marginal-rank`` or
    ``tripartite-class``; ``location`` names the cut, party or factor
    side it was found at. Only :func:`first_violation` builds one.
    """

    invariant: str
    location: str
    value_a: object
    value_b: object

    @property
    def description(self) -> str:
        """One sentence stating the violation, derived from the fields."""
        return _DESCRIPTIONS[self.invariant].format_map(vars(self))

    def to_dict(self) -> dict:
        return {
            "invariant": self.invariant,
            "location": self.location,
            "value_a": str(self.value_a),
            "value_b": str(self.value_b),
            "description": self.description,
        }


def first_violation(rows: Iterable[tuple[str, str, object, object]]) -> Optional[InequivalenceProof]:
    """The proof for the first row ``(invariant, location, value_a, value_b)`` whose values differ.

    ``rows`` is read only up to that row, so a lazy sequence computes no
    later value. None when every row agrees.
    """
    for invariant, location, a, b in rows:
        if a != b:
            return InequivalenceProof(invariant, location, a, b)
    return None


def hyperdeterminant_222(amps: np.ndarray) -> complex:
    """Cayley hyperdeterminant of a 2x2x2 tensor, ``b^2 - 4ac`` of its slice pencil.

    ``det(x T0 + y T1) = a x^2 + b x y + c y^2`` (Miyake, *PRA* 67, 012108,
    2003). Vanishes exactly on the closure of the W class; the GHZ state
    gives 1/4. Scales by det(A1)^2 det(A2)^2 det(A3)^2 under local operators.
    """
    t = np.asarray(amps, dtype=complex).reshape(2, 2, 2)
    a, b, c = pencil_det_form(t[0], t[1])
    return b * b - 4 * a * c


def classify_tripartite_qubit(state: PureState) -> TriClass:
    """SLOCC class of a three-qubit pure state.

    Marginal ranks separate product and biseparable states; among the
    genuinely entangled ones the hyperdeterminant separates the GHZ
    class (nonzero) from the W class. ``DEFAULT_RTOL`` sets both the rank
    cutoff and the zero threshold of the scale-free
    ``|Det(psi)| / |psi|^4``, the reported ``hyperdet_magnitude``, which
    is computed on the amplitudes scaled by a power of two, so no
    amplitude scale under- or overflows it.
    """
    if state.dims != (2, 2, 2):
        raise ValueError(f"three-qubit classification needs dims (2,2,2), got {state.dims}")
    return _tri_classes(state.tensor()[np.newaxis], DEFAULT_RTOL)[0]


def _tri_classes(tensors: np.ndarray, tol: float) -> list[TriClass]:
    """:func:`classify_tripartite_qubit` of each tensor of a stack ``(k, 2, 2, 2)``; one SVD."""
    flats = np.stack([flatten_party(tensors, p) for p in (1, 2, 3)], axis=1)
    classes = []
    for t, sigmas in zip(tensors, np.linalg.svd(flats, compute_uv=False)):
        ranks = tuple(sigma_rank(s, tol) for s in sigmas)
        amps = pow2_scaled(t.reshape(-1))[0]
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
        classes.append(TriClass(label, ranks, float(det_mag)))
    return classes


def tripartite_as_pure_state(t: TripartiteState) -> PureState:
    """View a slice tuple as an ordinary pure state (first party = slice index)."""
    return PureState(t.dims, t.amps)


def _screen_rows(profile: StateProfile, cut: Bipartition):
    """The screen's rows ``(invariant, location, value_a, value_b)``, in order, each computed when reached."""
    for c in STANDARD_CUTS:
        yield "bipartition-rank", c.label, *profile.ranks(c)
    for party in (1, 2, 3, 4):
        yield "marginal-rank", f"party {party}", *profile.marginal_ranks(party)
    yield "bipartition-rank", cut.label, *profile.ranks(cut)
    if all(d == 2 for d in profile.dims) and profile.ranks(cut)[0] == 2:
        t1, t2 = profile.decompositions(cut)
        for side, f1, f2 in (("u", t1.u_full, t2.u_full), ("v", t1.v_full, t2.v_full)):
            # The first two frame columns, folded: the factor's amplitudes.
            factors = np.stack([f1[:, :2].T, f2[:, :2].T]).reshape(2, 2, 2, 2)
            a, b = _tri_classes(factors, profile.rtol)
            yield "tripartite-class", f"factor {side} at cut {cut.label}", a.label.value, b.label.value


def invariant_screen(profile: StateProfile, cut: Bipartition) -> Optional[InequivalenceProof]:
    """Look for a cheap invariant separating the two four-partite states of a profile.

    Reads rows, each an invariant's value on both states at the profile's
    ``rtol``, in order: the ranks at the three standard cuts, the marginal
    ranks of parties 1-4, the rank at ``cut`` itself (a reordered cut such
    as 21-34 can round to another rank), and, for qubit states of rank 2
    at ``cut``, the classes of the ``u`` and then the ``v`` triple-state
    factors, both states per call. A row is computed only when reached,
    so a rank proof at a standard cut costs no marginal or frame SVD.
    Returns the proof for the first row whose values differ, or None,
    which means no obstruction was found, never that the states are
    equivalent.
    """
    if len(profile.states) != 2:
        raise ValueError(f"the screen compares two states, the profile holds {len(profile.states)}")
    return first_violation(_screen_rows(profile, cut))
