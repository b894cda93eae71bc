"""Bipartition flattening and the SVD-based triple-state reduction.

A four-partite state, flattened at a two-versus-two cut into M, factors
as ``U @ diag(sv) @ V.conj().T``. Folding the first ``r`` columns of
``U`` and ``V`` back into matrices yields two tripartite states that,
together with the diagonal of singular values, carry the full SLOCC
content of the original state at that cut. One :class:`StateProfile`
holds the states a check compares, of equal dims, and factors them
together: at each cut every state's flattening is factored by one
stacked values-only SVD, and every state's frames by one more. Only the
profile builds a :class:`TripleStateSet`, as a read-only view of that
values-only SVD: M and its singular values are not copied, and the rank
the screen reads and the rank of the decomposition come from that one
SVD. The singular frames U and V, and the factors folded from them, are
computed only when read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .states import Bipartition, PureState, TripartiteState
from .tensorops import CONDITIONING_BAND, DEFAULT_RTOL, FRAME_UNITARITY_TOL, sigma_rank, svd


@dataclass(frozen=True, eq=False)
class TripleStateSet:
    """One state's triple-state set at one cut, a read-only view of its profile.

    Only a :class:`StateProfile` builds one, straight from the stacked
    values-only SVD it keeps per cut: ``flattening`` is the state's
    matrix M at the cut and ``singular_values`` its ``r`` positive
    singular values, the diagonal bipartite middle, both read-only views
    of the profile's arrays, not copies. ``frame_source`` returns the full
    left and right singular frames ``u_full`` and ``v_full`` of M, which
    the profile computes for every profiled state at this cut in one
    gauged, stacked SVD on first read and keeps. Columns ``0..r-1`` of
    ``u_full`` (``v_full``) fold into the tripartite factor ``psi_u``
    (``psi_v``); the remaining columns span the orthogonal complement.
    """

    flattening: np.ndarray
    singular_values: np.ndarray
    r: int
    bipartition: Bipartition
    dims: tuple[int, ...]
    warnings: tuple[str, ...]
    frame_source: Callable[[], tuple[np.ndarray, np.ndarray]] = field(repr=False)

    @property
    def u_full(self) -> np.ndarray:
        """The full left singular frame of the flattening."""
        return self.frame_source()[0]

    @property
    def v_full(self) -> np.ndarray:
        """The full right singular frame of the flattening."""
        return self.frame_source()[1]

    @property
    def left_dims(self) -> tuple[int, int]:
        a, b = self.bipartition.left
        return (self.dims[a - 1], self.dims[b - 1])

    @property
    def right_dims(self) -> tuple[int, int]:
        c, d = self.bipartition.right
        return (self.dims[c - 1], self.dims[d - 1])

    @property
    def psi_u(self) -> TripartiteState:
        """The left tripartite factor: the first ``r`` columns of ``u_full``, folded."""
        return _folded(self.u_full, self.r, self.left_dims)

    @property
    def psi_v(self) -> TripartiteState:
        """The right tripartite factor: the first ``r`` columns of ``v_full``, folded."""
        return _folded(self.v_full, self.r, self.right_dims)

    def reconstruct(self) -> np.ndarray:
        """The flattening rebuilt from the first ``r`` frame columns and the singular values."""
        r = self.r
        return (self.u_full[:, :r] * self.singular_values) @ self.v_full[:, :r].conj().T


def _folded(frame: np.ndarray, r: int, dims: tuple[int, int]) -> TripartiteState:
    # Frame rows follow the flattening's rows, (i_a, i_b) with i_b fastest.
    return TripartiteState(r, tuple(frame[:, i].reshape(dims) for i in range(r)))


def _gauged_frames(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full gauged singular frames of a stack of flattenings, each checked unitary."""
    u, _, v = svd(stack)
    for name, f in (("u_full", u), ("v_full", v)):
        gap = np.linalg.norm(f.conj().swapaxes(-1, -2) @ f - np.eye(f.shape[-1]), axis=(-2, -1))
        if np.any(gap > FRAME_UNITARITY_TOL * f.shape[-1]):
            raise ValueError(f"{name} is not unitary")
        f.flags.writeable = False
    return u, v


def _flatten_cut(tensors: np.ndarray, cut: Bipartition) -> np.ndarray:
    """Stacked flattenings at ``cut`` of stacked four-party tensors ``(g, d1, d2, d3, d4)``."""
    if tensors.ndim != 5:
        raise ValueError("bipartition flattening needs a four-partite state")
    t = tensors.transpose(0, *cut.left, *cut.right)
    g, da, db, dc, dd = t.shape
    return t.reshape(g, da * db, dc * dd)


def flatten_party(tensors: np.ndarray, party: int) -> np.ndarray:
    """Matrices of stacked tensors ``(g, d1, ..., dn)``, rows indexed by one party (1-based).

    Each matrix's columns run over the other parties in order.
    """
    rest = [k for k in range(1, tensors.ndim) if k != party]
    t = tensors.transpose(0, party, *rest)
    return t.reshape(t.shape[0], t.shape[1], -1)


def triple_state_set(
    state: PureState,
    cut: Bipartition,
    rtol: float = DEFAULT_RTOL,
) -> TripleStateSet:
    """Decompose a four-partite state at a cut into its :class:`TripleStateSet`.

    The rank ``r`` counts the singular values above ``rtol`` times the
    largest; those within ``CONDITIONING_BAND`` of that cutoff are named
    in the set's warnings.
    """
    return StateProfile((state,), rtol).decompositions(cut)[0]


class StateProfile:
    """Ranks and decompositions of states of equal dims, each SVD covering them all.

    Each value is computed on first use, at the profile's ``rtol``, and
    kept. Per cut: the stacked flattenings and their singular values
    from one values-only SVD (both read-only), off which every state's
    rank and :class:`TripleStateSet` at that cut are read, and, once a
    set's frames are read, every state's frames from one gauged SVD.
    Per party: every state's marginal rank, from one values-only SVD.
    Each method returns one entry per state, in the order of ``states``.
    """

    def __init__(self, states: tuple[PureState, ...], rtol: float = DEFAULT_RTOL):
        self.states = tuple(states)
        self.dims = self.states[0].dims
        for s in self.states[1:]:
            if s.dims != self.dims:
                raise ValueError(f"dimension mismatch: {self.dims} vs {s.dims}")
        self.rtol = rtol
        self.tensors = np.stack([s.tensor() for s in self.states])
        self._spectra: dict[Bipartition, tuple[np.ndarray, np.ndarray, tuple[int, ...]]] = {}
        self._marginal_ranks: dict[int, tuple[int, ...]] = {}
        self._frames: dict[Bipartition, list[tuple[np.ndarray, np.ndarray]]] = {}
        self._decompositions: dict[Bipartition, tuple[TripleStateSet, ...]] = {}

    def _spectrum(self, cut: Bipartition) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
        if cut not in self._spectra:
            ms = _flatten_cut(self.tensors, cut)
            sigmas = np.linalg.svd(ms, compute_uv=False)
            ms.flags.writeable = sigmas.flags.writeable = False
            self._spectra[cut] = (ms, sigmas, tuple(sigma_rank(s, self.rtol) for s in sigmas))
        return self._spectra[cut]

    def _frame(self, cut: Bipartition, i: int) -> tuple[np.ndarray, np.ndarray]:
        if cut not in self._frames:
            self._frames[cut] = list(zip(*_gauged_frames(self._spectrum(cut)[0])))
        return self._frames[cut][i]

    def ranks(self, cut: Bipartition) -> tuple[int, ...]:
        """Numerical rank of each state flattened at ``cut``, from its spectrum."""
        return self._spectrum(cut)[2]

    def marginal_ranks(self, party: int) -> tuple[int, ...]:
        """Numerical rank of each state with one party (1-based) flattened against the rest."""
        if party not in self._marginal_ranks:
            sigmas = np.linalg.svd(flatten_party(self.tensors, party), compute_uv=False)
            self._marginal_ranks[party] = tuple(sigma_rank(s, self.rtol) for s in sigmas)
        return self._marginal_ranks[party]

    def decompositions(self, cut: Bipartition) -> tuple[TripleStateSet, ...]:
        """Each state's :class:`TripleStateSet` at ``cut``, read off the cut's spectrum."""
        if cut not in self._decompositions:
            ms, sigmas, ranks = self._spectrum(cut)
            if 0 in ranks:
                raise ValueError(
                    f"rank 0 at cut {cut.label}: no singular value exceeds {self.rtol:g} times the largest"
                )
            self._decompositions[cut] = tuple(
                TripleStateSet(
                    flattening=m,
                    singular_values=sigma[:r],
                    r=r,
                    bipartition=cut,
                    dims=self.dims,
                    warnings=tuple(
                        f"singular value {k + 1} of {sigma.size} lies within "
                        f"{CONDITIONING_BAND:g}x of the rank cutoff; rank {r} is borderline"
                        for k in range(r)
                        if sigma[k] <= CONDITIONING_BAND * self.rtol * sigma[0]
                    ),
                    frame_source=partial(self._frame, cut, i),
                )
                for i, (m, sigma, r) in enumerate(zip(ms, sigmas, ranks))
            )
        return self._decompositions[cut]
