"""Bipartition flattening and the SVD-based triple-state reduction.

A four-partite state, flattened at a two-versus-two cut into M, factors
as ``U @ diag(sv) @ V.conj().T``. Folding the first ``r`` columns of
``U`` and ``V`` back into matrices yields two tripartite states that,
together with the diagonal of singular values, carry the full SLOCC
content of the original state at that cut. :class:`TripleStateSet` holds
M and its singular values from one values-only SVD; the singular frames
U and V, and the factors folded from them, are computed from M only when
read. :class:`StateProfile` keeps each cut's spectrum, so the rank the
screen reads and the rank of the decomposition come from one SVD.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .states import Bipartition, PureState, TripartiteState
from .tensorops import DEFAULT_RTOL, fold, numerical_rank, sigma_rank, svd

# Singular values in (rtol, 10*rtol) times the largest are counted as
# nonzero but flagged: the block structure downstream is discontinuous
# in the rank, so a borderline cut deserves a warning.
CONDITIONING_BAND = 10.0
# Largest |F^H F - I| per unit of side accepted from a singular frame F.
FRAME_UNITARITY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class TripleStateSet:
    """One state's triple-state set at one cut, read off one flattening.

    ``flattening`` is the state's matrix M at the cut and
    ``singular_values`` its ``r`` positive singular values, the diagonal
    bipartite middle. The full left and right singular frames ``u_full``
    and ``v_full`` come from one gauged SVD of M, computed on first read
    and kept. Columns ``0..r-1`` of ``u_full`` (``v_full``) fold into the
    tripartite factor ``psi_u`` (``psi_v``); the remaining columns span
    the orthogonal complement.
    """

    flattening: np.ndarray
    singular_values: np.ndarray
    r: int
    bipartition: Bipartition
    dims: tuple[int, ...]
    warnings: tuple[str, ...] = field(default=())

    def __post_init__(self):
        m = np.array(self.flattening, dtype=complex)
        sv = np.array(self.singular_values, dtype=float)
        if m.ndim != 2:
            raise ValueError("flattening must be a matrix")
        if not (0 < self.r <= min(m.shape)):
            raise ValueError(f"rank {self.r} out of range")
        if sv.size != self.r or np.any(sv <= 0) or np.any(np.diff(sv) > 0):
            raise ValueError("singular values must be positive and descending")
        for a in (m, sv):
            a.flags.writeable = False
        object.__setattr__(self, "flattening", m)
        object.__setattr__(self, "singular_values", sv)
        object.__setattr__(self, "r", int(self.r))
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "warnings", tuple(self.warnings))

    @cached_property
    def _frames(self) -> tuple[np.ndarray, np.ndarray]:
        u, _, v = svd(self.flattening, full=True)
        for name, f in (("u_full", u), ("v_full", v)):
            gap = np.linalg.norm(f.conj().T @ f - np.eye(f.shape[0]))
            if gap > FRAME_UNITARITY_TOL * f.shape[0]:
                raise ValueError(f"{name} is not unitary")
            f.flags.writeable = False
        return u, v

    @property
    def u_full(self) -> np.ndarray:
        """The full left singular frame of the flattening."""
        return self._frames[0]

    @property
    def v_full(self) -> np.ndarray:
        """The full right singular frame of the flattening."""
        return self._frames[1]

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
    return TripartiteState(r, tuple(fold(frame[:, i], *dims) for i in range(r)))


def flatten_bipartition(state: PureState, cut: Bipartition) -> np.ndarray:
    """Matrix of a four-partite state with rows (i_a, i_b), columns (i_c, i_d).

    The second index of each pair varies fastest, matching the global
    amplitude convention.
    """
    if state.num_parties != 4:
        raise ValueError("bipartition flattening needs a four-partite state")
    a, b = cut.left
    c, d = cut.right
    dims = state.dims
    t = state.tensor().transpose(a - 1, b - 1, c - 1, d - 1)
    return t.reshape(dims[a - 1] * dims[b - 1], dims[c - 1] * dims[d - 1])


def flatten_party(state: PureState, party: int) -> np.ndarray:
    """Matrix of a state with rows indexed by one party (1-based), columns by the rest."""
    t = np.moveaxis(state.tensor(), party - 1, 0)
    return t.reshape(t.shape[0], -1)


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
    return StateProfile(state, rtol).decomposition(cut)


class StateProfile:
    """One four-partite state's ranks and decompositions, each computed once.

    Each value is computed on first use, at the profile's ``rtol``, and
    kept: per cut, the flattening and its singular values from one
    values-only SVD, off which both the rank and the
    :class:`TripleStateSet` at that cut are read; per party, the
    marginal rank. A decomposition computes no singular frame until one
    is read.
    """

    def __init__(self, state: PureState, rtol: float = DEFAULT_RTOL):
        self.state = state
        self.rtol = rtol
        # Per cut: the flattening, its singular values and the rank they give.
        self._spectra: dict[Bipartition, tuple[np.ndarray, np.ndarray, int]] = {}
        self._marginal_ranks: dict[int, int] = {}
        self._decompositions: dict[Bipartition, TripleStateSet] = {}

    def rank(self, cut: Bipartition) -> int:
        """Numerical rank of the state flattened at ``cut``, from its spectrum."""
        if cut not in self._spectra:
            m = flatten_bipartition(self.state, cut)
            sigma = np.linalg.svd(m, compute_uv=False)
            self._spectra[cut] = (m, sigma, sigma_rank(sigma, self.rtol))
        return self._spectra[cut][2]

    def marginal_rank(self, party: int) -> int:
        """Numerical rank of one party (1-based) flattened against the rest."""
        if party not in self._marginal_ranks:
            m = flatten_party(self.state, party)
            self._marginal_ranks[party] = numerical_rank(m, self.rtol)
        return self._marginal_ranks[party]

    def decomposition(self, cut: Bipartition) -> TripleStateSet:
        """The :class:`TripleStateSet` at ``cut``, read off the cut's spectrum."""
        if cut not in self._decompositions:
            self.rank(cut)
            m, sigma, r = self._spectra[cut]
            top = sigma[0] if sigma.size else 0.0
            if top == 0.0:
                raise ValueError("cannot decompose the zero state")
            warnings = tuple(
                f"singular value {i + 1} of {sigma.size} lies within "
                f"{CONDITIONING_BAND:g}x of the rank cutoff; rank {r} is borderline"
                for i in range(r)
                if sigma[i] <= CONDITIONING_BAND * self.rtol * top
            )
            self._decompositions[cut] = TripleStateSet(
                flattening=m,
                singular_values=sigma[:r],
                r=r,
                bipartition=cut,
                dims=self.state.dims,
                warnings=warnings,
            )
        return self._decompositions[cut]
