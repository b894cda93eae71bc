"""Bipartition flattening and the SVD-based triple-state reduction.

A four-partite state, flattened at a two-versus-two cut, factors as
``U @ diag(sv) @ V.conj().T``. Folding the first ``r`` columns of ``U``
and ``V`` back into matrices yields two tripartite states that, together
with the diagonal of singular values, carry the full SLOCC content of
the original state at that cut. The remaining columns (the kernel
complements) are kept as well: they fold into the complementary states
and give the tripartite check its rank-three annihilator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .states import Bipartition, PureState, TripartiteState
from .tensorops import DEFAULT_RTOL, fold, numerical_rank, svd

# Singular values in (rtol, 10*rtol) times the largest are counted as
# nonzero but flagged: the block structure downstream is discontinuous
# in the rank, so a borderline cut deserves a warning.
CONDITIONING_BAND = 10.0


@dataclass(frozen=True, eq=False)
class SingularFrame:
    """Full singular frames of one state at one cut.

    Columns ``0..r-1`` of ``u_full`` (``v_full``) are the left (right)
    singular vectors with positive singular values; the remaining
    columns span the orthogonal complement and fold into the
    complementary states.
    """

    u_full: np.ndarray
    v_full: np.ndarray
    singular_values: np.ndarray
    r: int
    bipartition: Bipartition
    dims: tuple[int, ...]
    warnings: tuple[str, ...] = field(default=())

    def __post_init__(self):
        u = np.array(self.u_full, dtype=complex)
        v = np.array(self.v_full, dtype=complex)
        sv = np.array(self.singular_values, dtype=float)
        for name, m in (("u_full", u), ("v_full", v)):
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError(f"{name} must be square")
            if np.linalg.norm(m.conj().T @ m - np.eye(m.shape[0])) > 1e-12 * m.shape[0]:
                raise ValueError(f"{name} is not unitary")
        if not (0 < self.r <= min(u.shape[0], v.shape[0])):
            raise ValueError(f"rank {self.r} out of range")
        if sv.size != self.r or np.any(sv <= 0) or np.any(np.diff(sv) > 0):
            raise ValueError("singular values must be positive and descending")
        for m in (u, v, sv):
            m.flags.writeable = False
        object.__setattr__(self, "u_full", u)
        object.__setattr__(self, "v_full", v)
        object.__setattr__(self, "singular_values", sv)
        object.__setattr__(self, "r", int(self.r))
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "warnings", tuple(self.warnings))

    @property
    def left_dims(self) -> tuple[int, int]:
        a, b = self.bipartition.left
        return (self.dims[a - 1], self.dims[b - 1])

    @property
    def right_dims(self) -> tuple[int, int]:
        c, d = self.bipartition.right
        return (self.dims[c - 1], self.dims[d - 1])

    @property
    def row_dim(self) -> int:
        return self.u_full.shape[0]

    @property
    def col_dim(self) -> int:
        return self.v_full.shape[0]

    def u1(self) -> np.ndarray:
        return self.u_full[:, : self.r]

    def v1(self) -> np.ndarray:
        return self.v_full[:, : self.r]

    def u0(self) -> np.ndarray:
        return self.u_full[:, self.r :]

    def v0(self) -> np.ndarray:
        return self.v_full[:, self.r :]

    def reconstruct(self) -> np.ndarray:
        """The flattened state this frame decomposes."""
        return (
            self.u1() * self.singular_values[np.newaxis, :]
        ) @ self.v1().conj().T


@dataclass(frozen=True, eq=False)
class TripleStateSet:
    """The two tripartite factors plus the diagonal bipartite middle."""

    psi_u: TripartiteState
    psi_lambda: np.ndarray
    psi_v: TripartiteState

    def __post_init__(self):
        lam = np.array(self.psi_lambda, dtype=complex)
        if lam.ndim != 2 or lam.shape[0] != lam.shape[1]:
            raise ValueError("psi_lambda must be square")
        if np.any(lam - np.diag(np.diagonal(lam))):
            raise ValueError("psi_lambda must be diagonal")
        d = np.diagonal(lam)
        if np.any(d.imag != 0) or np.any(d.real <= 0):
            raise ValueError("psi_lambda diagonal must be strictly positive")
        if not (self.psi_u.r_dim == self.psi_v.r_dim == lam.shape[0]):
            raise ValueError("slice counts must match the diagonal rank")
        lam.flags.writeable = False
        object.__setattr__(self, "psi_lambda", lam)


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
):
    """Decompose a four-partite state at a cut.

    Returns ``(TripleStateSet, SingularFrame)``: the triple-state
    reduction (slices folded from the singular vectors, diagonal of
    singular values) and the full frames for downstream solving.
    """
    m = flatten_bipartition(state, cut)
    u, sigma, v = svd(m, full=True)
    top = sigma[0] if sigma.size else 0.0
    if top == 0.0:
        raise ValueError("cannot decompose the zero state")
    r = int(np.count_nonzero(sigma > rtol * top))
    warnings = tuple(
        f"singular value {i + 1} of {sigma.size} lies within "
        f"{CONDITIONING_BAND:g}x of the rank cutoff; rank {r} is borderline"
        for i in range(r)
        if sigma[i] <= CONDITIONING_BAND * rtol * top
    )
    frame = SingularFrame(
        u_full=u,
        v_full=v,
        singular_values=sigma[:r],
        r=r,
        bipartition=cut,
        dims=state.dims,
        warnings=warnings,
    )
    ia, ib = frame.left_dims
    ic, id_ = frame.right_dims
    psi_u = TripartiteState(r, tuple(fold(u[:, i], ia, ib) for i in range(r)))
    psi_v = TripartiteState(r, tuple(fold(v[:, i], ic, id_) for i in range(r)))
    triple = TripleStateSet(psi_u=psi_u, psi_lambda=np.diag(sigma[:r]), psi_v=psi_v)
    return triple, frame


def complementary_state(frame: SingularFrame, side: str):
    """Tripartite state folded from the kernel-complement columns.

    ``side`` is ``"u"`` or ``"v"``. Returns the empty tuple when the
    frame has full rank on that side (no complement exists).
    """
    if side == "u":
        cols, (d1, d2) = frame.u0(), frame.left_dims
    elif side == "v":
        cols, (d1, d2) = frame.v0(), frame.right_dims
    else:
        raise ValueError(f"side must be 'u' or 'v', got {side!r}")
    k = cols.shape[1]
    if k == 0:
        return ()
    return TripartiteState(k, tuple(fold(cols[:, i], d1, d2) for i in range(k)))


class StateProfile:
    """One four-partite state's ranks and decompositions, each computed once.

    Each value is computed on first use, at the profile's ``rtol``, and
    kept: the rank at a cut (from singular values alone), the marginal
    rank of a party, and the :func:`triple_state_set` pair at a cut.
    """

    def __init__(self, state: PureState, rtol: float = DEFAULT_RTOL):
        self.state = state
        self.rtol = rtol
        self._ranks: dict[Bipartition, int] = {}
        self._marginal_ranks: dict[int, int] = {}
        self._decompositions: dict[Bipartition, tuple[TripleStateSet, SingularFrame]] = {}

    def rank(self, cut: Bipartition) -> int:
        """Numerical rank of the state flattened at ``cut``."""
        if cut not in self._ranks:
            m = flatten_bipartition(self.state, cut)
            self._ranks[cut] = numerical_rank(m, self.rtol)
        return self._ranks[cut]

    def marginal_rank(self, party: int) -> int:
        """Numerical rank of one party (1-based) flattened against the rest."""
        if party not in self._marginal_ranks:
            m = flatten_party(self.state, party)
            self._marginal_ranks[party] = numerical_rank(m, self.rtol)
        return self._marginal_ranks[party]

    def decomposition(self, cut: Bipartition) -> tuple[TripleStateSet, SingularFrame]:
        """``triple_state_set(state, cut, rtol)``, the factors and frame at ``cut``."""
        if cut not in self._decompositions:
            self._decompositions[cut] = triple_state_set(self.state, cut, self.rtol)
        return self._decompositions[cut]
