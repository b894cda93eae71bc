"""Search engine for the block-triangular coupling certificate.

Given full singular frames (U, V) and (U', V') of two states at the same
cut, equivalence holds exactly when some block upper-triangular P-tilde
and its coupled companion Q-tilde make both conjugated frames realign to
rank one. The search runs in two layers.

The first layer is a direct spectral construction that solves the
full-row-rank cases outright whenever one side of the cut is a qubit
pair. On a qubit pair the antisymmetric form eps satisfies
``A^T eps A = det(A) eps`` for every 2x2 operator A, so with
``J = kron(eps, eps)`` the twisted square ``T(M) = M J M^T J`` of an
invertible flattening obeys ``T(M') = delta B T(M) B^{-1}`` whenever
``M' = B M C^T`` with Kronecker B and C. The left factor therefore lives
in a Sylvester intertwiner family computable by one nullspace, with
delta pinned up to a fourth root of unity by determinants; inside the
family, Kronecker points are eigenvectors of a small two-probe pencil.
When the columns are a pair of qutrits instead of qubits the same
similarity is manufactured from the cubic form det(fold(M^T x)) on the
row space: the trace square of its J-twisted Hessian is a quadratic in x
whose matrix transforms by congruence with B, and J converts that
congruence into a similarity. Candidates from either construction are
converted to coupling blocks and accepted only through the standard
residual gate, so spurious spectral matches are harmless.

The second layer covers everything else (deficient rank, other local
dimensions): the rank-one condition is bilinear, linear in the unknown
blocks once the target rank-one factors are fixed, and vice versa, so
the engine alternates between projecting the realigned matrices onto the
nearest rank-one matrices and re-fitting the blocks by least squares,
from the identity blocks and then from seeded random blocks. Restarts run
in lockstep waves of ``WAVE_LANES``: each restart is one lane of stacked
arrays, so every numpy or LAPACK call of an iteration serves the whole
wave. The least-squares refit followed by the forward map is linear, so
it is precomputed once per search as one projector matrix. Invertibility
of the blocks is checked lazily, on the best points a restart keeps,
rather than at every improvement. Lanes are gated in restart order and a
wave stops at the first one that passes the residual gate, so the
reported restart count and the verdict do not depend on the wave width.

Two structural facts keep each half-step of the second layer closed-form:

* realignment is an entry permutation, so the coefficient matrices
  ``realign(u_p @ u'_q.conj().T)`` form an orthonormal family and the
  normal equations are diagonal;
* the V side is parametrized by the inverse-adjoint of the returned
  Q-tilde, which is block LOWER triangular with top-left block
  ``diag(1/lam) @ P @ diag(lam')``. In that form every unknown enters
  linearly, and the parametrization covers all admissible Q-tilde even
  at deficient rank; the true upper-triangular Q-tilde is recovered at
  the end by a block inverse-adjoint.

Trivially small residuals at non-invertible blocks (the all-zero
solution) are fenced off by a log-determinant reward folded into the
least-squares step plus a hard post-hoc margin check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from .decomposition import SingularFrame
from .tensorops import realign, sigma_ratio, unrealign

# Smallest acceptable sigma_min/sigma_max for the square blocks of an
# accepted candidate. Planted orbits at condition cap 20 give margins
# above 1e-4; degenerate collapse gives machine-zero margins.
CANDIDATE_MARGIN_RTOL = 1e-8

# Restarts run in lockstep waves of this many lanes; a budget below it,
# or the tail of a budget that is not a multiple of it, runs as one
# narrower wave.
WAVE_LANES = 4

# Edge values of the rank-one search gap sigma2/sigma1: a zero matrix is
# as far from rank one as the gap can say, and a matrix with a single row
# or column is rank one.
_GAP_EDGES = {"if_zero": 1.0, "if_short": 0.0}

# Phases of a lane in a wave.
_DR, _POLISH, _DONE = range(3)

# Improvements a lane records before it checks them for admissibility and
# drops the ones no later walk can select; bounds a wave's memory.
_RECORD_CAP = 64

# Iterations allowed without improving the best residual during the
# final alternating-projection polish before the restart is abandoned.
STALL_WINDOW = 40

# Patience for the wandering Douglas-Rachford phase, which improves in
# bursts rather than monotonically.
DR_STALL_WINDOW = 150


class SolveStatus(Enum):
    FOUND = "FOUND"
    EXHAUSTED = "EXHAUSTED"


@dataclass(frozen=True, eq=False)
class PTildeCandidate:
    """One block upper-triangular coupling matrix [[P, Y], [0, P_bar]].

    ``margin_p`` and ``margin_p_bar`` are the relative invertibility
    margins (smallest over largest singular value) of the square blocks;
    absent blocks report margin infinity. Construction never rejects a
    poorly conditioned candidate: admissibility thresholds are applied
    by the caller.
    """

    P: np.ndarray
    Y: np.ndarray
    P_bar: np.ndarray

    def __post_init__(self):
        p = np.array(self.P, dtype=complex)
        y = np.array(self.Y, dtype=complex).reshape(p.shape[0], -1)
        pb = np.array(self.P_bar, dtype=complex)
        k = pb.shape[0] if pb.size else 0
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError("P must be square")
        pb = pb.reshape(k, k)
        if y.shape != (p.shape[0], k):
            raise ValueError("Y shape inconsistent with P and P_bar")
        for m in (p, y, pb):
            m.flags.writeable = False
        object.__setattr__(self, "P", p)
        object.__setattr__(self, "Y", y)
        object.__setattr__(self, "P_bar", pb)

    @property
    def r(self) -> int:
        return self.P.shape[0]

    @property
    def size(self) -> int:
        return self.P.shape[0] + self.P_bar.shape[0]

    @property
    def assembled(self) -> np.ndarray:
        r, k = self.P.shape[0], self.P_bar.shape[0]
        out = np.zeros((r + k, r + k), dtype=complex)
        out[:r, :r] = self.P
        if k:
            out[:r, r:] = self.Y
            out[r:, r:] = self.P_bar
        return out

    @property
    def margin_p(self) -> float:
        return sigma_ratio(np.linalg.svd(self.P, compute_uv=False))

    @property
    def margin_p_bar(self) -> float:
        return sigma_ratio(np.linalg.svd(self.P_bar, compute_uv=False))

    def min_margin(self) -> float:
        return min(self.margin_p, self.margin_p_bar)


@dataclass(frozen=True)
class SolverConfig:
    """Search budget and tolerances. The seed is always explicit."""

    rng_seed: int
    restarts: int = 64
    max_iterations: int = 500
    residual_tol: float = 1e-9
    invertibility_penalty_weight: float = 1e-2

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.residual_tol <= 0:
            raise ValueError("residual_tol must be positive")


@dataclass(frozen=True, eq=False)
class SolveOutcome:
    """Search result. EXHAUSTED is a budget statement, never a proof.

    ``candidate`` is the pair (U-side, V-side) of coupling candidates
    for the two-sided search, or a 1-tuple for the single-sided variant;
    it may be None when no restart produced an invertible point.
    """

    status: SolveStatus
    candidate: Optional[tuple]
    residual: float
    restarts_used: int


def _ginibre_unit(rng: np.random.Generator, n: int) -> np.ndarray:
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
    top = np.linalg.svd(g, compute_uv=False)[0]
    return g / top


def couple_q(p: np.ndarray, lam: np.ndarray, lam_prime: np.ndarray) -> np.ndarray:
    """The lambda-coupled companion block diag(1/lam) @ P @ diag(lam').

    ``lam`` and ``lam_prime`` may be diagonal matrices or plain vectors
    of the positive singular values. The V-side constraint determines
    the top-left block of the true Q-tilde as the inverse adjoint of
    this matrix; at full rank either form certifies the same set of
    solutions.
    """
    p = np.asarray(p, dtype=complex)
    dl = np.diagonal(lam) if np.ndim(lam) == 2 else np.asarray(lam)
    dlp = np.diagonal(lam_prime) if np.ndim(lam_prime) == 2 else np.asarray(lam_prime)
    if p.shape[0] != p.shape[1] or dl.size != p.shape[0] or dlp.size != p.shape[0]:
        raise ValueError(
            f"size mismatch: P is {p.shape}, lambdas have {dl.size} and {dlp.size} entries"
        )
    return (p * dlp[np.newaxis, :]) / dl[:, np.newaxis].astype(complex)


_EPS2 = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
_QUBIT_PAIR_FORM = np.kron(_EPS2, _EPS2)

# Relative rank-one gap a spectral candidate must reach before it is
# worth converting to coupling blocks; the residual gate in
# solve_ptilde remains the only acceptance authority.
_DIRECT_PRESCREEN_GAP = 1e-6


def _flat_matrix(frame: SingularFrame) -> np.ndarray:
    """Flattened state matrix reassembled from its singular frame."""
    r = frame.r
    return (frame.u_full[:, :r] * frame.singular_values) @ frame.v_full[
        :, :r
    ].conj().T


def _intertwiner_family(right: np.ndarray, left: np.ndarray, rtol: float = 1e-9):
    """Basis of the Sylvester nullspace {X : X @ right = left @ X}."""
    n = right.shape[0]
    lhs = np.kron(right.T, np.eye(n)) - np.kron(np.eye(n), left)
    _, s, vh = np.linalg.svd(lhs)
    if s[0] == 0.0:
        return []
    keep = s <= rtol * s[0]
    return [
        vh[i].conj().reshape(n, n, order="F") for i in range(n * n) if keep[i]
    ]


def _rank1_points_in_family(mats, rng, als_iterations=160):
    """Coefficient vectors making a combination of ``mats`` rank one.

    A rank-one member maps every probe vector into one common column, so
    when the family has as many members as matrix rows its rank-one
    points are eigenvectors of the pencil built from two random probes.
    Other family sizes fall back to a short alternating fit between the
    family span and the rank-one cone, started from the family
    projections of every coordinate dyad plus random points scaled to
    the family size. Both paths only propose candidates; callers must
    re-validate.
    """
    p = len(mats)
    rows, cols = mats[0].shape
    if p == rows:
        for _ in range(3):
            w1 = rng.standard_normal(cols) + 1j * rng.standard_normal(cols)
            w2 = rng.standard_normal(cols) + 1j * rng.standard_normal(cols)
            a1 = np.column_stack([m @ w1 for m in mats])
            a2 = np.column_stack([m @ w2 for m in mats])
            if sigma_ratio(np.linalg.svd(a1, compute_uv=False)) < 1e-12:
                continue
            return list(np.linalg.eig(np.linalg.solve(a1, a2))[1].T)
    wmat = np.column_stack([m.reshape(-1) for m in mats])
    starts = []
    for flat_index in range(rows * cols):
        dyad = np.zeros(rows * cols, dtype=complex)
        dyad[flat_index] = 1.0
        s = np.linalg.lstsq(wmat, dyad, rcond=None)[0]
        norm = np.linalg.norm(s)
        if norm > 0.0:
            starts.append(s / norm)
    for _ in range(3 * p):
        s = rng.standard_normal(p) + 1j * rng.standard_normal(p)
        starts.append(s / np.linalg.norm(s))
    out = []
    for s in starts:
        best_gap = math.inf
        stalled = 0
        gap = math.inf
        for _ in range(als_iterations):
            w, sv, vh = np.linalg.svd(sum(si * mi for si, mi in zip(s, mats)))
            gap = sigma_ratio(sv, 1, **_GAP_EDGES)
            trunc = sv[0] * np.outer(w[:, 0], vh[0])
            if gap <= 1e-12:
                break
            if gap < 0.9 * best_gap:
                best_gap = gap
                stalled = 0
            else:
                stalled += 1
                if stalled >= 30:
                    break
            s_next = np.linalg.lstsq(wmat, trunc.reshape(-1), rcond=None)[0]
            norm = np.linalg.norm(s_next)
            if norm == 0.0:
                break
            s = s_next / norm
        if gap > 1e-7:
            continue
        if any(abs(np.vdot(s, seen)) > 1.0 - 1e-9 for seen in out):
            continue
        out.append(s)
    return out


def _match_spectrum(target, actual, rtol=1e-6):
    """Permutation p with actual[p[i]] close to target[i], or None."""
    n = target.size
    used = np.zeros(n, dtype=bool)
    perm = np.zeros(n, dtype=int)
    scale = float(np.max(np.abs(target)) + np.max(np.abs(actual)))
    if scale == 0.0:
        return None
    for i in range(n):
        dists = np.abs(actual - target[i])
        dists[used] = np.inf
        j = int(np.argmin(dists))
        if dists[j] > rtol * scale * 1e3:
            return None
        perm[i] = j
        used[j] = True
    return perm


def _det3_hessian(slices, x):
    """Hessian in x of det(sum_k x_k slices[k]) for 3x3 slices, exact.

    Uses the adjugate chain rule with adj(R) = R^2 - tr(R) R + e2(R) I,
    so every entry is evaluated without finite differencing.
    """
    n = len(slices)
    r = sum(xi * si for xi, si in zip(x, slices))
    eye3 = np.eye(3)
    h = np.empty((n, n), dtype=complex)
    for j in range(n):
        s = slices[j]
        dadj = (
            r @ s
            + s @ r
            - np.trace(s) * r
            - np.trace(r) * s
            + (np.trace(r) * np.trace(s) - np.trace(r @ s)) * eye3
        )
        for i in range(n):
            h[i, j] = np.trace(dadj @ slices[i])
    return h


def _row_pair_covariant(m: np.ndarray) -> np.ndarray:
    """Similarity covariant of a (2,2)-row, (3,3)-column flattening.

    Returns N = J Q where Q is the matrix of the quadratic form
    ``x -> tr((J Hess det fold(m^T x))^2)``. For related flattenings
    N' = omega B^{-T} N B^T with one unknown scalar omega.
    """
    slices = [m[i, :].reshape(3, 3) for i in range(m.shape[0])]
    j4 = _QUBIT_PAIR_FORM

    def scalar(x):
        n_mat = j4 @ _det3_hessian(slices, x)
        return np.trace(n_mat @ n_mat)

    n = m.shape[0]
    q = np.zeros((n, n), dtype=complex)
    basis = np.eye(n)
    for i in range(n):
        q[i, i] = scalar(basis[i])
    for i in range(n):
        for j in range(i + 1, n):
            val = (scalar(basis[i] + basis[j]) - q[i, i] - q[j, j]) / 2.0
            q[i, j] = q[j, i] = val
    return j4 @ q


def _sym_root_dirs(x, rtol=1e-8):
    """Factor directions of a symmetric 2x2 matrix, or None.

    A rank-two symmetric X splits as v w^T + w v^T; the factors are the
    symplectic rotations of the isotropic directions of the associated
    binary quadratic. Returns None for a repeated direction or a zero
    matrix.
    """
    a = x[0, 0]
    b = 2.0 * x[0, 1]
    c = x[1, 1]
    scale = max(abs(a), abs(b), abs(c))
    if scale == 0.0:
        return None
    disc = b * b - 4.0 * a * c
    if math.sqrt(abs(disc)) < rtol * scale:
        return None
    sq = np.sqrt(complex(disc))
    if a == 0.0 and c == 0.0:
        zs = [(1.0, 0.0), (0.0, 1.0)]
    elif abs(a) >= abs(c):
        zs = [((-b + sq) / (2.0 * a), 1.0), ((-b - sq) / (2.0 * a), 1.0)]
    else:
        zs = [(1.0, (-b + sq) / (2.0 * c)), (1.0, (-b - sq) / (2.0 * c))]
    return [_EPS2 @ np.asarray(z, dtype=complex) for z in zs]


def _wedge_sym_parts(basis):
    """Symmetric wedge components of a two-column 4-vector basis.

    For a plane in the qubit-pair space the wedge of a basis decomposes
    into a symmetric 2x2 block per tensor factor; a Kronecker map sends
    each block to a congruence image under the matching factor. Returns
    (left block, right block).
    """
    p_mat = np.outer(basis[:, 0], basis[:, 1])
    p_mat = p_mat - p_mat.T
    p4 = p_mat.reshape(2, 2, 2, 2)
    left = -0.5 * np.einsum("ijkl,jl->ik", p4, _EPS2.T)
    right = -0.5 * np.einsum("ijkl,ik->jl", p4, _EPS2.T)
    return left, right


def _degenerate_square_b_candidates(m, mp, t, tq, rng):
    """B candidates when the twisted square has two double eigenvalues.

    Kronecker intertwiners must carry the positive eigen-2-plane of the
    twisted square onto its primed partner, and on the wedge square they
    act blockwise, so each tensor factor maps the root directions of the
    plane's symmetric wedge block onto the primed roots. That pins every
    factor only up to a diagonal rescaling in the root bases, leaving a
    two-parameter Kronecker family per root pairing; the induced right
    factor is linear in the reciprocal diagonal, so its rank-one
    realignment points are recovered with the probe pencil.
    """
    mu2 = np.trace(t @ t) / 4.0
    mu = np.sqrt(mu2)
    if mu == 0.0:
        return []
    eye4 = np.eye(4)
    if np.linalg.norm(t @ t - mu2 * eye4) > 1e-6 * abs(mu2):
        return []
    if np.linalg.norm(tq @ tq - mu2 * eye4) > 1e-6 * abs(mu2):
        return []
    basis = np.linalg.svd(t + mu * eye4)[0][:, :2]
    basis_p = np.linalg.svd(tq + mu * eye4)[0][:, :2]
    roots = [_sym_root_dirs(blk) for blk in _wedge_sym_parts(basis)]
    roots_p = [_sym_root_dirs(blk) for blk in _wedge_sym_parts(basis_p)]
    if any(r is None for r in roots + roots_p):
        return []
    m_inv = np.linalg.inv(m)
    w_left = np.column_stack(roots[0])
    w_right = np.column_stack(roots[1])
    out = []
    for swap_left in (False, True):
        lp = roots_p[0][::-1] if swap_left else roots_p[0]
        for swap_right in (False, True):
            rp = roots_p[1][::-1] if swap_right else roots_p[1]
            kw = np.kron(w_left, w_right)
            kwp = np.kron(np.column_stack(lp), np.column_stack(rp))
            margins = sigma_ratio(np.linalg.svd(np.stack([kw, kwp]), compute_uv=False))
            if margins.min() < 1e-10:
                continue
            back = np.linalg.solve(kwp, mp)
            gs = [m_inv @ np.outer(kw[:, i], back[i]) for i in range(4)]
            fam = [realign(g, 2, 2) for g in gs]
            for coeff in _rank1_points_in_family(fam, rng):
                ct = sum(ci * gi for ci, gi in zip(coeff, gs))
                if sigma_ratio(np.linalg.svd(ct, compute_uv=False)) < 1e-10:
                    continue
                out.append(mp @ np.linalg.inv(ct) @ m_inv)
    return out


def _square_qubit_candidates(m, mp, rng):
    """(B, C) candidates for mp = B m C^T on an invertible 4x4 qubit cut.

    For each determinant-ratio root the B side sweeps the twisted-square
    intertwiner family; its rank-one realignment points come from the
    probe pencil when the twisted spectrum is simple and from the wedge
    eigen-plane construction when it carries two double eigenvalues.
    The right factor follows by a linear solve, and every candidate must
    survive the realignment prescreens.
    """
    j4 = _QUBIT_PAIR_FORM
    t = m @ j4 @ m.T @ j4
    tp = mp @ j4 @ mp.T @ j4
    det_t = np.linalg.det(t)
    det_tp = np.linalg.det(tp)
    if det_t == 0.0 or det_tp == 0.0:
        return []
    delta0 = (det_tp / det_t) ** 0.25
    out = []
    for k in range(4):
        delta = delta0 * np.exp(0.5j * np.pi * k)
        family = _intertwiner_family(t, tp / delta)
        if not family:
            continue
        if len(family) == 8:
            bs = _degenerate_square_b_candidates(m, mp, t, tp / delta, rng)
        else:
            realigned = [realign(x, 2, 2) for x in family]
            bs = [
                sum(ci * xi for ci, xi in zip(coeff, family))
                for coeff in _rank1_points_in_family(realigned, rng)
            ]
        for b in bs:
            if sigma_ratio(np.linalg.svd(b, compute_uv=False)) < 1e-10:
                continue
            s_b = np.linalg.svd(realign(b, 2, 2), compute_uv=False)
            if sigma_ratio(s_b, 1, **_GAP_EDGES) > _DIRECT_PRESCREEN_GAP:
                continue
            ct = np.linalg.solve(m, np.linalg.solve(b, mp))
            s_ct = np.linalg.svd(realign(ct, 2, 2), compute_uv=False)
            if sigma_ratio(s_ct, 1, **_GAP_EDGES) > _DIRECT_PRESCREEN_GAP:
                continue
            out.append((b, ct.T))
    return out


def _right_tuple_solve(rs, ts, rng, attempts=6):
    """(G, H) with G @ rs[i] @ H.T = ts[i] for all i, or None.

    Pair quotients of generic slice combinations eliminate H and leave a
    similarity for G; the eigenvector correspondence determines G up to
    a diagonal, and a third combination pins the diagonal ratios.
    """
    d = rs[0].shape[0]
    count = len(rs)
    for _ in range(attempts):
        combos = [
            rng.standard_normal(count) + 1j * rng.standard_normal(count)
            for _ in range(3)
        ]
        mix_r = [sum(c * r for c, r in zip(cv, rs)) for cv in combos]
        mix_t = [sum(c * t for c, t in zip(cv, ts)) for cv in combos]
        pivots = np.stack([mix_r[1], mix_t[1]])
        if sigma_ratio(np.linalg.svd(pivots, compute_uv=False)).min() < 1e-10:
            continue
        quot_r = np.linalg.solve(mix_r[1].T, mix_r[0].T).T
        quot_t = np.linalg.solve(mix_t[1].T, mix_t[0].T).T
        mu, evec = np.linalg.eig(quot_r)
        mu_t, evec_t = np.linalg.eig(quot_t)
        perm = _match_spectrum(mu, mu_t)
        if perm is None:
            continue
        evec_t = evec_t[:, perm]
        pin_r = np.linalg.solve(evec, np.linalg.solve(mix_r[1].T, mix_r[2].T).T @ evec)
        pin_t = np.linalg.solve(
            evec_t, np.linalg.solve(mix_t[1].T, mix_t[2].T).T @ evec_t
        )
        mask = np.abs(pin_r) > 1e-8 * np.max(np.abs(pin_r))
        np.fill_diagonal(mask, False)
        ratio = np.where(mask, pin_t / np.where(mask, pin_r, 1.0), 0.0)
        anchor = int(np.argmax(mask.sum(axis=0)))
        diag = np.ones(d, dtype=complex)
        complete = True
        for i in range(d):
            if i == anchor:
                continue
            if mask[i, anchor]:
                diag[i] = ratio[i, anchor]
                continue
            for j in range(d):
                if mask[i, j] and mask[j, anchor]:
                    diag[i] = ratio[i, j] * ratio[j, anchor]
                    break
            else:
                complete = False
                break
        if not complete or np.min(np.abs(diag)) == 0.0:
            continue
        g = evec_t @ np.diag(diag) @ np.linalg.inv(evec)
        if sigma_ratio(np.linalg.svd(g, compute_uv=False)) < 1e-12:
            continue
        ht = np.linalg.inv(mix_r[1]) @ np.linalg.solve(g, mix_t[1])
        worst = max(
            float(
                np.linalg.norm(g @ r @ ht - t)
                / max(np.linalg.norm(t), np.finfo(float).tiny)
            )
            for r, t in zip(rs, ts)
        )
        if worst <= _DIRECT_PRESCREEN_GAP:
            return g, ht.T
    return None


def _mixed_pair_candidates(m, mp, rng):
    """(B, C) candidates for a full-row-rank (2,2) x (3,3) flattening."""
    n_mat = _row_pair_covariant(m)
    n_mat_p = _row_pair_covariant(mp)
    det_n = np.linalg.det(n_mat)
    det_np = np.linalg.det(n_mat_p)
    if det_n == 0.0 or det_np == 0.0:
        return []
    omega0 = (det_np / det_n) ** 0.25
    rs = [m[i, :].reshape(3, 3) for i in range(4)]
    out = []
    for k in range(4):
        omega = omega0 * np.exp(0.5j * np.pi * k)
        family = _intertwiner_family(n_mat_p, omega * n_mat)
        if not family:
            continue
        realigned = [realign(y, 2, 2) for y in family]
        for coeff in _rank1_points_in_family(realigned, rng):
            y = sum(ci * yi for ci, yi in zip(coeff, family))
            b = y.T
            if sigma_ratio(np.linalg.svd(b, compute_uv=False)) < 1e-10:
                continue
            s_b = np.linalg.svd(realign(b, 2, 2), compute_uv=False)
            if sigma_ratio(s_b, 1, **_GAP_EDGES) > _DIRECT_PRESCREEN_GAP:
                continue
            xi = np.linalg.solve(b, mp)
            ts = [xi[i, :].reshape(3, 3) for i in range(4)]
            got = _right_tuple_solve(rs, ts, rng)
            if got is None:
                continue
            c3, c4 = got
            out.append((b, np.kron(c3, c4)))
    return out


def _pencil_rank1_dirs(g0, g1, rtol=1e-6):
    """Factor pairs of the rank-one directions in a 2x2 matrix span.

    The determinant of ``x * g0 + y * g1`` is a binary quadratic whose
    projective roots locate the rank-one members. Returns the two factor
    pairs [(a0, b0), (a1, b1)] with the root matrix equal to
    ``outer(a, b)``, or None when the span is degenerate: a repeated
    root, an identically singular span, or a root matrix that is not
    numerically rank one.
    """
    det0 = np.linalg.det(g0)
    det1 = np.linalg.det(g1)
    cross = np.linalg.det(g0 + g1) - det0 - det1
    scale = max(abs(det0), abs(cross), abs(det1))
    if scale == 0.0:
        return None
    disc = cross * cross - 4.0 * det0 * det1
    if math.sqrt(abs(disc)) < rtol * scale:
        return None
    sq = np.sqrt(complex(disc))
    if det0 == 0.0 and det1 == 0.0:
        pairs = [(1.0, 0.0), (0.0, 1.0)]
    elif abs(det0) >= abs(det1):
        pairs = [
            ((-cross + sq) / (2.0 * det0), 1.0),
            ((-cross - sq) / (2.0 * det0), 1.0),
        ]
    else:
        pairs = [
            (1.0, (-cross + sq) / (2.0 * det1)),
            (1.0, (-cross - sq) / (2.0 * det1)),
        ]
    out = []
    for x, y in pairs:
        root = x * g0 + y * g1
        w, s, zh = np.linalg.svd(root)
        if s[1] > rtol * s[0]:
            return None
        out.append((w[:, 0] * s[0], zh[0]))
    return out


def _rank1_congruence(x, xp, rtol=1e-9):
    """Invertible pair (L, R) with L @ x @ R.T == xp, or None.

    Requires equal numerical rank; both factors are assembled from the
    singular bases, carrying the deficient directions at unit scale so
    the factors stay invertible.
    """
    ux, sx, vhx = np.linalg.svd(x)
    up, sp, vhp = np.linalg.svd(xp)
    k = int(np.sum(sx > rtol * sx[0]))
    kp = int(np.sum(sp > rtol * sp[0]))
    if k != kp:
        return None
    t = np.ones(x.shape[0])
    t[:k] = sp[:k] / sx[:k]
    left = (up * t) @ ux.conj().T
    right = vhp.T @ vhx.conj()
    return left, right


def _rank1_flat_candidates(m, mp, left, right):
    """(B, C) candidate for a rank-one flattening at any cut shape.

    Both sides decouple: B carries the folded column direction onto its
    primed image and C the folded conjugate row direction, each through
    an exact congruence; a rank mismatch between the folds means the
    relation has no Kronecker solution and yields no candidate.
    """
    wu, su, vhu = np.linalg.svd(m)
    wp, sp, vhp = np.linalg.svd(mp)
    got_u = _rank1_congruence(wu[:, 0].reshape(left), wp[:, 0].reshape(left))
    got_v = _rank1_congruence(vhu[0].reshape(right), vhp[0].reshape(right))
    if got_u is None or got_v is None:
        return []
    a1, a2 = got_u
    a3, a4 = got_v
    return [(np.kron(a1, a2) * (sp[0] / su[0]), np.kron(a3, a4))]


def _pair_scales_on_support(ratio, usable):
    """Scale vectors (s, t) with s[i] * t[j] == ratio[i, j] on ``usable``.

    Propagates assignments across the 2x2 support graph, fills the
    unconstrained remainder with ones, and re-checks every usable entry;
    returns None when the products cannot be reconciled.
    """
    s = [None, None]
    t = [None, None]
    edges = [(i, j) for i in range(2) for j in range(2) if usable[i][j]]
    if not edges:
        return None
    for _ in range(2):
        for i, j in edges:
            if s[i] is None and t[j] is None:
                t[j] = 1.0 + 0.0j
                s[i] = ratio[i][j]
            elif t[j] is None:
                t[j] = ratio[i][j] / s[i]
            elif s[i] is None:
                s[i] = ratio[i][j] / t[j]
    s = [1.0 + 0.0j if v is None else v for v in s]
    t = [1.0 + 0.0j if v is None else v for v in t]
    for i, j in edges:
        if abs(s[i] * t[j] - ratio[i][j]) > 1e-6 * abs(ratio[i][j]):
            return None
    return s, t


def _rank2_square_candidates(m, mp):
    """(B, C) candidates for a rank-two qubit-pair by qubit-pair cut.

    The two-dimensional column and row spaces fold into 2x2 pencils
    whose rank-one directions split into Kronecker factor pairs; the
    factor pairs pin B and C up to one scale pair per side, fixed by the
    coefficient matrix of the flattening in the rank-one bases. Pencils
    without two distinct rank-one directions (the W-like degenerate
    class) produce no candidates and are left to the block search.
    """
    wu, _, vhu = np.linalg.svd(m)
    wp, _, vhp = np.linalg.svd(mp)
    dirs = []
    for w, vh in ((wu, vhu), (wp, vhp)):
        col = _pencil_rank1_dirs(w[:, 0].reshape(2, 2), w[:, 1].reshape(2, 2))
        row = _pencil_rank1_dirs(vh[0].reshape(2, 2), vh[1].reshape(2, 2))
        if col is None or row is None:
            return []
        dirs.append((col, row))
    (col, row), (col_p, row_p) = dirs
    stacks = {}
    for key, pairs in (
        ("c", col), ("r", row), ("cp", col_p), ("rp", row_p)
    ):
        stacks[key] = np.column_stack([np.kron(a, b) for a, b in pairs])
        factors = np.stack(
            [np.column_stack([pairs[0][f], pairs[1][f]]) for f in (0, 1)]
        )
        if sigma_ratio(np.linalg.svd(factors, compute_uv=False)).min() < 1e-9:
            return []
    k_mat = np.linalg.pinv(stacks["c"]) @ m @ np.linalg.pinv(stacks["r"]).T
    k_mat_p = (
        np.linalg.pinv(stacks["cp"]) @ mp @ np.linalg.pinv(stacks["rp"]).T
    )
    recon = stacks["c"] @ k_mat @ stacks["r"].T
    if np.linalg.norm(recon - m) > 1e-7 * np.linalg.norm(m):
        return []
    lead = abs(k_mat).max()
    lead_p = abs(k_mat_p).max()
    out = []
    for pc in ((0, 1), (1, 0)):
        for pr in ((0, 1), (1, 0)):
            perm = k_mat_p[np.ix_(pc, pr)]
            small = abs(k_mat) < 1e-7 * lead
            small_p = abs(perm) < 1e-7 * lead_p
            if (small != small_p).any():
                continue
            usable = ~small
            ratio = np.where(usable, perm / np.where(small, 1.0, k_mat), 0.0)
            got = _pair_scales_on_support(ratio, usable)
            if got is None:
                continue
            s, t = got
            b = np.kron(
                np.column_stack([col_p[pc[0]][0], col_p[pc[1]][0]])
                @ np.linalg.inv(np.column_stack([col[0][0], col[1][0]])),
                np.column_stack([s[0] * col_p[pc[0]][1], s[1] * col_p[pc[1]][1]])
                @ np.linalg.inv(np.column_stack([col[0][1], col[1][1]])),
            )
            c = np.kron(
                np.column_stack([row_p[pr[0]][0], row_p[pr[1]][0]])
                @ np.linalg.inv(np.column_stack([row[0][0], row[1][0]])),
                np.column_stack([t[0] * row_p[pr[0]][1], t[1] * row_p[pr[1]][1]])
                @ np.linalg.inv(np.column_stack([row[0][1], row[1][1]])),
            )
            gap = np.linalg.norm(b @ m @ c.T - mp) / np.linalg.norm(mp)
            if gap <= _DIRECT_PRESCREEN_GAP:
                out.append((b, c))
    return out


def _single_rank2_kron_candidates(u_full, u_prime_full):
    """Kronecker span conjugators for a rank-two single-sided 2x2 split.

    Matches the rank-one directions of the pencils folded from the first
    two frame columns on each side; the pairing scalars stay free
    because the single-sided relation absorbs them into the coupling
    block. Degenerate pencils yield no candidates.
    """
    src = _pencil_rank1_dirs(
        u_full[:, 0].reshape(2, 2), u_full[:, 1].reshape(2, 2)
    )
    dst = _pencil_rank1_dirs(
        u_prime_full[:, 0].reshape(2, 2), u_prime_full[:, 1].reshape(2, 2)
    )
    if src is None or dst is None:
        return []
    lefts = np.column_stack([src[0][0], src[1][0]])
    rights = np.column_stack([src[0][1], src[1][1]])
    if sigma_ratio(np.linalg.svd(np.stack([lefts, rights]), compute_uv=False)).min() < 1e-9:
        return []
    out = []
    for pair in ((0, 1), (1, 0)):
        lefts_p = np.column_stack([dst[pair[0]][0], dst[pair[1]][0]])
        rights_p = np.column_stack([dst[pair[0]][1], dst[pair[1]][1]])
        pair_p = np.stack([lefts_p, rights_p])
        if sigma_ratio(np.linalg.svd(pair_p, compute_uv=False)).min() < 1e-9:
            continue
        out.append(
            np.kron(
                lefts_p @ np.linalg.inv(lefts),
                rights_p @ np.linalg.inv(rights),
            )
        )
    return out


def _direct_flat_candidates(frame, frame_prime, rng):
    """Spectral (B, C) candidates for the flattening relation, or [].

    Dispatches on the cut geometry. Invertible qubit-pair-by-qubit-pair
    flattenings use the twisted-square similarity; full-row-rank cuts
    pairing qubits against equal qutrits use the det-form covariant, on
    the transposed relation when the qubit pair sits on the columns.
    Rank-one cuts of any shape reduce to fold congruences, and rank-two
    qubit-pair cuts to pencil direction matching.
    """
    r = frame.r
    left = frame.left_dims
    right = frame.right_dims
    m = _flat_matrix(frame)
    mp = _flat_matrix(frame_prime)
    if r == 1:
        return _rank1_flat_candidates(m, mp, left, right)
    if left == (2, 2) and right == (2, 2) and r == 2:
        return _rank2_square_candidates(m, mp)
    if left == (2, 2) and right == (2, 2) and r == 4:
        return _square_qubit_candidates(m, mp, rng)
    if left == (2, 2) and right == (3, 3) and r == 4:
        return _mixed_pair_candidates(m, mp, rng)
    if left == (3, 3) and right == (2, 2) and r == 4:
        swapped = _mixed_pair_candidates(m.T, mp.T, rng)
        return [(c, b) for b, c in swapped]
    return []


def _coupling_blocks_from_operators(b, c, frame, frame_prime):
    """Candidate coupling blocks induced by explicit flattening factors.

    Inverts the recovery maps: the U side conjugates B^{-1} into the
    frame bases, the V side conjugates conj(C)^{-1}. Block-triangularity
    is enforced by construction (the dropped corner vanishes for true
    factors) and re-checked by the caller through the residual gate.
    """
    r = frame.r
    pt_full = frame.u_full.conj().T @ np.linalg.solve(b, frame_prime.u_full)
    qt_full = frame.v_full.conj().T @ np.linalg.solve(
        np.conj(c), frame_prime.v_full
    )
    cand_u = PTildeCandidate(
        P=pt_full[:r, :r], Y=pt_full[:r, r:], P_bar=pt_full[r:, r:]
    )
    cand_v = PTildeCandidate(
        P=qt_full[:r, :r], Y=qt_full[:r, r:], P_bar=qt_full[r:, r:]
    )
    return cand_u, cand_v


class _LaneResult(NamedTuple):
    """What one restart of a wave keeps: its restart index, the coupling
    blocks (P, Y, P_bar, Z, S_bar), their internal residual, and whether
    every square block clears ``CANDIDATE_MARGIN_RTOL``."""

    index: int
    blocks: tuple
    residual: float
    admissible: bool


class _Lane:
    """Mutable state of one restart inside a wave.

    ``vec`` is the Douglas-Rachford iterate in realigned coordinates during
    the first phase and the packed coupling blocks during the polish.
    ``record`` lists improvements of the best residual in the current phase
    as (residual, vector), oldest first, so residuals strictly fall along
    it; every ``_RECORD_CAP`` improvements it drops the entries that no
    walk back from the best point can select.
    ``kept`` is what the first phase settled on, as returned by
    :meth:`_Engine._settle`.
    """

    __slots__ = (
        "index", "x0", "vec", "phase", "it", "best_iter", "best_resid",
        "record", "kept", "result",
    )

    def __init__(self, index: int, x0: np.ndarray):
        self.index = index
        self.x0 = x0
        self.vec = x0
        self.phase = _DR
        self.it = 0
        self.best_iter = 0
        self.best_resid = math.inf
        self.record = []
        self.kept = None
        self.result = None


def _flat_concat(mats) -> np.ndarray:
    """Matrices (or stacks of them) flattened row-major and joined."""
    return np.concatenate([m.reshape(m.shape[:-2] + (-1,)) for m in mats], axis=-1)


def _slices(sizes):
    ends = np.cumsum([0, *sizes])
    return [slice(int(a), int(b)) for a, b in zip(ends[:-1], ends[1:])]


def _gap_sum(svals):
    """Per-lane sum of the rank-one gaps of stacked side singular values."""
    return sum(sigma_ratio(s, 1, **_GAP_EDGES).sum(axis=1) for s in svals)


def _lanes_apply(vecs: np.ndarray, mat_t: np.ndarray) -> np.ndarray:
    """Row-wise ``vecs @ mat_t``, one BLAS call per lane.

    Each lane's product is computed alone, so a lane's trajectory does not
    depend on which other lanes share its wave.
    """
    return np.matmul(vecs[:, np.newaxis, :], mat_t)[:, 0, :]


class _Engine:
    """Rank-one feasibility search over one or two frame sides.

    The candidate lives in the realigned coordinates, where the problem
    is the intersection of two sets: the linear subspace swept by the
    block-feasible couplings and the rank-one cone on each side
    (projection: singular truncation). Each restart runs Douglas-Rachford
    iterations, which escape the shallow local minima that trap plain
    alternating projection, then polishes the best point with a short
    alternating-projection phase carrying an invertibility reward.

    Restarts run in lockstep waves (:meth:`run_wave`): every lane of a
    wave is a row of one stacked array, so each numpy or LAPACK call of an
    iteration serves all lanes, and both frame sides too when their
    realignments share a shape. The subspace projection followed by the
    forward map is linear (realignment permutes entries, the frames are
    unitary, the lambda coupling is a fixed real weight), so it is built
    once as the matrix ``projector`` by pushing the identity basis through
    :meth:`_project_blocks` and :meth:`_forward`; a Douglas-Rachford
    iteration is then one product with it plus two stacked SVDs.
    Admissibility is checked lazily: a lane records each improvement and,
    when a phase ends, walks the record back from its best point to the
    latest point whose square blocks clear the margin. Improvements arrive
    with strictly falling residuals, so this is the point an eager check
    at every improvement would have kept.

    Coupling blocks are packed into one vector ``x`` in the order
    (P, Y, P_bar, Z, S_bar), each block row-major.
    """

    def __init__(self, u, u_prime, u_split, v, v_prime, v_split, weights, r, config):
        self.config = config
        self.r = r
        self.u = u
        self.u_prime_h = u_prime.conj().T
        self.u_h = u.conj().T
        self.u_prime = u_prime
        self.u_split = u_split
        self.ku = u.shape[0] - r
        self.has_v = v is not None
        splits = [u_split]
        den_p = np.ones((r, r))
        if self.has_v:
            self.v = v
            self.v_prime_h = v_prime.conj().T
            self.v_h = v.conj().T
            self.v_prime = v_prime
            self.v_split = v_split
            self.kv = v.shape[0] - r
            self.weights = weights
            splits.append(v_split)
            den_p = den_p + np.abs(weights) ** 2
        else:
            self.kv = 0
        self.conv_tol = max(min(config.residual_tol, 1e-9) * 1e-4, 5e-15)
        polish = min(80, max(10, config.max_iterations // 4))
        self.polish_iterations = polish
        self.dr_iterations = max(0, config.max_iterations - polish)

        ku, kv = self.ku, self.kv
        self._block_shapes = [(r, r), (r, ku), (ku, ku), (kv, r), (kv, kv)]
        self._block_slices = _slices([a * b for a, b in self._block_shapes])
        self._side_shapes = [(dl * dl, dr * dr) for dl, dr in splits]
        self._side_slices = _slices([a * b for a, b in self._side_shapes])
        self._uniform = len(set(self._side_shapes)) == 1
        self._den_p = den_p
        n_x = self._block_slices[-1].stop
        n_z = self._side_slices[-1].stop
        # Rows are images of basis vectors, so these are the transposes of
        # the forward map and of the refit, ready for row-vector products.
        basis_x = self._blocks(np.eye(n_x, dtype=complex))
        self._forward_t = _flat_concat(self._forward(*basis_x))
        basis_z = self._sides(np.eye(n_z, dtype=complex))
        self._project_t = _flat_concat(self._project_blocks(basis_z))
        self._projector_t = self._project_t @ self._forward_t

    @property
    def projector(self) -> np.ndarray:
        """Refit-then-forward map of one Douglas-Rachford step, as a matrix
        acting on the realigned sides flattened and joined."""
        return self._projector_t.T

    def _blocks(self, x):
        """Coupling blocks of a packed vector, or of each row of a stack."""
        lead = x.shape[:-1]
        return tuple(
            x[..., sl].reshape(lead + shape)
            for sl, shape in zip(self._block_slices, self._block_shapes)
        )

    def _sides(self, z):
        """Realigned side matrices of a vector, or of each row of a stack."""
        lead = z.shape[:-1]
        return [
            z[..., sl].reshape(lead + shape)
            for sl, shape in zip(self._side_slices, self._side_shapes)
        ]

    def _init_blocks(self, restart_index: int) -> np.ndarray:
        r, ku, kv = self.r, self.ku, self.kv
        if restart_index == 0:
            p = np.eye(r, dtype=complex)
            pb = np.eye(ku, dtype=complex)
            sb = np.eye(kv, dtype=complex)
        else:
            rng = np.random.default_rng((self.config.rng_seed, restart_index))
            p = _ginibre_unit(rng, r)
            pb = _ginibre_unit(rng, ku)
            sb = _ginibre_unit(rng, kv)
        y = np.zeros((r, ku), dtype=complex)
        z = np.zeros((kv, r), dtype=complex)
        x = _flat_concat((p, y, pb, z, sb))
        return x / np.linalg.norm(x)

    def _forward(self, p, y, pb, z, sb):
        """Realigned conjugated frames of coupling blocks (or stacks of them)."""
        r = self.r
        lead = p.shape[:-2]
        theta_u = np.zeros(lead + (r + self.ku,) * 2, dtype=complex)
        theta_u[..., :r, :r] = p
        if self.ku:
            theta_u[..., :r, r:] = y
            theta_u[..., r:, r:] = pb
        k_u = self.u @ theta_u @ self.u_prime_h
        mats = [realign(k_u, *self.u_split)]
        if self.has_v:
            theta_v = np.zeros(lead + (r + self.kv,) * 2, dtype=complex)
            theta_v[..., :r, :r] = self.weights * p
            if self.kv:
                theta_v[..., r:, :r] = z
                theta_v[..., r:, r:] = sb
            k_v = self.v @ theta_v @ self.v_prime_h
            mats.append(realign(k_v, *self.v_split))
        return mats

    def _project_blocks(self, targets):
        """Nearest block-feasible coupling to realigned side matrices.

        The normal equations are diagonal (realignment permutes entries and
        the frames are unitary), so every block is an entrywise refit. Takes
        one matrix per side, or one stack per side.
        """
        r = self.r
        m_u = unrealign(targets[0], *self.u_split)
        g_u = self.u_h @ m_u @ self.u_prime
        num_p = g_u[..., :r, :r].copy()
        if self.has_v:
            m_v = unrealign(targets[1], *self.v_split)
            g_v = self.v_h @ m_v @ self.v_prime
            num_p += np.conj(self.weights) * g_v[..., :r, :r]
        p = num_p / self._den_p
        y = g_u[..., :r, r:]
        pb = g_u[..., r:, r:]
        if self.has_v:
            z = g_v[..., r:, :r]
            sb = g_v[..., r:, r:]
        else:
            z = np.zeros(p.shape[:-2] + (0, r), dtype=complex)
            sb = np.zeros(p.shape[:-2] + (0, 0), dtype=complex)
        return p, y, pb, z, sb

    def _side_stacks(self, z):
        """Realigned matrices of every lane, grouped by shape: (lanes, sides, a, b)."""
        lanes = z.shape[0]
        if self._uniform:
            return [z.reshape(lanes, len(self._side_shapes), *self._side_shapes[0])]
        return [
            z[:, sl].reshape(lanes, 1, *shape)
            for sl, shape in zip(self._side_slices, self._side_shapes)
        ]

    def _gaps(self, z):
        """Sum over sides of sigma2/sigma1, per lane."""
        return _gap_sum(np.linalg.svd(m, compute_uv=False) for m in self._side_stacks(z))

    def _truncation(self, z):
        """Nearest rank-one matrices of every lane and side, packed, and
        the singular values of each side stack."""
        lanes = z.shape[0]
        parts, svals = [], []
        for m in self._side_stacks(z):
            w, s, vh = np.linalg.svd(m, full_matrices=False)
            top = s[..., :1, np.newaxis] * w[..., :1] * vh[..., :1, :]
            parts.append(top.reshape(lanes, -1))
            svals.append(s)
        return np.concatenate(parts, axis=1), svals

    def _log_det_ascent(self, x):
        """pinv(B)^H for each square block B of each lane, in packed form.

        This is the ascent direction of log|det B|; the P block shares the
        least-squares denominator of the refit.
        """
        out = np.zeros_like(x)
        p, _, pb, _, sb = self._blocks(x)
        sl = self._block_slices
        for where, block, den in (
            (sl[0], p, self._den_p), (sl[2], pb, 1.0), (sl[4], sb, 1.0)
        ):
            if block.shape[-1]:
                inv_adj = np.linalg.pinv(block, rcond=1e-10).conj().swapaxes(-1, -2)
                out[:, where] = (inv_adj / den).reshape(x.shape[0], -1)
        return out

    def _admissible(self, xs) -> np.ndarray:
        """Whether every square block of each packed row clears the margin."""
        p, _, pb, _, sb = self._blocks(xs)
        ok = np.ones(xs.shape[0], dtype=bool)
        for block in (p, pb, sb):
            if block.shape[-1]:
                margin = sigma_ratio(np.linalg.svd(block, compute_uv=False))
                ok &= margin >= CANDIDATE_MARGIN_RTOL
        return ok

    def _packed(self, vecs, in_dr: bool):
        """Packed blocks of record vectors; first-phase entries are realigned
        iterates, whose blocks are their projection."""
        return _lanes_apply(vecs, self._project_t) if in_dr else vecs

    def _latest_admissible(self, record, in_dr: bool):
        """(position, packed blocks) of the latest admissible entry, or None.

        Walks ``record`` back from its best point in growing chunks, so the
        usual case, an admissible best point, costs one check.
        """
        end, size = len(record), 1
        while end > 0:
            start = max(0, end - size)
            xs = self._packed(np.stack([vec for _, vec in record[start:end]]), in_dr)
            ok = np.flatnonzero(self._admissible(xs))
            if ok.size:
                k = int(ok[-1])
                return start + k, xs[k]
            end, size = start, 4 * size
        return None

    def _settle(self, record, in_dr: bool):
        """(residual, packed blocks, admissible) a phase keeps, or None.

        The latest admissible entry of ``record`` when there is one, else
        its best entry outright.
        """
        if not record:
            return None
        found = self._latest_admissible(record, in_dr)
        if found is not None:
            return record[found[0]][0], found[1], True
        resid, vec = record[-1]
        return resid, self._packed(vec[np.newaxis], in_dr)[0], False

    def _compact(self, lane: _Lane):
        """Keep only the record entries a later walk can select: the latest
        admissible one and the best one."""
        record = lane.record
        found = self._latest_admissible(record, lane.phase == _DR)
        keep = [] if found is None else [record[found[0]]]
        if found is None or found[0] != len(record) - 1:
            keep.append(record[-1])
        lane.record = keep

    def _observe(self, lane: _Lane, resid: float, vec, window: int, limit: int) -> bool:
        """Record an iteration's residual; True when the lane's phase ends."""
        if resid < lane.best_resid:
            lane.best_resid = resid
            lane.best_iter = lane.it
            lane.record.append((resid, vec))
            if len(lane.record) >= _RECORD_CAP:
                self._compact(lane)
        ended = (
            resid <= self.conv_tol
            or lane.it - lane.best_iter >= window
            or lane.it + 1 >= limit
        )
        lane.it += 1
        return ended

    def _begin_polish(self, lane: _Lane):
        lane.kept = self._settle(lane.record, in_dr=True)
        start = lane.x0 if lane.kept is None else lane.kept[1]
        lane.vec = start / np.linalg.norm(start)
        lane.record = []
        lane.phase, lane.it, lane.best_iter = _POLISH, 0, 0

    def _finish(self, lane: _Lane):
        polished = self._settle(lane.record, in_dr=False)
        if polished is not None and polished[2]:
            choice = polished
        elif lane.kept is not None and lane.kept[2]:
            choice = lane.kept
        else:
            choice = polished or lane.kept or (lane.best_resid, lane.x0, False)
        resid, x, admissible = choice
        lane.result = _LaneResult(lane.index, self._blocks(x), resid, admissible)
        lane.phase = _DONE

    def _dr_step(self, lanes):
        if not lanes:
            return
        z = np.stack([lane.vec for lane in lanes])
        proj = _lanes_apply(z, self._projector_t)
        resid = self._gaps(proj)
        truncated, _ = self._truncation(2.0 * proj - z)
        z_next = z + truncated - proj
        scale = np.linalg.norm(z_next, axis=1)
        z_next /= np.where(scale > 0.0, scale, 1.0)[:, np.newaxis]
        for j, lane in enumerate(lanes):
            resid_j = float(resid[j])
            if self._observe(lane, resid_j, z[j], DR_STALL_WINDOW, self.dr_iterations):
                self._begin_polish(lane)
            else:
                lane.vec = z_next[j]

    def _polish_step(self, lanes):
        if not lanes:
            return
        x = np.stack([lane.vec for lane in lanes])
        truncated, svals = self._truncation(_lanes_apply(x, self._forward_t))
        resid = _gap_sum(svals)
        w_eff = self.config.invertibility_penalty_weight * resid
        x_next = _lanes_apply(truncated, self._project_t)
        x_next += (w_eff / 2.0)[:, np.newaxis] * self._log_det_ascent(x)
        x_next /= np.linalg.norm(x_next, axis=1)[:, np.newaxis]
        for j, lane in enumerate(lanes):
            resid_j = float(resid[j])
            if self._observe(lane, resid_j, x[j], STALL_WINDOW, self.polish_iterations):
                self._finish(lane)
            else:
                lane.vec = x_next[j]

    def run_wave(self, indices):
        """Iterate the restarts ``indices`` in lockstep.

        Yields one :class:`_LaneResult` per restart, in the order of
        ``indices``, as soon as that restart and every earlier one have
        finished; a caller that stops consuming abandons the rest of the
        wave. Each result prefers the best point whose square blocks clear
        the invertibility margin and falls back to the best point outright
        when no iterate was admissible.
        """
        lanes = [_Lane(index, self._init_blocks(index)) for index in indices]
        for lane in lanes:
            if self.dr_iterations:
                lane.vec = _lanes_apply(lane.x0[np.newaxis], self._forward_t)[0]
            else:
                self._begin_polish(lane)
        done = 0
        while done < len(lanes):
            self._dr_step([lane for lane in lanes if lane.phase == _DR])
            self._polish_step([lane for lane in lanes if lane.phase == _POLISH])
            while done < len(lanes) and lanes[done].phase == _DONE:
                yield lanes[done].result
                done += 1


def _search_waves(
    engine: _Engine, config: SolverConfig, gate, best_resid, best
) -> SolveOutcome:
    """Run the engine's restarts wave by wave and gate each admissible lane.

    ``gate(blocks)`` returns (residual, candidate tuple). Lanes are gated
    in restart order, so ``restarts_used`` on FOUND is one plus the lowest
    restart index that passes the residual gate; the wave holding it stops
    there. ``best_resid`` and ``best`` carry the best candidate of the
    spectral prelude.
    """
    for start in range(0, config.restarts, WAVE_LANES):
        wave = range(start, min(start + WAVE_LANES, config.restarts))
        for lane in engine.run_wave(wave):
            if not lane.admissible:
                continue
            resid, cand = gate(lane.blocks)
            if resid < best_resid:
                best_resid, best = resid, cand
            if resid <= config.residual_tol:
                return SolveOutcome(
                    status=SolveStatus.FOUND,
                    candidate=cand,
                    residual=resid,
                    restarts_used=lane.index + 1,
                )
    return SolveOutcome(
        status=SolveStatus.EXHAUSTED,
        candidate=best,
        residual=best_resid,
        restarts_used=config.restarts,
    )


def residual(
    pt: PTildeCandidate,
    qt: PTildeCandidate,
    frames: tuple[SingularFrame, SingularFrame],
) -> float:
    """Distance of a candidate pair from certifying equivalence.

    Sum over both sides of sigma2/sigma1 of the realigned conjugated
    frames; zero exactly when both realignments are rank one. ``frames``
    is (unprimed, primed) in the same order as :func:`solve_ptilde`.
    """
    frame, frame_prime = frames
    r_u = realign(
        frame.u_full @ pt.assembled @ frame_prime.u_full.conj().T,
        *frame.left_dims,
    )
    r_v = realign(
        frame.v_full @ qt.assembled @ frame_prime.v_full.conj().T,
        *frame.right_dims,
    )
    s_u = np.linalg.svd(r_u, compute_uv=False)
    s_v = np.linalg.svd(r_v, compute_uv=False)
    return sigma_ratio(s_u, 1, **_GAP_EDGES) + sigma_ratio(s_v, 1, **_GAP_EDGES)


def _single_residual(cand: PTildeCandidate, u_full, u_prime_full, split) -> float:
    """Rank-one gap of the single-sided realignment, as in :func:`residual`."""
    realigned = realign(u_full @ cand.assembled @ u_prime_full.conj().T, *split)
    return sigma_ratio(np.linalg.svd(realigned, compute_uv=False), 1, **_GAP_EDGES)


def _convert_v_candidate(p, z, sb, lam, lam_prime):
    """True V-side candidate from the lower-triangular search blocks.

    The search works on S = Q-tilde^{-H} = [[diag(1/lam) P diag(lam'), 0],
    [Z, S_bar]]; the returned upper-triangular blocks are
    Q = S11^{-H}, Y = -Q @ Z^H @ Q_bar, Q_bar = S_bar^{-H}.
    """
    s11 = couple_q(p, lam, lam_prime)
    q = np.linalg.inv(s11).conj().T
    kv = sb.shape[0]
    if kv:
        q_bar = np.linalg.inv(sb).conj().T
        y = -q @ z.conj().T @ q_bar
    else:
        q_bar = np.zeros((0, 0), dtype=complex)
        y = np.zeros((p.shape[0], 0), dtype=complex)
    return PTildeCandidate(P=q, Y=y, P_bar=q_bar)


def solve_ptilde(
    frame: SingularFrame,
    frame_prime: SingularFrame,
    config: SolverConfig,
) -> SolveOutcome:
    """Search for the coupling pair certifying frame -> frame_prime.

    ``frame`` belongs to the unprimed state (the one the recovered
    operators act on) and ``frame_prime`` to its image. On FOUND the
    candidate pair (U side, V side) satisfies ``residual(...) <=
    config.residual_tol`` with all square blocks invertible at margin
    ``CANDIDATE_MARGIN_RTOL``. EXHAUSTED reports the best admissible
    point seen and is never evidence of inequivalence.

    Several geometries are first attempted by direct spectral
    construction: invertible or rank-two flattenings with qubit pairs on
    both sides, invertible qubit-pair-by-qutrit-pair flattenings, and
    rank-one flattenings of any shape. A success there reports
    ``restarts_used == 0``. All other geometries, and any pair the
    construction does not certify, fall through to the randomized block
    search.
    """
    if frame.r != frame_prime.r:
        raise ValueError(
            f"frame ranks differ ({frame.r} vs {frame_prime.r}); "
            "rank inequality is already an inequivalence proof"
        )
    if (
        frame.row_dim != frame_prime.row_dim
        or frame.col_dim != frame_prime.col_dim
        or frame.left_dims != frame_prime.left_dims
        or frame.right_dims != frame_prime.right_dims
    ):
        raise ValueError("frames live on different spaces")
    r = frame.r
    lam = frame.singular_values
    lam_prime = frame_prime.singular_values
    best_resid = math.inf
    best_pair = None
    rng_direct = np.random.default_rng((config.rng_seed, 0))
    for b, c in _direct_flat_candidates(frame, frame_prime, rng_direct):
        cand_u, cand_v = _coupling_blocks_from_operators(b, c, frame, frame_prime)
        if min(cand_u.min_margin(), cand_v.min_margin()) < CANDIDATE_MARGIN_RTOL:
            continue
        spec_resid = residual(cand_u, cand_v, (frame, frame_prime))
        if spec_resid < best_resid:
            best_resid = spec_resid
            best_pair = (cand_u, cand_v)
        if spec_resid <= config.residual_tol:
            return SolveOutcome(
                status=SolveStatus.FOUND,
                candidate=(cand_u, cand_v),
                residual=spec_resid,
                restarts_used=0,
            )
    engine = _Engine(
        u=frame.u_full,
        u_prime=frame_prime.u_full,
        u_split=frame.left_dims,
        v=frame.v_full,
        v_prime=frame_prime.v_full,
        v_split=frame.right_dims,
        weights=lam_prime[np.newaxis, :] / lam[:, np.newaxis],
        r=r,
        config=config,
    )

    def gate(blocks):
        p, y, pb, z, sb = blocks
        pair = (
            PTildeCandidate(P=p, Y=y, P_bar=pb),
            _convert_v_candidate(p, z, sb, lam, lam_prime),
        )
        return residual(*pair, (frame, frame_prime)), pair

    return _search_waves(engine, config, gate, best_resid, best_pair)


def solve_ptilde_single(
    u_full: np.ndarray,
    u_prime_full: np.ndarray,
    r: int,
    split: tuple[int, int],
    config: SolverConfig,
) -> SolveOutcome:
    """Single-sided variant for tripartite checking (no lambda coupling).

    Searches for one block upper-triangular candidate making
    ``realign(U @ P_tilde @ U'^{-1}, *split)`` rank one. The outcome's
    candidate is a 1-tuple. Rank-two problems on a 2x2 split are first
    attempted by pencil direction matching (``restarts_used == 0`` on
    success) before the randomized block search runs.
    """
    if u_full.shape != u_prime_full.shape:
        raise ValueError("frames live on different spaces")
    best_resid = math.inf
    best = None
    if r == 2 and split == (2, 2):
        for m_cand in _single_rank2_kron_candidates(u_full, u_prime_full):
            pt_full = u_full.conj().T @ np.linalg.solve(m_cand, u_prime_full)
            cand = PTildeCandidate(
                P=pt_full[:r, :r], Y=pt_full[:r, r:], P_bar=pt_full[r:, r:]
            )
            if cand.min_margin() < CANDIDATE_MARGIN_RTOL:
                continue
            gap = _single_residual(cand, u_full, u_prime_full, split)
            if gap < best_resid:
                best_resid = gap
                best = (cand,)
            if gap <= config.residual_tol:
                return SolveOutcome(
                    status=SolveStatus.FOUND,
                    candidate=(cand,),
                    residual=gap,
                    restarts_used=0,
                )
    engine = _Engine(
        u=u_full,
        u_prime=u_prime_full,
        u_split=split,
        v=None,
        v_prime=None,
        v_split=None,
        weights=None,
        r=r,
        config=config,
    )

    def gate(blocks):
        p, y, pb, _, _ = blocks
        cand = PTildeCandidate(P=p, Y=y, P_bar=pb)
        return _single_residual(cand, u_full, u_prime_full, split), (cand,)

    return _search_waves(engine, config, gate, best_resid, best)
