"""Spectral constructions of local operators between two flattenings.

Two states flattened at the same cut into M and M' are related by local
operators exactly when ``M' ∝ (A_l1 (x) A_l2) M (A_r1 (x) A_r2)^T``, with
the row pair's operators on the left and the column pair's on the right.
Every construction here proposes such per-party factors in closed form
from the two singular frames; the caller re-applies each candidate to the
raw amplitudes and accepts only what verifies, so spurious candidates are
harmless. The one gate applied here is the invertibility floor
``CANDIDATE_MARGIN_RTOL`` on each side's Kronecker product. A geometry
without a construction is reported EXHAUSTED at once.

On a qubit pair the antisymmetric form eps satisfies
``A^T eps A = det(A) eps`` for every 2x2 operator A, so with
``J = kron(eps, eps)`` the twisted square ``T(M) = M J M^T J`` of an
invertible flattening obeys ``T(M') = delta B T(M) B^{-1}`` whenever
``M' = B M C^T`` with Kronecker B and C. The left factor therefore lives
in a Sylvester intertwiner family computable by one nullspace, with
delta pinned up to a fourth root of unity by determinants; inside the
family, Kronecker points are eigenvectors of a small two-probe pencil.
When the columns are a pair of qutrits instead of qubits the same
similarity is manufactured from the cubic form det(fold(M^T x)) on the
row space. Its symmetric polarization tensor E, built once from the
folded rows, gives the Hessian as E x; the trace square of the J-twisted
Hessian is then a quadratic in x whose matrix transforms by congruence
with B, and J converts that congruence into a similarity. Once B is
known, the qutrit factors of ``B^{-1} M' = M (G (x) H)^T`` satisfy
``G S_i = S'_i H^{-T}`` on the folded rows, which is linear in
(G, H^{-T}) and solved by one nullspace. Both constructions end with a
whole 4x4 matrix B, which is split into its qubit factors.

At rank two on qubit pairs the column and row spaces fold into
two-dimensional spans of 2x2 matrices. Under ``X -> A X B^T`` such a span
with a nonzero determinant form is equivalent to span{E11, E22} when the
binary quadratic ``det(x X0 + y X1)`` has two distinct roots and to
span{E11, E12 + E21} when the root is repeated (the Kronecker canonical
forms of a 2x2 pencil, Gantmacher, *Theory of Matrices* II, ch. XII).
The Kronecker pairs preserving a normal span act on its basis through a
few linear families of 2x2 matrices, so matching the two states' normal
forms is one small nullspace per family. Rank-one cuts of any shape
reduce to congruences of the folded singular vectors.

The single-sided variant used for tripartite checks on a 2x2 split
proposes factors ``(A_1, A_2)`` whose Kronecker product carries the span
of the slices onto its primed partner: by congruence of the one slice at
rank one, by the pencil normal forms at rank two, by congruence of the
annihilating complement at rank three, and by the identity at rank four.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .decomposition import SingularFrame
from .tensorops import FactorizationError, rank1_kron_factor, realign, sigma_ratio

# Smallest acceptable sigma_min/sigma_max of each side's Kronecker
# product. Planted orbits at condition cap 20 give margins above 1e-4;
# degenerate collapse gives machine-zero margins.
CANDIDATE_MARGIN_RTOL = 1e-8

# Edge values of the rank-one gap sigma2/sigma1: a zero matrix is as far
# from rank one as the gap can say, and a matrix with a single row or
# column is rank one.
_GAP_EDGES = {"if_zero": 1.0, "if_short": 0.0}


class SolveStatus(Enum):
    FOUND = "FOUND"
    EXHAUSTED = "EXHAUSTED"


@dataclass(frozen=True)
class SolverConfig:
    """Seed of the constructions.

    ``rng_seed`` seeds the probe vectors of the spectral constructions.
    ``restarts`` has no effect: every candidate comes from a closed-form
    construction and no randomized search runs. It is still accepted,
    and must be positive, because existing callers such as the
    benchmark's workloads pass it.
    """

    rng_seed: int
    restarts: int = 1

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")


@dataclass(frozen=True, eq=False)
class SolveOutcome:
    """Candidates of a construction. EXHAUSTED is never a proof of inequivalence.

    ``candidates`` holds, in construction order, the per-party factor
    tuples that clear the invertibility floor: ``(A_l1, A_l2, A_r1, A_r2)``
    for the two-sided search, ``(A_1, A_2)`` for the single-sided one.
    None of them is verified yet. FOUND means there is at least one;
    EXHAUSTED means the geometry has no construction or every candidate
    fell below the floor. ``restarts_used`` is always 0.
    """

    status: SolveStatus
    candidates: tuple
    restarts_used: int


_EPS2 = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
_QUBIT_PAIR_FORM = np.kron(_EPS2, _EPS2)

# Levi-Civita symbol on three indices: +1 on even, -1 on odd permutations.
_EPS3 = np.zeros((3, 3, 3))
_EPS3[[0, 1, 2], [1, 2, 0], [2, 0, 1]] = 1.0
_EPS3[[0, 2, 1], [2, 1, 0], [1, 0, 2]] = -1.0

# Relative misfit up to which a construction still proposes a candidate:
# the Kronecker gap of a whole 4x4 matrix, or the misfit of a nullspace
# point (a right tuple or a rank-two core). Verification on the amplitudes
# remains the only acceptance authority.
_DIRECT_PRESCREEN_GAP = 1e-6


def _kron_split(mat: np.ndarray):
    """Qubit-pair factors ``(X, Y)`` with ``mat ≈ kron(X, Y)``, or None."""
    try:
        return rank1_kron_factor(mat, 2, 2, _DIRECT_PRESCREEN_GAP)
    except FactorizationError:
        return None


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


def _row_pair_covariant(m: np.ndarray) -> np.ndarray:
    """Similarity covariant of a (2,2)-row, (3,3)-column flattening.

    With the folded rows S_i, the symmetric polarization
    ``E_ijk = eps_abc eps_lmn S_i[a,l] S_j[b,m] S_k[c,n]`` of the cubic
    form gives ``Hess det(sum_k x_k S_k) = E x``, so the quadratic form
    ``x -> tr((J Hess)^2)`` has matrix ``Q_kl = tr(J E_k J E_l)``.
    Returns N = J Q; for related flattenings N' = omega B^{-T} N B^T
    with one unknown scalar omega.
    """
    s = m.reshape(-1, 3, 3)
    half = np.einsum("abc,ial,jbm->ijlmc", _EPS3, s, s)
    e = np.einsum("ijlmc,lmn,kcn->ijk", half, _EPS3, s)
    je = np.einsum("ab,bck->ack", _QUBIT_PAIR_FORM, e)
    return _QUBIT_PAIR_FORM @ np.einsum("abk,bal->kl", je, je)


def _binary_quadratic_roots(a, b, c, rtol):
    """Projective roots ``(x, y)`` of ``a x^2 + b x y + c y^2``, or None.

    Returns None for a zero form or a repeated root, which is
    ``sqrt|b^2 - 4ac| < rtol * max(|a|, |b|, |c|)``. Otherwise the roots
    are ``(q : a)`` and ``(c : q)`` with ``q = -(b + s sqrt(disc)) / 2``
    and the sign ``s`` that avoids cancellation, so no root divides by a
    coefficient that is pure roundoff; each is scaled so its larger
    entry is 1.
    """
    scale = max(abs(a), abs(b), abs(c))
    if scale == 0.0:
        return None
    disc = b * b - 4.0 * a * c
    if math.sqrt(abs(disc)) < rtol * scale:
        return None
    sq = np.sqrt(complex(disc))
    if (np.conj(b) * sq).real < 0.0:
        sq = -sq
    q = -(b + sq) / 2.0
    return [
        (1.0, y / x) if abs(x) >= abs(y) else (x / y, 1.0)
        for x, y in ((q, a), (c, q))
    ]


def _sym_root_dirs(x, rtol=1e-8):
    """Factor directions of a symmetric 2x2 matrix, or None.

    A rank-two symmetric X splits as v w^T + w v^T; the factors are the
    symplectic rotations of the isotropic directions of the associated
    binary quadratic. Returns None for a repeated direction or a zero
    matrix.
    """
    zs = _binary_quadratic_roots(x[0, 0], 2.0 * x[0, 1], x[1, 1], rtol)
    if zs is None:
        return None
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
    """Factor candidates for mp = B m C^T on an invertible 4x4 qubit cut.

    For each determinant-ratio root the B side sweeps the twisted-square
    intertwiner family; its rank-one realignment points come from the
    probe pencil when the twisted spectrum is simple and from the wedge
    eigen-plane construction when it carries two double eigenvalues.
    C follows by a linear solve, and a candidate is proposed when both B
    and C split into Kronecker factors.
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
            left = _kron_split(b)
            if left is None:
                continue
            right = _kron_split(np.linalg.solve(m, np.linalg.solve(b, mp)).T)
            if right is not None:
                out.append(left + right)
    return out


def _nullspace_point(system: np.ndarray, rng):
    """Seeded random point of the numerical nullspace of ``system``, or None.

    The nullspace keeps at least the smallest right singular vector, so a
    noisy system still proposes its best point for verification. The
    point is dropped when its relative misfit
    ``|system x| / (sigma_max |x|)`` exceeds ``_DIRECT_PRESCREEN_GAP``.
    """
    _, s, vh = np.linalg.svd(system)
    rank = min(int(np.sum(s > 1e-8 * s[0])), len(vh) - 1)
    null = vh[rank:].conj()
    mix = rng.standard_normal(len(null)) + 1j * rng.standard_normal(len(null))
    point = mix @ null
    misfit = np.linalg.norm(system @ point) / (s[0] * np.linalg.norm(point))
    return None if misfit > _DIRECT_PRESCREEN_GAP else point


def _right_tuple_solve(rs, ts, rng):
    """(G, H) with G @ rs[i] @ H.T = ts[i] for all i, or None.

    With ``K = H^-T`` the relation reads ``G rs[i] = ts[i] K``, linear in
    (G, K), so one nullspace over the stacked slices gives both factors.
    Returns None when the point misfits or K falls below the
    invertibility floor.
    """
    d = rs[0].shape[0]
    eye = np.eye(d)
    system = np.vstack(
        [np.hstack([np.kron(eye, r.T), -np.kron(t, eye)]) for r, t in zip(rs, ts)]
    )
    point = _nullspace_point(system, rng)
    if point is None:
        return None
    g, k = point[: d * d].reshape(d, d), point[d * d :].reshape(d, d)
    if sigma_ratio(np.linalg.svd(k, compute_uv=False)) < CANDIDATE_MARGIN_RTOL:
        return None
    return g, np.linalg.inv(k).T


def _mixed_pair_candidates(m, mp, rng):
    """Factor candidates for a full-row-rank (2,2) x (3,3) flattening."""
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
            left = _kron_split(b)
            if left is None:
                continue
            xi = np.linalg.solve(b, mp)
            ts = [xi[i, :].reshape(3, 3) for i in range(4)]
            right = _right_tuple_solve(rs, ts, rng)
            if right is not None:
                out.append(left + right)
    return out


_E11, _E12, _E21, _E22 = (np.eye(4)[k].reshape(2, 2) for k in range(4))
_SWAP2 = _E12 + _E21


class _PencilForm(NamedTuple):
    """Local normal form of a two-dimensional span of 2x2 matrices.

    ``basis`` holds the normal span's basis matrices, flattened row-major,
    as columns. A Kronecker pair (A, B) that preserves the span under
    ``X -> A X B^T`` acts on ``basis`` by a 2x2 matrix rho. Each entry of
    ``families`` is one linear space rho ranges over, as a list of basis
    matrices, with a map from an invertible rho back to one such pair.
    """

    basis: np.ndarray
    families: tuple


# span{E11, E22}: both factors diagonal (rho diagonal) or both
# anti-diagonal (rho anti-diagonal).
_GHZ_FORM = _PencilForm(
    np.column_stack([_E11.ravel(), _E22.ravel()]),
    (
        ((_E11, _E22), lambda rho: (rho, np.eye(2))),
        ((_E12, _E21), lambda rho: (rho, _SWAP2)),
    ),
)

# span{E11, E12 + E21}: both factors upper triangular, rho upper triangular.
_W_FORM = _PencilForm(
    np.column_stack([_E11.ravel(), _SWAP2.ravel()]),
    (((_E11, _E12, _E22), lambda rho: (rho / rho[0, 0], np.diag(np.diagonal(rho)))),),
)


def _pencil_normal_form(x0, x1, rtol=1e-6):
    """``(N1, N2, form)`` sending span{x0, x1} to the normal span, or None.

    ``x0`` and ``x1`` must be orthonormal; ``N1 X N2^T`` lies in the span
    of ``form.basis`` for every X in theirs. With two distinct rank-one
    members ``a_i b_i^T``, ``N1 = [a0 a1]^-1`` and ``N2 = [b0 b1]^-1`` give
    span{E11, E22}. With one repeated rank-one member ``a b^T``, N1 and N2
    send a and b to e1 and are rescaled so that the member orthogonal to
    it becomes ``x E11 + E12 + E21``. Returns None when every member is
    singular or a root member is not numerically rank one.
    """
    det0 = np.linalg.det(x0)
    det1 = np.linalg.det(x1)
    cross = np.linalg.det(x0 + x1) - det0 - det1
    if max(abs(det0), abs(cross), abs(det1)) < rtol:
        return None
    roots = _binary_quadratic_roots(det0, cross, det1, rtol)
    if roots is None:
        # The repeated root -b/2a = -2c/b, in its better-scaled form.
        roots = [(-cross, 2.0 * det0) if abs(det0) >= abs(det1) else (2.0 * det1, -cross)]
    factors = []
    for x, y in roots:
        w, s, vh = np.linalg.svd(x * x0 + y * x1)
        if s[1] > rtol * s[0]:
            return None
        factors.append((w[:, 0] * s[0], vh[0]))
    if len(factors) == 2:
        (a0, b0), (a1, b1) = factors
        n1 = np.linalg.inv(np.column_stack([a0, a1]))
        n2 = np.linalg.inv(np.column_stack([b0, b1]))
        return n1, n2, _GHZ_FORM
    ((a, b),) = factors
    n1 = np.linalg.inv(np.column_stack([a, [-np.conj(a[1]), np.conj(a[0])]]))
    n2 = np.linalg.inv(np.column_stack([b, [-np.conj(b[1]), np.conj(b[0])]]))
    x, y = roots[0]
    other = n1 @ (-np.conj(y) * x0 + np.conj(x) * x1) @ n2.T
    n1 = np.diag([1.0, 1.0 / other[1, 0]]) @ n1
    n2 = np.diag([1.0, 1.0 / other[0, 1]]) @ n2
    return n1, n2, _W_FORM


def _congruence(x, xp, rtol=1e-9):
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


def _rank1_flat_candidates(frame, frame_prime):
    """Factor candidate for a rank-one flattening at any cut shape.

    Both sides decouple: the row factors carry the folded column
    direction onto its primed image and the column factors the folded
    conjugate row direction, each through an exact congruence; a rank
    mismatch between the folds means the relation has no Kronecker
    solution and yields no candidate.
    """
    left, right = frame.left_dims, frame.right_dims
    got_u = _congruence(
        frame.u_full[:, 0].reshape(left), frame_prime.u_full[:, 0].reshape(left)
    )
    got_v = _congruence(
        frame.v_full[:, 0].conj().reshape(right),
        frame_prime.v_full[:, 0].conj().reshape(right),
    )
    if got_u is None or got_v is None:
        return []
    return [got_u + got_v]


def _between(src, dst, a=np.eye(2), b=np.eye(2)):
    """Factors ``(N1'^-1 a N1, N2'^-1 b N2)`` of a map between normal forms.

    ``src`` and ``dst`` are ``(N1, N2, form)`` and ``(N1', N2', form)``; when
    (a, b) preserves the normal span, the Kronecker product of the factors
    carries the span ``src`` was taken from onto the span of ``dst``.
    """
    return np.linalg.solve(dst[0], a @ src[0]), np.linalg.solve(dst[1], b @ src[1])


def _rank2_square_candidates(frame, frame_prime, rng):
    """Factor candidates for a rank-two qubit-pair by qubit-pair cut.

    Each state's column and row spans go to their normal forms, giving
    ``(N1 (x) N2) M (N3 (x) N4)^T = S_c k S_r^T`` with the normal bases
    S_c, S_r and an invertible 2x2 core k. Related states have equal
    forms and ``k' = rho_c k rho_r^T`` for stabiliser actions rho_c and
    rho_r; with ``sigma = rho_r^-T`` that is ``k' sigma = rho_c k``, linear
    in (sigma, rho_c) on each pair of stabiliser families. A seeded random
    point of each nullspace is lifted back to Kronecker factors.
    """
    forms = []
    for f in (frame, frame_prime):
        u, v = f.u_full, f.v_full.conj()
        col = _pencil_normal_form(u[:, 0].reshape(2, 2), u[:, 1].reshape(2, 2))
        row = _pencil_normal_form(v[:, 0].reshape(2, 2), v[:, 1].reshape(2, 2))
        if col is None or row is None:
            return []
        g = np.kron(col[0], col[1]) @ f.reconstruct() @ np.kron(row[0], row[1]).T
        core = np.linalg.pinv(col[2].basis) @ g @ np.linalg.pinv(row[2].basis).T
        forms.append((col, row, core))
    (col, row, k), (col_p, row_p, k_p) = forms
    if col[2] is not col_p[2] or row[2] is not row_p[2]:
        return []
    out = []
    for basis_c, lift_c in col[2].families:
        for basis_r, lift_r in row[2].families:
            basis_s = [q.T for q in basis_r]
            system = np.column_stack(
                [(k_p @ q).ravel() for q in basis_s] + [-(p @ k).ravel() for p in basis_c]
            )
            coeff = _nullspace_point(system, rng)
            if coeff is None:
                continue
            sigma = sum(ci * q for ci, q in zip(coeff, basis_s))
            rho_c = sum(ci * p for ci, p in zip(coeff[len(basis_s):], basis_c))
            margins = sigma_ratio(np.linalg.svd(np.stack([sigma, rho_c]), compute_uv=False))
            if margins.min() < 1e-10:
                continue
            out.append(
                _between(col, col_p, *lift_c(rho_c))
                + _between(row, row_p, *lift_r(np.linalg.inv(sigma).T))
            )
    return out


def _single_kron_candidates(u_full, u_prime_full, r):
    """Factor pairs carrying one slice span onto the other, on a 2x2 split.

    The spans are those of the first ``r`` frame columns, folded to 2x2
    matrices. They are matched through the one slice at rank one, the
    pencil normal forms at rank two and the annihilator, the conjugate
    of the complement column, at rank three; at rank four the identity
    will do.
    """
    def folded(frame, j):
        return frame[:, j].reshape(2, 2)

    if r == 4:
        return [(np.eye(2, dtype=complex), np.eye(2, dtype=complex))]
    if r == 2:
        src = _pencil_normal_form(folded(u_full, 0), folded(u_full, 1))
        dst = _pencil_normal_form(folded(u_prime_full, 0), folded(u_prime_full, 1))
        if src is None or dst is None or src[2] is not dst[2]:
            return []
        return [_between(src, dst)]
    if r == 1:
        got = _congruence(folded(u_full, 0), folded(u_prime_full, 0))
        return [] if got is None else [got]
    # At rank three the span is the annihilator of Y, the conjugate
    # complement column; L Y R^T = Y' there is (L^-T, R^-T) on the spans.
    got = _congruence(folded(u_full, 3).conj(), folded(u_prime_full, 3).conj())
    if got is None:
        return []
    return [(np.linalg.inv(got[0]).T, np.linalg.inv(got[1]).T)]


def _direct_flat_candidates(frame, frame_prime, rng):
    """Factor candidates ``(A_l1, A_l2, A_r1, A_r2)`` for the flattenings, or [].

    Dispatches on the cut geometry. Invertible qubit-pair-by-qubit-pair
    flattenings use the twisted-square similarity; full-row-rank cuts
    pairing qubits against equal qutrits use the det-form covariant, on
    the transposed relation when the qubit pair sits on the columns.
    Rank-one cuts of any shape reduce to fold congruences, and rank-two
    qubit-pair cuts to pencil normal forms.
    """
    r = frame.r
    left = frame.left_dims
    right = frame.right_dims
    if r == 1:
        return _rank1_flat_candidates(frame, frame_prime)
    if left == (2, 2) and right == (2, 2) and r == 2:
        return _rank2_square_candidates(frame, frame_prime, rng)
    if r != 4:
        return []
    m, mp = frame.reconstruct(), frame_prime.reconstruct()
    if left == (2, 2) and right == (2, 2):
        return _square_qubit_candidates(m, mp, rng)
    if left == (2, 2) and right == (3, 3):
        return _mixed_pair_candidates(m, mp, rng)
    if left == (3, 3) and right == (2, 2):
        swapped = _mixed_pair_candidates(m.T, mp.T, rng)
        return [cand[2:] + cand[:2] for cand in swapped]
    return []


def _kron_margin(a: np.ndarray, b: np.ndarray) -> float:
    """sigma_min/sigma_max of ``kron(a, b)``, the product of the factors' ratios."""
    s = [np.linalg.svd(m, compute_uv=False) for m in (a, b)]
    return sigma_ratio(s[0]) * sigma_ratio(s[1])


def _above_floor(candidates) -> SolveOutcome:
    """Outcome keeping the candidates whose every side clears the floor.

    A candidate's factors come in pairs, one pair per side of the
    relation; each pair's Kronecker product must have a margin of at
    least ``CANDIDATE_MARGIN_RTOL``.
    """
    kept = tuple(
        cand
        for cand in candidates
        if all(
            _kron_margin(cand[k], cand[k + 1]) >= CANDIDATE_MARGIN_RTOL
            for k in range(0, len(cand), 2)
        )
    )
    status = SolveStatus.FOUND if kept else SolveStatus.EXHAUSTED
    return SolveOutcome(status, kept, restarts_used=0)


def solve_ptilde(
    frame: SingularFrame,
    frame_prime: SingularFrame,
    config: SolverConfig,
) -> SolveOutcome:
    """Construct local operators relating frame to frame_prime.

    ``frame`` belongs to the unprimed state (the one the operators act
    on) and ``frame_prime`` to its image. Each candidate
    ``(A_l1, A_l2, A_r1, A_r2)`` proposes
    ``M' ∝ (A_l1 (x) A_l2) M (A_r1 (x) A_r2)^T`` for the two flattenings,
    with both Kronecker products invertible at margin
    ``CANDIDATE_MARGIN_RTOL``; none is verified here.

    Candidates come from closed-form constructions for rank-one
    flattenings of any shape, rank-two and invertible flattenings with
    qubit pairs on both sides, and invertible qubit-pair-by-qutrit-pair
    flattenings. Any other geometry is EXHAUSTED at once; that is never
    evidence of inequivalence. ``restarts_used`` is always 0.
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
    rng = np.random.default_rng((config.rng_seed, 0))
    return _above_floor(_direct_flat_candidates(frame, frame_prime, rng))


def solve_ptilde_single(
    u_full: np.ndarray,
    u_prime_full: np.ndarray,
    r: int,
    split: tuple[int, int],
    config: SolverConfig,
) -> SolveOutcome:
    """Single-sided variant for tripartite checking.

    Each candidate ``(A_1, A_2)`` proposes a map ``kron(A_1, A_2)``
    carrying the span of the first ``r`` columns of ``u_full`` onto that
    of ``u_prime_full``, with the columns folded by ``split``. Only the
    2x2 split has a construction, at every rank; other splits are
    EXHAUSTED at once.
    """
    if u_full.shape != u_prime_full.shape:
        raise ValueError("frames live on different spaces")
    if split != (2, 2):
        return _above_floor([])
    return _above_floor(_single_kron_candidates(u_full, u_prime_full, r))
