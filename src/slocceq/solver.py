"""Spectral constructions of local operators between two flattenings.

Two states flattened at the same cut into M and M' are related by local
operators exactly when ``M' ∝ (A_l1 (x) A_l2) M (A_r1 (x) A_r2)^T``, with
the row pair's operators on the left and the column pair's on the right.
Every construction here proposes such per-party factors in closed form
from the two states' triple-state sets at the cut: the rank-one and
rank-two constructions from their singular frames, the rank-four ones
from covariants of the flattenings themselves, so a rank-four cut
computes no singular frame. The caller re-applies each candidate to the
raw amplitudes and accepts only what verifies, so spurious candidates are
harmless, and each is built only when the caller pulls it. No candidate
is screened here, by misfit, gap or invertibility: a construction that
would invert an exactly singular matrix yields nothing, and every other
candidate goes to the caller, whose
:class:`~slocceq.states.LocalOperatorTuple` rejects a singular operator
before verification. A geometry without a construction is reported
EXHAUSTED at once.

On a qubit pair the antisymmetric form eps satisfies
``A^T eps A = det(A) eps`` for every 2x2 operator A, so with
``J = kron(eps, eps)`` the symmetric matrix ``S = M J M^T`` of an
invertible flattening obeys ``S' = c B S B^T`` whenever ``M' = B M C^T``
with Kronecker B and C. When the columns are a pair of qutrits instead
the same congruence comes from the cubic form det of ``M^T x`` folded to
3x3 on the row space: its symmetric polarization tensor E, built once
from the folded rows, gives the Hessian as E x, and the trace square of the
J-twisted Hessian is a quadratic in x whose symmetric matrix Q obeys
``Q' = c B Q B^T``. Both are solved by one construction. In the magic
basis the Kronecker products of determinant one are exactly SO(4, C)
(Verstraete, Dehaene, De Moor & Verschelde, *PRA* 65, 052112, 2002), and
two similar complex symmetric matrices are similar through the
orthogonal factor ``W (W^T W)^{-1/2}`` of any intertwiner W (Gantmacher,
*Theory of Matrices* II, ch. XI). With ``A = P S P^T`` in the magic
basis P, the four determinant roots c are tried in the order in which
``c^p tr(A^p)`` matches ``tr(A'^p)`` for p = 1, 2, 3, so the root that
has intertwiners usually comes first. For each root, when it is
reached, one Sylvester nullspace gives W, Newton's polar iteration gives
the orthogonal factor, and reflections along eigenvectors supply the
rest of the orthogonal centralizer; each B is split into qubit factors.
On qubit and qutrit pairs alike ``G S_i = S'_i H^{-T}`` on the folded
rows of M and ``B^{-1} M' = M (G (x) H)^T`` is then linear in
(G, H^{-T}) and solved by one nullspace; on qutrit pairs first for the
B whose ``B^{-1} M'`` has slice determinants closest in angle to M's.

At ranks one and two the column and row spaces of M fold into spans of
matrices, and each goes to a named normal form under ``X -> A X B^T``:
one matrix to ``diag(1, .., 1, 0, ..)`` by its SVD, and a two-dimensional
span of 2x2 matrices to span{E11, E22} when the binary quadratic
``det(x X0 + y X1)`` has two distinct roots and to span{E11, E12 + E21}
when the root is repeated (the Kronecker canonical forms of a 2x2 pencil,
Gantmacher, *Theory of Matrices* II, ch. XII). Spans with equal names are
related by one map between their forms. At rank one those maps are the
factors; at rank two a 2x2 core is left, and as the Kronecker pairs
preserving a normal span act on its basis through a few linear families,
matching the two cores is one small nullspace per pair of families. The
single-sided variant for tripartite checks maps the span of the slices
onto its primed partner the same way. :func:`_span_form` alone decides
which spans have a form, as the README's Limitations table states.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from .decomposition import TripleStateSet
from .tensorops import CONSTRUCTION_RTOL, PENCIL_RTOL, POLAR_STEPS, POLAR_TOL
from .tensorops import pencil_det_form, pow2_scaled, sigma_rank


class SolveStatus(Enum):
    FOUND = "FOUND"
    EXHAUSTED = "EXHAUSTED"


@dataclass(frozen=True)
class SolverConfig:
    """The benchmark's input type only; no code in this package reads it.

    The constructions draw the same fixed mix for every check, so a
    verdict depends on the two states alone.
    """

    rng_seed: int = 0
    restarts: int = 1


@dataclass(frozen=True, eq=False)
class SolveOutcome:
    """Candidates of a construction. EXHAUSTED is never a proof of inequivalence.

    ``candidates`` is a one-pass iterable over the per-party factor tuples,
    in construction order: ``(A_l1, A_l2, A_r1, A_r2)`` for the two-sided
    search, ``(A_1, A_2)`` for the single-sided one. Each is built only
    when it is pulled; none is checked for invertibility or verified yet.
    FOUND means there is at least one; EXHAUSTED means the geometry has no
    construction or its construction yielded nothing. ``restarts_used`` is
    always 0.
    """

    status: SolveStatus
    candidates: Iterable[tuple]
    restarts_used: int


_EPS2 = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
_QUBIT_PAIR_FORM = np.kron(_EPS2, _EPS2)
# Magic basis as rows: unitary, with _MAGIC^T _MAGIC = _QUBIT_PAIR_FORM.
_MAGIC = np.array([[1, 0, 0, 1], [1j, 0, 0, -1j], [0, 1j, 1j, 0], [0, 1, -1, 0]])
_MAGIC = _MAGIC / math.sqrt(2.0)

# Levi-Civita symbol on three indices: +1 on even, -1 on odd permutations.
_EPS3 = np.zeros((3, 3, 3))
_EPS3[[0, 1, 2], [1, 2, 0], [2, 0, 1]] = 1.0
_EPS3[[0, 2, 1], [2, 1, 0], [1, 0, 2]] = -1.0


def _kron_split(mat: np.ndarray):
    """Qubit-pair factors ``(X, Y)`` of the nearest ``kron(X, Y)`` to a 4x4 ``mat``.

    ``kron(X, Y)[(i, k), (j, l)] = X[i, j] Y[k, l]``, so regrouping the
    indices as ``((i, j), (k, l))`` turns it into the rank-one
    ``outer(X.ravel(), Y.ravel())``; its leading singular pair gives the
    factors, X scaled by the leading value. Verification judges any gap.
    """
    u, sigma, vh = np.linalg.svd(mat.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4))
    return sigma[0] * u[:, 0].reshape(2, 2), vh[0].reshape(2, 2)


def _sylvester_system(right, left):
    """``kron(I, right^T) - kron(left, I)``: X -> X right - left X on flattened X."""
    eye = np.eye(len(right))
    lhs = np.einsum("ab,ij->aibj", eye, right.T) - np.einsum("ab,ij->aibj", left, eye)
    return lhs.reshape(eye.size, eye.size)


def _intertwiner_family(right: np.ndarray, left: np.ndarray):
    """Basis of the Sylvester nullspace {X : X @ right = left @ X}."""
    n = right.shape[0]
    _, s, vh = np.linalg.svd(_sylvester_system(right, left))
    if s[0] == 0.0:
        return []
    return [x.conj().reshape(n, n) for x in vh[sigma_rank(s, CONSTRUCTION_RTOL):]]


def _row_pair_covariant(m: np.ndarray) -> np.ndarray:
    """Symmetric covariant of a (2,2)-row, (3,3)-column flattening.

    With the folded rows S_i, the symmetric polarization
    ``E_ijk = eps_abc eps_lmn S_i[a,l] S_j[b,m] S_k[c,n]`` of the cubic
    form gives ``Hess det(sum_k x_k S_k) = E x``, so the quadratic form
    ``x -> tr((J Hess)^2)`` has matrix ``Q_kl = tr(J E_k J E_l)``.
    Returns Q; for related flattenings ``M' = B M (G (x) H)^T`` it obeys
    ``Q' = c B Q B^T`` with one unknown scalar c.
    """
    s = m.reshape(-1, 3, 3)
    half = np.einsum("abc,ial,jbm->ijlmc", _EPS3, s, s)
    e = np.einsum("ijlmc,lmn,kcn->ijk", half, _EPS3, s)
    je = np.einsum("ab,bck->ack", _QUBIT_PAIR_FORM, e)
    return np.einsum("abk,bal->kl", je, je)


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


def _polar_orthogonal(w: np.ndarray):
    """Complex-orthogonal factor ``W (W^T W)^-1/2`` of W, or None.

    W is first rotated in phase so that ``tr(W^T W)`` is real positive,
    which keeps the spectrum of ``W^T W`` off the negative real axis in
    the usual case. Newton's iteration ``X <- (X + X^-T) / 2`` from that
    W tends to the factor with the principal square root (Higham, Mackey,
    Mackey & Tisseur, *SIAM J. Matrix Anal. Appl.* 25(4), 2004). One step
    is taken past ``|X^T X - I| <= POLAR_TOL``, where convergence is
    quadratic; None when an iterate is singular or the iteration has not
    converged in ``POLAR_STEPS`` steps.
    """
    trace = np.trace(w.T @ w)
    x = w * np.sqrt(abs(trace) / trace)
    eye = np.eye(len(x))
    for _ in range(POLAR_STEPS):
        done = np.linalg.norm(x.T @ x - eye) <= POLAR_TOL
        try:
            x = 0.5 * (x + np.linalg.inv(x).T)
        except np.linalg.LinAlgError:
            return None
        if done:
            return x
    return None


def _eigen_reflections(a: np.ndarray):
    """Reflections along the non-isotropic eigenvectors of a symmetric ``a``.

    An eigenvector v with ``v^T v != 0`` has an ``a``-invariant
    complement, so ``I - 2 v v^T / v^T v`` is complex orthogonal and
    commutes with ``a``. Vectors are ordered from the least isotropic
    (eig returns unit vectors); only an exactly isotropic one, which has
    no reflection, is dropped.
    """
    vecs = np.linalg.eig(a)[1].T
    norms = np.einsum("ij,ij->i", vecs, vecs)
    order = np.argsort(-np.abs(norms))
    eye = np.eye(len(a))
    return [eye - 2.0 * np.outer(vecs[i], vecs[i]) / norms[i] for i in order if norms[i] != 0.0]


def _power_traces(a: np.ndarray) -> np.ndarray:
    """``[tr(a), tr(a^2), tr(a^3)]``, from one matrix product."""
    square = a @ a
    return np.array([np.trace(a), np.trace(square), np.einsum("ij,ji->", square, a)])


def _kron_congruences(s: np.ndarray, s_p: np.ndarray, rng):
    """Yield per determinant root an iterator over 4x4 B with ``s_p ∝ B s B^T``.

    For symmetric s, with ``A = P s P^T`` in the magic basis P, the relation
    reads ``A' = c O A O^T`` with O in SO(4, C). For each determinant root c the
    orthogonal factor of a seeded intertwiner of ``W A = (A'/c) W`` is such
    an O, because the principal square root of ``W^T W`` commutes with A.
    Its determinant-one products with reflections along A's eigenvectors
    cover the orthogonal centralizer of A up to sign when the spectrum is
    simple, and reach both of its components otherwise. Each
    ``B = P^-1 O R P`` is proposed.

    Since ``tr(A'^p) = c^p tr(A^p)``, the roots are tried in increasing
    order of ``sum_p |tr(A'^p) / c^p - tr(A^p)|`` over p = 1, 2, 3, ties in
    root order, so the root whose intertwiners exist usually comes first.
    Everything is built as it is pulled: a root's Sylvester nullspace when
    the root is reached, A's eigenvectors once, at the first reflection,
    and each B when it is yielded.
    """
    a, a_p = _MAGIC @ s @ _MAGIC.T, _MAGIC @ s_p @ _MAGIC.T
    det_a, det_ap = np.linalg.det(a), np.linalg.det(a_p)
    if det_a == 0.0 or det_ap == 0.0:
        return
    c0 = (det_ap / det_a) ** 0.25
    traces, traces_p = _power_traces(a), _power_traces(a_p)
    powers = np.arange(1, 4)
    roots = sorted(
        (c0 * 1j**k for k in range(4)),
        key=lambda c: np.abs(traces_p / c**powers - traces).sum(),
    )
    reflections = functools.cache(lambda: _eigen_reflections(a))

    def congruences(o):
        positive = np.linalg.det(o).real > 0.0
        if positive:
            yield _MAGIC.conj().T @ o @ _MAGIC
        # O R must have determinant one: an even number of reflections R
        # when det O = 1, an odd number when it is -1.
        refl = reflections()
        rs = (refl[0] @ r for r in refl[1:]) if positive else refl
        for r in rs:
            yield _MAGIC.conj().T @ o @ r @ _MAGIC

    for c in roots:
        family = _intertwiner_family(a, a_p / c)
        if not family:
            continue
        mix = rng.standard_normal(len(family)) + 1j * rng.standard_normal(len(family))
        o = _polar_orthogonal(sum(ci * xi for ci, xi in zip(mix, family)))
        # A first orthogonal factor projected back onto the family is a
        # near-orthogonal W, whose polar step is well conditioned.
        o = None if o is None else _polar_orthogonal(sum(np.vdot(x, o) * x for x in family))
        if o is not None:
            yield congruences(o)


def _nullspace_point(system: np.ndarray, rng):
    """Seeded random point of the numerical nullspace of ``system``.

    The nullspace keeps at least the smallest right singular vector, so a
    noisy or unrelated system still proposes its best point, however
    large its misfit; verification judges it.
    """
    # U is never read; V stays square when the system is wide, so that
    # its nullspace rows are kept.
    _, s, vh = np.linalg.svd(system, full_matrices=system.shape[0] < system.shape[1])
    rank = min(sigma_rank(s, CONSTRUCTION_RTOL), len(vh) - 1)
    null = vh[rank:].conj()
    mix = rng.standard_normal(len(null)) + 1j * rng.standard_normal(len(null))
    return mix @ null


def _right_tuple_system(rs, ts):
    """Rows ``[kron(I, r^T), -kron(t, I)]`` over the slice pairs (r, t), stacked."""
    eye = np.eye(len(rs[0]))
    g_part = np.einsum("ac,ieb->iabce", eye, rs).reshape(-1, eye.size)
    k_part = np.einsum("iac,be->iabce", ts, eye).reshape(-1, eye.size)
    return np.hstack([g_part, -k_part])


def _right_tuple_solve(rs, ts, rng):
    """(G, H) with G @ rs[i] @ H.T = ts[i] for all i, or None.

    With ``K = H^-T`` the relation reads ``G rs[i] = ts[i] K``, linear in
    (G, K), so one nullspace over the stacked slices gives both factors.
    Returns None only when K is exactly singular.
    """
    g, k = _nullspace_point(_right_tuple_system(rs, ts), rng).reshape(2, *rs[0].shape)
    try:
        return g, np.linalg.inv(k).T
    except np.linalg.LinAlgError:
        return None


def _by_slice_determinants(pairs, rs):
    """``pairs`` of ``(B, T)`` stable-sorted by the angle of ``det(T_i)`` to ``det(rs_i)``.

    ``M' ∝ B M (G (x) H)^T`` makes ``det(T_i)`` proportional to
    ``det(rs_i)`` for the right B, an angle of zero. A zero determinant
    vector on either side has no angle, and then the pairs keep their order.
    """
    if len(pairs) < 2:
        return pairs
    u = np.linalg.det(rs)
    vs = np.linalg.det(np.array([ts for _, ts in pairs]))
    norms = np.linalg.norm(vs, axis=1) * np.linalg.norm(u)
    if not norms.all():
        return pairs
    return [pairs[i] for i in np.argsort(-np.abs(vs @ u.conj()) / norms, kind="stable")]


def _qubit_row_pair_candidates(m, mp, rng):
    """Yield factor candidates for a full-row-rank cut with a qubit pair on the rows.

    B comes from the congruence of ``M J M^T`` on qubit-pair columns or of
    the det-form covariant on qutrit-pair columns, and the column factors
    from one linear solve on the folded rows of M and ``B^-1 M'``, on
    qutrit-pair columns in :func:`_by_slice_determinants` order per root.
    """
    d = math.isqrt(m.shape[1])
    covariant = _row_pair_covariant if d == 3 else lambda x: x @ _QUBIT_PAIR_FORM @ x.T
    rs = m.reshape(4, d, d)
    for bs in _kron_congruences(covariant(m), covariant(mp), rng):
        pairs = ((b, np.linalg.solve(b, mp).reshape(4, d, d)) for b in bs)
        if d == 3:
            pairs = _by_slice_determinants(list(pairs), rs)
        for b, ts in pairs:
            right = _right_tuple_solve(rs, ts, rng)
            if right is not None:
                yield _kron_split(b) + right


_E11, _E12, _E21, _E22 = (np.eye(4)[k].reshape(2, 2) for k in range(4))
_SWAP2 = _E12 + _E21

# Normal spans of 2x2 pencils by name: ``(pinv, families)``, the
# pseudo-inverse of the basis matrices flattened row-major as columns, and
# the linear spaces (as basis lists) of the 2x2 matrices rho by which the
# Kronecker pairs (A, B) preserving the span act on the basis, each with a
# map from an invertible rho back to one such pair.
_PENCIL_FORMS = {
    # span{E11, E22}: both factors diagonal (rho diagonal) or both
    # anti-diagonal (rho anti-diagonal).
    "GHZ": (
        np.linalg.pinv(np.column_stack([_E11.ravel(), _E22.ravel()])),
        (
            ((_E11, _E22), lambda rho: (rho, np.eye(2))),
            ((_E12, _E21), lambda rho: (rho, _SWAP2)),
        ),
    ),
    # span{E11, E12 + E21}: both factors upper triangular, rho upper triangular.
    "W": (
        np.linalg.pinv(np.column_stack([_E11.ravel(), _SWAP2.ravel()])),
        (((_E11, _E12, _E22), lambda rho: (rho / rho[0, 0], np.diag(np.diagonal(rho)))),),
    ),
}


def _pencil_normal_form(x0, x1):
    """``(N1, N2, name)`` sending span{x0, x1} to a normal span, or None.

    ``x0`` and ``x1`` must be orthonormal; ``N1 X N2^T`` lies in the
    normal span ``name`` for every X in theirs. With two
    distinct rank-one members ``a_i b_i^T``, ``N1 = [a0 a1]^-1`` and
    ``N2 = [b0 b1]^-1`` give span{E11, E22}. With one repeated rank-one
    member ``a b^T``, N1 and N2 send a and b to e1 and are rescaled so that
    the member orthogonal to it becomes ``x E11 + E12 + E21``; each root
    member is taken as the rank-one part of its SVD, unchecked. Returns
    None when every member is singular.
    """
    det0, cross, det1 = pencil_det_form(x0, x1)
    if max(abs(det0), abs(cross), abs(det1)) < PENCIL_RTOL:
        return None
    roots = _binary_quadratic_roots(det0, cross, det1, PENCIL_RTOL)
    if roots is None:
        # The repeated root -b/2a = -2c/b, in its better-scaled form.
        roots = [(-cross, 2.0 * det0) if abs(det0) >= abs(det1) else (2.0 * det1, -cross)]
    factors = []
    for x, y in roots:
        w, s, vh = np.linalg.svd(x * x0 + y * x1)
        factors.append((w[:, 0] * s[0], vh[0]))
    if len(factors) == 2:
        (a0, b0), (a1, b1) = factors
        n1 = np.linalg.inv(np.column_stack([a0, a1]))
        n2 = np.linalg.inv(np.column_stack([b0, b1]))
        return n1, n2, "GHZ"
    ((a, b),) = factors
    n1 = np.linalg.inv(np.column_stack([a, [-np.conj(a[1]), np.conj(a[0])]]))
    n2 = np.linalg.inv(np.column_stack([b, [-np.conj(b[1]), np.conj(b[0])]]))
    x, y = roots[0]
    other = n1 @ (-np.conj(y) * x0 + np.conj(x) * x1) @ n2.T
    n1 = np.diag([1.0, 1.0 / other[1, 0]]) @ n1
    n2 = np.diag([1.0, 1.0 / other[0, 1]]) @ n2
    return n1, n2, "W"


def _rank_form(x):
    """``(N1, N2, "rank k")`` with ``N1 x N2^T = diag(1, .., 1, 0, ..)``, k ones.

    From the SVD ``x = U diag(s) V^H``: ``N1 = diag(1/s_1..1/s_k, 1, ...) U^H``
    and ``N2 = conj(V^H)``, with k the numerical rank at ``CONSTRUCTION_RTOL``;
    the deficient directions stay at unit scale, so N1 is invertible.
    """
    u, s, vh = np.linalg.svd(x)
    k = sigma_rank(s, CONSTRUCTION_RTOL)
    scale = np.concatenate([1.0 / s[:k], np.ones(x.shape[0] - k)])
    return scale[:, None] * u.conj().T, vh.conj(), f"rank {k}"


def _span_form(frame, r, shape):
    """``(N1, N2, name)`` with ``N1 X N2^T`` in the normal span ``name``, or None.

    X ranges over the span of the first ``r`` frame columns, folded
    row-major to ``shape = (p, q)``; :func:`_between` maps spans of equal
    r, shape and name onto each other. Only this decides which spans have
    a form, by r: one matrix its rank form; all p*q dimensions ``"all"``;
    p*q - 1 the annihilator of ``Y = conj(frame[:, r])`` under ``tr(Y^T X)``,
    Y's rank form carried through ``(N1^-T, N2^-T)``; a pencil of 2x2
    matrices its ``_PENCIL_FORMS`` entry. Any other span has none.
    """
    p, q = shape
    if r == 1:
        return _rank_form(frame[:, 0].reshape(shape))
    if r == p * q:
        return np.eye(p), np.eye(q), "all"
    if r == p * q - 1:
        n1, n2, name = _rank_form(frame[:, r].conj().reshape(shape))
        return np.linalg.inv(n1).T, np.linalg.inv(n2).T, name
    if r == 2 and shape == (2, 2):
        return _pencil_normal_form(frame[:, 0].reshape(2, 2), frame[:, 1].reshape(2, 2))
    return None


def _between(src, dst, a=None, b=None):
    """Factors ``(N1'^-1 a N1, N2'^-1 b N2)`` of a map between normal forms.

    ``src`` and ``dst`` are ``(N1, N2, name)`` and ``(N1', N2', name)``; a
    and b default to the identity. When (a, b) preserves the normal span,
    the factors carry the span of ``src`` onto that of ``dst``.
    """
    n1 = src[0] if a is None else a @ src[0]
    n2 = src[1] if b is None else b @ src[1]
    return np.linalg.solve(dst[0], n1), np.linalg.solve(dst[1], n2)


def _pencil_core(f, col, row):
    """Core k of ``(N1 (x) N2) M (N3 (x) N4)^T = S_c k S_r^T`` on the normal bases S_c, S_r."""
    m = pow2_scaled(f.reconstruct(), f.singular_values[0])[0]
    g = np.kron(col[0], col[1]) @ m @ np.kron(row[0], row[1]).T
    return _PENCIL_FORMS[col[2]][0] @ g @ _PENCIL_FORMS[row[2]][0].T


def _matched_forms(frame, frame_prime, r, shape):
    """``(src, dst)``: both frames' :func:`_span_form` at ``r`` and ``shape``.

    None when either form is missing or the two names differ; otherwise
    :func:`_between` maps ``src`` onto ``dst``.
    """
    src, dst = _span_form(frame, r, shape), _span_form(frame_prime, r, shape)
    if src is None or dst is None or src[2] != dst[2]:
        return None
    return src, dst


def _low_rank_candidates(frame, frame_prime, rng):
    """Yield factor candidates for a rank-one or rank-two cut.

    The two states' column spans (of U, folded to the row pair) and row
    spans (of conj V, folded to the column pair) are matched in normal
    form; no match yields nothing. At rank one the maps between
    the forms are the factors. At rank two related states have cores with
    ``k' = rho_c k rho_r^T`` for stabiliser actions rho_c and rho_r; with
    ``sigma = rho_r^-T`` that is ``k' sigma = rho_c k``, linear in
    (sigma, rho_c) on each pair of families. A seeded random point of each
    nullspace is lifted back to Kronecker factors.
    """
    r = frame.r
    cols = _matched_forms(frame.u_full, frame_prime.u_full, r, frame.left_dims)
    if cols is None:
        return
    rows = _matched_forms(frame.v_full.conj(), frame_prime.v_full.conj(), r, frame.right_dims)
    if rows is None:
        return
    (col, col_p), (row, row_p) = cols, rows
    if r == 1:
        yield _between(col, col_p) + _between(row, row_p)
        return
    k, k_p = _pencil_core(frame, col, row), _pencil_core(frame_prime, col_p, row_p)
    for basis_c, lift_c in _PENCIL_FORMS[col[2]][1]:
        for basis_r, lift_r in _PENCIL_FORMS[row[2]][1]:
            basis_s = [q.T for q in basis_r]
            system = np.column_stack(
                [(k_p @ q).ravel() for q in basis_s] + [-(p @ k).ravel() for p in basis_c]
            )
            coeff = _nullspace_point(system, rng)
            sigma = sum(ci * q for ci, q in zip(coeff, basis_s))
            rho_c = sum(ci * p for ci, p in zip(coeff[len(basis_s):], basis_c))
            try:
                rho_r = np.linalg.inv(sigma).T
            except np.linalg.LinAlgError:
                continue
            yield _between(col, col_p, *lift_c(rho_c)) + _between(row, row_p, *lift_r(rho_r))


def _direct_flat_candidates(frame, frame_prime, rng):
    """Iterable of factor candidates ``(A_l1, A_l2, A_r1, A_r2)`` for the flattenings.

    Cuts of rank one and two match :func:`_span_form` normal forms, read
    from the singular frames. A full-row-rank cut with a qubit pair on the
    rows has one construction, on the flattenings only, which (3,3) x
    (2,2) cuts run on the transposed relation.
    """
    r, left, right = frame.r, frame.left_dims, frame.right_dims
    if r <= 2:
        return _low_rank_candidates(frame, frame_prime, rng)
    swapped = left == (3, 3) and right == (2, 2)
    if r != 4 or not (swapped or (left == (2, 2) and right in ((2, 2), (3, 3)))):
        return []
    # Scaled to a leading singular value in [0.5, 1), so that no covariant
    # of an amplitude scale far from 1 over- or underflows.
    m, mp = (pow2_scaled(f.flattening, f.singular_values[0])[0] for f in (frame, frame_prime))
    if not swapped:
        return _qubit_row_pair_candidates(m, mp, rng)
    return (cand[2:] + cand[:2] for cand in _qubit_row_pair_candidates(m.T, mp.T, rng))


def _peeked(candidates) -> SolveOutcome:
    """Outcome streaming ``candidates``: FOUND when there is a first one.

    Only the first candidate is built here; the rest are built as pulled.
    """
    candidates = iter(candidates)
    first = next(candidates, None)
    if first is None:
        return SolveOutcome(SolveStatus.EXHAUSTED, (), restarts_used=0)
    return SolveOutcome(SolveStatus.FOUND, itertools.chain([first], candidates), restarts_used=0)


def solve_ptilde(frame: TripleStateSet, frame_prime: TripleStateSet) -> SolveOutcome:
    """Construct local operators relating frame to frame_prime.

    Both are triple-state sets at one cut. ``frame`` belongs to the
    unprimed state (the one the operators act on) and ``frame_prime`` to
    its image. Each candidate
    ``(A_l1, A_l2, A_r1, A_r2)`` proposes
    ``M' ∝ (A_l1 (x) A_l2) M (A_r1 (x) A_r2)^T`` for the two flattenings;
    none is checked for invertibility or verified here.

    Candidates come from closed-form constructions for flattenings of
    rank one and two whose spans have a :func:`_span_form`, and invertible
    flattenings with a qubit pair on one side and a qubit or qutrit pair
    on the other. Any other geometry is EXHAUSTED at once; that is never
    evidence of inequivalence. The nullspace and intertwiner-family mixes
    come from a fresh generator of one fixed seed per call, so the
    candidates depend on the two frames alone. ``restarts_used`` is
    always 0.
    """
    if frame.r != frame_prime.r:
        raise ValueError(
            f"frame ranks differ ({frame.r} vs {frame_prime.r}); "
            "rank inequality is already an inequivalence proof"
        )
    if frame.left_dims != frame_prime.left_dims or frame.right_dims != frame_prime.right_dims:
        raise ValueError("frames live on different spaces")
    rng = np.random.default_rng((0, 0))
    return _peeked(_direct_flat_candidates(frame, frame_prime, rng))


def solve_ptilde_single(
    u_full: np.ndarray,
    u_prime_full: np.ndarray,
    r: int,
    split: tuple[int, int],
) -> SolveOutcome:
    """Single-sided variant for tripartite checking.

    Each candidate ``(A_1, A_2)`` proposes a map ``kron(A_1, A_2)``
    carrying the span of the first ``r`` columns of ``u_full`` onto that
    of ``u_prime_full``, with the columns folded by ``split``. The spans
    with a construction are those :func:`_span_form` gives a form; the
    rest are EXHAUSTED at once.
    """
    if u_full.shape != u_prime_full.shape:
        raise ValueError("frames live on different spaces")
    forms = _matched_forms(u_full, u_prime_full, r, split)
    return _peeked([] if forms is None else [_between(*forms)])
