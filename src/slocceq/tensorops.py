"""Dense matrix primitives shared by every stage of the pipeline.

Conventions fixed here and relied on everywhere else:

* ``vectorize`` stacks matrix columns (column-major); ``fold`` undoes it.
* ``realign`` regroups a Kronecker-structured square matrix so that
  ``kron(B, C)`` becomes the rank-one outer product
  ``vectorize(B) @ vectorize(C).T``.
* Singular vectors and QR columns carry a deterministic phase gauge:
  the largest-magnitude entry (lowest index on ties) is made real
  positive. Degenerate singular blocks are left exactly as the backend
  returns them; no extra rotation is invented.
* Shared rules have one copy each: the rank (``sigma_rank``) and margin
  (``sigma_ratio``) of descending singular values, and the determinant
  form of a 2x2 pencil (``pencil_det_form``).
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_RTOL = 1e-9


class FactorizationError(ValueError):
    """A matrix failed to split as a single Kronecker product.

    Attributes
    ----------
    second_singular_value : float
        Second singular value of the realigned matrix, the distance
        witness: it is zero exactly when the input factors.
    """

    def __init__(self, message: str, second_singular_value: float = 0.0):
        super().__init__(message)
        self.second_singular_value = float(second_singular_value)


def vectorize(matrix: np.ndarray) -> np.ndarray:
    """Stack the columns of a matrix into one vector (column-major)."""
    return np.asarray(matrix, dtype=complex).reshape(-1, order="F")


def fold(vector: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Rebuild a ``rows x cols`` matrix from its column stack.

    Inverse of :func:`vectorize` for matching dimensions.
    """
    v = np.asarray(vector, dtype=complex).reshape(-1)
    if v.size != rows * cols:
        raise ValueError(
            f"cannot fold a length-{v.size} vector into a {rows}x{cols} matrix"
        )
    return v.reshape((rows, cols), order="F")


def realign(matrix: np.ndarray, dim_left: int, dim_right: int) -> np.ndarray:
    """Regroup a ``(dl*dr) x (dl*dr)`` matrix by Kronecker factor indices.

    Splitting the matrix into a ``dl x dl`` grid of ``dr x dr`` blocks,
    row ``k*dl + i`` of the result is ``vectorize(block[i, k])``; the rows
    enumerate the block grid in column-major order. The defining identity
    is ``realign(kron(B, C)) == outer(vectorize(B), vectorize(C))``, so a
    matrix is a Kronecker product for this split exactly when its
    realignment has rank one.

    Parameters
    ----------
    matrix : ndarray
        Square matrix of side ``dim_left * dim_right``.
    dim_left, dim_right : int
        Sides of the two would-be Kronecker factors.

    Returns
    -------
    ndarray of shape ``(dim_left**2, dim_right**2)``.
    """
    a = np.asarray(matrix, dtype=complex)
    n = dim_left * dim_right
    if a.shape != (n, n):
        raise ValueError(
            f"realign expects a {n}x{n} matrix for split ({dim_left}, {dim_right}), "
            f"got shape {a.shape}"
        )
    return (
        a.reshape(dim_left, dim_right, dim_left, dim_right)
        .transpose(2, 0, 3, 1)
        .reshape(dim_left * dim_left, dim_right * dim_right)
    )


def numerical_rank(matrix: np.ndarray, rtol: float = DEFAULT_RTOL) -> int:
    """Count singular values above ``rtol`` times the largest one."""
    return sigma_rank(np.linalg.svd(np.asarray(matrix, dtype=complex), compute_uv=False), rtol)


def sigma_rank(s, rtol: float = DEFAULT_RTOL) -> int:
    """Count of descending singular values ``s`` above ``rtol * s[0]``; 0 if empty or zero."""
    s = np.asarray(s)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rtol * s[0]))


def sigma_ratio(s) -> float:
    """Invertibility margin ``s[-1] / s[0]`` of one matrix's descending singular values.

    A zero matrix (leading value 0) has margin 0.0 and an empty one infinity.
    """
    if len(s) == 0:
        return math.inf
    return float(s[-1] / s[0]) if s[0] != 0.0 else 0.0


def _lead_phase(column: np.ndarray) -> complex:
    """Unit phase of the largest-magnitude entry (lowest index on ties)."""
    idx = int(np.argmax(np.abs(column)))
    entry = column[idx]
    mag = abs(entry)
    if mag == 0.0:
        return 1.0 + 0.0j
    return entry / mag


def svd(matrix: np.ndarray, full: bool = False):
    """Singular value decomposition with a deterministic phase gauge.

    Returns ``(u, sigma, v)`` such that
    ``matrix == u[:, :k] @ diag(sigma) @ v[:, :k].conj().T`` with
    ``k = len(sigma)`` and ``sigma`` descending. Every column of ``u`` is
    rotated so its largest-magnitude entry is real positive; the paired
    column of ``v`` absorbs the conjugate phase, leaving the product
    unchanged. Surplus columns (null-space completions when ``full`` is
    set) are phase-fixed from their own entries.
    """
    m = np.asarray(matrix, dtype=complex)
    u, sigma, vh = np.linalg.svd(m, full_matrices=full)
    v = vh.conj().T.copy()
    u = u.copy()
    k = sigma.size
    for i in range(u.shape[1]):
        ph = np.conj(_lead_phase(u[:, i]))
        u[:, i] *= ph
        if i < k:
            v[:, i] *= ph
    for j in range(k, v.shape[1]):
        v[:, j] *= np.conj(_lead_phase(v[:, j]))
    return u, sigma, v


def qr(matrix: np.ndarray):
    """Complete QR factorization with the diagonal of ``r`` made real nonnegative.

    ``q`` is square; on a tall input the columns past the first ``n``
    complete the frame. A unitary input gives ``q`` equal to it and ``r``
    the identity, up to roundoff.
    """
    q, r = np.linalg.qr(np.asarray(matrix, dtype=complex), mode="complete")
    d = np.diagonal(r)
    mags = np.abs(d)
    phases = np.where(mags == 0.0, 1.0 + 0.0j, d / np.where(mags == 0.0, 1.0, mags))
    q[:, : d.size] *= phases
    r[: d.size] *= np.conj(phases)[:, np.newaxis]
    return q, r


def pencil_det_form(x0: np.ndarray, x1: np.ndarray):
    """``(a, b, c)`` with ``det(x x0 + y x1) = a x^2 + b x y + c y^2`` for 2x2 x0, x1."""
    a, c, both = np.linalg.det(np.stack([x0, x1, x0 + x1]))
    return a, both - a - c, c


def rank1_kron_factor(
    matrix: np.ndarray,
    dim_left: int,
    dim_right: int,
    rtol: float = DEFAULT_RTOL,
):
    """Split ``matrix`` into ``(B, C)`` with ``matrix ~= kron(B, C)``.

    The factors share the product's Frobenius norm equally and ``B``
    carries the phase gauge (largest-magnitude entry real positive), so
    the output is unique, not just unique up to a scalar.

    Raises
    ------
    FactorizationError
        If the realigned matrix is zero or not rank one within ``rtol``.
        The error records the offending second singular value.
    """
    r = realign(matrix, dim_left, dim_right)
    # The final gauge on B fixes the phase, so the raw SVD suffices.
    u, sigma, vh = np.linalg.svd(r)
    if sigma[0] == 0.0:
        raise FactorizationError("zero matrix has no Kronecker factorization")
    if sigma.size > 1 and sigma[1] > rtol * sigma[0]:
        raise FactorizationError(
            "matrix is not a Kronecker product for this split: second singular "
            f"value {sigma[1]:.6e} exceeds rtol {rtol:.1e} of leading {sigma[0]:.6e}",
            second_singular_value=float(sigma[1]),
        )
    scale = np.sqrt(sigma[0])
    b = scale * fold(u[:, 0], dim_left, dim_left)
    c = scale * fold(vh[0], dim_right, dim_right)
    ph = _lead_phase(vectorize(b))
    b *= np.conj(ph)
    c *= ph
    return b, c
