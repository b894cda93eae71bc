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


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the left factor indexing the coarse blocks."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


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
        Square matrix of side ``dim_left * dim_right``, or a stack of
        them on the leading axes.
    dim_left, dim_right : int
        Sides of the two would-be Kronecker factors.

    Returns
    -------
    ndarray of shape ``(..., dim_left**2, dim_right**2)``.
    """
    a = np.asarray(matrix, dtype=complex)
    n = dim_left * dim_right
    if a.shape[-2:] != (n, n):
        raise ValueError(
            f"realign expects a {n}x{n} matrix for split ({dim_left}, {dim_right}), "
            f"got shape {a.shape}"
        )
    lead = a.shape[:-2]
    k = len(lead)
    return (
        a.reshape(lead + (dim_left, dim_right, dim_left, dim_right))
        .transpose(*range(k), k + 2, k, k + 3, k + 1)
        .reshape(lead + (dim_left * dim_left, dim_right * dim_right))
    )


def unrealign(matrix: np.ndarray, dim_left: int, dim_right: int) -> np.ndarray:
    """Invert :func:`realign`: rebuild the square matrix (or stack) from its realignment."""
    b = np.asarray(matrix, dtype=complex)
    if b.shape[-2:] != (dim_left * dim_left, dim_right * dim_right):
        raise ValueError(
            f"unrealign expects shape ({dim_left**2}, {dim_right**2}), got {b.shape}"
        )
    n = dim_left * dim_right
    lead = b.shape[:-2]
    k = len(lead)
    return (
        b.reshape(lead + (dim_left, dim_left, dim_right, dim_right))
        .transpose(*range(k), k + 1, k + 3, k, k + 2)
        .reshape(lead + (n, n))
    )


def commutation_matrix(d1: int, d2: int) -> np.ndarray:
    """Permutation matrix mapping vec(X) to vec(X.T) for d1 x d2 matrices.

    Column-major vectorization throughout, matching :func:`vectorize`.
    For d1 == d2 the matrix is symmetric and involutory.
    """
    if d1 < 1 or d2 < 1:
        raise ValueError("commutation matrix dimensions must be positive")
    k = np.zeros((d1 * d2, d1 * d2), dtype=complex)
    for r in range(d1):
        for c in range(d2):
            k[r * d2 + c, c * d1 + r] = 1.0
    return k


def numerical_rank(matrix: np.ndarray, rtol: float = DEFAULT_RTOL) -> int:
    """Count singular values above ``rtol`` times the largest one."""
    s = np.linalg.svd(np.asarray(matrix, dtype=complex), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rtol * s[0]))


def sigma_ratio(s, index: int = -1, *, if_zero: float = 0.0, if_short: float = math.inf):
    """Ratio ``s[..., index] / s[..., 0]`` of descending singular values.

    ``s`` holds the singular values of one matrix on its last axis, or of
    a stack of matrices on the leading axes; a stack gives an array of
    ratios, one matrix a float. ``if_zero`` is returned for a zero matrix
    (leading value 0) and ``if_short`` when the last axis has too few
    entries to hold ``index``. The defaults give the invertibility margin
    sigma_min / sigma_max: 0.0 for a zero matrix, infinity for an empty
    one. Callers pass their own edge values for other ratios.
    """
    s = np.asarray(s)
    if s.shape[-1] < (index + 1 if index >= 0 else -index):
        return float(if_short) if s.ndim == 1 else np.full(s.shape[:-1], if_short)
    if s.ndim == 1:
        return float(s[index] / s[0]) if s[0] != 0.0 else float(if_zero)
    lead = s[..., 0]
    live = lead != 0.0
    if live.all():
        return s[..., index] / lead
    return np.where(live, s[..., index] / np.where(live, lead, 1.0), if_zero)


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
    """QR factorization with the diagonal of ``r`` made real nonnegative.

    For a unitary input this pins ``q`` to the input itself and ``r`` to
    the identity, up to roundoff.
    """
    m = np.asarray(matrix, dtype=complex)
    q, r = np.linalg.qr(m)
    d = np.diagonal(r)
    mags = np.abs(d)
    phases = np.where(mags == 0.0, 1.0 + 0.0j, d / np.where(mags == 0.0, 1.0, mags))
    q = q * phases[np.newaxis, :]
    r = r * np.conj(phases)[:, np.newaxis]
    return q, r


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
