"""Dense matrix primitives shared by every stage of the pipeline.

Conventions fixed here and relied on everywhere else:

* One array layout, row-major (last index fastest), as in ``states.py``:
  a matrix flattens with ``.reshape(-1)`` and a vector folds back with
  ``.reshape(rows, cols)``.
* Singular vectors and QR columns carry a deterministic phase gauge:
  the largest-magnitude entry (lowest index on ties) is made real
  positive. Degenerate singular blocks are left exactly as the backend
  returns them; no extra rotation is invented.
* ``pow2_scaled`` scales an array exactly by the power of two that puts
  a chosen magnitude in [0.5, 1), so no step that multiplies amplitudes
  over- or underflows at any input scale.
* Shared rules have one copy each: the rank (``sigma_rank``) and margin
  (``sigma_ratio``) of descending singular values, the determinant form
  of a 2x2 pencil (``pencil_det_form``), and the lead phase of a column
  (``_lead_phase``), which gauges singular vectors and local operators.

Every threshold the package compares a computed number with is bound
here, once, and each can change one outcome only: only ``DEFAULT_RTOL``
can yield an INEQUIVALENT proof, and only ``DEFAULT_VERIFY_TOL`` accepts.

| constant | value | compares | only outcome it can change |
|---|---|---|---|
| ``DEFAULT_RTOL`` | 1e-9 | singular values with the largest, every rank; ``hyperdet_magnitude`` with 0 | ranks and classes, so INEQUIVALENT proofs |
| ``DEFAULT_VERIFY_TOL`` | 1e-8 | a candidate's relative residual on the amplitudes after the scalar fit | acceptance |
| ``OPERATOR_INVERTIBILITY_RTOL`` | 1e-12 | ``sigma_min / sigma_max`` of each local operator | rejection of a candidate or certificate |
| ``CONSTRUCTION_RTOL`` | 1e-9 | singular values of the constructions' nullspaces and rank forms | which candidates exist |
| ``PENCIL_RTOL`` | 1e-6 | a 2x2 pencil's determinant form with 0, its discriminant for a repeated root | which candidates exist |
| ``POLAR_TOL`` | 1e-10 | ``norm(X^T X - I)`` of a Newton polar iterate, for convergence | which candidates exist |
| ``POLAR_STEPS`` | 30 | Newton polar iterations, as their cap | which candidates exist |
| ``CONDITIONING_BAND`` | 10.0 | a counted singular value with this multiple of the rank cutoff | a borderline-rank warning |
| ``FRAME_UNITARITY_TOL`` | 1e-12 | ``norm(F^H F - I)`` of a singular frame F, per unit of side | an internal assertion |
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_RTOL = 1e-9
DEFAULT_VERIFY_TOL = 1e-8
OPERATOR_INVERTIBILITY_RTOL = 1e-12
CONSTRUCTION_RTOL = 1e-9
PENCIL_RTOL = 1e-6
POLAR_TOL = 1e-10
POLAR_STEPS = 30
CONDITIONING_BAND = 10.0
FRAME_UNITARITY_TOL = 1e-12


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


def _lead_phase(a: np.ndarray) -> np.ndarray:
    """Unit phase of each column's largest-magnitude entry (lowest index on ties).

    ``a`` has shape ``(..., m, n)`` and the result ``(..., n)``; a zero
    column has phase 1. The index is chosen on ``np.abs`` and the phase
    divided by ``np.hypot``, which equals the scalar ``abs`` bit for bit.
    """
    idx = np.abs(a).argmax(axis=-2)
    cols = np.swapaxes(a, -1, -2).reshape(-1, a.shape[-2])
    entry = cols[np.arange(cols.shape[0]), idx.reshape(-1)].reshape(idx.shape)
    mag = np.hypot(entry.real, entry.imag)
    zero = mag == 0.0
    mag[zero] = 1.0
    entry[zero] = 1.0
    return entry / mag


def svd(matrix: np.ndarray):
    """Full singular value decomposition with a deterministic phase gauge.

    ``matrix`` is one matrix or a stack of them (leading axes), and so is
    each result. Returns ``(u, sigma, v)`` with square unitary frames ``u``
    and ``v`` such that ``matrix == u[..., :k] @ diag(sigma) @ v[..., :k].conj().T``
    with ``k = sigma.shape[-1]`` and ``sigma`` descending. Every column of ``u`` is
    rotated so its largest-magnitude entry is real positive; the paired
    column of ``v`` absorbs the conjugate phase, leaving the product
    unchanged. Surplus columns of either frame (null-space completions)
    are phase-fixed from their own entries. A stack is factored by one
    LAPACK call, each matrix exactly as it would be alone.
    """
    m = np.asarray(matrix, dtype=complex)
    u, sigma, vh = np.linalg.svd(m)
    # Row-major like every other array, so products of the frames round alike.
    v = np.ascontiguousarray(np.swapaxes(vh, -1, -2)).conj()
    k = sigma.shape[-1]
    ph = np.conj(_lead_phase(u))
    u = u * ph[..., np.newaxis, :]
    v[..., :k] *= ph[..., np.newaxis, :k]
    if v.shape[-1] > k:
        v[..., k:] *= np.conj(_lead_phase(v[..., k:]))[..., np.newaxis, :]
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


def pow2_scaled(a: np.ndarray, top: float | None = None):
    """``(a * 2**-e, e)`` for the exponent e that puts ``top`` in [0.5, 1).

    ``top`` is a positive magnitude of ``a``, such as its largest singular
    value; by default its largest entry magnitude. Scaling by a power of
    two is exact, bar entries some 2**1000 below the top, which underflow.
    So what is computed from the result is ``a``'s up to a known power of
    two, free of the overflow and underflow that products of huge or tiny
    entries meet.
    """
    e = math.frexp(float(np.abs(a).max() if top is None else top))[1]
    return np.ldexp(np.ascontiguousarray(a, dtype=complex).view(float), -e).view(complex), e


def pencil_det_form(x0: np.ndarray, x1: np.ndarray):
    """``(a, b, c)`` with ``det(x x0 + y x1) = a x^2 + b x y + c y^2`` for 2x2 x0, x1."""
    a, c, both = np.linalg.det(np.stack([x0, x1, x0 + x1]))
    return a, both - a - c, c
