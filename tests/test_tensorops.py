"""Unit tests for the reshaping and factorization primitives."""

import numpy as np
import pytest

from slocceq.solver import _kron_split, _sylvester_system
from slocceq.states import LocalOperatorTuple
from slocceq.tensorops import (
    _lead_phase,
    numerical_rank,
    pencil_det_form,
    qr,
    sigma_rank,
    sigma_ratio,
    svd,
)

SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)

# Hand expansion of np.kron([[1,2],[3,4]], [[0,1],[1,0]]).
KRON_HAND = np.array(
    [[0, 1, 0, 2], [1, 0, 2, 0], [0, 3, 0, 4], [3, 0, 4, 0]], dtype=complex
)


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def kron_blockwise(left, right):
    """Independent Kronecker oracle: block ``(i, j)`` is ``left[i, j] * right``."""
    n, m = len(left), len(right)
    out = np.zeros((n * m, n * m), dtype=complex)
    for i in range(n):
        for j in range(n):
            out[i * m : (i + 1) * m, j * m : (j + 1) * m] = left[i, j] * right
    return out


def assert_splits_to(mat, left, right):
    """``_kron_split(mat)`` returns factors proportional to ``left`` and ``right``."""
    got = _kron_split(mat)
    assert got is not None
    assert np.linalg.norm(np.kron(*got) - mat) < 1e-12 * np.linalg.norm(mat)
    for factor, want in zip(got, (left, right)):
        c = np.vdot(factor, want) / np.vdot(factor, factor)
        assert np.linalg.norm(want - c * factor) < 1e-12 * np.linalg.norm(want)


class TestKron:
    """``np.kron`` puts ``left[i, j] * right`` in block ``(i, j)``, the layout ``_kron_split`` reads."""

    def test_identity_pair(self):
        for dl, dr in [(2, 2), (2, 3), (3, 2)]:
            eye = np.eye(dl * dr, dtype=complex)
            assert np.array_equal(kron_blockwise(np.eye(dl), np.eye(dr)), eye)
        assert_splits_to(np.eye(4, dtype=complex), np.eye(2), np.eye(2))

    def test_hand_expansion(self):
        b = np.array([[1, 2], [3, 4]], dtype=complex)
        c = np.array([[0, 1], [1, 0]], dtype=complex)
        assert np.array_equal(np.kron(b, c), KRON_HAND)
        assert np.array_equal(kron_blockwise(b, c), KRON_HAND)
        assert_splits_to(KRON_HAND, b, c)


class TestRealign:
    """The row-major regrouping in ``_kron_split`` turns ``kron(X, Y)`` into
    the rank-one ``outer(X.ravel(), Y.ravel())``."""

    def test_matches_blockwise_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            b, c = random_complex(rng, (2, 2)), random_complex(rng, (2, 2))
            assert_splits_to(kron_blockwise(b, c), b, c)

    def test_kron_realigns_to_outer_product(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            b, c = random_complex(rng, (2, 2)), random_complex(rng, (2, 2))
            x, y = _kron_split(np.kron(b, c))
            lhs = np.outer(x.ravel(), y.ravel())
            rhs = np.outer(b.ravel(), c.ravel())
            assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(rhs))

    def test_identity_realigns_to_rank_one(self):
        x, y = _kron_split(np.eye(4, dtype=complex))
        assert numerical_rank(np.outer(x.ravel(), y.ravel())) == 1
        assert np.allclose(np.kron(x, y), np.eye(4), rtol=0.0, atol=1e-15)

    def test_swap_realigns_to_rank_four(self):
        # SWAP = sum_ij E_ij (x) E_ji: one term splits; k terms realign to k
        # equal singular values, so the nearest product misses k - 1 of the
        # k units of squared norm.
        units = [np.outer(np.eye(2)[i], np.eye(2)[j]) for i in range(2) for j in range(2)]
        terms = [kron_blockwise(e, e.T) for e in units]
        assert np.array_equal(sum(terms), SWAP)
        assert_splits_to(terms[1], units[1], units[1].T)
        for k in range(2, 5):
            mat = sum(terms[:k])
            miss = np.linalg.norm(mat - np.kron(*_kron_split(mat)))
            assert abs(miss**2 - (k - 1)) < 1e-12, k

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            _kron_split(np.zeros((3, 3)))
        # A zero matrix splits into a zero factor, which the operator type rejects.
        zero = _kron_split(np.zeros((4, 4)))
        assert not np.kron(*zero).any()
        with pytest.raises(ValueError, match="singular"):
            LocalOperatorTuple(zero)


class TestSigmaRatio:
    def test_margin(self):
        assert sigma_ratio(np.array([4.0, 2.0, 1.0])) == 0.25

    def test_zero_and_empty_matrices(self):
        zero = np.linalg.svd(np.zeros((3, 3)), compute_uv=False)
        empty = np.linalg.svd(np.zeros((0, 0)), compute_uv=False)
        assert sigma_ratio(zero) == 0.0
        assert sigma_ratio(empty) == np.inf


class TestSigmaRank:
    def test_empty_and_zero_leading_value(self):
        assert sigma_rank(np.zeros(0)) == 0
        assert sigma_rank(np.zeros(3)) == 0

    def test_rtol_at_least_one_counts_nothing(self):
        s = np.array([3.0, 2.0, 1.0])
        assert sigma_rank(s, rtol=1.0) == 0
        assert sigma_rank(s, rtol=2.0) == 0

    def test_cutoff_is_relative_to_the_leading_value(self):
        s = np.array([4.0, 1e-3, 1e-8])
        assert sigma_rank(s, rtol=1e-4) == 2
        assert sigma_rank(s, rtol=1e-9) == 3
        assert sigma_rank(1e6 * s, rtol=1e-4) == 2

    def test_agrees_with_numerical_rank(self):
        rng = np.random.default_rng(17)
        for rank in range(5):
            m = random_complex(rng, (5, rank)) @ random_complex(rng, (rank, 4))
            s = np.linalg.svd(m, compute_uv=False)
            for rtol in (1e-12, 1e-9, 1e-3, 1.0):
                assert sigma_rank(s, rtol) == numerical_rank(m, rtol)
            assert numerical_rank(m) == rank


class TestPencilDetForm:
    def test_coefficients_reproduce_the_determinant(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            x0, x1 = random_complex(rng, (2, 2, 2))
            a, b, c = pencil_det_form(x0, x1)
            x, y = random_complex(rng, (2,))
            want = np.linalg.det(x * x0 + y * x1)
            assert abs(a * x * x + b * x * y + c * y * y - want) < 1e-12 * max(abs(want), 1.0)

    def test_stacked_call_matches_separate_calls(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            x0, x1 = random_complex(rng, (2, 2, 2))
            a, b, c = pencil_det_form(x0, x1)
            det0, det1 = np.linalg.det(x0), np.linalg.det(x1)
            assert (a, c) == (det0, det1)
            assert b == np.linalg.det(x0 + x1) - det0 - det1


class TestNumericalRank:
    def test_near_singular_diagonal(self):
        assert numerical_rank(np.diag([3.0, 1e-14]), rtol=1e-10) == 1

    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((3, 3))) == 0

    def test_unitary_invariance(self):
        rng = np.random.default_rng(10)
        m = random_complex(rng, (4, 4))
        m[:, 3] = m[:, 0] + m[:, 1]
        base = numerical_rank(m)
        q1, _ = np.linalg.qr(random_complex(rng, (4, 4)))
        q2, _ = np.linalg.qr(random_complex(rng, (4, 4)))
        assert numerical_rank(q1 @ m @ q2) == base


class TestSvd:
    def test_degenerate_diagonal_spectrum(self):
        target = 1.0 / np.sqrt(2.0)
        _, sigma, _ = svd(np.diag([target, target]))
        assert np.allclose(sigma, [target, target], atol=1e-15)

    def test_zero_matrix(self):
        _, sigma, _ = svd(np.zeros((3, 2)))
        assert np.array_equal(sigma, np.zeros(2))

    def test_reconstruction_and_unitarity(self):
        rng = np.random.default_rng(12)
        for dim in [2, 3, 5, 8, 16]:
            m = random_complex(rng, (dim, dim))
            u, sigma, v = svd(m)
            scale = np.linalg.norm(m)
            assert np.linalg.norm((u * sigma) @ v.conj().T - m) < 1e-12 * scale
            assert np.linalg.norm(u.conj().T @ u - np.eye(dim)) < 1e-12
            assert np.linalg.norm(v.conj().T @ v - np.eye(dim)) < 1e-12
            assert np.all(np.diff(sigma) <= 0)

    def test_gauge_is_deterministic(self):
        rng = np.random.default_rng(13)
        m = random_complex(rng, (4, 4))
        u1, s1, v1 = svd(m)
        u2, s2, v2 = svd(m.copy())
        assert np.array_equal(u1, u2)
        assert np.array_equal(s1, s2)
        assert np.array_equal(v1, v2)

    def test_gauge_lead_entries_real_positive(self):
        rng = np.random.default_rng(14)
        m = random_complex(rng, (4, 4))
        u, _, _ = svd(m)
        for col in u.T:
            lead = col[np.argmax(np.abs(col))]
            assert abs(lead.imag) < 1e-14
            assert lead.real > 0


def scalar_lead_phase(column):
    """The per-column gauge rule, one entry at a time: the reference for ``_lead_phase``."""
    idx = int(np.argmax(np.abs(column)))
    entry = column[idx]
    mag = abs(entry)
    return 1.0 + 0.0j if mag == 0.0 else entry / mag


def looped_svd(matrix):
    """One matrix's gauged SVD, phase-fixed column by column with ``scalar_lead_phase``."""
    u, sigma, vh = np.linalg.svd(np.asarray(matrix, dtype=complex))
    u, v, k = u.copy(), vh.conj().T.copy(), sigma.size
    for i in range(u.shape[1]):
        ph = np.conj(scalar_lead_phase(u[:, i]))
        u[:, i] *= ph
        if i < k:
            v[:, i] *= ph
    for j in range(k, v.shape[1]):
        v[:, j] *= np.conj(scalar_lead_phase(v[:, j]))
    return u, sigma, v


def gauge_inputs(rng):
    """Matrices with ties, zero columns and magnitudes from 1e-300 to 1e300."""
    for shape in [(4, 4), (4, 9), (9, 4), (6, 6), (2, 4)]:
        m = random_complex(rng, shape)
        yield m
        yield np.round(2 * m)  # integer entries: many exact magnitude ties
        low = m[:, :2] @ random_complex(rng, (2, shape[1]))
        yield low
        zeroed = m.copy()
        zeroed[:, 1] = 0.0
        yield zeroed
        for scale in (1e-300, 1e-150, 1e150, 1e300):
            yield m * scale
    yield np.array([[1, 1j, 0], [-1, 0, 0], [1j, -1j, 0]], dtype=complex)


class TestStackedGauge:
    """The stacked gauge is the per-column rule bit for bit, and a stack is per-matrix calls."""

    def test_lead_phase_matches_the_scalar_rule(self):
        rng = np.random.default_rng(15)
        for m in gauge_inputs(rng):
            want = np.array([scalar_lead_phase(col) for col in m.T], dtype=complex)
            assert _lead_phase(m).tobytes() == want.tobytes()

    def test_stack_matches_per_matrix_calls(self):
        rng = np.random.default_rng(16)
        for m in gauge_inputs(rng):
            stack = np.stack([m, np.round(m * 3), m[::-1], 0 * m])
            got = svd(stack)
            nested = svd(stack.reshape(2, 2, *m.shape))
            for i, matrix in enumerate(stack):
                for want, part, deep in zip(looped_svd(matrix), got, nested):
                    assert part[i].tobytes() == want.tobytes()
                    assert deep[i // 2, i % 2].tobytes() == want.tobytes()
            assert got[0].flags.c_contiguous and got[2].flags.c_contiguous


class TestQr:
    def test_identity(self):
        q, r = qr(np.eye(3, dtype=complex))
        assert np.allclose(q, np.eye(3), atol=1e-15)
        assert np.allclose(r, np.eye(3), atol=1e-15)

    def test_unitary_input_gives_diagonal_r(self):
        rng = np.random.default_rng(15)
        m, _ = np.linalg.qr(random_complex(rng, (4, 4)))
        q, r = qr(m)
        off = r - np.diag(np.diagonal(r))
        assert np.linalg.norm(off) < 1e-12
        assert np.allclose(np.abs(np.diagonal(r)), 1.0, atol=1e-12)

    def test_tall_input_is_completed_to_a_unitary_frame(self):
        rng = np.random.default_rng(20)
        for n, k in ((4, 1), (4, 2), (4, 3), (9, 4)):
            m = random_complex(rng, (n, k))
            q, r = qr(m)
            assert q.shape == (n, n) and r.shape == (n, k)
            assert np.linalg.norm(q.conj().T @ q - np.eye(n)) < 1e-12
            assert np.linalg.norm(q @ r - m) < 1e-12 * np.linalg.norm(m)
            # The first k columns span the input's columns.
            lead = q[:, :k]
            assert np.linalg.norm(lead @ (lead.conj().T @ m) - m) < 1e-12 * np.linalg.norm(m)
            d = np.diagonal(r)
            assert np.all(d.real >= 0) and np.all(d.imag == 0)
            assert np.linalg.norm(r[k:]) == 0.0

    def test_reconstruction(self):
        rng = np.random.default_rng(16)
        for dim in [2, 4, 8, 16]:
            m = random_complex(rng, (dim, dim))
            q, r = qr(m)
            scale = np.linalg.norm(m)
            assert np.linalg.norm(q @ r - m) < 1e-12 * scale
            assert np.linalg.norm(q.conj().T @ q - np.eye(dim)) < 1e-12
            assert np.linalg.norm(np.tril(r, -1)) < 1e-13 * scale
            assert np.all(np.diagonal(r).real >= 0)
            assert np.linalg.norm(np.diagonal(r).imag) < 1e-13 * scale


def commutation_matrix(d1, d2):
    """Permutation taking entry (r, c) of a d1 x d2 matrix to its slot in X.T, row-major."""
    k = np.zeros((d1 * d2, d1 * d2), dtype=complex)
    for r in range(d1):
        for c in range(d2):
            k[c * d1 + r, r * d2 + c] = 1.0
    return k


class TestCommutationMatrix:
    """Row-major, entry (r, c) of a d1 x d2 matrix sits at r*d2 + c of its ravel."""

    def test_maps_vec_to_vec_transpose(self):
        rng = np.random.default_rng(18)
        for d1, d2 in [(2, 2), (2, 3), (3, 4)]:
            m = random_complex(rng, (d1, d2))
            k = commutation_matrix(d1, d2)
            assert np.array_equal(k @ m.ravel(), m.T.ravel())
            assert np.array_equal((k @ m.ravel()).reshape(d2, d1), m.T)
        # The literal SWAP the tests use is the 2 x 2 case.
        assert np.array_equal(commutation_matrix(2, 2), SWAP)

    def test_square_case_involutory(self):
        rng = np.random.default_rng(19)
        k = commutation_matrix(3, 3)
        assert np.array_equal(k @ k, np.eye(9, dtype=complex))
        # Transposing X in X right - left X gives X^T left^T - right^T X^T, negated.
        right, left = random_complex(rng, (3, 3)), random_complex(rng, (3, 3))
        assert np.array_equal(k @ _sylvester_system(right, left) @ k, -_sylvester_system(left.T, right.T))
