"""Unit tests for the reshaping and factorization primitives."""

import numpy as np
import pytest

from slocceq.tensorops import (
    fold,
    numerical_rank,
    pencil_det_form,
    qr,
    realign,
    sigma_rank,
    sigma_ratio,
    svd,
    vectorize,
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


def realign_blockwise(matrix, dim_left, dim_right):
    """Independent realignment oracle: explicit block extraction loops.

    Row order runs through the block index column-major (row index
    fastest), each row being the column-major vectorization of one
    ``dim_right x dim_right`` block.
    """
    out = np.zeros((dim_left * dim_left, dim_right * dim_right), dtype=complex)
    row = 0
    for j in range(dim_left):
        for i in range(dim_left):
            block = matrix[
                i * dim_right : (i + 1) * dim_right,
                j * dim_right : (j + 1) * dim_right,
            ]
            out[row] = block.reshape(-1, order="F")
            row += 1
    return out


class TestVectorizeFold:
    def test_vectorize_is_column_major(self):
        m = np.array([[1, 2], [3, 4]], dtype=complex)
        assert np.array_equal(vectorize(m), np.array([1, 3, 2, 4], dtype=complex))

    def test_vectorize_identity(self):
        assert np.array_equal(
            vectorize(np.eye(2)), np.array([1, 0, 0, 1], dtype=complex)
        )

    def test_vectorize_column_vector_unchanged(self):
        col = np.array([[5.0], [6.0], [7.0]], dtype=complex)
        assert np.array_equal(vectorize(col), col.reshape(-1))

    def test_fold_layout(self):
        v = np.array([1, 3, 2, 4], dtype=complex)
        assert np.array_equal(fold(v, 2, 2), np.array([[1, 2], [3, 4]]))

    def test_fold_basis_vector(self):
        v = np.array([0, 0, 0, 1], dtype=complex)
        assert np.array_equal(fold(v, 2, 2), np.array([[0, 0], [0, 1]]))

    def test_fold_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            fold(np.zeros(5), 2, 2)

    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(11)
        for rows, cols in [(2, 2), (3, 5), (4, 1), (1, 4), (16, 16)]:
            m = random_complex(rng, (rows, cols))
            assert np.array_equal(fold(vectorize(m), rows, cols), m)


class TestKron:
    """The left-coarse block layout of ``np.kron`` is the one ``realign`` reads."""

    def test_identity_pair(self):
        for dl, dr in [(2, 2), (2, 3), (3, 2)]:
            eye = np.eye(dl * dr, dtype=complex)
            expected = np.outer(vectorize(np.eye(dl)), vectorize(np.eye(dr)))
            assert np.array_equal(realign(eye, dl, dr), expected)

    def test_hand_expansion(self):
        b = np.array([[1, 2], [3, 4]], dtype=complex)
        c = np.array([[0, 1], [1, 0]], dtype=complex)
        assert np.array_equal(np.kron(b, c), KRON_HAND)
        expected = np.outer(vectorize(b), vectorize(c))
        assert np.array_equal(realign(KRON_HAND, 2, 2), expected)


class TestRealign:
    def test_matches_blockwise_oracle(self):
        rng = np.random.default_rng(7)
        for dl, dr in [(2, 2), (2, 3), (3, 2), (4, 4)]:
            m = random_complex(rng, (dl * dr, dl * dr))
            assert np.array_equal(realign(m, dl, dr), realign_blockwise(m, dl, dr))

    def test_kron_realigns_to_outer_product(self):
        rng = np.random.default_rng(8)
        for dl, dr in [(2, 2), (2, 3), (3, 3)]:
            for _ in range(50):
                b = random_complex(rng, (dl, dl))
                c = random_complex(rng, (dr, dr))
                lhs = realign(np.kron(b, c), dl, dr)
                rhs = np.outer(vectorize(b), vectorize(c))
                assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(rhs))

    def test_identity_realigns_to_rank_one(self):
        assert numerical_rank(realign(np.eye(4, dtype=complex), 2, 2)) == 1

    def test_swap_realigns_to_rank_four(self):
        assert numerical_rank(realign(SWAP, 2, 2)) == 4

    def test_unrealign_inverts_realign(self):
        """Realignment only moves entries, so its index map inverts exactly."""
        rng = np.random.default_rng(9)
        for dl, dr in [(2, 2), (2, 3), (3, 2)]:
            m = random_complex(rng, (dl * dr, dl * dr))
            back = (
                realign(m, dl, dr)
                .reshape(dl, dl, dr, dr)
                .transpose(1, 3, 0, 2)
                .reshape(dl * dr, dl * dr)
            )
            assert np.array_equal(back, m)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            realign(np.zeros((3, 3)), 2, 2)


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
    """Permutation taking entry (r, c) of a d1 x d2 matrix to its slot in X.T."""
    k = np.zeros((d1 * d2, d1 * d2), dtype=complex)
    for r in range(d1):
        for c in range(d2):
            k[r * d2 + c, c * d1 + r] = 1.0
    return k


class TestCommutationMatrix:
    """``vectorize`` and ``fold`` place entry (r, c) of a d1 x d2 matrix at c*d1 + r."""

    def test_maps_vec_to_vec_transpose(self):
        rng = np.random.default_rng(18)
        for d1, d2 in [(2, 2), (2, 3), (3, 4)]:
            m = random_complex(rng, (d1, d2))
            k = commutation_matrix(d1, d2)
            assert np.array_equal(k @ vectorize(m), vectorize(m.T))
            assert np.array_equal(fold(k @ vectorize(m), d2, d1), m.T)
        # The literal SWAP the tests use is the 2 x 2 case.
        assert np.array_equal(commutation_matrix(2, 2), SWAP)

    def test_square_case_involutory(self):
        rng = np.random.default_rng(19)
        k = commutation_matrix(3, 3)
        assert np.array_equal(k @ k, np.eye(9, dtype=complex))
        m = random_complex(rng, (3, 3))
        assert np.array_equal(fold(k @ (k @ vectorize(m)), 3, 3), m)
