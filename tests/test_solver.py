"""Unit tests for the local-operator constructions."""

import numpy as np
import pytest

from slocceq.catalog import random_orbit_case
from slocceq import decomposition, solver
from slocceq.decomposition import triple_state_set
from slocceq.solver import (
    SolveStatus,
    SolverConfig,
    _MAGIC,
    _QUBIT_PAIR_FORM,
    _binary_quadratic_roots,
    _by_slice_determinants,
    _intertwiner_family,
    _kron_congruences,
    _kron_split,
    _right_tuple_solve,
    _right_tuple_system,
    _polar_orthogonal,
    _row_pair_covariant,
    _sylvester_system,
    solve_ptilde,
    solve_ptilde_single,
)
from slocceq.states import Bipartition, PureState, apply_local_ops, make_state

CUT_12_34 = Bipartition((1, 2), (3, 4))
CONFIG = SolverConfig(rng_seed=0)


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def flat_misfit(out, frame, frame_prime):
    """Smallest relative misfit of ``M' ~ c (A1 (x) A2) M (A3 (x) A4)^T``.

    Taken over the outcome's candidates, with the best complex scalar c;
    infinity when there is no candidate.
    """
    m, mp = frame.reconstruct(), frame_prime.reconstruct()
    best = np.inf
    for a1, a2, a3, a4 in out.candidates:
        image = np.kron(a1, a2) @ m @ np.kron(a3, a4).T
        c = np.vdot(image, mp) / np.vdot(image, image)
        best = min(best, np.linalg.norm(mp - c * image) / np.linalg.norm(mp))
    return best


def span_misfit(out, u_full, u_prime_full, r):
    """Smallest share of ``kron(A1, A2)`` U[:, :r] outside the span of U'[:, :r]."""
    best = np.inf
    for a1, a2 in out.candidates:
        mapped = np.kron(a1, a2) @ u_full[:, :r]
        outside = u_prime_full[:, r:].conj().T @ mapped
        best = min(best, np.linalg.norm(outside) / np.linalg.norm(mapped))
    return best


class TestSolverConfig:
    def test_restarts_must_be_positive(self):
        with pytest.raises(ValueError):
            SolverConfig(rng_seed=0, restarts=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="rng_seed"):
            SolverConfig(rng_seed=-1)


def kron_gap(mat):
    """``sigma_2 / sigma_1`` of the 4x4 ``mat`` regrouped as ``((i, j), (k, l))``: 0 for a product."""
    s = np.linalg.svd(mat.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4), compute_uv=False)
    return s[1] / s[0]


class TestKronSplit:
    """Whole 4x4 matrices are split into the qubit factors of their nearest product."""

    def test_product_splits_up_to_scale(self):
        rng = np.random.default_rng(73)
        x, y = random_complex(rng, (2, 2)), random_complex(rng, (2, 2))
        got = _kron_split(np.kron(x, y))
        assert got is not None
        product = np.kron(*got)
        target = np.kron(x, y)
        c = np.vdot(product, target) / np.vdot(product, product)
        assert np.linalg.norm(target - c * product) < 1e-12 * np.linalg.norm(target)

    def test_swap_splits_with_its_whole_gap(self):
        # SWAP regroups to a permutation matrix, four equal singular values:
        # its nearest product misses three quarters of its squared norm, and
        # that miss is left for verification to reject.
        swap = np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
        assert kron_gap(swap) == pytest.approx(1.0)
        miss = np.linalg.norm(swap - np.kron(*_kron_split(swap)))
        assert miss == pytest.approx(np.sqrt(3.0), rel=1e-12)

    def test_split_is_the_nearest_product(self):
        # Regrouping is an isometry, so the leading singular pair gives the
        # product nearest to the matrix, at any distance from the planted one.
        rng = np.random.default_rng(74)
        product = np.kron(random_complex(rng, (2, 2)), random_complex(rng, (2, 2)))
        direction = random_complex(rng, (4, 4))
        direction *= np.linalg.norm(product) / np.linalg.norm(direction)
        for step in (1e-9, 1e-3, 1.0):
            mat = product + step * direction
            miss = np.linalg.norm(mat - np.kron(*_kron_split(mat)))
            assert miss <= (1.0 + 1e-9) * step * np.linalg.norm(product), step


def scale_fit_misfit(got, target):
    """Relative misfit of ``target ≈ c got`` over a list of matrices, best complex c."""
    got, target = np.stack(got), np.stack(target)
    c = np.vdot(got, target) / np.vdot(got, got)
    return np.linalg.norm(target - c * got) / np.linalg.norm(target)


class TestRowPairCovariant:
    """The det-form covariant of a (2,2)-row, (3,3)-column flattening."""

    def test_transforms_by_congruence(self):
        rng = np.random.default_rng(75)
        for _ in range(5):
            m = random_complex(rng, (4, 9))
            b = np.kron(random_complex(rng, (2, 2)), random_complex(rng, (2, 2)))
            g, h = random_complex(rng, (3, 3)), random_complex(rng, (3, 3))
            q = _row_pair_covariant(m)
            q_img = _row_pair_covariant(b @ m @ np.kron(g, h).T)
            assert np.allclose(q, q.T, rtol=0.0, atol=1e-12 * np.linalg.norm(q))
            assert scale_fit_misfit([b @ q @ b.T], [q_img]) < 1e-10

    def test_quadratic_form_is_trace_square_of_twisted_hessian(self):
        rng = np.random.default_rng(76)
        m = random_complex(rng, (4, 9))
        q = _row_pair_covariant(m)
        eye = np.eye(4)
        step = 0.5

        def cubic(x):
            return np.linalg.det((m.T @ x).reshape(3, 3))

        for _ in range(2):
            x = rng.standard_normal(4)
            # Central second differences are exact for a cubic.
            hess = np.array(
                [
                    [
                        (
                            cubic(x + step * (eye[i] + eye[j]))
                            - cubic(x + step * (eye[i] - eye[j]))
                            - cubic(x - step * (eye[i] - eye[j]))
                            + cubic(x - step * (eye[i] + eye[j]))
                        )
                        / (4.0 * step**2)
                        for j in range(4)
                    ]
                    for i in range(4)
                ]
            )
            twisted = _QUBIT_PAIR_FORM @ hess
            expected = np.trace(twisted @ twisted)
            assert abs(x @ q @ x - expected) < 1e-10 * abs(expected)


def l_a4_flattening(a):
    """Flattening at 12-34 of Verstraete's L_a4, whose twisted square is one Jordan block."""
    amps = np.zeros(16, dtype=complex)
    amps[[0b0000, 0b0101, 0b1010, 0b1111]] = a
    amps[[0b0001, 0b0110, 0b1011]] = [1j, 1.0, -1j]
    return amps.reshape(4, 4)


def planted_congruence(rng, s):
    """A random Kronecker B and the image ``c B s B^T`` with a random scalar c."""
    b = np.kron(random_complex(rng, (2, 2)), random_complex(rng, (2, 2)))
    return b, random_complex(rng, ()) * b @ s @ b.T


def congruences(s, s_p, rng):
    """Every B of every root that ``_kron_congruences`` reaches, in stream order."""
    return [b for bs in _kron_congruences(s, s_p, rng) for b in bs]


def congruence_misfits(cands, s, s_p):
    """Relative misfit of ``s_p ≈ c b s b^T`` for each candidate b."""
    return [scale_fit_misfit([b @ s @ b.T], [s_p]) for b in cands]


def symmetric_of(m):
    return m @ _QUBIT_PAIR_FORM @ m.T


class TestKronCongruences:
    """One construction finds B with ``S' ∝ B S B^T`` for every symmetric S."""

    def test_distinct_spectrum_recovers_the_planted_product(self):
        rng = np.random.default_rng(79)
        for _ in range(5):
            s = random_complex(rng, (4, 4))
            s = s + s.T
            b, s_p = planted_congruence(rng, s)
            cands = congruences(s, s_p, rng)
            assert min(congruence_misfits(cands, s, s_p)) < 1e-8
            assert min(scale_fit_misfit([c], [b]) for c in cands) < 1e-8

    def test_two_double_eigenvalues(self):
        rng = np.random.default_rng(80)
        s = symmetric_of(make_state("cluster1d").amps.reshape(4, 4))
        square = s @ _QUBIT_PAIR_FORM
        mu2 = np.trace(square @ square) / 4.0
        assert np.linalg.norm(square @ square - mu2 * np.eye(4)) < 1e-12
        for _ in range(5):
            _, s_p = planted_congruence(rng, s)
            assert min(congruence_misfits(congruences(s, s_p, rng), s, s_p)) < 1e-8

    def test_stream_yields_every_nonempty_root(self):
        # cluster1d's twisted square has tr(A) = tr(A^3) = 0, so the roots c
        # and -c tie on the trace match and both have intertwiners.
        rng = np.random.default_rng(83)
        s = symmetric_of(make_state("cluster1d").amps.reshape(4, 4))
        a = _MAGIC @ s @ _MAGIC.T
        for _ in range(5):
            _, s_p = planted_congruence(rng, s)
            cands = congruences(s, s_p, rng)
            a_p = _MAGIC @ s_p @ _MAGIC.T
            c0 = (np.linalg.det(a_p) / np.linalg.det(a)) ** 0.25
            roots = [c0 * 1j**k for k in range(4) if _intertwiner_family(a, a_p / (c0 * 1j**k))]
            assert len(roots) == 2
            assert len(cands) == 8
            images = [b @ s @ b.T for b in cands]
            assert max(scale_fit_misfit([x], [s_p]) for x in images) < 1e-8
            scalars = [np.vdot(x, s_p) / np.vdot(x, x) for x in images]
            for root in roots:
                assert sum(abs(c / root - 1.0) < 1e-8 for c in scalars) == 4

    @pytest.mark.parametrize("dims", [(2, 2, 2, 2), (2, 2, 3, 3)])
    def test_planted_orbits_yield_only_products(self, dims):
        # Every B of a planted pair is a Kronecker product up to roundoff, so
        # its split loses nothing.
        covariant = _row_pair_covariant if dims[2] == 3 else symmetric_of
        for seed in range(10):
            state, image, _ = random_orbit_case(dims, seed)
            m, mp = (x.amps.reshape(4, -1) for x in (state, image))
            rng = np.random.default_rng(seed)
            cands = congruences(covariant(m), covariant(mp), rng)
            assert len(cands) >= 4, seed
            assert max(kron_gap(b) for b in cands) < 1e-9, seed

    def test_single_jordan_block(self):
        rng = np.random.default_rng(81)
        s = symmetric_of(l_a4_flattening(0.7 - 0.4j))
        a = _MAGIC @ s @ _MAGIC.T
        lam = np.trace(a) / 4.0
        assert np.linalg.matrix_rank(a - lam * np.eye(4), tol=1e-10 * np.linalg.norm(a)) == 3
        for _ in range(5):
            b, s_p = planted_congruence(rng, s)
            cands = congruences(s, s_p, rng)
            assert min(congruence_misfits(cands, s, s_p)) < 1e-8
            assert min(scale_fit_misfit([c], [b]) for c in cands) < 1e-8

    def test_determinant_minus_one_is_repaired_by_a_reflection(self, monkeypatch):
        rng = np.random.default_rng(82)
        s = random_complex(rng, (4, 4))
        s = s + s.T
        v = np.linalg.eig(_MAGIC @ s @ _MAGIC.T)[1][:, 0]
        flip = np.eye(4) - 2.0 * np.outer(v, v) / (v @ v)
        original = solver._polar_orthogonal
        dets = []

        def flipped(w):
            o = original(w)
            if o is not None:
                if np.linalg.det(o).real > 0.0:
                    o = o @ flip
                dets.append(np.linalg.det(o))
            return o

        monkeypatch.setattr(solver, "_polar_orthogonal", flipped)
        b, s_p = planted_congruence(rng, s)
        cands = congruences(s, s_p, rng)
        assert dets and all(abs(d + 1.0) < 1e-10 for d in dets)
        assert min(congruence_misfits(cands, s, s_p)) < 1e-8
        assert min(scale_fit_misfit([c], [b]) for c in cands) < 1e-8


class TestPolarOrthogonal:
    def test_jordan_block(self):
        # W = Q S with Q complex orthogonal (a Cayley transform) and S
        # symmetric, similar to a 4x4 Jordan block whose eigenvalue has
        # positive real part, so that S is the principal root of W^T W.
        rng = np.random.default_rng(5)
        swap = np.fliplr(np.eye(4))
        t = (np.eye(4) + 1j * swap) / np.sqrt(2.0)
        s = t @ ((1.5 - 0.5j) * np.eye(4) + np.eye(4, k=1)) @ t.conj()
        assert np.linalg.norm(s - s.T) < 1e-14
        k = random_complex(rng, (4, 4))
        q = np.linalg.solve(np.eye(4) - (k - k.T), np.eye(4) + (k - k.T))
        assert np.linalg.norm(q.T @ q - np.eye(4)) < 1e-13
        o = _polar_orthogonal(q @ s)
        assert o is not None
        assert np.linalg.norm(o - q) < 1e-12 * np.linalg.norm(q)


class TestKroneckerBuilds:
    """The einsum-built systems equal their np.kron definitions bit for bit."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_right_tuple_system(self, d):
        rng = np.random.default_rng(80 + d)
        rs, ts = random_complex(rng, (4, d, d)), random_complex(rng, (4, d, d))
        eye = np.eye(d)
        reference = np.vstack(
            [np.hstack([np.kron(eye, r.T), -np.kron(t, eye)]) for r, t in zip(rs, ts)]
        )
        assert np.array_equal(_right_tuple_system(rs, ts), reference)

    def test_sylvester_system(self):
        rng = np.random.default_rng(84)
        right, left = random_complex(rng, (4, 4)), random_complex(rng, (4, 4))
        reference = np.kron(np.eye(4), right.T) - np.kron(left, np.eye(4))
        assert np.array_equal(_sylvester_system(right, left), reference)


class TestRightTupleSolve:
    """The column factors of the rank-4 construction come from one linear solve."""

    def test_recovers_planted_factors(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            rs = [random_complex(rng, (3, 3)) for _ in range(4)]
            g, h = random_complex(rng, (3, 3)), random_complex(rng, (3, 3))
            ts = [g @ r @ h.T for r in rs]
            got = _right_tuple_solve(rs, ts, rng)
            assert got is not None
            g_got, h_got = got
            assert scale_fit_misfit([g_got @ r @ h_got.T for r in rs], ts) < 1e-10

    def test_unrelated_slices_give_their_best_fit(self):
        # Unrelated slices still give factors, which fit too badly to verify.
        rng = np.random.default_rng(78)
        for _ in range(5):
            rs = [random_complex(rng, (3, 3)) for _ in range(4)]
            ts = [random_complex(rng, (3, 3)) for _ in range(4)]
            g, h = _right_tuple_solve(rs, ts, rng)
            assert scale_fit_misfit([g @ r @ h.T for r in rs], ts) > 1e-2


class TestBySliceDeterminants:
    """A root's congruences are solved in order of slice-determinant fit."""

    def test_right_congruence_comes_first(self):
        rng = np.random.default_rng(85)
        rs = random_complex(rng, (4, 3, 3))
        g, h = random_complex(rng, (3, 3)), random_complex(rng, (3, 3))
        right = 0.3j * g @ rs @ h.T
        pairs = [("wrong", random_complex(rng, (4, 3, 3))) for _ in range(3)] + [("right", right)]
        ordered = _by_slice_determinants(pairs, rs)
        assert ordered[0][0] == "right"
        assert sorted(id(p) for p in ordered) == sorted(id(p) for p in pairs)

    def test_zero_determinant_vector_keeps_generation_order(self):
        rng = np.random.default_rng(86)
        # Slices with a zero row have determinant exactly zero.
        rs = random_complex(rng, (4, 3, 3))
        singular = rs.copy()
        singular[:, 2] = 0.0
        pairs = [(k, random_complex(rng, (4, 3, 3))) for k in range(3)] + [(3, rs)]
        assert [b for b, _ in _by_slice_determinants(pairs, singular)] == [0, 1, 2, 3]
        pairs[1] = (1, singular)
        assert [b for b, _ in _by_slice_determinants(pairs, rs)] == [0, 1, 2, 3]


class TestFlatteningRelation:
    def test_cluster_pair_construction_fits_the_flattening(self):
        frame = triple_state_set(make_state("psi2_abcd", (0.6, 0.5, 0.4, 0.3)), CUT_12_34)
        frame_p = triple_state_set(make_state("cluster1d"), CUT_12_34)
        out = solve_ptilde(frame, frame_p, CONFIG)
        assert out.status is SolveStatus.FOUND
        assert flat_misfit(out, frame, frame_p) < 1e-10


class TestSolvePtilde:
    def test_self_solve_catalog(self):
        cases = [
            ("ghz4", ()),
            ("w4", ()),
            ("cluster1d", ()),
            ("psi_abcd", (1.0, 2.0, 3.0, 4.0)),
            ("psi2_abcd", (0.6, 0.5, 0.4, 0.3)),
        ]
        for name, params in cases:
            frame = triple_state_set(make_state(name, params), CUT_12_34)
            out = solve_ptilde(frame, frame, CONFIG)
            assert out.status is SolveStatus.FOUND, name
            assert flat_misfit(out, frame, frame) < 1e-12, name

    def test_full_rank_orbits_solve_directly(self):
        for seed in range(30):
            state, image, _ = random_orbit_case((2, 2, 2, 2), seed, 20.0)
            frame = triple_state_set(state, CUT_12_34)
            frame_image = triple_state_set(image, CUT_12_34)
            out = solve_ptilde(frame, frame_image, CONFIG)
            assert out.status is SolveStatus.FOUND, seed
            assert out.restarts_used == 0, seed
            assert flat_misfit(out, frame, frame_image) < 1e-9, seed

    def test_mixed_dimension_orbits_solve_directly(self):
        for dims in [(2, 2, 3, 3), (3, 3, 2, 2)]:
            for seed in range(5):
                state, image, _ = random_orbit_case(dims, seed, 20.0)
                frame = triple_state_set(state, CUT_12_34)
                frame_image = triple_state_set(image, CUT_12_34)
                out = solve_ptilde(frame, frame_image, CONFIG)
                assert out.status is SolveStatus.FOUND, (dims, seed)
                assert out.restarts_used == 0, (dims, seed)
                assert flat_misfit(out, frame, frame_image) < 1e-9, (dims, seed)

    def test_rank_two_orbits_solve_directly(self):
        rng = np.random.default_rng(52)
        state = make_state("ghz4")
        for seed in range(10):
            ops = [
                random_complex(rng, (2, 2)) + 1.5 * np.eye(2) for _ in range(4)
            ]
            image = apply_local_ops(state, ops)
            frame = triple_state_set(state, CUT_12_34)
            frame_image = triple_state_set(image, CUT_12_34)
            out = solve_ptilde(frame, frame_image, CONFIG)
            assert out.status is SolveStatus.FOUND, seed
            assert out.restarts_used == 0, seed
            assert flat_misfit(out, frame, frame_image) < 1e-9, seed

    def test_rank_one_orbits_solve_directly(self):
        rng = np.random.default_rng(53)
        amps = np.kron(random_complex(rng, (4,)), random_complex(rng, (4,)))
        state = PureState((2, 2, 2, 2), amps)
        for _ in range(5):
            ops = [
                random_complex(rng, (2, 2)) + 1.5 * np.eye(2) for _ in range(4)
            ]
            image = apply_local_ops(state, ops)
            frame = triple_state_set(state, CUT_12_34)
            frame_image = triple_state_set(image, CUT_12_34)
            out = solve_ptilde(frame, frame_image, CONFIG)
            assert out.status is SolveStatus.FOUND
            assert out.restarts_used == 0
            assert flat_misfit(out, frame, frame_image) < 1e-9

    def test_degenerate_spectrum_orbits_solve_directly(self):
        rng = np.random.default_rng(54)
        for name, params in [("cluster1d", ()), ("psi2_abcd", (0.6, 0.5, 0.4, 0.3))]:
            state = make_state(name, params)
            for _ in range(10):
                ops = [
                    random_complex(rng, (2, 2)) + 1.5 * np.eye(2)
                    for _ in range(4)
                ]
                image = apply_local_ops(state, ops)
                frame = triple_state_set(state, CUT_12_34)
                frame_image = triple_state_set(image, CUT_12_34)
                out = solve_ptilde(frame, frame_image, CONFIG)
                assert out.status is SolveStatus.FOUND, name
                assert out.restarts_used == 0, name
                assert flat_misfit(out, frame, frame_image) < 1e-9, name

    def test_gauge_rotation_in_degenerate_block(self, monkeypatch):
        rng = np.random.default_rng(55)
        frame = triple_state_set(make_state("ghz4"), CUT_12_34)
        gauged_u = frame.u_full  # computed before the rotation below is installed
        w, _ = np.linalg.qr(random_complex(rng, (2, 2)))
        gauged = decomposition.svd

        def rotated_svd(stack):
            u, sigma, v = gauged(stack)
            u[..., :2] = u[..., :2] @ w
            v[..., :2] = v[..., :2] @ w
            return u, sigma, v

        # Frames come from one place, a stacked SVD; the rotated ones go in through it.
        monkeypatch.setattr(decomposition, "svd", rotated_svd)
        rotated = triple_state_set(make_state("ghz4"), CUT_12_34)
        assert not np.allclose(rotated.u_full[:, :2], gauged_u[:, :2])
        assert np.allclose(
            rotated.reconstruct(), frame.reconstruct(), atol=1e-12
        )
        out = solve_ptilde(rotated, frame, CONFIG)
        assert out.status is SolveStatus.FOUND
        assert out.restarts_used == 0
        assert flat_misfit(out, rotated, frame) < 1e-9

    def test_ghz_vs_w_exhausts(self):
        f_w = triple_state_set(make_state("w4"), CUT_12_34)
        f_ghz = triple_state_set(make_state("ghz4"), CUT_12_34)
        out = solve_ptilde(f_w, f_ghz, CONFIG)
        assert out.status is SolveStatus.EXHAUSTED
        assert out.restarts_used == 0
        assert flat_misfit(out, f_w, f_ghz) > 1e-3

    def test_rank_mismatch_rejected(self):
        f_ghz = triple_state_set(make_state("ghz4"), CUT_12_34)
        f_cluster = triple_state_set(make_state("cluster1d"), CUT_12_34)
        with pytest.raises(ValueError):
            solve_ptilde(f_ghz, f_cluster, CONFIG)

    def test_deterministic_given_seed(self):
        for dims in [(2, 2, 2, 2), (2, 2, 3, 3)]:
            state, image, _ = random_orbit_case(dims, 9, 20.0)
            frame = triple_state_set(state, CUT_12_34)
            frame_image = triple_state_set(image, CUT_12_34)
            cands1 = list(solve_ptilde(frame, frame_image, CONFIG).candidates)
            cands2 = list(solve_ptilde(frame, frame_image, CONFIG).candidates)
            assert len(cands1) == len(cands2) > 0, dims
            for cand1, cand2 in zip(cands1, cands2):
                assert all(np.array_equal(a, b) for a, b in zip(cand1, cand2)), dims


class TestSolvePtildeSingle:
    def test_identity_frames(self):
        frame = triple_state_set(make_state("ghz4"), CUT_12_34)
        out = solve_ptilde_single(
            frame.u_full, frame.u_full, frame.r, frame.left_dims
        )
        assert out.status is SolveStatus.FOUND
        assert span_misfit(out, frame.u_full, frame.u_full, frame.r) < 1e-12

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_planted_product_map(self, r):
        rng = np.random.default_rng(56)
        a1 = random_complex(rng, (2, 2)) + 1.5 * np.eye(2)
        a2 = random_complex(rng, (2, 2)) + 1.5 * np.eye(2)
        u_prime, _ = np.linalg.qr(random_complex(rng, (4, 4)))
        u_full, pt_planted = np.linalg.qr(np.kron(a1, a2) @ u_prime)
        assert abs(np.linalg.norm(pt_planted[r:, :r])) < 1e-14
        out = solve_ptilde_single(u_full, u_prime, r, (2, 2))
        assert out.status is SolveStatus.FOUND
        assert span_misfit(out, u_full, u_prime, r) < 1e-9

    def test_mismatched_frames_rejected(self):
        with pytest.raises(ValueError):
            solve_ptilde_single(np.eye(4), np.eye(6), 2, (2, 2))


class TestBinaryQuadraticRoots:
    def test_distinct_roots_solve_the_form(self):
        rng = np.random.default_rng(57)
        for _ in range(20):
            a, b, c = random_complex(rng, (3,))
            for scale_a in (1.0, 1e-3):
                roots = _binary_quadratic_roots(scale_a * a, b, c, 1e-8)
                assert roots is not None and len(roots) == 2
                for x, y in roots:
                    value = scale_a * a * x * x + b * x * y + c * y * y
                    assert abs(value) < 1e-10 * max(abs(x), abs(y)) ** 2
                    assert 1.0 in (x, y)
                (x0, y0), (x1, y1) = roots
                assert abs(x0 * y1 - x1 * y0) > 1e-6

    def test_repeated_root_and_zero_form_give_none(self):
        # (x - 2y)^2 = x^2 - 4xy + 4y^2
        assert _binary_quadratic_roots(1.0, -4.0, 4.0, 1e-8) is None
        assert _binary_quadratic_roots(1.0, -4.0, 4.0 + 1e-20, 1e-6) is None
        assert _binary_quadratic_roots(0.0, 0.0, 0.0, 1e-8) is None

    def test_roundoff_square_terms_do_not_blow_up(self):
        # Pencil of a gauge-rotated GHZ4 frame: a and c are pure roundoff.
        a, b, c = -3.3e-16 + 2.5e-16j, 0.776 - 0.631j, 3.1e-16 - 2.7e-16j
        roots = _binary_quadratic_roots(a, b, c, 1e-6)
        assert roots is not None
        for x, y in roots:
            assert abs(a * x * x + b * x * y + c * y * y) < 1e-14
            assert min(abs(x), abs(y)) < 1e-14
        (x0, y0), (x1, y1) = roots
        assert abs(x0 * y1 - x1 * y0) > 1.0 - 1e-14

    def test_no_square_terms_gives_the_axes(self):
        assert _binary_quadratic_roots(0.0, 3.0 - 1.0j, 0.0, 1e-8) == [
            (1.0, 0.0),
            (0.0, 1.0),
        ]
