"""Unit tests for the coupling-certificate search."""

import numpy as np
import pytest

from slocceq.catalog import random_orbit_case
from slocceq.decomposition import (
    SingularFrame,
    flatten_bipartition,
    triple_state_set,
)
from slocceq.solver import (
    PTildeCandidate,
    SolveStatus,
    SolverConfig,
    _binary_quadratic_roots,
    couple_q,
    residual,
    solve_ptilde,
    solve_ptilde_single,
)
from slocceq.states import Bipartition, PureState, apply_local_ops, make_state

CUT_12_34 = Bipartition((1, 2), (3, 4))
CONFIG = SolverConfig(rng_seed=0)
EMPTY = np.zeros((0, 0), dtype=complex)


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def full_rank_candidate(p):
    p = np.asarray(p, dtype=complex)
    return PTildeCandidate(P=p, Y=np.zeros((p.shape[0], 0)), P_bar=EMPTY)


def closed_form_cluster_coupling(a, b, c, d, p11=1.0, p22=1.0, x=1.0):
    """Closed-form coupling family for the cluster pair.

    p11 and p22 are free diagonal scales; x is pinned by the rank-one
    consistency conditions for this (y, z) instantiation.
    """
    beta = np.sqrt(a * d / (b * c))
    y = -c * beta / a
    z = c * beta / a
    return np.array(
        [
            [p11, 0.0, x * p11, 0.0],
            [0.0, p22, 0.0, -x * p22],
            [-y * p11, 0.0, -z * p11, 0.0],
            [0.0, -y * p22, 0.0, z * p22],
        ],
        dtype=complex,
    )


def cluster_pair_frames():
    """Hand-picked diagonal/permutation singular frames for the cluster pair.

    Valid alternative SVD gauges of the two flattened states; asserted
    against the amplitudes before use.
    """
    a, b, c, d = 0.6, 0.5, 0.4, 0.3
    psi2 = make_state("psi2_abcd", (a, b, c, d))
    cluster = make_state("cluster1d")
    u = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex)
    v = np.array(
        [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
    )
    lam = np.array([a, b, c, d])
    u_p = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    v_p = np.eye(4, dtype=complex)
    lam_p = np.full(4, 0.5)
    assert np.allclose(
        (u * lam) @ v.conj().T, flatten_bipartition(psi2, CUT_12_34), atol=1e-15
    )
    assert np.allclose(
        (u_p * lam_p) @ v_p.conj().T,
        flatten_bipartition(cluster, CUT_12_34),
        atol=1e-15,
    )
    frame = SingularFrame(
        u_full=u, v_full=v, singular_values=lam, r=4,
        bipartition=CUT_12_34, dims=psi2.dims, warnings=(),
    )
    frame_p = SingularFrame(
        u_full=u_p, v_full=v_p, singular_values=lam_p, r=4,
        bipartition=CUT_12_34, dims=cluster.dims, warnings=(),
    )
    return frame, frame_p, lam, lam_p


class TestPTildeCandidate:
    def test_assembled_block_layout(self):
        cand = PTildeCandidate(
            P=np.array([[1.0, 2.0], [3.0, 4.0]]),
            Y=np.array([[5.0], [6.0]]),
            P_bar=np.array([[7.0]]),
        )
        expected = np.array(
            [[1, 2, 5], [3, 4, 6], [0, 0, 7]], dtype=complex
        )
        assert np.array_equal(cand.assembled, expected)
        assert cand.r == 2
        assert cand.size == 3

    def test_lower_left_exactly_zero(self):
        rng = np.random.default_rng(50)
        cand = PTildeCandidate(
            P=random_complex(rng, (2, 2)),
            Y=random_complex(rng, (2, 2)),
            P_bar=random_complex(rng, (2, 2)),
        )
        assert np.array_equal(cand.assembled[2:, :2], np.zeros((2, 2)))

    def test_margin_of_singular_block(self):
        cand = PTildeCandidate(
            P=np.array([[1.0, 0.0], [0.0, 0.0]]),
            Y=np.zeros((2, 0)),
            P_bar=EMPTY,
        )
        assert cand.min_margin() == 0.0

    def test_inconsistent_y_shape_rejected(self):
        with pytest.raises(ValueError):
            PTildeCandidate(
                P=np.eye(2), Y=np.ones((3, 1)), P_bar=np.eye(1)
            )


class TestSolverConfig:
    def test_restarts_must_be_positive(self):
        with pytest.raises(ValueError):
            SolverConfig(rng_seed=0, restarts=0)

    def test_residual_tol_must_be_positive(self):
        with pytest.raises(ValueError):
            SolverConfig(rng_seed=0, residual_tol=0.0)


class TestCoupleQ:
    def test_identity_with_equal_spectra(self):
        lam = np.full(2, np.sqrt(0.5))
        assert np.array_equal(couple_q(np.eye(2), lam, lam), np.eye(2))

    def test_diagonal_ratio_rule(self):
        lam = np.array([1.0, 2.0, 3.0, 4.0])
        lam_p = np.array([2.0, 4.0, 6.0, 8.0])
        q = couple_q(np.eye(4), lam, lam_p)
        assert np.allclose(q, 2.0 * np.eye(4), atol=1e-15)

    def test_off_diagonal_weights(self):
        p = np.array([[0.0, 1.0], [1.0, 0.0]])
        q = couple_q(p, np.array([2.0, 1.0]), np.array([3.0, 1.0]))
        assert np.allclose(q, [[0.0, 0.5], [3.0, 0.0]], atol=1e-15)

    def test_accepts_diagonal_matrices(self):
        lam = np.diag([2.0, 1.0])
        assert np.array_equal(couple_q(np.eye(2), lam, lam), np.eye(2))

    def test_diagonal_commutation(self):
        lam = np.full(2, 0.5)
        p = np.diag([2.0, 2.0])
        assert np.array_equal(couple_q(p, lam, lam), p)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            couple_q(np.eye(2), np.ones(3), np.ones(2))


class TestResidual:
    def test_identity_on_identical_full_rank_frames(self):
        _, frame = triple_state_set(
            make_state("psi_abcd", (1.0, 2.0, 3.0, 4.0)), CUT_12_34
        )
        cand = full_rank_candidate(np.eye(4))
        assert residual(cand, cand, (frame, frame)) < 1e-14

    def test_identity_on_identical_deficient_frames(self):
        _, frame = triple_state_set(make_state("ghz4"), CUT_12_34)
        cand = PTildeCandidate(P=np.eye(2), Y=np.zeros((2, 2)), P_bar=np.eye(2))
        assert residual(cand, cand, (frame, frame)) < 1e-14

    def test_closed_form_cluster_coupling_certifies(self):
        frame, frame_p, lam, lam_p = cluster_pair_frames()
        p = closed_form_cluster_coupling(0.6, 0.5, 0.4, 0.3)
        cand_u = full_rank_candidate(p)
        cand_v = full_rank_candidate(couple_q(p, lam, lam_p))
        assert residual(cand_u, cand_v, (frame, frame_p)) < 1e-10

    def test_closed_form_family_free_diagonal_scales(self):
        frame, frame_p, lam, lam_p = cluster_pair_frames()
        p = closed_form_cluster_coupling(0.6, 0.5, 0.4, 0.3, p11=0.7, p22=-1.3)
        cand_u = full_rank_candidate(p)
        cand_v = full_rank_candidate(couple_q(p, lam, lam_p))
        assert residual(cand_u, cand_v, (frame, frame_p)) < 1e-10

    def test_broken_coupling_member_rejected(self):
        frame, frame_p, lam, lam_p = cluster_pair_frames()
        p = closed_form_cluster_coupling(0.6, 0.5, 0.4, 0.3, x=2.0)
        cand_u = full_rank_candidate(p)
        cand_v = full_rank_candidate(couple_q(p, lam, lam_p))
        assert residual(cand_u, cand_v, (frame, frame_p)) > 0.1

    def test_ghz_vs_w_random_candidates_stay_far(self):
        _, f_w = triple_state_set(make_state("w4"), CUT_12_34)
        _, f_ghz = triple_state_set(make_state("ghz4"), CUT_12_34)
        rng = np.random.default_rng(51)
        worst = np.inf
        for _ in range(1000):
            cand_u = PTildeCandidate(
                P=random_complex(rng, (2, 2)),
                Y=random_complex(rng, (2, 2)),
                P_bar=random_complex(rng, (2, 2)),
            )
            q = couple_q(
                cand_u.P, f_w.singular_values, f_ghz.singular_values
            )
            cand_v = PTildeCandidate(
                P=q, Y=random_complex(rng, (2, 2)), P_bar=random_complex(rng, (2, 2))
            )
            worst = min(worst, residual(cand_u, cand_v, (f_w, f_ghz)))
        assert worst > 0.05


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
            _, frame = triple_state_set(make_state(name, params), CUT_12_34)
            out = solve_ptilde(frame, frame, CONFIG)
            assert out.status is SolveStatus.FOUND, name
            assert out.residual < 1e-12, name

    def test_full_rank_orbits_solve_directly(self):
        for seed in range(30):
            state, image, _ = random_orbit_case((2, 2, 2, 2), seed, 20.0)
            _, frame = triple_state_set(state, CUT_12_34)
            _, frame_image = triple_state_set(image, CUT_12_34)
            out = solve_ptilde(frame, frame_image, CONFIG)
            assert out.status is SolveStatus.FOUND, seed
            assert out.restarts_used == 0, seed

    def test_mixed_dimension_orbits_solve_directly(self):
        for dims in [(2, 2, 3, 3), (3, 3, 2, 2)]:
            for seed in range(5):
                state, image, _ = random_orbit_case(dims, seed, 20.0)
                _, frame = triple_state_set(state, CUT_12_34)
                _, frame_image = triple_state_set(image, CUT_12_34)
                out = solve_ptilde(frame, frame_image, CONFIG)
                assert out.status is SolveStatus.FOUND, (dims, seed)
                assert out.restarts_used == 0, (dims, seed)

    def test_rank_two_orbits_solve_directly(self):
        rng = np.random.default_rng(52)
        state = make_state("ghz4")
        for seed in range(10):
            ops = [
                random_complex(rng, (2, 2)) + 1.5 * np.eye(2) for _ in range(4)
            ]
            image = apply_local_ops(state, ops)
            _, frame = triple_state_set(state, CUT_12_34)
            _, frame_image = triple_state_set(image, CUT_12_34)
            out = solve_ptilde(frame, frame_image, CONFIG)
            assert out.status is SolveStatus.FOUND, seed
            assert out.restarts_used == 0, seed

    def test_rank_one_orbits_solve_directly(self):
        rng = np.random.default_rng(53)
        amps = np.kron(random_complex(rng, (4,)), random_complex(rng, (4,)))
        state = PureState((2, 2, 2, 2), amps)
        for _ in range(5):
            ops = [
                random_complex(rng, (2, 2)) + 1.5 * np.eye(2) for _ in range(4)
            ]
            image = apply_local_ops(state, ops)
            _, frame = triple_state_set(state, CUT_12_34)
            _, frame_image = triple_state_set(image, CUT_12_34)
            out = solve_ptilde(frame, frame_image, CONFIG)
            assert out.status is SolveStatus.FOUND
            assert out.restarts_used == 0

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
                _, frame = triple_state_set(state, CUT_12_34)
                _, frame_image = triple_state_set(image, CUT_12_34)
                out = solve_ptilde(frame, frame_image, CONFIG)
                assert out.status is SolveStatus.FOUND, name
                assert out.restarts_used == 0, name

    def test_gauge_rotation_in_degenerate_block(self):
        rng = np.random.default_rng(55)
        _, frame = triple_state_set(make_state("ghz4"), CUT_12_34)
        w, _ = np.linalg.qr(random_complex(rng, (2, 2)))
        u_mod = frame.u_full.copy()
        v_mod = frame.v_full.copy()
        u_mod[:, :2] = u_mod[:, :2] @ w
        v_mod[:, :2] = v_mod[:, :2] @ w
        rotated = SingularFrame(
            u_full=u_mod,
            v_full=v_mod,
            singular_values=frame.singular_values,
            r=frame.r,
            bipartition=frame.bipartition,
            dims=frame.dims,
            warnings=(),
        )
        assert np.allclose(
            rotated.reconstruct(), frame.reconstruct(), atol=1e-12
        )
        out = solve_ptilde(rotated, frame, CONFIG)
        assert out.status is SolveStatus.FOUND
        assert out.restarts_used == 0
        assert out.residual < 1e-9

    def test_ghz_vs_w_exhausts(self):
        _, f_w = triple_state_set(make_state("w4"), CUT_12_34)
        _, f_ghz = triple_state_set(make_state("ghz4"), CUT_12_34)
        out = solve_ptilde(f_w, f_ghz, CONFIG)
        assert out.status is SolveStatus.EXHAUSTED
        assert out.restarts_used == 0
        assert out.residual > 1e-3

    def test_rank_mismatch_rejected(self):
        _, f_ghz = triple_state_set(make_state("ghz4"), CUT_12_34)
        _, f_cluster = triple_state_set(make_state("cluster1d"), CUT_12_34)
        with pytest.raises(ValueError):
            solve_ptilde(f_ghz, f_cluster, CONFIG)

    def test_deterministic_given_seed(self):
        state, image, _ = random_orbit_case((2, 2, 2, 2), 9, 20.0)
        _, frame = triple_state_set(state, CUT_12_34)
        _, frame_image = triple_state_set(image, CUT_12_34)
        out1 = solve_ptilde(frame, frame_image, CONFIG)
        out2 = solve_ptilde(frame, frame_image, CONFIG)
        assert out1.residual == out2.residual
        assert np.array_equal(
            out1.candidate[0].assembled, out2.candidate[0].assembled
        )


class TestSolvePtildeSingle:
    def test_identity_frames(self):
        _, frame = triple_state_set(make_state("ghz4"), CUT_12_34)
        out = solve_ptilde_single(
            frame.u_full, frame.u_full, frame.r, frame.left_dims, CONFIG
        )
        assert out.status is SolveStatus.FOUND
        assert out.residual < 1e-12

    def test_planted_product_map(self):
        rng = np.random.default_rng(56)
        a1 = random_complex(rng, (2, 2)) + 1.5 * np.eye(2)
        a2 = random_complex(rng, (2, 2)) + 1.5 * np.eye(2)
        u_prime, _ = np.linalg.qr(random_complex(rng, (4, 4)))
        u_full, pt_planted = np.linalg.qr(np.kron(a1, a2) @ u_prime)
        assert abs(np.linalg.norm(pt_planted[2:, :2])) < 1e-14
        out = solve_ptilde_single(u_full, u_prime, 2, (2, 2), CONFIG)
        assert out.status is SolveStatus.FOUND
        assert out.residual < 1e-9

    def test_mismatched_frames_rejected(self):
        with pytest.raises(ValueError):
            solve_ptilde_single(np.eye(4), np.eye(6), 2, (2, 2), CONFIG)


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
