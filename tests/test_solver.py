"""Unit tests for the coupling-certificate search."""

import numpy as np
import pytest

from slocceq.catalog import random_invertible_ops, random_orbit_case
from slocceq.decomposition import (
    SingularFrame,
    flatten_bipartition,
    triple_state_set,
)
from slocceq.equivalence import _complete_frame
from slocceq.solver import (
    WAVE_LANES,
    PTildeCandidate,
    SolveStatus,
    SolverConfig,
    _convert_v_candidate,
    _Engine,
    _single_residual,
    couple_q,
    residual,
    solve_ptilde,
    solve_ptilde_single,
)
from slocceq.states import Bipartition, PureState, apply_local_ops, make_state
from slocceq.tensorops import vectorize

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
        assert out.residual < 1e-9

    def test_ghz_vs_w_exhausts(self):
        _, f_w = triple_state_set(make_state("w4"), CUT_12_34)
        _, f_ghz = triple_state_set(make_state("ghz4"), CUT_12_34)
        config = SolverConfig(rng_seed=0, restarts=2, max_iterations=150)
        out = solve_ptilde(f_w, f_ghz, config)
        assert out.status is SolveStatus.EXHAUSTED
        assert out.restarts_used == 2
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


def two_sided_engine(frame, frame_prime, config):
    """The engine solve_ptilde builds for a frame pair."""
    lam, lam_p = frame.singular_values, frame_prime.singular_values
    return _Engine(
        u=frame.u_full,
        u_prime=frame_prime.u_full,
        u_split=frame.left_dims,
        v=frame.v_full,
        v_prime=frame_prime.v_full,
        v_split=frame.right_dims,
        weights=lam_p[np.newaxis, :] / lam[:, np.newaxis],
        r=frame.r,
        config=config,
    )


def single_sided_engine(u_full, u_prime_full, r, split, config):
    """The engine solve_ptilde_single builds for a frame pair."""
    return _Engine(
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


def orbit_frames(dims, seed):
    state, image, _ = random_orbit_case(dims, seed, 20.0)
    return triple_state_set(image, CUT_12_34)[1], triple_state_set(state, CUT_12_34)[1]


def w4_orbit_frames(seed):
    w4 = make_state("w4")
    image = apply_local_ops(w4, random_invertible_ops((2, 2, 2, 2), seed, 5.0))
    return triple_state_set(image, CUT_12_34)[1], triple_state_set(w4, CUT_12_34)[1]


def w3_orbit_frames(seed):
    """Single-sided frames of a planted W3 orbit, as check_tripartite_equiv builds them."""
    w3 = make_state("w3")
    image = apply_local_ops(w3, random_invertible_ops((2, 2, 2, 2), seed).ops[:3])
    u_full = _complete_frame(np.column_stack([vectorize(m) for m in w3.tensor()]))
    u_prime = _complete_frame(np.column_stack([vectorize(m) for m in image.tensor()]))
    return u_full, u_prime


def engine_cases(config):
    yield "w4-2222", two_sided_engine(*w4_orbit_frames(3), config)
    yield "generic-2323", two_sided_engine(*orbit_frames((2, 3, 2, 3), 4), config)
    yield "w3-single", single_sided_engine(*w3_orbit_frames(1), 2, (2, 2), config)


def flat(mats):
    return np.concatenate([m.reshape(-1) for m in mats])


class TestLockstepEngine:
    def test_projector_matches_project_then_forward(self):
        rng = np.random.default_rng(57)
        for name, engine in engine_cases(CONFIG):
            for _ in range(3):
                targets = [random_complex(rng, shape) for shape in engine._side_shapes]
                expected = flat(engine._forward(*engine._project_blocks(targets)))
                got = engine.projector @ flat(targets)
                assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected), name

    def test_wave_lanes_match_lanes_run_alone(self):
        config = SolverConfig(rng_seed=5, restarts=WAVE_LANES, max_iterations=200)
        for name, engine in engine_cases(config):
            wave = list(engine.run_wave(range(WAVE_LANES)))
            assert [lane.index for lane in wave] == list(range(WAVE_LANES)), name
            for lane in wave:
                (alone,) = engine.run_wave([lane.index])
                assert alone.admissible == lane.admissible, (name, lane.index)
                np.testing.assert_allclose(lane.residual, alone.residual, rtol=1e-10)
                for got, want in zip(lane.blocks, alone.blocks):
                    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-14)

    def test_restarts_used_is_first_passing_restart(self):
        u_full, u_prime = w3_orbit_frames(1)
        config = SolverConfig(rng_seed=0, restarts=2 * WAVE_LANES)
        engine = single_sided_engine(u_full, u_prime, 2, (2, 2), config)
        passes = []
        for start in range(0, config.restarts, WAVE_LANES):
            for lane in engine.run_wave(range(start, start + WAVE_LANES)):
                cand = PTildeCandidate(*lane.blocks[:3])
                gap = _single_residual(cand, u_full, u_prime, (2, 2))
                passes.append(lane.admissible and gap <= config.residual_tol)
        first = passes.index(True)
        assert first >= 1
        out = solve_ptilde_single(u_full, u_prime, 2, (2, 2), config)
        assert out.status is SolveStatus.FOUND
        assert out.restarts_used == first + 1

    def test_exhausted_reports_the_whole_budget(self):
        _, f_w = triple_state_set(make_state("w4"), CUT_12_34)
        _, f_ghz = triple_state_set(make_state("ghz4"), CUT_12_34)
        config = SolverConfig(rng_seed=0, restarts=WAVE_LANES + 1, max_iterations=150)
        engine = two_sided_engine(f_w, f_ghz, config)
        lanes = list(engine.run_wave(range(config.restarts)))
        for lane in lanes:
            if lane.admissible:
                p, y, pb, z, sb = lane.blocks
                cand_v = _convert_v_candidate(
                    p, z, sb, f_w.singular_values, f_ghz.singular_values
                )
                cand_u = PTildeCandidate(P=p, Y=y, P_bar=pb)
                assert residual(cand_u, cand_v, (f_w, f_ghz)) > config.residual_tol
        out = solve_ptilde(f_w, f_ghz, config)
        assert out.status is SolveStatus.EXHAUSTED
        assert out.restarts_used == config.restarts
