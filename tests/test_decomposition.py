"""Unit tests for bipartition flattening and the triple-state decomposition."""

import numpy as np
import pytest

from slocceq.states import (
    Bipartition,
    PureState,
    STANDARD_CUTS,
    apply_local_ops,
    make_state,
)
from slocceq.catalog import random_orbit_case
from slocceq.decomposition import StateProfile, flatten_bipartition, triple_state_set
from slocceq.tensorops import sigma_rank, svd

CUT_12_34 = Bipartition((1, 2), (3, 4))
INV_SQRT2 = np.sqrt(0.5)

FOUR_PARTY_CATALOG = [
    make_state("ghz4"),
    make_state("w4"),
    make_state("cluster1d"),
    make_state("psi_abcd", (1.0, 2.0, 3.0, 4.0)),
    make_state("psi2_abcd", (0.6, 0.5, 0.4, 0.3)),
]


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def span_gap(slices_a, slices_b):
    """Sine of the largest principal angle between two slice spans."""
    qa, _ = np.linalg.qr(np.column_stack([s.reshape(-1) for s in slices_a]))
    qb, _ = np.linalg.qr(np.column_stack([s.reshape(-1) for s in slices_b]))
    overlap = np.linalg.svd(qa.conj().T @ qb, compute_uv=False)
    return float(np.sqrt(max(0.0, 1.0 - np.min(overlap) ** 2)))


class TestFlattenBipartition:
    def test_ghz4_placement(self):
        m = flatten_bipartition(make_state("ghz4"), CUT_12_34)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = INV_SQRT2
        expected[3, 3] = INV_SQRT2
        assert np.array_equal(m, expected)

    def test_w4_placement(self):
        m = flatten_bipartition(make_state("w4"), CUT_12_34)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 1] = expected[0, 2] = expected[1, 0] = expected[2, 0] = 0.5
        assert np.array_equal(m, expected)

    def test_psi_abcd_displayed_matrix(self):
        a, b, c, d = 1.0, 2.0, 3.0, 4.0
        m = flatten_bipartition(make_state("psi_abcd", (a, b, c, d)), CUT_12_34)
        expected = 0.5 * np.array(
            [
                [a + d, 0, 0, a - d],
                [0, b + c, b - c, 0],
                [0, b - c, b + c, 0],
                [a - d, 0, 0, a + d],
            ],
            dtype=complex,
        )
        assert np.array_equal(m, expected)

    def test_cut_reorders_parties(self):
        rng = np.random.default_rng(30)
        state = PureState((2, 2, 2, 2), random_complex(rng, (16,)))
        m = flatten_bipartition(state, Bipartition((1, 3), (2, 4)))
        t = state.tensor()
        assert m[0b10, 0b01] == t[1, 0, 0, 1]

    def test_rejects_three_party_state(self):
        with pytest.raises(ValueError):
            flatten_bipartition(make_state("ghz3"), CUT_12_34)


class TestTripleStateSet:
    def test_ghz4_rank_and_spectrum(self):
        triple = triple_state_set(make_state("ghz4"), CUT_12_34)
        assert triple.r == 2
        assert np.all(np.abs(triple.singular_values - INV_SQRT2) < 1e-12)

    def test_ghz4_u_slice_span(self):
        triple = triple_state_set(make_state("ghz4"), CUT_12_34)
        corners = [
            np.array([[1, 0], [0, 0]], dtype=complex),
            np.array([[0, 0], [0, 1]], dtype=complex),
        ]
        assert span_gap(triple.psi_u.slices, corners) < 1e-10

    def test_rank_zero_cutoff_raises(self):
        # No singular value exceeds twice the largest, so the rank is 0.
        with pytest.raises(ValueError, match="rank 0"):
            triple_state_set(make_state("ghz4"), CUT_12_34, rtol=2)

    def test_cluster1d_rank_and_spectrum(self):
        triple = triple_state_set(make_state("cluster1d"), CUT_12_34)
        assert triple.r == 4
        assert np.all(np.abs(triple.singular_values - 0.5) < 1e-12)

    def test_psi2_spectrum_is_parameter_list(self):
        params = (0.6, 0.5, 0.4, 0.3)
        triple = triple_state_set(make_state("psi2_abcd", params), CUT_12_34)
        assert np.all(np.abs(triple.singular_values - np.array(params)) < 1e-12)

    def test_psi_abcd_spectrum_sorted_parameters(self):
        triple = triple_state_set(
            make_state("psi_abcd", (1.0, 2.0, 3.0, 4.0)), CUT_12_34
        )
        assert np.all(np.abs(triple.singular_values - [4.0, 3.0, 2.0, 1.0]) < 1e-12)

    def test_reconstruction_all_catalog_all_cuts(self):
        for state in FOUR_PARTY_CATALOG:
            for cut in STANDARD_CUTS:
                triple = triple_state_set(state, cut)
                m = flatten_bipartition(state, cut)
                assert (
                    np.linalg.norm(triple.reconstruct() - m)
                    < 1e-10 * np.linalg.norm(m)
                )

    def test_norm_squared_equals_spectrum_energy(self):
        for state in FOUR_PARTY_CATALOG:
            triple = triple_state_set(state, CUT_12_34)
            energy = float(np.sum(triple.singular_values**2))
            assert abs(energy - state.norm() ** 2) < 1e-12 * state.norm() ** 2

    def test_slice_counts_match_rank(self):
        for state in FOUR_PARTY_CATALOG:
            triple = triple_state_set(state, CUT_12_34)
            assert triple.psi_u.r_dim == triple.r
            assert triple.psi_v.r_dim == triple.r
            assert triple.singular_values.shape == (triple.r,)

    def test_rank_is_orbit_invariant(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            state = PureState((2, 2, 2, 2), random_complex(rng, (16,)))
            ops = [
                random_complex(rng, (2, 2)) + 2.0 * np.eye(2) for _ in range(4)
            ]
            image = apply_local_ops(state, ops)
            for cut in STANDARD_CUTS:
                triple = triple_state_set(state, cut)
                triple_image = triple_state_set(image, cut)
                assert triple.r == triple_image.r

    def test_borderline_rank_warning(self):
        amps = np.zeros(16, dtype=complex)
        amps[0b0000] = 1.0
        amps[0b0101] = 5e-9
        triple = triple_state_set(PureState((2, 2, 2, 2), amps), CUT_12_34)
        assert triple.r == 2
        assert triple.warnings
        assert "borderline" in triple.warnings[0]

    def test_mixed_dimensions(self):
        rng = np.random.default_rng(32)
        state = PureState((2, 2, 3, 3), random_complex(rng, (36,)))
        triple = triple_state_set(state, CUT_12_34)
        assert triple.r == 4
        assert triple.psi_u.slice_shape == (2, 2)
        assert triple.psi_v.slice_shape == (3, 3)
        m = flatten_bipartition(state, CUT_12_34)
        assert np.linalg.norm(triple.reconstruct() - m) < 1e-10 * np.linalg.norm(m)

    def test_factors_fold_the_frame_columns(self):
        """Each slice is bit for bit its frame column, reshaped row-major."""
        orbits = [
            random_orbit_case(dims, seed)[1]
            for dims in ((2, 2, 3, 3), (2, 3, 2, 3))
            for seed in range(5)
        ]
        for state in FOUR_PARTY_CATALOG + orbits:
            for cut in STANDARD_CUTS:
                triple = triple_state_set(state, cut)
                for factor, frame, dims in (
                    (triple.psi_u, triple.u_full, triple.left_dims),
                    (triple.psi_v, triple.v_full, triple.right_dims),
                ):
                    assert factor.r_dim == triple.r
                    for i, piece in enumerate(factor.slices):
                        assert np.array_equal(piece, frame[:, i].reshape(dims))

    @pytest.mark.parametrize("dims", [(2, 3, 2, 3), (2, 2, 3, 3), (3, 2, 2, 3), (2, 2, 2, 2)])
    def test_factors_rebuild_the_state(self, dims):
        """``sum_k sv_k psi_u[k] (x) conj(psi_v[k])`` is the state, in the cut's party order."""
        for seed in range(3):
            state = random_orbit_case(dims, seed)[0]
            for cut in STANDARD_CUTS:
                triple = triple_state_set(state, cut)
                rebuilt = np.einsum(
                    "k,kab,kcd->abcd",
                    triple.singular_values,
                    triple.psi_u.stacked(),
                    triple.psi_v.stacked().conj(),
                )
                order = [p - 1 for p in cut.left + cut.right]
                expected = state.tensor().transpose(order)
                gap = np.max(np.abs(rebuilt - expected))
                assert gap <= 1e-12, (seed, cut.label, gap)


class TestComplementaryState:
    """The frame columns past ``r`` span the complement of the factor's range."""

    def test_ghz4_u_complement_span(self):
        triple = triple_state_set(make_state("ghz4"), CUT_12_34)
        complement = triple.u_full[:, triple.r :]
        assert complement.shape[1] == 2
        off_corners = [
            np.array([[0, 0], [1, 0]], dtype=complex),
            np.array([[0, 1], [0, 0]], dtype=complex),
        ]
        slices = [col.reshape(triple.left_dims) for col in complement.T]
        assert span_gap(slices, off_corners) < 1e-10

    def test_full_rank_has_empty_complement(self):
        triple = triple_state_set(make_state("cluster1d"), CUT_12_34)
        assert triple.u_full[:, triple.r :].shape == (4, 0)
        assert triple.v_full[:, triple.r :].shape == (4, 0)

    def test_complement_orthonormal_to_range(self):
        rng = np.random.default_rng(33)
        left = random_complex(rng, (16, 2))
        right = random_complex(rng, (4, 2))
        amps = (left @ right.T).reshape(-1)
        state = PureState((4, 4, 2, 2), amps)
        triple = triple_state_set(state, CUT_12_34)
        assert triple.r == 2
        vecs = triple.u_full[:, triple.r :]
        assert vecs.shape == (16, 14)
        gram = vecs.conj().T @ vecs
        assert np.linalg.norm(gram - np.eye(vecs.shape[1])) < 1e-12
        overlap = triple.u_full[:, : triple.r].conj().T @ vecs
        assert np.linalg.norm(overlap) < 1e-12
        # The complement annihilates the flattening from the left.
        m = flatten_bipartition(state, CUT_12_34)
        assert np.linalg.norm(vecs.conj().T @ m) < 1e-12 * np.linalg.norm(m)


class TestOneSpectrum:
    """A profile's rank and decomposition at a cut read one values-only SVD."""

    @pytest.mark.parametrize("dims", [(2, 2, 2, 2), (2, 2, 3, 3), (2, 3, 2, 3)])
    def test_decomposition_reads_the_ranked_spectrum(self, dims, monkeypatch):
        spectra = []
        lapack_svd = np.linalg.svd

        def recorded(a, *args, **kwargs):
            out = lapack_svd(a, *args, **kwargs)
            if kwargs.get("compute_uv") is False:
                spectra.append(out)
            return out

        monkeypatch.setattr(np.linalg, "svd", recorded)
        for seed in range(5):
            for state in random_orbit_case(dims, seed)[:2]:
                profile = StateProfile((state,))
                for cut in STANDARD_CUTS:
                    spectra.clear()
                    (r,) = profile.ranks(cut)
                    (stack,) = spectra
                    (triple,) = profile.decompositions(cut)
                    assert len(spectra) == 1
                    assert triple.r == r
                    # A lone profile's values-only SVD is a stack of one spectrum.
                    (sigma,) = stack
                    assert np.array_equal(triple.singular_values, sigma[:r])

    @pytest.mark.parametrize("dims", [(2, 2, 2, 2), (2, 2, 3, 3), (2, 3, 2, 3)])
    def test_paired_profiles_equal_lone_profiles(self, dims):
        cuts = STANDARD_CUTS + (Bipartition((2, 1), (3, 4)),)
        for seed in range(3):
            s1, s2, _ = random_orbit_case(dims, seed)
            s3 = random_orbit_case(dims, seed + 3)[0]
            for states in ((s1, s2), (s1, s2, s3)):
                profile = StateProfile(states)
                assert profile.states == states
                for i, state in enumerate(states):
                    lone = StateProfile((state,))
                    for party in (1, 2, 3, 4):
                        assert profile.marginal_ranks(party)[i] == lone.marginal_ranks(party)[0]
                    for cut in cuts:
                        assert profile.ranks(cut)[i] == lone.ranks(cut)[0]
                        got, want = profile.decompositions(cut)[i], lone.decompositions(cut)[0]
                        assert got.r == want.r
                        assert got.warnings == want.warnings
                        for name in ("flattening", "singular_values", "u_full", "v_full"):
                            a, b = getattr(got, name), getattr(want, name)
                            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name

    def test_pair_takes_one_svd_for_both_states(self, monkeypatch):
        s1, s2, _ = random_orbit_case((2, 2, 3, 3), 0)
        calls = []
        lapack_svd = np.linalg.svd
        monkeypatch.setattr(
            np.linalg, "svd", lambda a, *args, **kw: calls.append(a.shape) or lapack_svd(a, *args, **kw)
        )
        profile = StateProfile((s1, s2))
        assert profile.ranks(CUT_12_34) == (4, 4)
        assert profile.marginal_ranks(3) == (3, 3)
        assert calls == [(2, 4, 9), (2, 3, 12)]

    def test_frames_are_computed_once(self):
        triple = triple_state_set(random_orbit_case((2, 2, 3, 3), 0)[0], CUT_12_34)
        assert triple.u_full is triple.u_full
        assert triple.v_full is triple.v_full

    def test_frames_are_those_of_the_gauged_svd(self):
        state = random_orbit_case((2, 2, 3, 3), 1)[1]
        for cut in STANDARD_CUTS:
            triple = triple_state_set(state, cut)
            u, _, v = svd(flatten_bipartition(state, cut))
            assert np.array_equal(triple.u_full, u)
            assert np.array_equal(triple.v_full, v)

    def test_spectrum_matches_the_full_svd(self):
        """Values-only and full SVD spectra agree to roundoff, so ranks agree too."""
        for dims in [(2, 2, 2, 2), (2, 2, 3, 3), (2, 3, 2, 3)]:
            for seed in range(20):
                state = random_orbit_case(dims, seed)[1]
                for cut in STANDARD_CUTS:
                    triple = triple_state_set(state, cut)
                    full = svd(flatten_bipartition(state, cut))[1]
                    assert triple.r == sigma_rank(full)
                    gap = np.max(np.abs(triple.singular_values - full[: triple.r]))
                    assert gap <= 1e-14 * full[0]

    def test_flattening_is_read_only(self):
        triple = triple_state_set(make_state("cluster1d"), CUT_12_34)
        assert np.array_equal(triple.flattening, flatten_bipartition(make_state("cluster1d"), CUT_12_34))
        with pytest.raises(ValueError):
            triple.flattening[0, 0] = 1.0
        with pytest.raises(ValueError):
            triple.u_full[0, 0] = 1.0

    def test_set_is_a_read_only_view_of_the_stacked_svd(self):
        profile = StateProfile(random_orbit_case((2, 2, 3, 3), 0)[:2])
        ms, sigmas, _ = profile._spectrum(CUT_12_34)
        for member, triple in enumerate(profile.decompositions(CUT_12_34)):
            assert np.shares_memory(triple.flattening, ms[member])
            assert np.shares_memory(triple.singular_values, sigmas[member])
            assert not triple.flattening.flags.writeable
            assert not triple.singular_values.flags.writeable
