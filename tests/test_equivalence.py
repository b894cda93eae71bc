"""Unit tests for operator recovery, verification, and the full decision."""

import numpy as np
import pytest

from slocceq import decomposition, equivalence
from slocceq.catalog import random_invertible_ops, random_orbit_case
from slocceq.decomposition import SingularFrame, StateProfile, triple_state_set
from slocceq.equivalence import (
    EquivalenceStatus,
    ProbeStatus,
    RecoveryError,
    check_fourpartite_equiv,
    check_fourpartite_equiv_all_cuts,
    check_tripartite_equiv,
    rank_preservation_probe,
    recover_local_operators,
    verify_equivalence,
)
from slocceq.invariants import invariant_screen
from slocceq.solver import (
    PTildeCandidate,
    SolveOutcome,
    SolveStatus,
    SolverConfig,
    solve_ptilde,
)
from slocceq.states import (
    Bipartition,
    PureState,
    STANDARD_CUTS,
    TripartiteState,
    apply_local_ops,
    make_state,
)
from slocceq.tensorops import commutation_matrix, fold, numerical_rank

CUT_12_34 = Bipartition((1, 2), (3, 4))
CONFIG = SolverConfig(rng_seed=0)
EMPTY = np.zeros((0, 0), dtype=complex)


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def proportionality(a, b):
    """Least-squares complex ratio c minimizing |a - c b| and its residual."""
    va, vb = np.ravel(a), np.ravel(b)
    c = np.vdot(vb, va) / np.vdot(vb, vb)
    resid = np.linalg.norm(va - c * vb) / np.linalg.norm(va)
    return c, resid


def frame_from_unitary(u, v, sv, dims):
    return SingularFrame(
        u_full=np.asarray(u, dtype=complex),
        v_full=np.asarray(v, dtype=complex),
        singular_values=np.asarray(sv, dtype=float),
        r=len(sv),
        bipartition=CUT_12_34,
        dims=dims,
        warnings=(),
    )


def slices_of(state):
    """Qubit-slice view of a three-party state along its first party."""
    t = state.tensor()
    return TripartiteState(r_dim=state.dims[0], slices=tuple(t[i] for i in range(state.dims[0])))


class TestVerifyEquivalence:
    def test_identity_operators(self):
        s = make_state("ghz4")
        ok, scalar, resid = verify_equivalence(s, s, [np.eye(2)] * 4)
        assert ok
        assert abs(scalar - 1.0) < 1e-14
        assert resid < 1e-14

    def test_scalar_refit_absorbs_operator_scales(self):
        s = make_state("cluster1d")
        ops = [2.0 * np.eye(2), 0.5 * np.eye(2), 3.0 * np.eye(2), np.eye(2)]
        ok, scalar, resid = verify_equivalence(s, s, ops)
        assert ok
        assert abs(scalar - 1.0 / 3.0) < 1e-12
        assert resid < 1e-14

    def test_planted_operators(self):
        state, image, ops = random_orbit_case((2, 2, 2, 2), 7, 20.0)
        ok, scalar, resid = verify_equivalence(image, state, ops)
        assert ok
        assert abs(scalar - 1.0) < 1e-10
        assert resid < 1e-12

    def test_dims_mismatch_fails_cleanly(self):
        ok, scalar, resid = verify_equivalence(
            make_state("ghz4"), make_state("ghz3"), [np.eye(2)] * 4
        )
        assert (ok, scalar, resid) == (False, 0.0, 1.0)

    def test_annihilating_operator_fails_cleanly(self):
        s = make_state("ghz4")
        ops = [np.zeros((2, 2)), np.eye(2), np.eye(2), np.eye(2)]
        ok, _, resid = verify_equivalence(s, s, ops)
        assert not ok
        assert resid == 1.0

    def test_wrong_map_rejected(self):
        rng = np.random.default_rng(60)
        ops = [random_complex(rng, (2, 2)) for _ in range(4)]
        ok, _, resid = verify_equivalence(make_state("ghz4"), make_state("w4"), ops)
        assert not ok
        assert resid > 1e-3


class TestRecoverLocalOperators:
    def test_plant_and_recover_per_party(self):
        # Recovered operators may differ from the planted ones by a
        # discrete local symmetry of the source state, so compare modulo
        # that: the per-party quotient must stabilize the source.
        for seed in range(10):
            state, image, planted = random_orbit_case((2, 2, 2, 2), seed, 10.0)
            _, frame = triple_state_set(state, CUT_12_34)
            _, frame_img = triple_state_set(image, CUT_12_34)
            outcome = solve_ptilde(frame, frame_img, CONFIG)
            ops, diag = recover_local_operators((frame, frame_img), outcome)
            ok, _, resid = verify_equivalence(image, state, ops)
            assert ok and resid < 1e-10, seed
            quotient = [
                np.linalg.inv(plant) @ rec
                for rec, plant in zip(ops.ops, planted.ops)
            ]
            fixed = apply_local_ops(state, quotient)
            _, prop_resid = proportionality(fixed.amps, state.amps)
            assert prop_resid < 1e-8, seed
            assert diag["row_pair_factor_gap"] < 1e-8

    def test_recovered_gauge(self):
        state, image, _ = random_orbit_case((2, 2, 2, 2), 11, 10.0)
        _, frame = triple_state_set(state, CUT_12_34)
        _, frame_img = triple_state_set(image, CUT_12_34)
        ops, _ = recover_local_operators(
            (frame, frame_img), solve_ptilde(frame, frame_img, CONFIG)
        )
        for mat in ops.ops[:3]:
            assert abs(np.linalg.norm(mat) - 1.0) < 1e-12
            lead = mat.reshape(-1)[np.argmax(np.abs(mat.reshape(-1)))]
            assert abs(lead.imag) < 1e-12 and lead.real > 0

    def test_mixed_dimensions(self):
        state, image, planted = random_orbit_case((2, 2, 3, 3), 3, 10.0)
        _, frame = triple_state_set(state, CUT_12_34)
        _, frame_img = triple_state_set(image, CUT_12_34)
        ops, _ = recover_local_operators(
            (frame, frame_img), solve_ptilde(frame, frame_img, CONFIG)
        )
        assert tuple(m.shape[0] for m in ops.ops) == (2, 2, 3, 3)
        quotient = [
            np.linalg.inv(plant) @ rec
            for rec, plant in zip(ops.ops, planted.ops)
        ]
        fixed = apply_local_ops(state, quotient)
        _, prop_resid = proportionality(fixed.amps, state.amps)
        assert prop_resid < 1e-8

    def test_outcome_without_candidate_rejected(self):
        _, frame = triple_state_set(make_state("ghz4"), CUT_12_34)
        empty_outcome = SolveOutcome(
            status=SolveStatus.EXHAUSTED,
            candidate=None,
            residual=1.0,
            restarts_used=1,
        )
        with pytest.raises(RecoveryError):
            recover_local_operators((frame, frame), empty_outcome)

    def test_non_kron_candidate_rejected(self):
        swap = commutation_matrix(2, 2).astype(complex)
        frame = frame_from_unitary(np.eye(4), np.eye(4), [4.0, 3.0, 2.0, 1.0], (2, 2, 2, 2))
        cand = PTildeCandidate(P=swap, Y=np.zeros((4, 0)), P_bar=EMPTY)
        good = PTildeCandidate(P=np.eye(4), Y=np.zeros((4, 0)), P_bar=EMPTY)
        with pytest.raises(RecoveryError) as info:
            recover_local_operators((frame, frame), [cand, good])
        assert info.value.second_singular_value > 0.1

    def test_swapped_pair_flagged(self):
        rng = np.random.default_rng(61)
        swap = commutation_matrix(2, 2).astype(complex)
        a3 = random_complex(rng, (2, 2)) + 1.5 * np.eye(2)
        a4 = random_complex(rng, (2, 2)) + 1.5 * np.eye(2)
        frame = frame_from_unitary(np.eye(4), np.eye(4), [4.0, 3.0, 2.0, 1.0], (2, 2, 2, 2))
        good = PTildeCandidate(P=np.eye(4), Y=np.zeros((4, 0)), P_bar=EMPTY)
        q = PTildeCandidate(
            P=np.linalg.inv(np.kron(a3, a4) @ swap), Y=np.zeros((4, 0)), P_bar=EMPTY
        )
        with pytest.raises(RecoveryError) as info:
            recover_local_operators((frame, frame), [good, q])
        assert info.value.swapped_pair

    def test_mismatched_cuts_rejected(self):
        s = make_state("ghz4")
        _, f1 = triple_state_set(s, CUT_12_34)
        _, f2 = triple_state_set(s, Bipartition((1, 3), (2, 4)))
        with pytest.raises(ValueError):
            recover_local_operators((f1, f2), [None, None])


class TestCheckFourpartite:
    def test_ghz_vs_w_inequivalent(self):
        verdict = check_fourpartite_equiv(
            make_state("ghz4"), make_state("w4"), CUT_12_34, CONFIG
        )
        assert verdict.status is EquivalenceStatus.INEQUIVALENT
        assert verdict.proof is not None
        assert verdict.proof.invariant == "tripartite-class"
        assert verdict.certificate is None

    def test_parameter_family_proportional(self):
        s1 = make_state("psi_abcd", (1.0, 2.0, 3.0, 4.0))
        s2 = make_state("psi_abcd", (2.0, 4.0, 6.0, 8.0))
        verdict = check_fourpartite_equiv(s1, s2, CUT_12_34, CONFIG)
        assert verdict.status is EquivalenceStatus.EQUIVALENT
        cert = verdict.certificate
        assert cert.residual < 1e-8
        assert cert.cut == CUT_12_34
        ok, _, resid = verify_equivalence(s1, s2, cert.ops)
        assert ok and resid < 1e-8

    def test_parameter_family_sign_flip(self):
        s1 = make_state("psi_abcd", (1.0, 2.0, 3.0, 4.0))
        s2 = make_state("psi_abcd", (1.0, 2.0, -3.0, -4.0))
        verdict = check_fourpartite_equiv(s1, s2, CUT_12_34, CONFIG)
        assert verdict.status is EquivalenceStatus.EQUIVALENT
        assert verdict.certificate.residual < 1e-8

    def test_cluster_pair(self):
        verdict = check_fourpartite_equiv(
            make_state("cluster1d"),
            make_state("psi2_abcd", (0.6, 0.5, 0.4, 0.3)),
            CUT_12_34,
            CONFIG,
        )
        assert verdict.status is EquivalenceStatus.EQUIVALENT
        assert verdict.certificate.residual < 1e-8

    def test_self_equivalence(self):
        for name, params in [("ghz4", ()), ("cluster1d", ())]:
            s = make_state(name, params)
            verdict = check_fourpartite_equiv(s, s, CUT_12_34, CONFIG)
            assert verdict.status is EquivalenceStatus.EQUIVALENT, name

    def test_certificate_direction(self):
        state, image, _ = random_orbit_case((2, 2, 2, 2), 21, 10.0)
        verdict = check_fourpartite_equiv(image, state, CUT_12_34, CONFIG)
        assert verdict.status is EquivalenceStatus.EQUIVALENT
        cert = verdict.certificate
        mapped = apply_local_ops(state, cert.ops)
        assert np.linalg.norm(cert.scalar * mapped.amps - image.amps) < 1e-8

    def test_w_orbit_is_undecided_not_inequivalent(self):
        w4 = make_state("w4")
        image = apply_local_ops(w4, random_invertible_ops((2, 2, 2, 2), 3, 5.0))
        config = SolverConfig(rng_seed=0, restarts=4, max_iterations=200)
        verdict = check_fourpartite_equiv(image, w4, CUT_12_34, config)
        assert verdict.status is EquivalenceStatus.UNDECIDED
        assert verdict.diagnostics["stage"] == "coupling_search"
        assert verdict.proof is None and verdict.certificate is None

    def test_rank_mismatch_is_inequivalent(self):
        rng = np.random.default_rng(62)
        amps = np.kron(random_complex(rng, (4,)), random_complex(rng, (4,)))
        product = PureState((2, 2, 2, 2), amps)
        verdict = check_fourpartite_equiv(
            make_state("ghz4"), product, CUT_12_34, CONFIG
        )
        assert verdict.status is EquivalenceStatus.INEQUIVALENT
        assert verdict.proof.invariant == "bipartition-rank"

    def test_party_count_guard(self):
        with pytest.raises(ValueError):
            check_fourpartite_equiv(
                make_state("ghz3"), make_state("w3"), CUT_12_34, CONFIG
            )

    def test_dims_guard(self):
        state, _, _ = random_orbit_case((2, 2, 3, 3), 0, 10.0)
        with pytest.raises(ValueError):
            check_fourpartite_equiv(make_state("ghz4"), state, CUT_12_34, CONFIG)


class TestAllCuts:
    def test_orbit_pair_equivalent_at_every_cut(self):
        state, image, _ = random_orbit_case((2, 2, 2, 2), 5, 10.0)
        for cut in STANDARD_CUTS:
            verdict = check_fourpartite_equiv(image, state, cut, CONFIG)
            assert verdict.status is EquivalenceStatus.EQUIVALENT, cut.label
            assert verdict.certificate.cut == cut
        merged = check_fourpartite_equiv_all_cuts(image, state, CONFIG)
        assert merged.status is EquivalenceStatus.EQUIVALENT

    def test_screen_decides_before_search(self):
        verdict = check_fourpartite_equiv_all_cuts(
            make_state("ghz4"), make_state("w4"), CONFIG
        )
        assert verdict.status is EquivalenceStatus.INEQUIVALENT
        assert verdict.diagnostics["stage"] == "invariant_screen"


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` so every call is counted; returns the count box."""
    calls = [0]
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestOneDecompositionPerState:
    def test_single_cut_orbit_check_decomposes_each_state_once(self, monkeypatch):
        state, image, _ = random_orbit_case((2, 2, 2, 2), 7, 10.0)
        calls = count_calls(monkeypatch, decomposition, "triple_state_set")
        verdict = check_fourpartite_equiv(image, state, CUT_12_34, CONFIG)
        assert verdict.status is EquivalenceStatus.EQUIVALENT
        assert calls[0] == 2

    def test_rank_four_screen_decomposes_nothing(self, monkeypatch):
        state, image, _ = random_orbit_case((2, 2, 2, 2), 8, 10.0)
        calls = count_calls(monkeypatch, decomposition, "triple_state_set")
        p1, p2 = StateProfile(image), StateProfile(state)
        assert p1.rank(CUT_12_34) == 4
        assert invariant_screen(p1, p2, CUT_12_34) is None
        assert calls[0] == 0

    def test_all_cuts_class_proof_decomposes_each_state_once(self, monkeypatch):
        calls = count_calls(monkeypatch, decomposition, "triple_state_set")
        verdict = check_fourpartite_equiv_all_cuts(
            make_state("ghz4"), make_state("w4"), CONFIG
        )
        assert verdict.proof.invariant == "tripartite-class"
        assert calls[0] == 2

    def test_all_cuts_undecided_screens_once_per_cut(self, monkeypatch):
        s1 = random_orbit_case((2, 2, 2, 3), 1)[0]
        s2 = random_orbit_case((2, 2, 2, 3), 2)[0]
        screens = count_calls(monkeypatch, equivalence, "invariant_screen")
        verdict = check_fourpartite_equiv_all_cuts(
            s1, s2, SolverConfig(rng_seed=0, restarts=1)
        )
        assert verdict.status is EquivalenceStatus.UNDECIDED
        assert verdict.diagnostics["stage"] == "all_cuts"
        per_cut = verdict.diagnostics["per_cut"]
        assert list(per_cut) == [cut.label for cut in STANDARD_CUTS]
        for label, diagnostics in per_cut.items():
            assert diagnostics["cut"] == label
            assert diagnostics["stage"] in (
                "coupling_search",
                "operator_recovery",
                "verification",
            )
        assert screens[0] == 3


class TestCheckTripartite:
    def test_ghz_vs_w_inequivalent(self):
        verdict = check_tripartite_equiv(
            slices_of(make_state("ghz3")), slices_of(make_state("w3")), CONFIG
        )
        assert verdict.status is EquivalenceStatus.INEQUIVALENT
        assert verdict.proof.invariant == "tripartite-class"
        assert {verdict.proof.value_a, verdict.proof.value_b} == {
            "GHZ_CLASS",
            "W_CLASS",
        }

    def test_self_equivalence_identity_operators(self):
        t = slices_of(make_state("ghz3"))
        verdict = check_tripartite_equiv(t, t, CONFIG)
        assert verdict.status is EquivalenceStatus.EQUIVALENT
        cert = verdict.certificate
        assert cert.cut is None
        a_first, a_row, a_col = cert.ops
        for mat in (a_first, a_row, a_col):
            _, resid = proportionality(mat, np.eye(2))
            assert resid < 1e-9

    def test_planted_tripartite_orbit(self):
        rng = np.random.default_rng(63)
        t2 = slices_of(make_state("ghz3"))
        a_first = random_complex(rng, (2, 2)) + 1.5 * np.eye(2)
        a_row = random_complex(rng, (2, 2)) + 1.5 * np.eye(2)
        a_col = random_complex(rng, (2, 2)) + 1.5 * np.eye(2)
        t1 = TripartiteState(
            r_dim=2,
            slices=tuple(
                sum(
                    a_first[i, j] * (a_row @ t2.slices[j] @ a_col.T)
                    for j in range(2)
                )
                for i in range(2)
            ),
        )
        verdict = check_tripartite_equiv(t1, t2, CONFIG)
        assert verdict.status is EquivalenceStatus.EQUIVALENT
        cert = verdict.certificate
        f, r, c = cert.ops
        for mat in (f, r):
            assert abs(np.linalg.norm(mat) - 1.0) < 1e-12
            lead = mat.reshape(-1)[np.argmax(np.abs(mat.reshape(-1)))]
            assert abs(lead.imag) < 1e-12 and lead.real > 0
        for i in range(2):
            mapped = sum(
                f[i, j] * (r @ t2.slices[j] @ c.T) for j in range(2)
            )
            assert np.linalg.norm(cert.scalar * mapped - t1.slices[i]) < 1e-8

    def test_shape_mismatch_rejected(self):
        t1 = TripartiteState(r_dim=2, slices=(np.eye(2), np.eye(2)[::-1]))
        t2 = TripartiteState(r_dim=2, slices=(np.eye(3), np.eye(3)[::-1]))
        with pytest.raises(ValueError):
            check_tripartite_equiv(t1, t2, CONFIG)

    def test_dependent_slices_rejected(self):
        t = TripartiteState(r_dim=2, slices=(np.eye(2), np.eye(2)))
        with pytest.raises(ValueError):
            check_tripartite_equiv(t, t, CONFIG)


class TestRankPreservationProbe:
    def test_kron_map_consistent(self):
        rng = np.random.default_rng(64)
        b = random_complex(rng, (2, 2)) + 1.5 * np.eye(2)
        c = random_complex(rng, (2, 2)) + 1.5 * np.eye(2)
        result = rank_preservation_probe(np.kron(b, c), 2, 2)
        assert result.status is ProbeStatus.CONSISTENT
        assert result.witness is None
        assert result.checked == 64

    def test_fold_transpose_composition_consistent(self):
        rng = np.random.default_rng(65)
        b = random_complex(rng, (2, 2)) + 1.5 * np.eye(2)
        c = random_complex(rng, (2, 2)) + 1.5 * np.eye(2)
        phi = np.kron(b, c) @ commutation_matrix(2, 2)
        result = rank_preservation_probe(phi, 2, 2)
        assert result.status is ProbeStatus.CONSISTENT

    def test_generic_map_violated_with_witness(self):
        rng = np.random.default_rng(66)
        phi = random_complex(rng, (4, 4))
        result = rank_preservation_probe(phi, 2, 2)
        assert result.status is ProbeStatus.VIOLATED
        a = result.witness
        assert numerical_rank(fold(a, 2, 2)) == result.rank_input
        assert numerical_rank(fold(phi @ a, 2, 2)) == result.rank_image
        assert result.rank_input != result.rank_image

    def test_recovered_coupling_map_consistent(self):
        state, image, _ = random_orbit_case((2, 2, 2, 2), 12, 10.0)
        _, frame = triple_state_set(state, CUT_12_34)
        _, frame_img = triple_state_set(image, CUT_12_34)
        outcome = solve_ptilde(frame, frame_img, CONFIG)
        pt = outcome.candidate[0]
        m_u = np.linalg.inv(
            frame.u_full @ pt.assembled @ frame_img.u_full.conj().T
        )
        result = rank_preservation_probe(m_u, 2, 2)
        assert result.status is ProbeStatus.CONSISTENT

    def test_shape_guard(self):
        with pytest.raises(ValueError):
            rank_preservation_probe(np.eye(5), 2, 2)

    def test_sample_guard(self):
        with pytest.raises(ValueError):
            rank_preservation_probe(np.eye(4), 2, 2, samples=0)
