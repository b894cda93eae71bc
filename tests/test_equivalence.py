"""Unit tests for operator recovery, verification, and the full decision."""

import math
import time
import warnings

import numpy as np
import pytest

from slocceq import decomposition, equivalence
from slocceq.catalog import random_invertible_ops, random_orbit_case
from slocceq.decomposition import StateProfile, triple_state_set
from slocceq.equivalence import (
    DEFAULT_VERIFY_TOL,
    EquivalenceStatus,
    RecoveryError,
    check_fourpartite_equiv,
    check_fourpartite_equiv_all_cuts,
    check_tripartite_equiv,
    recover_local_operators,
    verify_equivalence,
)
from slocceq.invariants import invariant_screen, tripartite_as_pure_state
from slocceq import solver
from slocceq.solver import SolverConfig, solve_ptilde
from slocceq.states import (
    Bipartition,
    LocalOperatorTuple,
    PureState,
    STANDARD_CUTS,
    TripartiteState,
    apply_local_ops,
    make_state,
)
from slocceq.tensorops import numerical_rank

CUT_12_34 = Bipartition((1, 2), (3, 4))
CONFIG = SolverConfig(rng_seed=0)


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def proportionality(a, b):
    """Least-squares complex ratio c minimizing |a - c b| and its residual."""
    va, vb = np.ravel(a), np.ravel(b)
    c = np.vdot(vb, va) / np.vdot(vb, vb)
    resid = np.linalg.norm(va - c * vb) / np.linalg.norm(va)
    return c, resid


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


def recovered(state, image, cut=CUT_12_34):
    """Operators of the first candidate that verifies, as the check picks them."""
    frame = triple_state_set(state, cut)
    frame_img = triple_state_set(image, cut)
    for candidate in solve_ptilde(frame, frame_img, CONFIG).candidates:
        ops = recover_local_operators(cut, candidate)
        if verify_equivalence(image, state, ops)[0]:
            return ops
    raise AssertionError("no candidate verifies")


class TestRecoverLocalOperators:
    def test_plant_and_recover_per_party(self):
        # Recovered operators may differ from the planted ones by a
        # discrete local symmetry of the source state, so compare modulo
        # that: the per-party quotient must stabilize the source.
        for seed in range(10):
            state, image, planted = random_orbit_case((2, 2, 2, 2), seed, 10.0)
            ops = recovered(state, image)
            ok, _, resid = verify_equivalence(image, state, ops)
            assert ok and resid < 1e-10, seed
            quotient = [
                np.linalg.inv(plant) @ rec
                for rec, plant in zip(ops.ops, planted.ops)
            ]
            fixed = apply_local_ops(state, quotient)
            _, prop_resid = proportionality(fixed.amps, state.amps)
            assert prop_resid < 1e-8, seed

    def test_recovered_gauge(self):
        state, image, _ = random_orbit_case((2, 2, 2, 2), 11, 10.0)
        ops = recovered(state, image)
        for mat in ops.ops[:3]:
            assert abs(np.linalg.norm(mat) - 1.0) < 1e-12
            lead = mat.reshape(-1)[np.argmax(np.abs(mat.reshape(-1)))]
            assert abs(lead.imag) < 1e-12 and lead.real > 0

    def test_mixed_dimensions(self):
        state, image, planted = random_orbit_case((2, 2, 3, 3), 3, 10.0)
        ops = recovered(state, image)
        assert tuple(m.shape[0] for m in ops.ops) == (2, 2, 3, 3)
        quotient = [
            np.linalg.inv(plant) @ rec
            for rec, plant in zip(ops.ops, planted.ops)
        ]
        fixed = apply_local_ops(state, quotient)
        _, prop_resid = proportionality(fixed.amps, state.amps)
        assert prop_resid < 1e-8

    def test_factors_land_on_their_parties(self):
        rng = np.random.default_rng(61)
        mats = [random_complex(rng, (2, 2)) + 1.5 * np.eye(2) for _ in range(4)]
        cut = Bipartition((2, 4), (3, 1))
        ops = recover_local_operators(cut, mats)
        for party, mat in zip((2, 4, 3, 1), mats):
            _, resid = proportionality(ops.ops[party - 1], mat)
            assert resid < 1e-14, party

    def test_singular_operator_raises_recovery_error(self):
        singular = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(RecoveryError):
            recover_local_operators(CUT_12_34, (np.eye(2), singular, np.eye(2), np.eye(2)))

    def test_gauge_keeps_the_tensor_product(self):
        rng = np.random.default_rng(62)
        mats = [random_complex(rng, (2, 2)) + 1.5 * np.eye(2) for _ in range(4)]
        ops = recover_local_operators(CUT_12_34, mats)
        expected = np.kron(np.kron(mats[0], mats[1]), np.kron(mats[2], mats[3]))
        got = np.kron(np.kron(ops.ops[0], ops.ops[1]), np.kron(ops.ops[2], ops.ops[3]))
        assert np.linalg.norm(got - expected) < 1e-12 * np.linalg.norm(expected)


# Factors at or below LocalOperatorTuple's 1e-12 margin, down to zero.
SINGULAR_FACTORS = [np.diag([1.0, m]).astype(complex) for m in (1e-12, 1e-14, 0.0)] + [
    np.zeros((2, 2), dtype=complex)
]


class TestOneInvertibilityRule:
    """LocalOperatorTuple is the only invertibility rule a candidate meets.

    A candidate whose operators it accepts is verified, however thin; one
    with an operator at or below its 1e-12 margin is dropped before
    verification.
    """

    def orbit_check(self, monkeypatch, candidates):
        state, image, _ = random_orbit_case((2, 2, 2, 2), 4, 10.0)
        monkeypatch.setattr(solver, "_direct_flat_candidates", lambda *a: candidates)
        verifies = count_calls(monkeypatch, equivalence, "verify_equivalence")
        verdict = check_fourpartite_equiv(image, state, CUT_12_34, CONFIG)
        return verdict, verifies[0]

    def slice_check(self, monkeypatch, candidates):
        monkeypatch.setattr(
            equivalence,
            "solve_ptilde_single",
            lambda *a: solver.SolveOutcome(solver.SolveStatus.FOUND, candidates, restarts_used=0),
        )
        verifies = count_calls(monkeypatch, equivalence, "verify_equivalence")
        t = slices_of(make_state("ghz3"))
        return check_tripartite_equiv(t, t, CONFIG), verifies[0]

    def test_thin_factor_reaches_verification(self, monkeypatch):
        thin = np.diag([1.0, 1e-9]).astype(complex)
        eye = np.eye(2, dtype=complex)
        verdict, verifies = self.orbit_check(monkeypatch, [(eye, thin, eye, eye)])
        assert verdict.status is EquivalenceStatus.UNDECIDED
        assert verdict.diagnostics["stage"] == "verification"
        assert verdict.diagnostics["candidates"] == 1
        assert verdict.diagnostics["verify_residual"] > 1e-3
        assert verifies == 1

    @pytest.mark.parametrize("singular", SINGULAR_FACTORS)
    def test_singular_factor_is_rejected_before_verification(self, monkeypatch, singular):
        eye = np.eye(2, dtype=complex)
        verdict, verifies = self.orbit_check(monkeypatch, [(singular, eye, eye, eye)])
        assert verdict.status is EquivalenceStatus.UNDECIDED
        assert verdict.diagnostics["candidates"] == 1
        assert "verify_residual" not in verdict.diagnostics
        assert verifies == 0

    def test_thin_single_sided_factor_reaches_verification(self, monkeypatch):
        # diag(1, t) on the rows, undone by diag(1, 1/t) on the slice
        # index, stabilises GHZ3: the thin candidate is a valid certificate.
        thin = np.diag([1.0, 1e-9]).astype(complex)
        eye = np.eye(2, dtype=complex)
        verdict, verifies = self.slice_check(monkeypatch, [(thin, eye)])
        assert verdict.status is EquivalenceStatus.EQUIVALENT
        assert verdict.diagnostics["candidates"] == 1
        assert verifies == 1

    @pytest.mark.parametrize("singular", SINGULAR_FACTORS)
    def test_singular_single_sided_factor_is_rejected_before_verification(
        self, monkeypatch, singular
    ):
        eye = np.eye(2, dtype=complex)
        verdict, verifies = self.slice_check(monkeypatch, [(eye, singular), (singular, eye)])
        assert verdict.status is EquivalenceStatus.UNDECIDED
        assert verdict.diagnostics["candidates"] == 2
        assert "verify_residual" not in verdict.diagnostics
        assert verifies == 0


class TestVerificationDecides:
    """Candidates are verified in construction order; the first to pass decides.

    Candidates are pulled one at a time, so none after it is built.
    """

    def planted_check(self, monkeypatch, candidates):
        state, image, _ = random_orbit_case((2, 2, 2, 2), 5, 10.0)
        monkeypatch.setattr(solver, "_direct_flat_candidates", lambda *a: candidates)
        verifies = count_calls(monkeypatch, equivalence, "verify_equivalence")
        verdict = check_fourpartite_equiv(image, state, CUT_12_34, CONFIG)
        return verdict, verifies[0]

    def planted_and_broken(self):
        planted = tuple(random_orbit_case((2, 2, 2, 2), 5, 10.0)[2].ops)
        broken = planted[:3] + (planted[3] + 1e-3 * np.eye(2),)
        return planted, broken

    def test_first_verified_candidate_decides(self, monkeypatch):
        planted, broken = self.planted_and_broken()
        verdict, verifies = self.planted_check(monkeypatch, [broken, planted, planted])
        assert verdict.status is EquivalenceStatus.EQUIVALENT
        assert verdict.diagnostics["candidates"] == 2
        assert verdict.certificate.residual < 1e-10
        assert verifies == 2

    def test_planted_orbit_builds_one_candidate(self, monkeypatch):
        state, image, _ = random_orbit_case((2, 2, 2, 2), 5, 10.0)
        solves = count_calls(monkeypatch, solver, "_right_tuple_solve")
        verifies = count_calls(monkeypatch, equivalence, "verify_equivalence")
        verdict = check_fourpartite_equiv(image, state, CUT_12_34, CONFIG)
        assert verdict.status is EquivalenceStatus.EQUIVALENT
        assert verdict.diagnostics["candidates"] == 1
        assert solves[0] == 1
        assert verifies[0] == 1

    @pytest.mark.parametrize(
        "dims, seeds", [((2, 2, 3, 3), (0, 6)), ((3, 3, 2, 2), (7, 8)), ((2, 3, 2, 3), (5, 9))]
    )
    def test_planted_qutrit_pair_orbit_solves_one_right_tuple(self, monkeypatch, dims, seeds):
        # Only one B of the root is right on qutrit-pair columns; solved in
        # root order these seeds took 3 or 4 right-tuple solves each.
        solves = count_calls(monkeypatch, solver, "_right_tuple_solve")
        verifies = count_calls(monkeypatch, equivalence, "verify_equivalence")
        for seed in seeds:
            state, image, _ = random_orbit_case(dims, seed)
            solves[0] = verifies[0] = 0
            verdict = check_fourpartite_equiv_all_cuts(image, state, CONFIG)
            assert verdict.status is EquivalenceStatus.EQUIVALENT, seed
            assert (solves[0], verifies[0]) == (1, 1), seed

    def test_unrelated_slices_are_undecided_at_verification(self, monkeypatch):
        # Every B's column factors are fitted to unrelated slices. Each fit
        # is a candidate that verification rejects; none is dropped before.
        state, image, _ = random_orbit_case((2, 2, 3, 3), 0)
        rng = np.random.default_rng(78)
        solves = [0]
        original = solver._right_tuple_solve

        def unrelated(rs, ts, seeded):
            solves[0] += 1
            return original(rs, random_complex(rng, ts.shape), seeded)

        monkeypatch.setattr(solver, "_right_tuple_solve", unrelated)
        verdict = check_fourpartite_equiv(image, state, CUT_12_34, CONFIG)
        assert verdict.status is EquivalenceStatus.UNDECIDED
        assert verdict.diagnostics["stage"] == "verification"
        assert verdict.diagnostics["candidates"] == solves[0] >= 4
        assert verdict.diagnostics["verify_residual"] > DEFAULT_VERIFY_TOL

    def test_planted_orbit_solves_one_sylvester_system(self, monkeypatch):
        # Only the root matching the trace powers has intertwiners, and it
        # is tried first; the first B verifies, so no other root is reached.
        state, image, _ = random_orbit_case((2, 2, 2, 2), 5, 10.0)
        families = count_calls(monkeypatch, solver, "_intertwiner_family")
        svds = count_calls(monkeypatch, np.linalg, "svd")
        verdict = check_fourpartite_equiv(image, state, CUT_12_34, CONFIG)
        assert verdict.status is EquivalenceStatus.EQUIVALENT
        assert families[0] == 1
        assert svds[0] <= 18

    def test_broken_candidate_is_undecided_at_verification(self, monkeypatch):
        _, broken = self.planted_and_broken()
        verdict, verifies = self.planted_check(monkeypatch, [broken])
        assert verdict.status is EquivalenceStatus.UNDECIDED
        assert verdict.diagnostics["stage"] == "verification"
        assert verdict.diagnostics["verify_residual"] > DEFAULT_VERIFY_TOL
        assert verifies == 1


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

    def test_unsupported_geometry_orbit_is_undecided_not_inequivalent(self):
        state, image, _ = random_orbit_case((2, 2, 2, 3), 3, 5.0)
        verdict = check_fourpartite_equiv(image, state, CUT_12_34, CONFIG)
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

    def test_borderline_rank_is_flagged(self):
        # sigma_2 / sigma_1 = 5e-9 lies within 10x of the 1e-9 rank cutoff on both sides.
        amps = np.zeros(16, dtype=complex)
        amps[0b0000], amps[0b1111] = 1.0, 5e-9
        state = PureState((2, 2, 2, 2), amps)
        image = apply_local_ops(state, random_invertible_ops(state.dims, 0, 1.001))
        verdict = check_fourpartite_equiv(image, state, CUT_12_34, CONFIG)
        assert verdict.status is EquivalenceStatus.EQUIVALENT
        flagged = verdict.diagnostics["frame_warnings"]
        assert len(flagged) == 2 and all("rank 2 is borderline" in w for w in flagged)
        assert [w.split(": ")[0] for w in flagged] == ["state a", "state b"]

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

    def test_inequivalent_diagnostics_carry_the_tolerances(self):
        ghz4, w4 = make_state("ghz4"), make_state("w4")
        merged = check_fourpartite_equiv_all_cuts(ghz4, w4, CONFIG, rtol=1e-7, verify_tol=1e-6)
        single = check_fourpartite_equiv(ghz4, w4, CUT_12_34, CONFIG, rtol=1e-7, verify_tol=1e-6)
        assert merged.diagnostics == single.diagnostics == {
            "cut": "12-34",
            "rtol": 1e-7,
            "verify_tol": 1e-6,
            "stage": "invariant_screen",
        }


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` so every call is counted; returns the count box."""
    calls = [0]
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def count_decompositions(monkeypatch):
    """Count boxes for the triple-state sets built and the singular frames computed.

    A frame computation is one matrix factored by the gauged SVD the frames
    come from; one call of it factors a whole stack.
    """
    sets = count_calls(monkeypatch, decomposition.TripleStateSet, "__init__")
    frames = [0]
    gauged = decomposition.svd

    def counted(stack, *args, **kwargs):
        frames[0] += math.prod(np.shape(stack)[:-2])
        return gauged(stack, *args, **kwargs)

    monkeypatch.setattr(decomposition, "svd", counted)
    return sets, frames


class TestOneDecompositionPerState:
    def test_single_cut_orbit_check_decomposes_each_state_once(self, monkeypatch):
        # The rank-four constructions read the flattenings, never the frames.
        state, image, _ = random_orbit_case((2, 2, 2, 2), 7, 10.0)
        sets, frames = count_decompositions(monkeypatch)
        verdict = check_fourpartite_equiv(image, state, CUT_12_34, CONFIG)
        assert verdict.status is EquivalenceStatus.EQUIVALENT
        assert sets[0] == 2
        assert frames[0] == 0

    @pytest.mark.parametrize("dims", [(2, 2, 3, 3), (3, 3, 2, 2)])
    def test_qutrit_pair_orbit_check_computes_no_frame(self, monkeypatch, dims):
        state, image, _ = random_orbit_case(dims, 7, 10.0)
        sets, frames = count_decompositions(monkeypatch)
        verdict = check_fourpartite_equiv(image, state, CUT_12_34, CONFIG)
        assert verdict.status is EquivalenceStatus.EQUIVALENT
        assert sets[0] == 2
        assert frames[0] == 0

    def test_rank_two_orbit_check_computes_each_frame_once(self, monkeypatch):
        # The class screen and the construction read the same frames, and
        # both states' frames come from one stacked SVD.
        w4 = make_state("w4")
        image = apply_local_ops(w4, random_invertible_ops((2, 2, 2, 2), 7, 10.0))
        sets, frames = count_decompositions(monkeypatch)
        calls = count_calls(monkeypatch, decomposition, "svd")
        verdict = check_fourpartite_equiv(image, w4, CUT_12_34, CONFIG)
        assert verdict.status is EquivalenceStatus.EQUIVALENT
        assert sets[0] == 2
        assert frames[0] == 2
        assert calls[0] == 1

    def test_rank_four_screen_decomposes_nothing(self, monkeypatch):
        state, image, _ = random_orbit_case((2, 2, 2, 2), 8, 10.0)
        sets, frames = count_decompositions(monkeypatch)
        profile = StateProfile((image, state))
        assert profile.ranks(CUT_12_34) == (4, 4)
        assert invariant_screen(profile, CUT_12_34) is None
        assert sets[0] == 0
        assert frames[0] == 0

    def test_rank_four_orbit_check_folds_no_factor(self, monkeypatch):
        state, image, _ = random_orbit_case((2, 2, 2, 2), 7, 10.0)
        built = count_calls(monkeypatch, TripartiteState, "__post_init__")
        verdict = check_fourpartite_equiv(image, state, CUT_12_34, CONFIG)
        assert verdict.status is EquivalenceStatus.EQUIVALENT
        assert built[0] == 0

    def test_all_cuts_class_proof_decomposes_each_state_once(self, monkeypatch):
        sets, frames = count_decompositions(monkeypatch)
        calls = count_calls(monkeypatch, decomposition, "svd")
        verdict = check_fourpartite_equiv_all_cuts(
            make_state("ghz4"), make_state("w4"), CONFIG
        )
        assert verdict.proof.invariant == "tripartite-class"
        assert sets[0] == 2
        assert frames[0] == 2
        assert calls[0] == 1

    def test_all_cuts_undecided_screens_once_per_cut(self, monkeypatch):
        s1 = random_orbit_case((2, 2, 2, 3), 1)[0]
        s2 = random_orbit_case((2, 2, 2, 3), 2)[0]
        screens = count_calls(monkeypatch, equivalence, "invariant_screen")
        verdict = check_fourpartite_equiv_all_cuts(s1, s2, CONFIG)
        assert verdict.status is EquivalenceStatus.UNDECIDED
        assert verdict.diagnostics["stage"] == "all_cuts"
        per_cut = verdict.diagnostics["per_cut"]
        assert list(per_cut) == [cut.label for cut in STANDARD_CUTS]
        for label, diagnostics in per_cut.items():
            assert diagnostics["cut"] == label
            assert diagnostics["stage"] in ("coupling_search", "verification")
        assert screens[0] == 3


def product_on(party, core):
    """|0> on ``party`` (1-based) times the three-qubit ``core`` on the other parties."""
    t = np.multiply.outer(np.array([1.0, 0.0]), core.tensor())
    return PureState((2, 2, 2, 2), np.moveaxis(t, 0, party - 1).reshape(-1))


class TestPairedSvdCalls:
    """Each LAPACK call the screen makes covers both states of the check."""

    @pytest.mark.parametrize(
        "check, most",
        [
            # The rank at 12-34 decides: no other cut, marginal or frame.
            (
                lambda: check_fourpartite_equiv_all_cuts(
                    make_state("ghz4"), PureState((2, 2, 2, 2), np.eye(16)[0]), CONFIG
                ),
                1,
            ),
            # Three cuts, four parties, the frames at 12-34, the u factors.
            (lambda: check_fourpartite_equiv_all_cuts(make_state("ghz4"), make_state("w4"), CONFIG), 9),
            # Three cuts, then party 1's marginal rank decides.
            (
                lambda: check_fourpartite_equiv_all_cuts(
                    product_on(1, make_state("ghz3")), product_on(2, make_state("ghz3")), CONFIG
                ),
                4,
            ),
        ],
        ids=["ghz4-vs-product", "ghz4-vs-w4", "product1-vs-product2"],
    )
    def test_screen_proofs(self, monkeypatch, check, most):
        svds = count_calls(monkeypatch, np.linalg, "svd")
        assert check().status is EquivalenceStatus.INEQUIVALENT
        assert svds[0] <= most

    def test_planted_orbit(self, monkeypatch):
        state, image, _ = random_orbit_case((2, 2, 2, 2), 5, 10.0)
        svds = count_calls(monkeypatch, np.linalg, "svd")
        verdict = check_fourpartite_equiv(image, state, CUT_12_34, CONFIG)
        assert verdict.status is EquivalenceStatus.EQUIVALENT
        assert svds[0] <= 11


class TestReorderedCut:
    def test_rank_that_rounds_differently_is_a_proof(self):
        # M = U diag(1, 0.5, s3, 0) V^H with s3 at the rank cutoff: about one
        # draw in two hundred has rank 3 at 12-34 but rank 2 at 21-34, the
        # same cut with its rows permuted.
        cut = Bipartition((2, 1), (3, 4))
        rng = np.random.default_rng(0)

        def state(s3):
            u, v = (np.linalg.qr(random_complex(rng, (4, 4)))[0] for _ in range(2))
            return PureState((2, 2, 2, 2), (u @ np.diag([1.0, 0.5, s3, 0.0]) @ v.conj().T).reshape(-1))

        for _ in range(5000):
            bad = state(1e-9 * (1 + rng.uniform(-1e-6, 1e-6)))
            p = StateProfile((bad,))
            if p.ranks(CUT_12_34) == (3,) and p.ranks(cut) == (2,):
                break
        else:
            pytest.fail("no draw rounds to different ranks")
        good = state(1e-3)
        for s1, s2, ranks in ((bad, good, ("2", "3")), (good, bad, ("3", "2"))):
            verdict = check_fourpartite_equiv(s1, s2, cut, CONFIG)
            assert verdict.status is EquivalenceStatus.INEQUIVALENT
            proof = verdict.proof.to_dict()
            assert (proof["invariant"], proof["location"]) == ("bipartition-rank", "21-34")
            assert (proof["value_a"], proof["value_b"]) == ranks


def planted(state, seed, cap=10.0):
    """Image of a three- or four-party state under seeded local operators."""
    n = len(state.dims)
    dims = tuple(state.dims) + (2,) * (4 - n)
    return apply_local_ops(state, random_invertible_ops(dims, seed, cap).ops[:n])


def qubit_state(rng, rank):
    """Random four-qubit state of the given rank at cut 12-34."""
    m = random_complex(rng, (4, rank)) @ random_complex(rng, (rank, 4))
    return PureState((2, 2, 2, 2), m.reshape(-1))


def rank_one_state(dims):
    """Random state of rank one at cut 12-34: the outer product of two random vectors."""
    def state(rng):
        a, b = random_complex(rng, dims[0] * dims[1]), random_complex(rng, dims[2] * dims[3])
        return PureState(dims, np.outer(a, b).reshape(-1))
    return state


def planted_slices(rng, stack):
    """Slices mixed by a random first-party map and random maps on the rows and columns."""
    r, rows, cols = stack.shape
    mix = random_complex(rng, (r, r))
    a_row = random_complex(rng, (rows, rows))
    a_col = random_complex(rng, (cols, cols))
    image = np.tensordot(mix, a_row @ stack @ a_col.T, axes=([1], [0]))
    return TripartiteState(r_dim=r, slices=tuple(image))


def mixed_type_state():
    """|0000> + |1101> + |1110>: GHZ-type columns, W-type rows at 12-34."""
    amps = np.zeros(16, dtype=complex)
    amps[[0b0000, 0b1101, 0b1110]] = 1.0
    return PureState((2, 2, 2, 2), amps)


def four_party_orbit(state, cut):
    def pair(seed, rng):
        base = state(rng)
        s1, s2 = planted(base, 2 * seed + 1), planted(base, 2 * seed + 2)
        return check_fourpartite_equiv(s1, s2, cut, CONFIG)
    return pair


def catalog_orbit(dims):
    def pair(seed, rng):
        state, image, _ = random_orbit_case(dims, seed, 10.0)
        return check_fourpartite_equiv(image, state, CUT_12_34, CONFIG)
    return pair


def slice_orbit(stack):
    def pair(seed, rng):
        base = stack(rng)
        t1, t2 = planted_slices(rng, base), planted_slices(rng, base)
        return check_tripartite_equiv(t1, t2, CONFIG)
    return pair


def named_stack(name):
    return lambda rng: make_state(name).tensor()


CUT_13_24, CUT_14_23 = STANDARD_CUTS[1:]

DECIDED = {
    "2222-rank1": four_party_orbit(lambda rng: qubit_state(rng, 1), CUT_12_34),
    "2323-rank1": four_party_orbit(rank_one_state((2, 3, 2, 3)), CUT_12_34),
    "3333-rank1": four_party_orbit(rank_one_state((3, 3, 3, 3)), CUT_12_34),
    "2222-rank2-ghz": four_party_orbit(lambda rng: make_state("ghz4"), CUT_12_34),
    "2222-rank2-w": four_party_orbit(lambda rng: make_state("w4"), CUT_12_34),
    "2222-rank2-mixed": four_party_orbit(lambda rng: mixed_type_state(), CUT_12_34),
    "2222-rank4": catalog_orbit((2, 2, 2, 2)),
    "w4-13-24": four_party_orbit(lambda rng: make_state("w4"), CUT_13_24),
    "w4-14-23": four_party_orbit(lambda rng: make_state("w4"), CUT_14_23),
    "2233-rank4": catalog_orbit((2, 2, 3, 3)),
    "3322-rank4": catalog_orbit((3, 3, 2, 2)),
    "slices-rank1": slice_orbit(lambda rng: random_complex(rng, (1, 2, 2))),
    "slices-rank2-ghz3": slice_orbit(named_stack("ghz3")),
    "slices-rank2-w3": slice_orbit(named_stack("w3")),
    "slices-rank3": slice_orbit(lambda rng: random_complex(rng, (3, 2, 2))),
    "slices-rank4": slice_orbit(lambda rng: random_complex(rng, (4, 2, 2))),
    "slices-1-of-2x3": slice_orbit(lambda rng: random_complex(rng, (1, 2, 3))),
    "slices-1-of-3x3": slice_orbit(lambda rng: random_complex(rng, (1, 3, 3))),
    "slices-5-of-2x3": slice_orbit(lambda rng: random_complex(rng, (5, 2, 3))),
    "slices-6-of-3x2": slice_orbit(lambda rng: random_complex(rng, (6, 3, 2))),
    "slices-8-of-3x3": slice_orbit(lambda rng: random_complex(rng, (8, 3, 3))),
}

UNDECIDED = {
    "2223-orbit": catalog_orbit((2, 2, 2, 3)),
    "3333-orbit": catalog_orbit((3, 3, 3, 3)),
    "2222-rank3-orbit": four_party_orbit(lambda rng: qubit_state(rng, 3), CUT_12_34),
    # A product across 12|34 has rank 4 at 13-24, but the rank-4 qubit-pair
    # construction proposes nothing there; 12-34 and all-cuts decide it.
    "2222-product-12|34-at-13-24": four_party_orbit(rank_one_state((2, 2, 2, 2)), CUT_13_24),
    "2222-generic-pair": lambda seed, rng: check_fourpartite_equiv(
        random_orbit_case((2, 2, 2, 2), 2 * seed)[0],
        random_orbit_case((2, 2, 2, 2), 2 * seed + 1)[0],
        CUT_12_34,
        CONFIG,
    ),
    "slices-2-of-2x3": slice_orbit(lambda rng: random_complex(rng, (2, 2, 3))),
}


def solver_outcomes(monkeypatch):
    """Record every outcome the checks get from the two solver entry points."""
    outcomes = []
    for name in ("solve_ptilde", "solve_ptilde_single"):
        original = getattr(equivalence, name)

        def recorded(*args, _original=original, **kwargs):
            outcomes.append(_original(*args, **kwargs))
            return outcomes[-1]

        monkeypatch.setattr(equivalence, name, recorded)
    return outcomes


class TestSupportedGeometries:
    """The geometries the constructions decide; the rest are UNDECIDED at once."""

    @pytest.mark.parametrize("name", sorted(DECIDED))
    def test_planted_orbits_are_equivalent_without_restarts(self, name, monkeypatch):
        outcomes = solver_outcomes(monkeypatch)
        rng = np.random.default_rng(64)
        for seed in range(10):
            verdict = DECIDED[name](seed, rng)
            assert verdict.status is EquivalenceStatus.EQUIVALENT, (name, seed)
        assert outcomes and all(out.restarts_used == 0 for out in outcomes)

    @pytest.mark.parametrize("name", sorted(UNDECIDED))
    def test_other_geometries_are_undecided_at_once(self, name):
        rng = np.random.default_rng(65)
        for seed in range(3):
            start = time.perf_counter()
            verdict = UNDECIDED[name](seed, rng)
            elapsed = time.perf_counter() - start
            assert verdict.status is EquivalenceStatus.UNDECIDED, (name, seed)
            assert verdict.diagnostics["stage"] == "coupling_search", (name, seed)
            assert elapsed < 0.5, (name, seed, elapsed)


def qubit_terms(terms):
    """Four-qubit state summing ``coeff |bits>`` over ``(bits, coeff)`` pairs."""
    amps = np.zeros(16, dtype=complex)
    for bits, coeff in terms:
        amps[int(bits, 2)] += coeff
    return PureState((2, 2, 2, 2), amps)


def g_abcd(a, b, c, d):
    return qubit_terms(
        [("0000", (a + d) / 2), ("1111", (a + d) / 2), ("0011", (a - d) / 2), ("1100", (a - d) / 2)]
        + [("0101", (b + c) / 2), ("1010", (b + c) / 2), ("0110", (b - c) / 2), ("1001", (b - c) / 2)]
    )


def l_abc2(a, b, c):
    return qubit_terms(
        [("0000", (a + b) / 2), ("1111", (a + b) / 2), ("0011", (a - b) / 2), ("1100", (a - b) / 2)]
        + [("0101", c), ("1010", c), ("0110", 1.0)]
    )


def l_a2b2(a, b):
    return qubit_terms(
        [("0000", a), ("1111", a), ("0101", b), ("1010", b), ("0110", 1.0), ("0011", 1.0)]
    )


def l_ab3(a, b):
    half = 1j / np.sqrt(2.0)
    return qubit_terms(
        [("0000", a), ("1111", a), ("0101", (a + b) / 2), ("1010", (a + b) / 2)]
        + [("0110", (a - b) / 2), ("1001", (a - b) / 2)]
        + [(bits, half) for bits in ("0001", "0010", "0111", "1011")]
    )


def l_a4(a):
    return qubit_terms(
        [("0000", a), ("0101", a), ("1010", a), ("1111", a), ("0001", 1j), ("0110", 1.0), ("1011", -1j)]
    )


def l_a2_0_3_1(a):
    return qubit_terms([("0000", a), ("1111", a), ("0011", 1.0), ("0101", 1.0), ("0110", 1.0)])


def l_0_5_3():
    return qubit_terms([("0000", 1.0), ("0101", 1.0), ("1000", 1.0), ("1110", 1.0)])


def l_0_7_1():
    return qubit_terms([("0000", 1.0), ("1011", 1.0), ("1101", 1.0), ("1110", 1.0)])


def l_0_3_1_0_3_1():
    return qubit_terms([("0000", 1.0), ("0111", 1.0)])


# The nine four-qubit SLOCC families of Verstraete, Dehaene, De Moor and
# Verschelde, PRA 65, 052112 (2002). The first five are invertible at cut
# 12-34; the rest have rank three or two at every cut.
# Each entry is (constructor, number of complex parameters).
RANK_FOUR_FAMILIES = {
    "G_abcd": (g_abcd, 4),
    "L_abc2": (l_abc2, 3),
    "L_a2b2": (l_a2b2, 2),
    "L_ab3": (l_ab3, 2),
    "L_a4": (l_a4, 1),
}
LOWER_RANK_FAMILIES = {
    "L_a2_0(3+1)": (l_a2_0_3_1, 1),
    "L_0(5+3)": (l_0_5_3, 0),
    "L_0(7+1)": (l_0_7_1, 0),
    "L_0(3+1)0(3+1)": (l_0_3_1_0_3_1, 0),
}


def family_verdicts(entry, seed):
    """All-cuts verdicts of 10 orbit images against their family member."""
    family, n_params = entry
    rng = np.random.default_rng(seed)
    verdicts = []
    for draw in range(10):
        state = family(*random_complex(rng, (n_params,)))
        ops = random_invertible_ops((2, 2, 2, 2), (seed, draw))
        verdicts.append(check_fourpartite_equiv_all_cuts(apply_local_ops(state, ops.ops), state, CONFIG))
    return verdicts


class TestNineFamilies:
    """Orbit images of each of Verstraete's nine families, through all cuts."""

    @pytest.mark.parametrize("name", list(RANK_FOUR_FAMILIES))
    def test_rank_four_families_are_equivalent(self, name):
        verdicts = family_verdicts(RANK_FOUR_FAMILIES[name], 66)
        statuses = [v.status for v in verdicts]
        assert statuses == [EquivalenceStatus.EQUIVALENT] * 10, statuses

    @pytest.mark.parametrize("name", list(LOWER_RANK_FAMILIES))
    def test_lower_rank_families_are_never_inequivalent(self, name):
        verdicts = family_verdicts(LOWER_RANK_FAMILIES[name], 67)
        assert all(v.status is not EquivalenceStatus.INEQUIVALENT for v in verdicts)


class TestNearFamilyBoundary:
    """L_a4 close to the nilpotent family at a = 0, through all cuts."""

    @pytest.mark.parametrize("a", [-0.029 - 0.065j, 0.05])
    def test_l_a4_orbits_are_equivalent(self, a):
        state = l_a4(a)
        statuses = []
        for draw in range(10):
            ops = random_invertible_ops((2, 2, 2, 2), (66, draw))
            image = apply_local_ops(state, ops.ops)
            statuses.append(check_fourpartite_equiv_all_cuts(image, state, CONFIG).status)
        assert statuses == [EquivalenceStatus.EQUIVALENT] * 10, statuses

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    def test_exact_orbit_below_rank_cutoff_is_not_inequivalent(self):
        # The image's sigma_4 / sigma_1 at 12-34 is 9.96e-10, just under
        # the screen's 1e-9 rank cutoff; the source's is 3.96e-8.
        state = l_a4(0.01 + 0.01j)
        image = apply_local_ops(state, random_invertible_ops((2, 2, 2, 2), (11, 7)).ops)
        verdict = check_fourpartite_equiv(image, state, CUT_12_34, CONFIG)
        assert verdict.status is not EquivalenceStatus.INEQUIVALENT


def noisy(state, rel, seed):
    """``state`` moved by relative amplitude noise ``rel`` along a seeded direction."""
    rng = np.random.default_rng(seed)
    direction = random_complex(rng, state.amps.shape)
    step = rel * np.linalg.norm(state.amps) / np.linalg.norm(direction)
    return PureState(state.dims, state.amps + step * direction)


def noisy_orbit_verdicts(rel, dims_list=((2, 2, 2, 2),)):
    counts = {status: 0 for status in EquivalenceStatus}
    for dims in dims_list:
        for seed in range(20):
            state, image, _ = random_orbit_case(dims, seed)
            verdict = check_fourpartite_equiv(noisy(image, rel, seed), state, CUT_12_34, CONFIG)
            counts[verdict.status] += 1
    return counts


class TestNoiseRobustness:
    """Verification alone decides, so noise far below ``verify_tol`` is accepted."""

    def test_noise_below_verify_tol_is_equivalent(self):
        counts = noisy_orbit_verdicts(1e-10)
        assert counts[EquivalenceStatus.INEQUIVALENT] == 0
        assert counts[EquivalenceStatus.EQUIVALENT] >= 18, counts

    def test_mixed_pair_noise_below_verify_tol_is_equivalent(self):
        counts = noisy_orbit_verdicts(1e-10, ((2, 2, 3, 3), (3, 3, 2, 2)))
        assert counts[EquivalenceStatus.INEQUIVALENT] == 0
        assert counts[EquivalenceStatus.EQUIVALENT] >= 30, counts

    def test_noise_a_tenth_of_verify_tol_is_equivalent(self):
        counts = noisy_orbit_verdicts(1e-9)
        assert counts[EquivalenceStatus.INEQUIVALENT] == 0
        assert counts[EquivalenceStatus.EQUIVALENT] >= 19, counts

    def test_noise_above_verify_tol_is_undecided(self):
        counts = noisy_orbit_verdicts(1e-6)
        assert counts[EquivalenceStatus.UNDECIDED] == 20, counts


# One side of a pair is scaled by each of these; a verdict must not change.
SCALES = [10.0**e for e in (-300, -160, -38, -12, -6, 6, 9, 12, 38, 80, 160, 300)]


def scaled(x, factor):
    """``x`` with every amplitude, or every slice entry, times ``factor``."""
    if isinstance(x, TripartiteState):
        return TripartiteState(x.r_dim, tuple(s * factor for s in x.slices))
    return PureState(x.dims, x.amps * factor)


def scaled_pairs(target, source):
    """The pair with the target, then the source, scaled by each of ``SCALES``."""
    for factor in SCALES:
        yield scaled(target, factor), source
        yield target, scaled(source, factor)


class TestAmplitudeScale:
    """SLOCC equivalence ignores scale, so no verdict changes from 1e-300 to 1e300."""

    @pytest.mark.parametrize(
        "dims, all_cuts",
        [((2, 2, 2, 2), False), ((2, 2, 3, 3), False), ((3, 3, 2, 2), False), ((2, 3, 2, 3), True)],
    )
    def test_four_party_orbit_stays_equivalent(self, dims, all_cuts):
        def check(a, b):
            if all_cuts:
                return check_fourpartite_equiv_all_cuts(a, b, CONFIG)
            return check_fourpartite_equiv(a, b, CUT_12_34, CONFIG)

        for seed in range(3):
            state, image, _ = random_orbit_case(dims, seed)
            assert check(image, state).status is EquivalenceStatus.EQUIVALENT
            for s1, s2 in scaled_pairs(image, state):
                verdict = check(s1, s2)
                assert verdict.status is EquivalenceStatus.EQUIVALENT, (seed, s1.norm(), s2.norm())
                ok, scalar, _ = verify_equivalence(s1, s2, verdict.certificate.ops)
                assert ok and scalar == verdict.certificate.scalar

    @pytest.mark.parametrize("name", ["ghz3", "w3"])
    def test_tripartite_orbit_stays_equivalent(self, name):
        state = make_state(name)
        for seed in range(3):
            image = apply_local_ops(state, random_invertible_ops((2, 2, 2), seed))
            for s1, s2 in scaled_pairs(slices_of(image), slices_of(state)):
                verdict = check_tripartite_equiv(s1, s2, CONFIG)
                assert verdict.status is EquivalenceStatus.EQUIVALENT, seed

    def test_scaled_ghz_is_not_proven_inequivalent_to_ghz(self):
        ghz = slices_of(make_state("ghz3"))
        for factor in SCALES:
            verdict = check_tripartite_equiv(scaled(ghz, factor), ghz, CONFIG)
            assert verdict.status is EquivalenceStatus.EQUIVALENT, factor
            assert verdict.diagnostics["class_a"] == "GHZ_CLASS", factor

    def test_exact_operators_verify_with_the_raw_scalar(self):
        state, image, ops = random_orbit_case((2, 2, 2, 2), 3)
        for factor in SCALES:
            for s1, s2, want in ((scaled(image, factor), state, factor), (image, scaled(state, factor), 1 / factor)):
                ok, scalar, resid = verify_equivalence(s1, s2, ops)
                assert ok and resid < 1e-14, factor
                assert abs(scalar / want - 1.0) < 1e-12, factor

    def test_scalar_beyond_the_float_range_fails_cleanly(self):
        # The scalar 1e600 overflows and 1e-600 rounds to zero; both fail alike.
        ghz = make_state("ghz4")
        for big, small in ((1e300, 1e-300), (1e-300, 1e300)):
            ok, scalar, resid = verify_equivalence(scaled(ghz, big), scaled(ghz, small), [np.eye(2)] * 4)
            assert (ok, scalar, resid) == (False, 0.0, 1.0), big

    def test_scalar_below_the_float_range_is_undecided(self):
        ghz = make_state("ghz4")
        verdict = check_fourpartite_equiv(scaled(ghz, 1e-300), scaled(ghz, 1e300), CUT_12_34, CONFIG)
        assert verdict.status is EquivalenceStatus.UNDECIDED
        assert verdict.diagnostics["stage"] == "verification"


# Exact certificates of GHZ4 onto itself whose operators lie far from unit
# scale, with the scalar each one needs.
FAR_SCALED_CERTIFICATES = [
    ([2.0**-600 * np.eye(2)] * 2 + [2.0**600 * np.eye(2)] * 2, 1.0),
    ([1e80 * np.eye(2)] * 4, 1e-320),
    # A subnormal operator, whose scaling power of two alone overflows.
    ([1e-310 * np.eye(2), 1e300 * np.eye(2), 1e10 * np.eye(2), np.eye(2)], 1.0),
    ([2.0**-1030 * np.eye(2), 2.0**1000 * np.eye(2), 2.0**30 * np.eye(2), np.eye(2)], 1.0),
]


class TestOperatorScale:
    """Verification is free of the operators' scale, as of the amplitudes'."""

    @pytest.mark.parametrize("ops, scalar", FAR_SCALED_CERTIFICATES)
    def test_far_scaled_exact_operators_verify(self, ops, scalar):
        ghz = make_state("ghz4")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ok, got, resid = verify_equivalence(ghz, ghz, ops)
        assert ok and resid < 1e-14
        # 1e-320 is subnormal, held to about 3 digits.
        assert abs(got / scalar - 1.0) < 1e-3


class TestClassScreenRtol:
    """The class screens take the caller's ``rtol``, so declared noise gives no class proof."""

    @pytest.mark.parametrize(
        "w, ghz, rel, draw_seed", [("w4", "ghz4", 1e-8, 5), ("w3", "ghz3", 1e-7, 6)]
    )
    def test_noisy_w_orbits_get_no_class_proof(self, w, ghz, rel, draw_seed):
        w_state = make_state(w)
        parties = w_state.num_parties

        def check(a, b):
            if parties == 4:
                return check_fourpartite_equiv(a, b, CUT_12_34, CONFIG, rtol=1e-5)
            return check_tripartite_equiv(slices_of(a), slices_of(b), CONFIG, rtol=1e-5)

        for k in range(10):
            ops = random_invertible_ops((2, 2, 2, 2), (draw_seed, k)).ops[:parties]
            image = noisy(apply_local_ops(w_state, ops), rel, k)
            assert check(image, w_state).status is not EquivalenceStatus.INEQUIVALENT, k
            assert check(image, make_state(ghz)).proof.invariant == "tripartite-class", k


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

    def test_class_proof_keeps_location_and_diagnostics(self):
        verdict = check_tripartite_equiv(
            slices_of(make_state("ghz3")), slices_of(make_state("w3")), CONFIG
        )
        assert verdict.proof.location == "three-qubit states"
        assert verdict.proof.description == (
            "triple-state three-qubit states classifies GHZ_CLASS vs W_CLASS"
        )
        assert verdict.diagnostics["class_a"] == "GHZ_CLASS"
        assert verdict.diagnostics["class_b"] == "W_CLASS"

    def test_self_equivalence_identity_operators(self):
        t = slices_of(make_state("ghz3"))
        verdict = check_tripartite_equiv(t, t, CONFIG)
        assert verdict.status is EquivalenceStatus.EQUIVALENT
        cert = verdict.certificate
        assert cert.cut is None
        a_first, a_row, a_col = cert.ops.ops
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
        f, r, c = cert.ops.ops
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

    @pytest.mark.parametrize(
        "stack",
        [
            named_stack("ghz3"),
            named_stack("w3"),
            lambda rng: random_complex(rng, (3, 2, 2)),
            lambda rng: random_complex(rng, (4, 2, 2)),
        ],
        ids=["r2-ghz3", "r2-w3", "r3", "r4"],
    )
    def test_certificate_reverifies_on_the_three_party_states(self, stack):
        rng = np.random.default_rng(68)
        for seed in range(5):
            base = stack(rng)
            t1, t2 = planted_slices(rng, base), planted_slices(rng, base)
            verdict = check_tripartite_equiv(t1, t2, CONFIG)
            assert verdict.status is EquivalenceStatus.EQUIVALENT, seed
            ops = verdict.certificate.ops
            assert isinstance(ops, LocalOperatorTuple)
            passed, _, resid = verify_equivalence(
                tripartite_as_pure_state(t1), tripartite_as_pure_state(t2), ops
            )
            assert passed, (seed, resid)


class TestOneAcceptancePath:
    """``verify_equivalence`` accepts every candidate, for tripartite pairs too."""

    @pytest.mark.parametrize("name", ["w3", "ghz3"])
    def test_every_recovered_candidate_is_verified(self, monkeypatch, name):
        recovered = [0]
        local_operators = equivalence._local_operators

        def counted(mats):
            ops = local_operators(mats)
            recovered[0] += 1
            return ops

        monkeypatch.setattr(equivalence, "_local_operators", counted)
        verifies = count_calls(monkeypatch, equivalence, "verify_equivalence")
        rng = np.random.default_rng(69)
        base = make_state(name).tensor()
        for seed in range(5):
            verdict = check_tripartite_equiv(planted_slices(rng, base), planted_slices(rng, base), CONFIG)
            assert verdict.status is EquivalenceStatus.EQUIVALENT, seed
        assert verifies[0] == recovered[0] >= 5

    def test_one_slice_pair_verifies_its_certificate(self):
        rng = np.random.default_rng(70)
        base = random_complex(rng, (1, 2, 2))
        t1, t2 = planted_slices(rng, base), planted_slices(rng, base)
        verdict = check_tripartite_equiv(t1, t2, CONFIG)
        assert verdict.status is EquivalenceStatus.EQUIVALENT
        cert = verdict.certificate
        assert verify_equivalence(t1, t2, cert.ops) == (True, cert.scalar, cert.residual)
        other = planted_slices(rng, random_complex(rng, (2, 2, 2)))
        assert verify_equivalence(t1, other, cert.ops) == (False, 0.0, 1.0)


def fold_ranks(phi, i1, i2, seed, samples=64):
    """Fold ranks of random vectors before and after the map ``phi``.

    Sample k has fold rank ``k % min(i1, i2) + 1``, built as a sum of that
    many outer products; yields ``(vector, rank_in, rank_out)``.
    """
    rng = np.random.default_rng(seed)
    for index in range(samples):
        a = sum(
            np.kron(random_complex(rng, i1), random_complex(rng, i2))
            for _ in range(index % min(i1, i2) + 1)
        )
        yield a, numerical_rank(a.reshape(i1, i2)), numerical_rank((phi @ a).reshape(i1, i2))


class TestRankPreservationProbe:
    """The first candidate's maps are invertible Kronecker products, which preserve fold rank."""

    def test_kron_map_consistent(self):
        rng = np.random.default_rng(64)
        b = random_complex(rng, (2, 2)) + 1.5 * np.eye(2)
        c = random_complex(rng, (2, 2)) + 1.5 * np.eye(2)
        ranks = [(r_in, r_out) for _, r_in, r_out in fold_ranks(np.kron(b, c), 2, 2, seed=0)]
        assert {r_in for r_in, _ in ranks} == {1, 2}
        assert all(r_in == r_out for r_in, r_out in ranks)

    def test_fold_transpose_composition_consistent(self):
        rng = np.random.default_rng(65)
        b = random_complex(rng, (2, 2)) + 1.5 * np.eye(2)
        c = random_complex(rng, (2, 2)) + 1.5 * np.eye(2)
        # The swap matrix maps vec(X) to vec(X^T) for 2x2 X.
        swap = np.array(
            [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
        )
        phi = np.kron(b, c) @ swap
        assert all(r_in == r_out for _, r_in, r_out in fold_ranks(phi, 2, 2, seed=0))

    def test_generic_map_violated_with_witness(self):
        rng = np.random.default_rng(66)
        phi = random_complex(rng, (4, 4))
        witnesses = [w for w in fold_ranks(phi, 2, 2, seed=0) if w[1] != w[2]]
        assert witnesses
        a, r_in, r_out = witnesses[0]
        assert (r_in, r_out) == (1, 2)
        assert np.linalg.matrix_rank(a.reshape(2, 2)) == 1

    def test_sample_guard(self):
        # The zero vector has fold rank 0, and so has its image.
        zero = np.zeros(4, dtype=complex)
        assert numerical_rank(zero.reshape(2, 2)) == 0
        assert numerical_rank((np.kron(np.eye(2), 2 * np.eye(2)) @ zero).reshape(2, 2)) == 0
        assert numerical_rank(np.zeros((0, 0))) == 0

    def test_recovered_coupling_map_consistent(self):
        state, image, _ = random_orbit_case((2, 2, 2, 2), 12, 10.0)
        frame = triple_state_set(state, CUT_12_34)
        frame_img = triple_state_set(image, CUT_12_34)
        a1, a2, a3, a4 = next(iter(solve_ptilde(frame, frame_img, CONFIG).candidates))
        mapped = np.kron(a1, a2) @ frame.reconstruct() @ np.kron(a3, a4).T
        _, resid = proportionality(frame_img.reconstruct(), mapped)
        assert resid < 1e-8
        LocalOperatorTuple((a1, a2, a3, a4))
