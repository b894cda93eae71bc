"""Unit tests for the inequivalence screens and tripartite classification."""

import numpy as np
import pytest

from slocceq.states import Bipartition, PureState, apply_local_ops, make_state
from slocceq.invariants import (
    TriClassLabel,
    classify_tripartite_qubit,
    hyperdeterminant_222,
    invariant_screen,
)
from slocceq.catalog import random_orbit_case
from slocceq.decomposition import StateProfile

CUT_12_34 = Bipartition((1, 2), (3, 4))


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def hyperdet_oracle(amps):
    """Independent 2x2x2 hyperdeterminant via the slice-pencil discriminant.

    For slices A, B of the tensor, det(A + xB) is a quadratic in x whose
    discriminant is the hyperdeterminant up to the classical sign
    convention.
    """
    t = np.asarray(amps, dtype=complex).reshape(2, 2, 2)
    a, b = t[0], t[1]
    mu = np.linalg.det(a + b) - np.linalg.det(a) - np.linalg.det(b)
    return mu * mu - 4.0 * np.linalg.det(a) * np.linalg.det(b)


class TestHyperdeterminant:
    def test_ghz3_value(self):
        value = hyperdeterminant_222(make_state("ghz3").amps)
        assert abs(abs(value) - 0.25) < 1e-14

    def test_w3_vanishes(self):
        assert abs(hyperdeterminant_222(make_state("w3").amps)) < 1e-14

    def test_agrees_with_pencil_oracle(self):
        rng = np.random.default_rng(40)
        for _ in range(50):
            amps = random_complex(rng, (8,))
            lib = hyperdeterminant_222(amps)
            ora = hyperdet_oracle(amps)
            scale = max(abs(lib), abs(ora), 1e-30)
            assert min(abs(lib - ora), abs(lib + ora)) < 1e-12 * scale

    def test_scaling_law(self):
        rng = np.random.default_rng(41)
        state = make_state("ghz3")
        for _ in range(20):
            ops = [random_complex(rng, (2, 2)) for _ in range(3)]
            image = apply_local_ops(state, ops)
            factor = np.prod([np.linalg.det(op) ** 2 for op in ops])
            expected = factor * hyperdeterminant_222(state.amps)
            got = hyperdeterminant_222(image.amps)
            assert abs(got - expected) < 1e-10 * max(abs(expected), 1e-30)


class TestClassifyTripartite:
    def test_ghz3(self):
        tri = classify_tripartite_qubit(make_state("ghz3"))
        assert tri.label is TriClassLabel.GHZ_CLASS
        assert tri.marginal_ranks == (2, 2, 2)
        assert abs(tri.hyperdet_magnitude - 0.25) < 1e-14

    def test_w3(self):
        tri = classify_tripartite_qubit(make_state("w3"))
        assert tri.label is TriClassLabel.W_CLASS
        assert tri.marginal_ranks == (2, 2, 2)
        assert tri.hyperdet_magnitude < 1e-14

    def test_product(self):
        amps = np.zeros(8, dtype=complex)
        amps[0b000] = 1.0
        tri = classify_tripartite_qubit(PureState((2, 2, 2), amps))
        assert tri.label is TriClassLabel.PRODUCT
        assert tri.marginal_ranks == (1, 1, 1)

    def test_biseparable_first_party(self):
        amps = np.zeros(8, dtype=complex)
        amps[0b000] = amps[0b011] = np.sqrt(0.5)
        tri = classify_tripartite_qubit(PureState((2, 2, 2), amps))
        assert tri.label is TriClassLabel.BISEP_A_BC
        assert tri.marginal_ranks == (1, 2, 2)

    def test_biseparable_second_party(self):
        amps = np.zeros(8, dtype=complex)
        amps[0b000] = amps[0b101] = np.sqrt(0.5)
        tri = classify_tripartite_qubit(PureState((2, 2, 2), amps))
        assert tri.label is TriClassLabel.BISEP_B_AC

    def test_biseparable_third_party(self):
        amps = np.zeros(8, dtype=complex)
        amps[0b000] = amps[0b110] = np.sqrt(0.5)
        tri = classify_tripartite_qubit(PureState((2, 2, 2), amps))
        assert tri.label is TriClassLabel.BISEP_C_AB

    def test_wrong_dims_rejected(self):
        with pytest.raises(ValueError):
            classify_tripartite_qubit(make_state("ghz4"))

    def test_label_is_orbit_invariant(self):
        rng = np.random.default_rng(42)
        for name, label in (("ghz3", TriClassLabel.GHZ_CLASS),
                            ("w3", TriClassLabel.W_CLASS)):
            state = make_state(name)
            for _ in range(500):
                ops = [
                    random_complex(rng, (2, 2)) + 1.5 * np.eye(2)
                    for _ in range(3)
                ]
                image = apply_local_ops(state, ops)
                assert classify_tripartite_qubit(image).label is label


class TestInvariantScreen:
    def test_ghz4_vs_w4_tripartite_class_proof(self):
        proof = invariant_screen(
            StateProfile(make_state("ghz4")),
            StateProfile(make_state("w4")),
            CUT_12_34,
        )
        assert proof is not None
        assert proof.invariant == "tripartite-class"
        assert "GHZ_CLASS" in str(proof.value_a)
        assert "W_CLASS" in str(proof.value_b)

    def test_identical_states_pass(self):
        state = make_state("ghz4")
        assert invariant_screen(
            StateProfile(state),
            StateProfile(state),
            CUT_12_34,
        ) is None

    def test_equivalent_pair_passes(self):
        cluster = make_state("cluster1d")
        psi2 = make_state("psi2_abcd", (0.6, 0.5, 0.4, 0.3))
        assert invariant_screen(
            StateProfile(cluster),
            StateProfile(psi2),
            CUT_12_34,
        ) is None

    def test_rank_proof_against_product_state(self):
        amps = np.zeros(16, dtype=complex)
        amps[0b0000] = 1.0
        product = PureState((2, 2, 2, 2), amps)
        proof = invariant_screen(
            StateProfile(make_state("ghz4")),
            StateProfile(product),
            CUT_12_34,
        )
        assert proof is not None
        assert proof.invariant == "bipartition-rank"
        assert proof.value_a == 2
        assert proof.value_b == 1

    def test_marginal_rank_proof(self):
        amps = np.zeros(16, dtype=complex)
        amps[0b0000] = np.sqrt(0.5)
        amps[0b0111] = np.sqrt(0.5)
        embedded = PureState((2, 2, 2, 2), amps)
        proof = invariant_screen(
            StateProfile(make_state("ghz4")),
            StateProfile(embedded),
            CUT_12_34,
        )
        assert proof is not None
        assert proof.invariant in ("bipartition-rank", "marginal-rank")

    def test_dims_mismatch_raises(self):
        with pytest.raises(ValueError):
            invariant_screen(
                StateProfile(make_state("ghz4")),
                StateProfile(make_state("ghz3")),
                CUT_12_34,
            )

    def test_rtol_mismatch_raises(self):
        state = make_state("ghz4")
        with pytest.raises(ValueError):
            invariant_screen(
                StateProfile(state, 1e-9),
                StateProfile(state, 1e-6),
                CUT_12_34,
            )

    def test_soundness_on_orbit_sample(self):
        for seed in range(100):
            state, image, _ = random_orbit_case((2, 2, 2, 2), seed, 20.0)
            assert invariant_screen(
                StateProfile(state),
                StateProfile(image),
                CUT_12_34,
            ) is None

    def test_proof_serializes(self):
        proof = invariant_screen(
            StateProfile(make_state("ghz4")),
            StateProfile(make_state("w4")),
            CUT_12_34,
        )
        doc = proof.to_dict()
        assert doc["invariant"] == "tripartite-class"
        assert "location" in doc and "description" in doc
