"""Unit tests for the inequivalence screens and tripartite classification."""

import numpy as np
import pytest

from slocceq.states import Bipartition, PureState, TripartiteState, apply_local_ops, make_state
from slocceq.invariants import (
    TriClassLabel,
    _tri_classes,
    classify_tripartite_qubit,
    first_violation,
    hyperdeterminant_222,
    invariant_screen,
)
from slocceq.catalog import random_orbit_case
from slocceq.decomposition import StateProfile
from slocceq.equivalence import check_tripartite_equiv
from slocceq.solver import SolverConfig
from slocceq.tensorops import sigma_rank

CUT_12_34 = Bipartition((1, 2), (3, 4))


def slices_of(state):
    t = state.tensor()
    return TripartiteState(t.shape[0], tuple(t[i] for i in range(t.shape[0])))


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def hyperdet_oracle(amps):
    """2x2x2 hyperdeterminant via the slice-pencil discriminant, from separate det calls.

    For slices A, B of the tensor, det(A + xB) is a quadratic in x whose
    discriminant is the hyperdeterminant up to the classical sign
    convention.
    """
    t = np.asarray(amps, dtype=complex).reshape(2, 2, 2)
    a, b = t[0], t[1]
    mu = np.linalg.det(a + b) - np.linalg.det(a) - np.linalg.det(b)
    return mu * mu - 4.0 * np.linalg.det(a) * np.linalg.det(b)


def cayley_hyperdet(amps):
    """Cayley's explicit degree-4 polynomial for the 2x2x2 hyperdeterminant."""
    t = np.asarray(amps, dtype=complex).reshape(2, 2, 2)
    t000, t001, t010, t011 = t[0, 0, 0], t[0, 0, 1], t[0, 1, 0], t[0, 1, 1]
    t100, t101, t110, t111 = t[1, 0, 0], t[1, 0, 1], t[1, 1, 0], t[1, 1, 1]
    return (
        t000**2 * t111**2
        + t001**2 * t110**2
        + t010**2 * t101**2
        + t011**2 * t100**2
        - 2
        * (
            t000 * t001 * t110 * t111
            + t000 * t010 * t101 * t111
            + t000 * t011 * t100 * t111
            + t001 * t010 * t101 * t110
            + t001 * t011 * t100 * t110
            + t010 * t011 * t100 * t101
        )
        + 4 * (t000 * t011 * t101 * t110 + t001 * t010 * t100 * t111)
    )


class TestHyperdeterminant:
    def test_equals_cayley_polynomial(self):
        rng = np.random.default_rng(43)
        scales = 10.0 ** rng.uniform(-6.0, 6.0, size=1000)
        scales[:2] = (1e-6, 1e6)
        for scale in scales:
            amps = scale * random_complex(rng, (8,))
            got, want = hyperdeterminant_222(amps), cayley_hyperdet(amps)
            assert abs(got - want) <= 1e-12 * np.linalg.norm(amps) ** 4

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

    def test_label_and_magnitude_are_scale_free(self):
        for name, label, magnitude in (("ghz3", TriClassLabel.GHZ_CLASS, 0.25), ("w3", TriClassLabel.W_CLASS, 0.0)):
            state = make_state(name)
            for e in (-300, -200, -80, -12, 12, 80, 200, 300):
                tri = classify_tripartite_qubit(PureState((2, 2, 2), state.amps * 10.0**e))
                assert tri.label is label, (name, e)
                assert abs(tri.hyperdet_magnitude - magnitude) < 1e-14, (name, e)

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


class TestStackedClasses:
    def test_stack_matches_one_state_at_a_time(self):
        rng = np.random.default_rng(43)
        basis = [make_state("ghz3"), make_state("w3")]
        for bits in ((0b000,), (0b000, 0b011), (0b000, 0b101), (0b000, 0b110)):
            amps = np.zeros(8, dtype=complex)
            amps[list(bits)] = 1.0
            basis.append(PureState((2, 2, 2), amps))
        states = [
            PureState((2, 2, 2), s.amps * scale)
            for s in basis
            for scale in (1.0, 1e-300, 1e300)
        ]
        states += [
            apply_local_ops(s, [random_complex(rng, (2, 2)) for _ in range(3)])
            for s in basis
            for _ in range(5)
        ]
        stacked = _tri_classes(np.stack([s.tensor() for s in states]), 1e-9)
        for state, got in zip(states, stacked):
            alone = classify_tripartite_qubit(state)
            assert got.label is alone.label
            assert got.marginal_ranks == alone.marginal_ranks
            assert np.float64(got.hyperdet_magnitude).tobytes() == np.float64(
                alone.hyperdet_magnitude
            ).tobytes()
            t = state.tensor()
            spectra = [np.linalg.svd(np.moveaxis(t, k, 0).reshape(2, 4), compute_uv=False) for k in range(3)]
            assert got.marginal_ranks == tuple(sigma_rank(s) for s in spectra)


class TestClassProof:
    def test_same_class_gives_none(self):
        ghz = classify_tripartite_qubit(make_state("ghz3")).label.value
        assert first_violation([("tripartite-class", "anywhere", ghz, ghz)]) is None
        t = slices_of(make_state("ghz3"))
        assert check_tripartite_equiv(t, t, SolverConfig(rng_seed=0)).proof is None

    def test_screen_and_tripartite_check_share_the_form(self):
        screen = invariant_screen(StateProfile((make_state("ghz4"), make_state("w4"))), CUT_12_34)
        assert screen.to_dict() == {
            "invariant": "tripartite-class",
            "location": "factor u at cut 12-34",
            "value_a": "GHZ_CLASS",
            "value_b": "W_CLASS",
            "description": "triple-state factor u at cut 12-34 classifies GHZ_CLASS vs W_CLASS",
        }
        assert screen == first_violation(
            [("tripartite-class", "factor u at cut 12-34", "GHZ_CLASS", "W_CLASS")]
        )
        tri = check_tripartite_equiv(
            slices_of(make_state("ghz3")), slices_of(make_state("w3")), SolverConfig(rng_seed=0)
        ).proof
        assert tri == first_violation(
            [("tripartite-class", "three-qubit states", "GHZ_CLASS", "W_CLASS")]
        )


def product_on(party, core):
    """|0> on ``party`` (1-based) times the three-qubit ``core`` on the other parties."""
    t = np.multiply.outer(np.array([1.0, 0.0]), core.tensor())
    return PureState((2, 2, 2, 2), np.moveaxis(t, 0, party - 1).reshape(-1))


class TestProofRule:
    """One builder makes every proof, and each proof's sentence comes from its values."""

    @pytest.mark.parametrize(
        "s1, s2, description",
        [
            (
                make_state("ghz4"),
                PureState((2, 2, 2, 2), np.eye(16)[0]),
                "bipartition rank at cut 12-34 differs: 2 vs 1",
            ),
            (
                product_on(1, make_state("ghz3")),
                product_on(2, make_state("ghz3")),
                "marginal rank of party 1 differs: 1 vs 2",
            ),
            (
                make_state("ghz4"),
                make_state("w4"),
                "triple-state factor u at cut 12-34 classifies GHZ_CLASS vs W_CLASS",
            ),
        ],
        ids=["bipartition-rank", "marginal-rank", "tripartite-class"],
    )
    def test_each_kind_reads_as_before(self, s1, s2, description):
        proof = invariant_screen(StateProfile((s1, s2)), CUT_12_34)
        assert proof.description == description
        assert proof.to_dict()["description"] == description

    def test_rows_are_read_up_to_the_first_difference(self):
        def rows():
            yield "bipartition-rank", "12-34", 2, 2
            yield "marginal-rank", "party 3", 2, 1
            raise AssertionError("read past the first difference")

        proof = first_violation(rows())
        assert (proof.invariant, proof.location, proof.value_a, proof.value_b) == (
            "marginal-rank", "party 3", 2, 1,
        )
        assert proof.description == "marginal rank of party 3 differs: 2 vs 1"


class TestInvariantScreen:
    def test_ghz4_vs_w4_tripartite_class_proof(self):
        proof = invariant_screen(StateProfile((make_state("ghz4"), make_state("w4"))), CUT_12_34)
        assert proof is not None
        assert proof.invariant == "tripartite-class"
        assert "GHZ_CLASS" in str(proof.value_a)
        assert "W_CLASS" in str(proof.value_b)

    def test_identical_states_pass(self):
        state = make_state("ghz4")
        assert invariant_screen(StateProfile((state, state)), CUT_12_34) is None

    def test_equivalent_pair_passes(self):
        cluster = make_state("cluster1d")
        psi2 = make_state("psi2_abcd", (0.6, 0.5, 0.4, 0.3))
        assert invariant_screen(StateProfile((cluster, psi2)), CUT_12_34) is None

    def test_rank_proof_against_product_state(self):
        amps = np.zeros(16, dtype=complex)
        amps[0b0000] = 1.0
        product = PureState((2, 2, 2, 2), amps)
        proof = invariant_screen(StateProfile((make_state("ghz4"), product)), CUT_12_34)
        assert proof is not None
        assert proof.invariant == "bipartition-rank"
        assert proof.value_a == 2
        assert proof.value_b == 1

    def test_marginal_rank_proof(self):
        amps = np.zeros(16, dtype=complex)
        amps[0b0000] = np.sqrt(0.5)
        amps[0b0111] = np.sqrt(0.5)
        embedded = PureState((2, 2, 2, 2), amps)
        proof = invariant_screen(StateProfile((make_state("ghz4"), embedded)), CUT_12_34)
        assert proof is not None
        assert proof.invariant in ("bipartition-rank", "marginal-rank")

    def test_dims_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            StateProfile((make_state("ghz4"), make_state("ghz3")))

    def test_profile_of_one_state_raises(self):
        with pytest.raises(ValueError, match="two states"):
            invariant_screen(StateProfile((make_state("ghz4"),)), CUT_12_34)

    def test_soundness_on_orbit_sample(self):
        for seed in range(100):
            state, image, _ = random_orbit_case((2, 2, 2, 2), seed, 20.0)
            assert invariant_screen(StateProfile((state, image)), CUT_12_34) is None

    def test_proof_serializes(self):
        proof = invariant_screen(StateProfile((make_state("ghz4"), make_state("w4"))), CUT_12_34)
        doc = proof.to_dict()
        assert doc["invariant"] == "tripartite-class"
        assert "location" in doc and "description" in doc
