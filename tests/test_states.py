"""Unit tests for state types, the named catalog, and state file I/O."""

import json

import numpy as np
import pytest

from slocceq.states import (
    Bipartition,
    LocalOperatorTuple,
    PureState,
    STANDARD_CUTS,
    TripartiteState,
    apply_local_ops,
    make_state,
    read_state_file,
    write_state_file,
)

INV_SQRT2 = np.sqrt(0.5)


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestPureState:
    def test_amplitude_count_must_match_dims(self):
        with pytest.raises(ValueError):
            PureState((2, 2), np.zeros(5, dtype=complex))

    def test_zero_state_rejected(self):
        with pytest.raises(ValueError):
            PureState((2, 2), np.zeros(4, dtype=complex))

    def test_dims_below_two_rejected(self):
        with pytest.raises(ValueError):
            PureState((2, 1), np.ones(2, dtype=complex))

    def test_tensor_reshapes_last_index_fastest(self):
        amps = np.arange(1, 9, dtype=complex)
        state = PureState((2, 2, 2), amps)
        assert state.tensor()[1, 0, 1] == amps[0b101]

    def test_amps_are_immutable(self):
        state = make_state("ghz4")
        with pytest.raises(ValueError):
            state.amps[0] = 9.0


class TestCatalog:
    def test_ghz4_amplitudes(self):
        amps = make_state("ghz4").amps
        expected = np.zeros(16, dtype=complex)
        expected[0b0000] = INV_SQRT2
        expected[0b1111] = INV_SQRT2
        assert np.array_equal(amps, expected)

    def test_w4_amplitudes(self):
        amps = make_state("w4").amps
        expected = np.zeros(16, dtype=complex)
        for idx in (0b0001, 0b0010, 0b0100, 0b1000):
            expected[idx] = 0.5
        assert np.array_equal(amps, expected)

    def test_ghz3_amplitudes(self):
        amps = make_state("ghz3").amps
        expected = np.zeros(8, dtype=complex)
        expected[0b000] = INV_SQRT2
        expected[0b111] = INV_SQRT2
        assert np.array_equal(amps, expected)

    def test_w3_amplitudes(self):
        amps = make_state("w3").amps
        expected = np.zeros(8, dtype=complex)
        for idx in (0b001, 0b010, 0b100):
            expected[idx] = 1.0 / np.sqrt(3.0)
        assert np.array_equal(amps, expected)

    def test_cluster1d_amplitudes(self):
        amps = make_state("cluster1d").amps
        expected = np.zeros(16, dtype=complex)
        expected[0b0000] = 0.5
        expected[0b0101] = 0.5
        expected[0b1010] = 0.5
        expected[0b1111] = -0.5
        assert np.array_equal(amps, expected)

    def test_psi2_half_parameters(self):
        amps = make_state("psi2_abcd", (0.5, 0.5, 0.5, 0.5)).amps
        expected = np.zeros(16, dtype=complex)
        expected[0b0000] = 0.5
        expected[0b0111] = -0.5
        expected[0b1010] = -0.5
        expected[0b1101] = 0.5
        assert np.array_equal(amps, expected)

    def test_psi_abcd_pattern(self):
        a, b, c, d = 1.0, 2.0, 3.0, 4.0
        amps = make_state("psi_abcd", (a, b, c, d)).amps
        expected = np.zeros(16, dtype=complex)
        expected[0b0000] = expected[0b1111] = (a + d) / 2
        expected[0b0011] = expected[0b1100] = (a - d) / 2
        expected[0b0101] = expected[0b1010] = (b + c) / 2
        expected[0b0110] = expected[0b1001] = (b - c) / 2
        assert np.array_equal(amps, expected)

    def test_catalog_states_are_normalized(self):
        for name in ("ghz4", "w4", "ghz3", "w3", "cluster1d"):
            assert abs(np.linalg.norm(make_state(name).amps) - 1.0) < 1e-12

    def test_parameterized_states_not_renormalized(self):
        state = make_state("psi2_abcd", (3.0, 0.1, 0.1, 0.1))
        assert np.linalg.norm(state.amps) > 2.9

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_state("nosuchstate")

    def test_wrong_parameter_count_rejected(self):
        with pytest.raises(ValueError):
            make_state("psi_abcd", (1.0, 2.0))

    def test_all_zero_parameters_rejected(self):
        with pytest.raises(ValueError):
            make_state("psi2_abcd", (0.0, 0.0, 0.0, 0.0))


class TestBipartition:
    def test_label_format(self):
        assert Bipartition((1, 2), (3, 4)).label == "12-34"
        assert Bipartition((1, 4), (2, 3)).label == "14-23"

    def test_standard_cuts(self):
        assert tuple(cut.label for cut in STANDARD_CUTS) == (
            "12-34",
            "13-24",
            "14-23",
        )

    def test_partition_must_cover_all_parties(self):
        with pytest.raises(ValueError):
            Bipartition((1, 2), (3, 3))


class TestLocalOperatorTuple:
    def test_singular_operator_rejected(self):
        mats = [np.eye(2, dtype=complex)] * 3 + [np.zeros((2, 2), dtype=complex)]
        with pytest.raises(ValueError):
            LocalOperatorTuple(tuple(mats))

    @pytest.mark.parametrize("count", [2, 3, 4])
    def test_one_operator_per_party_of_two_to_four(self, count):
        mats = [np.eye(2, dtype=complex)] * (count - 1) + [np.eye(3, dtype=complex)]
        assert len(LocalOperatorTuple(tuple(mats)).ops) == count

    @pytest.mark.parametrize("count", [0, 1, 5])
    def test_other_operator_counts_rejected(self, count):
        with pytest.raises(ValueError, match="expected 2 to 4 operators"):
            LocalOperatorTuple((np.eye(2, dtype=complex),) * count)

    def test_singular_operator_named_among_three(self):
        mats = [np.eye(2), np.eye(2), np.diag([1.0, 1e-13])]
        with pytest.raises(ValueError, match="operator 3 is numerically singular"):
            LocalOperatorTuple(tuple(mats))

    def test_non_square_rejected(self):
        mats = [np.eye(2, dtype=complex)] * 3 + [np.ones((2, 3), dtype=complex)]
        with pytest.raises(ValueError):
            LocalOperatorTuple(tuple(mats))

    def test_singular_operator_named_among_mixed_shapes(self):
        rng = np.random.default_rng(22)
        singular = np.outer(random_complex(rng, (3,)), random_complex(rng, (3,)))
        mats = [random_complex(rng, (2, 2)), random_complex(rng, (2, 2)), singular, np.eye(3)]
        with pytest.raises(ValueError, match="operator 3 is numerically singular"):
            LocalOperatorTuple(tuple(mats))


class TestApplyLocalOps:
    def test_identity_fixes_state(self):
        state = make_state("ghz4")
        ops = [np.eye(2, dtype=complex)] * 4
        assert np.array_equal(apply_local_ops(state, ops).amps, state.amps)

    def test_ghz_bit_flip_symmetry(self):
        state = make_state("ghz4")
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        image = apply_local_ops(state, [x, x, x, x])
        assert np.allclose(image.amps, state.amps, atol=1e-15)

    def test_composition_is_multiplicative(self):
        rng = np.random.default_rng(21)
        state = PureState((2, 2, 2, 2), random_complex(rng, (16,)))
        first = [random_complex(rng, (2, 2)) for _ in range(4)]
        second = [random_complex(rng, (2, 2)) for _ in range(4)]
        two_step = apply_local_ops(apply_local_ops(state, first), second)
        combined = apply_local_ops(state, [s @ f for s, f in zip(second, first)])
        scale = np.linalg.norm(combined.amps)
        assert np.linalg.norm(two_step.amps - combined.amps) < 1e-12 * scale

    def test_single_party_action(self):
        state = make_state("ghz4")
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        eye = np.eye(2, dtype=complex)
        image = apply_local_ops(state, [x, eye, eye, eye])
        expected = np.zeros(16, dtype=complex)
        expected[0b1000] = INV_SQRT2
        expected[0b0111] = INV_SQRT2
        assert np.allclose(image.amps, expected, atol=1e-15)


class TestTripartiteState:
    def test_slice_shape_consistency(self):
        slices = (np.eye(2, dtype=complex), np.ones((2, 3), dtype=complex))
        with pytest.raises(ValueError):
            TripartiteState(2, slices)

    def test_dims_and_amps_read_like_a_pure_state(self):
        stack = np.arange(18, dtype=complex).reshape(3, 2, 3) + 1
        t = TripartiteState(3, tuple(stack))
        assert t.dims == (3, 2, 3)
        assert np.array_equal(t.amps, PureState((3, 2, 3), stack.reshape(-1)).amps)
        assert TripartiteState(1, (np.eye(2),)).dims == (1, 2, 2)


class TestStateFiles:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(22)
        state = PureState((2, 3, 2), random_complex(rng, (12,)))
        path = tmp_path / "state.json"
        write_state_file(path, state)
        loaded = read_state_file(path)
        assert loaded.dims == state.dims
        assert np.array_equal(loaded.amps, state.amps)

    def test_write_read_catalog(self, tmp_path):
        path = tmp_path / "ghz.state"
        write_state_file(path, make_state("ghz4"))
        loaded = read_state_file(path)
        assert np.array_equal(loaded.amps, make_state("ghz4").amps)

    def test_missing_dims_field(self, tmp_path):
        path = tmp_path / "bad.state"
        path.write_text(json.dumps({"amps": [[1.0, 0.0]]}))
        with pytest.raises(ValueError, match="dims"):
            read_state_file(path)

    def test_missing_amps_field(self, tmp_path):
        path = tmp_path / "bad.state"
        path.write_text(json.dumps({"dims": [2, 2]}))
        with pytest.raises(ValueError, match="amps"):
            read_state_file(path)

    def test_malformed_amp_entry(self, tmp_path):
        path = tmp_path / "bad.state"
        path.write_text(json.dumps({"dims": [2], "amps": [[1.0], [0.0]]}))
        with pytest.raises(ValueError):
            read_state_file(path)

    @pytest.mark.parametrize("entry", [[None, 0.0], ["1.0", 0.0], [[1.0], 0.0]])
    def test_non_number_amp_entry(self, tmp_path, entry):
        path = tmp_path / "bad.state"
        path.write_text(json.dumps({"dims": [2, 2], "amps": [entry] + [[0.0, 0.0]] * 3}))
        with pytest.raises(ValueError, match="'amps'"):
            read_state_file(path)

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"dims": [2, 2], "amps": [[True, False]] + [[0, 0]] * 3}, "amplitude 0 in 'amps'"),
            ({"dims": [2, True], "amps": [[1, 0]] * 2}, "'dims' must hold integers"),
        ],
    )
    def test_booleans_are_not_numbers(self, tmp_path, doc, field):
        path = tmp_path / "bool.state"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=field):
            read_state_file(path)

    def test_amplitude_beyond_float_range(self, tmp_path):
        path = tmp_path / "huge.state"
        path.write_text(json.dumps({"dims": [2, 2], "amps": [[10**400, 0]] + [[0, 0]] * 3}))
        with pytest.raises(ValueError, match="amplitude 0 in 'amps'"):
            read_state_file(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.state"
        path.write_text("not a state")
        with pytest.raises(ValueError):
            read_state_file(path)


class TestNonFiniteEntries:
    """nan and inf are rejected where the containers are built, with a ValueError."""

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0.0, np.nan)])
    def test_pure_state(self, bad):
        amps = make_state("ghz4").amps.copy()
        amps[3] = bad
        with pytest.raises(ValueError, match="amps must be finite"):
            PureState((2, 2, 2, 2), amps)

    def test_tripartite_state(self):
        slices = (np.eye(2, dtype=complex), np.array([[np.inf, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="slices must be finite"):
            TripartiteState(2, slices)

    def test_local_operator_tuple(self):
        mats = [np.eye(2)] * 4
        mats[1] = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(ValueError, match="operator 2 has nan or inf entries"):
            LocalOperatorTuple(tuple(mats))

    def test_state_file_amplitude(self, tmp_path):
        path = tmp_path / "nan.state"
        amps = [[0.0, 0.0]] * 16
        amps[0] = [float("nan"), 0.0]
        path.write_text(json.dumps({"dims": [2, 2, 2, 2], "amps": amps}))
        with pytest.raises(ValueError, match="amps"):
            read_state_file(path)

    @pytest.mark.parametrize("dims", [[2, float("inf")], [2, float("nan")], [2, 2.5]])
    def test_state_file_dims(self, tmp_path, dims):
        path = tmp_path / "dims.state"
        path.write_text(json.dumps({"dims": dims, "amps": [[1.0, 0.0]] * 4}))
        with pytest.raises(ValueError, match="'dims' must hold integers"):
            read_state_file(path)
