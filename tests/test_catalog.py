"""Closed-form cluster-pair operators and random-orbit generator tests."""

import numpy as np
import pytest

from slocceq.catalog import (
    cluster_pair_operators,
    random_invertible_ops,
    random_orbit_case,
)
from slocceq.equivalence import verify_equivalence
from slocceq.states import make_state


class TestClusterPairOperators:
    def test_explicit_certificate_verifies(self):
        a, b, c, d = 0.6, 0.5, 0.4, 0.3
        ops = cluster_pair_operators(a, b, c, d)
        ok, _, resid = verify_equivalence(
            make_state("cluster1d"), make_state("psi2_abcd", (a, b, c, d)), ops
        )
        assert ok
        assert resid < 1e-12

    def test_other_parameter_points(self):
        for params in [(1.0, 1.0, 1.0, 1.0), (0.9, 0.2, 0.35, 0.8)]:
            ops = cluster_pair_operators(*params)
            ok, _, resid = verify_equivalence(
                make_state("cluster1d"), make_state("psi2_abcd", params), ops
            )
            assert ok, params
            assert resid < 1e-12, params

    def test_zero_parameter_rejected(self):
        with pytest.raises(ValueError):
            cluster_pair_operators(0.6, 0.0, 0.4, 0.3)


class TestRandomInvertibleOps:
    def test_condition_cap_respected(self):
        for seed in range(20):
            ops = random_invertible_ops((2, 2, 3, 3), seed, 20.0)
            for mat in ops.ops:
                assert np.linalg.cond(mat) <= 20.0 + 1e-9

    def test_near_unit_cap_gives_near_unitaries(self):
        ops = random_invertible_ops((2, 2, 2, 2), 0, 1.0001)
        for mat in ops.ops:
            gram = mat.conj().T @ mat
            scale = np.trace(gram).real / mat.shape[0]
            assert np.linalg.norm(gram - scale * np.eye(mat.shape[0])) < 1e-3

    def test_cap_guard(self):
        with pytest.raises(ValueError):
            random_invertible_ops((2, 2, 2, 2), 0, 1.0)


class TestRandomOrbitCase:
    def test_reproducible_bit_identical(self):
        s1, i1, o1 = random_orbit_case((2, 2, 2, 2), 42, 20.0)
        s2, i2, o2 = random_orbit_case((2, 2, 2, 2), 42, 20.0)
        assert np.array_equal(s1.amps, s2.amps)
        assert np.array_equal(i1.amps, i2.amps)
        for m1, m2 in zip(o1.ops, o2.ops):
            assert np.array_equal(m1, m2)

    def test_distinct_seeds_differ(self):
        s1, _, _ = random_orbit_case((2, 2, 2, 2), 0, 20.0)
        s2, _, _ = random_orbit_case((2, 2, 2, 2), 1, 20.0)
        assert not np.allclose(s1.amps, s2.amps)

    def test_image_is_planted_orbit(self):
        for dims in [(2, 2, 2, 2), (2, 2, 3, 3)]:
            state, image, ops = random_orbit_case(dims, 5, 20.0)
            assert state.dims == dims and image.dims == dims
            ok, scalar, resid = verify_equivalence(image, state, ops)
            assert ok
            assert abs(scalar - 1.0) < 1e-10
            assert resid < 1e-12

    def test_state_normalized(self):
        state, _, _ = random_orbit_case((2, 2, 2, 2), 8, 20.0)
        assert abs(state.norm() - 1.0) < 1e-12
