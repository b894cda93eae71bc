"""Known operators between catalog states, and reproducible random orbits.

``cluster_pair_operators`` gives the closed-form certificate between the
one-dimensional cluster state and its four-parameter partner. The random
generators produce plant-and-recover instances: a state, its image under
known invertible local operators, and the operators themselves.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .states import LocalOperatorTuple, PureState, contract_local_ops
from .tensorops import qr

__all__ = [
    "cluster_pair_operators",
    "random_invertible_ops",
    "random_orbit_case",
]

DEFAULT_CONDITION_CAP = 20.0


def cluster_pair_operators(a: float, b: float, c: float, d: float) -> LocalOperatorTuple:
    """Closed-form operators mapping ``psi2_abcd(a, b, c, d)`` onto ``cluster1d``.

    All four parameters must be nonzero. The branch of the square root is
    immaterial: both choices give a valid certificate.
    """
    for name, value in (("a", a), ("b", b), ("c", c), ("d", d)):
        if value == 0:
            raise ValueError(f"parameter {name} must be nonzero")
    beta = np.sqrt(complex(a * d) / complex(b * c))
    ratio = a / (c * beta)
    a1 = 0.5 * np.array([[1.0, -ratio], [1.0, ratio]], dtype=complex)
    a2 = np.diag([1.0, -1.0]).astype(complex)
    a3 = 0.5 * np.array([[1.0, beta], [1.0, -beta]], dtype=complex)
    a4 = np.diag([1.0 / a, 1.0 / (b * beta)]).astype(complex)
    return LocalOperatorTuple((a1, a2, a3, a4))


def _haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    ginibre = (
        rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    ) / np.sqrt(2.0)
    q, _ = qr(ginibre)
    return q


def random_invertible_ops(dims, seed, condition_cap: float = DEFAULT_CONDITION_CAP) -> LocalOperatorTuple:
    """Random invertible operator per party with bounded condition number.

    Each operator is built from two independent Haar-random unitaries and
    singular values drawn uniformly from [1/cap, 1], so its condition
    number is at most ``condition_cap``. ``seed`` is anything acceptable to
    :func:`numpy.random.default_rng`.
    """
    if condition_cap <= 1.0:
        raise ValueError("condition cap must exceed 1")
    rng = np.random.default_rng(seed)
    mats = []
    for d in dims:
        u1 = _haar_unitary(rng, d)
        u2 = _haar_unitary(rng, d)
        svals = rng.uniform(1.0 / condition_cap, 1.0, size=d)
        mats.append(u1 @ np.diag(svals).astype(complex) @ u2.conj().T)
    return LocalOperatorTuple(tuple(mats))


def random_orbit_case(
    dims,
    seed: int,
    operator_condition_cap: float = DEFAULT_CONDITION_CAP,
) -> Tuple[PureState, PureState, LocalOperatorTuple]:
    """Plant-and-recover instance: state, orbit image, planted operators.

    Draws a Haar-like random normalized state on ``dims``, random
    invertible local operators with condition numbers at most the cap, and
    returns ``(state, image, ops)`` with ``image = ops`` applied to
    ``state``. Identical seeds give bit-identical output.
    """
    dims = tuple(int(d) for d in dims)
    rng = np.random.default_rng((seed, 0))
    total = int(np.prod(dims))
    amps = (rng.standard_normal(total) + 1j * rng.standard_normal(total)) / np.sqrt(2.0)
    amps = amps / np.linalg.norm(amps)
    state = PureState(dims, amps)
    ops = random_invertible_ops(dims, (seed, 1), operator_condition_cap)
    image = PureState(dims, contract_local_ops(state.amps, dims, ops.ops))
    return state, image, ops
