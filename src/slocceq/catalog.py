"""Golden regression cases and reproducible random-orbit generators.

The golden cases bind the named catalog states to their expected verdicts,
singular spectra, and explicit operator certificates, so regressions in any
pipeline stage surface as concrete case failures. The random generators
produce plant-and-recover instances: a state, its image under known
invertible local operators, and the operators themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .equivalence import DEFAULT_VERIFY_TOL, EquivalenceStatus
from .states import (
    Bipartition,
    LocalOperatorTuple,
    PureState,
    STANDARD_CUTS,
    contract_local_ops,
    make_state,
)
from .tensorops import qr

__all__ = [
    "GoldenCase",
    "golden_cases",
    "cluster_pair_operators",
    "random_invertible_ops",
    "random_orbit_case",
]

DEFAULT_CONDITION_CAP = 20.0


@dataclass(frozen=True, eq=False)
class GoldenCase:
    """One pinned regression case.

    Exactly the fields relevant to the case are populated: pair cases set
    ``state_b`` and ``expected_status``; spectrum cases set
    ``expected_spectrum`` (descending singular values of ``state_a`` across
    ``cut``) and optionally ``expected_u_span`` (matrices spanning the
    row-side slice space); operator cases set ``operators``, an explicit
    certificate mapping ``state_b`` onto ``state_a``. Every case runs in
    well under 30 seconds with the default solver configuration.
    """

    name: str
    cut: Bipartition
    state_a: PureState
    state_b: Optional[PureState] = None
    expected_status: Optional[EquivalenceStatus] = None
    expected_spectrum: Optional[Tuple[float, ...]] = None
    expected_u_span: Optional[Tuple[np.ndarray, ...]] = None
    operators: Optional[LocalOperatorTuple] = None
    tolerance: float = DEFAULT_VERIFY_TOL


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


def golden_cases() -> Tuple[GoldenCase, ...]:
    """Pinned regression cases covering every decision path.

    Includes the GHZ-vs-W inequivalence, two parameter-family equivalences
    (proportional and sign-flipped parameters), the one-dimensional cluster
    state against its four-parameter partner, two singular-spectrum cases,
    and the explicit operator certificate for the cluster pair.
    """
    cut = STANDARD_CUTS[0]
    ghz4 = make_state("ghz4")
    w4 = make_state("w4")
    cluster = make_state("cluster1d")
    psi2 = make_state("psi2_abcd", (0.6, 0.5, 0.4, 0.3))
    half = 1.0 / np.sqrt(2.0)
    e_corner = np.zeros((2, 2), dtype=complex)
    e_corner[0, 0] = 1.0
    f_corner = np.zeros((2, 2), dtype=complex)
    f_corner[1, 1] = 1.0
    return (
        GoldenCase(
            name="ghz-vs-w",
            cut=cut,
            state_a=ghz4,
            state_b=w4,
            expected_status=EquivalenceStatus.INEQUIVALENT,
        ),
        GoldenCase(
            name="abcd-proportional",
            cut=cut,
            state_a=make_state("psi_abcd", (1.0, 2.0, 3.0, 4.0)),
            state_b=make_state("psi_abcd", (2.0, 4.0, 6.0, 8.0)),
            expected_status=EquivalenceStatus.EQUIVALENT,
        ),
        GoldenCase(
            name="abcd-sign-flip",
            cut=cut,
            state_a=make_state("psi_abcd", (1.0, 2.0, 3.0, 4.0)),
            state_b=make_state("psi_abcd", (1.0, 2.0, -3.0, -4.0)),
            expected_status=EquivalenceStatus.EQUIVALENT,
        ),
        GoldenCase(
            name="cluster-1d-vs-2d",
            cut=cut,
            state_a=cluster,
            state_b=psi2,
            expected_status=EquivalenceStatus.EQUIVALENT,
        ),
        GoldenCase(
            name="ghz-lambda",
            cut=cut,
            state_a=ghz4,
            expected_spectrum=(half, half),
            expected_u_span=(e_corner, f_corner),
        ),
        GoldenCase(
            name="cluster-lambda",
            cut=cut,
            state_a=cluster,
            expected_spectrum=(0.5, 0.5, 0.5, 0.5),
        ),
        GoldenCase(
            name="cluster-ops",
            cut=cut,
            state_a=cluster,
            state_b=psi2,
            expected_status=EquivalenceStatus.EQUIVALENT,
            operators=cluster_pair_operators(0.6, 0.5, 0.4, 0.3),
        ),
    )


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
