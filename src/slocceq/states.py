"""State containers, the named example catalog, and state file round-trips.

Amplitude layout is fixed package-wide: amplitudes are ordered
lexicographically by party multi-index with the LAST index varying
fastest, so for qubit registers ``amps[k]`` belongs to the bit string of
``k``. Every container is an immutable value; operations return new
objects.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .tensorops import sigma_ratio

# Reject only clearly singular operators at construction time; quality
# control for recovered operators happens at verification.
OPERATOR_INVERTIBILITY_RTOL = 1e-12

_INV_SQRT2 = math.sqrt(0.5)
_INV_SQRT3 = 1.0 / math.sqrt(3.0)


@dataclass(frozen=True, eq=False)
class PureState:
    """Pure state of 2, 3 or 4 finite-dimensional parties.

    Parameters
    ----------
    dims : sequence of int
        Party dimensions, each at least 2.
    amps : sequence of complex
        Amplitudes in last-index-fastest order; must not be all zero.
    """

    dims: tuple[int, ...]
    amps: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) not in (2, 3, 4):
            raise ValueError(f"expected 2 to 4 parties, got {len(dims)}")
        if any(d < 2 for d in dims):
            raise ValueError(f"every party dimension must be at least 2, got {dims}")
        amps = np.array(self.amps, dtype=complex).reshape(-1)
        if amps.size != math.prod(dims):
            raise ValueError(
                f"amplitude count {amps.size} does not match dims {dims}"
            )
        if not np.isfinite(amps).all():
            raise ValueError("amps must be finite: no nan or inf entries")
        if not np.any(amps):
            raise ValueError("state vector must be nonzero")
        amps.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amps", amps)

    @property
    def num_parties(self) -> int:
        return len(self.dims)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per party."""
        return self.amps.reshape(self.dims)


@dataclass(frozen=True, eq=False)
class TripartiteState:
    """Tripartite state as a tuple of matrix slices along the first party.

    ``slices[i]`` is the coefficient matrix for first-party basis vector
    ``i``; rows index the second party, columns the third.
    """

    r_dim: int
    slices: tuple[np.ndarray, ...]

    def __post_init__(self):
        slices = tuple(np.array(s, dtype=complex) for s in self.slices)
        if len(slices) != self.r_dim:
            raise ValueError(
                f"r_dim {self.r_dim} does not match slice count {len(slices)}"
            )
        if not slices:
            raise ValueError("at least one slice required")
        shape = slices[0].shape
        if len(shape) != 2:
            raise ValueError("slices must be matrices")
        for s in slices:
            if s.shape != shape:
                raise ValueError("all slices must share dimensions")
            if not np.isfinite(s).all():
                raise ValueError("slices must be finite: no nan or inf entries")
            s.flags.writeable = False
        object.__setattr__(self, "r_dim", int(self.r_dim))
        object.__setattr__(self, "slices", slices)

    @property
    def slice_shape(self) -> tuple[int, int]:
        return self.slices[0].shape

    @property
    def dims(self) -> tuple[int, int, int]:
        """Party dimensions ``(r_dim, rows, cols)``, the slice index first."""
        return (self.r_dim, *self.slice_shape)

    @property
    def amps(self) -> np.ndarray:
        """The stacked slices flattened, last index fastest, as for a :class:`PureState`."""
        return self.stacked().reshape(-1)

    def stacked(self) -> np.ndarray:
        """All slices as one ``(r_dim, rows, cols)`` array."""
        return np.stack(self.slices)


@dataclass(frozen=True)
class Bipartition:
    """Ordered split of four parties into a row pair and a column pair.

    The order inside each pair is preserved; it fixes the multi-index
    layout of the flattened matrix.
    """

    left: tuple[int, int]
    right: tuple[int, int]

    def __post_init__(self):
        left = tuple(int(p) for p in self.left)
        right = tuple(int(p) for p in self.right)
        if sorted(left + right) != [1, 2, 3, 4]:
            raise ValueError(
                f"bipartition must split parties 1..4, got {left} | {right}"
            )
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @property
    def label(self) -> str:
        return "{}{}-{}{}".format(*self.left, *self.right)


STANDARD_CUTS = (
    Bipartition((1, 2), (3, 4)),
    Bipartition((1, 3), (2, 4)),
    Bipartition((1, 4), (2, 3)),
)


@dataclass(frozen=True, eq=False)
class LocalOperatorTuple:
    """Invertible square operators, one per party of a 2- to 4-party state.

    This is the package's one invertibility rule: an operator whose
    ``sigma_min / sigma_max`` is at most ``OPERATOR_INVERTIBILITY_RTOL``
    is rejected, and the error names it. Every certificate, recovered or
    read from a file, is built through it.
    """

    ops: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(np.array(m, dtype=complex) for m in self.ops)
        if len(ops) not in (2, 3, 4):
            raise ValueError(f"expected 2 to 4 operators, got {len(ops)}")
        for k, m in enumerate(ops):
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError(f"operator {k + 1} is not square: shape {m.shape}")
            if not np.isfinite(m).all():
                raise ValueError(f"operator {k + 1} has nan or inf entries")
        # One stacked SVD call per operator shape.
        spectra = {}
        for shape in {m.shape for m in ops}:
            ks = [k for k, m in enumerate(ops) if m.shape == shape]
            stacked = np.stack([ops[k] for k in ks])
            spectra.update(zip(ks, np.linalg.svd(stacked, compute_uv=False)))
        for k, m in enumerate(ops):
            s = spectra[k]
            if sigma_ratio(s) <= OPERATOR_INVERTIBILITY_RTOL:
                raise ValueError(
                    f"operator {k + 1} is numerically singular "
                    f"(condition {s[0] / max(s[-1], np.finfo(float).tiny):.3e})"
                )
            m.flags.writeable = False
        object.__setattr__(self, "ops", ops)


def contract_local_ops(
    amps: np.ndarray,
    dims: Sequence[int],
    mats: Sequence[np.ndarray],
) -> np.ndarray:
    """Low-level one-operator-per-party contraction on a raw amplitude vector.

    Performs no invertibility or zero-result checks; callers that need a
    valid :class:`PureState` should go through :func:`apply_local_ops`.
    """
    dims = tuple(int(d) for d in dims)
    mats = tuple(np.asarray(m, dtype=complex) for m in mats)
    if len(mats) != len(dims):
        raise ValueError(f"{len(mats)} operators supplied for {len(dims)} parties")
    for k, m in enumerate(mats):
        if m.shape != (dims[k], dims[k]):
            raise ValueError(
                f"operator {k + 1} has shape {m.shape}, party dimension is {dims[k]}"
            )
    t = np.asarray(amps, dtype=complex).reshape(dims)
    for k, m in enumerate(mats):
        t = np.moveaxis(np.tensordot(m, t, axes=([1], [k])), 0, k)
    return t.reshape(-1)


def apply_local_ops(
    state: PureState,
    ops: Union[LocalOperatorTuple, Sequence[np.ndarray]],
) -> PureState:
    """Contract one operator onto each party of the state.

    Accepts a :class:`LocalOperatorTuple` or any sequence of square
    matrices matching the party count. The result is not renormalized.
    """
    mats = ops.ops if isinstance(ops, LocalOperatorTuple) else ops
    return PureState(state.dims, contract_local_ops(state.amps, state.dims, mats))


def _qubit_state(n_parties: int, entries: dict[int, complex]) -> PureState:
    amps = np.zeros(2**n_parties, dtype=complex)
    for idx, val in entries.items():
        amps[idx] = val
    return PureState((2,) * n_parties, amps)


def _require_params(name: str, params, count: int):
    if count == 0:
        if params:
            raise ValueError(f"state '{name}' takes no parameters")
        return ()
    if params is None or len(params) != count:
        got = 0 if params is None else len(params)
        raise ValueError(f"state '{name}' requires {count} parameters, got {got}")
    vals = tuple(complex(p) for p in params)
    if all(v == 0 for v in vals):
        raise ValueError(f"state '{name}' parameters must not be all zero")
    return vals


def _psi_abcd(a, b, c, d) -> PureState:
    return _qubit_state(
        4,
        {
            0b0000: (a + d) / 2,
            0b0011: (a - d) / 2,
            0b0101: (b + c) / 2,
            0b0110: (b - c) / 2,
            0b1001: (b - c) / 2,
            0b1010: (b + c) / 2,
            0b1100: (a - d) / 2,
            0b1111: (a + d) / 2,
        },
    )


# Each catalog name's parameter count and builder, which takes that many complex numbers.
_CATALOG = {
    "ghz4": (0, lambda: _qubit_state(4, {0b0000: _INV_SQRT2, 0b1111: _INV_SQRT2})),
    "w4": (0, lambda: _qubit_state(4, {0b0001: 0.5, 0b0010: 0.5, 0b0100: 0.5, 0b1000: 0.5})),
    "ghz3": (0, lambda: _qubit_state(3, {0b000: _INV_SQRT2, 0b111: _INV_SQRT2})),
    "w3": (0, lambda: _qubit_state(3, {0b001: _INV_SQRT3, 0b010: _INV_SQRT3, 0b100: _INV_SQRT3})),
    "cluster1d": (0, lambda: _qubit_state(4, {0b0000: 0.5, 0b0101: 0.5, 0b1010: 0.5, 0b1111: -0.5})),
    "psi_abcd": (4, _psi_abcd),
    "psi2_abcd": (4, lambda a, b, c, d: _qubit_state(4, {0b0000: a, 0b0111: -b, 0b1010: -c, 0b1101: d})),
}


def make_state(name: str, params: Sequence[complex] = ()) -> PureState:
    """Build the catalog state ``name``, one of the keys of ``_CATALOG``.

    The parameterized families take their parameters literally: they are
    not renormalized.
    """
    if name not in _CATALOG:
        raise ValueError(f"unknown state name '{name}'")
    count, build = _CATALOG[name]
    return build(*_require_params(name, params, count))


def write_state_file(path: Union[str, os.PathLike], state: PureState) -> None:
    """Write a state as a JSON document with dims and [re, im] amplitude pairs."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"dims": list(state.dims), "amps": state.amps}, fh, default=json_default)
        fh.write("\n")


def json_default(value):
    """``default`` hook for ``json``: a complex number as ``[re, im]``, a numpy value by ``tolist()``.

    The writing side of :func:`json_number`: every file and payload the package writes uses it.
    """
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def json_number(value, what: str, pair: bool = False):
    """A finite float from a JSON number, or with ``pair`` a complex from an ``[re, im]`` pair.

    A bool is no number here, though Python counts it an int. The
    ValueError names ``what`` for a bool, a non-number, nan, inf or an
    integer beyond the float range.
    """
    if pair:
        if not isinstance(value, list) or len(value) != 2:
            raise ValueError(f"{what} must be a [re, im] pair of numbers")
        return complex(json_number(value[0], what), json_number(value[1], what))
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        raise ValueError(f"{what} is out of the float range") from None
    if not math.isfinite(x):
        raise ValueError(f"{what} must be finite, got {x}")
    return x


def read_state_file(path: Union[str, os.PathLike]) -> PureState:
    """Read a state document written by :func:`write_state_file`.

    Raises ``ValueError`` on malformed documents (bad JSON, missing
    fields, non-pair amplitudes, or invalid state data).
    """
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"not a valid state file: {exc}") from exc
    if not isinstance(doc, dict) or "dims" not in doc or "amps" not in doc:
        raise ValueError("state file must contain 'dims' and 'amps' fields")
    dims = doc["dims"]
    raw = doc["amps"]
    if not isinstance(dims, list) or not isinstance(raw, list):
        raise ValueError("'dims' and 'amps' must be lists")
    if not all(type(d) is int for d in dims):
        raise ValueError("'dims' must hold integers")
    amps = [json_number(z, f"amplitude {i} in 'amps'", pair=True) for i, z in enumerate(raw)]
    return PureState(tuple(dims), np.array(amps, dtype=complex))
