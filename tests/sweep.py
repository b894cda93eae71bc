"""Seeded verdict sweep: a fixed set of 2567 checks and 18 classifications, hashed row by row.

    python3 -W error::RuntimeWarning tests/sweep.py [--digests PATH]
    PYTHONPATH=<tree>/src python3 -W error::RuntimeWarning tests/sweep.py

The checks, in this order:

- rounds 0-5 of the three benchmark workloads (``bench/workloads.py``)
  at seeds 1 and 21 (228);
- ``random_orbit_case`` seeds 0-39 of (2,2,2,2), (2,2,3,3) and (3,3,2,2)
  and seeds 0-7 of (2,3,2,3) and (2,2,2,3), each as an orbit pair and as a
  cross pair against the next seed's state, at 12-34, 13-24, 14-23, 21-34,
  34-12 and through all cuts (1632);
- GHZ4, W4, cluster and |0>GHZ3 orbit pairs, seeds 0-4, at the same five
  cuts and through all cuts (120);
- four-qubit orbits at 12-34 with relative amplitude noise 1e-10, 1e-9
  and 3e-9, seeds 0-19 (60);
- GHZ3 and W3 tripartite orbit pairs, seeds 0-14 (30);
- states of rank one at 12-34, ``np.outer`` of seeded vectors on parties
  1-2 and 3-4, seeds 0-3 of (2,2,2,2), (2,2,3,3), (2,3,2,3) and
  (3,3,3,3), an orbit image against its source and against the next
  seed's state, at the five cuts and through all cuts (192). Both are
  orbit pairs: each state is a product of two bipartite states of full
  Schmidt rank, and two such products of equal dims are SLOCC-equivalent;
- tripartite orbit pairs of seeded states with 1, 3 and 4 slices of 2x2,
  seeds 0-4 (15);
- tripartite cross pairs between orbit images of GHZ3, W3 and the
  biseparable B|AC and C|AB states, every ordered pair, seeds 0-1 (24);
- exact orbits at 12-34 that ROADMAP item 1 covers, each image against
  its source (221): kappa-orbits of (2,2,2,2) and (2,2,3,3) at kappa 10,
  30, 100, 300 and 1e3, seeds 0-19, a complex Gaussian state from
  ``default_rng(1000 + seed)`` under ``U diag(geomspace(1, 1/kappa, d))
  V^H`` on each party (200); ``|0000> + 5e-9|0101>`` under four Haar
  unitaries, seeds 0-19 (20); and ``L_a4(0.01+0.01j)`` under
  ``random_invertible_ops((2,2,2,2), (11, 7))`` (1);
- tripartite orbit pairs of seeded states with 1 slice of 2x3 and of
  3x3, 5 of 2x3, 6 of 3x2, 8 of 3x3, 2 of 2x3 and 3 of 3x3, seeds 0-4
  (35); the last two geometries have no construction;
- tripartite cross pairs of one 2x3 slice of rank 1 against one of rank
  2, in both orders, seeds 0-4 (10);
- then ``classify_tripartite_qubit`` of orbit images of the product state,
  the three biseparable states, W3 and GHZ3, seeds 0-2 (18). No check can
  reach the product and A|BC labels: a check's three-qubit states have
  independent slices, so the slice party has rank 2.

Each check carries its ground truth as the set of verdicts it allows.
An orbit pair (``workloads.ORBIT``) is never INEQUIVALENT and a cross
pair (``workloads.NON_ORBIT``) never EQUIVALENT; a benchmark pair keeps
its own ``allowed``. The cross pairs are those against the next seed's
``random_orbit_case`` state, the three-qubit class pairs and the 2x3
slice-rank pairs; every other pair of the list above is an orbit pair.

Each check gives one row: status, stage, the per-cut stages of an
all-cuts UNDECIDED verdict, proof kind, proof location, both proof
values and the proof's description; each classification gives its
label and marginal ranks. The script sweeps the ``slocceq`` of the tree
that ``PYTHONPATH`` names, else that of its own checkout's ``src``, and
prints which, and under it that tree's thresholds: every UPPER_CASE
number in its ``tensorops``, outside the hashed rows. It prints the
verdict counts and the SHA-256 of the rows, and re-verifies every
EQUIVALENT certificate on the inputs of its check with
``verify_equivalence``, a tripartite pair as the pure states
``tripartite_as_pure_state`` gives (see ``as_pure_pair``), so that
trees whose ``verify_equivalence`` takes only pure states sweep too.
It exits 1 when a certificate fails, when a verdict is one its pair
does not allow and ``sweep_known.json`` does not list, when a listed
check does not give its listed verdict, or when the
row hash is not ``EXPECTED_ROWS_SHA256``; a check that raises stops it,
and so does a check that warns under ``-W error::RuntimeWarning``. Two
builds that print the same hash gave the same verdicts, stages and
proofs on every check, so a change that moves a verdict updates the
expected hash.
``--digests PATH`` writes the SHA-256 of each check's certificate
operators, one line per check (``-`` for no certificate), so that two
builds can be compared certificate by certificate; the script prints
the SHA-256 of that file's bytes, ungated, as certificate bits vary
with the BLAS build.

``sweep_known.json`` lists the checks whose verdict is known to be false
today, as a strict xfail does: each entry is the check's index in the
order above, the false verdict it gives, and the ROADMAP item that is to
remove it. It holds 98 INEQUIVALENT verdicts on exact orbit pairs: the
kappa-orbits at kappa 300 and 1e3 (77), the local-unitary orbits (20)
and ``L_a4`` (1).

This file is not collected by pytest; the sweep takes a few seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# The workloads come from this checkout's bench; slocceq from the tree that
# PYTHONPATH names, else from this checkout's src.
sys.path.insert(0, str(ROOT / "bench"))
if not os.environ.get("PYTHONPATH"):
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import slocceq  # noqa: E402
from slocceq import tensorops  # noqa: E402

import workloads  # noqa: E402
from slocceq.catalog import _haar_unitary, random_invertible_ops, random_orbit_case  # noqa: E402
from slocceq.equivalence import (  # noqa: E402
    check_fourpartite_equiv,
    check_fourpartite_equiv_all_cuts,
    check_tripartite_equiv,
    verify_equivalence,
)
from slocceq.invariants import (  # noqa: E402
    TriClassLabel,
    classify_tripartite_qubit,
    tripartite_as_pure_state,
)
from slocceq.solver import SolverConfig  # noqa: E402
from slocceq.states import (  # noqa: E402
    Bipartition,
    PureState,
    TripartiteState,
    apply_local_ops,
    make_state,
)
from workloads import _orbit, _product_on, _slices  # noqa: E402

EXPECTED_ROWS_SHA256 = "a6fdcb2dc0ee2b5e4002c4021a5a2502b8a74ecf67700f72cc8a1308f88d6541"
KNOWN_MISSES = Path(__file__).with_name("sweep_known.json")

# Trees before the fixed construction mix require a config; later ones ignore it.
CONFIG = SolverConfig(rng_seed=0)
ORBIT, CROSS = workloads.ORBIT, workloads.NON_ORBIT
LABELS = {ORBIT: "orbit", CROSS: "cross", workloads.SCREENED: "screened"}
CUTS = tuple(
    Bipartition(left, right)
    for left, right in (((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3)),
                        ((2, 1), (3, 4)), ((3, 4), (1, 2)))
)
ALL_CUTS = None
# Tripartite orbits past the 2x2 slices: (slice count, slice shape).
SLICE_GEOMETRIES = (
    (1, (2, 3)), (1, (3, 3)), (5, (2, 3)), (6, (3, 2)), (8, (3, 3)), (2, (2, 3)), (3, (3, 3)),
)


def four_party(s1, s2, cut):
    """A check of ``s1`` against ``s2`` at ``cut``, or through all cuts when it is None."""
    if cut is ALL_CUTS:
        return lambda: check_fourpartite_equiv_all_cuts(s1, s2, CONFIG)
    return lambda: check_fourpartite_equiv(s1, s2, cut, CONFIG)


def noisy(state, rel, seed):
    """``state`` moved by relative amplitude noise ``rel`` along a seeded direction."""
    rng = np.random.default_rng(seed)
    direction = rng.standard_normal(state.amps.shape) + 1j * rng.standard_normal(state.amps.shape)
    step = rel * np.linalg.norm(state.amps) / np.linalg.norm(direction)
    return PureState(state.dims, state.amps + step * direction)


def gaussian(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def rank_one(dims, seed):
    """A state of rank one at 12-34: seeded vectors on parties 1-2 and 3-4, outer product."""
    rng = np.random.default_rng(seed)
    x, y = gaussian(rng, dims[0] * dims[1]), gaussian(rng, dims[2] * dims[3])
    return PureState(dims, np.outer(x, y).reshape(-1))


def kappa_ops(dims, kappa, seed):
    """One operator per party of condition exactly ``kappa``: ``U diag(geomspace(1, 1/kappa, d)) V^H``.

    U and V are Haar unitaries drawn from one seeded generator, U then V,
    party by party.
    """
    rng = np.random.default_rng(seed)
    ops = []
    for d in dims:
        u, v = _haar_unitary(rng, d), _haar_unitary(rng, d)
        ops.append(u @ np.diag(np.geomspace(1.0, 1.0 / kappa, d)) @ v.conj().T)
    return ops


def unitary_ops(seed):
    """Four Haar unitaries on qubits from one seeded generator."""
    rng = np.random.default_rng(seed)
    return [_haar_unitary(rng, 2) for _ in range(4)]


def qubit_terms(terms):
    """Four-qubit state summing ``coeff |bits>`` over ``(bits, coeff)`` pairs."""
    amps = np.zeros(16, dtype=complex)
    for bits, coeff in terms:
        amps[int(bits, 2)] += coeff
    return PureState((2, 2, 2, 2), amps)


def l_a4(a):
    """Verstraete's four-qubit family L_a4 at parameter ``a``, from its seven amplitudes."""
    return qubit_terms(
        [("0000", a), ("0101", a), ("1010", a), ("1111", a), ("0001", 1j), ("0110", 1.0), ("1011", -1j)]
    )


def slice_orbit(stack, seed):
    """Slices ``stack`` under seeded Gaussian operators on the slice index, the rows and the columns."""
    rng = np.random.default_rng(seed)
    a, b, c = (gaussian(rng, (n, n)) for n in stack.shape)
    image = np.einsum("ij,ab,jbc,dc->iad", a, b, stack, c)
    return TripartiteState(len(stack), tuple(image))


def three_qubit(kind):
    """The (2, 2, 2) tensor of a named three-qubit state: ghz3, w3, product or bisep_a/b/c."""
    if kind in ("ghz3", "w3"):
        return make_state(kind).tensor()
    bell = np.eye(2) / np.sqrt(2.0)
    zero = np.array([1.0, 0.0])
    return {
        "product": np.einsum("a,b,c->abc", zero, zero, zero),
        "bisep_a": np.einsum("a,bc->abc", zero, bell),
        "bisep_b": np.einsum("b,ac->abc", zero, bell),
        "bisep_c": np.einsum("c,ab->abc", zero, bell),
    }[kind]


def tripartite(t1, t2):
    return lambda: check_tripartite_equiv(t1, t2, CONFIG)


def cases():
    """Yield ``(s1, s2, check, allowed)`` in sweep order; ``check()`` returns the verdict."""
    for name in ("orbit-spectral", "screen-reject", "engine-search"):
        for seed in (1, 21):
            for r in range(6):
                for pair in workloads.WORKLOADS[name].make_round(seed, r):
                    yield pair.s1, pair.s2, pair.run, pair.allowed
    for dims, seeds in (
        ((2, 2, 2, 2), 40), ((2, 2, 3, 3), 40), ((3, 3, 2, 2), 40),
        ((2, 3, 2, 3), 8), ((2, 2, 2, 3), 8),
    ):
        for seed in range(seeds):
            state, image, _ = random_orbit_case(dims, seed)
            other = random_orbit_case(dims, seed + 1)[0]
            for s2, allowed in ((state, ORBIT), (other, CROSS)):
                for cut in CUTS + (ALL_CUTS,):
                    yield image, s2, four_party(image, s2, cut), allowed
    named = [make_state(name) for name in ("ghz4", "w4", "cluster1d")]
    for state in named + [_product_on(0, make_state("ghz3"))]:
        for seed in range(5):
            s1, s2 = _orbit(state, (seed, 1)), _orbit(state, (seed, 2))
            for cut in CUTS + (ALL_CUTS,):
                yield s1, s2, four_party(s1, s2, cut), ORBIT
    for rel in (1e-10, 1e-9, 3e-9):
        for seed in range(20):
            state, image, _ = random_orbit_case((2, 2, 2, 2), seed)
            s1 = noisy(image, rel, seed)
            yield s1, state, four_party(s1, state, CUTS[0]), ORBIT
    for name in ("ghz3", "w3"):
        for seed in range(15):
            state = make_state(name)
            t1, t2 = _slices(_orbit(state, (seed, 1))), _slices(_orbit(state, (seed, 2)))
            yield t1, t2, tripartite(t1, t2), ORBIT
    for dims in ((2, 2, 2, 2), (2, 2, 3, 3), (2, 3, 2, 3), (3, 3, 3, 3)):
        for seed in range(4):
            state = rank_one(dims, seed)
            image = _orbit(state, (seed, 1))
            for s2 in (state, rank_one(dims, seed + 1)):
                for cut in CUTS + (ALL_CUTS,):
                    yield image, s2, four_party(image, s2, cut), ORBIT
    for r in (1, 3, 4):
        for seed in range(5):
            stack = gaussian(np.random.default_rng((r, seed)), (r, 2, 2))
            t1, t2 = slice_orbit(stack, (seed, 1)), slice_orbit(stack, (seed, 2))
            yield t1, t2, tripartite(t1, t2), ORBIT
    kinds = ("ghz3", "w3", "bisep_b", "bisep_c")
    for k1, k2 in itertools.permutations(kinds, 2):
        for seed in range(2):
            t1 = slice_orbit(three_qubit(k1), (seed, 1))
            t2 = slice_orbit(three_qubit(k2), (seed, 2))
            yield t1, t2, tripartite(t1, t2), CROSS
    # ROADMAP item 1's exact orbits; KNOWN_MISSES lists those given a false verdict today.
    for dims in ((2, 2, 2, 2), (2, 2, 3, 3)):
        for kappa in (10, 30, 100, 300, 1e3):
            for seed in range(20):
                state = PureState(dims, gaussian(np.random.default_rng(1000 + seed), np.prod(dims)))
                image = apply_local_ops(state, kappa_ops(dims, kappa, seed))
                yield image, state, four_party(image, state, CUTS[0]), ORBIT
    for seed in range(20):
        state = qubit_terms([("0000", 1.0), ("0101", 5e-9)])
        image = apply_local_ops(state, unitary_ops(seed))
        yield image, state, four_party(image, state, CUTS[0]), ORBIT
    state = l_a4(0.01 + 0.01j)
    image = apply_local_ops(state, random_invertible_ops((2, 2, 2, 2), (11, 7)))
    yield image, state, four_party(image, state, CUTS[0]), ORBIT
    for r, shape in SLICE_GEOMETRIES:
        for seed in range(5):
            stack = gaussian(np.random.default_rng((r, *shape, seed)), (r, *shape))
            t1, t2 = slice_orbit(stack, (seed, 1)), slice_orbit(stack, (seed, 2))
            yield t1, t2, tripartite(t1, t2), ORBIT
    for seed in range(5):
        rng = np.random.default_rng((23, seed))
        lone, pair = (gaussian(rng, (1, 2, k)) @ gaussian(rng, (1, k, 3)) for k in (1, 2))
        for k1, k2 in ((lone, pair), (pair, lone)):
            t1, t2 = slice_orbit(k1, (seed, 1)), slice_orbit(k2, (seed, 2))
            yield t1, t2, tripartite(t1, t2), CROSS


def classifications():
    """Three-qubit states in sweep order, one of each label per seed."""
    for kind in ("product", "bisep_a", "bisep_b", "bisep_c", "w3", "ghz3"):
        for seed in range(3):
            yield tripartite_as_pure_state(slice_orbit(three_qubit(kind), (seed, 3)))


def as_pure_pair(s1, s2, ops):
    """A check's pair and certificate operators, a tripartite pair as pure states.

    Every tree's ``verify_equivalence`` takes pure states. A one-slice
    pair gains a zero second slice on both sides, and its 1x1 slice
    operator a 1 beside it, which leaves the fit as it was.
    """
    if not isinstance(s1, TripartiteState):
        return s1, s2, ops
    if s1.r_dim == 1:
        s1, s2 = (TripartiteState(2, (*t.slices, np.zeros_like(t.slices[0]))) for t in (s1, s2))
        ops = (np.diag([ops[0][0, 0], 1.0]), *ops[1:])
    return tripartite_as_pure_state(s1), tripartite_as_pure_state(s2), ops


def row(verdict):
    d = verdict.diagnostics
    per_cut = [[label, cut_d.get("stage")] for label, cut_d in d.get("per_cut", {}).items()]
    proof = verdict.proof
    return [
        verdict.status.name,
        d.get("stage"),
        per_cut,
    ] + ([None] * 5 if proof is None else [
        proof.invariant, proof.location, str(proof.value_a), str(proof.value_b), proof.description,
    ])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--digests", type=Path, help="write one certificate SHA-256 per check")
    args = parser.parse_args(argv)

    known = {entry["row"]: entry["verdict"] for entry in json.loads(KNOWN_MISSES.read_text())}
    unmet = set(known)
    print(f"slocceq from {slocceq.__file__}")
    print("thresholds " + " ".join(
        f"{name}={value!r}"
        for name, value in vars(tensorops).items()
        if name.isupper() and isinstance(value, (int, float)) and not isinstance(value, bool)
    ))
    t0 = time.perf_counter()
    rows, digests, counts, labels, failed, missed = [], [], Counter(), Counter(), 0, 0
    for index, (s1, s2, check, allowed) in enumerate(cases()):
        verdict = check()
        rows.append(row(verdict))
        counts[verdict.status.name] += 1
        labels[LABELS[allowed]] += 1
        if verdict.status not in allowed:
            if known.get(index) == verdict.status.name:
                unmet.discard(index)
            else:
                missed += 1
                print(f"check {index}: {verdict.status.name} on a {LABELS[allowed]} pair")
        cert = verdict.certificate
        if cert is None:
            digests.append("-")
            continue
        ops = b"".join(np.ascontiguousarray(op).tobytes() for op in cert.ops.ops)
        digests.append(hashlib.sha256(ops).hexdigest())
        passed, _, resid = verify_equivalence(*as_pure_pair(s1, s2, cert.ops.ops))
        if not passed:
            failed += 1
            print(f"check {index}: certificate fails re-verification ({resid:.3e})")
    for state in classifications():
        cls = classify_tripartite_qubit(state)
        rows.append([cls.label.name, list(cls.marginal_ranks)])
        counts[cls.label.name] += 1
    digest_file = "\n".join(digests) + "\n"
    if args.digests is not None:
        args.digests.write_text(digest_file)
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    print(f"{len(digests)} checks in {time.perf_counter() - t0:.1f} s: " + ", ".join(
        f"{counts[s]} {s}" for s in ("EQUIVALENT", "INEQUIVALENT", "UNDECIDED")
    ))
    print(f"{len(rows) - len(digests)} classifications: " + ", ".join(
        f"{counts[label.name]} {label.name}" for label in TriClassLabel
    ))
    print(f"re-verified {counts['EQUIVALENT'] - failed} of {counts['EQUIVALENT']} certificates")
    print(f"{missed} unlisted and {len(known) - len(unmet)} listed verdicts not allowed on " + ", ".join(
        f"{n} {label}" for label, n in labels.items()
    ) + " pairs")
    for index in sorted(unmet):
        print(f"check {index}: listed in {KNOWN_MISSES.name} as {known[index]}, but does not give it")
    print(f"rows sha256 {digest}")
    # Not gated: certificate bits vary with the BLAS build.
    print(f"certificates sha256 {hashlib.sha256(digest_file.encode()).hexdigest()}")
    moved = digest != EXPECTED_ROWS_SHA256
    if moved:
        print(f"expected    {EXPECTED_ROWS_SHA256}: the rows moved")
    return 1 if failed or missed or unmet or moved else 0


if __name__ == "__main__":
    sys.exit(main())
