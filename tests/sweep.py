"""Seeded verdict sweep: a fixed set of 2070 checks, hashed row by row.

    python3 -W error::RuntimeWarning tests/sweep.py [--digests PATH]

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
- GHZ3 and W3 tripartite orbit pairs, seeds 0-14 (30).

Each check gives one row: status, stage, the per-cut stages of an
all-cuts UNDECIDED verdict, proof kind and proof location. The script
prints the verdict counts and the SHA-256 of the rows, and re-verifies
every EQUIVALENT certificate on the raw inputs. It exits 1 when a
certificate fails; a check that raises stops it, and so does a check
that warns under ``-W error::RuntimeWarning``. Two builds that print the
same hash gave the same verdicts, stages and proofs on every check.
``--digests PATH`` writes the SHA-256 of each check's certificate
operators, one line per check (``-`` for no certificate), so that two
builds can be compared certificate by certificate.

This file is not collected by pytest; the sweep takes a few seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from slocceq.catalog import random_orbit_case  # noqa: E402
from slocceq.equivalence import (  # noqa: E402
    check_fourpartite_equiv,
    check_fourpartite_equiv_all_cuts,
    check_tripartite_equiv,
    verify_equivalence,
)
from slocceq.solver import SolverConfig  # noqa: E402
from slocceq.states import Bipartition, PureState, make_state  # noqa: E402
from workloads import _orbit, _product_on, _raw, _slices  # noqa: E402

CONFIG = SolverConfig(rng_seed=0)
CUTS = tuple(
    Bipartition(left, right)
    for left, right in (((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3)),
                        ((2, 1), (3, 4)), ((3, 4), (1, 2)))
)
ALL_CUTS = None


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


def cases():
    """Yield ``(s1, s2, check)`` in sweep order; ``check()`` returns the verdict."""
    for name in ("orbit-spectral", "screen-reject", "engine-search"):
        for seed in (1, 21):
            for r in range(6):
                for pair in workloads.WORKLOADS[name].make_round(seed, r):
                    yield pair.s1, pair.s2, pair.run
    for dims, seeds in (
        ((2, 2, 2, 2), 40), ((2, 2, 3, 3), 40), ((3, 3, 2, 2), 40),
        ((2, 3, 2, 3), 8), ((2, 2, 2, 3), 8),
    ):
        for seed in range(seeds):
            state, image, _ = random_orbit_case(dims, seed)
            other = random_orbit_case(dims, seed + 1)[0]
            for s2 in (state, other):
                for cut in CUTS + (ALL_CUTS,):
                    yield image, s2, four_party(image, s2, cut)
    named = [make_state(name) for name in ("ghz4", "w4", "cluster1d")]
    for state in named + [_product_on(0, make_state("ghz3"))]:
        for seed in range(5):
            s1, s2 = _orbit(state, (seed, 1)), _orbit(state, (seed, 2))
            for cut in CUTS + (ALL_CUTS,):
                yield s1, s2, four_party(s1, s2, cut)
    for rel in (1e-10, 1e-9, 3e-9):
        for seed in range(20):
            state, image, _ = random_orbit_case((2, 2, 2, 2), seed)
            s1 = noisy(image, rel, seed)
            yield s1, state, four_party(s1, state, CUTS[0])
    for name in ("ghz3", "w3"):
        for seed in range(15):
            state = make_state(name)
            t1, t2 = _slices(_orbit(state, (seed, 1))), _slices(_orbit(state, (seed, 2)))
            yield t1, t2, lambda t1=t1, t2=t2: check_tripartite_equiv(t1, t2, CONFIG)


def row(verdict):
    d = verdict.diagnostics
    per_cut = [[label, cut_d.get("stage")] for label, cut_d in d.get("per_cut", {}).items()]
    proof = verdict.proof
    return [
        verdict.status.name,
        d.get("stage"),
        per_cut,
        None if proof is None else proof.invariant,
        None if proof is None else proof.location,
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--digests", type=Path, help="write one certificate SHA-256 per check")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    rows, digests, counts, failed = [], [], Counter(), 0
    for s1, s2, check in cases():
        verdict = check()
        rows.append(row(verdict))
        counts[verdict.status.name] += 1
        cert = verdict.certificate
        if cert is None:
            digests.append("-")
            continue
        ops = b"".join(np.ascontiguousarray(op).tobytes() for op in cert.ops.ops)
        digests.append(hashlib.sha256(ops).hexdigest())
        passed, _, resid = verify_equivalence(_raw(s1), _raw(s2), cert.ops)
        if not passed:
            failed += 1
            print(f"check {len(rows) - 1}: certificate fails re-verification ({resid:.3e})")
    if args.digests is not None:
        args.digests.write_text("\n".join(digests) + "\n")
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    print(f"{len(rows)} checks in {time.perf_counter() - t0:.1f} s: " + ", ".join(
        f"{counts[s]} {s}" for s in ("EQUIVALENT", "INEQUIVALENT", "UNDECIDED")
    ))
    print(f"re-verified {counts['EQUIVALENT'] - failed} of {counts['EQUIVALENT']} certificates")
    print(f"rows sha256 {digest}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
