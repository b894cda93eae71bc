"""Acceptance suite: one test per criterion, one pass/fail line each.

Every test prints a single ``criterion N: PASS`` line with its measured
numbers once its assertions hold, so a verbose run reads as a checklist.
"""

import json
import time

import numpy as np

from slocceq.catalog import cluster_pair_operators, random_orbit_case
from slocceq.cli import main, write_certificate_file
from slocceq.decomposition import StateProfile, triple_state_set
from slocceq.equivalence import (
    EquivalenceStatus,
    check_fourpartite_equiv,
    verify_equivalence,
)
from slocceq.invariants import invariant_screen
from slocceq.solver import SolverConfig, _kron_split
from slocceq.states import Bipartition, make_state, write_state_file
from slocceq.tensorops import qr, svd

CUT_12_34 = Bipartition((1, 2), (3, 4))
CONFIG = SolverConfig(rng_seed=0)


def report(n, detail):
    print(f"criterion {n}: PASS ({detail})")


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_criterion_1_ghz_vs_w_inequivalent(tmp_path, capsys):
    ghz_path = tmp_path / "ghz4.state"
    w_path = tmp_path / "w4.state"
    write_state_file(ghz_path, make_state("ghz4"))
    write_state_file(w_path, make_state("w4"))
    start = time.perf_counter()
    code = main(
        ["check", str(ghz_path), str(w_path), "--cut", "12-34", "--json"]
    )
    elapsed = time.perf_counter() - start
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["verdict"] == "INEQUIVALENT"
    proof = payload["proof"]
    assert proof["invariant"] == "tripartite-class"
    named = {proof["value_a"], proof["value_b"]}
    assert named == {"GHZ_CLASS", "W_CLASS"}
    assert elapsed < 5.0
    report(1, f"INEQUIVALENT, classes GHZ_CLASS vs W_CLASS, {elapsed:.2f}s")


def test_criterion_2_ghz_decomposition():
    triple = triple_state_set(make_state("ghz4"), CUT_12_34)
    assert triple.r == 2
    assert np.all(
        np.abs(triple.singular_values - np.sqrt(0.5)) <= 1e-12
    )
    corners = (
        np.array([[1.0, 0.0], [0.0, 0.0]]),
        np.array([[0.0, 0.0], [0.0, 1.0]]),
    )
    basis = np.linalg.qr(
        np.column_stack([m.reshape(-1) for m in triple.psi_u.slices])
    )[0]
    target = np.linalg.qr(
        np.column_stack([m.reshape(-1) for m in corners])
    )[0]
    cosines = np.linalg.svd(basis.conj().T @ target, compute_uv=False)
    angle = float(np.sqrt(max(0.0, 1.0 - float(np.min(cosines)) ** 2)))
    assert angle < 1e-10
    report(2, f"r=2, spectrum off by {np.max(np.abs(triple.singular_values - np.sqrt(0.5))):.1e}, span angle {angle:.1e}")


def test_criterion_3_parameter_family_equivalences():
    base = make_state("psi_abcd", (1.0, 2.0, 3.0, 4.0))
    partners = {
        "proportional": make_state("psi_abcd", (2.0, 4.0, 6.0, 8.0)),
        "sign-flipped": make_state("psi_abcd", (1.0, 2.0, -3.0, -4.0)),
    }
    details = []
    for label, partner in partners.items():
        start = time.perf_counter()
        verdict = check_fourpartite_equiv(base, partner, CUT_12_34, CONFIG)
        elapsed = time.perf_counter() - start
        assert verdict.status is EquivalenceStatus.EQUIVALENT, label
        cert = verdict.certificate
        ok, _, resid = verify_equivalence(base, partner, cert.ops)
        assert ok and resid < 1e-8, label
        assert elapsed < 30.0, label
        details.append(f"{label}: residual {resid:.1e} in {elapsed:.2f}s")
    report(3, "; ".join(details))


def test_criterion_4_cluster_pair(tmp_path, capsys):
    cluster = make_state("cluster1d")
    psi2 = make_state("psi2_abcd", (0.6, 0.5, 0.4, 0.3))
    start = time.perf_counter()
    verdict = check_fourpartite_equiv(cluster, psi2, CUT_12_34, CONFIG)
    elapsed = time.perf_counter() - start
    assert verdict.status is EquivalenceStatus.EQUIVALENT
    ok, _, resid = verify_equivalence(cluster, psi2, verdict.certificate.ops)
    assert ok and resid < 1e-8
    assert elapsed < 60.0

    cluster_path = tmp_path / "cluster.state"
    psi2_path = tmp_path / "psi2.state"
    cert_path = tmp_path / "closed-form.cert"
    write_state_file(cluster_path, cluster)
    write_state_file(psi2_path, psi2)
    closed_form = cluster_pair_operators(0.6, 0.5, 0.4, 0.3)
    write_certificate_file(
        cert_path, closed_form.ops, 1.0 + 0.0j, "12-34", 0.0, {}
    )
    code = main(
        ["verify", str(cluster_path), str(psi2_path), str(cert_path)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "passed: True" in out.splitlines()
    report(4, f"verify residual {resid:.1e} in {elapsed:.2f}s; closed-form operators verify, exit 0")


def test_criterion_5_plant_and_recover_suite():
    start = time.perf_counter()
    false_inequivalent = 0
    for dims, count in (((2, 2, 2, 2), 100), ((2, 2, 3, 3), 10)):
        for seed in range(count):
            state, image, _ = random_orbit_case(dims, seed, 20.0)
            verdict = check_fourpartite_equiv(image, state, CUT_12_34, CONFIG)
            if verdict.status is EquivalenceStatus.INEQUIVALENT:
                false_inequivalent += 1
            assert verdict.status is EquivalenceStatus.EQUIVALENT, (dims, seed)
    elapsed = time.perf_counter() - start
    assert false_inequivalent == 0
    report(5, f"100 four-qubit + 10 mixed-dimension orbit pairs EQUIVALENT, 0 false INEQUIVALENT, {elapsed:.1f}s")


def test_criterion_6_invariant_screen_soundness():
    start = time.perf_counter()
    proofs = 0
    for seed in range(10_000):
        state, image, _ = random_orbit_case((2, 2, 2, 2), seed, 20.0)
        if invariant_screen(StateProfile((image, state)), CUT_12_34) is not None:
            proofs += 1
    elapsed = time.perf_counter() - start
    assert proofs == 0
    report(6, f"10000 orbit pairs screened, 0 inequivalence proofs, {elapsed:.1f}s")


def test_criterion_7_structural_identities():
    rng = np.random.default_rng(100)
    worst_split = 0.0
    for _ in range(1000):
        b = random_complex(rng, (2, 2))
        c = random_complex(rng, (2, 2))
        product = np.kron(b, c)
        split = np.kron(*_kron_split(product))
        worst_split = max(
            worst_split, float(np.linalg.norm(split - product) / np.linalg.norm(product))
        )
    assert worst_split < 1e-12

    worst_recon = 0.0
    for dim in range(2, 17):
        m = random_complex(rng, (dim, dim))
        u, s, v = svd(m)
        worst_recon = max(
            worst_recon,
            float(np.linalg.norm((u[:, : len(s)] * s) @ v[:, : len(s)].conj().T - m)),
        )
        q, r = qr(m)
        worst_recon = max(worst_recon, float(np.linalg.norm(q @ r - m)))
    assert worst_recon < 1e-12
    report(7, f"Kronecker split relative err {worst_split:.1e}; reconstruction max err {worst_recon:.1e}")
