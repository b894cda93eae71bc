"""End-to-end tests of the command line interface.

Each test invokes ``main(argv)`` in process and checks the exit code,
stdout payload, and any files written.
"""

import json

import numpy as np
import pytest

from slocceq import solver
from slocceq.catalog import random_orbit_case
from slocceq.cli import (
    CERTIFICATE_VERSION,
    EXIT_BAD_CUT,
    EXIT_DIMS,
    EXIT_FAIL,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_UNDECIDED,
    main,
    read_certificate_file,
    write_certificate_file,
)
from slocceq.decomposition import flatten_bipartition
from slocceq.states import (
    STANDARD_CUTS,
    PureState,
    make_state,
    read_state_file,
    write_state_file,
)
from slocceq.tensorops import sigma_rank, svd


@pytest.fixture
def files(tmp_path):
    """Catalog states written to disk, keyed by short name."""
    paths = {}
    cases = {
        "ghz4": make_state("ghz4"),
        "w4": make_state("w4"),
        "cluster": make_state("cluster1d"),
        "psi2": make_state("psi2_abcd", (0.6, 0.5, 0.4, 0.3)),
        "abcd": make_state("psi_abcd", (1.0, 2.0, 3.0, 4.0)),
        "abcd2": make_state("psi_abcd", (2.0, 4.0, 6.0, 8.0)),
        "ghz3": make_state("ghz3"),
        "w3": make_state("w3"),
    }
    for name, state in cases.items():
        path = tmp_path / f"{name}.state"
        write_state_file(path, state)
        paths[name] = str(path)
    paths["dir"] = tmp_path
    return paths


class TestDecompose:
    def test_human_output(self, files, capsys):
        assert main(["decompose", files["ghz4"]]) == EXIT_OK
        out = capsys.readouterr().out
        assert "rank: 2" in out
        assert "12-34" in out

    def test_json_payload(self, files, capsys):
        assert main(["decompose", files["cluster"], "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "decompose"
        assert payload["rank"] == 4
        assert np.allclose(payload["singular_values"], [0.5] * 4)
        assert len(payload["psi_u"]) == 4

    def test_payload_is_the_gauged_svd(self, tmp_path, capsys):
        # Rank and factors come from the full gauged SVD of the flattening;
        # the spectrum, from a values-only SVD, agrees with it to roundoff.
        amps = np.zeros(16, dtype=complex)
        amps[0b0000], amps[0b0101] = 1.0, 5e-9
        states = [
            random_orbit_case((2, 2, 3, 3), 3)[1],
            random_orbit_case((2, 3, 2, 3), 3)[1],
            PureState((2, 2, 2, 2), amps),
        ]
        for state in states:
            path = tmp_path / "s.state"
            write_state_file(path, state)
            for cut in STANDARD_CUTS:
                assert main(["decompose", str(path), "--cut", cut.label, "--json"]) == EXIT_OK
                payload = json.loads(capsys.readouterr().out)
                u, sigma, v = svd(flatten_bipartition(state, cut))
                r = sigma_rank(sigma)
                assert payload["rank"] == r
                got = np.array(payload["singular_values"])
                assert np.max(np.abs(got - sigma[:r])) <= 1e-14 * sigma[0]
                for name, frame in (("psi_u", u), ("psi_v", v)):
                    slices = [np.array([[complex(*z) for z in row] for row in piece])
                              for piece in payload[name]]
                    assert len(slices) == r
                    for i, piece in enumerate(slices):
                        assert np.array_equal(piece, frame[:, i].reshape(piece.shape))
                borderline = any(sigma[i] <= 1e-8 * sigma[0] for i in range(r))
                assert bool(payload["warnings"]) == borderline

    def test_other_cut(self, files, capsys):
        assert main(["decompose", files["ghz4"], "--cut", "13-24"]) == EXIT_OK
        assert "13-24" in capsys.readouterr().out

    def test_bad_cut(self, files, capsys):
        assert main(["decompose", files["ghz4"], "--cut", "12-43"]) == EXIT_BAD_CUT
        assert "cut" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.state")
        assert main(["decompose", missing]) == EXIT_PARSE
        assert "error" in capsys.readouterr().err

    def test_three_party_state_rejected(self, files, capsys):
        assert main(["decompose", files["ghz3"]]) == EXIT_PARSE
        assert "four" in capsys.readouterr().err

    def test_borderline_rank_warning_line(self, tmp_path, capsys):
        amps = np.zeros(16, dtype=complex)
        amps[0b0000], amps[0b0101] = 1.0, 5e-9
        path = tmp_path / "borderline.state"
        write_state_file(path, PureState((2, 2, 2, 2), amps))
        assert main(["decompose", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "warning: singular value 2 of 4 lies within 10x of the rank cutoff" in out

    def test_rank_zero_tolerance_is_a_usage_error(self, files, capsys):
        # No singular value exceeds twice the largest, so the rank is 0.
        assert main(["decompose", files["ghz4"], "--tol", "2"]) == EXIT_PARSE
        assert "rank 0" in capsys.readouterr().err


class TestCheck:
    def test_equivalent_pair(self, files, capsys):
        assert main(["check", files["abcd"], files["abcd2"]]) == EXIT_OK
        out = capsys.readouterr().out
        assert "EQUIVALENT" in out
        assert "seed" in out

    def test_inequivalent_pair(self, files, capsys):
        assert main(["check", files["ghz4"], files["w4"]]) == EXIT_FAIL
        out = capsys.readouterr().out
        assert "INEQUIVALENT" in out
        assert "tripartite-class" in out

    @pytest.mark.parametrize("factor", [1e-200, 1e-38, 1e38, 1e200])
    def test_scaled_orbit_is_equivalent(self, tmp_path, capsys, factor):
        state, image, _ = random_orbit_case((2, 2, 2, 2), 4)
        target, source = tmp_path / "target.state", tmp_path / "source.state"
        write_state_file(target, PureState(image.dims, image.amps * factor))
        write_state_file(source, state)
        assert main(["check", str(target), str(source), "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "EQUIVALENT"

    def test_json_verdict(self, files, capsys):
        code = main(["check", files["ghz4"], files["w4"], "--json"])
        assert code == EXIT_FAIL
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "INEQUIVALENT"
        assert payload["proof"]["invariant"] == "tripartite-class"
        assert payload["certificate"] is None

    def test_json_certificate(self, files, capsys):
        code = main(["check", files["abcd"], files["abcd2"], "--json"])
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "EQUIVALENT"
        assert payload["seed"] == 0
        cert = payload["certificate"]
        assert cert["residual"] < 1e-8
        assert len(cert["operators"]) == 4

    def test_all_cuts(self, files, capsys):
        code = main(["check", files["cluster"], files["psi2"], "--all-cuts"])
        assert code == EXIT_OK
        assert "EQUIVALENT" in capsys.readouterr().out

    def test_undecided_exit(self, tmp_path, capsys):
        # Cut 12-34 of a (2,2,2,3) state has no construction.
        source = str(tmp_path / "s2223.state")
        write_state_file(source, random_orbit_case((2, 2, 2, 3), 3)[0])
        code = main(["orbit", source, "--out", str(tmp_path / "orb")])
        assert code == EXIT_OK
        capsys.readouterr()
        code = main(["check", str(tmp_path / "orb.state"), source])
        assert code == EXIT_UNDECIDED
        out = capsys.readouterr().out
        assert "UNDECIDED" in out
        assert "stage: coupling_search" in out
        assert "candidates: 0" in out
        assert "verify residual" not in out

    def test_undecided_after_verification(self, tmp_path, capsys, monkeypatch):
        # An orbit pair whose only candidate, the identity, does not verify.
        eye = np.eye(2, dtype=complex)
        monkeypatch.setattr(solver, "_direct_flat_candidates", lambda *a: [(eye,) * 4])
        state, image, _ = random_orbit_case((2, 2, 2, 2), 3)
        write_state_file(tmp_path / "a.state", image)
        write_state_file(tmp_path / "b.state", state)
        code = main(["check", str(tmp_path / "a.state"), str(tmp_path / "b.state")])
        assert code == EXIT_UNDECIDED
        lines = capsys.readouterr().out.splitlines()
        assert "stage: verification" in lines
        assert "candidates: 1" in lines
        best = [ln for ln in lines if ln.startswith("best verify residual: ")]
        assert len(best) == 1 and float(best[0].split()[-1]) > 1e-3

    def test_restarts_option_removed(self, files, capsys):
        code = main(["check", files["ghz4"], files["w4"], "--restarts", "4"])
        assert code == EXIT_PARSE

    def test_dims_mismatch_before_party_count(self, files, capsys):
        code = main(["check", files["ghz4"], files["ghz3"]])
        assert code == EXIT_DIMS
        assert "differ" in capsys.readouterr().err

    def test_cut_conflict_rejected(self, files, capsys):
        code = main(
            ["check", files["ghz4"], files["w4"], "--cut", "12-34", "--all-cuts"]
        )
        assert code == EXIT_PARSE

    def test_cert_out_roundtrip(self, files, tmp_path, capsys):
        cert_path = tmp_path / "pair.cert"
        code = main(
            [
                "check",
                files["abcd"],
                files["abcd2"],
                "--cert-out",
                str(cert_path),
            ]
        )
        assert code == EXIT_OK
        capsys.readouterr()
        assert cert_path.exists()
        code = main(
            ["verify", files["abcd"], files["abcd2"], str(cert_path)]
        )
        assert code == EXIT_OK
        assert "PASS" in capsys.readouterr().out

    def test_unwritable_cert_out_is_usage_error(self, files, tmp_path, capsys):
        cert_path = tmp_path / "missing" / "pair.cert"
        code = main(
            ["check", files["abcd"], files["abcd2"], "--cert-out", str(cert_path)]
        )
        assert code == EXIT_PARSE
        assert str(cert_path) in capsys.readouterr().err

    def test_seed_flag_reported(self, files, capsys):
        code = main(
            ["check", files["abcd"], files["abcd2"], "--seed", "7", "--json"]
        )
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["seed"] == 7

    def test_three_party_files_rejected(self, files, capsys):
        assert main(["check", files["ghz3"], files["w3"]]) == EXIT_PARSE
        assert "four-party" in capsys.readouterr().err

    def test_unknown_cut_rejected(self, files, capsys):
        assert main(["check", files["ghz4"], files["w4"], "--cut", "99-99"]) == EXIT_BAD_CUT
        assert "99-99" in capsys.readouterr().err


class TestVerify:
    def write_cert(self, path, ops, residual=0.0):
        write_certificate_file(path, ops, 1.0 + 0.0j, "12-34", residual, {})

    def test_scaled_certificate_passes(self, files, tmp_path, capsys):
        cert = tmp_path / "scaled.cert"
        ops = [
            2.0 * np.eye(2),
            0.5 * np.eye(2),
            3.0 * np.eye(2),
            np.eye(2) / 3.0,
        ]
        self.write_cert(cert, ops)
        code = main(["verify", files["ghz4"], files["ghz4"], str(cert)])
        assert code == EXIT_OK
        assert "PASS" in capsys.readouterr().out

    def test_wrong_certificate_fails(self, files, tmp_path, capsys):
        cert = tmp_path / "id.cert"
        self.write_cert(cert, [np.eye(2)] * 4)
        code = main(["verify", files["ghz4"], files["w4"], str(cert)])
        assert code == EXIT_FAIL
        assert "FAIL" in capsys.readouterr().out

    def test_zeroed_operator_fails(self, files, tmp_path, capsys):
        cert = tmp_path / "zero.cert"
        self.write_cert(cert, [np.zeros((2, 2))] + [np.eye(2)] * 3)
        code = main(["verify", files["ghz4"], files["ghz4"], str(cert)])
        assert code == EXIT_PARSE
        assert "operator 1" in capsys.readouterr().err

    def test_singular_operators_rejected(self, files, tmp_path, capsys):
        # The projector onto |0> maps GHZ4 onto |0000>, a state that the
        # bipartition rank proves inequivalent to it: no invertible map.
        product = tmp_path / "product.state"
        amps = np.zeros(16, dtype=complex)
        amps[0] = 1.0
        write_state_file(product, PureState((2, 2, 2, 2), amps))
        assert main(["check", str(product), files["ghz4"]]) == EXIT_FAIL
        capsys.readouterr()
        cert = tmp_path / "projector.cert"
        self.write_cert(cert, [np.diag([1.0, 0.0])] * 4)
        code = main(["verify", str(product), files["ghz4"], str(cert)])
        assert code == EXIT_PARSE
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert "operator 1 is numerically singular" in captured.err

    def test_three_party_singular_operator_rejected(self, files, tmp_path, capsys):
        cert = tmp_path / "projector3.cert"
        self.write_cert(cert, [np.eye(2), np.diag([1.0, 0.0]), np.eye(2)])
        code = main(["verify", files["ghz3"], files["ghz3"], str(cert)])
        assert code == EXIT_PARSE
        captured = capsys.readouterr()
        assert "PASS" not in captured.out
        assert "operator 2 is numerically singular" in captured.err

    def test_wrong_operator_count_rejected(self, files, tmp_path, capsys):
        cert = tmp_path / "short.cert"
        self.write_cert(cert, [np.eye(2)] * 3)
        code = main(["verify", files["ghz4"], files["ghz4"], str(cert)])
        assert code == EXIT_PARSE
        assert "operator" in capsys.readouterr().err

    def test_operator_shape_mismatch_rejected(self, files, tmp_path, capsys):
        cert = tmp_path / "shape.cert"
        self.write_cert(cert, [np.eye(3)] + [np.eye(2)] * 3)
        code = main(["verify", files["ghz4"], files["ghz4"], str(cert)])
        assert code == EXIT_PARSE

    def test_json_report(self, files, tmp_path, capsys):
        cert = tmp_path / "id.cert"
        self.write_cert(cert, [np.eye(2)] * 4)
        code = main(
            ["verify", files["ghz4"], files["ghz4"], str(cert), "--json"]
        )
        assert code == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["residual"] < 1e-12

    def test_dims_mismatch_rejected(self, files, tmp_path, capsys):
        source = tmp_path / "mixed.state"
        write_state_file(source, random_orbit_case((2, 2, 3, 3), 0)[0])
        out = tmp_path / "orb"
        assert main(["orbit", str(source), "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        code = main(["verify", files["ghz4"], str(source), f"{out}.cert"])
        assert code == EXIT_DIMS
        err = capsys.readouterr().err
        assert "[2, 2, 2, 2]" in err and "[2, 2, 3, 3]" in err

    @pytest.mark.parametrize(
        "ops",
        [
            [2.0**-600 * np.eye(2)] * 2 + [2.0**600 * np.eye(2)] * 2,
            [1e80 * np.eye(2)] * 4,
            [1e-310 * np.eye(2), 1e300 * np.eye(2), 1e10 * np.eye(2), np.eye(2)],
            [2.0**-1030 * np.eye(2), 2.0**1000 * np.eye(2), 2.0**30 * np.eye(2), np.eye(2)],
        ],
    )
    def test_far_scaled_exact_certificate_passes(self, files, tmp_path, capsys, ops):
        cert = tmp_path / "far.cert"
        self.write_cert(cert, ops)
        assert main(["verify", files["ghz4"], files["ghz4"], str(cert)]) == EXIT_OK
        assert "PASS" in capsys.readouterr().out
        assert main(["verify", files["ghz4"], files["ghz4"], str(cert), "--json"]) == EXIT_OK

        def no_constant(name):
            raise ValueError(f"{name} is not JSON")

        payload = json.loads(capsys.readouterr().out, parse_constant=no_constant)
        assert payload["passed"] is True and payload["residual"] < 1e-14

    def test_scalar_below_the_float_range_fails(self, tmp_path, capsys):
        # GHZ4 x 1e-300 is 1e-600 times GHZ4 x 1e300: no float scalar maps one onto the other.
        paths = []
        for name, factor in (("tiny", 1e-300), ("huge", 1e300)):
            paths.append(str(tmp_path / f"{name}.state"))
            write_state_file(paths[-1], PureState((2, 2, 2, 2), factor * make_state("ghz4").amps))
        cert = tmp_path / "id.cert"
        self.write_cert(cert, [np.eye(2)] * 4)
        assert main(["verify", *paths, str(cert)]) == EXIT_FAIL
        assert "FAIL" in capsys.readouterr().out


class TestClassify3:
    def test_ghz_label(self, files, capsys):
        assert main(["classify3", files["ghz3"]]) == EXIT_OK
        assert "GHZ_CLASS" in capsys.readouterr().out

    def test_w_label_json(self, files, capsys):
        assert main(["classify3", files["w3"], "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["label"] == "W_CLASS"
        assert payload["marginal_ranks"] == [2, 2, 2]
        assert payload["hyperdeterminant_magnitude"] < 1e-12

    def test_four_party_rejected(self, files, capsys):
        assert main(["classify3", files["ghz4"]]) == EXIT_DIMS

    def test_unreadable_file(self, tmp_path, capsys):
        assert main(["classify3", str(tmp_path / "nope.state")]) == EXIT_PARSE
        assert "nope.state" in capsys.readouterr().err


class TestOrbit:
    def test_writes_state_and_cert(self, files, tmp_path, capsys):
        out = tmp_path / "orb"
        code = main(["orbit", files["cluster"], "--out", str(out)])
        assert code == EXIT_OK
        image = read_state_file(f"{out}.state")
        assert image.dims == (2, 2, 2, 2)
        cert = read_certificate_file(f"{out}.cert")
        assert cert["diagnostics"]["planted"] is True
        assert cert["diagnostics"]["seed"] == 0

    def test_orbit_cert_verifies_against_inputs(self, files, tmp_path, capsys):
        out = tmp_path / "orb"
        assert main(["orbit", files["cluster"], "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        code = main(
            ["verify", f"{out}.state", files["cluster"], f"{out}.cert"]
        )
        assert code == EXIT_OK
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["ghz3", "bell"])
    def test_fewer_parties_orbit_and_verify(self, files, tmp_path, capsys, name):
        if name == "bell":
            write_state_file(tmp_path / "bell.state", PureState((2, 3), [1, 0, 0, 0, 1, 0]))
            files = {**files, "bell": str(tmp_path / "bell.state")}
        out = tmp_path / "orb"
        assert main(["orbit", files[name], "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert main(["verify", f"{out}.state", files[name], f"{out}.cert"]) == EXIT_OK
        assert "PASS" in capsys.readouterr().out

    def test_json_payload(self, files, tmp_path, capsys):
        out = tmp_path / "orb"
        assert main(["orbit", files["ghz4"], "--seed", "4", "--out", str(out), "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "orbit" and payload["seed"] == 4
        assert payload["condition_cap"] == 20.0
        assert payload["image_file"] == f"{out}.state"
        assert payload["certificate_file"] == f"{out}.cert"
        assert payload["residual"] < 1e-12
        read_state_file(payload["image_file"])
        read_certificate_file(payload["certificate_file"])

    def test_unwritable_out_is_usage_error(self, files, tmp_path, capsys):
        out = tmp_path / "missing" / "orb"
        code = main(["orbit", files["cluster"], "--out", str(out)])
        assert code == EXIT_PARSE
        assert f"{out}.state" in capsys.readouterr().err

    def test_deterministic_bytes(self, files, tmp_path, capsys):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["orbit", files["ghz4"], "--seed", "9", "--out", str(out1)])
        main(["orbit", files["ghz4"], "--seed", "9", "--out", str(out2)])
        for suffix in (".state", ".cert"):
            b1 = (tmp_path / f"o1{suffix}").read_bytes()
            b2 = (tmp_path / f"o2{suffix}").read_bytes()
            assert b1 == b2

    def test_seeds_differ(self, files, tmp_path, capsys):
        out1, out2 = tmp_path / "s0", tmp_path / "s1"
        main(["orbit", files["ghz4"], "--seed", "0", "--out", str(out1)])
        main(["orbit", files["ghz4"], "--seed", "1", "--out", str(out2)])
        s0 = read_state_file(f"{out1}.state")
        s1 = read_state_file(f"{out2}.state")
        assert not np.allclose(s0.amps, s1.amps)


class TestCertificateFiles:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(70)
        ops = [
            rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            for _ in range(4)
        ]
        path = tmp_path / "rt.cert"
        write_certificate_file(
            path, ops, 0.25 - 1.5j, "13-24", 3e-12, {"note": "x"}
        )
        cert = read_certificate_file(path)
        assert cert["version"] == CERTIFICATE_VERSION
        assert cert["cut"] == "13-24"
        assert cert["scalar"] == 0.25 - 1.5j
        assert cert["residual"] == 3e-12
        for loaded, original in zip(cert["operators"], ops):
            assert np.array_equal(loaded, original)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.cert"
        write_certificate_file(path, [np.eye(2)] * 4, 1.0, "12-34", 0.0, {})
        data = json.loads(path.read_text())
        data["version"] = "slocceq.certificate/999"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="version"):
            read_certificate_file(path)

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "bad.cert"
        write_certificate_file(path, [np.eye(2)] * 4, 1.0, "12-34", 0.0, {})
        data = json.loads(path.read_text())
        del data["operators"]
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="operators"):
            read_certificate_file(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda text: text[:-10], "not valid JSON"),
            (lambda text: json.dumps([json.loads(text)]), "root must be a JSON object"),
            (
                lambda text: json.dumps({**json.loads(text), "operators": [[[[1, 0], [0, 0]]]] * 4}),
                "square matrices",
            ),
        ],
        ids=["not-json", "root-not-object", "non-square-operator"],
    )
    def test_malformed_file_is_a_usage_error(self, files, tmp_path, capsys, edit, message):
        path = tmp_path / "bad.cert"
        write_certificate_file(path, [np.eye(2)] * 4, 1.0, "12-34", 0.0, {})
        path.write_text(edit(path.read_text()))
        assert main(["verify", files["ghz4"], files["ghz4"], str(path)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err


class TestNumericFlags:
    """Tolerances, condition caps and seeds outside their domain are parse errors."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["check", "{ghz4}", "{ghz4}", "--tol", "nan", "--json"], "--tol"),
            (["check", "{ghz4}", "{ghz4}", "--tol", "-1"], "--tol"),
            (["check", "{ghz4}", "{ghz4}", "--tol", "0"], "--tol"),
            (["check", "{ghz4}", "{ghz4}", "--tol", "inf"], "--tol"),
            (["verify", "{ghz4}", "{ghz4}", "{ghz4}", "--tol", "-1"], "--tol"),
            (["decompose", "{ghz4}", "--tol", "nan"], "--tol"),
            (["orbit", "{ghz4}", "--cond-cap", "0.5", "--out", "{dir}/o"], "--cond-cap"),
            (["orbit", "{ghz4}", "--cond-cap", "1", "--out", "{dir}/o"], "--cond-cap"),
            (["orbit", "{ghz4}", "--cond-cap", "inf", "--out", "{dir}/o"], "--cond-cap"),
            (["orbit", "{ghz4}", "--cond-cap", "many", "--out", "{dir}/o"], "--cond-cap"),
            (["check", "{ghz4}", "{ghz4}", "--seed", "-1"], "--seed"),
            (["check", "{ghz4}", "{ghz4}", "--seed", "1.5", "--json"], "--seed"),
            (["orbit", "{ghz4}", "--seed", "-1", "--out", "{dir}/o"], "--seed"),
        ],
    )
    def test_rejected_with_the_flag_named(self, files, capsys, argv, flag):
        assert main([arg.format(**files) for arg in argv]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag in captured.err

    def test_values_in_domain_accepted(self, files, tmp_path, capsys):
        code = main(["check", files["ghz4"], files["ghz4"], "--tol", "1e-6", "--json"])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["tolerance"] == 1e-6
        out = tmp_path / "orb"
        assert main(["orbit", files["ghz4"], "--cond-cap", "1.5", "--out", str(out)]) == EXIT_OK
        assert main(["check", files["ghz4"], files["ghz4"], "--seed", "0"]) == EXIT_OK


class TestTopLevel:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert "slocceq" in capsys.readouterr().out

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_PARSE

    def test_no_command(self, capsys):
        assert main([]) == EXIT_PARSE


class TestNonFiniteFiles:
    """State and certificate files holding nan or inf are parse errors naming the field."""

    @pytest.fixture
    def bad(self, files):
        amps = [[0.0, 0.0]] * 16
        amps[0] = [float("nan"), 0.0]
        amps[15] = [float("inf"), 0.0]
        path = files["dir"] / "nan.state"
        path.write_text(json.dumps({"dims": [2, 2, 2, 2], "amps": amps}))
        cert = files["dir"] / "id.cert"
        write_certificate_file(cert, [np.eye(2)] * 4, 1.0, "12-34", 0.0, {})
        return {**files, "nan": str(path), "cert": str(cert)}

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "nan", "ghz4"],
            ["check", "ghz4", "nan", "--all-cuts"],
            ["decompose", "nan"],
            ["orbit", "nan", "--out", "orb"],
            ["verify", "nan", "ghz4", "cert"],
            ["verify", "ghz4", "nan", "cert"],
        ],
    )
    def test_state_file(self, bad, capsys, argv):
        argv = [bad[a] if a in bad else a for a in argv]
        argv = [str(bad["dir"] / a) if a == "orb" else a for a in argv]
        assert main(argv) == EXIT_PARSE
        assert "amps" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("operators", [[[1.0, 0.0], [float("nan"), 0.0]], [[0.0, 0.0], [1.0, 0.0]]]),
            ("scalar", [float("inf"), 0.0]),
            ("residual", float("nan")),
        ],
    )
    def test_certificate_file(self, bad, capsys, field, value):
        data = json.loads(open(bad["cert"]).read())
        data[field] = [value] * 4 if field == "operators" else value
        with open(bad["cert"], "w") as handle:
            json.dump(data, handle)
        assert main(["verify", bad["ghz4"], bad["ghz4"], bad["cert"]]) == EXIT_PARSE
        assert f"'{field}'" in capsys.readouterr().err


class TestJsonBooleans:
    """A JSON true or false is no number, though Python counts bool an int."""

    def test_state_file(self, files, capsys):
        path = files["dir"] / "bool.state"
        path.write_text(json.dumps({"dims": [2, 2, 2, 2], "amps": [[True, False]] * 16}))
        assert main(["decompose", str(path)]) == EXIT_PARSE
        assert "'amps'" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["operators", "scalar", "residual"])
    def test_certificate_file(self, files, capsys, field):
        path = files["dir"] / "bool.cert"
        write_certificate_file(path, [np.eye(2)] * 4, 1.0, "12-34", 0.0, {})
        data = json.loads(path.read_text())
        if field == "operators":
            data[field][0][0][0] = [True, 0]
        else:
            data[field] = [True, False] if field == "scalar" else False
        path.write_text(json.dumps(data))
        assert main(["verify", files["ghz4"], files["ghz4"], str(path)]) == EXIT_PARSE
        assert f"'{field}'" in capsys.readouterr().err


class TestHugeJsonIntegers:
    """A JSON integer beyond the float range is a parse error naming the field."""

    def test_state_file(self, files, capsys):
        path = files["dir"] / "huge.state"
        path.write_text(json.dumps({"dims": [2, 2, 2, 2], "amps": [[10**400, 0]] + [[0, 0]] * 15}))
        assert main(["check", str(path), files["ghz4"]]) == EXIT_PARSE
        assert "'amps'" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["operators", "scalar", "residual"])
    def test_certificate_file(self, files, capsys, field):
        path = files["dir"] / "huge.cert"
        write_certificate_file(path, [np.eye(2)] * 4, 1.0, "12-34", 0.0, {})
        data = json.loads(path.read_text())
        if field == "operators":
            data[field][0][0][0] = [10**400, 0]
        else:
            data[field] = [10**400, 0] if field == "scalar" else 10**400
        path.write_text(json.dumps(data))
        assert main(["verify", files["ghz4"], files["ghz4"], str(path)]) == EXIT_PARSE
        assert f"'{field}'" in capsys.readouterr().err
