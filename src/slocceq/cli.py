"""Command line surface: decompose, check, verify, classify, orbit generation.

Exit codes are a stable contract:

====  =========================================-
0     equivalent / verification passed
1     inequivalent / verification failed
2     parse error (bad file, bad flags)
3     invalid cut label
4     undecided
5     party dimension mismatch
====  =========================================-
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .catalog import DEFAULT_CONDITION_CAP, random_invertible_ops
from .decomposition import triple_state_set
from .equivalence import (
    DEFAULT_VERIFY_TOL,
    check_fourpartite_equiv,
    check_fourpartite_equiv_all_cuts,
    verify_equivalence,
)
from .invariants import classify_tripartite_qubit
from .solver import SolverConfig
from .states import (
    STANDARD_CUTS,
    apply_local_ops,
    read_state_file,
    write_state_file,
)
from .tensorops import DEFAULT_RTOL

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_BAD_CUT = 3
EXIT_UNDECIDED = 4
EXIT_DIMS = 5

CERTIFICATE_VERSION = "slocceq.certificate/1"

_CUTS = {cut.label: cut for cut in STANDARD_CUTS}

_STATUS_EXIT = {
    "EQUIVALENT": EXIT_OK,
    "INEQUIVALENT": EXIT_FAIL,
    "UNDECIDED": EXIT_UNDECIDED,
}


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _jsonable(value):
    """Recursively convert numpy scalars and containers to JSON types."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, complex):
        return [float(value.real), float(value.imag)]
    return value


def _complex_pairs(matrix) -> list:
    """Matrix entries as nested [re, im] pairs, row by row."""
    mat = np.asarray(matrix, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]


def _matrix_from_pairs(rows, field: str) -> np.ndarray:
    try:
        mat = np.array(
            [[complex(re, im) for re, im in row] for row in rows], dtype=complex
        )
    except (TypeError, ValueError) as exc:
        raise ValueError(f"certificate field {field!r} is malformed: {exc}")
    if mat.ndim != 2 or mat.size == 0 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"certificate field {field!r} must hold square matrices")
    return mat


def write_certificate_file(path, ops, scalar, cut_label, residual, diagnostics):
    """Serialize an operator certificate; round-trips doubles bit-exactly."""
    payload = {
        "version": CERTIFICATE_VERSION,
        "cut": cut_label,
        "scalar": [float(complex(scalar).real), float(complex(scalar).imag)],
        "residual": float(residual),
        "operators": [_complex_pairs(op) for op in ops],
        "diagnostics": _jsonable(diagnostics),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def read_certificate_file(path) -> dict:
    """Parse a certificate file, raising ValueError naming the bad field."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"certificate is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise ValueError("certificate root must be a JSON object")
    if doc.get("version") != CERTIFICATE_VERSION:
        raise ValueError(f"unsupported certificate version: {doc.get('version')!r}")
    raw_ops = doc.get("operators")
    if not isinstance(raw_ops, list) or not raw_ops:
        raise ValueError("certificate field 'operators' must be a non-empty list")
    ops = tuple(_matrix_from_pairs(rows, "operators") for rows in raw_ops)
    raw_scalar = doc.get("scalar")
    if (
        not isinstance(raw_scalar, list)
        or len(raw_scalar) != 2
        or not all(isinstance(x, (int, float)) for x in raw_scalar)
    ):
        raise ValueError("certificate field 'scalar' must be an [re, im] pair")
    residual = doc.get("residual")
    if not isinstance(residual, (int, float)):
        raise ValueError("certificate field 'residual' must be a number")
    return {
        "version": doc["version"],
        "cut": doc.get("cut"),
        "scalar": complex(raw_scalar[0], raw_scalar[1]),
        "residual": float(residual),
        "operators": ops,
        "diagnostics": doc.get("diagnostics", {}),
    }


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}j"


def _print_matrix(matrix, indent: str = "    ") -> None:
    for row in np.asarray(matrix, dtype=complex):
        print(indent + "  ".join(_fmt_complex(z) for z in row))


def _emit_json(payload: dict) -> None:
    print(json.dumps(_jsonable(payload), indent=2))


def _parse_cut(label: str):
    return _CUTS.get(label)


def cmd_decompose(args) -> int:
    try:
        state = read_state_file(args.state)
    except (OSError, ValueError) as exc:
        return _fail(EXIT_PARSE, str(exc))
    cut = _parse_cut(args.cut)
    if cut is None:
        return _fail(
            EXIT_BAD_CUT,
            f"invalid cut {args.cut!r}; expected one of {', '.join(_CUTS)}",
        )
    if state.num_parties != 4:
        return _fail(
            EXIT_PARSE,
            f"decompose needs a four-party state, file has {state.num_parties} parties",
        )
    try:
        triple = triple_state_set(state, cut, rtol=args.tol)
    except ValueError as exc:
        return _fail(EXIT_PARSE, str(exc))
    psi_u, psi_v = triple.psi_u, triple.psi_v

    payload = {
        "command": "decompose",
        "cut": cut.label,
        "dims": list(state.dims),
        "rank": triple.r,
        "singular_values": [float(s) for s in triple.singular_values],
        "psi_u": [_complex_pairs(s) for s in psi_u.slices],
        "psi_v": [_complex_pairs(s) for s in psi_v.slices],
        "warnings": list(triple.warnings),
    }
    if args.json:
        _emit_json(payload)
        return EXIT_OK
    print(f"cut: {cut.label}")
    print(f"dims: {list(state.dims)}")
    print(f"rank: {triple.r}")
    print("singular values: " + "  ".join(f"{s:.12g}" for s in triple.singular_values))
    for name, tri in (("psi_u", psi_u), ("psi_v", psi_v)):
        for j, piece in enumerate(tri.slices):
            print(f"{name} slice {j + 1}:")
            _print_matrix(piece)
    for warning in triple.warnings:
        print(f"warning: {warning}")
    return EXIT_OK


def _certificate_payload(cert) -> dict:
    return {
        "cut": cert.cut.label if cert.cut is not None else None,
        "scalar": [cert.scalar.real, cert.scalar.imag],
        "residual": cert.residual,
        "operators": [_complex_pairs(op) for op in cert.ops.ops],
    }


def cmd_check(args) -> int:
    try:
        target = read_state_file(args.state_a)
        source = read_state_file(args.state_b)
    except (OSError, ValueError) as exc:
        return _fail(EXIT_PARSE, str(exc))
    if target.dims != source.dims:
        return _fail(
            EXIT_DIMS,
            f"party dimensions differ: {list(target.dims)} vs {list(source.dims)}",
        )
    if target.num_parties != 4:
        return _fail(EXIT_PARSE, "check needs four-party states")

    seed = 0 if args.seed is None else args.seed
    config = SolverConfig(rng_seed=seed)
    if args.all_cuts:
        cut_label = "all"
        verdict = check_fourpartite_equiv_all_cuts(
            target, source, config, verify_tol=args.tol
        )
    else:
        cut_label = args.cut if args.cut is not None else "12-34"
        cut = _parse_cut(cut_label)
        if cut is None:
            return _fail(
                EXIT_BAD_CUT,
                f"invalid cut {cut_label!r}; expected one of {', '.join(_CUTS)}",
            )
        verdict = check_fourpartite_equiv(target, source, cut, config, verify_tol=args.tol)

    payload = {
        "command": "check",
        "verdict": verdict.status.name,
        "cut": cut_label,
        "seed": seed,
        "tolerance": args.tol,
        "certificate": None,
        "proof": None,
        "diagnostics": _jsonable(verdict.diagnostics),
    }
    if verdict.certificate is not None:
        payload["certificate"] = _certificate_payload(verdict.certificate)
        if args.cert_out:
            cert = verdict.certificate
            write_certificate_file(
                args.cert_out,
                cert.ops.ops,
                cert.scalar,
                cert.cut.label if cert.cut is not None else None,
                cert.residual,
                verdict.diagnostics,
            )
            payload["certificate_file"] = args.cert_out
    if verdict.proof is not None:
        payload["proof"] = _jsonable(verdict.proof.to_dict())

    if args.json:
        _emit_json(payload)
        return _STATUS_EXIT[verdict.status.name]

    print(f"seed: {seed}")
    print(f"verdict: {verdict.status.name}")
    cert = verdict.certificate
    if cert is not None:
        print(f"cut: {cert.cut.label}")
        print(f"scalar: {_fmt_complex(cert.scalar)}")
        print(f"residual: {cert.residual:.6g}")
        for k, op in enumerate(cert.ops.ops):
            print(f"operator {k + 1}:")
            _print_matrix(op)
        if args.cert_out:
            print(f"wrote certificate: {args.cert_out}")
    elif verdict.proof is not None:
        proof = verdict.proof
        print(f"invariant: {proof.invariant}")
        print(f"location: {proof.location}")
        print(f"value a: {proof.value_a}")
        print(f"value b: {proof.value_b}")
        print(f"reason: {proof.description}")
    else:
        diagnostics = verdict.diagnostics
        print(f"stage: {diagnostics.get('stage', 'unknown')}")
        if "candidates" in diagnostics:
            print(f"candidates: {diagnostics['candidates']}")
        if "verify_residual" in diagnostics:
            print(f"best verify residual: {diagnostics['verify_residual']:.6g}")
    return _STATUS_EXIT[verdict.status.name]


def cmd_verify(args) -> int:
    try:
        target = read_state_file(args.state_a)
        source = read_state_file(args.state_b)
        cert = read_certificate_file(args.cert)
    except (OSError, ValueError) as exc:
        return _fail(EXIT_PARSE, str(exc))
    ops = cert["operators"]
    if len(ops) != source.num_parties:
        return _fail(
            EXIT_PARSE,
            f"certificate holds {len(ops)} operators for a "
            f"{source.num_parties}-party state",
        )
    if tuple(op.shape[0] for op in ops) != source.dims:
        return _fail(EXIT_PARSE, "operator shapes do not match the state dimensions")

    passed, scalar, residual = verify_equivalence(target, source, ops, tol=args.tol)
    payload = {
        "command": "verify",
        "passed": passed,
        "scalar": [scalar.real, scalar.imag],
        "residual": residual,
        "tolerance": args.tol,
        "certificate_residual": cert["residual"],
    }
    if args.json:
        _emit_json(payload)
    else:
        print(f"verification: {'PASS' if passed else 'FAIL'}")
        print(f"scalar: {_fmt_complex(scalar)}")
        print(f"residual: {residual:.6g}")
        print(f"tolerance: {args.tol:.6g}")
    return EXIT_OK if passed else EXIT_FAIL


def cmd_classify3(args) -> int:
    try:
        state = read_state_file(args.state)
    except (OSError, ValueError) as exc:
        return _fail(EXIT_PARSE, str(exc))
    if state.dims != (2, 2, 2):
        return _fail(
            EXIT_DIMS, f"classify3 needs dims [2, 2, 2], got {list(state.dims)}"
        )
    tri = classify_tripartite_qubit(state)
    payload = {
        "command": "classify3",
        "label": tri.label.name,
        "marginal_ranks": list(tri.marginal_ranks),
        "hyperdeterminant_magnitude": tri.hyperdet_magnitude,
    }
    if args.json:
        _emit_json(payload)
    else:
        print(f"label: {tri.label.name}")
        print(f"marginal ranks: {list(tri.marginal_ranks)}")
        print(f"hyperdeterminant magnitude: {tri.hyperdet_magnitude:.6g}")
    return EXIT_OK


def cmd_orbit(args) -> int:
    try:
        state = read_state_file(args.state)
    except (OSError, ValueError) as exc:
        return _fail(EXIT_PARSE, str(exc))
    seed = 0 if args.seed is None else args.seed
    ops = random_invertible_ops(state.dims, seed, condition_cap=args.cond_cap)
    image = apply_local_ops(state, ops)
    passed, scalar, residual = verify_equivalence(image, state, ops)
    if not passed:
        return _fail(EXIT_FAIL, "planted operators failed self-verification")

    image_path = f"{args.out}.state"
    cert_path = f"{args.out}.cert"
    write_state_file(image_path, image)
    write_certificate_file(
        cert_path,
        ops.ops,
        scalar,
        None,
        residual,
        {"planted": True, "seed": seed, "condition_cap": args.cond_cap},
    )
    payload = {
        "command": "orbit",
        "seed": seed,
        "condition_cap": args.cond_cap,
        "image_file": image_path,
        "certificate_file": cert_path,
        "residual": residual,
    }
    if args.json:
        _emit_json(payload)
    else:
        print(f"seed: {seed}")
        print(f"condition cap: {args.cond_cap:g}")
        print(f"wrote image: {image_path}")
        print(f"wrote certificate: {cert_path}")
        print(f"residual: {residual:.6g}")
    return EXIT_OK


def _finite_above(bound: float):
    """argparse type: a finite float strictly greater than ``bound``.

    A rejected value makes argparse name the flag and exit with the parse
    error code.
    """

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not math.isfinite(value) or value <= bound:
            raise argparse.ArgumentTypeError(
                f"must be a finite number > {bound:g}, got {text!r}"
            )
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )

    parser = argparse.ArgumentParser(
        prog="slocceq",
        description=(
            "Decide SLOCC equivalence of four-partite pure states via "
            "triple-state decomposition and closed-form constructions of local "
            "operators, each verified on the amplitudes."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "decompose", parents=[common], help="triple-state decomposition at a cut"
    )
    p.add_argument("state", help="state file")
    p.add_argument("--cut", default="12-34", help="cut label: 12-34, 13-24 or 14-23")
    p.add_argument(
        "--tol",
        type=_finite_above(0.0),
        default=DEFAULT_RTOL,
        help="relative rank tolerance",
    )
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser(
        "check", parents=[common], help="decide equivalence of two states"
    )
    p.add_argument("state_a", help="target state file")
    p.add_argument("state_b", help="source state file (operators map b onto a)")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--cut", default=None, help="cut label (default 12-34)")
    group.add_argument(
        "--all-cuts", action="store_true", help="merge verdicts over the three cuts"
    )
    p.add_argument(
        "--tol",
        type=_finite_above(0.0),
        default=DEFAULT_VERIFY_TOL,
        help="certificate verification tolerance",
    )
    p.add_argument("--seed", type=int, default=None, help="solver seed (default 0)")
    p.add_argument(
        "--cert-out", default=None, help="write the certificate here when equivalent"
    )
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "verify", parents=[common], help="re-verify a certificate against two states"
    )
    p.add_argument("state_a", help="target state file")
    p.add_argument("state_b", help="source state file")
    p.add_argument("cert", help="certificate file")
    p.add_argument(
        "--tol",
        type=_finite_above(0.0),
        default=DEFAULT_VERIFY_TOL,
        help="acceptance tolerance on the relative residual",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "classify3", parents=[common], help="classify a three-qubit state"
    )
    p.add_argument("state", help="state file with dims [2, 2, 2]")
    p.set_defaults(func=cmd_classify3)

    p = sub.add_parser(
        "orbit", parents=[common], help="generate a random local orbit image"
    )
    p.add_argument("state", help="state file")
    p.add_argument("--seed", type=int, default=None, help="operator seed (default 0)")
    p.add_argument(
        "--cond-cap",
        type=_finite_above(1.0),
        default=DEFAULT_CONDITION_CAP,
        help="condition number cap for the drawn operators",
    )
    p.add_argument("--out", required=True, help="output prefix (.state and .cert)")
    p.set_defaults(func=cmd_orbit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if not exc.code else EXIT_PARSE
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
