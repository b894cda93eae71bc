"""Command line surface: decompose, check, verify, classify, orbit generation.

Exit codes are a stable contract:

====  =========================================-
0     equivalent / verification passed
1     inequivalent / verification failed
2     parse error (bad file, bad flags, singular
      certificate operator, unwritable output)
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
    LocalOperatorTuple,
    apply_local_ops,
    json_default,
    json_number,
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


class _Exit(Exception):
    """A usage or input error: the exit code and the message :func:`main` prints."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read_state(path):
    try:
        return read_state_file(path)
    except (OSError, ValueError) as exc:
        raise _Exit(EXIT_PARSE, str(exc))


def _read_pair(args):
    """The target and source states of ``args``, whose party dimensions must agree."""
    target, source = _read_state(args.state_a), _read_state(args.state_b)
    if target.dims != source.dims:
        raise _Exit(EXIT_DIMS, f"party dimensions differ: {list(target.dims)} vs {list(source.dims)}")
    return target, source


def _cut(label: str):
    if label not in _CUTS:
        raise _Exit(EXIT_BAD_CUT, f"invalid cut {label!r}; expected one of {', '.join(_CUTS)}")
    return _CUTS[label]


def _write(write, path, *args) -> None:
    """``write(path, *args)``; a failed write is a usage error, never a verdict."""
    try:
        write(path, *args)
    except OSError as exc:
        raise _Exit(EXIT_PARSE, f"cannot write output file: {exc}")


def _matrix_from_pairs(rows, field: str) -> np.ndarray:
    try:
        mat = np.array([[json_number(z, "an entry", pair=True) for z in row] for row in rows])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"certificate field {field!r} is malformed: {exc}")
    if mat.ndim != 2 or mat.size == 0 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"certificate field {field!r} must hold square matrices")
    return mat


def _certificate_fields(cut_label, scalar, residual, ops) -> dict:
    """What a certificate states, in file order; ``check --json`` prints the same fields."""
    return {
        "cut": cut_label,
        "scalar": complex(scalar),
        "residual": float(residual),
        "operators": [np.asarray(op, dtype=complex) for op in ops],
    }


def write_certificate_file(path, ops, scalar, cut_label, residual, diagnostics):
    """Serialize an operator certificate; round-trips doubles bit-exactly."""
    payload = {
        "version": CERTIFICATE_VERSION,
        **_certificate_fields(cut_label, scalar, residual, ops),
        "diagnostics": diagnostics,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, default=json_default)
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
    return {
        "version": doc["version"],
        "cut": doc.get("cut"),
        "scalar": json_number(doc.get("scalar"), "certificate field 'scalar'", pair=True),
        "residual": json_number(doc.get("residual"), "certificate field 'residual'"),
        "operators": ops,
        "diagnostics": doc.get("diagnostics", {}),
    }


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}j"


def _matrix_lines(matrix) -> list[str]:
    return ["    " + "  ".join(_fmt_complex(z) for z in row) for row in np.asarray(matrix, dtype=complex)]


def _emit(args, payload: dict, lines: list[str]) -> None:
    """Print ``payload`` as JSON under ``--json``, else the text ``lines``."""
    if args.json:
        print(json.dumps(payload, indent=2, default=json_default))
    else:
        print("\n".join(lines))


def cmd_decompose(args) -> int:
    state = _read_state(args.state)
    cut = _cut(args.cut)
    if state.num_parties != 4:
        raise _Exit(
            EXIT_PARSE, f"decompose needs a four-party state, file has {state.num_parties} parties"
        )
    try:
        triple = triple_state_set(state, cut, rtol=args.tol)
    except ValueError as exc:
        raise _Exit(EXIT_PARSE, str(exc))
    psi_u, psi_v = triple.psi_u, triple.psi_v

    payload = {
        "command": "decompose",
        "cut": cut.label,
        "dims": list(state.dims),
        "rank": triple.r,
        "singular_values": triple.singular_values,
        "psi_u": psi_u.slices,
        "psi_v": psi_v.slices,
        "warnings": list(triple.warnings),
    }
    lines = [
        f"cut: {cut.label}",
        f"dims: {list(state.dims)}",
        f"rank: {triple.r}",
        "singular values: " + "  ".join(f"{s:.12g}" for s in triple.singular_values),
    ]
    for name, tri in (("psi_u", psi_u), ("psi_v", psi_v)):
        for j, piece in enumerate(tri.slices):
            lines += [f"{name} slice {j + 1}:", *_matrix_lines(piece)]
    lines += [f"warning: {warning}" for warning in triple.warnings]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_check(args) -> int:
    target, source = _read_pair(args)
    if target.num_parties != 4:
        raise _Exit(EXIT_PARSE, "check needs four-party states")

    config = SolverConfig(rng_seed=args.seed)
    if args.all_cuts:
        cut_label = "all"
        verdict = check_fourpartite_equiv_all_cuts(target, source, config, verify_tol=args.tol)
    else:
        cut_label = args.cut if args.cut is not None else "12-34"
        verdict = check_fourpartite_equiv(target, source, _cut(cut_label), config, verify_tol=args.tol)

    payload = {
        "command": "check",
        "verdict": verdict.status.name,
        "cut": cut_label,
        "seed": args.seed,
        "tolerance": args.tol,
        "certificate": None,
        "proof": None,
        "diagnostics": verdict.diagnostics,
    }
    lines = [f"seed: {args.seed}", f"verdict: {verdict.status.name}"]
    cert, proof = verdict.certificate, verdict.proof
    if cert is not None:
        cert_cut = cert.cut.label if cert.cut is not None else None
        payload["certificate"] = _certificate_fields(cert_cut, cert.scalar, cert.residual, cert.ops.ops)
        lines += [
            f"cut: {cert_cut}",
            f"scalar: {_fmt_complex(cert.scalar)}",
            f"residual: {cert.residual:.6g}",
        ]
        for k, op in enumerate(cert.ops.ops):
            lines += [f"operator {k + 1}:", *_matrix_lines(op)]
        if args.cert_out:
            _write(
                write_certificate_file,
                args.cert_out, cert.ops.ops, cert.scalar, cert_cut, cert.residual, verdict.diagnostics,
            )
            payload["certificate_file"] = args.cert_out
            lines.append(f"wrote certificate: {args.cert_out}")
    elif proof is not None:
        payload["proof"] = proof.to_dict()
        lines += [
            f"invariant: {proof.invariant}",
            f"location: {proof.location}",
            f"value a: {proof.value_a}",
            f"value b: {proof.value_b}",
            f"reason: {proof.description}",
        ]
    else:
        diagnostics = verdict.diagnostics
        lines.append(f"stage: {diagnostics.get('stage', 'unknown')}")
        if "candidates" in diagnostics:
            lines.append(f"candidates: {diagnostics['candidates']}")
        if "verify_residual" in diagnostics:
            lines.append(f"best verify residual: {diagnostics['verify_residual']:.6g}")
    _emit(args, payload, lines)
    return _STATUS_EXIT[verdict.status.name]


def cmd_verify(args) -> int:
    try:
        cert = read_certificate_file(args.cert)
    except (OSError, ValueError) as exc:
        raise _Exit(EXIT_PARSE, str(exc))
    target, source = _read_pair(args)
    ops = cert["operators"]
    if len(ops) != source.num_parties:
        raise _Exit(
            EXIT_PARSE, f"certificate holds {len(ops)} operators for a {source.num_parties}-party state"
        )
    if tuple(op.shape[0] for op in ops) != source.dims:
        raise _Exit(EXIT_PARSE, "operator shapes do not match the state dimensions")
    try:
        ops = LocalOperatorTuple(ops)
    except ValueError as exc:
        raise _Exit(EXIT_PARSE, f"certificate rejected: {exc}")

    passed, scalar, residual = verify_equivalence(target, source, ops, tol=args.tol)
    payload = {
        "command": "verify",
        "passed": passed,
        "scalar": scalar,
        "residual": residual,
        "tolerance": args.tol,
        "certificate_residual": cert["residual"],
    }
    lines = [
        f"verification: {'PASS' if passed else 'FAIL'}",
        f"scalar: {_fmt_complex(scalar)}",
        f"residual: {residual:.6g}",
        f"tolerance: {args.tol:.6g}",
    ]
    _emit(args, payload, lines)
    return EXIT_OK if passed else EXIT_FAIL


def cmd_classify3(args) -> int:
    state = _read_state(args.state)
    if state.dims != (2, 2, 2):
        raise _Exit(EXIT_DIMS, f"classify3 needs dims [2, 2, 2], got {list(state.dims)}")
    tri = classify_tripartite_qubit(state)
    payload = {
        "command": "classify3",
        "label": tri.label.name,
        "marginal_ranks": list(tri.marginal_ranks),
        "hyperdeterminant_magnitude": tri.hyperdet_magnitude,
    }
    lines = [
        f"label: {tri.label.name}",
        f"marginal ranks: {list(tri.marginal_ranks)}",
        f"hyperdeterminant magnitude: {tri.hyperdet_magnitude:.6g}",
    ]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_orbit(args) -> int:
    state = _read_state(args.state)
    ops = random_invertible_ops(state.dims, args.seed, condition_cap=args.cond_cap)
    image = apply_local_ops(state, ops)
    passed, scalar, residual = verify_equivalence(image, state, ops)
    if not passed:
        raise _Exit(EXIT_FAIL, "planted operators failed self-verification")

    image_path = f"{args.out}.state"
    cert_path = f"{args.out}.cert"
    planted = {"planted": True, "seed": args.seed, "condition_cap": args.cond_cap}
    _write(write_state_file, image_path, image)
    _write(write_certificate_file, cert_path, ops.ops, scalar, None, residual, planted)
    payload = {
        "command": "orbit",
        "seed": args.seed,
        "condition_cap": args.cond_cap,
        "image_file": image_path,
        "certificate_file": cert_path,
        "residual": residual,
    }
    lines = [
        f"seed: {args.seed}",
        f"condition cap: {args.cond_cap:g}",
        f"wrote image: {image_path}",
        f"wrote certificate: {cert_path}",
        f"residual: {residual:.6g}",
    ]
    _emit(args, payload, lines)
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


def _non_negative_int(text: str) -> int:
    """argparse type: an integer >= 0, as numpy's seed sequences require."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, got {text!r}")
    return value


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
    p.add_argument("--seed", type=_non_negative_int, default=0, help="solver seed (default 0)")
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
    p.add_argument("--seed", type=_non_negative_int, default=0, help="operator seed (default 0)")
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
    try:
        return args.func(args)
    except _Exit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
