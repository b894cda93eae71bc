"""Command line surface: decompose, check, verify, classify, orbit generation.

Each command returns its exit code and one payload dict. :func:`main`
prints the payload as JSON under ``--json``, else as the text lines of
:func:`_render`, so the two forms state the same facts.

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
    check_fourpartite_equiv,
    check_fourpartite_equiv_all_cuts,
    verify_equivalence,
)
from .invariants import classify_tripartite_qubit
from .states import (
    STANDARD_CUTS,
    LocalOperatorTuple,
    apply_local_ops,
    json_default,
    json_number,
    read_state_file,
    write_state_file,
)
from .tensorops import DEFAULT_RTOL, DEFAULT_VERIFY_TOL

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


def _fmt(value) -> str:
    if isinstance(value, complex):
        return f"{value.real:.12g}{value.imag:+.12g}j"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _render(payload: dict, indent: str = "") -> list[str]:
    """The text form of a payload: its entries in order, ``command`` and None values skipped.

    An entry is a ``key name: value`` line, ``_`` in the key read as a
    space. A dict prints as ``name:`` over its entries, two spaces deeper;
    a sequence of matrices as ``name k:`` over the rows of the k-th; any
    other sequence on one line, its items two spaces apart.
    """
    lines = []
    for key, value in payload.items():
        if key == "command" or value is None:
            continue
        name = indent + key.replace("_", " ")
        if isinstance(value, dict):
            lines += [f"{name}:", *_render(value, indent + "  ")]
        elif not isinstance(value, (list, tuple, np.ndarray)):
            lines.append(f"{name}: {_fmt(value)}")
        elif len(value) and all(np.ndim(item) == 2 for item in value):
            for k, matrix in enumerate(value, 1):
                rows = np.asarray(matrix, dtype=complex)
                lines += [f"{name} {k}:", *(f"{indent}    {'  '.join(map(_fmt, row))}" for row in rows)]
        else:
            lines.append(f"{name}: {'  '.join(map(_fmt, value))}".rstrip())
    return lines


def cmd_decompose(args) -> tuple[int, dict]:
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
    return EXIT_OK, {
        "command": "decompose",
        "cut": cut.label,
        "dims": list(state.dims),
        "rank": triple.r,
        "singular_values": triple.singular_values,
        "psi_u": triple.psi_u.slices,
        "psi_v": triple.psi_v.slices,
        "warnings": list(triple.warnings),
    }


def cmd_check(args) -> tuple[int, dict]:
    target, source = _read_pair(args)
    if target.num_parties != 4:
        raise _Exit(EXIT_PARSE, "check needs four-party states")

    if args.all_cuts:
        cut_label = "all"
        verdict = check_fourpartite_equiv_all_cuts(target, source, verify_tol=args.tol)
    else:
        cut_label = args.cut
        verdict = check_fourpartite_equiv(target, source, _cut(cut_label), verify_tol=args.tol)

    cert, proof = verdict.certificate, verdict.proof
    payload = {
        "command": "check",
        "verdict": verdict.status.name,
        "cut": cut_label,
        "tolerance": args.tol,
        "certificate": None,
        "proof": proof.to_dict() if proof is not None else None,
        "diagnostics": verdict.diagnostics,
    }
    if cert is not None:
        cert_cut = cert.cut.label if cert.cut is not None else None
        payload["certificate"] = _certificate_fields(cert_cut, cert.scalar, cert.residual, cert.ops.ops)
        if args.cert_out:
            _write(
                write_certificate_file,
                args.cert_out, cert.ops.ops, cert.scalar, cert_cut, cert.residual, verdict.diagnostics,
            )
            payload["certificate_file"] = args.cert_out
    return _STATUS_EXIT[verdict.status.name], payload


def cmd_verify(args) -> tuple[int, dict]:
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
    return EXIT_OK if passed else EXIT_FAIL, {
        "command": "verify",
        "passed": passed,
        "scalar": scalar,
        "residual": residual,
        "tolerance": args.tol,
        "certificate_residual": cert["residual"],
    }


def cmd_classify3(args) -> tuple[int, dict]:
    state = _read_state(args.state)
    if state.dims != (2, 2, 2):
        raise _Exit(EXIT_DIMS, f"classify3 needs dims [2, 2, 2], got {list(state.dims)}")
    tri = classify_tripartite_qubit(state)
    return EXIT_OK, {
        "command": "classify3",
        "label": tri.label.name,
        "marginal_ranks": list(tri.marginal_ranks),
        "hyperdeterminant_magnitude": tri.hyperdet_magnitude,
    }


def cmd_orbit(args) -> tuple[int, dict]:
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
    return EXIT_OK, {
        "command": "orbit",
        "seed": args.seed,
        "condition_cap": args.cond_cap,
        "image_file": image_path,
        "certificate_file": cert_path,
        "residual": residual,
    }


def _interval(low: float, high: float = math.inf, kind=float):
    """argparse type: a ``kind`` value strictly between ``low`` and ``high``.

    The open interval shuts out nan and both infinities. A rejected value
    makes argparse name the flag and exit with the parse error code.
    """

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not low < value < high:
            what = "an integer" if kind is int else "a number"
            raise argparse.ArgumentTypeError(f"must be {what} in ({low:g}, {high:g}), got {text!r}")
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
        type=_interval(0.0),
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
    group.add_argument("--cut", default="12-34", help="cut label (default 12-34)")
    group.add_argument(
        "--all-cuts", action="store_true", help="merge verdicts over the three cuts"
    )
    p.add_argument(
        "--tol",
        type=_interval(0.0, 1.0),
        default=DEFAULT_VERIFY_TOL,
        help="certificate verification tolerance",
    )
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
        type=_interval(0.0, 1.0),
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
    p.add_argument("--seed", type=_interval(-1, kind=int), default=0, help="operator seed (default 0)")
    p.add_argument(
        "--cond-cap",
        type=_interval(1.0),
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
        code, payload = args.func(args)
    except _Exit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    print(json.dumps(payload, indent=2, default=json_default) if args.json else "\n".join(_render(payload)))
    return code


if __name__ == "__main__":
    sys.exit(main())
