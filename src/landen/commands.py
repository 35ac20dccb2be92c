"""Entry point of ``landen`` and ``python -m landen``.

Subcommands: ``eval`` (single function values), ``coeffs`` (transformation
coefficients as JSON), ``table`` (the transformed-parameter table as CSV),
``verify`` (residual suites with a JSON report), ``sg-check`` (field
equation route for one superposition).

Exit codes: 0 pass, 1 verification failure, 2 degenerate input or domain
error.  Output is deterministic: identical invocations produce identical
bytes.

This module holds the parser, the output helpers and the scalar commands,
which read only :mod:`landen.nome` and load no numpy: ``coeffs``,
``table`` and ``eval`` (K from the AGM, sn, cn and dn from the theta
quotients of the nome route).  A scalar command loads no ``inspect``
either, and ``json`` only where it writes JSON (``coeffs``).  ``verify``
and ``sg-check`` are defined in :mod:`landen.cli`, which loads numpy and
every layer when it is imported.  :func:`main` routes every command,
imports ``landen.cli`` only for those two, and holds the one rule for
errors.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from .nome import (AlternatingSumDegenerateError, Family, LandenSpec, coefficients,
                   jacobi_nome, quarter_period)

TABLE_M_DEFAULT = (0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 0.9999, 0.99999, 1.0)

# the commands whose cmd_* function lives in landen.cli
_LAYER_COMMANDS = ("verify", "sg-check")


def format_sig4(value: float) -> str:
    """Leading-dot mantissa with 4 significant digits, e.g. '.2944e-1'.

    0 and 1 print bare; an exponent of zero is omitted ('.1111'); a
    negative value prints with a leading minus ('-.5000').
    """
    if value == 0.0:
        return "0"
    if value < 0.0:
        return "-" + format_sig4(-value)
    if value == 1.0:
        return "1"
    exp = math.floor(math.log10(abs(value))) + 1
    mant = value / 10.0 ** exp
    mant = round(mant, 4)
    if mant >= 1.0:
        mant /= 10.0
        exp += 1
    body = f"{mant:.4f}"[1:]
    return body if exp == 0 else f"{body}e{exp}"


def _format_value(value: float, fmt: str) -> str:
    return format_sig4(value) if fmt == "paper" else repr(float(value))


def _emit(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out:
        with open(out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_RECORD_SEP = ",\n      "  # a comma, then the indent=2 indent of a record's keys


def _json_doc(obj) -> str:
    """json.dumps(obj, indent=2, allow_nan=False), byte for byte.

    The encoder's C core only runs without indent, so a non-empty
    top-level ``results`` list is encoded in one call that separates items
    by a newline and the records' indent; the record boundaries and the
    list's ends are then rewritten to their indent=2 form and the list is
    spliced into the indent=2 encoding of the other keys.  That rests on
    two invariants: every record is a flat dict of JSON scalars, and an
    encoded string never holds a raw newline, so "},\\n      {" occurs
    only between records.  A NaN or inf is re-encoded with indent=2, so
    its ValueError reads as that encoder's.
    """
    # imported here: eval and table write no JSON
    import json

    records = obj.get("results")
    if not records:
        return json.dumps(obj, indent=2, allow_nan=False)
    try:
        flat = json.dumps(records, separators=(_RECORD_SEP, ": "), allow_nan=False)
    except ValueError:
        return json.dumps(obj, indent=2, allow_nan=False)
    body = ("[\n    {\n      "
            + flat[2:-2].replace("}" + _RECORD_SEP + "{", "\n    },\n    {\n      ")
            + "\n    }\n  ]")
    head, tail = json.dumps({**obj, "results": []}, indent=2,
                            allow_nan=False).split('\n  "results": []', 1)
    return f'{head}\n  "results": {body}{tail}'


# ---------------------------------------------------------------- commands

def cmd_eval(args) -> int:
    if args.fn == "K":
        value = quarter_period(args.m)
    else:
        if args.x is None:
            raise ValueError(f"--x is required for --fn {args.fn}")
        value = dict(zip(("sn", "cn", "dn"), jacobi_nome(args.x, args.m)))[args.fn]
    _emit(f"{value:.15g}", args.out)
    return 0


def cmd_coeffs(args) -> int:
    spec = LandenSpec(Family(args.family), args.p)
    try:
        doc = coefficients(spec, args.m)._asdict()
    except AlternatingSumDegenerateError as exc:
        doc = {"status": "Degenerate", "reason": str(exc)}
    else:
        # the limits at m = 0 include inf and nan, which strict JSON cannot carry
        limits = ", ".join(f"{name} = {value!r}" for name, value in doc.items()
                           if value is not None and not math.isfinite(value))
        if limits:
            doc = {"status": "Degenerate", "reason": f"{args.family} p = {args.p} at m = "
                   f"{args.m!r} has non-finite coefficients: {limits}"}
    _emit(_json_doc(doc), args.out)
    return 2 if "status" in doc else 0


def cmd_table(args) -> int:
    if not (2 <= args.p_min <= args.p_max):
        raise ValueError(f"need 2 <= p-min <= p-max, got {args.p_min}..{args.p_max}")
    ps = list(range(args.p_min, args.p_max + 1))
    ms = args.m_list if args.m_list is not None else list(TABLE_M_DEFAULT)
    lines = ["m," + ",".join(f"p{p}" for p in ps)]
    for m in ms:
        row = [f"{m:g}"]
        for p in ps:
            m_tilde = coefficients(LandenSpec(Family.DN, p), m).m_tilde
            row.append(_format_value(m_tilde, args.format))
        lines.append(",".join(row))
    _emit("\n".join(lines), args.out)
    return 0


# ----------------------------------------------------------------- parser

def _parse_m_list(text: str):
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad m list {text!r}: {exc}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process: it names each
    command (``args.command``) and holds no handler, so it never changes."""
    parser = argparse.ArgumentParser(
        prog="landen",
        description="Jacobi elliptic functions and multi-term modulus "
                    "transformations: evaluation and verification tools.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate sn, cn, dn or K")
    p_eval.add_argument("--fn", required=True, choices=("sn", "cn", "dn", "K"))
    p_eval.add_argument("--x", type=float, default=None)
    p_eval.add_argument("--m", type=float, required=True)
    p_eval.add_argument("--out", default=None)

    p_coeffs = sub.add_parser("coeffs", help="transformation coefficients as JSON")
    p_coeffs.add_argument("--family", required=True, choices=("dn", "cn", "sn"))
    p_coeffs.add_argument("--p", type=int, required=True)
    p_coeffs.add_argument("--m", type=float, required=True)
    p_coeffs.add_argument("--out", default=None)

    p_table = sub.add_parser("table", help="transformed-parameter table as CSV")
    p_table.add_argument("--p-min", type=int, default=2)
    p_table.add_argument("--p-max", type=int, default=7)
    p_table.add_argument("--m-list", type=_parse_m_list, default=None)
    p_table.add_argument("--format", choices=("paper", "full"), default="paper")
    p_table.add_argument("--out", default=None)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--scope", default="all",
                          choices=("classic", "family", "sine-gordon", "all"))
    p_verify.add_argument("--tol", type=float, default=1e-9)
    p_verify.add_argument("--grid", type=int, default=128)
    p_verify.add_argument("--out", default=None)

    p_sg = sub.add_parser("sg-check", help="field-equation route for one "
                                           "superposition")
    p_sg.add_argument("--family", required=True, choices=("dn", "cn", "sn"))
    p_sg.add_argument("--p", type=int, required=True)
    p_sg.add_argument("--m", type=float, required=True)
    p_sg.add_argument("--grid", type=int, default=256)
    p_sg.add_argument("--tol", type=float, default=1e-6)
    p_sg.add_argument("--out", default=None)

    return parser


def main(argv=None) -> int:
    """Run one command: its ``cmd_*`` function from this module, or from
    :mod:`landen.cli` for ``verify`` and ``sg-check``.  A ValueError or
    ArithmeticError exits 2."""
    args = build_parser().parse_args(argv)
    name = "cmd_" + args.command.replace("-", "_")
    if args.command in _LAYER_COMMANDS:
        from . import cli
        handler = getattr(cli, name)
    else:
        handler = globals()[name]
    try:
        return handler(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
