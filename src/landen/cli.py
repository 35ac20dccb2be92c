"""Command-line front end.

Subcommands: ``eval`` (single function values), ``coeffs`` (transformation
coefficients as JSON), ``table`` (the transformed-parameter table as CSV),
``verify`` (residual suites with a JSON report), ``sg-check`` (field
equation route for one superposition).

Exit codes: 0 pass, 1 verification failure, 2 degenerate input or domain
error.  Output is deterministic: identical invocations produce identical
bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .classic import (classic_cn, classic_dn, classic_dn_two_term, classic_m_tilde,
                      classic_sn)
from .elliptic import complete_elliptic_k, jacobi_eval
from .general import (AlternatingSumDegenerateError, Family, LandenSpec,
                      _identity_residuals, _sum_routes, coefficients)
from .sine_gordon import (NoClosedFormError, NotMeasurableError, SolutionFamily,
                          classify, closed_form_c, default_samples, first_integrals,
                          ode_residual, solution_kind)

M_GRID = (0.1, 0.25, 0.5, 0.75, 0.9, 0.99)
TABLE_M_DEFAULT = (0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 0.9999, 0.99999, 1.0)

# verify's second route for m~: the paper's shifted sums must agree with
# the nome route to this relative error, or the cell is flagged with
# SUMS_CANCELLED (no pass key) where they cancel.
SUM_ROUTE_RTOL = 1e-12
SUMS_CANCELLED = ("the shifted sums cancel: m~ misses the nome route by more than "
                  f"{SUM_ROUTE_RTOL:g} relative")


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


def _json_doc(obj) -> str:
    return json.dumps(obj, indent=2)


# ---------------------------------------------------------------- commands

def cmd_eval(args) -> int:
    if args.fn == "K":
        value = float(complete_elliptic_k(args.m))
    else:
        if args.x is None:
            raise ValueError(f"--x is required for --fn {args.fn}")
        triple = jacobi_eval(args.x, args.m)
        value = float(getattr(triple, args.fn))
    _emit(f"{value:.15g}", args.out)
    return 0


def cmd_coeffs(args) -> int:
    spec = LandenSpec(Family(args.family), args.p)
    try:
        co = coefficients(spec, args.m)
    except AlternatingSumDegenerateError as exc:
        _emit(_json_doc({"status": "Degenerate", "reason": str(exc)}), args.out)
        return 2
    doc = {"alpha": co.alpha, "a_sum": co.a_sum, "m_tilde": co.m_tilde,
           "arg_scale": co.arg_scale}
    _emit(_json_doc(doc), args.out)
    return 0


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


def _classic_records(grid: int, tol: float):
    records = []
    for m in M_GRID:
        kp = math.sqrt(1.0 - m)
        mt = classic_m_tilde(m)
        span_sc = 4.0 * float(complete_elliptic_k(mt))
        span_dn = 2.0 * float(complete_elliptic_k(mt))
        for name, op, span in (("classic-sn", classic_sn, span_sc),
                               ("classic-cn", classic_cn, span_sc),
                               ("classic-dn", classic_dn, span_dn)):
            u = np.linspace(0.0, span, grid) / (1.0 + kp)
            res = op(u, m)
            worst = float(np.max(np.abs(res.lhs - res.rhs)))
            records.append({"check": name, "m": m, "max_abs": worst,
                            "tol": tol, "pass": worst <= tol})
        x = np.linspace(0.0, span_dn, grid)
        two = classic_dn_two_term(x, m)
        worst = float(np.max(np.abs(two.lhs - two.rhs)))
        records.append({"check": "classic-dn-two-term", "m": m, "max_abs": worst,
                        "tol": tol, "pass": worst <= tol})
    return records


def _family_records(grid: int, tol: float):
    """Identity, m~-agreement and sum-route records of every (p, m) cell.

    Each p is one batch over all of M_GRID and the three families: three
    jacobi_eval calls (right-hand sides, left-hand sides, shift points).
    """
    records = []
    families = tuple(Family)
    for p in range(2, 8):
        residuals, nome_m_tildes = _identity_residuals(p, M_GRID, grid, families)
        sum_routes = _sum_routes(p, M_GRID, families)
        for j, m in enumerate(M_GRID):
            for family in families:
                res = residuals[family][j]
                records.append({"check": f"identity-{family.value}", "p": p, "m": m,
                                "max_abs": res.max_abs, "tol": tol,
                                "pass": res.max_abs <= tol})
            sums = {family: sum_routes[family][j] for family in families}
            vals = list(sums.values())
            worst = max(abs(a - b) for a in vals for b in vals)
            records.append({"check": "m-tilde-agreement", "p": p, "m": m,
                            "max_abs": worst, "tol": tol, "pass": worst <= tol})
            nome = nome_m_tildes[j]
            for family, value in sums.items():
                rel = abs(value - nome) / nome
                record = {"check": f"sum-route-{family.value}", "p": p, "m": m}
                if rel <= SUM_ROUTE_RTOL:
                    record.update({"max_abs": rel, "tol": SUM_ROUTE_RTOL, "pass": True})
                else:
                    record.update({"rel_err": rel, "flagged": SUMS_CANCELLED})
                records.append(record)
    return records


def _first_integral_route(fam):
    """What verify and sg-check read off fam's first integral: (value,
    closed-form C or None, classify(C), general m~).  NotMeasurableError
    passes through.
    """
    route = _first_integral_routes([fam])[0]
    if isinstance(route, NotMeasurableError):
        raise route
    return route


def _first_integral_routes(fams):
    """_first_integral_route of solutions of one kind and p, from one
    evaluation; an entry is the NotMeasurableError where that raises."""
    routes = []
    for fam, value in zip(fams, first_integrals(fams, [default_samples(fam) for fam in fams])):
        if isinstance(value, NotMeasurableError):
            routes.append(value)
            continue
        try:
            closed = closed_form_c(fam)
        except NoClosedFormError:
            closed = None
        routes.append((value, closed, classify(value), fam.m_tilde))
    return routes


def _sine_gordon_records(tol: float):
    records = []
    for p in range(2, 8):
        fams = {family: [SolutionFamily(solution_kind(family, p), p, m) for m in M_GRID]
                for family in Family}
        routes = {family: _first_integral_routes(fams[family]) for family in Family}
        for j, m in enumerate(M_GRID):
            for family in Family:
                fam, route = fams[family][j], routes[family][j]
                kind = fam.kind.value
                if isinstance(route, NotMeasurableError):
                    records.append({"check": f"c-route-{kind}", "p": p, "m": m,
                                    "skipped": str(route)})
                    continue
                value, closed, verdict, target = route
                c = value.c
                scale = max(1.0, abs(c))
                if fam.family is Family.CN:
                    violation = max(0.0, 2.0 - c)
                else:
                    violation = max(0.0, -2.0 - c, c - 2.0)
                checks = [("c-constancy", value.spread / scale), ("c-range", violation)]
                if closed is not None:
                    checks.append(("c-closed-form", abs(c - closed) / scale))
                # absolute comparison: the implied value (C + 2) / 4 cannot
                # resolve parameters below ~1e-16 out of a float C near -2
                checks.append(("implied-m-tilde", abs(verdict.m_tilde - target)))
                records += [{"check": f"{check}-{kind}", "p": p, "m": m,
                             "max_abs": value, "tol": tol, "pass": value <= tol}
                            for check, value in checks]
    return records


def _check_tol(tol: float) -> None:
    if not 0.0 < tol < math.inf:
        raise ValueError(f"--tol must be positive and finite, got {tol!r}")


def cmd_verify(args) -> int:
    _check_tol(args.tol)
    if args.grid < 16:
        raise ValueError("--grid must be at least 16")
    records = []
    if args.scope in ("classic", "all"):
        records += _classic_records(args.grid, args.tol)
    if args.scope in ("family", "all"):
        records += _family_records(args.grid, args.tol)
    if args.scope in ("sine-gordon", "all"):
        records += _sine_gordon_records(args.tol)
    status = "Pass" if all(r["pass"] for r in records if "pass" in r) else "Fail"
    doc = {"tool_version": __version__, "command": "verify",
           "parameters": {"scope": args.scope, "tol": args.tol, "grid": args.grid},
           "results": records, "status": status}
    _emit(_json_doc(doc), args.out)
    return 0 if status == "Pass" else 1


def cmd_sg_check(args) -> int:
    _check_tol(args.tol)
    kind = solution_kind(args.family, args.p)
    try:
        fam = SolutionFamily(kind, args.p, args.m)
        value, closed, verdict, target = _first_integral_route(fam)
        ode = ode_residual(fam, args.grid)
    except (AlternatingSumDegenerateError, NotMeasurableError) as exc:
        _emit(_json_doc({"status": "Degenerate", "reason": str(exc)}), args.out)
        return 2
    implied = verdict.m_tilde
    diff = abs(implied - target) if implied is not None else math.inf
    # the spread gate is verify's c-constancy rule
    constant = value.spread / max(1.0, abs(value.c)) <= args.tol
    ok = ode.max_abs <= args.tol and diff <= 1e-8 and constant
    doc = {"tool_version": __version__, "command": "sg-check",
           "parameters": {"family": args.family, "p": args.p, "m": args.m,
                          "grid": args.grid, "tol": args.tol},
           "results": [{"kind": kind.value, "c": value.c, "c_spread": value.spread,
                        "closed_form_c": closed, "branch": verdict.branch.value,
                        "implied_m_tilde": implied, "general_m_tilde": target,
                        "ode_max_abs": ode.max_abs, "ode_step": ode.step}],
           "status": "Pass" if ok else "Fail"}
    _emit(_json_doc(doc), args.out)
    return 0 if ok else 1


# ----------------------------------------------------------------- parser

def _parse_m_list(text: str):
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad m list {text!r}: {exc}")


def build_parser() -> argparse.ArgumentParser:
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
    p_eval.set_defaults(handler=cmd_eval)

    p_coeffs = sub.add_parser("coeffs", help="transformation coefficients as JSON")
    p_coeffs.add_argument("--family", required=True, choices=("dn", "cn", "sn"))
    p_coeffs.add_argument("--p", type=int, required=True)
    p_coeffs.add_argument("--m", type=float, required=True)
    p_coeffs.add_argument("--out", default=None)
    p_coeffs.set_defaults(handler=cmd_coeffs)

    p_table = sub.add_parser("table", help="transformed-parameter table as CSV")
    p_table.add_argument("--p-min", type=int, default=2)
    p_table.add_argument("--p-max", type=int, default=7)
    p_table.add_argument("--m-list", type=_parse_m_list, default=None)
    p_table.add_argument("--format", choices=("paper", "full"), default="paper")
    p_table.add_argument("--out", default=None)
    p_table.set_defaults(handler=cmd_table)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--scope", default="all",
                          choices=("classic", "family", "sine-gordon", "all"))
    p_verify.add_argument("--tol", type=float, default=1e-9)
    p_verify.add_argument("--grid", type=int, default=128)
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(handler=cmd_verify)

    p_sg = sub.add_parser("sg-check", help="field-equation route for one "
                                           "superposition")
    p_sg.add_argument("--family", required=True, choices=("dn", "cn", "sn"))
    p_sg.add_argument("--p", type=int, required=True)
    p_sg.add_argument("--m", type=float, required=True)
    p_sg.add_argument("--grid", type=int, default=256)
    p_sg.add_argument("--tol", type=float, default=1e-6)
    p_sg.add_argument("--out", default=None)
    p_sg.set_defaults(handler=cmd_sg_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except AlternatingSumDegenerateError as exc:
        print(f"degenerate: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
