"""The commands that evaluate the layers: ``verify`` and ``sg-check``.

Importing this module loads numpy and every layer, so that whatever wraps
the layers' functions after ``import landen.cli`` (a profiler, the
benchmark's tracer) sees every call its :func:`main` makes.  ``main`` is
:func:`landen.commands.main`, the entry point of ``landen`` and
``python -m landen``, which routes every command and comes to this module
only for ``verify`` and ``sg-check``, so ``coeffs``, ``table`` and
``eval`` run there without numpy.

Both commands read the first integrals of the sine-Gordon solutions
through one function, _first_integral_checks: verify writes its readings
as records, and sg-check gates on the same readings.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from . import __version__, commands
from .classic import _classic_sides, classic_dn_two_term, classic_m_tilde
from .commands import _emit, _json_doc
from .elliptic import complete_elliptic_k
from .general import _identity_residuals, _sum_routes
from .nome import AlternatingSumDegenerateError, Family
from .sine_gordon import (NoClosedFormError, NotMeasurableError, SolutionFamily,
                          classify, closed_form_c, default_samples, first_integrals,
                          ode_residual, solution_kind)

M_GRID = (0.1, 0.25, 0.5, 0.75, 0.9, 0.99)

# verify's second route for m~: the paper's shifted sums must agree with
# the nome route to this relative error, or the cell is flagged with
# SUMS_CANCELLED (no pass key) where they cancel.
SUM_ROUTE_RTOL = 1e-12
SUMS_CANCELLED = ("the shifted sums cancel: m~ misses the nome route by more than "
                  f"{SUM_ROUTE_RTOL:g} relative")


def _record(check, p, m, max_abs, tol):
    """One gated verify record; the classic checks (p None) have no p key."""
    head = {"check": check} if p is None else {"check": check, "p": p}
    return {**head, "m": m, "max_abs": max_abs, "tol": tol, "pass": max_abs <= tol}


def _classic_records(grid: int, tol: float):
    """classic-* records of all of M_GRID from one batch; each grid spans a
    period of its left side, 4 K(m~) for sn and cn and 2 K(m~) for dn."""
    m = np.array(M_GRID)
    big_k = complete_elliptic_k(classic_m_tilde(m))
    x = np.linspace(0.0, np.stack([4.0 * big_k, 2.0 * big_k], axis=-1), grid, axis=-1)
    u = x / (1.0 + np.sqrt(1.0 - m))[:, None, None]
    sn, cn, dn = _classic_sides(u, m[:, None, None])
    two = classic_dn_two_term(x[:, 1], m[:, None])
    diffs = {"classic-sn": (sn.lhs - sn.rhs)[:, 0],
             "classic-cn": (cn.lhs - cn.rhs)[:, 0],
             "classic-dn": (dn.lhs - dn.rhs)[:, 1],
             "classic-dn-two-term": two.lhs - two.rhs}
    records = []
    for j, m_j in enumerate(M_GRID):
        for name, diff in diffs.items():
            records.append(_record(name, None, m_j, float(np.max(np.abs(diff[j]))), tol))
    return records


def _family_records(grid: int, tol: float):
    """Identity, m~-agreement and sum-route records of every (p, m) cell.

    Each p is one batch over all of M_GRID and the three families: two
    jacobi_eval calls, and the sums read the right-hand sides at x = 0.
    """
    records = []
    families = tuple(Family)
    for p in range(2, 8):
        residuals, nome_m_tildes, terms = _identity_residuals(p, M_GRID, grid, families)
        sum_routes = _sum_routes(p, M_GRID, terms, families)
        for j, m in enumerate(M_GRID):
            records += [_record(f"identity-{f.value}", p, m, residuals[f][j].max_abs, tol)
                        for f in families]
            sums = {family: sum_routes[family][j] for family in families}
            vals = list(sums.values())
            worst = max(abs(a - b) for a in vals for b in vals)
            records.append(_record("m-tilde-agreement", p, m, worst, tol))
            nome = nome_m_tildes[j]
            for family, value in sums.items():
                rel, check = abs(value - nome) / nome, f"sum-route-{family.value}"
                records.append(_record(check, p, m, rel, SUM_ROUTE_RTOL) if rel <= SUM_ROUTE_RTOL
                               else {"check": check, "p": p, "m": m, "rel_err": rel,
                                     "flagged": SUMS_CANCELLED})
    return records


def _first_integral_checks(fams):
    """What verify and sg-check read off the first integrals of solutions of
    one p, from one evaluation: per solution (value, closed-form C or None,
    classify(value), readings).  readings holds verify's record values by
    check name: c-constancy (the spread relative to max(1, |C|)), c-range,
    c-closed-form where a closed form exists, and implied-m-tilde (inf where
    classify finds no real solution).  NotMeasurableError passes through.
    """
    checks = []
    for fam, value in zip(fams, first_integrals(fams, [default_samples(fam) for fam in fams])):
        c, verdict = value.c, classify(value)
        try:
            closed = closed_form_c(fam)
        except NoClosedFormError:
            closed = None
        readings = {"c-constancy": value.spread / max(1.0, abs(c)),
                    "c-range": (max(0.0, 2.0 - c) if fam.family is Family.CN
                                else max(0.0, -2.0 - c, c - 2.0))}
        if closed is not None:
            readings["c-closed-form"] = abs(c - closed) / max(1.0, abs(c))
        # absolute comparison: the implied value (C + 2) / 4 cannot
        # resolve parameters below ~1e-16 out of a float C near -2
        readings["implied-m-tilde"] = (math.inf if verdict.m_tilde is None
                                       else abs(verdict.m_tilde - fam.m_tilde))
        checks.append((value, closed, verdict, readings))
    return checks


def _sine_gordon_records(tol: float):
    """c-* and implied-m-tilde records of the 18 solutions (three kinds,
    all of M_GRID) of each p, from one evaluation per p."""
    records = []
    for p in range(2, 8):
        fams = [SolutionFamily(solution_kind(family, p), p, m)
                for m in M_GRID for family in Family]
        records += [_record(f"{check}-{fam.kind.value}", p, fam.m, reading, tol)
                    for fam, (*_, readings) in zip(fams, _first_integral_checks(fams))
                    for check, reading in readings.items()]
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
        [(value, closed, verdict, readings)] = _first_integral_checks([fam])
        ode = ode_residual(fam, args.grid)
    except (AlternatingSumDegenerateError, NotMeasurableError) as exc:
        _emit(_json_doc({"status": "Degenerate", "reason": str(exc)}), args.out)
        return 2
    ok = (ode.max_abs <= args.tol and readings["implied-m-tilde"] <= 1e-8
          and readings["c-constancy"] <= args.tol)
    doc = {"tool_version": __version__, "command": "sg-check",
           "parameters": {"family": args.family, "p": args.p, "m": args.m,
                          "grid": args.grid, "tol": args.tol},
           "results": [{"kind": kind.value, "c": value.c, "c_spread": value.spread,
                        "closed_form_c": closed, "branch": verdict.branch.value,
                        "implied_m_tilde": verdict.m_tilde, "general_m_tilde": fam.m_tilde,
                        "ode_max_abs": ode.max_abs, "ode_step": ode.step}],
           "status": "Pass" if ok else "Fail"}
    _emit(_json_doc(doc), args.out)
    return 0 if ok else 1


def main(argv=None) -> int:
    """Run one command, as :func:`landen.commands.main` does."""
    return commands.main(argv)


if __name__ == "__main__":
    sys.exit(main())
