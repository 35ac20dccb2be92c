"""Seeded inputs and output checks of the three benchmark workloads.

A run repeats whole rounds of one seeded list of operations (``round_ops``),
so every per-operation count, and the share of operations that fail, is the
same however long the run lasts.  Operations are plain JSON-able dicts: the
worker process and the parent build the same arrays from them.

This module needs only numpy; the checks import the scipy oracle lazily so
that a worker process, whose memory and imports are measured, never loads
it.
"""

from __future__ import annotations

import json
import math

import numpy as np

WORKLOADS = ("bulk-eval", "verify-suite", "cli-cold")

# The landen module each workload imports before its first operation.
MODULES = {"bulk-eval": "landen.elliptic", "verify-suite": "landen.cli",
           "cli-cold": "landen.cli"}

# bulk-eval: points per block (a jacobi_eval call on it costs ~50 ms, so the
# ~50 us of per-call overhead is 0.1%), blocks per round, and the points of
# each block compared against scipy.
BLOCK_POINTS = 100_000
BULK_ROUND = 32
SUBSAMPLE = 64

# Range of m (see m_at).  At m = 1 - 1e-6 scipy's ellipj is itself 1.1e-13
# off, so the range stops at 1 - 1e-5.
M_LOW = 1e-6
M_HIGH_GAP = 1e-5
X_PERIODS = 8.0        # arguments drawn from |x| <= 8 K(m)

EVAL_ABS_TOL = 1e-13   # landen vs scipy, absolute
PROPERTY_TOL = 1e-14   # sn^2 + cn^2 = 1 and dn^2 + m sn^2 = 1
M_TILDE_REL_TOL = 1e-11

# The 12 sine-Gordon cells of tests/test_acceptance.py SG_CELLS, as
# (family, p, m); the parity of p selects the solution kind.
SG_CELLS = (("dn", 3, 0.5), ("dn", 5, 0.9), ("dn", 2, 0.5), ("dn", 4, 0.75),
            ("cn", 3, 0.9), ("cn", 5, 0.75), ("cn", 2, 0.5), ("cn", 4, 0.9),
            ("sn", 3, 0.5), ("sn", 5, 0.9), ("sn", 4, 0.5), ("sn", 6, 0.9))

# cli-cold coeffs grid: 3 families x p 2..12 x 9 parameters = 297 cells.
COEFF_FAMILIES = ("dn", "cn", "sn")
COEFF_P = tuple(range(2, 13))
COEFF_M = (0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 0.9999)

# Cells of that grid whose m~ from landen.general misses M_TILDE_REL_TOL:
# the cubic sums cancel at small m and larger p.  Which cells these are does
# not depend on the seed, but how many a seeded draw hits would, so the
# draw skips them and every round instead carries the fixed operations
# FAULT_COEFFS and the default table (whose dn cell (p=7, m=0.25) is 1.1e-10
# off), which fail every time while the fault lasts.
INACCURATE_CELLS = frozenset(
    [("dn", 5, 0.05), ("dn", 5, 0.1), ("dn", 6, 0.05), ("dn", 6, 0.1)]
    + [("dn", p, m) for p in (7, 8) for m in (0.05, 0.1, 0.25)]
    + [("dn", p, m) for p in (9, 10) for m in (0.05, 0.1, 0.25, 0.5)]
    + [("dn", p, m) for p in (11, 12) for m in (0.05, 0.1, 0.25, 0.5, 0.75)]
    + [("cn", 8, 0.05), ("cn", 9, 0.05), ("cn", 9, 0.1), ("cn", 10, 0.05),
       ("cn", 10, 0.1), ("cn", 11, 0.05), ("cn", 11, 0.1), ("cn", 11, 0.25),
       ("cn", 12, 0.05), ("cn", 12, 0.1), ("cn", 12, 0.25)]
    + [("sn", 9, 0.05), ("sn", 9, 0.1), ("sn", 11, 0.05), ("sn", 11, 0.1),
       ("sn", 11, 0.25)])
FAULT_COEFFS = ("dn", 7, 0.1)   # 6.5e-7 relative off the nome route

# The parameters of `landen table` when --m-list is not given, p = 2..7.
TABLE_M = (0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 0.9999, 0.99999, 1.0)
TABLE_P = tuple(range(2, 8))


# ------------------------------------------------------------------ inputs

def _rng(seed, *stream):
    return np.random.default_rng([int(seed), *stream])


def _log_uniform(v, low, high):
    return 10.0 ** (math.log10(low) + v * (math.log10(high) - math.log10(low)))


def m_at(u):
    """The parameter at quantile u in [0, 1) of the m distribution: m is
    log-uniform on [M_LOW, 0.5] below u = 0.5 and 1 - m is log-uniform on
    [M_HIGH_GAP, 0.5] above, so both ends are dense and the AGM depth
    varies."""
    u = float(u)
    if u < 0.5:
        return _log_uniform(2.0 * u, M_LOW, 0.5)
    return 1.0 - _log_uniform(2.0 * u - 1.0, M_HIGH_GAP, 0.5)


def sample_m(rng):
    """One parameter in [M_LOW, 1 - M_HIGH_GAP]."""
    return m_at(rng.random())


def quarter_period(m):
    """K(m) = pi / (2 AGM(1, sqrt(1 - m))), used only to size input ranges."""
    a, b = 1.0, math.sqrt(1.0 - m)
    while abs(a - b) > 1e-15 * a:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def bulk_block(op):
    """The argument block of one bulk-eval operation."""
    rng = _rng(op["seed"], 1, op["block"])
    return rng.uniform(-1.0, 1.0, BLOCK_POINTS) * (X_PERIODS * quarter_period(op["m"]))


def bulk_subsample(op):
    """Indices of the block points compared against scipy."""
    return _rng(op["seed"], 2, op["block"]).choice(BLOCK_POINTS, SUBSAMPLE, replace=False)


def _sg_argv(cell):
    family, p, m = cell
    return ["sg-check", "--family", family, "--p", str(p), "--m", repr(m)]


def _coeffs_argv(cell):
    family, p, m = cell
    return ["coeffs", "--family", family, "--p", str(p), "--m", repr(m)]


def round_ops(workload, seed):
    """The operations of one round; a run repeats the round whole."""
    if workload == "bulk-eval":
        # one parameter from each of BULK_ROUND equal-probability strata, so
        # every seed's round has the same spread of AGM depths
        rng = _rng(seed, 0)
        strata = (np.arange(BULK_ROUND) + rng.random(BULK_ROUND)) / BULK_ROUND
        return [{"kind": "bulk", "seed": int(seed), "block": j, "m": m_at(u)}
                for j, u in enumerate(rng.permutation(strata))]
    if workload == "verify-suite":
        # the suite has no free inputs; the seed orders the sg-check cells
        order = _rng(seed, 0).permutation(len(SG_CELLS))
        return [{"kind": "verify", "sg": [list(SG_CELLS[i]) for i in order]}]
    if workload == "cli-cold":
        return _cli_round(seed)
    raise ValueError(f"unknown workload {workload!r}")


def _cli_round(seed):
    rng = _rng(seed, 0)
    ops = []
    for fn in rng.choice(("sn", "cn", "dn"), 2):
        m = sample_m(rng)
        x = float(rng.uniform(-1.0, 1.0) * X_PERIODS * quarter_period(m))
        ops.append({"cmd": "eval", "fn": str(fn), "x": x, "m": m,
                    "argv": ["eval", "--fn", str(fn), f"--x={x!r}", "--m", repr(m)]})
    m = sample_m(rng)
    ops.append({"cmd": "eval", "fn": "K", "m": m,
                "argv": ["eval", "--fn", "K", "--m", repr(m)]})
    cells = [(f, p, m) for f in COEFF_FAMILIES for p in COEFF_P for m in COEFF_M
             if (f, p, m) not in INACCURATE_CELLS]
    for i in rng.choice(len(cells), 2, replace=False):
        ops.append({"cmd": "coeffs", "cell": list(cells[i]),
                    "argv": _coeffs_argv(cells[i])})
    ops.append({"cmd": "coeffs", "cell": list(FAULT_COEFFS),
                "argv": _coeffs_argv(FAULT_COEFFS)})
    ops.append({"cmd": "table", "argv": ["table", "--format", "full"]})
    for i in rng.choice(len(SG_CELLS), 2, replace=False):
        ops.append({"cmd": "sg-check", "cell": list(SG_CELLS[i]),
                    "argv": _sg_argv(SG_CELLS[i])})
    order = rng.permutation(len(ops))
    return [dict(ops[i], kind="cli") for i in order]


# ------------------------------------------------------------------ checks
#
# A check returns a list of (message, fault) pairs; an empty list means the
# output is correct.  `fault` marks an m~ value that misses M_TILDE_REL_TOL
# on one of the INACCURATE_CELLS, the known loss of accuracy in
# landen.general; any other problem means the program produced a wrong
# result.  Output that cannot be parsed raises, and
# the caller counts that as a wrong result.

def check(op, result):
    """Problems with one operation's output, as (message, fault) pairs."""
    if "error" in result:
        return [(f"{op['kind']} operation raised {result['error']}", False)]
    if op["kind"] == "bulk":
        return _check_bulk(op, result)
    if op["kind"] == "verify":
        return _check_verify(op, result)
    return _check_cli(op, result)


def _m_tilde_problems(command, family, p, m, value):
    import oracle
    ref = oracle.m_tilde(p, m)
    where = f"{command} {family}: m~({p}, {m}) = {value!r}"
    if m in (0.0, 1.0):
        return [] if value == ref else [(f"{where}, exact limit {ref!r}", False)]
    rel = abs(value - ref) / ref
    if rel <= M_TILDE_REL_TOL:
        return []
    return [(f"{where} is {rel:.2e} relative off the nome route {ref!r}",
             (family, p, m) in INACCURATE_CELLS)]


def _check_bulk(op, result):
    import oracle
    problems = []
    m = op["m"]
    x = bulk_block(op)[bulk_subsample(op)]
    expected = oracle.jacobi(x, m)
    for dtype in ("float64", "longdouble"):
        got = result["sub"][dtype]
        for name, want, have in zip(("sn", "cn", "dn"), expected, got):
            err = float(np.max(np.abs(np.asarray(have) - want)))
            if not err <= EVAL_ABS_TOL:
                problems.append((f"bulk m={m!r} {dtype} {name}: {err:.2e} off ellipj",
                                 False))
        prop = result["property"][dtype]
        if not prop <= PROPERTY_TOL:
            problems.append((f"bulk m={m!r} {dtype}: identity residual {prop:.2e}",
                             False))
    return problems


def _check_sg(cell, code, text):
    doc = json.loads(text)
    if code != 0 or doc.get("status") != "Pass":
        return [(f"sg-check {cell}: exit {code}, status {doc.get('status')!r}", False)]
    family, p, m = cell
    return _m_tilde_problems("sg-check", family, p, m,
                             doc["results"][0]["general_m_tilde"])


_SG_REQUIRED = {"c-constancy", "c-range", "implied-m-tilde"}


def _check_verify(op, result):
    doc = json.loads(result["verify"][1])
    problems = []
    if result["verify"][0] != 0 or doc.get("status") != "Pass":
        problems.append((f"verify: exit {result['verify'][0]}, "
                         f"status {doc.get('status')!r}", False))
    records = doc.get("results", [])
    for r in records:
        if "pass" in r and not (r["pass"] and r["max_abs"] <= r["tol"]):
            problems.append((f"verify record over tol: {r}", False))
    classic = [r for r in records if r["check"].startswith("classic-")]
    family = [r for r in records if r["check"].startswith(("identity-", "m-tilde-"))]
    if len(classic) != 24 or len(family) != 144:
        problems.append((f"verify: {len(classic)} classic and {len(family)} family "
                         "records, expected 24 and 144", False))
    cells = {}
    for r in records:
        if r["check"].startswith(("c-", "implied-")):
            stem, kind = _split_sg_check(r["check"])
            cells.setdefault((kind, r["p"], r["m"]), []).append(
                "skipped" if "skipped" in r else stem)
    if len(cells) != 108:
        problems.append((f"verify: {len(cells)} sine-gordon cells, expected 108", False))
    for key, checks in cells.items():
        skipped = checks == ["skipped"]
        full = (_SG_REQUIRED <= set(checks)
                and set(checks) <= _SG_REQUIRED | {"c-closed-form"}
                and len(checks) == len(set(checks)))
        if not (skipped or full):
            problems.append((f"verify: sine-gordon cell {key} has records {checks}",
                             False))
    for cell, (code, text) in zip(op["sg"], result["sg"]):
        problems += _check_sg(tuple(cell), code, text)
    return problems


_SG_STEMS = ("c-constancy", "c-range", "c-closed-form", "c-route", "implied-m-tilde")


def _split_sg_check(name):
    """'c-range-dn-odd' -> ('c-range', 'dn-odd')."""
    for stem in _SG_STEMS:
        if name.startswith(stem + "-"):
            return stem, name[len(stem) + 1:]
    return name, ""


def _check_cli(op, result):
    import oracle
    code, out = result["code"], result["out"]
    cmd = op["cmd"]
    if cmd == "sg-check":
        return _check_sg(tuple(op["cell"]), code, out)
    if code != 0:
        return [(f"{' '.join(op['argv'])}: exit {code}", False)]
    if cmd == "eval":
        value = float(out)
        if op["fn"] == "K":
            want = oracle.big_k(op["m"])
        else:
            sn, cn, dn = oracle.jacobi(op["x"], op["m"])
            want = {"sn": sn, "cn": cn, "dn": dn}[op["fn"]]
        err = abs(value - float(want))
        if not err <= EVAL_ABS_TOL:
            return [(f"{' '.join(op['argv'])}: {err:.2e} off scipy", False)]
        return []
    if cmd == "coeffs":
        family, p, m = op["cell"]
        return _m_tilde_problems("coeffs", family, p, m, json.loads(out)["m_tilde"])
    # table --format full: dn-family m~, rows TABLE_M, columns TABLE_P
    lines = out.splitlines()
    if lines[0] != "m," + ",".join(f"p{p}" for p in TABLE_P) or len(lines) != 1 + len(TABLE_M):
        return [("table: unexpected layout", False)]
    problems = []
    for m, line in zip(TABLE_M, lines[1:]):
        cells = line.split(",")
        if float(cells[0]) != m:
            problems.append((f"table: row {cells[0]} where {m} expected", False))
            continue
        for p, text in zip(TABLE_P, cells[1:]):
            problems += _m_tilde_problems("table", "dn", p, m, float(text))
    return problems
