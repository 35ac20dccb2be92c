"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single PASS/FAIL line (visible with ``pytest -s``).

Reference-table errata: criterion 1 compares the generated table against
the published 4-significant-figure values, kept verbatim in
``REFERENCE_TABLE``, at a 5e-4 relative gate.  Two published cells are not
the correct rounding of m~(p, m): (m = 0.9, p = 6) reads .1213e-3, a
truncation of 1.213618527e-4, and (m = 0.25, p = 7) reads .9693e-11, which
is neither the rounding nor the truncation of 9.690815295e-12.  Criterion 1
checks those two cells against their corrected values in
``REFERENCE_ERRATA``.  The corrections rest on the nome route
m~ = (theta2(q^p)/theta3(q^p))^4 with q = exp(-pi K'/K) (DLMF 22.2),
evaluated in 50-digit mpmath and sharing no code with ``landen``;
``test_reference_errata_match_nome_route`` checks that, with the errata
applied, all 60 cells are the 4-significant-figure rounding of that route.
"""

import json
import time

import numpy as np
import pytest

from landen.classic import classic_dn, classic_dn_two_term, classic_m_tilde
from landen.cli import main
from landen.elliptic import complete_elliptic_k, jacobi_eval, jacobi_oracle
from landen.general import (Family, LandenSpec, a5_product, coefficients,
                            m_tilde_closed_p3, m_tilde_closed_p4)
from landen.sine_gordon import (SolutionFamily, SolutionKind, classify,
                                closed_form_c, default_samples, first_integral,
                                ode_residual)

# 4-significant-figure reference values for the transformed-parameter
# table, p = 2..7 per row
REFERENCE_TABLE = {
    0.0:     [0.0] * 6,
    0.25:    [0.5155e-2, 0.9288e-4, 0.1669e-5, 0.3000e-7, 0.5392e-9, 0.9693e-11],
    0.5:     [0.2944e-1, 0.1290e-2, 0.5580e-4, 0.2411e-5, 0.1042e-6, 0.4503e-8],
    0.75:    [0.1111,    0.1005e-1, 0.8666e-3, 0.7438e-4, 0.6381e-5, 0.5475e-6],
    0.9:     [0.2699,    0.4311e-1, 0.6158e-2, 0.8655e-3, 0.1213e-3, 0.1701e-4],
    0.99:    [0.6694,    0.2506,    0.7283e-1, 0.1963e-1, 0.5185e-2, 0.1362e-2],
    0.999:   [0.8811,    0.5292,    0.2374,    0.9312e-1, 0.3464e-1, 0.1264e-1],
    0.9999:  [0.9608,    0.7446,    0.4481,    0.2293,    0.1080,    0.4891e-1],
    0.99999: [0.9874,    0.8721,    0.6374,    0.3973,    0.2239,    0.1193],
    1.0:     [1.0] * 6,
}

# Corrected cells (m, p) of REFERENCE_TABLE: the 4-significant-figure
# rounding of the 50-digit nome-route value of m~(p, m).
REFERENCE_ERRATA = {
    (0.9, 6): 0.1214e-3,    # published .1213e-3; nome route 1.213618527e-4
    (0.25, 7): 0.9691e-11,  # published .9693e-11; nome route 9.690815295e-12
}

SG_CELLS = [
    (SolutionKind.DN_ODD, 3, 0.5), (SolutionKind.DN_ODD, 5, 0.9),
    (SolutionKind.DN_EVEN, 2, 0.5), (SolutionKind.DN_EVEN, 4, 0.75),
    (SolutionKind.CN_ODD, 3, 0.9), (SolutionKind.CN_ODD, 5, 0.75),
    (SolutionKind.CN_EVEN_ALT, 2, 0.5), (SolutionKind.CN_EVEN_ALT, 4, 0.9),
    (SolutionKind.SN_ODD, 3, 0.5), (SolutionKind.SN_ODD, 5, 0.9),
    (SolutionKind.SN_EVEN_PROD, 4, 0.5), (SolutionKind.SN_EVEN_PROD, 6, 0.9),
]


def _report(number, label, ok, detail):
    print(f"acceptance {number} ({label}): {'PASS' if ok else 'FAIL'} [{detail}]")


def test_criterion_1_reference_table(capsys, tmp_path):
    stale = [cell for cell, value in REFERENCE_ERRATA.items()
             if REFERENCE_TABLE[cell[0]][cell[1] - 2] == value]
    assert not stale, f"errata equal to the published entry: {stale}"
    start = time.perf_counter()
    out = tmp_path / "table.csv"
    code = main(["table", "--format", "full", "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "m,p2,p3,p4,p5,p6,p7"
    violations = []
    for line in lines[1:]:
        parts = line.split(",")
        m = float(parts[0])
        for j, p in enumerate(range(2, 8)):
            value = float(parts[1 + j])
            ref = REFERENCE_ERRATA.get((m, p), REFERENCE_TABLE[m][j])
            if ref == 0.0:
                bad = value != 0.0
                rel = abs(value)
            else:
                rel = abs(value - ref) / abs(ref)
                bad = rel > 5e-4
            if bad:
                violations.append(f"m={m} p={p}: computed {value:.6g} vs "
                                  f"reference {ref:.4g} (rel {rel:.3e})")
    ok = not violations and elapsed < 5.0
    with capsys.disabled():
        _report(1, "reference table at 4 significant figures",
                ok, f"{len(violations)} cell(s) out of tolerance, {elapsed:.2f}s"
                    + ("; " + "; ".join(violations) if violations else ""))
    assert elapsed < 5.0
    assert not violations, (
        "reference-table mismatch at 5e-4 relative (published values, "
        "with REFERENCE_ERRATA applied): " + "; ".join(violations))


def _nome_m_tilde(mpmath, m, p):
    """m~(p, m) = (theta2(q^p)/theta3(q^p))^4 with q = exp(-pi K(1-m)/K(m)),
    DLMF 22.2.1-2, at the caller's mpmath precision."""
    if m in (0.0, 1.0):  # limits m~ = m; the nome is 0 or 1 there
        return mpmath.mpf(m)
    m = mpmath.mpf(m)
    q_p = mpmath.exp(-mpmath.pi * mpmath.ellipk(1 - m) / mpmath.ellipk(m)) ** p
    return (mpmath.jtheta(2, 0, q_p) / mpmath.jtheta(3, 0, q_p)) ** 4


def test_reference_errata_match_nome_route(capsys):
    mpmath = pytest.importorskip("mpmath")
    misrounded, errata_not_needed = [], []
    with mpmath.workdps(50):
        for m, row in REFERENCE_TABLE.items():
            for p, published in zip(range(2, 8), row):
                rounded = float(mpmath.nstr(_nome_m_tilde(mpmath, m, p), 4))
                if REFERENCE_ERRATA.get((m, p), published) != rounded:
                    misrounded.append((m, p))
                if (m, p) in REFERENCE_ERRATA and published == rounded:
                    errata_not_needed.append((m, p))
        true_value = _nome_m_tilde(mpmath, 0.9, 6)
        worst = max(float(abs((coefficients(LandenSpec(f, 6), 0.9).m_tilde
                               - true_value) / true_value))
                    for f in (Family.DN, Family.CN, Family.SN))
    ok = not misrounded and not errata_not_needed and worst <= 1e-12
    with capsys.disabled():
        _report("1 errata", "reference table vs 50-digit nome route", ok,
                f"misrounded {misrounded}, errata not needed "
                f"{errata_not_needed}, m~(6, 0.9) rel error {worst:.2e} "
                f"(tol 1e-12)")
    assert not misrounded, misrounded
    assert not errata_not_needed, errata_not_needed
    assert worst <= 1e-12


@pytest.fixture(scope="module")
def verify_run(tmp_path_factory):
    """The records of one ``landen verify --scope all`` run, and its wall time.

    Criteria 2-4 read their residuals from these records, each filtered to
    its own cells and judged at its own tolerance, so the acceptance suite
    and ``landen verify`` share one check implementation.
    """
    target = tmp_path_factory.mktemp("verify") / "verify.json"
    start = time.perf_counter()
    code = main(["verify", "--scope", "all", "--grid", "128", "--out", str(target)])
    elapsed = time.perf_counter() - start
    assert code in (0, 1)  # a Fail elsewhere leaves each criterion its own verdict
    return json.loads(target.read_text())["results"], elapsed


def _cells(records, checks, ms):
    """(check, p, m) -> max_abs of the records named in `checks` at `ms`."""
    return {(r["check"], r.get("p"), r["m"]): r["max_abs"] for r in records
            if r["check"] in checks and r["m"] in ms}


def test_criterion_2_classic_residuals(capsys, verify_run):
    ms = (0.1, 0.5, 0.75, 0.9, 0.99)
    residuals = _cells(verify_run[0], ("classic-sn", "classic-cn", "classic-dn"), ms)
    assert len(residuals) == 3 * len(ms)
    worst = max(residuals.values())
    worst_rewrite = 0.0
    for m in ms:
        kp = np.sqrt(1.0 - m)
        span_dn = 2.0 * complete_elliptic_k(classic_m_tilde(m))
        u = np.linspace(0.0, span_dn, 128) / (1.0 + kp)
        ratio = classic_dn(u, m)
        two = classic_dn_two_term((1.0 + kp) * u, m)
        worst_rewrite = max(worst_rewrite,
                            float(np.max(np.abs(two.rhs - ratio.rhs))))
    ok = worst <= 1e-11 and worst_rewrite <= 1e-12
    with capsys.disabled():
        _report(2, "classical two-term identities", ok,
                f"max residual {worst:.3e} (tol 1e-11), "
                f"rewrite diff {worst_rewrite:.3e} (tol 1e-12)")
    assert worst <= 1e-11
    assert worst_rewrite <= 1e-12


def test_criterion_3_generalized_identities(capsys, verify_run):
    records, elapsed = verify_run
    residuals = _cells(records, ("identity-dn", "identity-cn", "identity-sn"),
                       (0.1, 0.5, 0.9))
    assert len(residuals) == 54
    check, p, m = max(residuals, key=residuals.get)
    worst, worst_cell = residuals[check, p, m], (check.removeprefix("identity-"), p, m)
    ok = worst <= 1e-10 and elapsed < 30.0
    with capsys.disabled():
        _report(3, "generalized identities, 54 cells", ok,
                f"max residual {worst:.3e} at {worst_cell} (tol 1e-10), "
                f"verify --scope all in {elapsed:.2f}s")
    assert worst <= 1e-10, worst_cell
    assert elapsed < 30.0


def test_criterion_4_cross_family_agreement(capsys, verify_run):
    # verify's m-tilde-agreement records: the largest pairwise difference of
    # the paper's sums per family.  coefficients() takes m~ from the nome
    # route for all three, which would agree by construction
    spreads = _cells(verify_run[0], ("m-tilde-agreement",), (0.25, 0.5, 0.75, 0.9, 0.99))
    assert len(spreads) == 30
    _, p, m = max(spreads, key=spreads.get)
    worst, worst_cell = spreads["m-tilde-agreement", p, m], (p, m)
    ok = worst <= 1e-10
    with capsys.disabled():
        _report(4, "cross-family transformed-parameter agreement", ok,
                f"max pairwise diff {worst:.3e} at {worst_cell} (tol 1e-10)")
    assert worst <= 1e-10, worst_cell


def test_criterion_5_closed_forms(capsys):
    worst3 = worst4 = quartic = relation = 0.0
    for m in (0.1, 0.25, 0.5, 0.75, 0.9):
        closed3 = m_tilde_closed_p3(m)
        closed4 = m_tilde_closed_p4(m)
        worst3 = max(worst3, abs(closed3 - coefficients(LandenSpec(Family.DN, 3), m).m_tilde))
        worst4 = max(worst4, abs(closed4 - coefficients(LandenSpec(Family.DN, 4), m).m_tilde))
        big_k = complete_elliptic_k(m)
        q = jacobi_eval(2 * big_k / 3, m).dn
        quartic = max(quartic, abs(q ** 4 + 2 * q ** 3 - 2 * (1 - m) * q - (1 - m)))
        relation = max(relation, abs(jacobi_eval(4 * big_k / 3, m).cn + q / (1 + q)))
    a5_err = max(abs(a5_product(p, 0.0) - p / 2 ** (p - 1)) for p in (2, 4, 6))
    ok = (worst3 < 1e-12 and worst4 < 1e-12 and quartic < 1e-12
          and relation < 1e-12 and a5_err <= 1e-15)
    with capsys.disabled():
        _report(5, "closed forms for p = 3, 4 and the circular shift product",
                ok, f"p3 {worst3:.2e}, p4 {worst4:.2e}, quartic {quartic:.2e}, "
                    f"quarter-shift relation {relation:.2e}, product {a5_err:.2e}")
    assert worst3 < 1e-12 and worst4 < 1e-12
    assert quartic < 1e-12 and relation < 1e-12
    assert a5_err <= 1e-15


def test_criterion_6_first_integral_route(capsys):
    failures = []
    for kind, p, m in SG_CELLS:
        fam = SolutionFamily(kind, p, m)
        value = first_integral(fam, default_samples(fam, 65))
        c = value.c
        if value.spread > 1e-8:
            failures.append(f"{kind.value} p={p} m={m}: spread {value.spread:.2e}")
        cn_like = kind in (SolutionKind.CN_ODD, SolutionKind.CN_EVEN_ALT)
        in_range = (c >= 2.0 - 1e-9) if cn_like else (-2.0 - 1e-9 <= c <= 2.0 + 1e-9)
        if not in_range:
            failures.append(f"{kind.value} p={p} m={m}: C {c:.6g} out of range")
        if kind in (SolutionKind.DN_ODD, SolutionKind.CN_ODD,
                    SolutionKind.SN_ODD, SolutionKind.SN_EVEN_PROD):
            diff = abs(c - closed_form_c(fam))
            if diff > 1e-8:
                failures.append(f"{kind.value} p={p} m={m}: closed-form diff {diff:.2e}")
        implied = classify(c).m_tilde
        target = coefficients(fam.spec, m).m_tilde
        if abs(implied - target) > 1e-8:
            failures.append(f"{kind.value} p={p} m={m}: implied parameter off "
                            f"{abs(implied - target):.2e}")
    ok = not failures
    with capsys.disabled():
        _report(6, "first-integral route (constancy, range, closed form, "
                   "implied parameter)", ok,
                f"{len(SG_CELLS)} cells, {len(failures)} failure(s)"
                + ("; " + "; ".join(failures) if failures else ""))
    assert not failures


def test_sg_check_and_verify_read_the_same_route(capsys, verify_run):
    # on every SG_CELLS cell, sg-check reports the very C, closed-form C and
    # implied/general m~ from which verify's records are computed
    records = [r for r in verify_run[0] if "p" in r]
    for kind, p, m in SG_CELLS:
        family = SolutionFamily(kind, p, m).family.value
        assert main(["sg-check", "--family", family, "--p", str(p), "--m", repr(m)]) == 0
        doc = json.loads(capsys.readouterr().out)["results"][0]
        assert doc["kind"] == kind.value
        cell = {r["check"]: r["max_abs"] for r in records
                if (r["p"], r["m"]) == (p, m) and r["check"].endswith(kind.value)}
        scale = max(1.0, abs(doc["c"]))
        assert cell[f"c-constancy-{kind.value}"] == doc["c_spread"] / scale
        assert cell[f"implied-m-tilde-{kind.value}"] == abs(
            doc["implied_m_tilde"] - doc["general_m_tilde"])
        if doc["closed_form_c"] is None:
            assert f"c-closed-form-{kind.value}" not in cell
        else:
            assert cell[f"c-closed-form-{kind.value}"] == abs(
                doc["c"] - doc["closed_form_c"]) / scale


def test_criterion_7_field_equation_residual(capsys):
    worst, worst_cell = 0.0, None
    for kind, p, m in SG_CELLS:
        res = ode_residual(SolutionFamily(kind, p, m), 256)
        if res.max_abs > worst:
            worst, worst_cell = res.max_abs, (kind.value, p, m)
    ok = worst <= 1e-6
    with capsys.disabled():
        _report(7, "field-equation residual at 256 points", ok,
                f"max |phi'' -+ sin phi| = {worst:.3e} at {worst_cell} (tol 1e-6)")
    assert worst <= 1e-6, worst_cell


def test_criterion_8_oracle_equivalence(capsys):
    worst = 0.0
    for m in (0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
        big_k = complete_elliptic_k(m)
        for x in np.linspace(-4 * big_k, 4 * big_k, 64):
            a = jacobi_oracle(x, m)
            b = jacobi_eval(x, m)
            worst = max(worst, abs(a.sn - b.sn), abs(a.cn - b.cn),
                        abs(a.dn - b.dn))
    table_err = 0.0
    for m in (0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
        big_k = complete_elliptic_k(m)
        at0 = jacobi_eval(0.0, m)
        atk = jacobi_eval(big_k, m)
        table_err = max(table_err, abs(at0.sn), abs(at0.cn - 1), abs(at0.dn - 1),
                        abs(atk.sn - 1), abs(atk.cn),
                        abs(atk.dn - np.sqrt(1 - m)),
                        abs(jacobi_eval(big_k / 2, m).dn - (1 - m) ** 0.25))
    ok = worst <= 1e-11 and table_err <= 1e-12
    with capsys.disabled():
        _report(8, "fast path vs Carlson R_F inversion oracle", ok,
                f"max disagreement {worst:.3e} (tol 1e-11), "
                f"quarter-period table {table_err:.3e} (tol 1e-12)")
    assert worst <= 1e-11
    assert table_err <= 1e-12
