"""CLI behavior: output formats, exit codes, determinism, round-trips."""

import dataclasses
import json
import subprocess
import sys
import warnings

import pytest
from numpy.testing import assert_allclose

from landen import cli, sine_gordon
from landen.cli import M_GRID, format_sig4, main
from landen.elliptic import complete_elliptic_k
from landen.sine_gordon import C_NOT_MEASURABLE, SolutionKind

# the dn cells of p 2..7 x M_GRID whose samples all sit in the |psi| ~ 1
# band; verify writes a c-route skip record for each
UNMEASURABLE_DN_CELLS = [(4, 0.1), (4, 0.25), (5, 0.1), (5, 0.25), (6, 0.1), (6, 0.25),
                         (6, 0.5), (7, 0.1), (7, 0.25), (7, 0.5), (7, 0.75)]

# --tol values both verify and sg-check refuse with exit 2: a gate must be a
# positive finite number (nan fails every record, inf passes every one)
BAD_TOLS = ("-1", "0", "nan", "inf")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_dn_at_zero(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--fn", "dn", "--x", "0", "--m", "0.7")
        assert code == 0
        assert float(out) == 1.0

    def test_quarter_period_circular(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--fn", "K", "--m", "0")
        assert code == 0
        assert out == "1.5707963267949\n"

    def test_dn_at_quarter_period(self, capsys):
        big_k = complete_elliptic_k(0.75)
        code, out, _ = run_cli(capsys, "eval", "--fn", "dn", "--x",
                               repr(float(big_k)), "--m", "0.75")
        assert code == 0
        assert abs(float(out) - 0.5) < 1e-13

    def test_domain_error_exit_code(self, capsys):
        code, out, err = run_cli(capsys, "eval", "--fn", "K", "--m", "2.0")
        assert code == 2
        assert out == "" and "error" in err

    def test_missing_x(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--fn", "sn", "--m", "0.5")
        assert code == 2 and err


class TestCoeffs:
    def test_reference_value(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--family", "dn", "--p", "2",
                               "--m", "0.75")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"alpha", "a_sum", "m_tilde", "arg_scale"}
        assert_allclose(doc["m_tilde"], 0.1111, rtol=5e-4)

    def test_sn_large_p(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--family", "sn", "--p", "7",
                               "--m", "0.99")
        assert code == 0
        doc = json.loads(out)
        assert_allclose(doc["m_tilde"], 0.1362e-2, rtol=5e-4)
        assert doc["a_sum"] is None

    def test_degenerate_status(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--family", "cn", "--p", "4",
                               "--m", "1e-12")
        assert code == 2
        assert json.loads(out)["status"] == "Degenerate"

    def test_small_m_cell_matches_nome_route(self, capsys, nome_route):
        # the cubic sums cancelled here to m~ = -1.4e-20 and the cell was refused
        code, out, err = run_cli(capsys, "coeffs", "--family", "dn", "--p", "4",
                                 "--m", "1e-6")
        assert code == 0 and err == ""
        want = nome_route(4, 1e-6)[0]
        assert abs(json.loads(out)["m_tilde"] - want) <= 1e-12 * want

    def test_no_warning_where_sqrt_went_negative(self, capsys, nome_route):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "coeffs", "--family", "cn", "--p", "9",
                                     "--m", "1e-4")
        assert code == 0 and err == ""
        want = nome_route(9, 1e-4)[0]
        assert abs(json.loads(out)["m_tilde"] - want) <= 1e-12 * want

    def test_beyond_the_nome_route_refused(self, capsys):
        code, out, err = run_cli(capsys, "coeffs", "--family", "dn", "--p", "142",
                                 "--m", "0.1")
        assert code == 2 and out == ""
        assert err.startswith("error: dn p = 142 is beyond the nome route at m = 0.1")

    def test_byte_determinism(self, capsys):
        _, first, _ = run_cli(capsys, "coeffs", "--family", "cn", "--p", "5",
                              "--m", "0.9")
        _, second, _ = run_cli(capsys, "coeffs", "--family", "cn", "--p", "5",
                               "--m", "0.9")
        assert first == second


class TestTable:
    def test_default_reproduces_reference_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "m,p2,p3,p4,p5,p6,p7"
        rows = {line.split(",")[0]: line.split(",")[1:] for line in lines[1:]}
        assert rows["0"] == ["0"] * 6
        assert rows["1"] == ["1"] * 6
        assert rows["0.5"] == [".2944e-1", ".1290e-2", ".5580e-4", ".2411e-5",
                               ".1042e-6", ".4503e-8"]
        assert rows["0.999"][2] == ".2374"

    def test_custom_grid(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--p-min", "2", "--p-max", "3",
                               "--m-list", "0.25,0.75")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "m,p2,p3"
        assert lines[1].startswith("0.25,") and len(lines) == 3

    def test_full_format_round_trips(self, capsys):
        from landen.general import Family, LandenSpec, coefficients
        code, out, _ = run_cli(capsys, "table", "--format", "full",
                               "--m-list", "0.5,0.9")
        assert code == 0
        for line in out.splitlines()[1:]:
            parts = line.split(",")
            m = float(parts[0])
            for j, p in enumerate(range(2, 8)):
                expected = coefficients(LandenSpec(Family.DN, p), m).m_tilde
                assert float(parts[1 + j]) == expected

    def test_tiny_m_row(self, capsys, nome_route):
        # m = 1e-12 used to refuse the whole table
        code, out, err = run_cli(capsys, "table", "--m-list", "0,1e-12,0.5",
                                 "--format", "full")
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert len(lines) == 4 and lines[1] == "0," + ",".join(["0.0"] * 6)
        for line in lines[2:]:
            parts = line.split(",")
            for p, text in zip(range(2, 8), parts[1:]):
                want = nome_route(p, float(parts[0]))[0]
                assert abs(float(text) - want) <= 1e-12 * want, (parts[0], p)

    def test_out_file_lf_endings(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run_cli(capsys, "table", "--out", str(target))
        assert code == 0 and out == ""
        raw = target.read_bytes()
        assert b"\r" not in raw and raw.endswith(b"\n")

    def test_bad_range(self, capsys):
        code, _, err = run_cli(capsys, "table", "--p-min", "5", "--p-max", "3")
        assert code == 2 and err


class TestFormatSig4:
    @pytest.mark.parametrize("value,text", [
        (0.0, "0"), (1.0, "1"),
        (0.029437, ".2944e-1"),
        (0.111111, ".1111"),
        (5.5796e-5, ".5580e-4"),
        (9.693e-12, ".9693e-11"),
        (0.4481, ".4481"),
        (0.99996, ".1000e1"),  # rounds up through the top of the mantissa range
    ])
    def test_values(self, value, text):
        assert format_sig4(value) == text

    @pytest.mark.parametrize("value,text", [
        (-1.355e-20, "-.1355e-19"), (-0.5, "-.5000"), (-1.0, "-1"),
        (-0.99996, "-.1000e1"), (-0.0, "0"),
    ])
    def test_negative_values_keep_their_sign(self, value, text):
        assert format_sig4(value) == text


class TestVerify:
    def test_classic_scope_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--scope", "classic",
                               "--tol", "1e-10")
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "Pass"
        assert doc["tool_version"]
        assert all(r["pass"] for r in doc["results"])

    def test_family_scope_below_machine_floor_fails(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--scope", "family",
                               "--tol", "1e-16", "--grid", "32")
        assert code == 1
        assert json.loads(out)["status"] == "Fail"

    def test_family_scope_passes_at_budget(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--scope", "family",
                               "--tol", "1e-10", "--grid", "64")
        assert code == 0
        assert json.loads(out)["status"] == "Pass"

    def test_sine_gordon_scope(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--scope", "sine-gordon",
                               "--tol", "1e-9")
        assert code == 0
        doc = json.loads(out)
        checks = {r["check"] for r in doc["results"]}
        assert any(c.startswith("c-constancy") for c in checks)
        assert any(c.startswith("implied-m-tilde") for c in checks)

    def test_determinism(self, capsys):
        _, first, _ = run_cli(capsys, "verify", "--scope", "classic",
                              "--tol", "1e-10", "--grid", "32")
        _, second, _ = run_cli(capsys, "verify", "--scope", "classic",
                               "--tol", "1e-10", "--grid", "32")
        assert first == second

    def test_bad_tol(self, capsys):
        for tol in BAD_TOLS:
            code, out, err = run_cli(capsys, "verify", "--scope", "classic", "--tol", tol)
            assert code == 2 and out == "" and "--tol must be positive and finite" in err


class TestSgCheck:
    def test_dn_odd_cell(self, capsys):
        code, out, _ = run_cli(capsys, "sg-check", "--family", "dn", "--p", "3",
                               "--m", "0.5")
        assert code == 0
        doc = json.loads(out)
        record = doc["results"][0]
        assert record["kind"] == "dn-odd"
        assert record["branch"] == "dn-branch"
        assert record["ode_max_abs"] < 1e-6
        assert abs(record["implied_m_tilde"] - record["general_m_tilde"]) < 1e-8

    def test_cn_even_reports_no_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "sg-check", "--family", "cn", "--p", "4",
                               "--m", "0.9")
        assert code == 0
        record = json.loads(out)["results"][0]
        assert record["closed_form_c"] is None
        assert record["branch"] == "cn-branch"

    def test_bad_tol(self, capsys):
        for tol in BAD_TOLS:
            code, out, err = run_cli(capsys, "sg-check", "--family", "dn", "--p", "3",
                                     "--m", "0.5", "--tol", tol)
            assert code == 2 and out == "" and "--tol must be positive and finite" in err

    def test_degenerate(self, capsys):
        code, out, _ = run_cli(capsys, "sg-check", "--family", "cn", "--p", "4",
                               "--m", "1e-12")
        assert code == 2
        assert json.loads(out)["status"] == "Degenerate"

    def test_tiny_m_tilde_cell(self, capsys, nome_route):
        # once refused as cancelled: m~ = 2.4e-52 is now right, and psi =
        # dn(x, m~) never leaves the |psi| ~ 1 band, so C is not measurable
        code, out, err = run_cli(capsys, "coeffs", "--family", "dn", "--p", "4",
                                 "--m", "1e-12")
        want = nome_route(4, 1e-12)[0]
        assert code == 0 and abs(json.loads(out)["m_tilde"] - want) <= 1e-12 * want
        code, out, err = run_cli(capsys, "sg-check", "--family", "dn", "--p", "4",
                                 "--m", "1e-12")
        assert code == 2 and err == ""
        assert json.loads(out) == {"status": "Degenerate", "reason": C_NOT_MEASURABLE}

    def test_spread_alone_fails(self, capsys, monkeypatch):
        # verify's c-constancy rule: spread / max(1, |C|) <= --tol
        route = cli._first_integral_route

        def spread_out(fam):
            value, closed, verdict, target = route(fam)
            wide = dataclasses.replace(value, spread=2e-6 * max(1.0, abs(value.c)))
            return wide, closed, verdict, target

        code, out, _ = run_cli(capsys, "sg-check", "--family", "dn", "--p", "3", "--m", "0.5")
        assert code == 0 and json.loads(out)["status"] == "Pass"
        monkeypatch.setattr(cli, "_first_integral_route", spread_out)
        code, out, _ = run_cli(capsys, "sg-check", "--family", "dn", "--p", "3", "--m", "0.5")
        doc = json.loads(out)
        assert code == 1 and doc["status"] == "Fail"
        record = doc["results"][0]
        assert record["ode_max_abs"] <= 1e-6
        assert abs(record["implied_m_tilde"] - record["general_m_tilde"]) <= 1e-8
        code, out, _ = run_cli(capsys, "sg-check", "--family", "dn", "--p", "3", "--m", "0.5",
                               "--tol", "3e-6")
        assert code == 0 and json.loads(out)["status"] == "Pass"

    def test_every_grid_cell_passes_the_spread_gate(self, capsys):
        # the gate changes no status on p 2..7 x M_GRID: the widest relative
        # spread there is 2.2e-10 (cn, p = 7, m = 0.1)
        wide = []
        for family in ("dn", "cn", "sn"):
            for p in range(2, 8):
                for m in M_GRID:
                    _, out, _ = run_cli(capsys, "sg-check", "--family", family,
                                        "--p", str(p), "--m", repr(m))
                    for record in json.loads(out).get("results", []):
                        if record["c_spread"] / max(1.0, abs(record["c"])) > 1e-9:
                            wide.append((family, p, m))
        assert not wide

    @pytest.mark.parametrize("p,m", UNMEASURABLE_DN_CELLS)
    def test_unmeasurable_first_integral_is_degenerate(self, capsys, p, m):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "sg-check", "--family", "dn",
                                     "--p", str(p), "--m", str(m))
        assert code == 2 and err == ""
        assert json.loads(out) == {"status": "Degenerate", "reason": C_NOT_MEASURABLE}


# the records of one sine-Gordon cell, in verify's order
EVEN_KIND = {"dn": "dn-even", "cn": "cn-even-alt", "sn": "sn-even-prod"}
CLOSED_FORM_KINDS = {"dn-odd", "cn-odd", "sn-odd", "sn-even-prod"}


def expected_sine_gordon_checks(p, m):
    names = []
    for family in ("dn", "cn", "sn"):
        kind = f"{family}-odd" if p % 2 else EVEN_KIND[family]
        if family == "dn" and (p, m) in UNMEASURABLE_DN_CELLS:
            names.append(f"c-route-{kind}")
            continue
        names += [f"c-constancy-{kind}", f"c-range-{kind}"]
        if kind in CLOSED_FORM_KINDS:
            names.append(f"c-closed-form-{kind}")
        names.append(f"implied-m-tilde-{kind}")
    return names


def test_sine_gordon_record_layout(tmp_path):
    target = tmp_path / "verify.json"
    assert main(["verify", "--scope", "sine-gordon", "--out", str(target)]) == 0
    records = json.loads(target.read_text())["results"]
    cells = [(p, m) for p in range(2, 8) for m in M_GRID]
    assert [r["check"] for r in records] == [
        name for p, m in cells for name in expected_sine_gordon_checks(p, m)]
    assert [(r["p"], r["m"]) for r in records] == [
        (p, m) for p, m in cells for _ in expected_sine_gordon_checks(p, m)]
    skips = [r for r in records if "skipped" in r]
    assert len(skips) == len(UNMEASURABLE_DN_CELLS)
    assert all(r["skipped"] == C_NOT_MEASURABLE and "pass" not in r for r in skips)


def test_wrong_superposition_fails_the_constancy_gate(tmp_path, monkeypatch):
    # cn-even-alt with the plain-sum inner scale arg_scale instead of alpha,
    # the case _pieces' comment names: C is no longer constant along x, and
    # verify's c-constancy record, the one constancy gate, catches it
    pieces = sine_gordon._pieces

    def plain_sum_inner(fam):
        prefactor, inner = pieces(fam)
        if fam.kind is SolutionKind.CN_EVEN_ALT:
            inner = fam._raw.arg_scale
        return prefactor, inner

    monkeypatch.setattr(sine_gordon, "_pieces", plain_sum_inner)
    target = tmp_path / "verify.json"
    assert main(["verify", "--scope", "sine-gordon", "--out", str(target)]) == 1
    doc = json.loads(target.read_text())
    assert doc["status"] == "Fail"
    constancy = {(r["p"], r["m"]): r for r in doc["results"]
                 if r["check"] == "c-constancy-cn-even-alt"}
    assert constancy[2, 0.5]["max_abs"] > 0.9 and not constancy[2, 0.5]["pass"]
    assert constancy[4, 0.9]["max_abs"] > 0.3 and not constancy[4, 0.9]["pass"]
    failed = {r["check"] for r in doc["results"] if r.get("pass") is False}
    assert failed == {"c-constancy-cn-even-alt", "implied-m-tilde-cn-even-alt"}


# (p, m) of the dn cells whose shifted sums miss the nome route by more than
# 1e-12 relative; every other sum-route record passes
SUMS_CANCEL_DN_CELLS = [(5, 0.1), (6, 0.1), (6, 0.25), (7, 0.1), (7, 0.25)]


def test_sum_route_records(tmp_path):
    target = tmp_path / "verify.json"
    assert main(["verify", "--scope", "family", "--out", str(target)]) == 0
    records = json.loads(target.read_text())["results"]
    cells = [(p, m) for p in range(2, 8) for m in M_GRID]
    assert [r["check"] for r in records] == [
        f"{check}-{family}" if family else check for _ in cells
        for check, family in [("identity", "dn"), ("identity", "cn"), ("identity", "sn"),
                              ("m-tilde-agreement", ""), ("sum-route", "dn"),
                              ("sum-route", "cn"), ("sum-route", "sn")]]
    routes = [r for r in records if r["check"].startswith("sum-route-")]
    flagged = [r for r in routes if "flagged" in r]
    assert [(r["check"], r["p"], r["m"]) for r in flagged] == [
        ("sum-route-dn", p, m) for p, m in SUMS_CANCEL_DN_CELLS]
    assert all("pass" not in r and r["rel_err"] > 1e-12 for r in flagged)
    held = [r for r in routes if "flagged" not in r]
    assert len(held) == 3 * len(cells) - len(SUMS_CANCEL_DN_CELLS)
    assert all(r["pass"] and r["max_abs"] <= r["tol"] == 1e-12 for r in held)


def test_module_entry_point():
    result = subprocess.run([sys.executable, "-m", "landen", "eval", "--fn", "K",
                             "--m", "0"], capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout == "1.5707963267949\n"
