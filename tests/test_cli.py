"""CLI behavior: output formats, exit codes, determinism, round-trips."""

import json
import math
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from landen import cli, commands, sine_gordon
from landen.classic import (classic_cn, classic_dn, classic_dn_two_term, classic_m_tilde,
                            classic_sn)
from landen.cli import M_GRID, main
from landen.commands import format_sig4
from landen.elliptic import complete_elliptic_k
from landen.general import AlternatingSumDegenerateError
from landen.nome import quarter_period
from landen.sine_gordon import SolutionKind

# the dn cells of p 2..7 x M_GRID with m~ from 8.6e-15 to 1.7e-6: psi =
# dn(x, m~) stays within 1e-6 of 1 at every sample, and C is still measured
# on all 33 of them
TINY_M_TILDE_DN_CELLS = [(4, 0.1), (4, 0.25), (5, 0.1), (5, 0.25), (6, 0.1), (6, 0.25),
                         (6, 0.5), (7, 0.1), (7, 0.25), (7, 0.5), (7, 0.75)]

# --tol values both verify and sg-check refuse with exit 2: a gate must be a
# positive finite number (nan fails every record, inf passes every one)
BAD_TOLS = ("-1", "0", "nan", "inf")


def refuse_json_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def eval_triple(capsys, x, m):
    """What `landen eval` prints for sn, cn and dn at the argument text x
    and the float m; each run must exit 0."""
    outs = []
    for fn in ("sn", "cn", "dn"):
        code, out, err = run_cli(capsys, "eval", "--fn", fn, f"--x={x}", "--m", repr(m))
        assert (code, err) == (0, ""), (fn, x, m, err)
        outs.append(out)
    return outs


def reference_digits(x):
    """mpmath digits for a value at x: 50, and one more per decimal digit
    of |x| >= 1, which reducing x by its periods cancels."""
    return 50 + max(0, math.ceil(math.log10(abs(x))) if x else 0)


def mpmath_triple(mpmath, x, m):
    """`landen eval`'s lines for sn, cn and dn at float x and m, from mpmath."""
    with mpmath.workdps(reference_digits(x)):
        return [f"{float(mpmath.ellipfun(fn, mpmath.mpf(x), m=mpmath.mpf(m))):.15g}\n"
                for fn in ("sn", "cn", "dn")]


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

    def test_quarter_period_matches_mpmath(self, capsys):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(13)
        ms = [0.0, 1e-300, 0.5, 0.9999, 1 - 1e-12, 1 - 2 ** -53]
        ms += [float(m) for m in rng.uniform(0.0, 1.0, 40)]
        ms += [float(m) for m in 10.0 ** rng.uniform(-16.0, 0.0, 20)]
        ms += [float(m) for m in 1.0 - 10.0 ** rng.uniform(-16.0, -1.0, 20)]
        for m in ms:
            code, out, _ = run_cli(capsys, "eval", "--fn", "K", "--m", repr(m))
            with mpmath.workdps(50):
                want = float(mpmath.ellipk(m))
            assert code == 0 and out == f"{want:.15g}\n", m

    @pytest.mark.parametrize("x", ["nan", "inf", "-inf"])
    def test_non_finite_argument_refused(self, capsys, x):
        for fn in ("sn", "cn", "dn"):
            result = run_cli(capsys, "eval", "--fn", fn, f"--x={x}", "--m", "0.5")
            assert result == (2, "", "error: argument x must be finite\n")

    @pytest.mark.parametrize("m", ["-0.5", "1.5", "nan", "inf"])
    def test_parameter_outside_unit_interval_refused(self, capsys, m):
        for fn in ("sn", "cn", "dn"):
            result = run_cli(capsys, "eval", "--fn", fn, "--x", "0.5", f"--m={m}")
            assert result == (2, "", f"error: parameter m must lie in [0, 1], got {float(m)!r}\n")

    @pytest.mark.parametrize("x", ["0", "-0.0"])
    @pytest.mark.parametrize("m", [0.0, 0.5, 1.0])
    def test_zero_argument(self, capsys, x, m):
        assert eval_triple(capsys, x, m) == ["0\n", "1\n", "1\n"]

    @pytest.mark.parametrize("x", [1e-300, 1.3, -100.0, 1e22, 1e300])
    def test_circular_limit(self, capsys, x):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(reference_digits(x)):
            sin, cos = float(mpmath.sin(x)), float(mpmath.cos(x))
        assert eval_triple(capsys, repr(x), 0.0) == [f"{sin:.15g}\n", f"{cos:.15g}\n", "1\n"]

    @pytest.mark.parametrize("x", [1e-300, -0.5, 3.0, 20.0, -800.0, 1e300])
    def test_hyperbolic_limit(self, capsys, x):
        # past the float64 range tanh prints +-1 and sech 0
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(reference_digits(x)):
            tanh, sech = float(mpmath.tanh(x)), float(mpmath.sech(x))
        want = [f"{tanh:.15g}\n", f"{sech:.15g}\n", f"{sech:.15g}\n"]
        assert eval_triple(capsys, repr(x), 1.0) == want

    @pytest.mark.parametrize("m", [1 - 1e-13, 1 - 2 ** -53])
    def test_clamp_band_evaluated_as_is(self, capsys, m):
        # within 1e-12 of 1, down to 1 - 2^-53: eval takes each m as it is,
        # and warns of nothing
        mpmath = pytest.importorskip("mpmath")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (0.5, 10.0, -37.0, 1e10):
                assert eval_triple(capsys, repr(x), m) == mpmath_triple(mpmath, x, m), x

    def test_jacobi_matches_mpmath(self, capsys):
        # x / K in [-8, 8] with m log-dense toward both ends, the edges of
        # the tests above, and large x, where jacobi_eval's fold is 0.06 off
        # at 1e15: each printed value is mpmath's rounded to 15 digits
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(14)
        n = 300
        low = rng.uniform(size=n) < 0.5
        ms = np.where(low, 10 ** rng.uniform(-16, 0, n), 1 - 10 ** rng.uniform(-16, 0, n))
        points = [(float(frac * quarter_period(m)), float(m))
                  for frac, m in zip(rng.uniform(-8, 8, n), ms)]
        points += [(x, m) for x in (0.75, -31.0) for m in (0.0, 1.0, 1e-300, 5e-324,
                                                            1 - 1e-13, 1 - 2 ** -53)]
        points += [(x, m) for x in (1e10, -1e15, 1e300) for m in (0.1, 0.5, 0.9999)]
        for x, m in points:
            assert eval_triple(capsys, repr(x), m) == mpmath_triple(mpmath, x, m), (x, m)


class TestCoeffs:
    def test_reference_value(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--family", "dn", "--p", "2",
                               "--m", "0.75")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"alpha", "a_sum", "m_tilde", "arg_scale"}
        assert_allclose(doc["m_tilde"], 0.1111, rtol=5e-4)

    def test_output_bytes(self, capsys):
        # the record's fields in their order, as the JSON object's keys
        code, out, _ = run_cli(capsys, "coeffs", "--family", "dn", "--p", "7", "--m", "0.1")
        assert code == 0
        assert out == ('{\n  "alpha": 0.14664457776833426,\n  "a_sum": 6.478248391161029,\n'
                       '  "m_tilde": 8.587160262653532e-15,\n  "arg_scale": 0.14664457776833426\n}\n')

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

    @pytest.mark.parametrize("family,p,fields", [
        ("sn", 3, "alpha = inf"), ("cn", 3, "alpha = inf, arg_scale = nan"),
        ("cn", 5, "alpha = inf, arg_scale = nan"),
    ])
    def test_non_finite_limits_refused_in_strict_json(self, capsys, family, p, fields):
        code, out, _ = run_cli(capsys, "coeffs", "--family", family, "--p", str(p),
                               "--m", "0")
        doc = json.loads(out, parse_constant=refuse_json_constant)
        assert code == 2 and doc["status"] == "Degenerate"
        assert doc["reason"] == (f"{family} p = {p} at m = 0.0 has non-finite "
                                 f"coefficients: {fields}")

    def test_finite_limits_at_zero_pass(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--family", "dn", "--p", "3", "--m", "0")
        assert code == 0
        assert json.loads(out, parse_constant=refuse_json_constant)["m_tilde"] == 0.0

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

    def test_bad_m_list(self, capsys):
        # argparse refuses it before any command runs
        with pytest.raises(SystemExit) as exc:
            main(["table", "--m-list", "0.5,abc"])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == "" and "bad m list '0.5,abc'" in err

    def test_stray_degenerate_error_exits_2(self, capsys, monkeypatch):
        # main has no handler of its own for the degenerate error: it is a
        # ValueError, so one escaping a command still exits 2
        def degenerate(args):
            raise AlternatingSumDegenerateError("every dn tends to 1")

        monkeypatch.setattr(commands, "cmd_table", degenerate)
        code, out, err = run_cli(capsys, "table")
        assert code == 2 and out == ""
        assert err.startswith("error:")


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

    def test_classic_scope_kernel_call_budget(self, capsys, monkeypatch):
        # one batch over M_GRID: two calls for the three identities, two for
        # the two-term rewrite (54 when each m ran alone)
        from landen import elliptic
        calls = []
        kernel = elliptic._landen_kernel
        monkeypatch.setattr(elliptic, "_landen_kernel",
                            lambda x, *chain: calls.append(x.size) or kernel(x, *chain))
        code, _, _ = run_cli(capsys, "verify", "--scope", "classic")
        assert code == 0
        assert len(calls) <= 4

    @pytest.mark.parametrize("grid", [16, 128])
    def test_classic_records_equal_per_m_public_calls(self, grid):
        want = []
        for m in M_GRID:
            kp = math.sqrt(1.0 - m)
            big_k = complete_elliptic_k(classic_m_tilde(m))
            for name, op, span in (("classic-sn", classic_sn, 4.0 * big_k),
                                   ("classic-cn", classic_cn, 4.0 * big_k),
                                   ("classic-dn", classic_dn, 2.0 * big_k)):
                res = op(np.linspace(0.0, span, grid) / (1.0 + kp), m)
                want.append((name, m, float(np.max(np.abs(res.lhs - res.rhs)))))
            two = classic_dn_two_term(np.linspace(0.0, 2.0 * big_k, grid), m)
            want.append(("classic-dn-two-term", m, float(np.max(np.abs(two.lhs - two.rhs)))))
        records = cli._classic_records(grid, 1e-9)
        assert [(r["check"], r["m"], r["max_abs"].hex()) for r in records] == \
            [(name, m, worst.hex()) for name, m, worst in want]

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

    def test_sine_gordon_scope_builds_one_shift_step_per_batch(self, capsys, monkeypatch):
        # one array-m K per p over the three kinds and all of M_GRID: 6
        # calls, not one per solution (108)
        from landen import elliptic, general
        calls = []
        k = elliptic.complete_elliptic_k

        def counted(m, **kwargs):
            calls.append(np.shape(m))
            return k(m, **kwargs)

        for module in (elliptic, general, cli):
            monkeypatch.setattr(module, "complete_elliptic_k", counted)
        code, _, _ = run_cli(capsys, "verify", "--scope", "sine-gordon")
        assert code == 0
        assert 0 < len(calls) <= 6

    def test_all_scopes_build_each_coefficient_set_once(self, capsys, monkeypatch):
        # the family and sine-Gordon scopes read the same 108 (family, p, m)
        # cells, and general._raw_coefficients' cache gives both one build
        from landen import general
        built = []
        coefficient_set = general._coefficient_set

        def counted(spec, m, *args):
            built.append((spec, m))
            return coefficient_set(spec, m, *args)

        monkeypatch.setattr(general, "_coefficient_set", counted)
        general._raw_coefficients.cache_clear()
        code, _, _ = run_cli(capsys, "verify", "--scope", "all")
        assert code == 0
        assert len(built) == len(set(built)) == 3 * 6 * len(M_GRID)

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

    def test_grid_floor(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--scope", "classic", "--grid", "15")
        assert code == 2 and out == "" and "--grid must be at least 16" in err


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
        # dn(x, m~) rounds to 1 at every sample, so C is not measurable
        code, out, err = run_cli(capsys, "coeffs", "--family", "dn", "--p", "4",
                                 "--m", "1e-12")
        want = nome_route(4, 1e-12)[0]
        assert code == 0 and abs(json.loads(out)["m_tilde"] - want) <= 1e-12 * want
        code, out, err = run_cli(capsys, "sg-check", "--family", "dn", "--p", "4",
                                 "--m", "1e-12")
        assert code == 2 and err == ""
        assert json.loads(out) == {
            "status": "Degenerate",
            "reason": "dn-even p = 4 at m = 1e-12: |psi| rounds to 1 or above at 33 of 33 "
                      "samples; the first integral needs two with |psi| < 1"}

    def test_spread_alone_fails(self, capsys, monkeypatch):
        # verify's c-constancy rule: spread / max(1, |C|) <= --tol
        routes = cli._first_integral_routes

        def spread_out(fams):
            [(value, closed, verdict, target)] = routes(fams)
            wide = value._replace(spread=2e-6 * max(1.0, abs(value.c)))
            return [(wide, closed, verdict, target)]

        code, out, _ = run_cli(capsys, "sg-check", "--family", "dn", "--p", "3", "--m", "0.5")
        assert code == 0 and json.loads(out)["status"] == "Pass"
        monkeypatch.setattr(cli, "_first_integral_routes", spread_out)
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
        # spread there is 2.2e-10 (cn, p = 7, m = 0.1); every cell is
        # measured, so none exits 2; and no cell warns, as verify runs
        # under -W error
        wide, degenerate = [], []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for family in ("dn", "cn", "sn"):
                for p in range(2, 8):
                    for m in M_GRID:
                        code, out, _ = run_cli(capsys, "sg-check", "--family", family,
                                               "--p", str(p), "--m", repr(m))
                        if code == 2:
                            degenerate.append((family, p, m))
                        for record in json.loads(out).get("results", []):
                            if record["c_spread"] / max(1.0, abs(record["c"])) > 1e-9:
                                wide.append((family, p, m))
        assert not wide and not degenerate

    @pytest.mark.parametrize("p,m", TINY_M_TILDE_DN_CELLS)
    def test_tiny_m_tilde_dn_cell_passes(self, capsys, p, m):
        # every sample with |psi| < 1 counts, however close to 1; the worst
        # field-equation residual of these cells is 4.8e-7 at (7, 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "sg-check", "--family", "dn",
                                     "--p", str(p), "--m", str(m))
        doc = json.loads(out)
        assert (code, err, doc["status"]) == (0, "", "Pass")
        record = doc["results"][0]
        assert record["ode_max_abs"] <= 1e-6
        assert abs(record["implied_m_tilde"] - record["general_m_tilde"]) <= 1e-15


def json_doc_cases():
    """Every kind of document the commands write, from their own output,
    and verify records holding every JSON scalar and awkward strings."""
    argvs = [["verify", "--scope", scope] for scope in ("classic", "family",
                                                       "sine-gordon", "all")]
    argvs += [["sg-check", "--family", "dn", "--p", "3", "--m", "0.5"],   # Pass
              ["sg-check", "--family", "cn", "--p", "3", "--m", "0.1"],   # Fail
              ["sg-check", "--family", "cn", "--p", "4", "--m", "1e-12"],  # Degenerate
              ["coeffs", "--family", "dn", "--p", "7", "--m", "0.1"],
              ["coeffs", "--family", "cn", "--p", "3", "--m", "0"]]       # Degenerate
    docs = []
    for argv in argvs:
        out = subprocess.run([sys.executable, "-m", "landen", *argv],
                             capture_output=True, text=True).stdout
        docs.append((" ".join(argv), out, json.loads(out)))
    odd = {"tool_version": "x", "command": "verify", "parameters": {"scope": "all"},
           "results": [{"check": 'quote " and back\\slash \\u0041', "m": 0.5,
                        "note": "line\nbreak\ttab\r", "text": "\u00e9\u4e2d\U0001f600",
                        "none": None, "yes": True, "no": False, "n": 7, "neg": -0.0,
                        "big": 1e300, "tiny": 5e-324},
                       {"check": "},\n      {", "p": 2},
                       {"only": 1}],
           "status": "Pass"}
    docs.append(("odd records", None, odd))
    docs.append(("one record", None, {**odd, "results": odd["results"][:1]}))
    docs.append(("results last", None, {"status": "Pass", "results": [{"a": 1}]}))
    docs.append(("no results", None, {"status": "Pass", "results": []}))
    return docs


class TestJsonDoc:
    """_json_doc is json.dumps(doc, indent=2, allow_nan=False), byte for byte."""

    @pytest.fixture(scope="class")
    def docs(self):
        return json_doc_cases()

    def test_bytes_equal_indent_2(self, docs):
        for name, out, doc in docs:
            want = json.dumps(doc, indent=2, allow_nan=False)
            assert commands._json_doc(doc) == want, name
            if out is not None:
                assert out == want + "\n", name

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["results", "shell"])
    def test_non_finite_raises_as_indent_2(self, value, where):
        doc = {"tool_version": "x", "parameters": {"tol": 1e-9},
               "results": [{"check": "a", "max_abs": 0.5}, {"check": "b", "max_abs": 0.25}],
               "status": "Pass"}
        if where == "results":
            doc["results"][1]["max_abs"] = value
        else:
            doc["parameters"]["tol"] = value
        with pytest.raises(ValueError) as want:
            json.dumps(doc, indent=2, allow_nan=False)
        with pytest.raises(ValueError) as got:
            commands._json_doc(doc)
        assert str(got.value) == str(want.value)


# the records of one sine-Gordon cell, in verify's order
EVEN_KIND = {"dn": "dn-even", "cn": "cn-even-alt", "sn": "sn-even-prod"}
CLOSED_FORM_KINDS = {"dn-odd", "cn-odd", "sn-odd", "sn-even-prod"}


def expected_sine_gordon_checks(p, m):
    names = []
    for family in ("dn", "cn", "sn"):
        kind = f"{family}-odd" if p % 2 else EVEN_KIND[family]
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
    # every cell is measured: full records only, each passing
    assert all(set(r) == {"check", "p", "m", "max_abs", "tol", "pass"} and r["pass"]
               for r in records)


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
    assert failed == {"c-constancy-cn-even-alt", "c-range-cn-even-alt",
                      "implied-m-tilde-cn-even-alt"}


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


# argv of landen commands with whether each loads numpy; None imports the
# package alone
NUMPY_USE = [(None, False),
             (["coeffs", "--family", "dn", "--p", "7", "--m", "0.1"], False),
             (["coeffs", "--family", "cn", "--p", "4", "--m", "1e-9"], False),
             (["table", "--format", "full"], False),
             (["table", "--m-list", "0,0.5,1"], False),
             (["eval", "--fn", "K", "--m", "0.5"], False),
             (["eval", "--fn", "sn", "--x", "0.3", "--m", "0.5"], False),
             (["eval", "--fn", "cn", "--x", "0.3", "--m", "0"], False),
             (["eval", "--fn", "dn", "--x", "0.3", "--m", "0"], False),
             (["eval", "--fn", "cn", "--x", "0.3", "--m", "1"], False),
             (["eval", "--fn", "dn", "--x", "0.3", "--m", "1"], False),
             # sg-check loads landen.cli and numpy, so the probe is live
             (["sg-check", "--family", "dn", "--p", "2", "--m", "0.5", "--grid", "64"], True)]


@pytest.mark.parametrize("argv,loads_numpy", NUMPY_USE)
def test_coefficient_commands_load_no_numpy(argv, loads_numpy):
    # landen.commands.main is what `landen` and `python -m landen` run
    probe = ("import sys\nimport landen\n"
             "if sys.argv[1:]:\n    from landen.commands import main\n    main(sys.argv[1:])\n"
             "print('numpy' in sys.modules, file=sys.stderr)\n")
    result = subprocess.run([sys.executable, "-c", probe, *(argv or [])],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert (result.stdout != "") == (argv is not None)
    assert result.stderr == f"{loads_numpy}\n"


def _imports(*args):
    """The names of the modules a `python -X importtime` child imports."""
    result = subprocess.run([sys.executable, "-X", "importtime", *args],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return set(re.findall(r"^import time:\s+\d+ \|\s+\d+ \| +(\S+)$", result.stderr,
                          flags=re.MULTILINE))


@pytest.fixture(scope="module")
def bare_imports():
    # what site imports differs between installations; a command is held
    # only to the modules it adds to those
    return _imports("-c", "pass")


# argv of landen commands with which of numpy, dataclasses, inspect and json
# each imports: a scalar command writes JSON only in coeffs
COLD_IMPORTS = [
    (["coeffs", "--family", "dn", "--p", "7", "--m", "0.1"], {"json"}),
    (["table", "--format", "full"], set()),
    (["table", "--m-list", "0,0.5,1"], set()),
    (["eval", "--fn", "K", "--m", "0.5"], set()),
    (["eval", "--fn", "sn", "--x", "1.3", "--m", "0.5"], set()),
    # numpy imports inspect, so the probe is live for all but dataclasses
    (["sg-check", "--family", "dn", "--p", "2", "--m", "0.5", "--grid", "64"],
     {"numpy", "inspect", "json"}),
]


@pytest.mark.parametrize("argv,loaded", COLD_IMPORTS)
def test_scalar_commands_import_no_record_machinery(argv, loaded, bare_imports):
    watched = {"numpy", "dataclasses", "inspect", "json"} - bare_imports
    assert _imports("-m", "landen", *argv) & watched == loaded & watched


def test_cli_module_loads_every_layer():
    # whatever wraps the layers' functions right after `import landen.cli`
    # must see every call of cli.main, the lazily loaded commands included
    probe = ("import sys\nimport landen.cli\n"
             "print(sorted(m for m in sys.modules if m.startswith('landen.')))")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == str([f"landen.{name}" for name in (
        "classic", "cli", "commands", "elliptic", "general", "nome", "sine_gordon")]) + "\n"


def test_module_entry_point():
    result = subprocess.run([sys.executable, "-m", "landen", "eval", "--fn", "K",
                             "--m", "0"], capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout == "1.5707963267949\n"
