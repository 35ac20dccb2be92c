"""Seeded inputs, and checks that count a wrong output instead of raising."""

import json

import numpy as np
import pytest

import run
import workloads


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_operations(workload):
    assert workloads.round_ops(workload, 11) == workloads.round_ops(workload, 11)


@pytest.mark.parametrize("workload", ["bulk-eval", "cli-cold"])
def test_other_seed_other_operations(workload):
    assert workloads.round_ops(workload, 11) != workloads.round_ops(workload, 12)


def test_same_seed_same_blocks():
    op = workloads.round_ops("bulk-eval", 5)[3]
    assert np.array_equal(workloads.bulk_block(op), workloads.bulk_block(dict(op)))
    assert np.array_equal(workloads.bulk_subsample(op), workloads.bulk_subsample(op))


def test_bulk_inputs_stay_in_the_documented_range():
    for seed in range(20):
        for op in workloads.round_ops("bulk-eval", seed):
            m = op["m"]
            assert workloads.M_LOW <= m <= 1 - workloads.M_HIGH_GAP
            x = workloads.bulk_block(op)
            assert np.max(np.abs(x)) <= 8 * workloads.quarter_period(m)


@pytest.mark.parametrize("seed", range(10))
def test_every_cli_round_has_the_same_fault_operations(seed):
    ops = workloads.round_ops("cli-cold", seed)
    fixed = [op for op in ops if op["cmd"] == "table"
             or op.get("cell") == list(workloads.FAULT_COEFFS)]
    assert len(fixed) == 2 and len(ops) == 9
    drawn = [tuple(op["cell"]) for op in ops if op["cmd"] == "coeffs"]
    assert sum(cell in workloads.INACCURATE_CELLS for cell in drawn) == 1


def test_quarter_period_matches_scipy():
    import oracle
    for m in (1e-6, 0.3, 0.9, 1 - 1e-5):
        assert workloads.quarter_period(m) == pytest.approx(oracle.big_k(m), rel=1e-14)


def _table_output(edit=None):
    import oracle
    lines = ["m," + ",".join(f"p{p}" for p in workloads.TABLE_P)]
    for m in workloads.TABLE_M:
        values = [oracle.m_tilde(p, m) for p in workloads.TABLE_P]
        if edit:
            values = [edit(m, p, v) for p, v in zip(workloads.TABLE_P, values)]
        lines.append(f"{m:g}," + ",".join(repr(v) for v in values))
    return "\n".join(lines) + "\n"


TABLE_OP = {"kind": "cli", "cmd": "table", "argv": ["table", "--format", "full"]}


def test_correct_table_has_no_problems():
    assert workloads.check(TABLE_OP, {"code": 0, "out": _table_output()}) == []


def test_inaccurate_cell_is_a_fault():
    out = _table_output(lambda m, p, v: v * (1 + 1e-9) if (m, p) == (0.25, 7) else v)
    problems = workloads.check(TABLE_OP, {"code": 0, "out": out})
    assert len(problems) == 1 and problems[0][1] is True


def test_inaccurate_cell_outside_the_known_ones_is_wrong():
    out = _table_output(lambda m, p, v: v * (1 + 1e-9) if (m, p) == (0.5, 3) else v)
    problems = workloads.check(TABLE_OP, {"code": 0, "out": out})
    assert [fault for _, fault in problems] == [False]


def test_inexact_limit_is_wrong_not_a_fault():
    out = _table_output(lambda m, p, v: 1e-300 if m == 0.0 and p == 2 else v)
    problems = workloads.check(TABLE_OP, {"code": 0, "out": out})
    assert [fault for _, fault in problems] == [False]


class _FakeRunner:
    """Answers every eval with a wrong value, every table correctly."""

    def restart(self):
        return 0.5

    def call(self, op, mode="off"):
        out = _table_output() if op["cmd"] == "table" else "0.125\n"
        return {"s": 0.01, "code": 0, "out": out, "bytes": len(out)}


def test_failed_check_is_counted_not_raised(capsys):
    ops = [{"kind": "cli", "cmd": "eval", "fn": "sn", "x": 1.0, "m": 0.5,
            "argv": ["eval", "--fn", "sn", "--x=1.0", "--m", "0.5"]}, TABLE_OP]
    tally = run.Tally()
    setups = []
    latencies, _ = run.run_rounds(_FakeRunner(), ops, 0.05, tally, setups=setups)
    assert len(latencies) == tally.attempted == 6       # three whole rounds
    assert tally.failed == 3 and not tally.correct
    assert len(setups) == run.SETUP_SAMPLES
    assert "WRONG" in capsys.readouterr().err


def test_fault_keeps_the_run_correct():
    tally = run.Tally()
    tally.record([("m~ off", True)])
    tally.record([])
    assert (tally.attempted, tally.failed, tally.correct) == (2, 1, True)


def test_verify_report_with_a_missing_record_is_wrong():
    doc = {"status": "Pass", "results": [
        {"check": "classic-sn", "m": 0.1, "max_abs": 1e-16, "tol": 1e-9, "pass": True}]}
    op = {"kind": "verify", "sg": []}
    problems = workloads.check(op, {"verify": [0, json.dumps(doc)], "sg": []})
    assert problems and not any(fault for _, fault in problems)


def test_operation_that_raised_is_wrong():
    op = workloads.round_ops("bulk-eval", 1)[0]
    problems = workloads.check(op, {"s": 0.1, "bytes": 0, "error": "TypeError('x')"})
    assert problems == [("bulk operation raised TypeError('x')", False)]
