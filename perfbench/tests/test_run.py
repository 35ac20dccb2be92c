"""Whole runs of the benchmark, as `python3 perfbench/run.py` (about two
minutes in all)."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_UNITS = {"count", "ratio", "calls/cell", "bytes"}


def _run(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.splitlines()[-1])


def _units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


def test_timed_run_prints_every_end_to_end_metric():
    result = _result(_run("bulk-eval", 4, 0))
    assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] % 32 == 0
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["verify-suite", "cli-cold"])
def test_traced_counts_repeat_exactly(workload):
    first, second = (_result(_run(workload, 9, 1)) for _ in range(2))
    assert _units(first["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = {name for name, unit in _units(first["metrics"]).items()
              if unit in EXACT_UNITS}
    assert {"elliptic.jacobi_eval.calls", "elliptic.jacobi_eval.points",
            "import.modules"} <= counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["elliptic.jacobi_eval.calls"]["value"] > 0
    assert first["failed"] / first["attempted"] == second["failed"] / second["attempted"]


def test_without_the_program_it_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = _run("bulk-eval", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
