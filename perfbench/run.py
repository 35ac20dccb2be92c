"""Benchmark of landen: one closed-loop client, one workload per run.

    python3 perfbench/run.py --workload {bulk-eval,verify-suite,cli-cold}
                             --seed N --seconds S --trace {0,1}

Run from the root of a landen source tree (the package must be under
./src).  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  With --trace 0 the metrics
are the end-to-end ones (setup_s, ops_per_s, op_ms_p50, peak_rss_mb); with
--trace 1 they are the per-layer ones of a separate traced run.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKER = HERE / "worker.py"

SETUP_SAMPLES = 5       # fresh interpreters per timed run, spread through it
INTERPRETER_SAMPLES = 5
IMPORT_SAMPLES = 3
MB = 1024 * 1024


def _child_env():
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def run_child(argv):
    """Run one child to completion: (exit code, stdout, stderr, wall seconds,
    peak RSS in bytes).  Output goes through files so that the child cannot
    block on a full pipe while it is being waited for."""
    out_path, err_path = OUT / "child.out", OUT / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                cwd=ROOT, env=_child_env())
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out_path.read_text(), err_path.read_text(), wall,
            usage.ru_maxrss * 1024)


def import_probe(module, flags=()):
    """Run a fresh interpreter that only imports `module`: (its import
    seconds, its stderr)."""
    code, out, err, _, _ = run_child(
        [sys.executable, *flags, str(WORKER), str(SRC), "import", module])
    if code != 0:
        raise RuntimeError(f"import probe failed: {err[-2000:]}")
    return json.loads(out)["setup_s"], err


class InProcess:
    """bulk-eval and verify-suite: operations run inside a worker process
    that imports landen once and then serves requests one at a time."""

    def __init__(self, module):
        self.module = module
        self.proc = None
        self.rss = []
        self.spans, self.peaks = [], []

    def restart(self):
        """Start a fresh worker; returns its import seconds."""
        self.close()
        self.err_file = open(OUT / "worker.err", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER), str(SRC), "serve", self.module],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.err_file,
            cwd=ROOT, env=_child_env(), text=True)
        return self._read()["setup_s"]

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError(f"worker exited: {(OUT / 'worker.err').read_text()[-2000:]}")
        return json.loads(line)

    def call(self, op, mode="off"):
        self.proc.stdin.write(json.dumps({"op": op, "mode": mode}) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self):
        if self.proc is None:
            return
        self.proc.stdin.close()
        final = self._read()
        self.spans += final["spans"]
        self.peaks += final["peaks"]
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self.err_file.close()
        self.rss.append(usage.ru_maxrss * 1024)
        self.proc = None


class Cold:
    """cli-cold: every operation is a fresh `python -m landen` child."""

    def __init__(self, module):
        self.module = module
        self.rss = []
        self.spans, self.peaks = [], []
        self.imports = []
        self.n = 0

    def restart(self):
        """Run a fresh interpreter that only imports; returns its seconds."""
        return import_probe(self.module)[0]

    def call(self, op, mode="off"):
        trace_file = OUT / "child-trace.json"
        if mode == "off":
            argv = [sys.executable, "-m", "landen", *op["argv"]]
        else:
            argv = [sys.executable, "-X", "importtime", str(WORKER), str(SRC), "cli",
                    str(trace_file), mode, "--", *op["argv"]]
        code, out, err, wall, rss = run_child(argv)
        self.rss.append(rss)
        if mode == "spans":
            self.imports.append(tracing.parse_importtime(err))
        if mode != "off":
            recorded = json.loads(trace_file.read_text())
            base = len(self.spans)
            for span in recorded["spans"]:
                span[tracing.PARENT] += base if span[tracing.PARENT] >= 0 else 0
                span[tracing.OP] = self.n
                self.spans.append(span)
            self.peaks += recorded["peaks"]
        self.n += 1
        return {"s": wall, "code": code, "out": out, "bytes": len(out.encode())}

    def close(self):
        pass


class Tally:
    """Operations attempted and failed.  A failed check is counted, not
    raised; `correct` turns false on any problem other than the known m~
    accuracy fault."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.reported = set()

    def record(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
        for message, fault in problems:
            self.correct = self.correct and fault
            if len(self.reported) < 8 and message not in self.reported:
                self.reported.add(message)
                print(f"perfbench: {'fault' if fault else 'WRONG'}: {message}",
                      file=sys.stderr)


def run_rounds(runner, ops, seconds, tally, mode="off", setups=None):
    """Repeat whole rounds of `ops`, at least one, until `seconds` of
    operation time have passed; returns the latency and the output bytes of
    each operation.  When `setups` is a list, the runner is restarted
    SETUP_SAMPLES times, spread evenly over the run, and each import time is
    appended to it."""
    latencies, sizes, timed, i = [], [], 0.0, 0
    while True:
        if setups is not None and len(setups) < SETUP_SAMPLES \
                and timed >= seconds * len(setups) / SETUP_SAMPLES:
            setups.append(runner.restart())
        op = ops[i % len(ops)]
        result = runner.call(op, mode)
        latencies.append(result["s"])
        sizes.append(result["bytes"])
        timed += result["s"]
        try:
            problems = workloads.check(op, result)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problems = [(f"{op.get('argv', op['kind'])}: unreadable output ({exc!r})",
                         False)]
        tally.record(problems)
        i += 1
        if i % len(ops) == 0 and timed >= seconds:
            return latencies, sizes


def _runner(workload):
    module = workloads.MODULES[workload]
    return Cold(module) if workload == "cli-cold" else InProcess(module)


def timed_run(workload, ops, seconds, tally):
    runner = _runner(workload)
    setups = []
    try:
        latencies, _ = run_rounds(runner, ops, seconds, tally, setups=setups)
    finally:
        runner.close()
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_ms_p50": (tracing.percentile(latencies, 50) * 1e3, "ms"),
        "peak_rss_mb": (max(runner.rss) / MB, "MB"),
    }


def traced_run(workload, ops, seconds, tally):
    metrics = {}
    interp = [run_child([sys.executable, "-c", "pass"])[3]
              for _ in range(INTERPRETER_SAMPLES)]
    metrics["process.interpreter_s"] = (statistics.median(interp), "s")

    runner = _runner(workload)
    if workload != "cli-cold":
        # itemized imports from probes; cli-cold itemizes its traced children
        imports = [import_probe(runner.module, ("-X", "importtime"))[1]
                   for _ in range(IMPORT_SAMPLES)]
        imports = [tracing.parse_importtime(err) for err in imports]
        runner.restart()
    # untraced and traced rounds alternate, so that a drift of the host's
    # speed does not show as tracing overhead
    plain, traced, sizes = [], [], []
    try:
        while not (plain and sum(plain) >= seconds / 2 and sum(traced) >= seconds / 2):
            latencies, round_sizes = run_rounds(runner, ops, 0.0, tally)
            plain += latencies
            sizes += round_sizes
            traced += run_rounds(runner, ops, 0.0, tally, mode="spans")[0]
        run_rounds(runner, ops, 0.0, tally, mode="memory")
    finally:
        runner.close()
    if workload == "cli-cold":
        imports = runner.imports
    for name, (_, unit) in imports[0].items():
        metrics[name] = (statistics.median(i[name][0] for i in imports), unit)

    metrics.update(tracing.layer_metrics(runner.spans, len(traced)))
    metrics["elliptic.jacobi_eval.peak_mb"] = (max(runner.peaks, default=0) / MB, "MB")
    metrics["cli.output_bytes"] = (statistics.fmean(sizes), "bytes")
    metrics["trace.overhead_ms"] = (
        (tracing.percentile(traced, 50) - tracing.percentile(plain, 50)) * 1e3, "ms")
    with open(OUT / f"trace-{workload}.json", "w") as fh:
        json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op", "points",
                              "cell"], "spans": runner.spans}, fh)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "landen" / "__init__.py").is_file():
        print(f"perfbench: no landen package under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    ops = workloads.round_ops(args.workload, args.seed)
    tally = Tally()
    run = traced_run if args.trace else timed_run
    metrics = run(args.workload, ops, args.seconds, tally)
    print(json.dumps({
        "correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
