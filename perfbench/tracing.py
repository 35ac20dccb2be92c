"""Spans around the public functions of landen, and the per-layer metrics
made from them.

A ``Tracer`` wraps every public function of the five landen layers in every
landen module namespace that binds it, so calls between modules (general
calling ``jacobi_eval``) and inside a module (``jacobi_eval`` calling
``complete_elliptic_k``) are both recorded.  Spans stay in memory until the
run ends.  This module is imported by the worker process after landen, and
by the parent; it needs only the standard library.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
import tracemalloc
from collections import Counter

LAYERS = ("elliptic", "classic", "general", "sine_gordon", "cli")

# span fields
NAME, START, END, PARENT, OP, POINTS, CELL = range(7)


def public_functions():
    """{function: 'layer.name'} for the public functions of every layer
    that has been imported."""
    found = {}
    for layer in LAYERS:
        module = sys.modules.get(f"landen.{layer}")
        if module is None:
            continue
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not name.startswith("_")):
                found[obj] = f"{layer}.{name}"
    return found


def _cell(args, kwargs):
    """'family/p/m' when the call's first argument is a LandenSpec."""
    spec = args[0] if args else None
    if not (hasattr(spec, "family") and hasattr(spec, "p")):
        return None
    m = args[1] if len(args) > 1 else kwargs.get("m")
    return f"{spec.family.value}/{spec.p}/{float(m)!r}"


class Tracer:
    """Records spans (mode 'spans') or the tracemalloc peak of each
    ``jacobi_eval`` call (mode 'memory') while installed."""

    def __init__(self, mode="spans"):
        self.mode = mode
        self.spans = []
        self.peaks = []
        self.op = None
        self._stack = []
        self._patched = []

    def install(self):
        names = public_functions()
        if self.mode == "memory":
            names = {f: n for f, n in names.items() if n == "elliptic.jacobi_eval"}
            tracemalloc.start()
        wrappers = {f: self._wrap(f, n) for f, n in names.items()}
        for modname, module in list(sys.modules.items()):
            if modname != "landen" and not modname.startswith("landen."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    self._patched.append((module, attr, obj))

    def uninstall(self):
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()
        if self.mode == "memory":
            tracemalloc.stop()

    def _wrap(self, fn, name):
        if self.mode == "memory":
            @functools.wraps(fn)
            def measured(*args, **kwargs):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.peaks.append(tracemalloc.get_traced_memory()[1] - base)
            return measured

        spans, stack = self.spans, self._stack
        eval_points = name == "elliptic.jacobi_eval"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            points = _size(args[0]) if eval_points and args else 0
            cell = _cell(args, kwargs) if name.startswith("general.") else None
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op, points, cell)
        return traced


def _size(x):
    size = getattr(x, "size", None)
    if size is not None:
        return int(size)
    try:
        return len(x)
    except TypeError:
        return 1


# ------------------------------------------------------------- statistics

def percentile(values, q):
    """Linearly interpolated q-th percentile (q in [0, 100]) of values."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def self_times(spans):
    """Duration of each span minus the part of it its child spans cover."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(i)
    result = []
    for span, kids in zip(spans, children):
        start, end = span[START], span[END]
        covered, reach = 0, start
        for c_start, c_end in sorted((spans[k][START], spans[k][END]) for k in kids):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append(end - start - covered)
    return result


def layer_metrics(spans, n_ops):
    """Per-operation span metrics of one traced pass of n_ops operations.

    Every metric is present; a layer the workload never calls reads 0.
    """
    calls, self_ns, dur_ns, points = Counter(), Counter(), Counter(), Counter()
    for span, own in zip(spans, self_times(spans)):
        name = span[NAME]
        calls[name] += 1
        self_ns[name] += own
        dur_ns[name] += span[END] - span[START]
        points[name] += span[POINTS]

    def per_op_calls(prefix):
        return sum(v for k, v in calls.items() if k.startswith(prefix)) / n_ops

    def per_op_self_ms(prefix):
        return sum(v for k, v in self_ns.items() if k.startswith(prefix)) / 1e6 / n_ops

    def ratio(a, b):
        return a / b if b else 0.0

    # general calls per distinct (family, p, m) cell, averaged over the
    # operations that make any
    cells = {}
    for span in spans:
        if span[CELL] is not None:
            op_cells = cells.setdefault(span[OP], [0, set()])
            op_cells[0] += 1
            op_cells[1].add(span[CELL])
    per_cell = [n / len(distinct) for n, distinct in cells.values()]

    ev, kk = "elliptic.jacobi_eval", "elliptic.complete_elliptic_k"
    return {
        f"{ev}.ns_per_point": (ratio(dur_ns[ev], points[ev]), "ns"),
        f"{ev}.calls": (per_op_calls(ev), "count"),
        f"{ev}.points": (points[ev] / n_ops, "count"),
        f"{ev}.points_per_call": (ratio(points[ev], calls[ev]), "count"),
        f"{ev}.self_ms": (per_op_self_ms(ev), "ms"),
        f"{kk}.calls": (per_op_calls(kk), "count"),
        f"{kk}.self_ms": (per_op_self_ms(kk), "ms"),
        "elliptic.k_per_eval": (ratio(calls[kk], calls[ev]), "ratio"),
        "elliptic.jacobi_oracle.calls": (per_op_calls("elliptic.jacobi_oracle"), "count"),
        "classic.calls": (per_op_calls("classic."), "count"),
        "classic.self_ms": (per_op_self_ms("classic."), "ms"),
        "general.coefficients.calls": (per_op_calls("general.coefficients"), "count"),
        "general.coefficients.self_ms": (per_op_self_ms("general.coefficients"), "ms"),
        "general.verify_identity.calls": (per_op_calls("general.verify_identity"), "count"),
        "general.verify_identity.self_ms":
            (per_op_self_ms("general.verify_identity"), "ms"),
        "general.calls_per_cell": (statistics.fmean(per_cell) if per_cell else 0.0,
                                   "calls/cell"),
        "sine_gordon.first_integral_samples.calls":
            (per_op_calls("sine_gordon.first_integral_samples"), "count"),
        "sine_gordon.first_integral_samples.self_ms":
            (per_op_self_ms("sine_gordon.first_integral_samples"), "ms"),
        "sine_gordon.closed_form_c.self_ms":
            (per_op_self_ms("sine_gordon.closed_form_c"), "ms"),
        "sine_gordon.ode_residual.calls": (per_op_calls("sine_gordon.ode_residual"), "count"),
        "sine_gordon.ode_residual.self_ms":
            (per_op_self_ms("sine_gordon.ode_residual"), "ms"),
        # the whole cli layer under main: parsing, record assembly, JSON
        "cli.main.self_ms": (per_op_self_ms("cli."), "ms"),
    }


# ------------------------------------------------------------------ imports

IMPORT_STARTS = "perfbench: import starts"
IMPORT_ENDS = "perfbench: import ends"


def parse_importtime(stderr):
    """Metrics of the imports between the IMPORT_STARTS and IMPORT_ENDS
    lines of `python -X importtime` output: total seconds, cumulative seconds of scipy and of
    numpy modules (each package's outermost entries, so that none of its
    own submodules counts twice; numpy imported from inside scipy counts
    for both), and the number of modules imported."""
    lines = stderr.splitlines()
    try:
        lines = lines[lines.index(IMPORT_STARTS) + 1:lines.index(IMPORT_ENDS)]
    except ValueError:
        raise ValueError("import-time output lacks the marker lines") from None
    entries = []
    for line in lines:
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|", 2)
        if not cumulative.strip().isdigit():
            continue  # the column header
        name = name[1:]
        level = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((level, name.strip(), int(cumulative) / 1e6))
    total = sum(cum for level, _, cum in entries if level == 0)
    outer = {"scipy": 0.0, "numpy": 0.0}
    ancestors = []
    # -X importtime prints a module after its imports; read backwards, each
    # module comes after its ancestors
    for level, name, cum in reversed(entries):
        while ancestors and ancestors[-1][0] >= level:
            ancestors.pop()
        top = name.split(".")[0]
        if top in outer and all(a[1].split(".")[0] != top for a in ancestors):
            outer[top] += cum
        ancestors.append((level, name))
    return {"import.landen_s": (total, "s"), "import.scipy_s": (outer["scipy"], "s"),
            "import.numpy_s": (outer["numpy"], "s"),
            "import.modules": (len(entries), "count")}
