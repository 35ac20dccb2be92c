"""Span arithmetic, percentiles and import-time parsing on synthetic data,
and the tracer on the real landen modules."""

import statistics

import numpy as np
import pytest

import tracing


def _span(name, start, end, parent=-1, op=0, points=0, cell=None):
    return (name, start, end, parent, op, points, cell)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("general.coefficients", 0, 100),
        _span("elliptic.jacobi_eval", 10, 30, parent=0),
        _span("elliptic.jacobi_eval", 20, 50, parent=0),   # overlaps the first
        _span("elliptic.complete_elliptic_k", 90, 120, parent=0),  # overruns
        _span("elliptic.complete_elliptic_k", 12, 14, parent=1),
    ]
    # children of span 0 cover [10, 50] and [90, 100]
    assert tracing.self_times(spans) == [50, 18, 30, 30, 2]


def test_self_time_of_a_leaf_is_its_duration():
    assert tracing.self_times([_span("classic.classic_sn", 5, 17)]) == [12]


@pytest.mark.parametrize("values, q, expected", [
    ([1, 2, 3, 4], 50, 2.5), ([4, 1, 3, 2], 0, 1), ([4, 1, 3, 2], 100, 4),
    ([7], 50, 7), ([10, 20, 30, 40, 50], 25, 20), ([1, 2], 75, 1.75),
])
def test_percentile(values, q, expected):
    assert tracing.percentile(values, q) == pytest.approx(expected)


def test_percentile_50_is_the_median():
    values = list(np.random.default_rng(3).exponential(size=101))
    values += values[:50]
    assert tracing.percentile(values, 50) == statistics.median(values)


def test_layer_metrics_are_per_operation():
    spans = [
        _span("general.coefficients", 0, 1_000_000, op=0, cell="dn/3/0.5"),
        _span("elliptic.jacobi_eval", 100_000, 600_000, parent=0, op=0, points=3),
        _span("elliptic.complete_elliptic_k", 200_000, 300_000, parent=1, op=0),
        _span("elliptic.complete_elliptic_k", 700_000, 800_000, parent=0, op=0),
        _span("general.coefficients", 2_000_000, 2_500_000, op=1, cell="dn/3/0.5"),
        _span("general.coefficients", 3_000_000, 3_500_000, op=1, cell="dn/3/0.5"),
        _span("cli.main", 4_000_000, 6_000_000, op=1),
        _span("cli.cmd_table", 4_500_000, 5_000_000, parent=6, op=1),
    ]
    m = {k: v for k, (v, _) in tracing.layer_metrics(spans, n_ops=2).items()}
    assert m["elliptic.jacobi_eval.calls"] == 0.5
    assert m["elliptic.jacobi_eval.points"] == 1.5
    assert m["elliptic.jacobi_eval.points_per_call"] == 3
    assert m["elliptic.jacobi_eval.ns_per_point"] == pytest.approx(500_000 / 3)
    assert m["elliptic.jacobi_eval.self_ms"] == pytest.approx(0.4 / 2)
    assert m["elliptic.complete_elliptic_k.calls"] == 1
    assert m["elliptic.k_per_eval"] == 2
    assert m["general.coefficients.calls"] == 1.5
    # coefficients self: 1.0 - 0.5 - 0.1 = 0.4 ms, plus 0.5 + 0.5 ms, over 2 ops
    assert m["general.coefficients.self_ms"] == pytest.approx(1.4 / 2)
    # op 0: 1 call on 1 cell, op 1: 2 calls on 1 cell
    assert m["general.calls_per_cell"] == 1.5
    # the cli layer: main 2.0 - 0.5 ms, cmd_table 0.5 ms
    assert m["cli.main.self_ms"] == pytest.approx(2.0 / 2)
    assert m["classic.calls"] == 0 and m["classic.self_ms"] == 0


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 | site
perfbench: import starts
import time:        50 |         50 |       numpy._core
import time:       200 |        250 |     numpy
import time:        30 |         30 |       numpy.linalg
import time:       400 |        430 |     scipy.special
import time:        70 |        750 |   landen.elliptic
import time:        10 |         10 |   landen.general
import time:         5 |        765 | landen
import time:        20 |         20 | landen.cli
perfbench: import ends
import time:        40 |         40 | json.encoder
"""


def test_parse_importtime_counts_outermost_entries_between_the_markers():
    m = {k: v for k, (v, _) in tracing.parse_importtime(IMPORTTIME).items()}
    assert m["import.landen_s"] == pytest.approx(785e-6)
    # numpy.linalg, imported by scipy.special, counts for both packages
    assert m["import.numpy_s"] == pytest.approx(280e-6)
    assert m["import.scipy_s"] == pytest.approx(430e-6)
    assert m["import.modules"] == 8


def test_parse_importtime_needs_the_marker():
    with pytest.raises(ValueError):
        tracing.parse_importtime("import time:   1 |   1 | site\n")
    with pytest.raises(ValueError):
        tracing.parse_importtime(tracing.IMPORT_STARTS + "\n")


def test_tracer_records_internal_calls_and_uninstalls():
    import landen.cli
    import landen.general
    from landen.general import Family, LandenSpec
    original = landen.general.jacobi_eval
    tracer = tracing.Tracer("spans")
    tracer.op = 0
    tracer.install()
    try:
        landen.general.coefficients(LandenSpec(Family.DN, 3), 0.5)
    finally:
        tracer.uninstall()
    assert landen.general.jacobi_eval is original
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names[0] == "general.coefficients"
    assert "elliptic.jacobi_eval" in names and "elliptic.complete_elliptic_k" in names
    first = tracer.spans[0]
    assert first[tracing.CELL] == "dn/3/0.5" and first[tracing.PARENT] == -1
    assert all(s[tracing.PARENT] >= 0 for s in tracer.spans[1:])
