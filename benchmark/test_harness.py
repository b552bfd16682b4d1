"""Tests of the benchmark harness's own logic: spans, self time, statistics.

    PYTHONPATH=src python3 -m pytest -q benchmark/test_harness.py
"""

import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402
import summary  # noqa: E402


class FakeClock:
    """Clock that advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = spans.Tracer(clock)
    root = tracer.open("bench.pass")  # 0 .. 10
    clock.now = 1.0
    a = tracer.open("spectral.extreme_eigs_quasi")  # 1 .. 8
    clock.now = 2.0
    b = tracer.open("spectral.A_apply")  # 2 .. 5
    clock.now = 3.0
    c = tracer.open("spectral.r_solve")  # 3 .. 4
    clock.now = 4.0
    tracer.close(c)
    clock.now = 5.0
    tracer.close(b)
    clock.now = 6.0
    d = tracer.open("precond.apply_quasi")  # 6 .. 7.5
    clock.now = 7.5
    tracer.close(d)
    clock.now = 8.0
    tracer.close(a)
    clock.now = 10.0
    tracer.close(root)

    own = spans.self_times(tracer.spans)
    assert own == pytest.approx([3.0, 2.5, 2.0, 1.0, 1.5])
    # self times of all spans add up to the root's duration
    assert sum(own) == pytest.approx(10.0)
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 2, 1]


def test_close_out_of_order_is_an_error():
    tracer = spans.Tracer(FakeClock())
    outer = tracer.open("a.outer")
    tracer.open("a.inner")
    with pytest.raises(RuntimeError):
        tracer.close(outer)


def test_aggregate_layers_and_solve_split():
    clock = FakeClock()
    tracer = spans.Tracer(clock)

    def span(name, length, inside=()):
        index = tracer.open(name)
        for child in inside:
            child()
        clock.now += length
        tracer.close(index)

    root = tracer.open("bench.pass")
    # an outer solve (from the estimator) and an inner one (inside r_solve)
    span(
        "spectral.extreme_eigs_quasi",
        1.0,
        [
            lambda: span("spectral.solve_spd", 2.0),
            lambda: span(
                "spectral.A_apply",
                0.5,
                [lambda: span("spectral.r_solve", 0.0, [lambda: span("spectral.solve_spd", 4.0)])],
            ),
        ],
    )
    span("refine.uniform_refine", 0.25, [lambda: span("mesh.enumerate_facets", 0.25)])
    clock.now += 0.5
    tracer.close(root)
    tracer.count("spectral.estimates", 1)

    m = spans.aggregate(tracer.spans, tracer.counts, wall_s=clock.now)
    assert m["spectral.solve_spd.calls"] == 1
    assert m["spectral.solve_spd.s"] == pytest.approx(2.0)
    assert m["spectral.inner_pcg.calls"] == 1
    assert m["spectral.A_apply_per_estimate"] == 1
    assert m["spectral.extreme_eigs_quasi.s"] == pytest.approx(7.5)
    assert m["layer.spectral.self_s"] == pytest.approx(7.5)
    assert m["layer.refine.self_s"] == pytest.approx(0.25)
    assert m["layer.mesh.self_s"] == pytest.approx(0.25)
    assert m["layer.bench.self_s"] == pytest.approx(0.5)
    assert m["trace.layer_coverage"] == pytest.approx(8.0 / 8.5)
    assert m["refine.singular_indicator.us_per_element"] == 0.0


def test_install_traces_a_small_sweep_and_restores():
    qd = pytest.importorskip("quasidiag")
    originals = (qd.run_experiment, qd.extreme_eigs, qd.spectral.GramOperator.apply)
    tracer = spans.Tracer()
    restore = spans.install(tracer, qd)
    try:
        root = tracer.open("bench.pass")
        rows = qd.run_experiment(qd.ExperimentConfig(dim=2, levels=2, seed=3))
        tracer.close(root)
    finally:
        restore()
    assert (qd.run_experiment, qd.extreme_eigs, qd.spectral.GramOperator.apply) == originals
    assert qd.experiments.extreme_eigs is qd.spectral.extreme_eigs
    assert len(rows) == 2

    wall = tracer.spans[0][2] - tracer.spans[0][1]
    m = spans.aggregate(tracer.spans, tracer.counts, wall)
    assert m["experiments.levels"] == 2
    assert m["spectral.A_apply.calls"] > 0
    assert m["spectral.extreme_eigs_diag.s"] > 0.0
    assert m["precond.apply_diag.us_per_call"] > 0.0
    assert m["refine.elements_out"] == 48
    assert {level for *_, level in tracer.spans} == {0, 1, 2}
    assert m["trace.layer_coverage"] == pytest.approx(1.0, abs=0.05)


def test_percentile_matches_linear_interpolation():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert summary.percentile(values, 0) == 1.0
    assert summary.percentile(values, 100) == 5.0
    assert summary.percentile(values, 50) == 3.0
    assert summary.percentile(values, 90) == pytest.approx(4.6)
    assert summary.median(values) == 3.0
    with pytest.raises(ValueError):
        summary.percentile([], 50)


def test_tail_needs_ten_samples_beyond():
    assert summary.tail(list(range(19))) is None
    p, value = summary.tail(list(range(100)))
    assert p == 90.0 and value == pytest.approx(89.1)
    assert summary.tail(list(range(1000)))[0] == 99.0
    described = summary.describe([1.0, 2.0, 3.0])
    assert described == {"n": 3, "median": 2.0}


def test_spread_uses_statistics_quartiles():
    values = [10.0, 11.0, 9.0, 12.0, 10.5, 9.5, 10.2, 11.5, 8.8, 10.1]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert summary.spread(values) == pytest.approx((q3 - q1) / statistics.median(values))
    assert summary.spread([2.0, 2.0, 2.0, 2.0]) == 0.0
