"""Tail percentile, self time and the tracer's wrapping rules."""

import sys
import types

import pytest

from run import (PROBE_REFERENCE_S, Child, Pass, end_to_end_metrics, layer_metrics,
                 run_child, tail)
from tracer import Tracer, self_times


def test_tail_keeps_ten_samples_beyond():
    value, percentile, n = tail(range(1, 101))
    assert (value, percentile, n) == (90, 90.0, 100)
    assert sum(1 for x in range(1, 101) if x > value) == 10


def test_tail_with_twenty_samples_is_the_median():
    value, percentile, n = tail(range(20))
    assert (value, percentile, n) == (9, 50.0, 20)


@pytest.mark.parametrize("n", [1, 2, 10, 11, 19])
def test_tail_without_enough_samples_is_the_maximum(n):
    samples = [float(i) for i in range(n)]
    assert tail(samples) == (float(n - 1), 100.0, n)


def test_wall_time_is_scaled_to_the_reference_speed():
    child = Child(start=1.0, end=3.0, code=0, rss_mb=10.0, probe_s=2 * PROBE_REFERENCE_S)
    assert child.wall_s == 2.0
    assert child.scaled_s == pytest.approx(1.0)


def test_run_child_probes_the_cpu_until_the_command_exits(tmp_path):
    child = run_child([sys.executable, "-c", "import time, sys; time.sleep(0.3); sys.exit(3)"],
                      tmp_path / "log", env={})
    assert child.code == 3
    assert child.wall_s >= 0.3
    assert 0 < child.probe_s < 0.1
    assert child.rss_mb > 0


def test_end_to_end_metrics_are_medians_of_the_passes():
    passes = [Pass(answer_s=2.0, sweep_s=1.5, analyze_s=0.5),
              Pass(answer_s=4.0, sweep_s=3.0, analyze_s=1.0),
              Pass(answer_s=2.2, sweep_s=1.6, analyze_s=0.6)]
    pairs = [types.SimpleNamespace(rows=300)]
    m = end_to_end_metrics(passes, [0.9, 1.0, 1.1], pairs, attempted=6, failed=1,
                           peak_rss_mb=40.0)
    assert m["time_to_answer_s"] == 2.2
    assert m["time_to_answer_tail_s"] == 4.0
    assert m["points_per_s"] == pytest.approx(300 / 1.6)
    assert m["analyze_rows_per_s"] == pytest.approx(300 / 0.6)
    assert m["setup_s"] == 1.0
    assert m["answered_share"] == pytest.approx(5 / 6)


def test_self_time_subtracts_child_coverage():
    spans = [
        (0.0, 10.0, -1),   # 0: root
        (1.0, 3.0, 0),     # 1: child
        (2.0, 5.0, 0),     # 2: child overlapping 1: [1, 5] covered once
        (1.5, 2.5, 1),     # 3: grandchild, covered by 1 only
        (9.0, 12.0, 0),    # 4: child running past its parent: [9, 10] counts
        (20.0, 21.0, -1),  # 5: second root, no children
    ]
    assert self_times(spans) == pytest.approx([10 - 4 - 1, 2 - 1, 3, 1, 3, 1])


def test_self_time_of_sequential_children():
    spans = [(0.0, 1.0, -1)] + [(0.1 * i, 0.1 * i + 0.05, 0) for i in range(10)]
    assert self_times(spans)[0] == pytest.approx(0.5)


@pytest.fixture
def fake_module(monkeypatch):
    mod = types.ModuleType("fake_b5g")

    def leaf(x):
        return x + 1

    def outer(x):
        return mod.leaf(x) * 2

    class Model:
        def point(self, x):
            return mod.leaf(x)

        @staticmethod
        def helper(x):
            return -x

    mod.leaf, mod.outer, mod.Model = leaf, outer, Model
    monkeypatch.setitem(sys.modules, "fake_b5g", mod)
    return mod


def test_tracer_wraps_functions_and_methods_in_place(fake_module):
    model_class = fake_module.Model
    tracer = Tracer()
    assert tracer.wrap("fake_b5g", "outer", "x.outer", "x")
    assert tracer.wrap("fake_b5g", "leaf", "y.leaf", "y")
    assert tracer.wrap("fake_b5g", "Model.point", "x.point", "x")
    assert tracer.wrap("fake_b5g", "Model.helper", "x.helper", "x")
    assert fake_module.Model is model_class
    assert fake_module.outer(1) == 4
    assert fake_module.Model().point(1) == 2
    assert fake_module.Model.helper(3) == -3
    stats = tracer.summary()["spans"]
    assert {k: v["calls"] for k, v in stats.items()} == {
        "x.outer": 1, "y.leaf": 2, "x.point": 1, "x.helper": 1}
    assert stats["x.outer"]["self_s"] <= stats["x.outer"]["total_s"]
    assert [s[3] for s in tracer.spans][:2] == [-1, 0]    # leaf nested in outer


def test_tracer_reports_missing_targets_as_absent(fake_module):
    tracer = Tracer()
    assert not tracer.wrap("fake_b5g", "gone", "x.gone", "x")
    assert not tracer.wrap("fake_b5g", "Model.gone", "x.gone2", "x")
    assert not tracer.wrap("no_such_module_b5g", "f", "x.f", "x")
    assert not tracer.wrap("fake_b5g", "Model", "x.class", "x")
    assert tracer.absent == ["fake_b5g.gone", "fake_b5g.Model.gone",
                             "no_such_module_b5g.f", "fake_b5g.Model"]
    assert tracer.summary()["spans"] == {}


def test_layer_metrics_leave_out_what_was_not_traced():
    stats = {"spans": {"scenario.point": {"layer": "scenario", "calls": 4,
                                          "total_s": 2.0, "self_s": 1.5}},
             "import_s": 0.25, "root_s": 2.0, "summary_s": 0.05}
    out = layer_metrics(stats, {"cli.csv_bytes": 10}, wall_s=3.0)
    assert out["scenario.points"] == 4
    assert out["scenario.point_us"] == pytest.approx(5e5)
    assert out["scenario.self_s"] == 1.5
    assert out["process.other_s"] == pytest.approx(0.7)
    assert out["cli.csv_bytes"] == 10
    for name in ("scenario.access_solve_calls", "power.device_calls_per_point",
                 "channel.calls", "svgplot.self_s"):
        assert name not in out
