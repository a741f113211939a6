"""Tests of the benchmark's own arithmetic and instrumentation.

    python3 -m pytest perfbench
"""

import json
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

import reference_kernel
import stats
from tracing import PROBE, CallClock, Stamp, Target, Tracer, durations, self_times

ROOT = Path(__file__).resolve().parent.parent


# percentiles and the ten-beyond rule


def test_percentile_is_nearest_rank():
    samples = [float(v) for v in range(10, 0, -1)]     # order must not matter
    assert stats.percentile(samples, 50) == 5.0
    assert stats.percentile(samples, 90) == 9.0
    assert stats.percentile(samples, 100) == 10.0
    assert stats.percentile([7.0], 50) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0)


@pytest.mark.parametrize("n, reported", [
    (5, False), (99, False), (100, True), (110, True), (240, True),
])
def test_p90_needs_ten_samples_beyond_it(n, reported):
    samples = list(range(n))
    value = stats.tail_percentile(samples, 90)
    assert (value is not None) == reported
    assert (stats.beyond(n, 90) >= stats.TAIL_BEYOND) == reported
    if reported:
        assert sum(s > value for s in samples) >= 10


def test_beyond_counts_samples_above_the_percentile():
    for n in range(1, 500):
        samples = list(range(n))
        p90 = stats.percentile(samples, 90)
        assert stats.beyond(n, 90) == sum(s > p90 for s in samples) == n // 10


# failed_ratio and rates


def test_failed_ratio_base_is_every_attempt():
    assert stats.failed_ratio(0, 1) == 0.0
    assert stats.failed_ratio(1, 4) == 0.25   # 3 good + 1 failed: base 4, not 3
    assert stats.failed_ratio(64, 64) == 1.0
    with pytest.raises(ValueError):
        stats.failed_ratio(0, 0)
    with pytest.raises(ValueError):
        stats.failed_ratio(5, 4)


def test_rates_and_overhead():
    assert stats.rate(30, 2.0) == 15.0
    with pytest.raises(ValueError):
        stats.rate(1, 0.0)
    assert stats.overhead_pct(100.0, 95.0) == pytest.approx(5.0)
    assert stats.overhead_pct(100.0, 101.0) == pytest.approx(-1.0)


# the reference kernel


@pytest.mark.parametrize("kind", sorted(reference_kernel.NOMINAL_S))
def test_reference_seconds_cancel_the_machine_speed(kind):
    nominal = reference_kernel.NOMINAL_S[kind]
    assert reference_kernel.to_reference(1.0, nominal, kind) == pytest.approx(1.0)
    # a machine 1.5x slower takes 1.5x longer on the program and the kernel
    assert reference_kernel.to_reference(1.5, 1.5 * nominal, kind) == pytest.approx(1.0)


@pytest.mark.parametrize("kind", sorted(reference_kernel.NOMINAL_S))
def test_reference_kernel_runs_once_per_interval_of_program_time(kind):
    kernel = reference_kernel.ReferenceKernel(kind)
    step = 0.4 * kernel.every_s
    for _ in range(10):
        kernel.after(step)     # owed after 3 steps, 3 more, 3 more: three runs
    assert len(kernel.samples) == 3
    assert all(s > 0 for s in kernel.samples)
    mean = sum(kernel.samples) / len(kernel.samples)
    assert kernel.scale(2.0) == pytest.approx(2.0 * reference_kernel.NOMINAL_S[kind] / mean)


def test_quartile_spread_matches_statistics_quantiles():
    median, spread = stats.quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert median == 3.0
    assert spread == pytest.approx((4.5 - 1.5) / 3.0)


# self time


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("model.forward", -1, 0.0, 10.0),
        ("gat.forward", 0, 1.0, 4.0),
        ("autodiff.op", 1, 2.0, 3.0),     # grandchild: charged to gat, not model
        ("gat.forward", 0, 5.0, 9.0),     # same name twice: totals add
    ]
    totals = self_times(spans)
    assert totals["model.forward"] == pytest.approx(10.0 - 3.0 - 4.0)
    assert totals["gat.forward"] == pytest.approx((3.0 - 1.0) + 4.0)
    assert totals["autodiff.op"] == pytest.approx(1.0)
    # self times partition the root span exactly
    assert sum(totals.values()) == pytest.approx(10.0)


def _fake_program():
    mod = types.ModuleType("fake")

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    def outer(x):
        return mod.inner(x) + 1

    mod.inner, mod.outer = inner, outer
    return mod


def test_tracer_records_nested_spans_and_restores_originals():
    mod = _fake_program()
    inner, outer = mod.inner, mod.outer
    tracer = Tracer([
        Target(mod, "outer", "model.outer"),
        Target(mod, "inner", "graphs.inner",
               after=lambda counts, result: counts.update(seen=result)),
        Target(mod, "gone", "graphs.gone"),
    ])
    tracer.install()
    assert tracer.missing == ["fake.gone"]
    assert mod.outer(2) == 3
    tracer.uninstall()
    assert mod.inner is inner and mod.outer is outer
    assert mod.outer(5) == 6                       # untraced: no new spans
    names = [span[0] for span in tracer.spans]
    parents = [span[1] for span in tracer.spans]
    assert names == ["model.outer", "graphs.inner", PROBE]
    assert parents == [-1, 0, 1]
    assert tracer.counts["seen"] == 2
    totals = tracer.self_times()
    outer_span = tracer.spans[0]
    assert sum(totals.values()) == pytest.approx(outer_span[3] - outer_span[2])


def test_exception_is_charged_once_to_the_raising_layer():
    mod = _fake_program()
    tracer = Tracer([Target(mod, "outer", "model.outer"),
                     Target(mod, "inner", "graphs.inner")])
    tracer.install()
    with pytest.raises(ValueError):
        mod.outer(-1)
    tracer.uninstall()
    assert tracer.failed == Counter({"graphs": 1})
    assert all(span[3] is not None for span in tracer.spans)   # all closed


def test_probe_error_is_kept_apart_from_the_program():
    mod = _fake_program()

    def broken(counts, result):
        raise AttributeError("no such field")

    tracer = Tracer([Target(mod, "inner", "graphs.inner", after=broken)])
    tracer.install()
    assert mod.outer(2) == 3                       # the program's result passes
    tracer.uninstall()
    assert tracer.failed == Counter()
    assert tracer.probe_errors == Counter({"broken: AttributeError": 1})
    assert all(span[3] is not None for span in tracer.spans)


def test_call_clock_times_each_call_and_runs_the_hook_after_it():
    mod = _fake_program()
    hooked = []
    clock = CallClock(mod, "inner", after_call=hooked.append)
    clock.install()
    mod.outer(1)
    mod.outer(2)
    clock.uninstall()
    assert hooked == [1, 2]
    assert len(clock.intervals) == len(clock.resumed) == 2
    for (start, end), resumed in zip(clock.intervals, clock.resumed):
        assert start.cpu <= end.cpu <= resumed.cpu
        assert start.wall <= end.wall <= resumed.wall
    assert getattr(mod.inner, "__wrapped__", None) is None


def test_durations_read_either_clock():
    intervals = [(Stamp(1.0, 10.0), Stamp(1.5, 12.0)), (Stamp(2.0, 13.0), Stamp(2.25, 13.5))]
    assert durations(intervals, "cpu") == [0.5, 0.25]
    assert durations(intervals, "wall") == [2.0, 0.5]


# the metric lists the harness prints agree with BENCHMARK.json


def test_benchmark_json_lists_the_printed_metrics():
    sys.path.insert(0, str(ROOT / "src"))
    harness = pytest.importorskip("harness")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(harness.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    import run
    assert run.WORKLOADS == harness.WORKLOADS
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_reference_covers_every_pool_clip():
    sys.path.insert(0, str(ROOT / "src"))
    harness = pytest.importorskip("harness")
    reference = harness.load_reference()
    assert reference["tolerance"] == harness.SCORE_TOL
    for name, spec in harness.EVAL_SPECS.items():
        scores = reference[name]["scores"]
        assert reference[name]["patch_size"] == spec.patch_size
        for seed in (0, 1, 12345):
            for family, clip_seed in spec.picks(seed):
                assert f"{family}/{clip_seed}" in scores
        assert len(spec.picks(0)) == len(set(spec.picks(0)))
        assert spec.picks(3) == spec.picks(3)


@pytest.mark.parametrize("n", [1, 4, 5, 32, 64])
def test_traced_units_flip_parity_each_pass(n):
    sys.path.insert(0, str(ROOT / "src"))
    harness = pytest.importorskip("harness")
    flags = [harness._traced(k, n) for k in range(4 * n)]
    for pair in range(2):
        # each pair of passes traces every clip exactly once
        traced = [k % n for k in range(2 * pair * n, 2 * (pair + 1) * n) if flags[k]]
        assert sorted(traced) == list(range(n))
    # the overhead compares whole pairs of passes only
    durations = [1.0 if f else 0.5 for f in flags] + [9.0]
    assert harness._overhead_pct(durations, n) == pytest.approx(50.0)
