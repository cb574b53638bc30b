"""Tests of the benchmark's own arithmetic, and a smoke run at tiny sizes.

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bootstrap  # noqa: E402

bootstrap.prepare()

import make_reference  # noqa: E402
import workloads as wk  # noqa: E402
from spans import Span, SpanRecorder, covered_length, self_times  # noqa: E402
from stats import Tally, TooFewSamples, tail_percentile  # noqa: E402


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------

def test_self_time_subtracts_nested_children():
    spans = [Span("step", 0.0, 10.0, -1),
             Span("drift", 1.0, 3.0, 0),
             Span("synth", 4.0, 8.0, 0),
             Span("normals", 5.0, 6.0, 2)]
    assert self_times(spans) == [4.0, 2.0, 3.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    spans = [Span("parent", 0.0, 10.0, -1),
             Span("a", 1.0, 5.0, 0),
             Span("b", 3.0, 7.0, 0),     # overlaps a on [3, 5]
             Span("c", 6.0, 6.5, 0)]     # inside b
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0)


def test_self_time_clips_children_to_the_parent():
    spans = [Span("parent", 2.0, 4.0, -1),
             Span("child", 1.0, 3.0, 0),
             Span("late", 3.5, 9.0, 0)]
    assert self_times(spans)[0] == pytest.approx(0.5)
    assert min(self_times(spans)) >= 0.0


def test_covered_length_of_disjoint_and_touching_intervals():
    assert covered_length([]) == 0.0
    assert covered_length([(0, 1), (1, 2), (5, 6)]) == 3.0


def test_recorder_nests_spans_and_counts_calls():
    ticks = iter(range(100))
    rec = SpanRecorder(clock=lambda: float(next(ticks)))
    inner = rec.timed("inner", lambda x: x + 1)
    outer = rec.timed("outer", lambda x: inner(x) * 2)
    roll = rec.counted("roll", lambda: None)
    assert outer(1) == 4
    roll()
    roll()
    assert [(s.name, s.start, s.end, s.parent) for s in rec.spans] == [
        ("outer", 0.0, 3.0, -1), ("inner", 1.0, 2.0, 0)]
    assert self_times(rec.spans) == [2.0, 1.0]
    assert rec.counts["roll"] == 2


def test_recorder_closes_span_when_call_raises():
    rec = SpanRecorder()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        rec.timed("boom", boom)()
    assert rec.spans[0].end >= rec.spans[0].start
    assert rec.timed("after", lambda: 1)() == 1
    assert rec.spans[1].parent == -1


# ---------------------------------------------------------------------------
# percentile rule and failure accounting
# ---------------------------------------------------------------------------

def test_p95_needs_ten_samples_beyond_it():
    assert tail_percentile(range(1, 201), 95) == 190
    with pytest.raises(TooFewSamples):
        tail_percentile(range(1, 200), 95)
    assert tail_percentile(range(1, 101), 50) == 50


def test_p95_counts_ties_as_not_beyond():
    samples = [1.0] * 195 + [2.0] * 15
    with pytest.raises(TooFewSamples):
        tail_percentile(samples, 95)          # p95 = 2.0, nothing above it
    with pytest.raises(TooFewSamples):
        tail_percentile([], 50)


def test_failed_fraction_counts_operations_not_problems():
    tally = Tally()
    assert tally.add([])
    assert not tally.add(["steps", "mass drift"])
    tally.add([])
    tally.add(["aborted"])
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.failed_fraction == 0.5
    assert len(tally.problems) == 3
    with pytest.raises(ValueError):
        Tally().failed_fraction


# ---------------------------------------------------------------------------
# inputs and derived counts
# ---------------------------------------------------------------------------

def test_inputs_depend_only_on_the_seed():
    assert wk.unit_seed(7, 0) == wk.unit_seed(7, 0)
    assert wk.unit_seed(3, 1) == wk.unit_seed(4, 0)
    seeds = {wk.unit_seed(s, r) for s in range(40) for r in range(5)}
    assert seeds <= set(wk.reference_seeds(wk.WORKLOADS["traj-n32-diag"]))


def test_default_dt_matches_the_solver_default():
    from stfe2d.grid import Grid
    from stfe2d.integrator import stable_dt
    from stfe2d.material import Material
    for n in (16, 32, 128):
        assert wk.default_dt(n) == pytest.approx(stable_dt(Grid(n, n, 1.0, 1.0), Material()),
                                                 rel=1e-15)


def test_halvings_derived_from_accepted_dt():
    rec = lambda t: type("R", (), {"t": t})()  # noqa: E731
    records = [rec(0.0), rec(1.0), rec(1.25), rec(2.25), rec(2.5)]
    assert wk.derived_halvings(records, 1.0, 2.5) == [0, 2, 0, 0]


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == wk.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == wk.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(wk.WORKLOADS)


# ---------------------------------------------------------------------------
# smoke run at tiny sizes
# ---------------------------------------------------------------------------

TINY = {
    "traj-n32-diag": dict(n=8, steps=60, snapshots=3),
    "traj-n128-noise": dict(n=12, trunc_C=2.0, steps=60, snapshots=2),
    "ensemble-n16": dict(n=8, steps=60, replicas=4),
}


@pytest.mark.parametrize("name", list(TINY))
def test_smoke_run_tiny_workload(name, tmp_path):
    wl = dataclasses.replace(wk.WORKLOADS[name], **TINY[name])
    workers = 2 if wl.kind == "ensemble" else 1
    refs = make_reference.record(wl, tmp_path)

    plain = wk.run_workload(wl, 3, 0.2, False, refs, tmp_path, workers)
    assert plain.correct, plain.tally.problems
    assert plain.tally.failed == 0 and plain.tally.attempted >= 1
    assert set(plain.metrics) == set(wk.E2E_UNITS)
    assert all(v > 0 for v in plain.metrics.values())
    assert plain.info["step_ms.samples"][0] >= 200
    assert plain.info["setup_s.samples"][0] >= 40

    traced = wk.run_workload(wl, 3, 0.2, True, refs, tmp_path, workers)
    assert traced.correct, traced.tally.problems
    m = traced.metrics
    assert set(m) == set(wk.LAYER_UNITS)
    assert m["diagnostics.energy.calls_per_step"] == 3
    assert m["scheme.pressure.calls_per_step"] == 2
    assert m["integrator.attempts_per_step"] == 1 and m["integrator.halvings"] == 0
    assert m["noise.synth.calls"] == wl.steps
    assert m["fem.roll_calls_per_step"] > 0
    assert traced.breakdown

    broken = {seed: dict(v, diss_integral=v["diss_integral"] * (1 + 1e-6))
              for seed, v in refs.items()}
    failed = wk.run_workload(wl, 3, 0.2, False, broken, tmp_path, workers)
    assert not failed.correct
    assert failed.tally.failed >= 1
    assert not list(tmp_path.glob("out/*"))
