"""Tests of the benchmark harness's own logic (not of delius)."""

import json
import os
import re
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
import tracer  # noqa: E402
from workloads import Workload  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _span(name, start, end, parent=None, counts=None):
    return {"name": name, "start": start, "end": end, "parent": parent, "counts": counts or {}}


def test_self_time_subtracts_nested_children():
    recorded = [
        _span("a", 0.0, 10.0),
        _span("b", 1.0, 3.0, parent=0),
        _span("c", 4.0, 6.0, parent=0),
        _span("d", 4.5, 5.0, parent=2),
        _span("e", 12.0, 13.0),
    ]
    assert spans.self_times(recorded) == pytest.approx([6.0, 2.0, 1.5, 0.5, 1.0])
    totals = spans.aggregate(recorded + [_span("b", 7.0, 8.0, parent=0)])
    assert totals["b.calls"] == 2
    assert totals["b.self_s"] == pytest.approx(3.0)
    assert totals["a.self_s"] == pytest.approx(5.0)


def test_stage_time_counts_only_outermost_stage_calls():
    recorded = [
        _span("baselines.run_pca_kmeans", 2.0, 5.0),
        _span("metrics.evaluate", 4.0, 5.0, parent=0),
        _span("metrics.evaluate", 6.0, 6.5),
        _span("neural.forward", 1.0, 1.5),
    ]
    assert spans.stage_seconds(recorded, tracer.STAGES) == pytest.approx(
        {"baseline": 3.0, "eval": 0.5}
    )
    assert spans.first_stage(recorded, tracer.STAGES) is recorded[0]


def test_metric_names_units_and_directions():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for metric in metrics:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", metric["name"]), metric
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    better = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
    assert better["acc"] == "higher" and better["sc"] == "higher"
    assert all(better[n] == "lower" for n in better if n not in ("acc", "sc"))
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_recorder_wraps_every_binding_of_a_function():
    kmeans = types.ModuleType("delius.kmeans")
    exec("def kmeans_fit(points, k):\n    return sum(points) * k\n", kmeans.__dict__)
    dec = types.ModuleType("delius.dec")
    dec.kmeans_fit = kmeans.kmeans_fit  # as `from .kmeans import kmeans_fit` binds it
    recorder = tracer.Recorder({"kmeans.kmeans_fit": lambda a, r, p: {"points": len(a["points"])}})
    recorder.patch(kmeans)
    recorder.patch(dec)
    assert kmeans.kmeans_fit([1, 2], 3) == 9
    assert dec.kmeans_fit([1, 2, 3], k=1) == 6
    assert [s["name"] for s in recorder.spans] == ["kmeans.kmeans_fit"] * 2
    assert spans.aggregate(recorder.spans)["points"] == 5


def test_failing_invocation_counts_as_failed(tmp_path):
    def commands(features, labels, seed):
        return [
            ["eval", "--points", features, "--assignments", "missing.csv", "--out", "report.json"],
            ["plot", "--xy", "xy.csv", "--assignments", "missing.csv", "--out", "s.svg"],
        ]

    workload = Workload(name="broken", rows=0, dim=0, noise=0.0, mixed=0.0, csv=False,
                        commands=commands, artifacts=(), history="history.csv")
    inputs = (str(tmp_path / "absent.delf"), str(tmp_path / "labels.csv"))
    rep = run.run_rep(workload, inputs, 0, str(tmp_path / "rep"), "stages",
                      deadline=run.time.monotonic() + 60)
    assert rep.invocations[0].code == 2  # missing input: configuration error
    assert len(rep.invocations) == 1  # the second command needs the first one's output
    assert run.tally([rep]) == (2, 2)  # both commands count toward failed_frac


def test_unmeasurable_counts_fail_the_run():
    recorder = tracer.Recorder({"kmeans.kmeans_fit": lambda a, r, p: {"n": a["renamed"]}})
    module = types.ModuleType("delius.kmeans")
    exec("def kmeans_fit(points):\n    return points\n", module.__dict__)
    recorder.patch(module)
    module.kmeans_fit([1])
    invocation = run.Invocation(0, 0.0, 1.0, 1.0, 1.0, {"spans": recorder.spans})
    assert run.unmeasured([invocation]) == ["kmeans.kmeans_fit"]


def _invocation(spawned, exited, wrapped=(), trace_s=0.0):
    record = {"start": spawned, "end": exited, "import_s": 0.0, "spans": [], "wrapped": wrapped,
              "trace_s": trace_s}
    return run.Invocation(0, spawned, exited, exited - spawned, 1.0, record)


def test_absent_functions_read_null_and_uncalled_ones_zero():
    reps = [run.Rep("layers", [_invocation(0.0, 1.0, ["neural.load_checkpoint", "dec.dec_fit"])])]
    values = run.with_absent(
        {"cli.processes": 1},
        ["neural.load_checkpoint.bytes", "dec.iterations", "neural.adam.elements",
         "baselines.run_pca_kmeans.self_s"],
        reps,
    )
    assert values == {
        "baselines.run_pca_kmeans.self_s": None,  # the function is gone
        "cli.processes": 1,
        "dec.iterations": 0,
        "neural.adam.elements": None,
        "neural.load_checkpoint.bytes": 0,  # exists, never called
    }


def test_trace_overhead_and_paired_wall_difference():
    walls = [("stages", 10.0, 0.0), ("layers", 11.0, 0.3), ("stages", 12.0, 0.0),
             ("layers", 12.5, 0.1), ("stages", 9.0, 0.0), ("layers", 11.5, 0.2)]
    reps = [run.Rep(mode, [_invocation(0.0, wall, trace_s=t)]) for mode, wall, t in walls]
    values = run.per_layer(reps)
    assert values["trace.overhead_s"] == pytest.approx(0.2)  # median over the traced reps
    assert values["trace.wall_delta_s"] == pytest.approx(1.0)  # median of pairs 1, 0.5, 2.5
    assert values["cli.processes"] == 1


def test_kl_history_reads_kl_full(tmp_path):
    path = tmp_path / "history.csv"
    path.write_text("refresh_index,iter,kl_full,changed_fraction\n0,0,0.5,\n1,140,0.25,0.0\n")
    assert run.kl_history(str(path)) == [0.5, 0.25]
    assert run.kl_history(str(tmp_path / "missing.csv")) == []


def test_wrappers_account_their_own_cost():
    module = types.ModuleType("delius.kmeans")
    exec("def kmeans_fit(points):\n    return points\n", module.__dict__)
    recorder = tracer.Recorder({"kmeans.kmeans_fit": lambda a, r, p: {"n": len(a["points"])}})
    recorder.patch(module)
    before = recorder.cost[0]
    for _ in range(100):
        module.kmeans_fit([1])
    assert 0.0 < before < recorder.cost[0]


def test_cpu_times_are_scaled_by_the_calibration():
    record = {"spans": [{"name": "autoencoder.pretrain", "start": 5.0, "end": 6.0,
                         "parent": None, "counts": {}, "cpu_start": 2.0}]}
    rep = run.Rep("stages", [run.Invocation(0, 0.0, 7.0, 4.0, 1.0, record)],
                  report={"acc_style": 1.0, "sc": 0.5})
    rep.calibration_s = 2 * run.REFERENCE_S  # the host ran at half speed
    values = run.end_to_end(rep)
    assert values["cpu_raw_s"] == 4.0 and values["setup_raw_s"] == 2.0
    assert values["cpu_s"] == pytest.approx(2.0)
    assert values["setup_s"] == pytest.approx(1.0)
