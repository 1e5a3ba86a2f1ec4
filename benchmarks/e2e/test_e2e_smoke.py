"""Tier-1 smoke and unit tests of the e2e benchmark (< 10 s).

The smoke run (tiny sizes, two in-process passes plus a traced one per
workload) must print every metric ``BENCHMARK.json`` names, with its
unit.  Aggregation — per-op folding over passes, reference seconds, the
"ten samples beyond" percentile rule, span self time — is tested on
synthetic inputs.
"""

from __future__ import annotations

import json
import re
import statistics
import subprocess
import sys

import pytest

from e2e import probe, run, trace

MANIFEST = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_smoke_prints_every_manifest_metric():
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--smoke"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    printed = {}
    for line in proc.stdout.splitlines():
        match = re.fullmatch(r"(\w+)/(\S+) (\S+) (\S+)", line)
        if match:
            workload, metric, value, unit = match.groups()
            printed[(workload, metric)] = (float(value), unit)
    workloads = [w["name"] for w in MANIFEST["workloads"]]
    assert workloads == list(run.WORKLOAD_NAMES)
    for spec in MANIFEST["end_to_end"] + MANIFEST["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]*", spec["name"])
        for workload in workloads:
            assert (workload, spec["name"]) in printed, (workload, spec["name"])
            assert printed[(workload, spec["name"])][1] == spec["unit"]
    for workload in workloads:
        assert printed[(workload, "ops_failed")][0] == 0
        for spec in MANIFEST["end_to_end"]:
            assert printed[(workload, spec["name"])][0] > 0


def test_manifest_lists_the_runner_metrics():
    assert [(m["name"], m["unit"]) for m in MANIFEST["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in MANIFEST["per_layer"]] == list(
        run.per_layer_metrics()
    )
    assert len(MANIFEST["per_layer"]) <= 128
    setup = next(m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in MANIFEST["end_to_end"]) <= 0.25


def test_per_op_fold_strips_a_slow_episode():
    clean = [0.010, 0.020, 0.030, 0.040]
    passes = [
        [0.010, 0.050, 0.030, 0.041],  # episode hits op 1
        [0.013, 0.020, 0.090, 0.040],  # episode hits op 2
        [0.011, 0.021, 0.031, 0.045],
    ]
    assert run.per_op(passes, min) == clean
    assert run.per_op(passes, statistics.median) == [0.011, 0.021, 0.031, 0.041]
    # second-smallest / smallest - 1 per op: .1, .05, 1/30, .025
    assert run.noise_frac(passes) == pytest.approx((0.05 + 1 / 30) / 2)
    with pytest.raises(ValueError):
        run.per_op([[0.1, 0.2], [0.1]], min)


def test_reference_seconds_cancel_a_uniform_slowdown():
    fast = probe.reference_seconds(2.0, probe.NOMINAL_S, probe.NOMINAL_S)
    slow = probe.reference_seconds(3.0, 1.5 * probe.NOMINAL_S, 1.5 * probe.NOMINAL_S)
    assert fast == pytest.approx(2.0) and slow == pytest.approx(2.0)
    # A machine that changed speed mid-section is charged the mean.
    assert probe.reference_seconds(2.5, probe.NOMINAL_S, 1.5 * probe.NOMINAL_S) == (
        pytest.approx(2.0)
    )
    assert probe.probe() > 0


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(120) == 90  # 12 samples beyond p90
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(30) == 66  # 30 * (1 - .66) >= 10
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(5) == 50
    for count in (20, 30, 64, 99, 120, 500):
        pct = run.tail_percentile(count)
        assert count * (100 - pct) / 100 >= 10 or pct == 50
    assert run.percentile([1, 2, 3, 4, 5], 50) == 3
    assert run.percentile(range(101), 90) == pytest.approx(90)


def test_band_mean_does_not_jump_between_modes():
    even = [10.0] * 60 + [20.0] * 60
    tipped = [10.0] * 59 + [20.0] * 61  # one op changed sides
    assert run.percentile(even, 50) == 15 and run.percentile(tipped, 50) == 20
    assert run.band_mean(even, 50, 10) == 15
    assert run.band_mean(tipped, 50, 10) == pytest.approx(15.0, rel=0.03)
    assert run.band_mean([1, 2, 3, 4, 50], 50, 10) == 3  # middle three of five
    assert run.band_mean(range(120), 90, 5) == pytest.approx(107.5)


def _record(latencies, sha="a", mae=None, ok=True):
    return {
        "phases": {"generate": 0.5, "ground": 0.25},
        "raw_phases": {"generate": 0.6, "ground": 0.3},
        "ops": [
            {
                "kind": "insert",
                "s": 1.5 * s,
                "ns": s,
                "dv": 2,
                "df": 8,
                "de": 0,
                "strategy": "sampling",
                "ok": ok,
            }
            for s in latencies
        ],
        "restores": [0.3, 0.2],
        "raw_restores": [0.4, 0.3],
        "checks": {"graph_equals_scratch": True},
        "marginals_sha256": sha,
        "marginal_mae": mae,
        "peak_rss_mb": 100.0,
    }


def test_aggregate_folds_passes_and_guards_determinism():
    records = [_record([0.1, 0.4], mae=0.125), _record([0.3, 0.2]), _record([0.2, 0.3])]
    result = run.aggregate(records)
    assert result["end_to_end"]["run_s"] == pytest.approx(0.5)  # per-op medians
    assert result["end_to_end"]["setup_s"] == pytest.approx(0.75)
    assert result["end_to_end"]["restore_s"] == pytest.approx(0.25)
    assert result["marginal_mae"] == 0.125
    assert result["wall"]["run_s"] == pytest.approx(0.45)  # per-op minima of wall
    assert result["ops_attempted"] == 9 and result["ops_failed"] == 0
    # A pass that did different work invalidates the per-op minimum.
    diverged = run.aggregate(records + [_record([0.1, 0.2], sha="b")])
    assert not diverged["fingerprints_match"] and diverged["ops_failed"] == 1
    failed = run.aggregate([_record([0.1, 0.2], ok=False)] * 2)
    assert failed["ops_failed"] == 4


def test_span_self_time_subtracts_the_union_of_children():
    rows = [
        {"id": 0, "name": "service.op", "start": 0.0, "end": 10.0, "parent": None, "op": 0},
        # Two children on different threads overlapping on [3, 5].
        {"id": 1, "name": "reliability.pipeline_apply", "start": 1.0, "end": 5.0, "parent": 0, "op": 0},
        {"id": 2, "name": "service.read", "start": 3.0, "end": 6.0, "parent": 0, "op": 0},
        {"id": 3, "name": "inference.gibbs_sweep", "start": 2.0, "end": 4.0, "parent": 1, "op": 0},
    ]
    selfs = trace.self_times(rows)
    assert selfs == {0: 5.0, 1: 2.0, 2: 3.0, 3: 2.0}
    summary = trace.summarize(rows)
    assert summary["service.op"] == {"calls": 1, "total_s": 10.0, "self_s": 5.0}
    assert summary["graph.compile"]["calls"] == 0
    # Self times of one op's spans add up to the covered wall time.
    assert sum(selfs.values()) == 12.0


def test_tracer_records_nesting_and_restores_every_callable():
    import repro.core.engine as engine_mod
    import repro.graph.delta as delta_mod
    import repro.service.server as server_mod
    from repro.graph.compiled import CompiledFactorGraph
    from repro.grounding.incremental import IncrementalGrounder
    from repro.service.server import KBService

    before = {
        "compose": engine_mod.compose_deltas,
        "replay": server_mod.replay_payload,
        "init": CompiledFactorGraph.__dict__["__init__"],
        "from_scratch": IncrementalGrounder.__dict__["from_scratch"],
        "restore": KBService.__dict__["restore"],
    }
    tracer = trace.Tracer()
    with tracer:
        assert engine_mod.compose_deltas is not before["compose"]
        assert engine_mod.compose_deltas is delta_mod.compose_deltas
        assert CompiledFactorGraph.__dict__["__init__"] is not before["init"]
        assert isinstance(KBService.__dict__["restore"], classmethod)
        with tracer.root("driver.op", op=7):
            outer = tracer.begin("grounding.full_ground")
            assert tracer.begin("grounding.full_ground") is None  # re-entrant
            inner = tracer.begin("graph.compile")
            tracer.end(inner)
            tracer.end(outer)
    assert engine_mod.compose_deltas is before["compose"] is delta_mod.compose_deltas
    assert server_mod.replay_payload is before["replay"]
    assert CompiledFactorGraph.__dict__["__init__"] is before["init"]
    assert IncrementalGrounder.__dict__["from_scratch"] is before["from_scratch"]
    assert KBService.__dict__["restore"] is before["restore"]
    rows = tracer.rows()
    assert [row["name"] for row in rows] == [
        "driver.op",
        "grounding.full_ground",
        "graph.compile",
    ]
    assert [row["parent"] for row in rows] == [None, 0, 1]
    assert {row["op"] for row in rows} == {7}
