"""Fault-recovery latency: supervised respawn, rollback+retry, degradation.

A deployed KBC system's update loop (§1) is only as good as its worst
failure: a hung worker or a crash mid-update used to mean a lost run.
The reliability layer bounds those costs; this benchmark measures what
they are, on the worker pool that runs the grounding shards:

* ``recovery`` — a grounding worker is SIGKILLed mid-update (the News
  system's FE1 rule addition, at 2 workers); the executor detects the
  death, respawns the worker, re-ships its session (relation mirrors,
  pinned plans and batches) and resends the lost command.  Reported
  against the same update on a healthy pool and against a *cold
  restart* (rebuilding the sharded grounder from the database), which
  is what recovery replaces.
* ``rollback`` — a fault injected inside ``RerunEngine.apply_update``
  triggers the transactional rollback; reported per delta size as the
  rollback (failed-call) cost and the retry cost vs a clean update.
  Rollback work is O(touched state), so it should track the clean
  update, not the graph.
* ``degradation`` — the development loop's updates on the serial path a
  persistently failing pool degrades to, vs the same updates on the
  healthy sharded pool: the price of continuing at all.

``--check`` runs the CI chaos smoke instead: a seeded kill mid-update
must recover to a graph **bit-identical** to the serial grounder's
within the command timeout, and a seeded engine fault must roll back
and retry to the never-faulted twin's marginals.

Run from the repo root: ``PYTHONPATH=src python
benchmarks/bench_recovery.py [--scale tiny|small|medium] [--check]``
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.core import EngineConfig, RerunEngine
from repro.graph import FactorGraph, FactorGraphDelta
from repro.graph.factor_graph import IsingFactor
from repro.grounding import IncrementalGrounder
from repro.reliability import Fault, FaultInjected, FaultPlan, RetryPolicy, inject_faults
from repro.workloads import build_pipeline, workload_by_name

from _helpers import emit_json

sys.path.insert(0, ".")  # tests/ (the graph fingerprint) is at the root
from tests.test_sharded_grounding import graph_fingerprint  # noqa: E402

SCALES = {
    "tiny": {"num_vars": 300, "corpus": 0.5, "delta_sizes": [1, 8]},
    "small": {"num_vars": 1500, "corpus": 2.0, "delta_sizes": [1, 16, 64]},
    "medium": {"num_vars": 6000, "corpus": 6.0, "delta_sizes": [1, 32, 256]},
}

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.001, max_delay=0.01)

#: The development-loop update the recovery axis kills a worker in.
KILLED_UPDATE = "FE1"


def build_graph(num_vars: int, seed: int = 0) -> FactorGraph:
    """Random Ising graph with biases (§3.2.4 style)."""
    rng = np.random.default_rng(seed)
    fg = FactorGraph()
    fg.add_variables(num_vars)
    for k in range(num_vars * 2):
        i, j = int(rng.integers(num_vars)), int(rng.integers(num_vars))
        if i == j:
            continue
        wid = fg.weights.intern(("J", k), initial=float(rng.normal(0, 0.3)))
        fg.add_ising_factor(wid, i, j)
    bias = fg.weights.intern("h", initial=0.1)
    for v in range(num_vars):
        fg.add_bias_factor(bias, v)
    return fg


def make_delta(graph: FactorGraph, size: int, rng, step: int) -> FactorGraphDelta:
    delta = FactorGraphDelta()
    n = graph.num_vars
    nw = len(graph.weights)
    delta.new_weight_entries.append((("upd", step), float(rng.normal(0, 0.3)), False))
    for _ in range(size):
        i, j = int(rng.integers(n)), int(rng.integers(n))
        if i == j:
            j = (j + 1) % n
        delta.new_factors.append(IsingFactor(weight_id=nw, i=i, j=j))
    return delta


def news(corpus_scale: float):
    """The News system's base grounding inputs and its development-loop
    updates: ``(program, rows, [(label, update kwargs), ...])``."""
    pipeline = build_pipeline(workload_by_name("news"), scale=corpus_scale, seed=0)
    return pipeline.build_program(), pipeline.corpus_rows(), pipeline.snapshot_updates()


def ground(corpus_scale: float, n_workers: int, **kwargs) -> IncrementalGrounder:
    """The News base grounding, on ``n_workers`` shards (1 = serial)."""
    program, rows, _ = news(corpus_scale)
    db = program.create_database()
    for name, relation_rows in rows.items():
        db.insert_all(name, relation_rows)
    return IncrementalGrounder.from_scratch(program, db, n_workers=n_workers, **kwargs)


def kill_plan(repeat: bool = False, at: int = 1) -> FaultPlan:
    return FaultPlan(
        [
            Fault(
                site="pool.send",
                action="kill",
                method="ground",
                worker=0,
                at=at,
                repeat=repeat,
            )
        ]
    )


# --------------------------------------------------------------------- #


def measure_recovery(corpus_scale: float) -> dict:
    """Kill-mid-update recovery latency vs the healthy update and a cold
    restart of the sharded grounder."""
    _, _, updates = news(corpus_scale)
    seconds = {}
    for faulted in (False, True):
        grounder = ground(corpus_scale, 2, command_timeout=60.0, retry=FAST_RETRY)
        try:
            for label, update in updates:
                if label != KILLED_UPDATE:
                    grounder.apply_update(**update)
                    continue
                plan = kill_plan() if faulted else FaultPlan([])
                with inject_faults(plan):
                    start = time.perf_counter()
                    # detection + respawn + session re-ship + resend
                    grounder.apply_update(**update)
                    seconds[faulted] = time.perf_counter() - start
                if faulted:
                    respawns = grounder.executor.pool.respawns
                    assert not grounder.executor.degraded
        finally:
            grounder.close()
    # The alternative recovery strategy: throw the sharded grounder away
    # and rebuild it from the database (what a crash used to force).
    start = time.perf_counter()
    ground(corpus_scale, 2).close()
    cold_restart = time.perf_counter() - start
    return {
        "corpus_scale": corpus_scale,
        "n_workers": 2,
        "killed_update": KILLED_UPDATE,
        "normal_update_seconds": seconds[False],
        "recovery_update_seconds": seconds[True],
        "recovery_overhead_seconds": seconds[True] - seconds[False],
        "cold_restart_seconds": cold_restart,
        "respawns": respawns,
    }


def measure_rollback(num_vars: int, delta_sizes: list) -> list:
    """Transactional rollback + retry cost vs clean update, per |Δ|."""
    rows = []
    for size in delta_sizes:
        graph = build_graph(num_vars)
        engine = RerunEngine(
            graph,
            EngineConfig(inference_samples=3, burn_in=2, incremental_burn_in=2, seed=0),
        )
        engine.apply_update(FactorGraphDelta())  # prime the compile
        rng = np.random.default_rng(7)
        start = time.perf_counter()
        engine.apply_update(make_delta(engine.current_graph, size, rng, 0))
        clean = time.perf_counter() - start
        delta = make_delta(engine.current_graph, size, rng, 1)
        with inject_faults(FaultPlan([Fault(site="engine.update.inferred")])):
            start = time.perf_counter()
            try:
                engine.apply_update(delta)
            except FaultInjected:
                pass
            rollback = time.perf_counter() - start
        start = time.perf_counter()
        engine.apply_update(delta)
        retry = time.perf_counter() - start
        engine.close()
        rows.append(
            {
                "num_vars": num_vars,
                "delta_size": size,
                "clean_update_seconds": clean,
                "rollback_seconds": rollback,
                "retry_seconds": retry,
                "rollbacks": 1,
            }
        )
    return rows


def measure_degradation(corpus_scale: float) -> dict:
    """The development loop's updates after the pool degraded to serial
    (a persistent kill during the base grounding) vs on a healthy pool."""
    _, _, updates = news(corpus_scale)

    def loop_seconds(grounder) -> float:
        start = time.perf_counter()
        for _label, update in updates:
            grounder.apply_update(**update)
        return time.perf_counter() - start

    healthy = ground(corpus_scale, 2, command_timeout=60.0)
    try:
        parallel = loop_seconds(healthy)
    finally:
        healthy.close()
    with inject_faults(kill_plan(repeat=True)):
        degraded = ground(
            corpus_scale,
            2,
            command_timeout=60.0,
            retry=RetryPolicy(max_attempts=2, base_delay=0.001),
        )
    try:
        assert degraded.executor.degraded
        serial = loop_seconds(degraded)
    finally:
        degraded.close()
    return {
        "corpus_scale": corpus_scale,
        "n_workers": 2,
        "updates": len(updates),
        "parallel_loop_seconds": parallel,
        "degraded_serial_loop_seconds": serial,
        "slowdown": serial / max(parallel, 1e-9),
    }


def run(scale: str) -> dict:
    cfg = SCALES[scale]
    record = {"scale": scale}
    rec = measure_recovery(cfg["corpus"])
    record["recovery"] = rec
    print(
        f"recovery News@{rec['corpus_scale']}: {KILLED_UPDATE} "
        f"{rec['normal_update_seconds'] * 1e3:.1f} ms, with kill+respawn "
        f"{rec['recovery_update_seconds'] * 1e3:.1f} ms, cold restart "
        f"{rec['cold_restart_seconds'] * 1e3:.1f} ms"
    )
    record["rollback"] = measure_rollback(cfg["num_vars"], cfg["delta_sizes"])
    for row in record["rollback"]:
        print(
            f"rollback |Δ|={row['delta_size']:>4}: clean {row['clean_update_seconds'] * 1e3:.1f} ms, "
            f"rollback {row['rollback_seconds'] * 1e3:.1f} ms, "
            f"retry {row['retry_seconds'] * 1e3:.1f} ms"
        )
    deg = measure_degradation(cfg["corpus"])
    record["degradation"] = deg
    print(
        f"degradation News@{deg['corpus_scale']}: {deg['updates']} updates "
        f"{deg['parallel_loop_seconds'] * 1e3:.1f} ms on the pool → "
        f"{deg['degraded_serial_loop_seconds'] * 1e3:.1f} ms serial "
        f"({deg['slowdown']:.2f}x)"
    )
    return record


def check() -> None:
    """CI chaos smoke: a seeded kill mid-update recovers to the serial
    grounder's graph bit for bit; an engine fault rolls back and retries
    to the never-faulted twin's marginals."""
    _, _, updates = news(0.5)
    serial = ground(0.5, 1)
    for _label, update in updates:
        serial.apply_update(**update)
    plan = kill_plan(at=2)
    start = time.perf_counter()
    with inject_faults(plan):
        sharded = ground(0.5, 2, command_timeout=60.0, retry=FAST_RETRY)
        try:
            for _label, update in updates:
                sharded.apply_update(**update)
            respawns = sharded.executor.pool.respawns
            degraded = sharded.executor.degraded
        finally:
            sharded.close()
    elapsed = time.perf_counter() - start
    assert len(plan.fired) == 1, "the kill never fired"
    assert respawns == 1 and not degraded, "kill did not trigger one respawn"
    assert graph_fingerprint(sharded.graph) == graph_fingerprint(serial.graph), (
        "recovered grounding diverged from the serial grounder"
    )
    assert elapsed < 60.0, f"recovery exceeded the command timeout ({elapsed:.1f}s)"

    cfg = EngineConfig(inference_samples=20, burn_in=5, incremental_burn_in=5, seed=0)
    faulted = RerunEngine(build_graph(60, seed=1), cfg)
    twin = RerunEngine(build_graph(60, seed=1), cfg)
    rng = np.random.default_rng(2)
    delta_f = make_delta(faulted.current_graph, 4, rng, 0)
    rng = np.random.default_rng(2)
    delta_t = make_delta(twin.current_graph, 4, rng, 0)
    with inject_faults(FaultPlan([Fault(site="engine.update.patched")])):
        try:
            faulted.apply_update(delta_f)
            raise AssertionError("fault did not fire")
        except FaultInjected:
            pass
    assert faulted.rollbacks == 1
    out_retry = faulted.apply_update(delta_f)
    out_twin = twin.apply_update(delta_t)
    assert np.array_equal(out_retry.marginals, out_twin.marginals), (
        "rolled-back engine diverged from never-faulted twin"
    )
    faulted.close()
    twin.close()
    print(
        "recovery smoke ok: grounding kill→respawn bit-exact, "
        "rollback→retry twin-exact"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=sorted(SCALES), default="small")
    parser.add_argument(
        "--check",
        action="store_true",
        help="run the chaos smoke assertions only",
    )
    args = parser.parse_args()
    if args.check:
        check()
        return
    record = run(args.scale)
    emit_json("BENCH_recovery", record)


if __name__ == "__main__":
    main()
