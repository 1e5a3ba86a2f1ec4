"""Fault-recovery latency: transactional rollback + retry.

A deployed KBC system's update loop (§1) is only as good as its worst
failure: an exception mid-update used to mean a half-patched substrate.
The reliability layer bounds that cost; this benchmark measures it:

* ``rollback`` — a fault injected inside ``RerunEngine.apply_update``
  triggers the transactional rollback; reported per delta size as the
  rollback (failed-call) cost and the retry cost vs a clean update.
  Rollback work is O(touched state), so it should track the clean
  update, not the graph.

``--check`` runs the CI chaos smoke instead: a seeded engine fault must
roll back and retry to the never-faulted twin's marginals and graph,
bit for bit.

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
from repro.reliability import Fault, FaultInjected, FaultPlan, inject_faults

from _helpers import emit_json

sys.path.insert(0, ".")  # tests/ (the graph fingerprint) is at the root
from tests.helpers import graph_fingerprint  # noqa: E402

SCALES = {
    "tiny": {"num_vars": 300, "delta_sizes": [1, 8]},
    "small": {"num_vars": 1500, "delta_sizes": [1, 16, 64]},
    "medium": {"num_vars": 6000, "delta_sizes": [1, 32, 256]},
}


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
        delta.new_factors.add_ising(nw, i, j)
    return delta


def measure_rollback(num_vars: int, delta_sizes: list) -> list:
    """Transactional rollback + retry cost vs clean update, per |Δ|."""
    rows = []
    for size in delta_sizes:
        graph = build_graph(num_vars)
        engine = RerunEngine(
            graph,
            EngineConfig(inference_samples=3, burn_in=2, seed=0),
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


def run(scale: str) -> dict:
    cfg = SCALES[scale]
    record = {"scale": scale}
    record["rollback"] = measure_rollback(cfg["num_vars"], cfg["delta_sizes"])
    for row in record["rollback"]:
        print(
            f"rollback |Δ|={row['delta_size']:>4}: clean {row['clean_update_seconds'] * 1e3:.1f} ms, "
            f"rollback {row['rollback_seconds'] * 1e3:.1f} ms, "
            f"retry {row['retry_seconds'] * 1e3:.1f} ms"
        )
    return record


def check() -> None:
    """CI chaos smoke: an engine fault rolls back and retries to the
    never-faulted twin's marginals and graph."""
    cfg = EngineConfig(inference_samples=20, burn_in=5, seed=0)
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
    assert graph_fingerprint(faulted.current_graph) == graph_fingerprint(
        twin.current_graph
    ), "rolled-back engine's graph diverged from never-faulted twin's"
    faulted.close()
    twin.close()
    print("recovery smoke ok: rollback→retry twin-exact")


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
