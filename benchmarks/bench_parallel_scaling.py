"""Parallel-sampling scaling: chain ensembles.

DeepDive's scalability story (§1, §3.3) rests on sampling throughput —
inference is the inner subroutine of both learning and incremental
materialization.  This benchmark tracks the multi-process axis of
:mod:`repro.inference.parallel` that ships — ``ParallelChainEnsemble``,
independent whole chains farmed to workers over one shared-memory
export (the convergence-harness / SGD / materialization pattern) — on
the same two workload families as ``bench_inference_throughput``.
Throughput is aggregate chain-sweeps/sec at each ``--workers`` count
(one worker is the in-process ``GibbsSampler``).

``--check`` asserts that a 2-worker ensemble's pooled marginals agree
with the serial kernel's — the CI smoke gate.  Results go to
``benchmark_results/BENCH_parallel.json`` via ``_helpers.emit_json``
(stamped with the machine's core count: scaling numbers from a 1-core
container legitimately show slowdown, and the record must say so).

Run: ``PYTHONPATH=src python benchmarks/bench_parallel_scaling.py
[--scale tiny|small|medium|large] [--workers 1,2,4] [--check]``
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.graph.compiled import CompiledFactorGraph
from repro.inference.gibbs import GibbsSampler
from repro.inference.parallel import ParallelChainEnsemble

from _helpers import emit_json
from bench_inference_throughput import (
    SCALE_ORDER,
    SCALES,
    pairwise_workload,
    rule_workload,
)


def _build(workload: str, scale: str):
    if workload == "pairwise":
        num_vars, degree = SCALES[scale]["pairwise"]
        return pairwise_workload(num_vars, degree)
    return rule_workload(SCALES[scale]["rules"])


def _time_sweeps(step, warmup=2, min_seconds: float = 0.4, max_rounds: int = 80):
    """Sweeps/sec of a ``step() -> sweeps-advanced`` callable."""
    for _ in range(warmup):
        step()
    done = 0
    start = time.perf_counter()
    while True:
        done += step()
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds or done >= max_rounds * 5:
            return done / elapsed


def measure_ensemble(graph, compiled, workers: int) -> float:
    """Aggregate chain-sweeps/sec of a ``workers``-chain ensemble."""
    if workers <= 1:
        sampler = GibbsSampler(graph, seed=1, compiled=compiled)
        return _time_sweeps(lambda: (sampler.run(5), 5)[1])
    ensemble = ParallelChainEnsemble(
        graph, num_chains=workers, n_workers=workers, seed=1, compiled=compiled
    )
    try:
        return _time_sweeps(lambda: (ensemble.sweeps(5), 5 * workers)[1])
    finally:
        ensemble.close()


def measure(workload: str, scale: str, worker_counts) -> dict:
    graph = _build(workload, scale)
    compiled = CompiledFactorGraph(graph)
    axis = {
        str(workers): round(measure_ensemble(graph, compiled, workers), 2)
        for workers in worker_counts
    }
    base = axis[str(min(worker_counts))]
    top = str(max(worker_counts))
    row = {
        "workload": workload,
        "scale": scale,
        "num_vars": graph.num_vars,
        "num_factors": graph.num_factors,
        "mode": "ensemble",
        "sweeps_per_sec": axis,
        "speedup_at_max_workers": round(axis[top] / base, 3) if base else None,
    }
    print(
        f"{workload:9s} {scale:7s} ensemble "
        + "  ".join(f"{w}w={r:9.1f}/s" for w, r in axis.items())
        + f"  (x{row['speedup_at_max_workers']})"
    )
    return row


def check_agreement(
    n_workers: int = 2, tolerance: float = 0.06, num_samples: int = 12000
) -> dict:
    """Serial kernel vs. a chain ensemble: marginals must agree.

    The ensemble pools ``num_samples`` worlds from ``n_workers``
    independent chains; the serial reference draws as many from one.
    Same tiny graphs as ``bench_inference_throughput``'s kernel check.
    """
    out = {}
    for name, graph in (
        ("pairwise", pairwise_workload(60, 6, seed=3)),
        ("rules", rule_workload(30, seed=3)),
    ):
        compiled = CompiledFactorGraph(graph)
        serial = GibbsSampler(graph, seed=7, compiled=compiled).estimate_marginals(
            num_samples, burn_in=100
        )
        with ParallelChainEnsemble(
            graph, num_chains=n_workers, n_workers=n_workers, seed=7, compiled=compiled
        ) as ensemble:
            packed, count = ensemble.sample_worlds_packed(
                num_samples=num_samples, burn_in=100
            )
        worlds = np.unpackbits(packed, axis=1, count=graph.num_vars).astype(bool)
        assert count == num_samples
        diff = float(np.abs(worlds.mean(axis=0) - serial).max())
        if diff >= tolerance:
            raise AssertionError(
                f"{n_workers}-chain ensemble marginals diverge from the serial "
                f"kernel on {name}: {diff:.4f} >= {tolerance}"
            )
        out[f"{name}_ensemble_max_marginal_diff"] = round(diff, 4)
    return out


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=SCALE_ORDER, default="large")
    parser.add_argument(
        "--workers", default="1,2,4", help="comma-separated worker counts"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="assert ensemble/serial marginal agreement (2 workers)",
    )
    args = parser.parse_args(argv)
    worker_counts = sorted(int(w) for w in args.workers.split(",") if w.strip())

    scales = SCALE_ORDER[: SCALE_ORDER.index(args.scale) + 1]
    rows = [
        measure(workload, scale, worker_counts)
        for workload in ("pairwise", "rules")
        for scale in scales
    ]
    record = {"experiment": "parallel_scaling", "results": rows}
    if args.check:
        record["agreement"] = check_agreement(n_workers=2)
        print(f"agreement: {record['agreement']}")
    emit_json("BENCH_parallel", record)
    return record


if __name__ == "__main__":
    main()
