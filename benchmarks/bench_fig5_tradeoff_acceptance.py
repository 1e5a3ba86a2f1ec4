"""Figure 5(b): execution time vs. MH acceptance rate.

Expected shape: at high acceptance the sampling approach wins by orders
of magnitude (stored proposals are nearly free); as acceptance falls the
per-effective-sample cost grows ∝ 1/ρ and the variational approach —
whose cost ignores ρ — crosses over.

Run: ``PYTHONPATH=src python benchmarks/bench_fig5_tradeoff_acceptance.py
[--check]`` (or under pytest-benchmark, which writes the table to
``benchmark_results/``).

``--check`` is the CI smoke contract: a reduced materialization, and the
shape above as assertions — measured ρ strictly decreasing down the
rows; sampling cost per 150 effective samples non-decreasing as ρ falls
and ≥ 10× larger at the lowest ρ than at ρ = 1; sampling ≥ 5× cheaper
than variational wherever ρ ≥ 0.4.  The low-ρ crossover is reported, not
asserted: the full-size table's last row (ρ ≈ 0.009) went to variational
by ≈ 1.3× in two runs of three and to sampling in the third, and at
``--check``'s size (ρ ≈ 0.03) sampling still wins it by ≈ 2× — neither is
a margin to gate on.
"""

import argparse
import time

# The library imports scipy where it calls it (the pairwise
# SampleMaterialization's ChromaticGibbsSampler); loading it here keeps
# the one-time import out of every timed row.
import scipy.sparse  # noqa: F401
from _helpers import emit, once

from repro.core import SampleMaterialization, VariationalMaterialization
from repro.util.tables import format_table
from repro.workloads import delta_with_acceptance, synthetic_pairwise_graph

ACCEPTANCE_TARGETS = (1.0, 0.5, 0.1, 0.01)
EFFECTIVE_SAMPLES = 150


def _measure(samples: int = 4000, steps: int = 1500, repeats: int = 1) -> list:
    """One row per acceptance target: measured ρ and both approaches'
    seconds per ``EFFECTIVE_SAMPLES``.  A sampling run is well under a
    millisecond per hundred steps, so it is timed ``repeats`` times on
    successive slices of the bundle and the fastest counts — round-robin
    over the rows, so a cold process and a slow spell of the machine fall
    on every row alike."""
    graph = synthetic_pairwise_graph(150, sparsity=0.5, seed=0)
    rows = []
    for target in ACCEPTANCE_TARGETS:
        sampling = SampleMaterialization(graph, seed=0)
        sampling.materialize(num_samples=samples, burn_in=30)
        # Low acceptance targets need deltas touching many variables
        # (single-variable perturbations bottom out around rho ~ 2%).
        num_factors = 5 if target >= 0.1 else 40
        delta, _probed = delta_with_acceptance(
            graph, sampling, target_acceptance=target, seed=2,
            num_factors=num_factors,
        )
        variational = VariationalMaterialization(graph, lam=0.05, seed=0)
        variational.materialize(samples=sampling.samples)
        variational.apply_update(graph, delta)
        t0 = time.perf_counter()
        variational.infer(num_samples=EFFECTIVE_SAMPLES, burn_in=15)
        variational_time = time.perf_counter() - t0
        rows.append(
            {
                "target": target,
                "variational_s": variational_time,
                "sampling": sampling,
                "delta": delta,
                "elapsed": float("inf"),
                "accepted": 0,
                "used": 0,
            }
        )
    for _ in range(repeats):
        for row in rows:
            t0 = time.perf_counter()
            result = row["sampling"].infer(row["delta"], num_steps=steps)
            row["elapsed"] = min(row["elapsed"], time.perf_counter() - t0)
            row["accepted"] += result.accepted
            row["used"] += result.proposals_used
    for row in rows:
        per_effective = row["elapsed"] / max(row["accepted"] / repeats, 1)
        row["sampling_s"] = per_effective * EFFECTIVE_SAMPLES
        row["rho"] = row["accepted"] / row["used"]
    return rows


def _table(rows: list) -> str:
    return format_table(
        [
            "target rho", "measured rho",
            f"sampling ms/{EFFECTIVE_SAMPLES} eff.",
            f"variational ms/{EFFECTIVE_SAMPLES}",
            "winner",
        ],
        [
            [
                f"{row['target']:.2f}",
                f"{row['rho']:.3f}",
                f"{1e3 * row['sampling_s']:.2f}",
                f"{1e3 * row['variational_s']:.2f}",
                "sampling"
                if row["sampling_s"] < row["variational_s"]
                else "variational",
            ]
            for row in rows
        ],
        title="Acceptance-rate axis (paper Fig. 5b)",
    )


def _experiment() -> str:
    return _table(_measure())


def test_fig5b_acceptance(benchmark):
    emit("fig5b_tradeoff_acceptance", once(benchmark, _experiment))


def check() -> None:
    """CI smoke: the figure's shape, with margins a 1.8× slowdown of the
    machine between two rows does not close."""
    rows = _measure(samples=2000, steps=400, repeats=5)
    print(_table(rows))
    rhos = [row["rho"] for row in rows]
    costs = [row["sampling_s"] for row in rows]
    assert all(a > b for a, b in zip(rhos, rhos[1:])), (
        f"measured rho not strictly decreasing down the rows: {rhos}"
    )
    assert all(a <= b for a, b in zip(costs, costs[1:])), (
        f"sampling cost per effective sample fell as rho fell: {costs}"
    )
    assert costs[-1] >= 10 * costs[0], (
        f"sampling at rho={rhos[-1]:.3f} costs {costs[-1] / costs[0]:.1f}x "
        f"its cost at rho=1; expected >= 10x"
    )
    for row in rows:
        if row["rho"] >= 0.4:
            margin = row["variational_s"] / row["sampling_s"]
            assert margin >= 5, (
                f"sampling only {margin:.1f}x cheaper than variational at "
                f"rho={row['rho']:.3f}; expected >= 5x"
            )
    last = rows[-1]
    print(
        f"fig5b shape ok: rho {' > '.join(f'{r:.3f}' for r in rhos)}; "
        f"sampling cost x{' x'.join(f'{b / a:.1f}' for a, b in zip(costs, costs[1:]))} "
        f"row to row; at rho={rhos[-1]:.3f} variational/sampling = "
        f"{last['variational_s'] / last['sampling_s']:.2f} "
        f"(the crossover: reported, not asserted)"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="assert the figure's shape on a reduced materialization",
    )
    args = parser.parse_args()
    if args.check:
        check()
        return
    emit("fig5b_tradeoff_acceptance", _experiment())


if __name__ == "__main__":
    main()
