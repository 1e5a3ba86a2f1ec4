"""Explore the sampling-vs-variational tradeoff space (paper §3.2.4).

Sweeps the "amount of change" axis on a synthetic pairwise graph: as the
update perturbs the distribution more, the MH acceptance rate falls and
the sampling approach needs more proposals per effective sample, while
the variational approach's cost stays flat — reproducing the crossover
of Figure 5(b).

Run:  python examples/tradeoff_explorer.py
"""

import time

from repro.core import SampleMaterialization, VariationalMaterialization
from repro.util.tables import format_table
from repro.workloads import delta_with_acceptance, synthetic_pairwise_graph


def main() -> None:
    graph = synthetic_pairwise_graph(120, sparsity=0.5, seed=0)
    print(f"synthetic graph: {graph}\n")

    sampling = SampleMaterialization(graph, seed=0)
    sampling.materialize(num_samples=3000, burn_in=50)
    variational = VariationalMaterialization(graph, lam=0.05, seed=0)
    variational.materialize(samples=sampling.samples)
    print(
        f"materialized: {sampling.samples_total} samples, approximation "
        f"with {variational.num_factors} factors "
        f"(original {graph.num_factors})\n"
    )

    rows = []
    for target in (1.0, 0.5, 0.1, 0.01):
        delta, measured = delta_with_acceptance(
            graph, sampling, target_acceptance=target, seed=3
        )
        t0 = time.perf_counter()
        result = sampling.infer(delta, num_steps=600)
        sampling_time = time.perf_counter() - t0
        per_effective = sampling_time / max(result.accepted, 1)

        fresh_variational = VariationalMaterialization(graph, lam=0.05, seed=0)
        fresh_variational.materialize(samples=sampling.samples)
        fresh_variational.apply_update(graph, delta)
        t0 = time.perf_counter()
        fresh_variational.infer(num_samples=200, burn_in=20)
        variational_time = time.perf_counter() - t0

        rows.append(
            [
                f"{target:.2f}",
                f"{result.acceptance_rate:.3f}",
                f"{1e6 * per_effective:.1f}",
                f"{variational_time:.3f}",
            ]
        )
        # Refill the bundle for the next sweep point.
        sampling.materialize(num_samples=3000, burn_in=10)

    print(
        format_table(
            [
                "target acceptance",
                "measured",
                "sampling µs/effective-sample",
                "variational s/inference",
            ],
            rows,
            title="Amount-of-change axis (cf. paper Fig. 5b)",
        )
    )


if __name__ == "__main__":
    main()
