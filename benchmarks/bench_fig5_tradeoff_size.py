"""Figure 5(a): materialization/execution time vs. graph size.

Expected shape: strawman explodes exponentially (only feasible ≤ ~17
variables); sampling and variational scale gently, with sampling's
inference essentially size-independent per proposal.
"""

import time

# The library imports scipy where it calls it (the strawman's
# ExactInference, the pairwise ChromaticGibbsSampler); loading it here
# keeps the one-time import out of every timed row.
import scipy.sparse  # noqa: F401
import scipy.special  # noqa: F401
from _helpers import emit, once

from repro.core import SampleMaterialization, StrawmanMaterialization, VariationalMaterialization
from repro.util.tables import format_table
from repro.workloads import random_delta_factors, synthetic_pairwise_graph

SIZES = (2, 10, 17, 100, 400)
STRAWMAN_LIMIT = 17


def _experiment() -> str:
    rows = []
    for n in SIZES:
        graph = synthetic_pairwise_graph(n, sparsity=0.5, seed=0)
        delta = random_delta_factors(graph, magnitude=0.3, num_factors=max(1, n // 20), seed=1)

        if n <= STRAWMAN_LIMIT:
            t0 = time.perf_counter()
            strawman = StrawmanMaterialization(graph, seed=0)
            straw_mat = time.perf_counter() - t0
            t0 = time.perf_counter()
            strawman.infer(delta, num_sweeps=60, burn_in=10)
            straw_inf = time.perf_counter() - t0
            straw_mat_s, straw_inf_s = f"{straw_mat:.4f}", f"{straw_inf:.4f}"
        else:
            straw_mat_s = straw_inf_s = "infeasible"

        sampling = SampleMaterialization(graph, seed=0)
        t0 = time.perf_counter()
        sampling.materialize(num_samples=400, burn_in=20)
        samp_mat = time.perf_counter() - t0
        t0 = time.perf_counter()
        sampling.infer(delta, num_steps=300)
        samp_inf = time.perf_counter() - t0

        variational = VariationalMaterialization(graph, lam=0.05, seed=0)
        t0 = time.perf_counter()
        variational.materialize(samples=sampling.samples)
        var_mat = time.perf_counter() - t0
        variational.apply_update(graph, delta)
        t0 = time.perf_counter()
        variational.infer(num_samples=120, burn_in=15)
        var_inf = time.perf_counter() - t0

        rows.append(
            [
                n,
                straw_mat_s,
                samp_mat and f"{samp_mat:.4f}",
                f"{var_mat:.4f}",
                straw_inf_s,
                f"{samp_inf:.4f}",
                f"{var_inf:.4f}",
            ]
        )
    return format_table(
        [
            "vars",
            "strawman mat s", "sampling mat s", "variational mat s",
            "strawman inf s", "sampling inf s", "variational inf s",
        ],
        rows,
        title="Size of the graph axis (paper Fig. 5a)",
    )


def test_fig5a_size(benchmark):
    emit("fig5a_tradeoff_size", once(benchmark, _experiment))
