"""Figure 14: lesion study of inactive-variable decomposition (App. B.1).

With an interest area declared, Algorithm 2 splits the inactive
variables into independent groups; an update touching one group only
requires inference over that group's subgraph.  NoDecomposition runs the
strategy over the whole graph.

Expected shape: decomposition wins clearly on localized updates
(feature/supervision-style) and is a wash for analysis updates.
"""

import time

from _helpers import emit, once

from repro.core import VariationalMaterialization
from repro.core.decomposition import group_subgraph, plan_groups
from repro.graph import FactorGraphDelta
from repro.util.tables import format_table
from repro.workloads import synthetic_pairwise_graph

NUM_VARS = 500
NUM_ACTIVE = 12


def _experiment() -> str:
    graph = synthetic_pairwise_graph(NUM_VARS, sparsity=0.4, degree=2, seed=0)
    active = list(range(0, NUM_VARS, NUM_VARS // NUM_ACTIVE))
    groups = plan_groups(graph, active)

    # Samples are shared across variants (drawing them is the common
    # cost, §3.3); the difference is the O(n³) log-det solve: one 500-var
    # solve vs. many ~50-var solves.
    from repro.core.sampling import SampleMaterialization

    shared = SampleMaterialization(graph, seed=0)
    shared.materialize(num_samples=200, burn_in=20)

    # Decomposed materialization: a variational approximation per group.
    t0 = time.perf_counter()
    group_mats = []
    for group in groups:
        sub, local_of = group_subgraph(graph, group)
        columns = sorted(group.variables)
        mat = VariationalMaterialization(sub, lam=0.05, seed=0)
        mat.materialize(samples=shared.samples[:, columns])
        group_mats.append((group, sub, local_of, mat))
    decomposed_mat_s = time.perf_counter() - t0

    # Whole-graph variational materialization.
    t0 = time.perf_counter()
    whole = VariationalMaterialization(graph, lam=0.05, seed=0)
    whole.materialize(samples=shared.samples)
    whole_mat_s = time.perf_counter() - t0

    # A localized update: new features on variables inside ONE group.
    target_group, target_sub, target_local, target_mat = group_mats[0]
    touched = sorted(target_group.inactive)[:3]
    delta_whole = FactorGraphDelta()
    delta_local = FactorGraphDelta()
    for k, var in enumerate(touched):
        delta_whole.new_weight_entries.append((("f", k), 0.4, False))
        delta_whole.new_factors.add_bias(len(graph.weights) + k, var)
        delta_local.new_weight_entries.append((("f", k), 0.4, False))
        delta_local.new_factors.add_bias(len(target_sub.weights) + k, target_local[var])

    # Decomposed inference: only the touched group is re-inferred; the
    # other groups' materialized marginals stay valid.  Inference uses
    # the general sequential sampler (KBC graphs carry rule factors, so
    # this is the path the paper's per-update numbers exercise).
    from repro.inference.gibbs import GibbsSampler

    target_mat.apply_update(target_sub, delta_local)
    t0 = time.perf_counter()
    GibbsSampler(target_mat.current, seed=0).estimate_marginals(
        120, burn_in=15
    )
    decomposed_inf_s = time.perf_counter() - t0

    whole.apply_update(graph, delta_whole)
    t0 = time.perf_counter()
    GibbsSampler(whole.current, seed=0).estimate_marginals(120, burn_in=15)
    whole_inf_s = time.perf_counter() - t0

    rows = [
        [
            "All (decomposed)",
            len(groups),
            f"{decomposed_mat_s:.3f}",
            f"{decomposed_inf_s:.4f}",
        ],
        ["NoDecomposition", 1, f"{whole_mat_s:.3f}", f"{whole_inf_s:.4f}"],
    ]
    table = format_table(
        ["variant", "groups", "materialization s", "inference s (local update)"],
        rows,
        title="Decomposition lesion (paper Fig. 14)",
    )
    table += (
        f"\nlocal-update inference speedup: "
        f"{whole_inf_s / max(decomposed_inf_s, 1e-9):.1f}x "
        f"(only 1 of {len(groups)} groups touched)"
    )
    return table


def test_fig14_decomposition(benchmark):
    emit("fig14_decomposition", once(benchmark, _experiment))
