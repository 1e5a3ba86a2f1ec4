"""Figure 6: quality (F1) and #factors vs. the regularization λ.

Expected shape: a wide "safe region" of small λ where F1 is flat, then a
quality drop once λ prunes real correlations; factor count decreases
monotonically in λ.

Run: ``PYTHONPATH=src python benchmarks/bench_fig6_regularization.py
[--check]`` (or under pytest-benchmark, which writes the table to
``benchmark_results/``).

``--check`` is the CI smoke contract.  On a reduced sweep it asserts the
figure's shape — kept pairs never increase as λ grows.  It then runs
Algorithm 1 on Pharma's grounded graph at scale 6.0 (1 800 variables)
and asserts that its tracemalloc peak stays under one ``n × n`` float64
matrix: the solve is per connected component of ``NZ``, so nothing on
the path has ``n²`` entries.
"""

import argparse
import time
import tracemalloc

from _helpers import emit, once

from repro.core import VariationalMaterialization, learn_approximation
from repro.inference.gibbs import GibbsSampler
from repro.util.stats import kl_divergence_bernoulli
from repro.util.tables import format_table
from repro.workloads import build_pipeline, workload_by_name

LAMBDAS = (0.001, 0.01, 0.1, 1.0, 10.0)


def _grounded(name: str, scale: float, epochs: int = 0) -> tuple:
    """A system's pipeline and its graph after every snapshot update,
    with ``epochs`` of weight learning."""
    pipeline = build_pipeline(workload_by_name(name), scale=scale, seed=0)
    grounder = pipeline.build_base()
    for _label, update in pipeline.snapshot_updates():
        grounder.apply_update(**update)
    if epochs:
        pipeline.learn_weights(grounder.graph, epochs=epochs)
    return pipeline, grounder.graph


def _sweep(
    scale: float = 0.5, epochs: int = 10, samples: int = 300, infer_samples: int = 200
) -> list:
    """One row per λ: ``[λ, kept pairs, F1, KL vs full-graph marginals]``."""
    pipeline, graph = _grounded("news", scale, epochs)
    reference = pipeline.infer_marginals(graph, num_samples=infer_samples)
    rows = []
    for lam in LAMBDAS:
        mat = VariationalMaterialization(graph, lam=lam, seed=0)
        mat.materialize(num_samples=samples)
        marginals = mat.infer(num_samples=infer_samples, burn_in=20)
        pairs = pipeline.extract_pairs(graph, marginals, threshold=0.7)
        quality = pipeline.evaluate(pairs)
        rows.append(
            [
                lam,
                mat.approximation.kept_pairs,
                f"{quality['f1']:.3f}",
                f"{kl_divergence_bernoulli(reference, marginals):.4f}",
            ]
        )
    return rows


def _table(rows: list) -> str:
    return format_table(
        ["lambda", "approx factors", "F1", "KL vs full-graph marginals"],
        rows,
        title="Regularization sweep on News (paper Fig. 6)",
    )


def _experiment() -> str:
    return _table(_sweep())


def test_fig6_regularization(benchmark):
    emit("fig6_regularization", once(benchmark, _experiment))


def check() -> None:
    """CI smoke: Fig. 6's factor-count shape, and Algorithm 1 on a
    1 800-variable KBC graph without an ``n × n`` allocation."""
    rows = _sweep(scale=0.3, epochs=3, samples=150, infer_samples=60)
    print(_table(rows))
    kept = [row[1] for row in rows]
    assert all(a >= b for a, b in zip(kept, kept[1:])), (
        f"kept pairs increased with lambda: {kept} at {list(LAMBDAS)}"
    )
    assert kept[0] > 0, "the smallest lambda kept no pair"

    _pipeline, graph = _grounded("pharma", 6.0)
    n = graph.num_vars
    assert n >= 1500, n
    samples = GibbsSampler(graph, seed=0).sample_worlds(200, burn_in=5)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        approx = learn_approximation(graph, 0.05, samples=samples)
        seconds = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bound = n * n * 8
    assert peak < bound, (
        f"learn_approximation on {n} variables peaked at {peak / 1e6:.1f} MB "
        f"traced; one n x n float64 matrix is {bound / 1e6:.1f} MB"
    )
    print(
        f"fig6 shape ok: kept pairs {' >= '.join(map(str, kept))} over lambda "
        f"{list(LAMBDAS)}; Algorithm 1 on Pharma x6.0 (n = {n}, "
        f"{approx.candidate_pairs} candidate pairs, {approx.kept_pairs} kept): "
        f"{seconds * 1e3:.0f} ms, traced peak {peak / 1e6:.1f} MB "
        f"< n^2 * 8 B = {bound / 1e6:.1f} MB"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="assert the figure's shape on a reduced sweep, and the solve's memory bound",
    )
    args = parser.parse_args()
    if args.check:
        check()
        return
    emit("fig6_regularization", _experiment())


if __name__ == "__main__":
    main()
