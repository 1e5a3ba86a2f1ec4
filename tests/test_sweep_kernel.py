"""The sweep kernel does the reference's work, bit for bit, in fewer steps.

``tests/reference/gibbs.py`` is the kernel as it stood before ``g``
became a table lookup and a run drew its uniforms once.  Here:

* **Bit identity** — a chain swept by the package and a same-seed chain
  swept by the reference hold equal ``state`` / ``field`` / ``unsat`` /
  ``nsat`` (``==``, never ``approx``) after every run of sweeps across
  random patch histories, and *every* batched evaluation the package
  makes on the way returns the reference's floats (the ``checked_kernel``
  fixture compares inside ``delta_energy_block``), and every evaluation
  and commit agrees with the per-variable scalar oracle
  (``tests.helpers.scalar_checked``): warm spliced caches, mixed and
  uniform semantics, head-in-body rules, oversized rules, one-variable,
  solo and ``fseg_self`` blocks, ``gather_block`` blocks.
* **Draw contract** — ``run(k)`` ≡ ``k × sweep()`` ≡ ``sample_worlds``,
  under any draw-chunk size, generator left where per-sweep draws leave
  it.
* **The table** — ``g_table`` rows equal ``g_coded`` on ``0 … n_max`` and
  the table grows with the substrate's largest rule.
* **Work counts** — the number of ``Generator.random`` calls per run, no
  ``np.log1p`` inside a block evaluation, Pharma's blocks partitioning
  its free variables.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.graph.semantics as semantics_module
import repro.inference.gibbs as gibbs_module
from repro.core.sampling import SampleMaterialization
from repro.graph import FactorGraph, FactorGraphDelta, Semantics
from repro.graph.compiled import _BIG_FACTOR, CompiledFactorGraph, GibbsCache
from repro.graph.factor_graph import RuleFactor
from repro.graph.semantics import SEM_LINEAR, SEM_LOGICAL, SEM_RATIO, g_table
from repro.inference.gibbs import GibbsSampler
from repro.learning.gradient import EvidenceScorer
from repro.workloads import build_pipeline, workload_by_name

from tests.helpers import flip, mixed_case, scalar_checked
from tests.reference import gibbs as reference
from tests.reference.factors import lower_factors
from tests.test_scan_plan import (
    full_program_grounder,
    head_in_body_graph,
    history_delta,
    random_graph,
)


class CountingGenerator(np.random.Generator):
    """A generator that counts its ``random`` calls."""

    calls = 0

    def random(self, *args, **kwargs):
        self.calls += 1
        return super().random(*args, **kwargs)


def counting_rng(seed) -> CountingGenerator:
    return CountingGenerator(np.random.PCG64(seed))


@contextlib.contextmanager
def checked_kernel():
    """While open, every ``delta_energy_block`` call also runs the
    reference on the same cache, block and state and must return its
    floats exactly, and every evaluation and commit is held to the scalar
    oracle (:func:`tests.helpers.scalar_checked`); yields the ``Counter``
    of block shapes checked, with the evaluations under ``evaluated`` (a
    context manager, not a fixture: hypothesis runs many examples inside
    one test call)."""
    real = GibbsCache.delta_energy_block

    def checked(self, block, assignment):
        got = real(self, block, assignment)
        want = reference.delta_energy_block(self, block, assignment)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        shapes["evaluated"] += 1
        return got

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(GibbsCache, "delta_energy_block", checked)
        with scalar_checked() as shapes:
            yield shapes


def chain_pair(graph, seed, compiled=None):
    """The package's chain and the reference's, same seed, one substrate."""
    compiled = compiled if compiled is not None else CompiledFactorGraph(graph)
    return (
        GibbsSampler(graph, seed=seed, compiled=compiled),
        GibbsSampler(graph, seed=seed, compiled=compiled),
    )


def largest_colour_class(compiled) -> np.ndarray:
    colour = np.bincount(compiled._color).argmax()
    return np.flatnonzero(compiled._color == colour)


def advance(ours, theirs, sweeps: int) -> None:
    ours.run(sweeps)
    for _ in range(sweeps):
        reference.sweep(theirs)
    assert_same_chain(ours, theirs)


def assert_same_chain(ours, theirs) -> None:
    assert np.array_equal(ours.state, theirs.state)
    assert np.array_equal(ours.cache.field, theirs.cache.field)
    assert np.array_equal(ours.cache.unsat, theirs.cache.unsat)
    assert np.array_equal(ours.cache.nsat, theirs.cache.nsat)
    assert ours.sweeps_done == theirs.sweeps_done
    assert ours.rng.bit_generator.state == theirs.rng.bit_generator.state


# --------------------------------------------------------------------- #
# Bit identity
# --------------------------------------------------------------------- #


class TestBitIdentity:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        ops=st.lists(
            st.sampled_from(("add", "remove", "evidence", "append", "compact")),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_histories(self, seed, ops):
        """Warm chains across patches: spliced caches, repaired plans,
        head-in-body and oversized rules (``random_graph`` draws both),
        blocks of every size on the one kernel."""
        rng = np.random.default_rng(seed)
        with checked_kernel():
            graph = random_graph(rng, _BIG_FACTOR + 8, 30)
            compiled = CompiledFactorGraph(graph)
            ours, theirs = chain_pair(graph, seed, compiled)
            advance(ours, theirs, 3)
            for step, op in enumerate(ops):
                if op == "compact":
                    delta, threshold = FactorGraphDelta(), 0.0
                    if not compiled.has_patches:
                        continue
                else:
                    delta, threshold = history_delta(rng, compiled, op, step), 1.0
                patch = compiled.apply_delta(delta, compact_threshold=threshold)
                assert patch.compacted == (op == "compact")
                ours.apply_patch(patch)
                theirs.apply_patch(patch)
                advance(ours, theirs, 3)
                ours.cache.check_consistency(ours.state)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_mixed_case_deltas(self, seed):
        """Every kind of term a delta carries, all three semantics,
        duplicated literals (landed canonical) and empty groundings, on
        tiny graphs."""
        base, delta = mixed_case(seed)
        with checked_kernel():
            compiled = CompiledFactorGraph(base)
            ours, theirs = chain_pair(base, seed, compiled)
            advance(ours, theirs, 4)
            patch = compiled.apply_delta(delta, compact_threshold=1.0)
            ours.apply_patch(patch)
            theirs.apply_patch(patch)
            advance(ours, theirs, 4)

    @pytest.mark.parametrize(
        "semantics", list(Semantics) + [None], ids=lambda s: getattr(s, "value", "mixed")
    )
    def test_head_in_body_uniform_and_mixed_semantics(self, semantics):
        for seed in range(4):
            graph = head_in_body_graph(np.random.default_rng(seed), semantics, 40)
            compiled = CompiledFactorGraph(graph)
            assert (reference.rule_sem_uniform(compiled) is None) == (semantics is None)
            ours, theirs = chain_pair(graph, seed, compiled)
            assert any(b.fseg_self is not None for b in ours.plan.blocks)
            with checked_kernel() as shapes:
                advance(ours, theirs, 10)
            assert shapes["evaluated"] and shapes["self"] and shapes["one"]

    @pytest.mark.parametrize("size", range(1, 9))
    def test_small_blocks_equal_the_oracles(self, size):
        """A block of 1–8 variables evaluates to the reference's floats
        and to the scalar oracle's values (another summation order), and
        commits what the oracle's flips, one after the other, leave."""
        graph = head_in_body_graph(np.random.default_rng(size), None, 80)
        compiled = CompiledFactorGraph(graph)
        colour0 = largest_colour_class(compiled)[:size]
        assert colour0.size == size
        block = compiled.gather_block(colour0)
        lists = reference.IncidenceLists(compiled)
        rng = np.random.default_rng(size)
        for _ in range(10):
            state = rng.random(graph.num_vars) < 0.5
            cache = GibbsCache(compiled, state)
            batched = cache.delta_energy_block(block, state)
            assert np.array_equal(
                batched, reference.delta_energy_block(cache, block, state)
            )
            scalar = [
                reference.delta_energy(cache, lists, v, state) for v in colour0.tolist()
            ]
            assert batched == pytest.approx(scalar, rel=1e-12, abs=1e-12)
            with scalar_checked() as shapes:
                cache.commit_block(block, rng.random(size) < 0.5, state)
            assert shapes["one"] == (size == 1)

    def test_one_variable_blocks_commit_like_the_scalar_flip(self):
        """The re-clamp path: a variable committed alone, each one after
        the other, leaves what the oracle's flips leave — also for
        variables that share a factor."""
        graph = head_in_body_graph(np.random.default_rng(4), None, 40)
        compiled = CompiledFactorGraph(graph)
        rng = np.random.default_rng(4)
        state = rng.random(graph.num_vars) < 0.5
        cache = GibbsCache(compiled, state)
        with scalar_checked() as shapes:
            for var in rng.permutation(graph.num_vars).tolist():
                flip(cache, var, not state[var], state)
        assert shapes["one"] == graph.num_vars and shapes["self"]
        cache.check_consistency(state)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_gather_block_blocks_of_an_evidence_scorer(self, seed):
        """``EvidenceScorer`` evaluates a ``gather_block`` block whose
        members are not a colour class (they may share factors): a pair's
        body rows are contiguous there too."""
        rng = np.random.default_rng(seed)
        graph = random_graph(rng, 40, 35, evidence=20)
        compiled = CompiledFactorGraph(graph)
        scorer = EvidenceScorer(compiled, graph.evidence)
        sampler = GibbsSampler(graph, seed=seed, compiled=compiled)
        for step in range(3):
            sampler.run(2)
            assert np.array_equal(
                sampler.cache.delta_energy_block(scorer.block, sampler.state),
                reference.delta_energy_block(sampler.cache, scorer.block, sampler.state),
            )
            sampler.apply_patch(
                compiled.apply_delta(
                    history_delta(rng, compiled, "add", step), compact_threshold=1.0
                )
            )
            scorer = EvidenceScorer(compiled, graph.evidence)


# --------------------------------------------------------------------- #
# Draw contract
# --------------------------------------------------------------------- #


def fresh_sampler(seed=3):
    graph = random_graph(np.random.default_rng(seed), 40, 35)
    return GibbsSampler(graph, seed=seed)


class TestDrawContract:
    @pytest.mark.parametrize("chunk", [1, 7, 36, 37, 100, 1 << 16])
    def test_run_equals_sweeps_equals_sample_worlds(self, chunk, monkeypatch):
        monkeypatch.setattr(gibbs_module, "_DRAW_CHUNK", chunk)
        stepped, ran, sampled, iterated, theirs = (fresh_sampler() for _ in range(5))
        for _ in range(11):
            stepped.sweep()
            reference.sweep(theirs)
        ran.run(11)
        worlds = sampled.sample_worlds(4, thin=2, burn_in=3)
        packed = [w.copy() for w in iterated.iter_worlds(4, thin=2, burn_in=3)]
        for other in (ran, sampled, iterated, theirs):
            assert_same_chain(stepped, other)
        assert np.array_equal(worlds, np.stack(packed))
        assert np.array_equal(worlds[-1], stepped.state)

    def test_sample_worlds_rows_are_the_reference_chain_states(self):
        ours, theirs = fresh_sampler(5), fresh_sampler(5)
        worlds = ours.sample_worlds(6, thin=3, burn_in=2)
        for _ in range(2):
            reference.sweep(theirs)
        for row in worlds:
            for _ in range(3):
                reference.sweep(theirs)
            assert np.array_equal(row, theirs.state)

    def test_no_free_variable_draws_nothing(self):
        graph = FactorGraph()
        graph.add_variable(evidence=True)
        sampler = GibbsSampler(graph, seed=counting_rng(0))
        before = sampler.rng.bit_generator.state
        assert sampler.sample_worlds(3, thin=2, burn_in=1).tolist() == [[True]] * 3
        assert sampler.sweeps_done == 7
        assert sampler.rng.bit_generator.state == before

    def test_materialize_equals_per_sweep_chain(self):
        """The tuple bundle of ``materialize`` is the reference chain's
        states, packed: the known-quota loop rides the world iterator."""
        graph = random_graph(np.random.default_rng(9), 40, 35)
        bundle = SampleMaterialization(graph, seed=4)
        bundle.materialize(num_samples=12, thin=2, burn_in=5)
        theirs = GibbsSampler(graph, seed=4)
        for _ in range(5):
            reference.sweep(theirs)
        for row in bundle.samples:
            reference.sweep(theirs)
            reference.sweep(theirs)
            assert np.array_equal(row, theirs.state)


# --------------------------------------------------------------------- #
# The table
# --------------------------------------------------------------------- #


class TestGTable:
    def test_rows_equal_g_coded(self):
        n_max = 3000
        table = g_table(n_max)
        assert table.shape[0] == 3 and table.shape[1] > n_max
        assert table.dtype == np.float64 and not table.flags.writeable
        counts = np.arange(table.shape[1])
        for code in (SEM_LINEAR, SEM_RATIO, SEM_LOGICAL):
            codes = np.full(counts.shape, code, dtype=np.int8)
            assert np.array_equal(table[code], reference.g_coded(codes, counts))
            assert np.array_equal(table[code], reference.g_code_array(code, counts))
        # Position in the array does not matter (elementwise kernels):
        # short, odd-length and float-valued batches read the same bits.
        rng = np.random.default_rng(0)
        for size in (1, 2, 3, 5, 17, 33):
            n = rng.integers(0, n_max + 1, size=size)
            codes = rng.integers(0, 3, size=size).astype(np.int8)
            assert np.array_equal(
                table[codes, n], reference.g_coded(codes, n.astype(np.float64))
            )

    def test_grows_by_doubling_and_keeps_its_columns(self, monkeypatch):
        monkeypatch.setattr(semantics_module, "_G_TABLE", None)
        small = g_table(0)
        assert small.shape == (3, 64)
        assert g_table(63) is small
        grown = g_table(64)
        assert grown.shape == (3, 128)
        assert np.array_equal(grown[:, :64], small)
        assert g_table(1000).shape == (3, 1024)

    def test_a_patch_with_a_larger_rule_grows_the_table(self, monkeypatch):
        monkeypatch.setattr(semantics_module, "_G_TABLE", None)
        graph = head_in_body_graph(np.random.default_rng(1), None, 40)
        compiled = CompiledFactorGraph(graph)
        ours, theirs = chain_pair(graph, 1, compiled)
        advance(ours, theirs, 2)
        assert compiled.rule_nmax < 64
        assert semantics_module._G_TABLE.shape[1] == 64
        wid = len(compiled.weights)
        head, body = 0, np.flatnonzero(compiled._color != compiled._color[0])[:2]
        rule = RuleFactor(
            weight_id=wid,
            head=head,
            # 70 groundings over two variables: every one can be satisfied.
            groundings=tuple(
                ((int(body[k % 2]), True),) for k in range(70)
            ),
            semantics=Semantics.RATIO,
        )
        delta = FactorGraphDelta(
            new_weight_entries=[(("big",), 0.05, False)], new_factors=lower_factors([rule])
        )
        snap = compiled.snapshot_state()
        patch = compiled.apply_delta(delta, compact_threshold=1.0)
        assert not patch.compacted and compiled.rule_nmax == 70
        ours.apply_patch(patch)
        theirs.apply_patch(patch)
        for var in body.tolist():
            for chain in (ours, theirs):
                flip(chain.cache, var, True, chain.state)
        assert ours.cache.nsat[-1] == 70
        advance(ours, theirs, 3)
        assert semantics_module._G_TABLE.shape[1] == 128
        compiled.restore_state(snap)
        assert compiled.rule_nmax < 64


# --------------------------------------------------------------------- #
# Work counts
# --------------------------------------------------------------------- #


def pharma_post_s2():
    grounder = full_program_grounder(
        build_pipeline(workload_by_name("pharma"), scale=1.0, seed=0)
    )
    return grounder.graph


class TestWorkCounts:
    def test_sample_worlds_draws_once_per_chunk(self, monkeypatch):
        graph = random_graph(np.random.default_rng(2), 40, 35)
        sampler = GibbsSampler(graph, seed=counting_rng(2))
        width = sampler.plan.free_vars.size
        sweeps = 5 + 20 * 2
        sampler.rng.calls = 0
        sampler.sample_worlds(20, thin=2, burn_in=5)
        assert sampler.rng.calls == 1
        assert sampler.sweeps_done == sweeps
        # Small chunks: one draw per chunk of whole rows, never more.
        monkeypatch.setattr(gibbs_module, "_DRAW_CHUNK", 4 * width)
        sampler.rng.calls = 0
        sampler.sample_worlds(20, thin=2, burn_in=5)
        assert sampler.rng.calls == math.ceil(sweeps / 4)

    def test_materialize_draws_once_per_chunk(self):
        graph = random_graph(np.random.default_rng(2), 40, 35)
        rng = counting_rng(6)
        bundle = SampleMaterialization(graph, seed=rng)
        compiled = CompiledFactorGraph(graph)
        width = compiled.plan().free_vars.size
        rng.calls = 0
        assert bundle.materialize(num_samples=400, burn_in=20) == 400
        # One for the chain's initial assignment, the rest are sweeps.
        chunks = math.ceil(420 / (gibbs_module._DRAW_CHUNK // width))
        assert rng.calls == 1 + chunks and chunks < 4

    def test_batched_evaluation_takes_no_logarithm(self, monkeypatch):
        graph = pharma_post_s2()
        sampler = GibbsSampler(graph, seed=0)
        sampler.run(2)  # the table is as wide as it will get
        calls = []
        real = np.log1p

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "log1p", counted)
        for block in sampler.plan.blocks:
            sampler.cache.delta_energy_block(block, sampler.state)
        assert sampler.plan.blocks and not calls
        sampler.run(3)
        assert len(calls) == 1  # the run's one draw

    def test_pharma_blocks_partition_the_free_variables(self):
        compiled = CompiledFactorGraph(pharma_post_s2())
        plan = compiled.plan()
        members = np.concatenate([b.vars for b in plan.blocks])
        assert np.array_equal(np.sort(members), plan.free_vars)
        assert min(b.vars.size for b in plan.blocks) < 8
