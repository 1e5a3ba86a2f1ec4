"""Grounding throughput: columnar plans, from scratch and incremental (§2.5, §3.1).

Grounding dominates end-to-end latency in the paper's development loop
(§1, Fig. 9: incremental grounding buys up to 360×).  The package grounds
through compiled vectorized plans over columnar relations and
maintains the result with fused k-term delta plans; this benchmark
tracks what that buys on a grounding-bound workload shaped like the
paper's spouse system:

* mention pairs recur across many sentences (candidate bindings ≫
  distinct tuples — derivation *counts* do real work),
* distant supervision is a selective 4-way join (big intermediates,
  few outputs),
* a frequency-style inference rule grounds many bindings per factor
  (the ``g(n)`` semantics of Eq. 1).

The baseline is ``tests/reference``'s ``reference_ground`` — from-scratch
tuple-at-a-time grounding, the one oracle the package is held to.

Axes recorded in ``benchmark_results/BENCH_grounding.json``:

* ``full_axis`` — from-scratch grounding, columnar vs the tuple-at-a-time
  reference, growing corpus (the headline speedup is the largest scale).
* ``delta_axis`` — one development-loop update at the largest scale,
  growing |Δ| (new documents): incremental update vs full reground (the
  paper's comparison).
* ``incremental_axis`` — fixed |Δ|, growing corpus: the incremental
  path's advantage over regrounding should be monotone in graph size.
* ``arity_axis`` — fixed |Δ|, growing rule body arity (k-way chain
  joins over one edge relation, so every body position changes on every
  update).  The delta of a k-atom body is k fused terms, not the 2^k−1
  of an inclusion/exclusion expansion; that is a *count*, so the axis
  records the counters that show it (``fused_terms_per_rule == k``, one
  plan compilation per rule, two view captures per update) beside the
  per-update seconds, and ``--check`` asserts them.

``--check`` runs the CI smoke contract instead: after the full ground and
after *every* incremental update, the maintained graph must agree
canonically with ``reference_ground`` of a twin database the same
updates were replayed on — on the spouse program, on the benchmark
workload and on the arity workload (incremental ≡ from-scratch and
columnar ≡ tuple-at-a-time in one comparison); on the first two, no
relation may compact and the final database's ``copy()`` must ground
from scratch to the maintained graph; the arity counters
must have the linear shape; after the full ground and after every
update, each inference rule's grounding table must hold the record fold
of the replayed twin (``fold_ground``), multiplicities included — the
canonical graph drops repeats, so this is where a multiplicity slip
shows first; and the full ground must do the record fold's work without
its objects — its factor table equal, column by column, to the
reference ``lower_factors`` of ``fold_ground``'s records (factor,
grounding and weight-intern order), with zero factor-record
constructions and zero ``FactorTable.factors()`` decodes through ground
+ compile.  Last, an agreement-shaped rule (Pharma's I1) over sparse
candidates: the full ground, its plans ordered by estimated fan-out,
must emit at most ``AGREEMENT_JOIN_ROWS`` binding rows (the static
order emits six times that), and the rule's canonical batch must equal
the static order's.  And a stream of one-document inserts must prune
fused terms (``terms_pruned`` > 0: the document's fresh sentence ids key
old-state probes), each of which, run anyway, returns no rows.  Such a
stream, run once under the shipped ``_SMALL_BATCH`` and once with it
at 0 (every batch on the vector path), must end in the same factor
table, weights, grounding tables and columnar counters, and neither run
may probe a delta source (a leading source binds its own rows).

Run: ``PYTHONPATH=src python benchmarks/bench_grounding_incremental.py
[--scale tiny|small|medium] [--check]`` from the repository root.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.datalog import Atom, Program, Var, WeightSpec
from repro.grounding import Grounder, IncrementalGrounder

from _helpers import emit_json

sys.path.insert(0, ".")  # tests/ (fixtures and the reference) is at the root
from tests.reference import reference_ground  # noqa: E402
from tests.reference import replay  # noqa: E402
from tests.reference.grounding import (  # noqa: E402
    by_name,
    fold_ground,
    fold_rows,
    table_rows,
)

SCALES = {
    "tiny": {"sentences": [60, 120], "deltas": [1, 4], "arity_edges": 200},
    "small": {
        "sentences": [150, 300, 600],
        "deltas": [1, 4, 16],
        "arity_edges": 400,
    },
    "medium": {
        "sentences": [400, 800, 1600, 3200],
        "deltas": [1, 4, 16, 64],
        "arity_edges": 600,
    },
}

#: candidate generation is quadratic in mentions per sentence (§2.5) —
#: news sentences routinely carry many person mentions.
MENTIONS_PER_SENTENCE = 8
#: mention pool ∝ sqrt(sentences), sized so a co-occurring pair recurs in
#: ~8 sentences on average — the paper's corpora mention the same entity
#: pair in many sentences (that recurrence is what weight tying and the
#: g(n) semantics aggregate over, and what derivation counts track).
POOL_FACTOR = MENTIONS_PER_SENTENCE / (8 ** 0.5)
NUM_FEATURES = 24
UPDATES_PER_POINT = 7


def build_program() -> Program:
    program = Program(default_semantics="ratio")
    program.add_relation("PersonCandidate", ("s", "m"))
    program.add_relation("EL", ("m", "e"))
    program.add_relation("Married", ("e1", "e2"))
    program.add_relation("MarriedCandidate", ("m1", "m2"))
    program.add_relation("PhraseFeature", ("m1", "m2", "f"))
    program.declare_variable_relation("MarriedMentions", ("m1", "m2"))

    program.add_derivation_rule(
        "r1",
        Atom("MarriedCandidate", (Var("m1"), Var("m2"))),
        [
            Atom("PersonCandidate", (Var("s"), Var("m1"))),
            Atom("PersonCandidate", (Var("s"), Var("m2"))),
        ],
    )
    program.add_derivation_rule(
        "vars",
        Atom("MarriedMentions", (Var("m1"), Var("m2"))),
        [Atom("MarriedCandidate", (Var("m1"), Var("m2")))],
    )
    # Distant supervision: selective 4-way join.
    program.add_derivation_rule(
        "s1",
        Atom("MarriedMentions_Ev", (Var("m1"), Var("m2"), True)),
        [
            Atom("MarriedCandidate", (Var("m1"), Var("m2"))),
            Atom("EL", (Var("m1"), Var("e1"))),
            Atom("EL", (Var("m2"), Var("e2"))),
            Atom("Married", (Var("e1"), Var("e2"))),
        ],
    )
    # Frequency classifier: one factor per pair, one grounding per
    # co-occurrence (the paper's g(n) ratio semantics does the counting).
    program.add_inference_rule(
        "fe_occ",
        Atom("MarriedMentions", (Var("m1"), Var("m2"))),
        [
            Atom("PersonCandidate", (Var("s"), Var("m1"))),
            Atom("PersonCandidate", (Var("s"), Var("m2"))),
        ],
        weight=WeightSpec(value=0.1),
    )
    # Phrase features with tied weights (§2.3).
    program.add_inference_rule(
        "fe1",
        Atom("MarriedMentions", (Var("m1"), Var("m2"))),
        [
            Atom("MarriedCandidate", (Var("m1"), Var("m2"))),
            Atom("PhraseFeature", (Var("m1"), Var("m2"), Var("f"))),
        ],
        weight=WeightSpec(tied_on=("f",)),
    )
    return program


def make_sentences(rng, num_sentences, pool_size, start=0):
    """``{sentence id: mention tuple}`` drawing mentions from one pool."""
    sentences = {}
    for si in range(start, start + num_sentences):
        mentions = rng.choice(
            pool_size, size=MENTIONS_PER_SENTENCE, replace=False
        )
        sentences[f"s{si}"] = tuple(f"m{int(m)}" for m in mentions)
    return sentences


def base_rows(rng, num_sentences, seed_pairs=True):
    pool_size = max(20, int(POOL_FACTOR * np.sqrt(num_sentences)))
    num_entities = max(10, pool_size // 3)
    sentences = make_sentences(rng, num_sentences, pool_size)
    pc_rows = [
        (sid, mention)
        for sid, mentions in sentences.items()
        for mention in mentions
    ]
    el_rows = [
        (f"m{m}", f"e{int(rng.integers(num_entities))}")
        for m in range(pool_size)
    ]
    married = {
        (f"e{int(a)}", f"e{int(b)}")
        for a, b in rng.integers(num_entities, size=(num_entities // 2, 2))
        if a != b
    }
    features = set()
    sentence_list = list(sentences.values())
    for _ in range(num_sentences):
        mentions = sentence_list[int(rng.integers(len(sentence_list)))]
        m1 = mentions[int(rng.integers(len(mentions)))]
        m2 = mentions[int(rng.integers(len(mentions)))]
        features.add((m1, m2, f"f{int(rng.integers(NUM_FEATURES))}"))
    return {
        "PersonCandidate": pc_rows,
        "EL": el_rows,
        "Married": sorted(married),
        "PhraseFeature": sorted(features),
    }, pool_size


def make_db(program: Program, rows: dict):
    db = program.create_database()
    for name, relation_rows in rows.items():
        db.insert_all(name, relation_rows)
    return db


def update_rows(rng, pool_size, num_docs, start):
    """One update: ``num_docs`` new documents (sentences) of mentions."""
    sentences = make_sentences(rng, num_docs, pool_size, start=start)
    return {
        "PersonCandidate": [
            (sid, mention)
            for sid, mentions in sentences.items()
            for mention in mentions
        ]
    }


def time_full_ground(rows: dict, ground, repeats: int = 2) -> tuple:
    """Best-of-``repeats`` from-scratch grounding (fresh db each time —
    derivation rules mutate it); ``ground(program, db)`` returns the
    factor graph."""
    best, graph = None, None
    for _ in range(repeats):
        program = build_program()
        db = make_db(program, rows)
        start = time.perf_counter()
        graph = ground(program, db)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, graph


def columnar_ground(program, db):
    return Grounder(program, db).ground().graph


def document_updates(pool_size, num_sentences, delta_docs, count) -> list:
    """``count`` updates of ``delta_docs`` new documents each."""
    rng = np.random.default_rng(99)
    return [
        {
            "inserts": update_rows(
                rng, pool_size, delta_docs, num_sentences + i * delta_docs
            )
        }
        for i in range(count)
    ]


def time_incremental(rows, pool_size, num_sentences, delta_docs):
    """Best per-update seconds for ``delta_docs``-document updates (min
    over a short run: one-sided scheduler noise on small machines)."""
    program = build_program()
    db = make_db(program, rows)
    grounder = IncrementalGrounder.from_scratch(program, db)
    seconds = []
    for update in document_updates(
        pool_size, num_sentences, delta_docs, 1 + UPDATES_PER_POINT
    ):
        start = time.perf_counter()
        grounder.apply_update(**update)
        seconds.append(time.perf_counter() - start)
    # The first update primes: it pays one-time setup (delta-plan
    # compilation, delta-position index builds, resolver code maps).
    return float(np.min(seconds[1:])), grounder


# --------------------------------------------------------------------- #
# Arity workload: k-way chain joins over a single edge relation — every
# body position changes on every update, so a rule's delta is all k of
# its fused terms (an inclusion/exclusion expansion would need 2^k−1).
# --------------------------------------------------------------------- #

ARITY_KS = (2, 3, 4, 5)
ARITY_DELTA_EDGES = 4
#: average out-degree; path counts grow ~degree^k, so keep it low
#: enough that k=5 chains stay bounded.
ARITY_DEGREE = 1.5


def build_arity_program(k: int) -> Program:
    """Hot(x0) :- Edge(x0,x1), …, Edge(x_{k-1},x_k) plus a k-ary
    derivation twin.  Candidates come from the static node set so every
    head tuple a signed delta term can transiently emit is a variable."""
    program = Program(default_semantics="ratio")
    program.add_relation("Node", ("n",))
    program.add_relation("Edge", ("a", "b"))
    program.add_relation("Reach", ("a", "b"))
    program.add_relation("HotCand", ("n",))
    program.declare_variable_relation("Hot", ("n",))
    chain = [
        Atom("Edge", (Var(f"x{i}"), Var(f"x{i + 1}"))) for i in range(k)
    ]
    program.add_derivation_rule(
        "cand", Atom("HotCand", (Var("n"),)), [Atom("Node", (Var("n"),))]
    )
    program.add_derivation_rule(
        "vars", Atom("Hot", (Var("n"),)), [Atom("HotCand", (Var("n"),))]
    )
    program.add_derivation_rule(
        "reach", Atom("Reach", (Var("x0"), Var(f"x{k}"))), list(chain)
    )
    program.add_inference_rule(
        "walk",
        Atom("Hot", (Var("x0"),)),
        list(chain),
        weight=WeightSpec(value=0.1),
    )
    return program


def arity_edges(rng, num_edges) -> tuple:
    num_nodes = max(8, int(num_edges / ARITY_DEGREE))
    edges = set()
    while len(edges) < num_edges:
        a, b = rng.integers(num_nodes, size=2)
        if a != b:
            edges.add((f"v{int(a)}", f"v{int(b)}"))
    return sorted(edges), num_nodes


def arity_updates(edges, num_nodes, count) -> list:
    """``count`` updates, each inserting a *connected chain* of fresh
    edges and (from the third on) retracting an older chain —
    correlated deltas, the shape document updates produce, so a term's
    Δᵢ really joins the changed neighbours beside it."""
    rng = np.random.default_rng(5)
    present = set(edges)
    chains: list = []
    updates = []
    for _ in range(count):
        while True:
            nodes = rng.choice(num_nodes, size=ARITY_DELTA_EDGES + 1, replace=False)
            fresh = [
                (f"v{int(nodes[i])}", f"v{int(nodes[i + 1])}")
                for i in range(ARITY_DELTA_EDGES)
            ]
            if all(edge not in present for edge in fresh):
                break
        present.update(fresh)
        chains.append(fresh)
        retract = chains.pop(0) if len(chains) > 2 else []
        present.difference_update(retract)
        update = {"inserts": {"Edge": fresh}}
        if retract:
            update["deletes"] = {"Edge": retract}
        updates.append(update)
    return updates


def arity_db(program, edges, num_nodes):
    db = program.create_database()
    db.insert_all("Node", [(f"v{i}",) for i in range(num_nodes)])
    db.insert_all("Edge", list(edges))
    return db


def time_arity_updates(k, edges, num_nodes, updates=UPDATES_PER_POINT):
    """Best per-update seconds for the k-ary chain workload, and the
    counters that give the cost its shape."""
    program = build_arity_program(k)
    db = arity_db(program, edges, num_nodes)
    grounder = IncrementalGrounder.from_scratch(program, db)
    seconds = []
    for update in arity_updates(edges, num_nodes, 1 + updates):
        start = time.perf_counter()
        grounder.apply_update(**update)
        seconds.append(time.perf_counter() - start)
    stats = db.index_stats()["columnar"]
    (walk,) = program.inference_rules
    shape = {
        "updates": 1 + updates,
        "fused_terms_per_rule": len(db.columnar.delta_plans(walk.body)),
        "delta_plan_misses": stats["delta_plan_misses"],
        "view_captures": stats["view_captures"],
    }
    # The first update primes: plan compilation + index builds.
    return float(np.min(seconds[1:])), shape


def run(scale: str) -> dict:
    cfg = SCALES[scale]
    record = {
        "scale": scale,
        "full_axis": [],
        "delta_axis": [],
        "incremental_axis": [],
        "arity_axis": [],
    }
    corpora = {}
    for num_sentences in cfg["sentences"]:
        rng = np.random.default_rng(7)
        corpora[num_sentences] = base_rows(rng, num_sentences)

    # ---- full_axis: from-scratch grounding, columnar vs the reference.
    for num_sentences in cfg["sentences"]:
        rows, _pool = corpora[num_sentences]
        columnar_s, graph = time_full_ground(rows, columnar_ground)
        reference_s, _ = time_full_ground(rows, reference_ground)
        entry = {
            "sentences": num_sentences,
            "num_vars": graph.num_vars,
            "num_factors": graph.num_factors,
            "reference_seconds": reference_s,
            "columnar_seconds": columnar_s,
            "speedup": reference_s / max(columnar_s, 1e-9),
        }
        record["full_axis"].append(entry)
        print(
            f"full_axis S={num_sentences:>5} vars={entry['num_vars']:>6} "
            f"reference={reference_s:7.3f}s columnar={columnar_s:7.3f}s "
            f"-> {entry['speedup']:.1f}x"
        )

    # ---- delta_axis: one update at the largest scale, growing |Δ|.
    largest = cfg["sentences"][-1]
    rows, pool = corpora[largest]
    full_s = record["full_axis"][-1]["columnar_seconds"]
    for delta_docs in cfg["deltas"]:
        col_s, _ = time_incremental(rows, pool, largest, delta_docs)
        entry = {
            "sentences": largest,
            "delta_docs": delta_docs,
            "columnar_incremental_seconds": col_s,
            "full_reground_seconds": full_s,
            "speedup_vs_reground": full_s / max(col_s, 1e-9),
        }
        record["delta_axis"].append(entry)
        print(
            f"delta_axis |Δ|={delta_docs:>3} docs  "
            f"update={col_s * 1e3:8.2f}ms reground={full_s * 1e3:8.1f}ms "
            f"-> {entry['speedup_vs_reground']:.0f}x vs reground"
        )

    # ---- incremental_axis: fixed |Δ|, growing corpus.  A few documents
    # per update (less timer jitter than a single one on small machines).
    fixed_delta = cfg["deltas"][1] if len(cfg["deltas"]) > 1 else cfg["deltas"][0]
    for num_sentences in cfg["sentences"]:
        rows, pool = corpora[num_sentences]
        col_s, grounder = time_incremental(
            rows, pool, num_sentences, fixed_delta
        )
        reground_s = None
        for entry in record["full_axis"]:
            if entry["sentences"] == num_sentences:
                reground_s = entry["columnar_seconds"]
        entry = {
            "sentences": num_sentences,
            "delta_docs": fixed_delta,
            "columnar_incremental_seconds": col_s,
            "full_reground_seconds": reground_s,
            "advantage": reground_s / max(col_s, 1e-9),
            "index_stats": grounder.db.index_stats(),
        }
        record["incremental_axis"].append(entry)
        print(
            f"incremental_axis S={num_sentences:>5} |Δ|={fixed_delta} "
            f"update={col_s * 1e3:8.2f}ms reground={reground_s * 1e3:8.1f}ms "
            f"-> {entry['advantage']:.0f}x"
        )

    # ---- arity_axis: fixed |Δ|, growing rule body arity.  Every body
    # position references Edge, so all k of them change: k fused terms.
    rng = np.random.default_rng(11)
    edges, num_nodes = arity_edges(rng, cfg["arity_edges"])
    for k in ARITY_KS:
        fused_s, shape = time_arity_updates(k, edges, num_nodes)
        entry = {
            "arity": k,
            "edges": cfg["arity_edges"],
            "delta_edges": ARITY_DELTA_EDGES,
            "fused_seconds": fused_s,
            **shape,
        }
        record["arity_axis"].append(entry)
        print(
            f"arity_axis k={k} |Δ|={ARITY_DELTA_EDGES} edges  "
            f"fused={fused_s * 1e3:8.2f}ms "
            f"({shape['fused_terms_per_rule']} terms/rule, "
            f"{shape['delta_plan_misses']} plan compilation, "
            f"{shape['view_captures']} captures / {shape['updates']} updates)"
        )

    record["headline_speedup_full_ground"] = record["full_axis"][-1]["speedup"]
    return record


def object_work(run) -> tuple:
    """``run()``'s result and how many factor records it built (any kind)
    and ``FactorTable.factors()`` decodes it made."""
    from repro.graph import BiasFactor, IsingFactor, RuleFactor
    from repro.graph.delta import FactorTable

    counts = {"records": 0, "decodes": 0}
    originals = [(cls, "__init__", "records") for cls in (RuleFactor, IsingFactor, BiasFactor)]
    originals.append((FactorTable, "factors", "decodes"))
    saved = [(cls, name, getattr(cls, name)) for cls, name, _ in originals]

    def counting(real, key):
        def wrapper(self, *args, **kwargs):
            counts[key] += 1
            return real(self, *args, **kwargs)

        return wrapper

    for (cls, name, key), (_, _, real) in zip(originals, saved):
        setattr(cls, name, counting(real, key))
    try:
        result = run()
    finally:
        for cls, name, real in saved:
            setattr(cls, name, real)
    return result, counts


def check_full_ground_work(rows: dict) -> dict:
    """The full ground's table ≡ the record fold's lowering, column by
    column, with no factor record built or decoded through ground +
    compile."""
    program = build_program()

    def ground_and_compile():
        grounding = Grounder(program, make_db(program, rows)).ground()
        grounding.compile()
        return grounding

    grounding, work = object_work(ground_and_compile)
    assert work == {"records": 0, "decodes": 0}, work
    graph = grounding.graph
    # ``fold_ground`` lowers its raw records with the reference
    # ``lower_factors`` (tests/reference/factors.py).
    oracle, _records = fold_ground(program, make_db(program, rows))
    expected = oracle.factor_table().columns()
    for name, column in expected.items():
        assert np.array_equal(getattr(graph.factors.table, name), column), name
    assert list(graph.weights.items()) == list(oracle.weights.items())
    return work


def reground_checked(program_factory, db_builder, updates) -> None:
    """``reground`` (incremental ≡ reference after every update), plus
    two checks on the incremental side's final database: no relation
    compacted (the columnar ``rebuilds`` counter counts compactions and
    nothing else), and its ``Database.copy()`` grounds from scratch to
    the maintained graph."""
    from tests.test_incremental_grounding import assert_equivalent, reground

    built = []

    def build(program):
        built.append((program, db_builder(program)))
        return built[-1][1]

    graph, _ = reground(program_factory, build, updates)
    program, db = built[0]  # the incremental side's
    assert db.index_stats()["columnar"]["rebuilds"] == 0, db.index_stats()
    assert_equivalent(graph, Grounder(program, db.copy()).ground().graph)


def check_grounding_tables(program_factory, db_builder, updates) -> int:
    """After the full ground and after every update, each rule's
    grounding table ≡ the record fold of a twin the same updates were
    replayed on, multiplicities included (rows compared by variable
    names and weight keys).  Returns the number of tables compared."""
    program = program_factory()
    grounder = IncrementalGrounder.from_scratch(program, db_builder(program))
    twin_program = program_factory()
    twin_db = db_builder(twin_program)
    compared = 0
    for update in [None, *updates]:
        if update is not None:
            grounder.apply_update(**update)
            replay(twin_program, twin_db, update)
        graph, records = fold_ground(twin_program, twin_db.copy())
        ours = by_name(grounder.graph, table_rows(grounder))
        assert ours == by_name(graph, fold_rows(records)), "grounding table ≠ record fold"
        compared += len(ours)
    return compared


def agreement_program() -> Program:
    """The benchmark program plus a Pharma-style agreement rule:
    candidates linking the same entity pair agree.  Probed in body
    order, its two entity links cross every pair of mentions of the
    two entities before the candidate guard filters them."""
    program = build_program()
    program.add_inference_rule(
        "agree",
        Atom("MarriedMentions", (Var("m3"), Var("m4"))),
        [
            Atom("MarriedMentions", (Var("m1"), Var("m2"))),
            Atom("EL", (Var("m1"), Var("e1"))),
            Atom("EL", (Var("m2"), Var("e2"))),
            Atom("EL", (Var("m3"), Var("e1"))),
            Atom("EL", (Var("m4"), Var("e2"))),
            Atom("MarriedCandidate", (Var("m3"), Var("m4"))),
        ],
        weight=WeightSpec(value=0.3, fixed=True),
        semantics="logical",
    )
    return program


#: Join rows the agreement smoke's full ground may emit.  Its static
#: order (most bound positions, then body order) emits 64 066; ordered
#: by estimated fan-out, the ground emits 10 557.
AGREEMENT_JOIN_ROWS = 20_000


def check_agreement_join_rows() -> dict:
    """Sparse candidates over a few entities: the full ground's plans,
    ordered by their relations' fan-out, stay under
    :data:`AGREEMENT_JOIN_ROWS`, and the agreement rule's canonical batch
    is the static order's."""
    from repro.db.plan import JoinPlan, canonicalize_batch
    from repro.grounding.grounder import full_body_batch

    rng = np.random.default_rng(3)
    num_mentions, num_entities = 80, 4
    rows = {
        "PersonCandidate": [
            (f"s{si}", f"m{int(m)}")
            for si in range(40)
            for m in rng.choice(num_mentions, size=2, replace=False)
        ],
        "EL": [
            (f"m{m}", f"e{int(rng.integers(num_entities))}")
            for m in range(num_mentions)
        ],
        "Married": [("e0", "e1")],
    }
    program = agreement_program()
    db = make_db(program, rows)
    Grounder(program, db).ground()
    stats = db.columnar.stats
    ordered = stats["join_rows"]
    assert ordered <= AGREEMENT_JOIN_ROWS, ordered
    rule = program.inference_rules[-1]
    static = canonicalize_batch(JoinPlan.compile(rule.body).execute(db.columnar, db))
    batch = full_body_batch(db, rule)
    assert np.array_equal(static.signs, batch.signs)
    for name, column in batch.cols.items():
        assert np.array_equal(static.cols[name], column), name
    return {"join_rows": ordered, "agreement_bindings": batch.num_rows}


def check_pruned_terms(rows: dict, pool: int) -> int:
    """One-document inserts prune the fused terms whose fresh ids key an
    old-state probe; each, run anyway with no floor, returns no rows.
    Returns the number pruned."""
    from repro.db.plan import JoinPlan

    program = build_program()
    grounder = IncrementalGrounder.from_scratch(program, make_db(program, rows))
    run = JoinPlan.execute
    pruned = []

    def execute(plan, store, db, sources=None):
        if plan.cannot_match(store, sources):
            floor, store.floor = store.floor, None
            try:
                pruned.append(run(plan, store, db, sources=sources).num_rows)
            finally:
                store.floor = floor
        return run(plan, store, db, sources=sources)

    JoinPlan.execute = execute
    try:
        for update in document_updates(pool, 40, 1, 4):
            grounder.apply_update(**update)
    finally:
        JoinPlan.execute = run
    stats = grounder.db.index_stats()["columnar"]
    assert stats["terms_pruned"] == len(pruned) > 0, (stats["terms_pruned"], pruned)
    assert not any(pruned), f"a pruned term matched rows: {pruned}"
    return len(pruned)


def stream_one_documents(rows: dict, pool: int, threshold: int) -> tuple:
    """A stream of one-document inserts with the row-by-row threshold
    set to ``threshold`` (0: every batch on the vector path).  Returns
    the grounder, its columnar counters and how many times a binding
    batch was probed (a leading delta source binds its rows without
    one)."""
    from repro.db import columnar
    from repro.db.columnar import ColumnarBatch

    program = build_program()
    grounder = IncrementalGrounder.from_scratch(program, make_db(program, rows))
    shipped, probe = columnar._SMALL_BATCH, ColumnarBatch.probe
    probes = []

    def counted(batch, positions, key_rows):
        probes.append(len(key_rows))
        return probe(batch, positions, key_rows)

    columnar._SMALL_BATCH, ColumnarBatch.probe = threshold, counted
    try:
        for update in document_updates(pool, 40, 1, 6):
            grounder.apply_update(**update)
    finally:
        columnar._SMALL_BATCH, ColumnarBatch.probe = shipped, probe
    return grounder, dict(grounder.db.index_stats()["columnar"]), len(probes)


def check_small_batch_paths(rows: dict, pool: int) -> dict:
    """The row-by-row paths under the shipped ``_SMALL_BATCH`` do the
    vector paths' work: a one-document stream run both ways ends in the
    same factor table, weights, grounding tables and columnar counters
    (``join_rows`` and ``terms_pruned`` included), and no delta source
    is ever probed.  Returns the shipped run's counters."""
    from repro.db import columnar
    from tests.test_incremental_grounding import assert_equivalent

    small, small_stats, small_probes = stream_one_documents(rows, pool, columnar._SMALL_BATCH)
    vector, vector_stats, vector_probes = stream_one_documents(rows, pool, 0)
    assert_equivalent(small.graph, vector.graph)
    ours, theirs = small.graph.factor_table().columns(), vector.graph.factor_table().columns()
    for name, column in ours.items():
        assert np.array_equal(column, theirs[name]), name
    assert list(small.graph.weights.items()) == list(vector.graph.weights.items())
    assert table_rows(small) == table_rows(vector), "grounding tables differ"
    assert small_stats == vector_stats, (small_stats, vector_stats)
    assert small_probes == vector_probes == 0, (small_probes, vector_probes)
    return small_stats


def check() -> None:
    """CI smoke: incremental ≡ from-scratch reference after every update,
    with no compaction and a database copy that regrounds to the same
    graph; grounding tables ≡ the record fold after every update; arity
    counters linear; full ground ≡ the record fold without its
    objects; an agreement rule's join rows bounded; one-document inserts
    prune terms that, run anyway, are empty."""
    from tests.test_grounding import spouse_db, spouse_program
    from tests.test_incremental_grounding import assert_equivalent, reground

    # 1. The paper's spouse program: full ground + three updates, each
    # step held to reference_ground of the replayed state.
    updates = [
        dict(inserts={"PhraseFeature": [("m1", "m2", "his spouse")]}),
        dict(inserts={"PersonCandidate": [("s3", "m5"), ("s3", "m6")]}),
        dict(deletes={"PhraseFeature": [("m3", "m4", "friend of")]}),
    ]
    reground_checked(spouse_program, spouse_db, updates)
    tables = check_grounding_tables(spouse_program, spouse_db, updates)

    # 2. The benchmark workload: columnar full ground ≡ reference…
    rng = np.random.default_rng(7)
    rows, pool = base_rows(rng, 40)
    _, col = time_full_ground(rows, columnar_ground, repeats=1)
    _, ref = time_full_ground(rows, reference_ground, repeats=1)
    assert_equivalent(col, ref)
    # …doing the record fold's work without its objects…
    work = check_full_ground_work(rows)
    # …and across two-document updates, after every one of them.
    streamed = document_updates(pool, 40, 2, 3)
    reground_checked(build_program, lambda program: make_db(program, rows), streamed)
    tables += check_grounding_tables(
        build_program, lambda program: make_db(program, rows), streamed
    )

    # 3. The arity workload, where every body position changes: same
    # contract, and the cost has the linear shape — k plans per rule,
    # compiled once (the two 4-ary bodies are structurally one), one
    # old-state capture (Edge) per update.
    rng = np.random.default_rng(11)
    edges, num_nodes = arity_edges(rng, 60)
    k = 4
    reground(
        lambda: build_arity_program(k),
        lambda program: arity_db(program, edges, num_nodes),
        arity_updates(edges, num_nodes, 4),
    )
    tables += check_grounding_tables(
        lambda: build_arity_program(k),
        lambda program: arity_db(program, edges, num_nodes),
        arity_updates(edges, num_nodes, 4),
    )
    _, shape = time_arity_updates(k, edges, num_nodes, updates=3)
    assert shape["fused_terms_per_rule"] == k, shape
    assert shape["delta_plan_misses"] == 1, shape
    assert shape["view_captures"] == shape["updates"], shape

    # 4. An agreement-shaped rule: the join order comes from the data.
    agreement = check_agreement_join_rows()

    # 5. One-document inserts: the terms that cannot match never run.
    pruned = check_pruned_terms(rows, pool)

    # 6. ...and the row-by-row paths their small batches take do the
    # vector paths' work, with no delta source probed.
    small = check_small_batch_paths(rows, pool)

    print(
        "grounding smoke ok: columnar-incremental ≡ tuple-at-a-time "
        "from-scratch reference after every update (spouse, benchmark and "
        f"arity workloads); grounding tables ≡ record fold after every "
        f"update ({tables} table states); arity k={k}: {shape}; "
        f"{col.num_vars} vars, {col.num_factors} factors; full ground ≡ "
        f"record fold, {work}; agreement rule ordered by fan-out: "
        f"{agreement} (≤ {AGREEMENT_JOIN_ROWS} join rows); four one-document "
        f"inserts pruned {pruned} terms, each empty when run anyway; six "
        "one-document inserts, row-by-row ≡ vector paths (graph, tables, "
        f"counters {small['join_rows']} join rows / {small['terms_pruned']} "
        "pruned), 0 delta sources probed"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=sorted(SCALES), default="small")
    parser.add_argument(
        "--check",
        action="store_true",
        help="run the incremental ≡ reference grounding smoke assertions only",
    )
    args = parser.parse_args()
    if args.check:
        check()
        return
    record = run(args.scale)
    emit_json("BENCH_grounding", record)


if __name__ == "__main__":
    main()
