"""The four workload drivers of the e2e benchmark.

Each driver runs **one pass** of a workload in the calling process: a
timed set-up (a fixed list of named phases), a fixed, seeded list of
timed ops, a timed restore, and untimed output checks.  The op list
depends only on ``(workload, seed, sizes)``, so op *i* does bit-identical
work in every pass — which is what lets the runner fold the samples of
op *i* over passes to strip machine noise.

Load shape: closed loop, one client.  The driver submits an op, waits
until its commit is readable, then sends the next.  All engines are
serial (``n_workers=1``); WALs are files with the default
``fsync="always"``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import gc
import hashlib
import inspect
import os
import resource
import time

import numpy as np

from repro.core import EngineConfig, IncrementalEngine
from repro.graph.factor_graph import BiasFactor, IsingFactor, RuleFactor
from repro.grounding import Grounder, IncrementalGrounder
from repro.inference.gibbs import GibbsSampler
from repro.kbc import supervision
from repro.kbc.corpus import canonical_pair, generate_corpus
from repro.kbc.pipeline import KBCPipeline
from repro.learning.sgd import SGDLearner
from repro.reliability import ReliableUpdatePipeline
from repro.reliability.wal import DeltaLog
from repro.service import KBService, ServiceConfig
from repro.service.checkpoint import CheckpointStore
from repro.workloads import ALL_SYSTEMS, workload_by_name

from e2e import probe

#: Set-up phases, in order; ``setup_s`` is Σ over phases of the
#: per-phase median across passes.
PHASES = (
    "generate",
    "load",
    "ground",
    "install_rules",
    "learn",
    "materialize_sampling",
    "materialize_variational",
    "prime",
)

#: Frozen sizes.  ``full`` is what BENCHMARK.json measures; ``smoke`` is
#: the tier-1 test.  Only ``scale`` and the sample budgets were tuned (to
#: fit five passes of a workload into the benchmark contract's time
#: cap); op counts are the issue's.
SIZES = {
    "full": {
        "devloop": {"scale": 0.6, "relearn_epochs": 3},
        "stream_insert": {
            "scale": 1.5,
            "ops": 120,
            "checkpoint_every": 50,
            "variational_inference_samples": 12,
            "burn_in": 3,
        },
        "stream_mixed": {
            "scale": 1.2,
            "mix": {
                "insert": 54,
                "retract": 30,
                "known_add": 15,
                "known_del": 15,
                "insert_relearn": 6,
            },
            "checkpoint_every": 50,
            "variational_inference_samples": 12,
            "burn_in": 3,
        },
        "cold_build": {"scale": 2.5},
    },
    "smoke": {
        "devloop": {"scale": 0.05, "relearn_epochs": 1},
        "stream_insert": {
            "scale": 0.1,
            "ops": 8,
            "checkpoint_every": 3,
            "variational_inference_samples": 5,
            "burn_in": 2,
        },
        "stream_mixed": {
            "scale": 0.2,
            "mix": {
                "insert": 5,
                "retract": 3,
                "known_add": 1,
                "known_del": 1,
                "insert_relearn": 2,
            },
            "checkpoint_every": 5,
            "variational_inference_samples": 5,
            "burn_in": 2,
        },
        "cold_build": {"scale": 0.15},
    },
}

WORKLOADS = tuple(SIZES["full"])

#: Reference marginals: seeded Gibbs, untimed, exactly repeatable.
REFERENCE_SAMPLES = 100
REFERENCE_BURN_IN = 20

OP_TIMEOUT_S = 120.0
CORPUS_SEED = 0

#: Workloads whose ops remove factors.  The variational splice walks the
#: oracle factor list for every removed factor, so ``views_materialized
#: == 0`` (PR 9's claim for the append path) is not checked there; the
#: counter is still reported.
MATERIALIZES_VIEWS = ("stream_mixed",)


def engine_config(seed: int, sizes: dict) -> EngineConfig:
    return EngineConfig(
        materialization_samples=400,
        inference_steps=60,
        inference_samples=60,
        variational_inference_samples=sizes.get("variational_inference_samples", 60),
        burn_in=sizes.get("burn_in", 10),
        seed=seed,
    )


# --------------------------------------------------------------------- #
# Pass log


class Timed:
    """A timed section: wall seconds, and the same in reference seconds
    (``probe.py``) from the speed probes on either side of it."""

    wall = 0.0
    ref = 0.0


class PassLog:
    """What one pass measured; ``record()`` is its JSON form.

    Every duration is kept twice: as wall seconds (``raw_*``, ``s``) and
    in reference seconds (``phases``, ``ns``, ``restores``), which is
    what the metrics are computed from."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.phases = dict.fromkeys(PHASES, 0.0)
        self.raw_phases = dict.fromkeys(PHASES, 0.0)
        self.ops: list[dict] = []
        self.restores: list[float] = []
        self.raw_restores: list[float] = []
        self.checks: dict[str, bool] = {}
        self.counters: dict[str, float] = {}
        self.final_marginals: list[np.ndarray] = []
        self.mae_terms: list[tuple[float, int]] = []
        self.peak_rss_mb = 0.0
        #: The probe that closed the previous op opens the next one.
        self._op_probe: float | None = None

    @contextlib.contextmanager
    def timed(self):
        timing = Timed()
        before = probe.probe()
        start = time.perf_counter()
        try:
            yield timing
        finally:
            timing.wall = time.perf_counter() - start
            timing.ref = probe.reference_seconds(timing.wall, before, probe.probe())

    @contextlib.contextmanager
    def setup(self):
        """The timed set-up section (one root span when traced)."""
        root = self.tracer.root("driver.setup") if self.tracer else contextlib.nullcontext()
        with root:
            yield
        gc.collect()

    @contextlib.contextmanager
    def phase(self, name: str):
        with self.timed() as timing:
            yield
        self.raw_phases[name] += timing.wall
        self.phases[name] += timing.ref

    def op(self, kind: str, fn, root: str) -> dict:
        """Run one timed op.  ``fn`` returns the op's fingerprint fields;
        an exception marks the op failed and the pass carries on.

        ``fn`` may be a generator function: every ``yield`` ends a lap,
        and laps are converted to reference seconds one by one — an op
        of a second can straddle a change of machine speed that the two
        probes around it would only average."""
        op_id = len(self.ops)
        entry = {"kind": kind, "ok": True, "s": 0.0, "ns": 0.0}
        if self._op_probe is None:
            self._op_probe = probe.probe()

        def lap(step):
            # One root span per lap, so that no probe runs inside a span.
            span = (
                self.tracer.root(root, op=op_id) if self.tracer else contextlib.nullcontext()
            )
            start = time.perf_counter()
            try:
                with span:
                    return step()
            finally:
                wall = time.perf_counter() - start
                before, self._op_probe = self._op_probe, probe.probe()
                entry["s"] += wall
                entry["ns"] += probe.reference_seconds(wall, before, self._op_probe)

        try:
            info = lap(fn)
            if inspect.isgenerator(info):
                laps = info
                try:
                    while True:
                        lap(laps.__next__)
                except StopIteration as done:
                    info = done.value
        except Exception as exc:  # noqa: BLE001 — an op fails, the pass continues
            info = {"ok": False, "error": repr(exc)}
        entry.update(info)
        self.ops.append(entry)
        return entry

    def check(self, name: str, passed: bool) -> None:
        self.checks[name] = bool(passed) and self.checks.get(name, True)

    def note_rss(self) -> None:
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def add(self, counter: str, amount) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def add_reference(self, graph, marginals, seed: int) -> None:
        """Accumulate |marginal − reference| over ``graph``'s free
        variables; the reference is a seeded Gibbs run on a detached
        copy of the final graph."""
        graph = graph.copy()
        sampler = GibbsSampler(graph, seed=seed)
        reference = sampler.estimate_marginals(REFERENCE_SAMPLES, burn_in=REFERENCE_BURN_IN)
        free = ~graph.evidence_mask()
        if free.any():
            err = np.abs(np.asarray(marginals)[free] - reference[free])
            self.mae_terms.append((float(err.sum()), int(free.sum())))

    def record(self) -> dict:
        sha = hashlib.sha256()
        for marginals in self.final_marginals:
            sha.update(np.ascontiguousarray(marginals, dtype=np.float64).tobytes())
        total_err = sum(err for err, _ in self.mae_terms)
        total_free = sum(n for _, n in self.mae_terms)
        return {
            "phases": self.phases,
            "raw_phases": self.raw_phases,
            "ops": self.ops,
            "restores": self.restores,
            "raw_restores": self.raw_restores,
            "checks": self.checks,
            "counters": self.counters,
            "marginals_sha256": sha.hexdigest(),
            "marginal_mae": total_err / total_free if total_free else None,
            "peak_rss_mb": self.peak_rss_mb,
        }


# --------------------------------------------------------------------- #
# Shared helpers


def canonical_form(graph) -> tuple:
    """Graph summary invariant to variable/factor renumbering: variable
    names, evidence by name, and the factor multiset.  Tombstoned
    variables (clamped False, no factor) are left out, so a graph
    maintained through retractions equals its from-scratch twin."""
    touched = set()
    for factor in graph.factors:
        touched.update(factor.variables())

    def name(var):
        label = graph.name_of(var)
        return label if label is not None else ("_anon", var)

    variables = set()
    evidence = {}
    for var in range(graph.num_vars):
        if var not in touched and graph.evidence_value(var) is False:
            continue
        variables.add(name(var))
        if graph.is_evidence(var):
            evidence[name(var)] = graph.evidence_value(var)
    factors: dict = {}
    for factor in graph.factors:
        key = graph.weights.key_for(factor.weight_id)
        if isinstance(factor, RuleFactor):
            groundings = tuple(
                sorted(
                    tuple(sorted((name(v), pos) for v, pos in grounding))
                    for grounding in factor.groundings
                )
            )
            sig = ("rule", key, name(factor.head), factor.semantics.value, groundings)
        elif isinstance(factor, IsingFactor):
            sig = ("ising", key, tuple(sorted(map(name, factor.variables()), key=repr)))
        elif isinstance(factor, BiasFactor):
            sig = ("bias", key, tuple(map(name, factor.variables())))
        else:
            raise TypeError(f"unknown factor type {type(factor)!r}")
        factors[sig] = factors.get(sig, 0) + 1
    return variables, evidence, factors


def delta_fingerprint(delta) -> dict:
    return {
        "dv": int(delta.num_new_vars),
        "df": len(delta.new_factors) + len(delta.removed_factor_ids),
        "de": len(delta.evidence_updates) + len(delta.new_var_evidence),
    }


def read_counters(log: PassLog, grounder, engine, pipeline) -> None:
    """Counters the layers already keep, read once after the last op."""
    columnar = grounder.db.index_stats()["columnar"]
    for key in (
        "index_builds",
        "index_merges",
        "view_captures",
        "delta_plan_misses",
        "delta_batch_builds",
    ):
        log.add(f"db.{key}", columnar[key])
    compiled = getattr(engine.current_graph, "compiled", None)
    if compiled is not None:
        log.add("graph.views_materialized", compiled.views_materialized)
        log.counters["graph.tombstone_frac"] = max(
            log.counters.get("graph.tombstone_frac", 0.0), compiled.patch_fraction()
        )
    log.add("learning.learns_warm", engine.learns_warm)
    log.add("learning.learns_cold", engine.learns_cold)
    log.add("core.samples_remaining", engine.sampling.samples_remaining)
    log.add("core.bundle_bytes", engine.sampling.storage_bits() // 8)
    log.add("reliability.retries", pipeline.retries)
    log.add("reliability.rollbacks", pipeline.rollbacks + engine.rollbacks)
    count_rules(log, grounder.program)


def count_rules(log: PassLog, program) -> None:
    log.add("datalog.rules", len(program.derivation_rules) + len(program.inference_rules))


def make_corpus(spec, scale: float, seed: int):
    """The system's corpus, its documents in a seeded order.

    The corpus itself comes from a frozen seed: the cost of a system is
    heavy-tailed in the corpus draw (Pharma's agreement rule grounds
    Σ n² factors over the n sentences that share an entity pair; one op
    took 0.9–1.5 s across ten draws), which no bound could resolve.
    ``--seed`` draws everything drawn *from* the corpus — which documents
    are the base and in which order the rest stream, the supervision
    sample, the retraction and flip picks — and seeds every sampler."""
    corpus = generate_corpus(spec.corpus_config(scale=scale, seed=CORPUS_SEED))
    order = np.random.default_rng(seed).permutation(len(corpus.documents))
    return dataclasses.replace(
        corpus, documents=tuple(corpus.documents[int(i)] for i in order)
    )


def load_base(kbc: KBCPipeline, log: PassLog) -> IncrementalGrounder:
    """``KBCPipeline.build_base`` split into its load and ground phases."""
    with log.phase("load"):
        program = kbc.build_program()
        db = program.create_database()
        for name, rows in kbc.corpus_rows().items():
            db.insert_all(name, rows)
    with log.phase("ground"):
        kbc.grounder = IncrementalGrounder.from_scratch(program, db)
    return kbc.grounder


def materialize(grounder, config: EngineConfig, log: PassLog) -> IncrementalEngine:
    """Engine construction + both materializations, split into the two
    phases by the engine's own account of the variational share."""
    with log.timed() as timing:
        engine = IncrementalEngine(grounder.graph, config)
        stats = engine.materialize()
    share = min(1.0, stats["variational_seconds"] / timing.wall)
    for name, part in (
        ("materialize_variational", share),
        ("materialize_sampling", 1.0 - share),
    ):
        log.raw_phases[name] += timing.wall * part
        log.phases[name] += timing.ref * part
    return engine


def timed_checkpoint_loads(log: PassLog, directory: str, finals: list) -> None:
    """``restore_s`` where there is no service to restart: the built
    systems are checkpointed (untimed) and the load of all of them is
    timed twice; each must come back with its pre-save marginals."""
    stores = []
    for idx, final in enumerate(finals):
        store = CheckpointStore(os.path.join(directory, f"built-{idx}"), keep=1)
        store.save({"state": final["state"], "marginals": final["marginals"]}, 1)
        stores.append(store)
    for _ in range(2):
        wall = ref = 0.0
        for store, final in zip(stores, finals):
            with log.timed() as timing:
                state, _txn = store.load()
            wall += timing.wall
            ref += timing.ref
            log.check(
                "restored_marginals_identical",
                state is not None
                and np.array_equal(state["marginals"], final["marginals"]),
            )
        log.raw_restores.append(wall)
        log.restores.append(ref)


# --------------------------------------------------------------------- #
# devloop — paper Fig. 8/9


def run_devloop(seed: int, sizes: dict, log: PassLog, workdir: str) -> list:
    """For each of the five systems: materialize once, then A1, FE1,
    FE2, I1, S1, S2 (each with a relearn) through a file-WAL pipeline."""
    stacks = []
    with log.setup():
        for spec in ALL_SYSTEMS:
            with log.phase("generate"):
                corpus = make_corpus(spec, sizes["scale"], seed)
            kbc = KBCPipeline(corpus, i1_style=spec.i1_style, seed=seed)
            grounder = load_base(kbc, log)
            engine = materialize(grounder, engine_config(seed, sizes), log)
            wal = DeltaLog(os.path.join(workdir, f"devloop-{len(stacks)}.wal"))
            stacks.append((kbc, ReliableUpdatePipeline(grounder, engine, wal=wal)))

    for kbc, pipeline in stacks:
        for label, update in kbc.snapshot_updates():

            def apply(update=update, pipeline=pipeline):
                outcome = pipeline.apply_update(
                    relearn_epochs=sizes["relearn_epochs"], **update
                )
                info = delta_fingerprint(pipeline.grounder.last_result.delta)
                info["strategy"] = outcome.strategy
                return info

            log.op(label, apply, root="driver.op")
    log.note_rss()

    finals = []
    for _kbc, pipeline in stacks:
        pipeline.wal.close()
        log.add("reliability.wal_bytes", os.path.getsize(pipeline.wal.path))
        read_counters(log, pipeline.grounder, pipeline.engine, pipeline)
        finals.append(
            {
                "grounder": pipeline.grounder,
                "engine": pipeline.engine,
                "graph": pipeline.engine.current_graph,
                "marginals": pipeline.engine.read_snapshot().marginals,
                "state": (pipeline.grounder, pipeline.engine),
            }
        )
    timed_checkpoint_loads(log, workdir, finals)
    return finals


# --------------------------------------------------------------------- #
# stream_insert / stream_mixed — KBService


def doc_rows(corpus, doc) -> dict:
    """Base-relation rows of one document (``KBCPipeline.corpus_rows``
    restricted to ``doc``)."""
    known = set(corpus.entities)
    rows = {"MentionInSentence": [], "CuePhrase": [], "SentenceContext": [], "EL": []}
    for sentence in doc.sentences:
        for mention in sentence.mentions:
            rows["MentionInSentence"].append((sentence.sentence_id, mention.mention_id))
            if mention.surface in known:
                rows["EL"].append((mention.mention_id, mention.surface))
        rows["CuePhrase"].append((sentence.sentence_id, sentence.cue))
        rows["SentenceContext"].append(
            (sentence.sentence_id, sentence.tokens[0] if sentence.tokens else "")
        )
    return rows


def insert_schedule(corpus, num_base: int, sizes: dict, seed: int) -> list:
    docs = corpus.documents[num_base : num_base + sizes["ops"]]
    return [("insert", {"inserts": doc_rows(corpus, doc)}) for doc in docs]


def mixed_schedule(corpus, num_base: int, sizes: dict, seed: int) -> list:
    """A fixed interleaving of doc inserts, retractions of a seeded-
    random live doc, ``KnownRel`` evidence flips and relearning inserts.

    The order of op kinds is the same for every seed (the cost of an op
    grows with the cumulative delta before it, so a reshuffled order is
    a different workload); the seed picks the documents and the pairs."""
    order_rng = np.random.default_rng(0)
    rng = np.random.default_rng(seed)
    known = {
        canonical_pair(*pair)
        for pair in supervision.sample_known_pairs(corpus.gold_pairs, 0.5, seed=seed)
    }
    # Gold pairs the KB does not know yet: adding one labels its
    # candidates (evidence appears), deleting it clears them again.
    pool = sorted(corpus.gold_pairs - known) or sorted(corpus.gold_pairs)
    remaining = dict(sizes["mix"])
    live = list(range(num_base))
    next_doc = num_base
    next_pair = 0
    outstanding: list = []
    schedule = []
    while any(remaining.values()):
        allowed = [
            kind
            for kind, left in remaining.items()
            if left
            and not (kind == "known_del" and not outstanding)
            and not (kind == "known_add" and len(outstanding) == len(pool))
            and not (kind == "retract" and not live)
        ]
        weights = np.array([remaining[kind] for kind in allowed], dtype=float)
        kind = allowed[int(order_rng.choice(len(allowed), p=weights / weights.sum()))]
        remaining[kind] -= 1
        if kind in ("insert", "insert_relearn"):
            payload = {"inserts": doc_rows(corpus, corpus.documents[next_doc])}
            if kind == "insert_relearn":
                payload["relearn_epochs"] = 2
            live.append(next_doc)
            next_doc += 1
        elif kind == "retract":
            doc = live.pop(int(rng.integers(len(live))))
            payload = {"deletes": doc_rows(corpus, corpus.documents[doc])}
        elif kind == "known_add":
            e1, e2 = pool[next_pair % len(pool)]
            next_pair += 1
            outstanding.append((e1, e2))
            payload = {"inserts": {"KnownRel": [(e1, e2), (e2, e1)]}}
        else:
            e1, e2 = outstanding.pop(0)
            payload = {"deletes": {"KnownRel": [(e1, e2), (e2, e1)]}}
        schedule.append((kind, payload))
    return schedule


def streamed_docs(sizes: dict) -> int:
    if "mix" in sizes:
        return sizes["mix"]["insert"] + sizes["mix"]["insert_relearn"]
    return sizes["ops"]


def run_stream(
    spec_name: str, seed: int, sizes: dict, log: PassLog, workdir: str
) -> list:
    """Base graph with all six rules installed, then one transaction per
    op through ``KBService`` (queue → batcher → WAL → checkpoints).
    With ``sizes["mix"]`` the ops are the mixed schedule and each also
    issues one stale read while its update is in flight."""
    spec = workload_by_name(spec_name)
    mixed = "mix" in sizes
    config = ServiceConfig(
        checkpoint_every=sizes["checkpoint_every"], poll_interval=0.0005
    )
    wal_path = os.path.join(workdir, "service.wal")
    checkpoint_dir = os.path.join(workdir, "checkpoints")
    with log.setup():
        with log.phase("generate"):
            corpus = make_corpus(spec, sizes["scale"], seed)
        num_base = len(corpus.documents) - streamed_docs(sizes)
        if num_base < 1:
            raise ValueError(f"scale {sizes['scale']} leaves no base documents")
        base = dataclasses.replace(corpus, documents=corpus.documents[:num_base])
        kbc = KBCPipeline(base, i1_style=spec.i1_style, seed=seed)
        grounder = load_base(kbc, log)
        with log.phase("install_rules"):
            for _label, update in kbc.snapshot_updates():
                if update:
                    grounder.apply_update(**update)
        with log.phase("learn"):
            kbc.learn_weights(grounder.graph, epochs=3)
        engine = materialize(grounder, engine_config(seed, sizes), log)
        with log.phase("prime"):
            service = KBService(
                grounder,
                engine,
                config=config,
                wal_path=wal_path,
                checkpoint_dir=checkpoint_dir,
            )
            service.prime()
            service.start()
        make_schedule = mixed_schedule if mixed else insert_schedule
        schedule = make_schedule(corpus, num_base, sizes, seed)

    steps = engine.config.inference_steps
    try:
        for kind, payload in schedule:

            def apply(payload=payload):
                failures = service.batcher.failures
                before = engine.sampling.samples_remaining
                service.submit(**payload)
                if mixed:
                    # Lag 1 (the in-flight update) is within the bound,
                    # so this read is served at once from the old snapshot.
                    service.read(max_staleness=1)
                drained = service.drain(timeout=OP_TIMEOUT_S)
                stamped = service.read(max_staleness=0)
                info = delta_fingerprint(grounder.last_result.delta)
                # Both strategies are enabled, so the answer came from
                # sampling iff it consumed its full step budget (fewer
                # means exhausted, hence the variational fallback).
                consumed = before - engine.sampling.samples_remaining
                info["strategy"] = "sampling" if consumed == steps else "variational"
                info["ok"] = (
                    drained
                    and service.batcher.failures == failures
                    and stamped.txn == service.pipeline.last_txn
                )
                return info

            wal_before = os.path.getsize(wal_path)
            log.op(kind, apply, root="service.op")
            # An op whose checkpoint truncated the log shows no growth.
            log.add("reliability.wal_bytes", max(0, os.path.getsize(wal_path) - wal_before))
        final = service.read().marginals.copy()
        status = service.status()
    finally:
        service.stop()
    log.add("service.queue_high_water", status["queue"]["high_water"])
    log.add(
        "service.checkpoint_bytes",
        sum(
            os.path.getsize(os.path.join(checkpoint_dir, name))
            for name in os.listdir(checkpoint_dir)
        ),
    )
    read_counters(log, grounder, engine, service.pipeline)

    def no_cold_start():
        raise RuntimeError("restore fell back to a cold start")

    with log.timed() as timing:
        restored = KBService.restore(
            wal_path, no_cold_start, checkpoint_dir=checkpoint_dir, config=config
        )
    log.raw_restores.append(timing.wall)
    log.restores.append(timing.ref)
    try:
        log.check(
            "restored_marginals_identical",
            np.array_equal(restored.read().marginals, final),
        )
    finally:
        restored.stop()
    log.note_rss()
    return [
        {
            "grounder": grounder,
            "engine": engine,
            "graph": engine.current_graph,
            "marginals": final,
        }
    ]


# --------------------------------------------------------------------- #
# cold_build — the Rerun path


def run_cold_build(seed: int, sizes: dict, log: PassLog, workdir: str) -> list:
    """For each system, the full six-rule program from scratch: load →
    ground → compile → learn → Gibbs → extract pairs → F1."""
    prepared = []
    with log.setup():
        for spec in ALL_SYSTEMS:
            with log.phase("generate"):
                corpus = make_corpus(spec, sizes["scale"], seed)
            with log.phase("load"):
                kbc = KBCPipeline(corpus, i1_style=spec.i1_style, seed=seed)
                program = kbc.build_program()
                rows = kbc.corpus_rows()
                for _label, update in kbc.snapshot_updates():
                    for rule in update.get("add_derivation_rules", ()):
                        program.register_derivation_rule(rule)
                    for rule in update.get("add_inference_rules", ()):
                        program.register_inference_rule(rule)
                    for name, extra in update.get("inserts", {}).items():
                        rows[name] = rows.get(name, []) + list(extra)
            prepared.append((spec, kbc, program, rows))

    finals = []
    for spec, kbc, program, rows in prepared:

        def build(kbc=kbc, program=program, rows=rows):
            # Each ``yield`` ends a lap (see ``PassLog.op``).
            db = program.create_database()
            for name, tuples in rows.items():
                db.insert_all(name, tuples)
            yield
            # ``extract_pairs`` reads EL through ``kbc.grounder.db``.
            kbc.grounder = Grounder(program, db)
            grounding = kbc.grounder.ground()
            graph = grounding.graph
            compiled = grounding.compile()
            yield
            learner = SGDLearner(
                graph,
                step_size=0.6,
                sweeps_per_epoch=1,
                samples_per_epoch=3,
                seed=seed,
                compiled=compiled,
            )
            learner.fit(3, record_loss=False)
            yield
            sampler = GibbsSampler(graph, seed=seed, compiled=compiled)
            marginals = sampler.estimate_marginals(30, burn_in=10)
            ev_vars, ev_vals = graph.evidence_arrays()
            marginals[ev_vars] = np.where(ev_vals, 1.0, 0.0)
            yield
            quality = kbc.evaluate(kbc.extract_pairs(graph, marginals))
            finals.append(
                {"graph": graph, "marginals": marginals, "state": grounding, "db": db}
            )
            return {
                "dv": graph.num_vars,
                "df": graph.num_factors,
                "de": len(graph.evidence),
                "strategy": "rerun",
                "ok": bool(np.isfinite(quality["f1"])),
            }

        log.op(spec.name, build, root="driver.op")
        count_rules(log, program)
    log.note_rss()
    for final in finals:
        columnar = final["db"].index_stats()["columnar"]
        log.add("db.index_builds", columnar["index_builds"])
    timed_checkpoint_loads(log, workdir, finals)
    return finals


RUNNERS = {
    "devloop": run_devloop,
    "stream_insert": functools.partial(run_stream, "Adversarial"),
    "stream_mixed": functools.partial(run_stream, "News"),
    "cold_build": run_cold_build,
}


# --------------------------------------------------------------------- #
# Untimed output checks


def check_outputs(
    log: PassLog, workload: str, finals: list, seed: int, reference: bool
) -> None:
    """Counted as ops by the runner: every failed check is a failed op.

    Run with the tracer uninstalled — the from-scratch ground and the
    reference sampler are not part of any layer's bill."""
    if workload not in MATERIALIZES_VIEWS:
        log.check(
            "views_materialized_zero",
            log.counters.get("graph.views_materialized", 0) == 0,
        )
    log.check("no_retries", log.counters.get("reliability.retries", 0) == 0)
    log.check("no_rollbacks", log.counters.get("reliability.rollbacks", 0) == 0)
    for final in finals:
        log.final_marginals.append(final["marginals"])
        grounder, engine = final.get("grounder"), final.get("engine")
        if grounder is not None:
            # Incremental ≡ from-scratch over the final database and
            # rule set, on the grounder's graph and the engine's.
            scratch = IncrementalGrounder.from_scratch(grounder.program, grounder.db.copy())
            expected = canonical_form(scratch.graph)
            for graph in (grounder.graph, engine.current_graph.copy()):
                log.check("graph_equals_scratch", canonical_form(graph) == expected)
        if reference:
            log.add_reference(final["graph"], final["marginals"], seed)


def run_pass(
    workload: str,
    seed: int,
    sizes: dict,
    workdir: str,
    tracer=None,
    reference: bool = False,
) -> dict:
    """One pass of ``workload``; returns the pass record (JSON-able)."""
    log = PassLog(tracer)
    if tracer is not None:
        with tracer:
            finals = RUNNERS[workload](seed, sizes, log, workdir)
    else:
        finals = RUNNERS[workload](seed, sizes, log, workdir)
    check_outputs(log, workload, finals, seed, reference)
    return log.record()
