"""Outside-in span recorder for the traced pass of the e2e benchmark.

The benchmark may not edit ``src/`` to instrument it, so the traced pass
*wraps* a fixed list of public callables (``SPAN_TARGETS``) with span
recorders, runs the workload, and puts the originals back.  End-to-end
metrics never come from a traced pass; the traced pass exists to say
where the time of an op went.

A span is ``(name, start, end, parent, op)``.  Spans nest per thread; a
span opened on another thread while an op is in flight (the service's
batcher) hangs off that op's root span, so every span of one op shares
its ``op`` id.  A span's *self time* is its duration minus the part of
that interval covered by its children (children on two threads may
overlap, so it is the union that is subtracted).

A callable that re-enters a span of the same name on the same thread
(``IncrementalGrounder.from_scratch`` calling ``Grounder.ground``) is
recorded once, as the outer call.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import threading
import time

#: ``(span name, module, attribute path)`` — the layer boundaries.
SPAN_TARGETS = (
    ("kbc.generate_corpus", "repro.kbc.corpus", "generate_corpus"),
    ("db.plan_execute", "repro.db.plan", "JoinPlan.execute"),
    ("db.relation_apply_delta", "repro.db.relation", "Relation.apply_delta"),
    ("grounding.full_ground", "repro.grounding.grounder", "Grounder.ground"),
    (
        "grounding.full_ground",
        "repro.grounding.incremental",
        "IncrementalGrounder.from_scratch",
    ),
    (
        "grounding.apply_update",
        "repro.grounding.incremental",
        "IncrementalGrounder.apply_update",
    ),
    ("graph.compile", "repro.graph.compiled", "CompiledFactorGraph.__init__"),
    ("graph.plan", "repro.graph.compiled", "CompiledFactorGraph.plan"),
    ("graph.apply_delta", "repro.graph.compiled", "CompiledFactorGraph.apply_delta"),
    ("graph.compose_deltas", "repro.graph.delta", "compose_deltas"),
    (
        "graph.snapshot_state",
        "repro.graph.compiled",
        "CompiledFactorGraph.snapshot_state",
    ),
    ("inference.gibbs_sweep", "repro.inference.gibbs", "GibbsSampler.sweep"),
    (
        "inference.gibbs_sweep",
        "repro.inference.chromatic",
        "ChromaticGibbsSampler.sweep",
    ),
    ("inference.mh_run", "repro.inference.metropolis", "IndependentMH.run"),
    ("learning.fit", "repro.learning.sgd", "SGDLearner.fit"),
    ("learning.apply_patch", "repro.learning.sgd", "SGDLearner.apply_patch"),
    (
        "core.materialize_sampling",
        "repro.core.sampling",
        "SampleMaterialization.materialize",
    ),
    (
        "core.materialize_variational",
        "repro.core.variational",
        "VariationalMaterialization.materialize",
    ),
    ("core.engine_apply_update", "repro.core.engine", "IncrementalEngine.apply_update"),
    ("core.sampling_infer", "repro.core.sampling", "SampleMaterialization.infer"),
    ("core.variational_infer", "repro.core.variational", "VariationalMaterialization.infer"),
    (
        "core.variational_splice",
        "repro.core.variational",
        "VariationalMaterialization.apply_update",
    ),
    ("core.relearn", "repro.core.engine", "IncrementalEngine.relearn"),
    (
        "reliability.pipeline_apply",
        "repro.reliability.pipeline",
        "ReliableUpdatePipeline.apply_update",
    ),
    (
        "reliability.snapshot",
        "repro.reliability.snapshots",
        "IncrementalUpdateSnapshot.__init__",
    ),
    ("reliability.snapshot", "repro.reliability.snapshots", "RelearnSnapshot.__init__"),
    ("reliability.wal_append", "repro.reliability.wal", "DeltaLog.begin"),
    ("reliability.wal_append", "repro.reliability.wal", "DeltaLog.mark"),
    ("reliability.wal_append", "repro.reliability.wal", "DeltaLog.commit"),
    ("reliability.replay_payload", "repro.reliability.pipeline", "replay_payload"),
    ("service.checkpoint", "repro.service.server", "KBService.checkpoint"),
    ("service.checkpoint_load", "repro.service.checkpoint", "CheckpointStore.load"),
    ("service.restore", "repro.service.server", "KBService.restore"),
    ("service.read", "repro.service.server", "KBService.read"),
)

#: Root spans opened by the workload drivers themselves.
ROOT_SPANS = ("driver.setup", "driver.op", "service.op")

SPAN_NAMES = tuple(dict.fromkeys([name for name, _, _ in SPAN_TARGETS])) + ROOT_SPANS


# Counters fed by the wrapped callables' arguments and results: the work
# a layer did, measured where it happens.


def _count_sweep(tracer, args, _kwargs, _result) -> None:
    sampler = args[0]
    plan = getattr(sampler, "plan", None)
    if plan is not None:
        free = len(plan.free_vars)
    else:
        free = sum(len(cls) for cls in sampler.color_classes)
    tracer.add("inference.var_updates", free)


def _count_mh(tracer, _args, _kwargs, result) -> None:
    tracer.add("inference.mh_proposals", result.proposals_used)
    tracer.add("inference.mh_accepted", result.accepted)


def _count_fit(tracer, args, kwargs, _result) -> None:
    tracer.add("learning.epochs", kwargs.get("num_epochs", args[1] if len(args) > 1 else 0))


def _count_strategy(tracer, _args, _kwargs, outcome) -> None:
    tracer.add(f"core.strategy_{outcome.strategy}_ops", 1)
    if outcome.fell_back:
        tracer.add("core.fallbacks", 1)


def _count_compaction(tracer, _args, _kwargs, patch) -> None:
    if patch.compacted:
        tracer.add("graph.compactions", 1)


_HOOKS = {
    "inference.gibbs_sweep": _count_sweep,
    "inference.mh_run": _count_mh,
    "learning.fit": _count_fit,
    "core.engine_apply_update": _count_strategy,
    "graph.apply_delta": _count_compaction,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "thread")

    def __init__(self, name, parent, op, thread):
        self.name = name
        self.start = self.end = None
        self.parent = parent
        self.op = op
        self.thread = thread


class Tracer:
    """In-memory span and counter store for one traced pass."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._local = threading.local()
        #: The open root span: spans that start on a thread with an empty
        #: stack (the batcher) are its children.
        self._root: Span | None = None
        self._patched: list = []

    # -- recording ------------------------------------------------------ #

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, op=None) -> Span | None:
        stack = self._stack()
        for open_span in stack:
            if open_span.name == name:
                return None
        parent = stack[-1] if stack else self._root
        if op is None and parent is not None:
            op = parent.op
        span = Span(name, parent, op, threading.get_ident())
        stack.append(span)
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def end(self, span: Span | None) -> None:
        if span is None:
            return
        span.end = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        stack.pop()

    @contextlib.contextmanager
    def root(self, name: str, op=None):
        """A driver-side root span: while it is open, spans that start on
        another thread (the batcher) are its children."""
        span = self._root = self.begin(name, op=op)
        try:
            yield span
        finally:
            self._root = None
            self.end(span)

    def add(self, counter: str, amount) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    # -- wrapping ------------------------------------------------------- #

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if hook is not None and span is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every callable in ``SPAN_TARGETS``.  A target that no
        longer exists raises: a renamed boundary must be renamed here,
        not silently dropped from the record."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        try:
            for name, module_name, path in SPAN_TARGETS:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                if isinstance(owner, type):
                    raw = owner.__dict__[attr]
                    if isinstance(raw, (classmethod, staticmethod)):
                        wrapped = type(raw)(self._wrap(name, raw.__func__))
                    else:
                        wrapped = self._wrap(name, raw)
                    self._patch(owner, attr, raw, wrapped)
                else:
                    # A module-level function: rebind every module that
                    # imported it by name (engine.py's compose_deltas,
                    # server.py's replay_payload, ...).
                    raw = getattr(owner, attr)
                    wrapped = self._wrap(name, raw)
                    for mod_name, mod in list(sys.modules.items()):
                        if mod is None or not mod_name.startswith(("repro", "e2e")):
                            continue
                        if mod.__dict__.get(attr) is raw:
                            self._patch(mod, attr, raw, wrapped)
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, owner, attr, raw, wrapped) -> None:
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- export --------------------------------------------------------- #

    def rows(self) -> list[dict]:
        """Spans as plain dicts with integer ids (file/JSON form)."""
        ids = {id(span): idx for idx, span in enumerate(self.spans)}
        return [
            {
                "id": ids[id(span)],
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "parent": ids[id(span.parent)] if span.parent is not None else None,
                "op": span.op,
                "thread": span.thread,
            }
            for span in self.spans
            if span.end is not None
        ]


def write_rows(rows: list[dict], path) -> None:
    """The span file: one JSON object per line."""
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def _covered(start: float, end: float, intervals: list) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    covered = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        hi = min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def self_times(rows: list[dict]) -> dict[int, float]:
    """``{span id: self seconds}`` — duration minus child coverage."""
    children: dict = {}
    for row in rows:
        if row["parent"] is not None:
            children.setdefault(row["parent"], []).append((row["start"], row["end"]))
    return {
        row["id"]: (row["end"] - row["start"])
        - _covered(row["start"], row["end"], children.get(row["id"], []))
        for row in rows
    }


def summarize(rows: list[dict], selfs: dict[int, float] | None = None) -> dict[str, dict]:
    """Per span name: ``calls``, ``total_s`` and ``self_s`` (``selfs``:
    the rows' :func:`self_times`, when the caller already has them)."""
    if selfs is None:
        selfs = self_times(rows)
    out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
    for row in rows:
        agg = out.setdefault(row["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += row["end"] - row["start"]
        agg["self_s"] += selfs[row["id"]]
    return out
