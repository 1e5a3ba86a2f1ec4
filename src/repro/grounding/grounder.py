"""Full grounding: program + database → factor graph (paper §2.5, Fig. 3).

Phases, mirroring the paper's execution model:

1. **Derivation** — evaluate the deterministic rules (candidate mappings,
   feature extraction, supervision) in stratified order, recording
   derivation counts (this is what DRed's delta relations maintain).
2. **Variables** — every visible tuple of every variable relation becomes
   a Boolean random variable.
3. **Evidence** — rows of ``R_Ev`` relations clamp the matching variable.
4. **Factors** — each inference rule's body join is evaluated; bindings
   are grouped by ``(head variable, weight key)`` and each group becomes
   one rule factor whose groundings are the bodies' variable literals.

Phases 1 and 4 are joins, and every join is a compiled vectorized plan
over the database's columnar mirrors (:mod:`repro.db.plan`): a rule body
executes into one binding batch, and whole batches fold into relations
and — phase 4 — straight into factor-table columns
(:func:`ground_rule_batch`), concatenated in program order.  The
grounded graph's factor list is born lowered, so compiling it walks no
factor object; the per-factor records incremental maintenance keeps are
derived from the same columns only when asked for
(:attr:`GroundingResult.factor_records`).  What the result must equal is
defined outside the package, by the tuple-at-a-time ``reference_ground``
under ``tests/reference/``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.datalog.ast import EVIDENCE_SUFFIX, InferenceRule
from repro.datalog.program import Program
from repro.db.database import Database
from repro.db.query import Var
from repro.graph.delta import KIND_RULE, FactorList, FactorTable, rule_columns
from repro.graph.factor_graph import FactorGraph
from repro.graph.semantics import sem_code


class GroundingMultiset:
    """Counted multiset of groundings — insertion-ordered, O(1) updates.

    Factor records used to keep groundings as a plain list, making each
    retraction an O(n) ``list.remove`` scan (quadratic over a heavy
    retraction delta).  This keeps ``{grounding: count}`` (dicts preserve
    insertion order), so a batch of |Δ| retractions costs O(|Δ|).
    """

    __slots__ = ("_counts", "_total")

    def __init__(self, items=()) -> None:
        self._counts: dict = {}
        self._total = 0
        if items:
            self.extend(items)

    def append(self, grounding) -> None:
        self._counts[grounding] = self._counts.get(grounding, 0) + 1
        self._total += 1

    def extend(self, groundings) -> None:
        counts = self._counts
        added = 0
        for grounding in groundings:
            counts[grounding] = counts.get(grounding, 0) + 1
            added += 1
        self._total += added

    def remove(self, grounding) -> None:
        count = self._counts.get(grounding, 0)
        if count == 0:
            raise ValueError(f"grounding not present: {grounding!r}")
        if count == 1:
            del self._counts[grounding]
        else:
            self._counts[grounding] = count - 1
        self._total -= 1

    def counts(self) -> dict:
        """A copy of the ``{grounding: count}`` map."""
        return dict(self._counts)

    def as_tuple(self) -> tuple:
        """All groundings (with multiplicity) as a tuple."""
        counts = self._counts
        if self._total == len(counts):  # all counts 1: one C-level pass
            return tuple(counts)
        return tuple(self)

    def __len__(self) -> int:
        return self._total

    def __bool__(self) -> bool:
        return self._total > 0

    def __iter__(self):
        for grounding, count in self._counts.items():
            for _ in range(count):
                yield grounding


@dataclass
class FactorRecord:
    """Bookkeeping for one grounded factor (used incrementally).

    Derived from a full ground (:attr:`GroundingResult.factor_records`),
    ``groundings`` is a plain list of the raw literal tuples the join
    produced — a retraction removes exactly the tuple its delta join
    produces; :class:`IncrementalGrounder` promotes it to a
    :class:`GroundingMultiset` so retraction deltas stay O(|Δ|).
    """

    rule_name: str
    head_var: int
    weight_id: int
    semantics: object
    groundings: object = field(default_factory=list)
    factor_index: int = -1


@dataclass
class GroundingResult:
    """The grounded graph plus the maps incremental maintenance needs.

    ``graph.factors`` is born lowered: the canonical form
    (:meth:`~repro.graph.delta.FactorTable.canonical`) of ``raw_rules``,
    the rule columns the joins produced, in program order.
    ``factor_records`` is derived from ``raw_rules`` on first access —
    only :class:`~repro.grounding.incremental.IncrementalGrounder` asks,
    so a from-scratch (Rerun) build neither makes nor pickles a record.
    """

    graph: FactorGraph
    variable_of: dict          # (relation, tuple) -> variable id
    tuple_of: dict             # variable id -> (relation, tuple)
    raw_rules: FactorTable     # one row per factor, groundings as joined
    rule_spans: list           # (rule name, semantics, #factors) per rule

    @cached_property
    def factor_records(self) -> dict:
        """``(rule, head var, weight id) -> FactorRecord``, in factor order."""
        raw = self.raw_rules
        heads, wids = raw.rule_head.tolist(), raw.rule_wid.tolist()
        groundings = raw.rule_groundings()
        records: dict = {}
        index = 0
        for rule_name, semantics, count in self.rule_spans:
            for k in range(index, index + count):
                records[(rule_name, heads[k], wids[k])] = FactorRecord(
                    rule_name=rule_name,
                    head_var=heads[k],
                    weight_id=wids[k],
                    semantics=semantics,
                    groundings=list(groundings[k]),
                    factor_index=k,
                )
            index += count
        return records

    def variable(self, relation: str, row) -> int:
        return self.variable_of[(relation, tuple(row))]

    def compile(self):
        """Build the compiled substrate from the grounded graph's
        (born-lowered) factor table; no factor object is walked.

        The substrate owns graph state from here on (see
        ``CompiledFactorGraph.apply_delta``); bind it to an
        :class:`~repro.grounding.incremental.IncrementalGrounder` so
        updates patch it in place without materializing a graph copy.
        """
        from repro.graph.compiled import CompiledFactorGraph

        return CompiledFactorGraph(self.graph)

    def marginal_of(self, marginals, relation: str, row) -> float:
        return float(marginals[self.variable(relation, row)])


# ---------------------------------------------------------------------- #
# Batch helpers (shared by full and incremental grounding)
# ---------------------------------------------------------------------- #


def full_body_batch(db: Database, rule):
    """Canonical binding batch of a rule's full body join: the cached
    plan's batch, canonicalized (:func:`repro.db.plan.canonicalize_batch`)
    so downstream folding does not depend on the join's row order.
    """
    from repro.db.plan import canonicalize_batch

    store = db.columnar
    return canonicalize_batch(store.plan(rule.body).execute(store, db))


def signed_head_counts(db: Database, rule, batch) -> dict:
    """Fold a binding batch into ``{head tuple: signed count}``.

    UDF-free rules aggregate entirely in numpy (group-by over the head
    columns); UDF rules decode the batch once and expand per binding
    (UDFs are arbitrary Python and must see real values).
    """
    interner = db.columnar.interner
    if rule.udf is None and batch.num_rows < _BATCH_VECTOR_THRESHOLD:
        # Small batches: decode only the head columns, fold in Python.
        m = batch.num_rows
        cols = [
            interner.decode(batch.cols[arg.name])
            if isinstance(arg, Var)
            else itertools.repeat(arg, m)
            for arg in rule.head.args
        ]
        counts: dict = {}
        for row, sign in zip(zip(*cols), batch.signs.tolist()):
            counts[row] = counts.get(row, 0) + sign
        if not rule.head.args and m:  # zip(*[]) yields nothing
            counts[()] = int(batch.signs.sum())
        return {row: c for row, c in counts.items() if c != 0}
    if rule.udf is None:
        matrix = np.empty((batch.num_rows, len(rule.head.args)), dtype=np.int32)
        for i, arg in enumerate(rule.head.args):
            if isinstance(arg, Var):
                matrix[:, i] = batch.cols[arg.name]
            else:
                matrix[:, i] = interner.intern(arg)
        from repro.db.columnar import pack_rows

        if batch.num_rows == 0:
            return {}
        keys = pack_rows(matrix)
        _, first, inverse = np.unique(
            keys, return_index=True, return_inverse=True
        )
        sums = np.rint(
            np.bincount(inverse, weights=batch.signs.astype(np.float64))
        ).astype(np.int64)
        keep = np.flatnonzero(sums)
        rows = matrix[first[keep]]
        decoded = [
            interner.decode(rows[:, i]) for i in range(rows.shape[1])
        ]
        if not decoded:
            return {(): int(sums[keep][0])} if len(keep) else {}
        return dict(zip(zip(*decoded), sums[keep].tolist()))
    decoded = {
        name: interner.decode(col) for name, col in batch.cols.items()
    }
    names = list(decoded)
    signs = batch.signs.tolist()
    counts: dict = {}
    for i in range(batch.num_rows):
        binding = {name: decoded[name][i] for name in names}
        for expanded in rule.expanded_bindings(binding):
            row = rule.head_tuple(expanded)
            counts[row] = counts.get(row, 0) + signs[i]
    return {row: c for row, c in counts.items() if c != 0}


class VariableCodeResolver:
    """Vectorized ``(variable relation, code row) → variable id`` maps.

    Built per ground / per update from ``variable_of``; per-relation maps
    (packed code bytes → id) are constructed lazily, so small updates
    whose batches take the row-at-a-time path never pay for them.
    """

    def __init__(self, interner, variable_of: dict) -> None:
        self._interner = interner
        self._variable_of = variable_of
        self._maps: dict = {}

    def _map(self, pred: str) -> dict:
        mp = self._maps.get(pred)
        if mp is None:
            from repro.db.columnar import pack_rows

            rows, vids = [], []
            for (rel, row), vid in self._variable_of.items():
                if rel == pred:
                    rows.append(row)
                    vids.append(vid)
            keys = (
                pack_rows(self._interner.encode_rows(rows)).tolist()
                if rows
                else []
            )
            mp = dict(zip(keys, vids))
            self._maps[pred] = mp
        return mp

    def _key_of(self, row: tuple):
        from repro.db.columnar import pack_row

        intern = self._interner.intern
        return pack_row([intern(v) for v in row])

    def add(self, pred: str, row: tuple, vid: int) -> None:
        """Keep an already-built map in sync with a new variable."""
        mp = self._maps.get(pred)
        if mp is not None:
            mp[self._key_of(row)] = vid

    def discard(self, pred: str, row: tuple) -> None:
        mp = self._maps.get(pred)
        if mp is not None:
            mp.pop(self._key_of(row), None)

    def resolve(
        self, rule_name: str, pred: str, matrix, is_head: bool = True
    ) -> np.ndarray:
        """Variable ids for every code row of ``matrix``.

        Missing rows raise the same errors as the row-at-a-time path:
        the "not a grounded variable" diagnosis for head atoms, a plain
        ``KeyError`` with the missing key for body literal atoms.
        """
        from repro.db.columnar import pack_rows

        mp = self._map(pred)
        keys = pack_rows(matrix).tolist()
        try:
            return np.fromiter(
                (mp[k] for k in keys), dtype=np.int64, count=len(keys)
            )
        except KeyError:
            for i, key in enumerate(keys):
                if key not in mp:
                    row = tuple(self._interner.decode(matrix[i]))
                    if not is_head:
                        raise KeyError((pred, row)) from None
                    raise KeyError(
                        f"inference rule {rule_name!r} derives head tuple "
                        f"{(pred, row)} that is not a grounded variable; "
                        "add a candidate (derivation) rule that creates it"
                    ) from None
            raise


def _atom_code_matrix(batch, interner, args) -> np.ndarray:
    """``(m, len(args))`` code matrix of an atom under a binding batch."""
    matrix = np.empty((batch.num_rows, len(args)), dtype=np.int32)
    for i, arg in enumerate(args):
        if isinstance(arg, Var):
            matrix[:, i] = batch.cols[arg.name]
        else:
            matrix[:, i] = interner.intern(arg)
    return matrix


#: Batches below this take the row-at-a-time fold (resolver maps would
#: cost more to build than they save).
_BATCH_VECTOR_THRESHOLD = 64


def _batch_rows(rule, batch, interner, variable_relations, variable_of, weights):
    """Yield each binding of a small batch as ``(head var, weight id,
    literals, sign)``, insertions before retractions (so a batch that
    both adds and removes a grounding never transiently under-runs a
    record).  The code columns decode once; ids resolve through
    ``variable_of`` and weight keys intern binding by binding."""
    decoded: dict = {}

    def column(name):
        col = decoded.get(name)
        if col is None:
            col = decoded[name] = interner.decode(batch.cols[name])
        return col

    head_cols = tuple(
        column(a.name) if isinstance(a, Var) else None for a in rule.head.args
    )
    head_args = rule.head.args
    head_pred = rule.head.pred
    tied_cols = tuple(column(v) for v in rule.weight.tied_on)
    rule_name = rule.name
    literal_atoms = []
    for pos, atom in enumerate(rule.body):
        if atom.pred not in variable_relations:
            continue
        arg_cols = tuple(
            (column(a.name), None) if isinstance(a, Var) else (None, a)
            for a in atom.args
        )
        literal_atoms.append(
            (atom.pred, arg_cols, pos not in rule.negated_positions)
        )
    signs = batch.signs.tolist()
    row_order = range(batch.num_rows)
    if any(s < 0 for s in signs) and any(s > 0 for s in signs):
        row_order = sorted(row_order, key=lambda i: signs[i] < 0)
    for i in row_order:
        head_key = (
            head_pred,
            tuple(
                col[i] if col is not None else arg
                for col, arg in zip(head_cols, head_args)
            ),
        )
        weight_key = (rule_name, tuple(col[i] for col in tied_cols))
        literals = tuple(
            (
                variable_of[
                    (
                        pred,
                        tuple(
                            col[i] if col is not None else const
                            for col, const in arg_cols
                        ),
                    )
                ],
                positive,
            )
            for pred, arg_cols, positive in literal_atoms
        )
        head_var = variable_of.get(head_key)
        if head_var is None:
            raise KeyError(
                f"inference rule {rule_name!r} derives head tuple "
                f"{head_key} that is not a grounded variable; add a "
                "candidate (derivation) rule that creates it"
            )
        weight_id = weights.intern(
            weight_key, initial=rule.weight.value, fixed=rule.weight.fixed
        )
        yield head_var, weight_id, literals, signs[i]


def _resolve_batch(rule, batch, interner, variable_relations, weights, resolver):
    """A large batch's bindings as arrays: head variable ids, weight ids,
    and one literal variable-id column per variable body atom with that
    atom's polarity.  Ids resolve through packed-code maps and weight
    keys intern once per *distinct* tied-value row, in that row order."""
    m = batch.num_rows
    # Head variable ids (vectorized resolve, same KeyError contract).
    head_vids = resolver.resolve(
        rule.name,
        rule.head.pred,
        _atom_code_matrix(batch, interner, rule.head.args),
    )
    if rule.weight.tied_on:
        tied = np.empty((m, len(rule.weight.tied_on)), dtype=np.int32)
        for i, name in enumerate(rule.weight.tied_on):
            tied[:, i] = batch.cols[name]
        from repro.db.columnar import pack_rows

        _, first, inverse = np.unique(
            pack_rows(tied), return_index=True, return_inverse=True
        )
        distinct_wids = np.empty(len(first), dtype=np.int64)
        for gi, row_i in enumerate(first.tolist()):
            key = (rule.name, tuple(interner.decode(tied[row_i])))
            distinct_wids[gi] = weights.intern(
                key, initial=rule.weight.value, fixed=rule.weight.fixed
            )
        wids = distinct_wids[inverse]
    else:
        wid = weights.intern(
            (rule.name, ()), initial=rule.weight.value, fixed=rule.weight.fixed
        )
        wids = np.full(m, wid, dtype=np.int64)
    lit_vids, positives = [], []
    for pos, atom in enumerate(rule.body):
        if atom.pred not in variable_relations:
            continue
        lit_vids.append(
            resolver.resolve(
                rule.name,
                atom.pred,
                _atom_code_matrix(batch, interner, atom.args),
                is_head=False,
            )
        )
        positives.append(pos not in rule.negated_positions)
    return head_vids, wids, lit_vids, positives


def apply_rule_binding_batch(
    rule: InferenceRule,
    batch,
    interner,
    variable_relations,
    variable_of: dict,
    weights,
    accumulator: "RuleDeltaAccumulator",
    resolver: VariableCodeResolver | None = None,
) -> None:
    """Fold one signed binding batch of an incremental update into the
    rule's ``accumulator``, one grounding (the body's variable literals)
    per binding; the net reaches the records at
    :meth:`RuleDeltaAccumulator.flush`.  Small batches go row-at-a-time
    (:func:`_batch_rows`), large ones resolve over arrays
    (:func:`_resolve_batch`) and only zip literal tuples per binding."""
    m = batch.num_rows
    if m == 0:
        return
    if m < _BATCH_VECTOR_THRESHOLD:
        for row in _batch_rows(
            rule, batch, interner, variable_relations, variable_of, weights
        ):
            accumulator.add(*row)
        return
    if resolver is None:
        resolver = VariableCodeResolver(interner, variable_of)
    head_vids, wids, lit_vids, positives = _resolve_batch(
        rule, batch, interner, variable_relations, weights, resolver
    )
    if lit_vids:
        literals = list(
            zip(
                *(
                    list(zip(vids.tolist(), itertools.repeat(positive)))
                    for vids, positive in zip(lit_vids, positives)
                )
            )
        )
    else:
        literals = [()] * m
    add = accumulator.add
    for row in zip(head_vids.tolist(), wids.tolist(), literals, batch.signs.tolist()):
        add(*row)


def ground_rule_batch(
    rule: InferenceRule,
    sem: int,
    batch,
    interner,
    variable_relations,
    variable_of: dict,
    weights,
    resolver: VariableCodeResolver | None = None,
) -> FactorTable:
    """A full ground's binding batch for ``rule`` as rule columns: one
    factor per ``(head variable, weight id)``, one grounding (the body's
    variable literals) per binding, taken as the join produced them
    (:func:`~repro.graph.delta.rule_columns`: canonicalize before the
    substrate reads them).  ``sem`` is the rule's semantics code.

    Factor order is fixed by the batch's shape:

    * under :data:`_BATCH_VECTOR_THRESHOLD` bindings, first appearance
      (weights intern binding by binding, :func:`_batch_rows`);
    * no variable body atom (a frequency rule, every grounding empty):
      the ``np.unique`` order of the raw head / tied code rows, each
      group resolved and interned once;
    * otherwise ascending ``head << 31 | weight id`` (a stable sort, so
      a factor's groundings keep batch order) — or batch order when every
      binding is its own factor.
    """
    m = batch.num_rows
    if m == 0:
        return FactorTable()
    if not bool(np.all(batch.signs > 0)):
        raise ValueError("a signed batch folds through a RuleDeltaAccumulator")
    if m < _BATCH_VECTOR_THRESHOLD:
        groups: dict = {}
        for head_var, weight_id, literals, _sign in _batch_rows(
            rule, batch, interner, variable_relations, variable_of, weights
        ):
            groups.setdefault((head_var, weight_id), []).append(literals)
        return rule_columns(
            [head for head, _ in groups],
            [wid for _, wid in groups],
            [sem] * len(groups),
            list(groups.values()),
        )
    if resolver is None:
        resolver = VariableCodeResolver(interner, variable_of)
    if not any(atom.pred in variable_relations for atom in rule.body):
        heads, wids, counts = _frequency_groups(rule, batch, interner, weights, resolver)
        return _rule_rows(
            heads, wids, sem, grounding_ri=np.repeat(np.arange(heads.shape[0]), counts)
        )
    head_vids, wids, lit_vids, positives = _resolve_batch(
        rule, batch, interner, variable_relations, weights, resolver
    )
    group_codes = (head_vids << 31) | wids
    order = np.argsort(group_codes, kind="stable")
    starts = np.ones(m, dtype=bool)
    ordered = group_codes[order]
    starts[1:] = ordered[1:] != ordered[:-1]
    if starts.all():
        order = np.arange(m)
    first = order[starts]
    return _rule_rows(
        head_vids[first],
        wids[first],
        sem,
        grounding_ri=np.cumsum(starts) - 1,
        lit_gg=np.repeat(np.arange(m), len(lit_vids)),
        lit_var=np.stack(lit_vids, axis=1)[order].ravel(),
        lit_pos=np.tile(positives, m),
    )


def _rule_rows(heads, wids, sem, **groundings) -> FactorTable:
    """Rule columns for rows ``heads`` / ``wids`` of one semantics code,
    with their grounding and literal columns."""
    return FactorTable(
        kind=np.full(heads.shape[0], KIND_RULE, dtype=np.int8),
        rule_head=heads,
        rule_wid=wids,
        rule_sem=np.full(heads.shape[0], sem),
        **groundings,
    )


def _frequency_groups(rule, batch, interner, weights, resolver) -> tuple:
    """A literal-free rule's bindings grouped on their raw (head, tied)
    code rows: per group, in ``np.unique`` order, the head variable id,
    the weight id and the binding count — heads resolve and weights
    intern once per *group*."""
    from repro.db.columnar import pack_rows

    head_width = len(rule.head.args)
    matrix = np.empty(
        (batch.num_rows, head_width + len(rule.weight.tied_on)), dtype=np.int32
    )
    matrix[:, :head_width] = _atom_code_matrix(batch, interner, rule.head.args)
    for i, name in enumerate(rule.weight.tied_on):
        matrix[:, head_width + i] = batch.cols[name]
    _, first, counts = np.unique(
        pack_rows(matrix), return_index=True, return_counts=True
    )
    heads = resolver.resolve(rule.name, rule.head.pred, matrix[first][:, :head_width])
    initial, fixed = rule.weight.value, rule.weight.fixed
    if rule.weight.tied_on:
        tied_rows = matrix[first][:, head_width:]
        wids = np.fromiter(
            (
                weights.intern(
                    (rule.name, tuple(interner.decode(row))),
                    initial=initial,
                    fixed=fixed,
                )
                for row in tied_rows
            ),
            dtype=np.int64,
            count=len(first),
        )
    else:
        wid = weights.intern((rule.name, ()), initial=initial, fixed=fixed)
        wids = np.full(len(first), wid, dtype=np.int64)
    return heads, wids, counts


class RuleDeltaAccumulator:
    """Nets one rule's signed groundings across all its delta terms.

    The delta identity ``Δ(A₁⋈…⋈A_k) = Σ_i new_{<i} ⋈ Δ_i ⋈ old_{>i}``
    only guarantees non-negative grounding counts for the *sum*; an
    individual term may retract a grounding that a later term
    re-inserts.  Folding term-by-term can therefore transiently
    under-run a record; accumulating the net per
    ``(head, weight, literals)`` and flushing once — insertions before
    retractions — is always safe.
    """

    def __init__(self) -> None:
        self._net: dict = {}

    def add(self, head_var, weight_id, literals, count) -> None:
        key = (head_var, weight_id, literals)
        total = self._net.get(key, 0) + count
        if total:
            self._net[key] = total
        else:
            self._net.pop(key, None)

    def flush(self, rule_name, semantics, records, touched_keys) -> None:
        """Fold the net into ``records`` (new records start as counted
        multisets) and add every record it reaches to ``touched_keys``."""
        entries = sorted(self._net.items(), key=lambda kv: kv[1] < 0)
        self._net = {}
        for (head_var, weight_id, literals), count in entries:
            key = (rule_name, head_var, weight_id)
            record = records.get(key)
            if record is None:
                record = records[key] = FactorRecord(
                    rule_name=rule_name,
                    head_var=head_var,
                    weight_id=weight_id,
                    semantics=semantics,
                    groundings=GroundingMultiset(),
                )
            touched_keys.add(key)
            if count > 0:
                for _ in range(count):
                    record.groundings.append(literals)
            else:
                for _ in range(-count):
                    record.groundings.remove(literals)


class Grounder:
    """Grounds ``program`` over ``db`` from scratch."""

    def __init__(self, program: Program, db: Database) -> None:
        self.program = program
        self.db = db
        self._resolver: VariableCodeResolver | None = None

    # ------------------------------------------------------------------ #

    def run_derivation_rules(self) -> None:
        """Evaluate all derivation rules, accumulating derivation counts."""
        for rule in self.program.stratified_derivation_rules():
            batch = full_body_batch(self.db, rule)
            self.db.relation(rule.head.pred).bulk_insert_counts(
                signed_head_counts(self.db, rule, batch)
            )

    def create_variables(self, graph: FactorGraph) -> tuple:
        variable_of: dict = {}
        tuple_of: dict = {}
        for relation_name in sorted(self.program.variable_relations):
            names = [
                (relation_name, row)
                for row in sorted(self.db.relation(relation_name).rows())
            ]
            vids = graph.add_named_variables(names)
            variable_of.update(zip(names, vids))
            tuple_of.update(zip(vids, names))
        return variable_of, tuple_of

    def apply_evidence(self, graph: FactorGraph, variable_of: dict) -> None:
        for relation_name in self.program.variable_relations:
            ev_name = relation_name + EVIDENCE_SUFFIX
            if not self.db.has_relation(ev_name):
                continue
            for row in self.db.relation(ev_name).rows():
                key = (relation_name, row[:-1])
                vid = variable_of.get(key)
                if vid is not None:
                    graph.set_evidence(vid, bool(row[-1]))

    def ground_inference_rule(
        self,
        rule: InferenceRule,
        graph: FactorGraph,
        variable_of: dict,
    ) -> FactorTable:
        """One inference rule's factors, from its full body's binding
        batch, as raw rule columns (:func:`ground_rule_batch`)."""
        return ground_rule_batch(
            rule,
            sem_code(self.program.semantics_of(rule)),
            full_body_batch(self.db, rule),
            self.db.columnar.interner,
            self.program.variable_relations,
            variable_of,
            graph.weights,
            resolver=self._resolver,
        )

    # ------------------------------------------------------------------ #

    def ground(self) -> GroundingResult:
        """Run all phases and return the grounded graph + maps."""
        self.run_derivation_rules()
        graph = FactorGraph()
        variable_of, tuple_of = self.create_variables(graph)
        self.apply_evidence(graph, variable_of)
        # One resolver for the whole ground: its per-relation packed
        # code maps are shared across every inference rule.
        self._resolver = VariableCodeResolver(
            self.db.columnar.interner, variable_of
        )
        tables, spans = [], []
        for rule in self.program.inference_rules:
            table = self.ground_inference_rule(rule, graph, variable_of)
            tables.append(table)
            spans.append((rule.name, self.program.semantics_of(rule), table.num_rules))
        self._resolver = None
        # Every id was resolved through ``variable_of`` or interned in
        # ``graph.weights``, so the columns need no validate() pass.
        raw = FactorTable.concat(tables)
        graph.factors = FactorList.from_table(raw.canonical())
        return GroundingResult(
            graph=graph,
            variable_of=variable_of,
            tuple_of=tuple_of,
            raw_rules=raw,
            rule_spans=spans,
        )
