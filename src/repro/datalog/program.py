"""The program model: schema + rules + semantics default.

A program is validated and *stratified*: derivation rules are ordered so
that every rule runs after the rules deriving its body relations.  The
paper's programs are non-recursive, and so is this implementation —
recursion raises at validation time.
"""

from __future__ import annotations

import copy
import graphlib

from repro.datalog.ast import (
    EVIDENCE_SUFFIX,
    DerivationRule,
    InferenceRule,
    WeightSpec,
)
from repro.db.database import Database
from repro.db.query import Atom, Var
from repro.graph.semantics import Semantics


class Program:
    """A DeepDive program: schema, variable relations, rules."""

    def __init__(self, default_semantics=Semantics.RATIO) -> None:
        self.schema: dict = {}
        self.variable_relations: set = set()
        self.derivation_rules: list = []
        self.inference_rules: list = []
        self.default_semantics = Semantics.coerce(default_semantics)
        self._stratified_key: tuple | None = None
        self._stratified_cache: list = []

    # ------------------------------------------------------------------ #
    # Schema
    # ------------------------------------------------------------------ #

    def add_relation(self, name: str, columns) -> None:
        if name in self.schema:
            raise ValueError(f"relation {name!r} already declared")
        self.schema[name] = tuple(columns)

    def declare_variable_relation(self, name: str, columns) -> None:
        """Declare a variable relation and its ``_Ev`` evidence relation."""
        self.add_relation(name, columns)
        self.variable_relations.add(name)
        self.add_relation(
            name + EVIDENCE_SUFFIX, tuple(columns) + ("label",)
        )

    def evidence_relation_of(self, name: str) -> str:
        return name + EVIDENCE_SUFFIX

    # ------------------------------------------------------------------ #
    # Rules
    # ------------------------------------------------------------------ #

    def add_derivation_rule(self, name, head, body, udf=None) -> DerivationRule:
        rule = DerivationRule(name=name, head=head, body=tuple(body), udf=udf)
        return self.register_derivation_rule(rule)

    def register_derivation_rule(self, rule: DerivationRule) -> DerivationRule:
        """Validate and append an already-constructed derivation rule."""
        self._check_atoms(rule.name, [rule.head, *rule.body])
        if any(r.name == rule.name for r in self.derivation_rules):
            raise ValueError(f"derivation rule {rule.name!r} already exists")
        self.derivation_rules.append(rule)
        return rule

    def add_inference_rule(
        self,
        name,
        head,
        body,
        weight: WeightSpec | None = None,
        semantics=None,
        negated_positions=(),
    ) -> InferenceRule:
        rule = InferenceRule(
            name=name,
            head=head,
            body=tuple(body),
            weight=weight if weight is not None else WeightSpec(),
            semantics=semantics,
            negated_positions=frozenset(negated_positions),
        )
        return self.register_inference_rule(rule)

    def register_inference_rule(self, rule: InferenceRule) -> InferenceRule:
        """Validate and append an already-constructed inference rule."""
        self._check_atoms(rule.name, [rule.head, *rule.body])
        if rule.head.pred not in self.variable_relations:
            raise ValueError(
                f"inference rule {rule.name!r}: head relation "
                f"{rule.head.pred!r} is not a variable relation"
            )
        if any(r.name == rule.name for r in self.inference_rules):
            raise ValueError(f"inference rule {rule.name!r} already exists")
        self.inference_rules.append(rule)
        return rule

    def remove_inference_rule(self, name: str) -> InferenceRule:
        for i, rule in enumerate(self.inference_rules):
            if rule.name == name:
                return self.inference_rules.pop(i)
        raise KeyError(f"no inference rule named {name!r}")

    def with_rule_changes(
        self, add_derivation_rules=(), add_inference_rules=(), remove_inference_rules=()
    ) -> "Program":
        """A copy of this program with an update's rule changes made:
        derivation rules registered (raising on recursion), then
        inference rules (rules or names) removed and new ones registered.
        An invalid change raises, leaving this program as it is; a valid
        one takes effect through :meth:`adopt_rules`."""
        trial = copy.copy(self)
        trial.derivation_rules = list(self.derivation_rules)
        trial.inference_rules = list(self.inference_rules)
        for rule in add_derivation_rules:
            trial.register_derivation_rule(rule)
        if add_derivation_rules:
            trial.stratified_derivation_rules()
        for rule in remove_inference_rules:
            trial.remove_inference_rule(getattr(rule, "name", rule))
        for rule in add_inference_rules:
            trial.register_inference_rule(rule)
        return trial

    def adopt_rules(self, trial: "Program") -> None:
        """Take the rules (and their stratification) of ``trial``, a
        :meth:`with_rule_changes` copy of this program."""
        self.derivation_rules = trial.derivation_rules
        self.inference_rules = trial.inference_rules
        self._stratified_key = trial._stratified_key
        self._stratified_cache = trial._stratified_cache

    def _check_atoms(self, rule_name, atoms) -> None:
        for atom in atoms:
            columns = self.schema.get(atom.pred)
            if columns is None:
                raise ValueError(
                    f"rule {rule_name!r} references undeclared relation "
                    f"{atom.pred!r}"
                )
            if len(atom.args) != len(columns):
                raise ValueError(
                    f"rule {rule_name!r}: atom {atom!r} has arity "
                    f"{len(atom.args)}, relation has {len(columns)}"
                )

    def semantics_of(self, rule: InferenceRule) -> Semantics:
        return rule.semantics if rule.semantics is not None else self.default_semantics

    # ------------------------------------------------------------------ #
    # Stratification
    # ------------------------------------------------------------------ #

    def stratified_derivation_rules(self) -> list:
        """Derivation rules in dependency order; raises on recursion.

        Memoized per rule-list identity (incremental updates call this
        every iteration); any change to ``derivation_rules`` — including
        direct reassignment — changes the key and recomputes.
        """
        key = tuple(id(rule) for rule in self.derivation_rules)
        if key == self._stratified_key:
            return list(self._stratified_cache)
        order = self._stratify()
        self._stratified_key = key
        self._stratified_cache = order
        return list(order)

    def _stratify(self) -> list:
        derives = {}
        for rule in self.derivation_rules:
            derives.setdefault(rule.head.pred, []).append(rule)
        graph: dict = {rule.name: set() for rule in self.derivation_rules}
        by_name = {rule.name: rule for rule in self.derivation_rules}
        if len(by_name) != len(self.derivation_rules):
            raise ValueError("derivation rule names must be unique")
        for rule in self.derivation_rules:
            for atom in rule.body:
                for producer in derives.get(atom.pred, []):
                    if producer.head.pred == rule.head.pred:
                        raise ValueError(
                            f"recursive derivation through {rule.head.pred!r} "
                            "is not supported"
                        )
                    graph[rule.name].add(producer.name)
        try:
            order = list(graphlib.TopologicalSorter(graph).static_order())
        except graphlib.CycleError as exc:
            raise ValueError(f"derivation rules are cyclic: {exc}") from exc
        return [by_name[name] for name in order]

    # ------------------------------------------------------------------ #
    # Database helpers
    # ------------------------------------------------------------------ #

    def create_database(self) -> Database:
        """A fresh database with every declared relation."""
        db = Database()
        for name, columns in self.schema.items():
            db.create_relation(name, columns)
        return db

    def base_relations(self) -> set:
        """Relations never derived by any rule (the EDB)."""
        derived = {rule.head.pred for rule in self.derivation_rules}
        return set(self.schema) - derived

    def __repr__(self) -> str:
        return (
            f"Program(relations={len(self.schema)}, "
            f"variable={len(self.variable_relations)}, "
            f"derivation_rules={len(self.derivation_rules)}, "
            f"inference_rules={len(self.inference_rules)})"
        )
