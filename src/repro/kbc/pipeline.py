"""The end-to-end KBC pipeline (paper Fig. 1).

``KBCPipeline`` wires a synthetic corpus into a DeepDive program:

* loads documents as relational data (one sentence per row with markup,
  §2.2): mention spans, cue phrases, sentence context, entity links;
* installs the base program: candidate generation (R1), a fixed prior,
  positive distant supervision over the first half of the known KB;
* exposes the six development-iteration updates of Figure 8/9 —
  A1 (error analysis), FE1/FE2 (feature rules), I1 (inference rule),
  S1/S2 (supervision) — as :class:`IncrementalGrounder` update kwargs;
* runs learning (SGD over tied weights) and inference, and scores the
  extracted entity pairs against the gold KB.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.datalog.ast import InferenceRule, WeightSpec
from repro.datalog.program import Program
from repro.db.query import Atom, Var
from repro.graph.factor_graph import FactorGraph
from repro.grounding.incremental import IncrementalGrounder
from repro.inference.gibbs import GibbsSampler
from repro.kbc import candidates as cand
from repro.kbc import features as feat
from repro.kbc import supervision as sup
from repro.kbc.corpus import Corpus, canonical_pair
from repro.kbc.entity_linking import link_mentions
from repro.kbc.quality import precision_recall_f1
from repro.learning.sgd import SGDLearner
from repro.util.rng import as_generator

VARIABLE_RELATION = "SpouseMentions"
CANDIDATE_RELATION = "SpouseCandidate"


@dataclass
class PipelineResult:
    marginals: np.ndarray
    predicted_pairs: set
    quality: dict
    graph: FactorGraph
    details: dict = field(default_factory=dict)


class KBCPipeline:
    """Builds and evolves one KBC system over a synthetic corpus."""

    def __init__(
        self,
        corpus: Corpus,
        semantics="ratio",
        supervision_fraction: float = 0.5,
        i1_style: str = "symmetry",
        seed: int = 0,
    ) -> None:
        self.corpus = corpus
        self.semantics = semantics
        self.supervision_fraction = supervision_fraction
        self.i1_style = i1_style
        self.seed = seed
        self.rng = as_generator(seed)
        known = sup.sample_known_pairs(
            corpus.gold_pairs, supervision_fraction, seed=seed
        )
        half = len(known) // 2
        self._known_initial = known[:half]
        self._known_later = known[half:]
        self._disjoint = sup.sample_disjoint_pairs(
            corpus.entities, corpus.gold_pairs, count=len(known) or 4, seed=seed
        )
        self.grounder: IncrementalGrounder | None = None

    # ------------------------------------------------------------------ #
    # Program and data
    # ------------------------------------------------------------------ #

    def build_program(self) -> Program:
        program = Program(default_semantics=self.semantics)
        program.add_relation("MentionInSentence", ("s", "m"))
        program.add_relation("CuePhrase", ("s", "c"))
        program.add_relation("SentenceContext", ("s", "ctx"))
        program.add_relation("EL", ("m", "e"))
        program.add_relation("KnownRel", ("e1", "e2"))
        program.add_relation("DisjointRel", ("e1", "e2"))
        program.add_relation(CANDIDATE_RELATION, ("m1", "m2"))
        program.add_relation("FeatureShallow", ("m1", "m2", "f"))
        program.add_relation("FeatureDeep", ("m1", "m2", "f"))
        program.declare_variable_relation(VARIABLE_RELATION, ("m1", "m2"))

        program.register_derivation_rule(cand.candidate_rule())
        program.register_derivation_rule(cand.variable_rule())
        program.register_derivation_rule(sup.positive_supervision_rule())
        # Base prior: a weak fixed negative prior on every candidate.
        program.add_inference_rule(
            "fe0_prior",
            Atom(VARIABLE_RELATION, (Var("m1"), Var("m2"))),
            [Atom(CANDIDATE_RELATION, (Var("m1"), Var("m2")))],
            weight=WeightSpec(value=-0.5, fixed=True),
            semantics=self.semantics,
        )
        return program

    def corpus_rows(self) -> dict:
        """Base-relation rows extracted from the corpus documents."""
        mention_rows, cue_rows, context_rows = [], [], []
        for sentence in self.corpus.sentences():
            for mention in sentence.mentions:
                mention_rows.append((sentence.sentence_id, mention.mention_id))
            cue_rows.append((sentence.sentence_id, sentence.cue))
            context_rows.append(
                (sentence.sentence_id, sentence.tokens[0] if sentence.tokens else "")
            )
        return {
            "MentionInSentence": mention_rows,
            "CuePhrase": cue_rows,
            "SentenceContext": context_rows,
            "EL": link_mentions(self.corpus),
            "KnownRel": list(self._known_initial),
        }

    def build_base(self) -> IncrementalGrounder:
        """Ground the base system; stores and returns the grounder."""
        program = self.build_program()
        db = program.create_database()
        for name, rows in self.corpus_rows().items():
            db.insert_all(name, rows)
        self.grounder = IncrementalGrounder.from_scratch(program, db)
        return self.grounder

    # ------------------------------------------------------------------ #
    # The six development-iteration updates (Fig. 8)
    # ------------------------------------------------------------------ #

    def snapshot_updates(self) -> list:
        """``(label, update kwargs)`` pairs, in development order."""
        i1_rule = (
            feat.agreement_rule()
            if self.i1_style == "agreement"
            else feat.symmetry_rule()
        )
        return [
            ("A1", {}),
            (
                "FE1",
                {
                    "add_derivation_rules": [feat.shallow_feature_rule()],
                    "add_inference_rules": [
                        feat.shallow_inference_rule(semantics=self.semantics)
                    ],
                },
            ),
            (
                "FE2",
                {
                    "add_derivation_rules": [feat.deep_feature_rule()],
                    "add_inference_rules": [
                        feat.deep_inference_rule(semantics=self.semantics)
                    ],
                },
            ),
            ("I1", {"add_inference_rules": [i1_rule]}),
            ("S1", {"inserts": {"KnownRel": list(self._known_later)}}),
            (
                "S2",
                {
                    "add_derivation_rules": [sup.negative_supervision_rule()],
                    "inserts": {"DisjointRel": list(self._disjoint)},
                },
            ),
        ]

    # ------------------------------------------------------------------ #
    # Learning / inference / evaluation
    # ------------------------------------------------------------------ #

    def learn_weights(self, graph: FactorGraph, epochs: int = 10) -> None:
        """SGD over the tied feature weights (in place)."""
        learner = SGDLearner(
            graph, step_size=0.6, seed=self.rng, sweeps_per_epoch=1,
            samples_per_epoch=3,
        )
        learner.fit(epochs, record_loss=False)

    def infer_marginals(self, graph: FactorGraph, num_samples: int = 150) -> np.ndarray:
        sampler = GibbsSampler(graph, seed=self.rng)
        marginals = sampler.estimate_marginals(num_samples, burn_in=15)
        for var, value in graph.evidence.items():
            marginals[var] = 1.0 if value else 0.0
        return marginals

    def entity_of_mention(self) -> dict:
        el = {}
        if self.grounder is None:
            raise RuntimeError("build_base() first")
        for mid, eid in self.grounder.db.relation("EL").rows():
            el.setdefault(mid, eid)
        return el

    def extract_pairs(
        self, graph: FactorGraph, marginals, threshold: float = 0.7
    ) -> set:
        """High-confidence mention pairs mapped to unordered entity pairs."""
        el = self.entity_of_mention()
        pairs = set()
        for vid in range(graph.num_vars):
            name = graph.name_of(vid)
            if not name or name[0] != VARIABLE_RELATION:
                continue
            if marginals[vid] <= threshold:
                continue
            m1, m2 = name[1]
            e1, e2 = el.get(m1), el.get(m2)
            if e1 is None or e2 is None or e1 == e2:
                continue
            pairs.add(canonical_pair(e1, e2))
        return pairs

    def mention_marginals(self, graph: FactorGraph, marginals) -> dict:
        """``{(m1, m2): probability}`` over the variable relation."""
        out = {}
        for vid in range(graph.num_vars):
            name = graph.name_of(vid)
            if name and name[0] == VARIABLE_RELATION:
                out[name[1]] = float(marginals[vid])
        return out

    def evaluate(self, predicted_pairs) -> dict:
        return precision_recall_f1(predicted_pairs, self.corpus.gold_pairs)

    def run_current(
        self,
        learn_epochs: int = 10,
        num_samples: int = 150,
        threshold: float = 0.7,
    ) -> PipelineResult:
        """Learn + infer + score the grounder's current graph."""
        if self.grounder is None:
            self.build_base()
        graph = self.grounder.graph
        if learn_epochs:
            self.learn_weights(graph, epochs=learn_epochs)
        marginals = self.infer_marginals(graph, num_samples=num_samples)
        pairs = self.extract_pairs(graph, marginals, threshold=threshold)
        return PipelineResult(
            marginals=marginals,
            predicted_pairs=pairs,
            quality=self.evaluate(pairs),
            graph=graph,
            details={"num_vars": graph.num_vars, "num_factors": graph.num_factors},
        )
