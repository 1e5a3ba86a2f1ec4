"""Tests for the KBC pipeline: corpus, linking, supervision, end to end."""

import numpy as np
import pytest

from repro.kbc import (
    CorpusConfig,
    KBCPipeline,
    SpamStream,
    generate_corpus,
    precision_recall_f1,
)
from repro.kbc.entity_linking import link_mentions, linking_accuracy
from repro.kbc.corpus import canonical_pair
from repro.kbc.quality import high_confidence_overlap, probability_agreement
from repro.kbc.supervision import sample_disjoint_pairs, sample_known_pairs


def small_corpus(**overrides):
    defaults = dict(num_docs=20, sentences_per_doc=2, num_entities=12, seed=3)
    defaults.update(overrides)
    return generate_corpus(CorpusConfig(**defaults))


class TestCorpus:
    def test_shape(self):
        corpus = small_corpus()
        assert len(corpus.documents) == 20
        assert all(len(d.sentences) == 2 for d in corpus.documents)
        stats = corpus.stats()
        assert stats["sentences"] == 40
        assert stats["gold_pairs"] >= 1

    def test_sentences_have_two_mentions_and_cue(self):
        corpus = small_corpus()
        for sentence in corpus.sentences():
            assert len(sentence.mentions) == 2
            assert sentence.cue == sentence.tokens[sentence.cue_position]

    def test_deterministic_given_seed(self):
        a = small_corpus(seed=7)
        b = small_corpus(seed=7)
        assert a.gold_pairs == b.gold_pairs
        assert a.documents[0].sentences[0].tokens == b.documents[0].sentences[0].tokens

    def test_noise_corrupts_tokens(self):
        clean = small_corpus(seed=1, noise_level=0.0)
        noisy = small_corpus(seed=1, noise_level=0.9)
        clean_tokens = [t for s in clean.sentences() for t in s.tokens]
        noisy_tokens = [t for s in noisy.sentences() for t in s.tokens]
        assert clean_tokens != noisy_tokens

    def test_cue_correlates_with_gold(self):
        from repro.kbc.corpus import POSITIVE_CUES

        corpus = small_corpus(num_docs=150, cue_reliability=0.9, seed=5)
        hits = total = 0
        for s in corpus.sentences():
            e1 = s.mentions[0].entity_id
            e2 = s.mentions[1].entity_id
            related = canonical_pair(e1, e2) in corpus.gold_pairs
            if related:
                total += 1
                hits += s.cue in POSITIVE_CUES
        assert total > 0
        assert hits / total > 0.75


class TestEntityLinking:
    def test_perfect_linking_without_noise(self):
        corpus = small_corpus(linking_noise=0.0)
        assert linking_accuracy(corpus) == 1.0
        rows = link_mentions(corpus)
        assert len(rows) == sum(1 for _ in corpus.all_mentions())

    def test_linking_noise_reduces_accuracy(self):
        corpus = small_corpus(num_docs=100, linking_noise=0.4, seed=2)
        assert linking_accuracy(corpus) < 0.9


class TestSupervisionSampling:
    def test_known_pairs_subset_of_gold(self):
        corpus = small_corpus()
        known = sample_known_pairs(corpus.gold_pairs, 0.5, seed=0)
        for e1, e2 in known:
            assert canonical_pair(e1, e2) in corpus.gold_pairs
        # Both orders present.
        assert any((b, a) in known for a, b in known)

    def test_disjoint_pairs_avoid_gold(self):
        corpus = small_corpus()
        disjoint = sample_disjoint_pairs(
            corpus.entities, corpus.gold_pairs, count=10, seed=0
        )
        for e1, e2 in disjoint:
            assert canonical_pair(e1, e2) not in corpus.gold_pairs


class TestQualityMetrics:
    def test_precision_recall_f1(self):
        gold = {("a", "b"), ("c", "d")}
        predicted = {("a", "b"), ("x", "y")}
        q = precision_recall_f1(predicted, gold)
        assert q["precision"] == 0.5
        assert q["recall"] == 0.5
        assert q["f1"] == 0.5

    def test_empty_prediction(self):
        q = precision_recall_f1(set(), {("a", "b")})
        assert q == {"precision": 0.0, "recall": 0.0, "f1": 0.0}

    def test_high_confidence_overlap(self):
        a = {"x": 0.95, "y": 0.99, "z": 0.5}
        b = {"x": 0.96, "y": 0.2, "z": 0.97}
        assert high_confidence_overlap(a, b) == 0.5
        assert high_confidence_overlap({}, b) == 1.0

    def test_probability_agreement(self):
        a = {"x": 0.9, "y": 0.5}
        b = {"x": 0.93, "y": 0.2}
        assert probability_agreement(a, b) == 0.5


class TestPipeline:
    @pytest.fixture(scope="class")
    def pipeline(self):
        corpus = small_corpus(num_docs=30, seed=11)
        pipeline = KBCPipeline(corpus, seed=0)
        pipeline.build_base()
        return pipeline

    def test_base_grounding(self, pipeline):
        graph = pipeline.grounder.graph
        # Two candidates (both orders) per sentence.
        assert graph.num_vars == 2 * 30 * 2
        # Distant supervision produced some positive evidence.
        assert sum(1 for v, val in graph.evidence.items() if val) > 0

    def test_snapshot_updates_apply(self, pipeline):
        for label, update in pipeline.snapshot_updates():
            result = pipeline.grounder.apply_update(**update)
            if label == "A1":
                assert result.delta.is_empty
            if label == "FE1":
                assert result.delta.adds_features
            if label in ("S1", "S2"):
                assert (
                    result.delta.changes_evidence
                    or result.delta.new_var_evidence
                    or result.delta.is_empty is False
                )

    def test_full_run_beats_prior_only(self):
        """Feature rules add recall over the supervision-only baseline.

        The base system extracts only its distantly supervised facts
        (perfect precision, low recall); the full system generalises to
        unsupervised candidates.
        """
        corpus = small_corpus(num_docs=40, seed=13)
        pipeline = KBCPipeline(corpus, seed=0)
        pipeline.build_base()
        base = pipeline.run_current(learn_epochs=0, num_samples=60)
        for _label, update in pipeline.snapshot_updates():
            pipeline.grounder.apply_update(**update)
        full = pipeline.run_current(learn_epochs=12, num_samples=80)
        assert full.quality["recall"] >= base.quality["recall"]
        assert full.quality["f1"] > 0.12

    def test_mention_marginals_exposed(self, pipeline):
        result = pipeline.run_current(learn_epochs=0, num_samples=30)
        marginals = pipeline.mention_marginals(result.graph, result.marginals)
        assert len(marginals) == result.graph.num_vars


class TestSpamStream:
    def test_shapes_and_split(self):
        stream = SpamStream(num_emails=500, seed=0)
        assert len(stream.features) == 500
        train_x, train_y, test_x, test_y = stream.split(0.3)
        assert len(train_x) == 150 and len(test_x) == 350

    def test_drift_changes_signal(self):
        """A model fit before the drift degrades after it."""
        from repro.graph import FactorGraph
        from repro.learning import SGDLearner

        stream = SpamStream(num_emails=2000, drift_point=0.5, seed=1)
        # Ex. 2.6's logistic model: one labelled variable per email, one
        # bias factor per word on that word's tied weight (id = word).
        graph = FactorGraph()
        for word in range(stream.vocabulary_size):
            graph.weights.intern(("word", word), initial=0.0)
        for words, label in zip(stream.features[:600], stream.labels[:600]):
            var = graph.add_variable(evidence=bool(label))
            for word in words:
                graph.add_bias_factor(word, var)
        SGDLearner(graph, step_size=0.2, seed=0).fit(30, record_loss=False)
        weights = graph.weights.values_array()

        def accuracy(lo, hi):
            spam = [weights[words].sum() > 0 for words in stream.features[lo:hi]]
            return float(np.mean(np.array(spam) == stream.labels[lo:hi]))

        assert accuracy(0, 600) > 0.8
        assert accuracy(1400, 2000) < accuracy(0, 600)

    def test_labels_depend_on_words(self):
        stream = SpamStream(num_emails=300, seed=2)
        assert 0.05 < stream.labels.mean() < 0.95
