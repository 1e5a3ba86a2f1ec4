"""End-to-end KBC: corpus → candidates → features → supervision → KB.

The paper's corpora (1.8M news articles, paleontology journals, ads,
biomedical text) are unavailable; :mod:`repro.kbc.corpus` synthesises
documents with entity mentions, relation-bearing cue phrases, and
configurable noise, together with a gold KB.  The gold KB plays two
roles.  A random fraction of it (``supervision_fraction``) is the
incomplete KB that distant supervision joins against, as the paper's
systems join against an existing KB; the whole of it is the truth that
precision/recall are scored against, standing in for the paper's
human-labelled samples.  A gold fact outside the supervised fraction is
never evidence, so recall beyond that fraction is what the factor graph
infers.

:class:`~repro.kbc.pipeline.KBCPipeline` assembles the full DeepDive
program for a corpus and drives grounding, learning, inference, and
error analysis; :mod:`repro.workloads` instantiates it for the five
evaluation systems of Figure 7.
"""

from repro.kbc.corpus import Corpus, CorpusConfig, SpamStream, generate_corpus
from repro.kbc.pipeline import KBCPipeline, PipelineResult
from repro.kbc.quality import precision_recall_f1

__all__ = [
    "Corpus",
    "CorpusConfig",
    "KBCPipeline",
    "PipelineResult",
    "SpamStream",
    "generate_corpus",
    "precision_recall_f1",
]
