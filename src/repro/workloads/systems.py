"""The five KBC systems of Figure 7, scaled to laptop size.

The paper's statistics (docs, relations, rules, variables, factors) are
8–9 orders of magnitude beyond a pure-Python laptop run; each spec here
is a proportional miniature that preserves the *qualitative* contrasts
§4.1 calls out:

* **Adversarial** — many tiny noisy documents (ads with 1–2 garbled
  sentences), one relation.
* **News** — the benchmark system: moderate noise, many relations,
  ambiguous relation phrases.
* **Genomics** — precise text but linguistically ambiguous relations
  (low cue reliability).
* **Pharmacogenomics** — precise text; its I1 is the *agreement* rule,
  which inflates the factor graph ~1.4× (the 3× speedup outlier of
  Fig. 9).
* **Paleontology** — well-curated prose: high cue reliability, fewer
  factors per variable (fewer sentences per doc ⇒ sparser graph).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.kbc.corpus import CorpusConfig, generate_corpus
from repro.kbc.pipeline import KBCPipeline


@dataclass(frozen=True)
class WorkloadSpec:
    """One evaluation system: corpus shape + pipeline configuration."""

    name: str
    num_docs: int
    sentences_per_doc: int
    num_entities: int
    cue_reliability: float
    noise_level: float
    linking_noise: float
    num_relations: int
    num_rules: int
    i1_style: str = "symmetry"
    paper_docs: str = ""
    paper_vars: str = ""
    paper_factors: str = ""

    def corpus_config(self, scale: float = 1.0, seed: int = 0) -> CorpusConfig:
        return CorpusConfig(
            name=self.name,
            num_docs=max(4, int(self.num_docs * scale)),
            sentences_per_doc=self.sentences_per_doc,
            num_entities=max(6, int(self.num_entities * scale)),
            cue_reliability=self.cue_reliability,
            noise_level=self.noise_level,
            linking_noise=self.linking_noise,
            num_relations=self.num_relations,
            seed=seed,
        )


ADVERSARIAL = WorkloadSpec(
    name="Adversarial",
    num_docs=120,
    sentences_per_doc=1,
    num_entities=40,
    cue_reliability=0.7,
    noise_level=0.25,
    linking_noise=0.1,
    num_relations=1,
    num_rules=10,
    paper_docs="5M",
    paper_vars="0.1B",
    paper_factors="0.4B",
)

NEWS = WorkloadSpec(
    name="News",
    num_docs=60,
    sentences_per_doc=3,
    num_entities=30,
    cue_reliability=0.8,
    noise_level=0.05,
    linking_noise=0.05,
    num_relations=34,
    num_rules=22,
    paper_docs="1.8M",
    paper_vars="0.2B",
    paper_factors="1.2B",
)

GENOMICS = WorkloadSpec(
    name="Genomics",
    num_docs=30,
    sentences_per_doc=3,
    num_entities=20,
    cue_reliability=0.65,
    noise_level=0.0,
    linking_noise=0.02,
    num_relations=3,
    num_rules=15,
    paper_docs="0.2M",
    paper_vars="0.02B",
    paper_factors="0.1B",
)

PHARMA = WorkloadSpec(
    name="Pharma.",
    num_docs=50,
    sentences_per_doc=3,
    num_entities=24,
    cue_reliability=0.7,
    noise_level=0.0,
    linking_noise=0.02,
    num_relations=9,
    num_rules=24,
    i1_style="agreement",
    paper_docs="0.6M",
    paper_vars="0.2B",
    paper_factors="1.2B",
)

PALEONTOLOGY = WorkloadSpec(
    name="Paleontology",
    num_docs=40,
    sentences_per_doc=2,
    num_entities=26,
    cue_reliability=0.92,
    noise_level=0.0,
    linking_noise=0.0,
    num_relations=8,
    num_rules=29,
    paper_docs="0.3M",
    paper_vars="0.3B",
    paper_factors="0.4B",
)

ALL_SYSTEMS = (ADVERSARIAL, NEWS, GENOMICS, PHARMA, PALEONTOLOGY)


def workload_by_name(name: str) -> WorkloadSpec:
    for spec in ALL_SYSTEMS:
        if spec.name.lower().startswith(name.lower()):
            return spec
    raise KeyError(f"unknown workload {name!r}")


def build_pipeline(
    spec: WorkloadSpec,
    scale: float = 1.0,
    semantics="ratio",
    seed: int = 0,
) -> KBCPipeline:
    """Generate the corpus and wire up the pipeline for ``spec``."""
    corpus = generate_corpus(spec.corpus_config(scale=scale, seed=seed))
    return KBCPipeline(
        corpus, semantics=semantics, i1_style=spec.i1_style, seed=seed
    )
