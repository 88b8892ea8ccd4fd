"""De-Health: the paper's two-phase de-anonymization framework.

Phase 1 (Top-K DA): structural similarity over UDA graphs → Top-K candidate
sets (+ optional threshold-vector filtering).  Phase 2 (refined DA): per-user
classifiers over stylometric + structural features, with open-world
verification schemes (false addition, mean-verification).
"""

from repro.core.baseline import StylometryBaseline
from repro.core.blocking import (
    CandidateMask,
    NSWIndex,
    SparseSimilarity,
    ann_graph_candidates,
    attr_index_candidates,
    build_candidates,
    degree_band_candidates,
    lsh_signature_bits,
    lsh_candidates,
)
from repro.core.config import (
    BLOCKING_CHOICES,
    DeHealthConfig,
    SimilarityWeights,
    parse_blocking,
)
from repro.core.deadline import (
    Deadline,
    check_deadline,
    deadline_scope,
)
from repro.core.filtering import FilterOutcome, filter_candidates
from repro.core.pipeline import DeHealth
from repro.core.refined import RefinedDeanonymizer
from repro.core.results import DAResult, TopKResult
from repro.core.similarity import SimilarityCache, SimilarityComputer
from repro.core.topk import direct_top_k, matching_top_k
from repro.core.verification import mean_verification

__all__ = [
    "BLOCKING_CHOICES",
    "CandidateMask",
    "DAResult",
    "DeHealth",
    "DeHealthConfig",
    "Deadline",
    "FilterOutcome",
    "NSWIndex",
    "RefinedDeanonymizer",
    "SimilarityCache",
    "SimilarityComputer",
    "SimilarityWeights",
    "SparseSimilarity",
    "StylometryBaseline",
    "TopKResult",
    "ann_graph_candidates",
    "attr_index_candidates",
    "build_candidates",
    "check_deadline",
    "deadline_scope",
    "degree_band_candidates",
    "direct_top_k",
    "filter_candidates",
    "lsh_signature_bits",
    "lsh_candidates",
    "matching_top_k",
    "mean_verification",
    "parse_blocking",
]
