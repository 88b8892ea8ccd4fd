"""Stylometric feature extraction (Table I of the paper).

The feature space F is the concatenation of thirteen category blocks —
lexical (length, word length, vocabulary richness, letter/digit frequency,
uppercase percentage, special characters, word shape), syntactic
(punctuation, function words, POS tags, POS tag bigrams), and idiosyncratic
(misspellings).  :class:`FeatureSpace` fixes the slot layout;
:class:`FeatureExtractor` maps post text to vectors over it;
:class:`ExtractionCache` memoizes extracted rows by post content so
re-fits, sweeps, and executor shards extract each distinct post once;
each row is a read-only :class:`PostRow` of two arrays.
"""

from repro.stylometry.cache import ExtractionCache, PostRow
from repro.stylometry.features import FeatureSpace, default_feature_space
from repro.stylometry.extractor import (
    FeatureExtractor,
    MAX_EXTRACT_WORKERS,
    resolve_extract_workers,
)

__all__ = [
    "ExtractionCache",
    "FeatureExtractor",
    "FeatureSpace",
    "MAX_EXTRACT_WORKERS",
    "PostRow",
    "default_feature_space",
    "resolve_extract_workers",
]
