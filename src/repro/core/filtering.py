"""Candidate-set filtering via a threshold vector (the paper's Algorithm 2).

A threshold vector ``T_i = s_u − i/(l−1)·(s_u − s_l)`` descends from the
global maximum similarity ``s_u`` to ``s_l = min + ε``.  Each user's
candidate set is filtered at successively lower thresholds; the first
non-empty survivor set wins.  A user whose candidates all fall below even
the lowest threshold is declared ⊥ (not present in the auxiliary data).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.blocking import as_similarity
from repro.errors import ConfigError


@dataclass(frozen=True)
class FilterOutcome:
    """Result of Algorithm 2 for all users.

    ``kept[i]`` is the filtered candidate list of row ``i`` (possibly the
    original list), or ``None`` when the user was filtered to ⊥.
    ``thresholds`` is the threshold vector used.
    """

    kept: list
    thresholds: np.ndarray

    @property
    def n_bottom(self) -> int:
        """How many users were declared ⊥ by the filter."""
        return sum(1 for c in self.kept if c is None)


def filter_candidates(
    S,
    candidates: list,
    epsilon: float = 0.01,
    levels: int = 10,
) -> FilterOutcome:
    """Apply Algorithm 2 to per-row candidate lists.

    Parameters mirror the paper: ``epsilon`` (ε) lifts the lower threshold
    above the global minimum, ``levels`` (l) is the threshold vector length.

    ``S`` is a :class:`~repro.core.blocking.SparseSimilarity` (or a dense
    matrix, wrapped over the full mask): the global extrema are taken over
    the conceptual floor-filled matrix (the floor stands in for the pruned
    pairs' similarity) and candidate scores are looked up pair by pair.
    """
    S = as_similarity(S)
    if levels < 2:
        raise ConfigError(f"levels must be >= 2, got {levels}")
    if epsilon < 0:
        raise ConfigError(f"epsilon must be >= 0, got {epsilon}")
    if len(candidates) != S.shape[0]:
        raise ConfigError(
            f"{len(candidates)} candidate lists for {S.shape[0]} rows"
        )

    s_upper = float(S.max())
    s_lower = float(S.min()) + epsilon
    if s_lower > s_upper:
        # ε overshoots the score range; degenerate to a single threshold
        s_lower = s_upper
    thresholds = np.array(
        [
            s_upper - (i / (levels - 1)) * (s_upper - s_lower)
            for i in range(levels)
        ]
    )

    kept: list = []
    for row, cand in enumerate(candidates):
        if not cand:
            kept.append(None)
            continue
        scores = S.scores_at(row, cand)
        chosen = None
        for t in thresholds:
            surviving = [c for c, s in zip(cand, scores) if s >= t]
            if surviving:
                chosen = surviving
                break
        kept.append(chosen)
    return FilterOutcome(kept=kept, thresholds=thresholds)
