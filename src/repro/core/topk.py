"""Top-K candidate selection (Section III-B, "Top-K Candidate Set").

Two strategies from the paper:

* **direct selection** — per anonymized user, take the K auxiliary users
  with the highest similarity scores;
* **graph-matching-based selection** — run maximum-weight bipartite
  matching on the complete bipartite similarity graph, give every matched
  anonymized user its partner as a candidate, remove those edges, and
  repeat K times.

Every entry point reads one score type, a
:class:`~repro.core.blocking.SparseSimilarity`: the similarity graph's
edges are the scored pairs of its mask.  Dense scoring is the full mask;
a blocking policy only removes edges, so a pruned pair can never enter a
candidate set, and a user whose row was pruned empty yields an empty
candidate list.  A dense ``(n1 × n2)`` array is accepted too and wrapped
over the full mask (:meth:`~repro.core.blocking.SparseSimilarity.from_dense`).
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from repro.core.blocking import SparseSimilarity, as_similarity
from repro.errors import ConfigError


def _check(S, k: int) -> SparseSimilarity:
    S = as_similarity(S)
    if S.shape[0] == 0 or S.shape[1] == 0:
        raise ConfigError(f"similarity must be non-empty 2-D, got {S.shape}")
    if k < 1:
        raise ConfigError(f"K must be >= 1, got {k}")
    return S


def direct_top_k(S, k: int) -> list[list[int]]:
    """Per-row indices of the K highest-scoring columns, best first.

    Only scored (candidate) pairs compete; rows with fewer than K
    candidates return all of them, best first.
    """
    S = _check(S, k)
    m = S.mask.matrix
    indptr = m.indptr.tolist()
    out: list[list[int]] = []
    for lo, hi in zip(indptr, indptr[1:]):
        cols, neg = m.indices[lo:hi], -S.values[lo:hi]
        if hi - lo > k:
            part = np.argpartition(neg, k - 1)[:k]
            cols, neg = cols[part], neg[part]
        out.append(cols[np.argsort(neg, kind="stable")].tolist())
    return out


def matching_top_k(S, k: int) -> list[list[int]]:
    """Repeated maximum-weight bipartite matching (paper Steps 1–4).

    Each round assigns every anonymized user at most one distinct auxiliary
    user; matched pairs are removed and the matching repeats until every
    user has K candidates (or the columns are exhausted).  Unlike direct
    selection, two anonymized users cannot claim the same auxiliary user in
    the same round, which spreads candidates across contested columns.

    The rounds run the dense assignment solver on a copy of the scores
    with every unscored pair at a sentinel placed below the lowest score
    by more than the weight range of any matching: ``min − m·(max − min)
    − 1`` with ``m = min(n1, n2)``.  So each round assigns as many scored
    pairs as it can and, among those matchings, one of the highest total
    score; a row left with only unscored pairs gets no further candidates.
    (A sentinel like ``-1e18`` drowns the scores: at that magnitude the
    float64 spacing is 128, and the solver could no longer tell the
    matchings with the most scored pairs apart by weight.)
    """
    S = _check(S, k)
    n1, n2 = S.shape
    lo, hi = (S.values.min(), S.values.max()) if S.n_pairs else (0.0, 0.0)
    sentinel = lo - min(n1, n2) * (hi - lo) - 1.0
    return _order_candidates(
        _matching_rounds(S.to_dense(floor=sentinel), k, sentinel), S.scores_at
    )


def _matching_rounds(
    masked: np.ndarray, k: int, sentinel: float
) -> list[list[int]]:
    """Dense assignment rounds over ``masked`` (mutated in place), whose
    unscored pairs hold ``sentinel``.

    Returns raw per-row candidate lists in round order; callers order them
    by true score via :func:`_order_candidates`.
    """
    n1, n2 = masked.shape
    k = min(k, n2)
    candidates: list[list[int]] = [[] for _ in range(n1)]
    for _ in range(k):
        rows, cols = linear_sum_assignment(masked, maximize=True)
        progressed = False
        for r, c in zip(rows, cols):
            if masked[r, c] <= sentinel:
                continue  # only unscored pairs left for this row
            candidates[r].append(int(c))
            masked[r, c] = sentinel
            progressed = True
        if not progressed:
            break
    return candidates


def _order_candidates(candidates: list, scores_at) -> list[list[int]]:
    """Order each candidate list by true score (``scores_at(row, cols)``),
    best first, with stable tie-breaking on round order."""
    for r, cand in enumerate(candidates):
        if len(cand) > 1:
            scores = np.asarray(scores_at(r, cand), dtype=np.float64)
            order = np.argsort(-scores, kind="stable")
            candidates[r] = [cand[i] for i in order]
    return candidates


def true_match_ranks(
    S,
    anon_ids: list[str],
    aux_ids: list[str],
    truth_mapping: dict,
) -> dict:
    """Rank (1-based) of each anonymized user's true mapping by similarity.

    Rank r means the true auxiliary user has the r-th highest score in the
    user's row (competition ranking; ties broken pessimistically, i.e. equal
    scores count as ranked ahead).  Users without a true mapping map to
    ``None``.  This is exactly what the Fig 3 / Fig 5 CDFs integrate: the
    Top-K DA of user u succeeds iff rank(u) <= K.

    Unscored pairs count at the floor: a true match pruned by blocking
    ranks behind every scored pair and ties (pessimistically) with all
    other unscored pairs.
    """
    S = as_similarity(S)
    if S.shape != (len(anon_ids), len(aux_ids)):
        raise ConfigError(
            f"similarity shape {S.shape} does not match id lists "
            f"({len(anon_ids)}, {len(aux_ids)})"
        )
    aux_index = {u: j for j, u in enumerate(aux_ids)}
    target = [aux_index.get(truth_mapping.get(anon), -1) for anon in anon_ids]
    # every row's true-match score in one pass: a row holds its target
    # column at most once, and a pruned target keeps the floor
    m = S.mask.matrix
    counts = np.diff(m.indptr)
    hit = np.flatnonzero(
        m.indices == np.repeat(np.array(target, dtype=np.int64), counts)
    )
    score = np.full(len(anon_ids), S.floor)
    score[np.searchsorted(m.indptr, hit, side="right") - 1] = S.values[hit]
    n2, floor, values = S.shape[1], S.floor, S.values
    bounds = m.indptr.tolist()
    ranks: dict = {}
    for anon, col, s, lo, hi in zip(
        anon_ids, target, score.tolist(), bounds, bounds[1:]
    ):
        if col < 0:
            ranks[anon] = None
            continue
        rank = int(np.count_nonzero(values[lo:hi] >= s))
        if floor >= s:
            rank += n2 - (hi - lo)  # unscored pairs tie in (pessimistic)
        ranks[anon] = rank
    return ranks
