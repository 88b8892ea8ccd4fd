"""Unit tests for Top-K candidate selection."""

from itertools import permutations

import numpy as np
import pytest
from scipy import sparse

from repro.core import direct_top_k, matching_top_k
from repro.core.blocking import CandidateMask, SparseSimilarity
from repro.core.topk import true_match_ranks
from repro.errors import ConfigError

S = np.array(
    [
        [0.9, 0.1, 0.5],
        [0.2, 0.8, 0.3],
        [0.4, 0.6, 0.7],
    ]
)


class TestDirectTopK:
    def test_top1_is_argmax(self):
        out = direct_top_k(S, 1)
        assert out == [[0], [1], [2]]

    def test_ordering_best_first(self):
        out = direct_top_k(S, 3)
        assert out[0] == [0, 2, 1]
        assert out[2] == [2, 1, 0]

    def test_k_clamped_to_columns(self):
        out = direct_top_k(S, 10)
        assert all(len(c) == 3 for c in out)

    def test_invalid_inputs(self):
        with pytest.raises(ConfigError):
            direct_top_k(S, 0)
        with pytest.raises(ConfigError):
            direct_top_k(np.empty((0, 0)), 1)

    def test_monotone_in_k(self):
        """Top-K candidate sets are nested as K grows."""
        small = direct_top_k(S, 1)
        large = direct_top_k(S, 2)
        for row_small, row_large in zip(small, large):
            assert set(row_small) <= set(row_large)


class TestMatchingTopK:
    def test_round_one_is_assignment(self):
        out = matching_top_k(S, 1)
        cols = [c[0] for c in out]
        assert sorted(cols) == [0, 1, 2]  # a perfect matching

    def test_k2_distinct_candidates(self):
        out = matching_top_k(S, 2)
        for cand in out:
            assert len(cand) == len(set(cand)) == 2

    def test_rectangular_more_aux(self):
        wide = np.random.default_rng(0).random((2, 5))
        out = matching_top_k(wide, 3)
        assert all(len(c) == 3 for c in out)

    def test_candidates_sorted_by_score(self):
        out = matching_top_k(S, 3)
        for i, cand in enumerate(out):
            scores = [S[i, c] for c in cand]
            assert scores == sorted(scores, reverse=True)

    def test_contested_column_spread(self):
        contested = np.array(
            [
                [0.9, 0.2, 0.1],
                [0.8, 0.7, 0.1],
            ]
        )
        out = matching_top_k(contested, 1)
        # direct selection would give both rows column 0; matching cannot
        assert out[0] != out[1]


def _sparse_from(dense: np.ndarray, keep: np.ndarray) -> SparseSimilarity:
    """SparseSimilarity holding ``dense``'s values at the ``keep`` mask."""
    mask = CandidateMask(sparse.csr_matrix(keep))
    rows, cols = mask.pair_arrays()
    return SparseSimilarity(mask, dense[rows, cols])


def _brute_force_matching(dense: np.ndarray, keep: np.ndarray, k: int) -> list:
    """Repeated matching by exhaustive search over every assignment of
    ``min(n1, n2)`` distinct pairs: a round takes one with the most scored
    (``keep``) pairs and, among those, the highest total score; its scored
    pairs become candidates and leave the graph.  Each row's candidates
    come back best first."""
    n1, n2 = dense.shape
    scored = {(r, c) for r, c in zip(*np.nonzero(keep))}
    candidates = [[] for _ in range(n1)]
    for _ in range(min(k, n2)):
        if n1 <= n2:
            matchings = (
                list(enumerate(cols)) for cols in permutations(range(n2), n1)
            )
        else:
            matchings = (
                [(r, c) for c, r in enumerate(rows)]
                for rows in permutations(range(n1), n2)
            )
        best = max(
            (
                [pair for pair in matching if pair in scored]
                for matching in matchings
            ),
            key=lambda pairs: (len(pairs), sum(dense[p] for p in pairs)),
        )
        if not best:
            break
        for r, c in best:
            candidates[r].append(c)
            scored.discard((r, c))
    return [sorted(cand, key=lambda c: -dense[r, c]) for r, cand in enumerate(candidates)]


class TestSparseMatching:
    """matching_top_k on SparseSimilarity: unscored pairs never compete."""

    def test_floor_free_world_equals_dense(self):
        """On a mask keeping every pair, sparse matching == dense matching."""
        rng = np.random.RandomState(42)
        for n1, n2, k in ((5, 5, 3), (4, 7, 4), (7, 4, 2), (6, 6, 6)):
            dense = rng.rand(n1, n2)
            full = _sparse_from(dense, np.ones((n1, n2), dtype=bool))
            assert matching_top_k(full, k) == matching_top_k(dense, k)

    def test_blocked_masks_equal_brute_force(self):
        """Random partial masks, rows left without scored pairs included:
        every round is a matching with the most scored pairs and, among
        those, the highest weight — seeded continuous scores make the
        optimum unique.  Unscored pairs at -1e18 failed this: when a round
        had to assign one, the scores vanished in the float64 spacing at
        1e18 and the round kept an arbitrary matching of the right size."""
        rng = np.random.RandomState(9)
        for trial in range(400):
            n1, n2 = rng.randint(1, 6), rng.randint(1, 6)
            dense = rng.rand(n1, n2)
            keep = rng.rand(n1, n2) < rng.uniform(0.2, 0.95)
            if not keep.any():
                continue
            k = int(rng.randint(1, 5))
            assert matching_top_k(_sparse_from(dense, keep), k) == (
                _brute_force_matching(dense, keep, k)
            ), trial

    def test_block_diagonal_mask_keeps_candidates_inside(self):
        """Every candidate of a block-diagonal mask stays in its block."""
        rng = np.random.RandomState(3)
        # block-diagonal candidate mask: full 6x6 blocks stay 6-regular,
        # so every one of the k <= 6 rounds has a perfect matching
        blocks = 3
        size = 6
        n = blocks * size
        keep = np.zeros((n, n), dtype=bool)
        for b in range(blocks):
            sl = slice(b * size, (b + 1) * size)
            keep[sl, sl] = True
        dense = rng.rand(n, n)
        S = _sparse_from(dense, keep)
        out = matching_top_k(S, 4)
        for i, cand in enumerate(out):
            assert len(cand) == 4
            assert all(keep[i, c] for c in cand)

    def test_empty_row_falls_back_and_matches_brute_force(self):
        rng = np.random.RandomState(17)
        dense = rng.rand(5, 5)
        keep = np.ones((5, 5), dtype=bool)
        keep[2, :] = False  # no candidates: perfect matching impossible
        out = matching_top_k(_sparse_from(dense, keep), 2)
        assert out == _brute_force_matching(dense, keep, 2)
        assert out[2] == []

    def test_zero_scores_are_real_edges(self):
        """A genuine 0.0 score is a selectable candidate, not a pruned pair."""
        dense = np.array([[0.0, 0.5], [0.5, 0.0]])
        S = _sparse_from(dense, np.ones((2, 2), dtype=bool))
        out = matching_top_k(S, 2)
        assert out == [[1, 0], [0, 1]]


class TestTrueMatchRanks:
    def test_rank_one_for_argmax(self):
        ranks = true_match_ranks(
            S, ["a0", "a1", "a2"], ["x0", "x1", "x2"],
            {"a0": "x0", "a1": "x1", "a2": "x2"},
        )
        assert ranks == {"a0": 1, "a1": 1, "a2": 1}

    def test_rank_counts_ties_pessimistically(self):
        tied = np.array([[0.5, 0.5]])
        ranks = true_match_ranks(tied, ["a"], ["x", "y"], {"a": "y"})
        assert ranks["a"] == 2

    def test_missing_truth_is_none(self):
        ranks = true_match_ranks(S, ["a0", "a1", "a2"], ["x0", "x1", "x2"],
                                 {"a0": "x0", "a1": None})
        assert ranks["a1"] is None
        assert ranks["a2"] is None  # absent from mapping

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            true_match_ranks(S, ["a"], ["x"], {})
