"""Unit tests for the structural-similarity components."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.core import SimilarityCache, SimilarityComputer, SimilarityWeights
from repro.core.similarity import (
    _attribute_dense_block,
    _cosine_matrix,
    _minmax_ratio_matrix,
)
from repro.forum import closed_world_split
from repro.graph import UDAGraph
from repro.utils.stats import jaccard, weighted_jaccard
from tests.goldens import golden_corpus


@pytest.fixture(scope="module")
def graph_pair(tiny_split, extractor):
    anon = UDAGraph(tiny_split.anonymized, extractor=extractor)
    aux = UDAGraph(tiny_split.auxiliary, extractor=extractor)
    return anon, aux


class TestHelpers:
    def test_minmax_matrix_values(self):
        out = _minmax_ratio_matrix([0, 2], [0, 4])
        assert out[0, 0] == 1.0  # 0/0 convention
        assert out[0, 1] == 0.0
        assert out[1, 1] == 0.5

    def test_cosine_matrix_conventions(self):
        A = np.array([[0.0, 0.0], [1.0, 0.0]])
        B = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        out = _cosine_matrix(A, B)
        assert out[0, 0] == 1.0  # zero-vs-zero
        assert out[0, 1] == 0.0  # zero-vs-nonzero
        assert out[1, 1] == pytest.approx(1.0)
        assert out[1, 2] == pytest.approx(0.0)


class TestComponents:
    def test_shapes(self, graph_pair):
        anon, aux = graph_pair
        sim = SimilarityComputer(anon, aux, n_landmarks=10)
        shape = (anon.n_users, aux.n_users)
        assert sim.degree_similarity().shape == shape
        assert sim.distance_similarity().shape == shape
        assert sim.attribute_similarity().shape == shape

    def test_component_ranges(self, graph_pair):
        anon, aux = graph_pair
        sim = SimilarityComputer(anon, aux, n_landmarks=10)
        for matrix, upper in (
            (sim.degree_similarity(), 3.0),
            (sim.distance_similarity(), 2.0),
            (sim.attribute_similarity(), 2.0),
        ):
            assert matrix.min() >= -1e-9
            assert matrix.max() <= upper + 1e-9

    def test_combined_is_weighted_sum(self, graph_pair):
        anon, aux = graph_pair
        weights = SimilarityWeights(0.2, 0.3, 0.5)
        sim = SimilarityComputer(anon, aux, weights=weights, n_landmarks=10)
        expected = (
            0.2 * sim.degree_similarity()
            + 0.3 * sim.distance_similarity()
            + 0.5 * sim.attribute_similarity()
        )
        assert np.allclose(sim.combined(), expected)

    def test_zero_weight_component_skipped(self, graph_pair):
        anon, aux = graph_pair
        sim = SimilarityComputer(
            anon, aux, weights=SimilarityWeights(0.0, 0.0, 1.0), n_landmarks=10
        )
        combined = sim.combined()
        # distance component never computed for the ablation
        assert not sim.cache.has("distance", sim.config.n_landmarks)
        assert np.allclose(combined, sim.attribute_similarity())

    def test_cached(self, graph_pair):
        anon, aux = graph_pair
        sim = SimilarityComputer(anon, aux, n_landmarks=10)
        assert sim.combined() is sim.combined()

    def test_shared_cache_across_weights(self, graph_pair):
        anon, aux = graph_pair
        cache = SimilarityCache()
        a = SimilarityComputer(
            anon, aux, weights=SimilarityWeights(0.2, 0.3, 0.5),
            n_landmarks=10, cache=cache,
        )
        b = SimilarityComputer(
            anon, aux, weights=SimilarityWeights(0.0, 0.0, 1.0),
            n_landmarks=10, cache=cache,
        )
        # the two computers share component matrices but not combined ones
        assert a.attribute_similarity() is b.attribute_similarity()
        assert not np.allclose(a.combined(), b.combined())
        counters = cache.counters()
        assert counters["builds"]["attribute"] == 1
        assert counters["builds"]["combined"] == 2

    def test_score_lookup(self, graph_pair, tiny_split):
        anon, aux = graph_pair
        sim = SimilarityComputer(anon, aux, n_landmarks=10)
        anon_id = anon.users[0]
        aux_id = aux.users[0]
        assert sim.score(anon_id, aux_id) == pytest.approx(
            sim.combined()[0, 0]
        )

    def test_cache_entry_and_byte_accounting(self, graph_pair):
        anon, aux = graph_pair
        cache = SimilarityCache()
        assert cache.entries == 0 and cache.nbytes() == 0
        sim = SimilarityComputer(anon, aux, n_landmarks=10, cache=cache)
        combined = sim.combined()
        counters = cache.counters()
        assert counters["entries"] == cache.entries > 0
        # the combined matrix alone accounts for part of the byte total
        assert counters["bytes"] >= combined.nbytes > 0

    def test_cache_clear_drops_entries_keeps_counters(self, graph_pair):
        anon, aux = graph_pair
        cache = SimilarityCache()
        sim = SimilarityComputer(anon, aux, n_landmarks=10, cache=cache)
        sim.combined()
        builds_before = dict(cache.builds)
        dropped = cache.clear()
        assert dropped > 0
        assert cache.entries == 0 and cache.nbytes() == 0
        assert cache.builds == builds_before  # history survives the clear
        sim.combined()  # rebuilds from scratch
        assert cache.builds["combined"] == builds_before["combined"] + 1

    def test_cache_accounts_sparse_entries(self, graph_pair):
        anon, aux = graph_pair
        cache = SimilarityCache()
        sim = SimilarityComputer(
            anon, aux, n_landmarks=10, cache=cache,
            blocking="attr_index", blocking_keep=0.5,
        )
        sim.combined_sparse()
        assert cache.has("blocking", *sim.blocking_key())
        assert cache.nbytes() > 0
        counters = cache.counters()
        assert counters["builds"]["combined_pairs"] == 1
        assert counters["builds"]["blocking"] == 1


class TestSignal:
    def test_true_pairs_scored_above_average(self, graph_pair, tiny_split):
        """The whole attack rests on this: correct mappings score higher."""
        anon, aux = graph_pair
        sim = SimilarityComputer(anon, aux)
        S = sim.combined()
        aux_index = {u: j for j, u in enumerate(aux.users)}
        true_scores, all_means = [], []
        for i, anon_id in enumerate(anon.users):
            target = tiny_split.truth.true_match(anon_id)
            if target is None:
                continue
            true_scores.append(S[i, aux_index[target]])
            all_means.append(S[i].mean())
        assert np.mean(true_scores) > np.mean(all_means)

    def test_weight_cap_applied(self, graph_pair):
        anon, aux = graph_pair
        a = SimilarityComputer(anon, aux, attribute_weight_cap=1)
        b = SimilarityComputer(anon, aux, attribute_weight_cap=64)
        # cap=1 reduces the weighted Jaccard to the binary Jaccard, so the
        # attribute component differs from the cap=64 one
        assert not np.allclose(a.attribute_similarity(), b.attribute_similarity())


# --- s^a against a pair-by-pair oracle -------------------------------------


def _capped(W, cap: int) -> sparse.csr_matrix:
    """``W`` as int64 CSR capped at ``cap``: the weights the kernel scores."""
    W = sparse.csr_matrix(W, dtype=np.int64)
    W.data = np.minimum(W.data, cap)
    return W


def _weight_dicts(W: sparse.csr_matrix) -> list:
    """Each row of ``W`` as its ``{slot: weight}`` dict of positive weights."""
    return [
        {
            int(k): int(w)
            for k, w in zip(W.indices[lo:hi], W.data[lo:hi])
            if w > 0
        }
        for lo, hi in zip(W.indptr[:-1], W.indptr[1:])
    ]


def oracle_attribute_block(W1, W2) -> np.ndarray:
    """``jaccard + weighted_jaccard`` of every pair of capped rows."""
    rows1, rows2 = _weight_dicts(W1), _weight_dicts(W2)
    out = np.empty((len(rows1), len(rows2)))
    for i, a in enumerate(rows1):
        for j, b in enumerate(rows2):
            out[i, j] = jaccard(a, b) + weighted_jaccard(a, b)
    return out


def _assert_matches_oracle(W1, W2, cap: int) -> None:
    W1, W2 = _capped(W1, cap), _capped(W2, cap)
    block = _attribute_dense_block(W1, W2, cap)
    expected = oracle_attribute_block(W1, W2)
    assert block.dtype == np.float64
    assert block.shape == expected.shape
    assert block.tobytes() == expected.tobytes()


@st.composite
def weight_pairs(draw):
    """Two small count matrices over one attribute space, and a cap.

    Half the cells are empty, so rows without attributes and pairs with no
    shared column come up often; counts reach past 255 so the 300 cap
    keeps weights that a byte cannot hold.
    """
    n_cols = draw(st.integers(1, 12))
    cell = st.one_of(st.just(0), st.integers(1, 400))

    def matrix():
        n_rows = draw(st.integers(1, 6))
        cells = draw(st.lists(cell, min_size=n_rows * n_cols,
                              max_size=n_rows * n_cols))
        return np.array(cells, dtype=np.int64).reshape(n_rows, n_cols)

    return matrix(), matrix(), draw(st.sampled_from((1, 64, 300)))


class TestAttributeOracle:
    """``s^a`` equals the pair-by-pair Jaccard + weighted Jaccard of the
    capped ``{slot: weight}`` dicts, byte for byte."""

    @settings(max_examples=100, deadline=None)
    @given(weight_pairs())
    def test_random_matrices(self, drawn):
        W1, W2, cap = drawn
        _assert_matches_oracle(W1, W2, cap)

    @pytest.mark.parametrize("cap", [1, 64, 300])
    def test_no_shared_column_and_empty_rows(self, cap):
        W1 = np.array([[3, 0, 0, 0], [0, 0, 0, 0], [280, 1, 0, 0]])
        W2 = np.array([[0, 0, 5, 0], [0, 0, 0, 0], [0, 0, 0, 290]])
        _assert_matches_oracle(W1, W2, cap)

    @pytest.mark.parametrize("cap", [1, 64, 300])
    def test_deep_weights(self, cap):
        rng = np.random.default_rng(5)
        W1 = rng.integers(0, 320, size=(7, 40)) * (rng.random((7, 40)) < 0.5)
        W2 = rng.integers(0, 320, size=(9, 40)) * (rng.random((9, 40)) < 0.5)
        _assert_matches_oracle(W1, W2, cap)

    def test_wide_rows_past_two_bytes(self):
        """300 shared columns at weights near the 300 cap: a pair's
        Σ min(w1, w2) passes 65,535."""
        rng = np.random.default_rng(9)
        W1 = rng.integers(250, 301, size=(2, 300))
        W2 = rng.integers(250, 301, size=(3, 300))
        assert np.minimum(W1.max(axis=0), W2.max(axis=0)).sum() > 65_535
        _assert_matches_oracle(W1, W2, 300)

    def test_golden_split(self):
        corpus = golden_corpus()
        split = closed_world_split(corpus, aux_fraction=0.5, seed=118)
        anon = UDAGraph(split.anonymized)
        aux = UDAGraph(split.auxiliary)
        sim = SimilarityComputer(anon, aux)
        cap = sim.config.attribute_weight_cap
        expected = oracle_attribute_block(
            _capped(anon.attr_weights, cap), _capped(aux.attr_weights, cap)
        )
        assert sim.attribute_similarity().tobytes() == expected.tobytes()
