"""Unit tests for the structural-similarity components."""

import numpy as np
import pytest

from repro.core import SimilarityCache, SimilarityComputer, SimilarityWeights
from repro.core.similarity import _cosine_matrix, _minmax_ratio_matrix
from repro.forum import closed_world_split
from repro.graph import UDAGraph


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
