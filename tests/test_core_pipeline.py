"""Integration-style tests for the DeHealth pipeline."""

import itertools

import numpy as np
import pytest

from repro.core import DeHealth, DeHealthConfig
from repro.core.similarity import SimilarityCache
from repro.errors import NotFittedError
from repro.forum import closed_world_split, open_world_split, select_users_with_posts
from repro.graph import UDAGraph


@pytest.fixture(scope="module")
def small_split(tiny_corpus):
    sel = select_users_with_posts(tiny_corpus, n_users=12, min_posts=4, seed=3)
    return closed_world_split(sel, aux_fraction=0.5, seed=4)


@pytest.fixture(scope="module")
def fitted(small_split, extractor):
    attack = DeHealth(DeHealthConfig(top_k=3, n_landmarks=5, classifier="knn"))
    attack.fit(small_split.anonymized, small_split.auxiliary, extractor=extractor)
    return attack


class TestLifecycle:
    def test_unfitted_raises(self):
        attack = DeHealth()
        with pytest.raises(NotFittedError):
            attack.similarity_matrix()
        with pytest.raises(NotFittedError):
            attack.top_k_candidates()
        with pytest.raises(NotFittedError):
            attack.deanonymize()

    def test_similarity_shape(self, fitted, small_split):
        S = fitted.similarity_matrix()
        assert S.shape == (
            small_split.anonymized.n_users,
            small_split.auxiliary.n_users,
        )

    def test_config_validated_on_construction(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            DeHealth(DeHealthConfig(top_k=0))


class TestTopKPhase:
    def test_candidate_sets_size(self, fitted):
        candidates = fitted.top_k_candidates()
        for cand in candidates.values():
            assert cand is not None
            assert len(cand) <= 3

    def test_k_override(self, fitted):
        candidates = fitted.top_k_candidates(k=5)
        assert max(len(c) for c in candidates.values()) == 5

    def test_candidates_are_aux_users(self, fitted, small_split):
        aux_ids = set(small_split.auxiliary.user_ids())
        for cand in fitted.top_k_candidates().values():
            assert set(cand) <= aux_ids

    def test_topk_result_ranks(self, fitted, small_split):
        res = fitted.top_k_result(small_split.truth)
        assert res.n_evaluated == small_split.anonymized.n_users
        assert all(r is None or r >= 1 for r in res.ranks.values())

    def test_matching_selection(self, small_split, extractor):
        attack = DeHealth(
            DeHealthConfig(top_k=2, n_landmarks=5, selection="matching")
        )
        attack.fit(small_split.anonymized, small_split.auxiliary, extractor=extractor)
        candidates = attack.top_k_candidates()
        for cand in candidates.values():
            assert len(cand) == 2

    def test_filtering_enabled(self, small_split, extractor):
        attack = DeHealth(
            DeHealthConfig(top_k=3, n_landmarks=5, filtering=True)
        )
        attack.fit(small_split.anonymized, small_split.auxiliary, extractor=extractor)
        candidates = attack.top_k_candidates()
        assert all(c is None or len(c) >= 1 for c in candidates.values())


class TestRefinedPhase:
    def test_deanonymize_produces_decisions(self, fitted, small_split):
        result = fitted.deanonymize()
        assert set(result.predictions) == set(small_split.anonymized.user_ids())

    def test_beats_random_baseline(self, fitted, small_split):
        result = fitted.deanonymize()
        accuracy = result.accuracy(small_split.truth)
        random_baseline = 1.0 / small_split.auxiliary.n_users
        assert accuracy > 3 * random_baseline

    def test_open_world_mean_verification(self, tiny_corpus, extractor):
        sel = select_users_with_posts(tiny_corpus, n_users=14, min_posts=4, seed=6)
        split = open_world_split(sel, overlap_ratio=0.5, seed=7)
        attack = DeHealth(
            DeHealthConfig(
                top_k=3,
                n_landmarks=5,
                classifier="knn",
                verification="mean",
                verification_r=0.25,
            )
        )
        attack.fit(split.anonymized, split.auxiliary, extractor=extractor)
        result = attack.deanonymize()
        # verification must actually reject some users
        assert result.rejection_rate() > 0.0

    def test_false_addition_scheme(self, tiny_corpus, extractor):
        sel = select_users_with_posts(tiny_corpus, n_users=14, min_posts=4, seed=8)
        split = open_world_split(sel, overlap_ratio=0.5, seed=9)
        attack = DeHealth(
            DeHealthConfig(
                top_k=3,
                n_landmarks=5,
                classifier="knn",
                verification="false_addition",
                false_addition_count=3,
            )
        )
        attack.fit(split.anonymized, split.auxiliary, extractor=extractor)
        result = attack.deanonymize()
        assert set(result.predictions) == set(split.anonymized.user_ids())


def scored_cut(candidates: list, scores, fraction: float) -> list:
    """The refined pre-rank's scored cut, kept as the oracle: the top
    ``ceil(fraction × |Cu|)`` candidates by phase-1 score, ties in list
    order."""
    kept_n = max(1, int(np.ceil(fraction * len(candidates))))
    order = np.lexsort((np.arange(len(candidates)), -np.asarray(scores)))
    return [candidates[int(j)] for j in order[:kept_n]]


class TestBestFirstCandidates:
    """Property: every selection path emits each candidate set best-first
    by phase-1 score, ties in a stable order, so cutting a list's head is
    the scored cut."""

    FRACTIONS = (0.05, 0.1, 0.2, 0.25, 0.3, 0.5, 0.6, 0.75, 0.9)

    def test_head_cut_is_the_scored_cut(self, tiny_split, extractor):
        anonymized = UDAGraph(tiny_split.anonymized, extractor=extractor)
        auxiliary = UDAGraph(tiny_split.auxiliary, extractor=extractor)
        aux_index = {u: j for j, u in enumerate(auxiliary.users)}
        cache = SimilarityCache()
        cuts = tied_rows = 0
        for blocking, selection, filtering, k in itertools.product(
            ("none", "lsh", "ann_graph", "union"),
            ("direct", "matching"),
            (False, True),
            (3, 10),
        ):
            config = DeHealthConfig(
                top_k=k, n_landmarks=5, blocking=blocking,
                selection=selection, filtering=filtering,
            )
            attack = DeHealth(config).fit(
                anonymized, auxiliary, similarity_cache=cache
            )
            S = attack.similarity_scores()
            candidates = attack.top_k_candidates()
            for i, anon in enumerate(anonymized.users):
                cand = candidates[anon]
                if not cand:
                    continue
                scores = S.scores_at(i, [aux_index[c] for c in cand])
                tied_rows += len(set(scores.tolist())) < len(cand)
                for fraction in self.FRACTIONS:
                    kept = scored_cut(cand, scores, fraction)
                    assert cand[: len(kept)] == kept, (config, anon, fraction)
                    cuts += 1
        assert cuts > 10_000
        assert tied_rows > 0  # ties are exercised


class TestRefinedPrerank:
    def _config(self, **overrides) -> DeHealthConfig:
        defaults = dict(top_k=3, n_landmarks=5, classifier="knn")
        defaults.update(overrides)
        return DeHealthConfig(**defaults)

    @pytest.mark.parametrize("blocking", ["none", "attr_index"])
    def test_full_fraction_identical_to_default(
        self, small_split, extractor, blocking
    ):
        """Property: ``refined_keep_fraction=1.0`` (the default) must be
        indistinguishable from the pre-knob pipeline — identical
        predictions AND identical per-user details, on both the dense and
        sparse scoring paths."""
        baseline = DeHealth(self._config(blocking=blocking))
        baseline.fit(
            small_split.anonymized, small_split.auxiliary, extractor=extractor
        )
        explicit = DeHealth(
            self._config(blocking=blocking, refined_keep_fraction=1.0)
        )
        explicit.fit(
            small_split.anonymized, small_split.auxiliary, extractor=extractor
        )
        a = baseline.deanonymize()
        b = explicit.deanonymize()
        assert a.predictions == b.predictions
        assert a.details == b.details
        assert explicit._refined.prerank_stats["users"] == 0

    def test_half_fraction_accuracy_floor(self, small_split, extractor):
        """At ``keep_fraction=0.5`` phase 2 classifies at most half of
        every multi-candidate set, and accuracy stays near the full run:
        phase-1 similarity puts true matches near the front, so the cut
        rarely drops them."""
        full = DeHealth(self._config())
        full.fit(
            small_split.anonymized, small_split.auxiliary, extractor=extractor
        )
        half = DeHealth(self._config(refined_keep_fraction=0.5))
        half.fit(
            small_split.anonymized, small_split.auxiliary, extractor=extractor
        )
        acc_full = full.deanonymize().accuracy(small_split.truth)
        acc_half = half.deanonymize().accuracy(small_split.truth)
        stats = half._refined.prerank_stats
        assert stats["users"] > 0
        # ceil(0.5 × |Cu|) per user: never more than half + one rounding
        assert stats["candidates_kept"] <= (
            stats["candidates_in"] / 2 + stats["users"] / 2
        )
        # the cut may cost a little accuracy, never a collapse
        assert acc_half >= acc_full - 0.2

    def test_fraction_reaches_refined_engine(self, small_split, extractor):
        attack = DeHealth(self._config(refined_keep_fraction=0.5))
        attack.fit(
            small_split.anonymized, small_split.auxiliary, extractor=extractor
        )
        assert attack._refined.config.refined_keep_fraction == 0.5
