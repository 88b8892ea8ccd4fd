"""Unit tests for the refined-DA engine."""

import pytest

from repro.core.refined import RefinedDeanonymizer, make_classifier
from repro.errors import ConfigError
from repro.forum import closed_world_split, select_users_with_posts
from repro.graph import UDAGraph


@pytest.fixture(scope="module")
def refined_setup(tiny_corpus, extractor):
    sel = select_users_with_posts(tiny_corpus, n_users=8, min_posts=4, seed=0)
    split = closed_world_split(sel, aux_fraction=0.5, seed=1)
    anon = UDAGraph(split.anonymized, extractor=extractor)
    aux = UDAGraph(split.auxiliary, extractor=extractor)
    return split, anon, aux


class TestMakeClassifier:
    def test_all_names(self):
        for name in ("smo", "knn", "rlsc", "centroid"):
            assert make_classifier(name) is not None

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            make_classifier("transformer")


class TestRefinedDeanonymizer:
    def test_winner_among_candidates(self, refined_setup):
        split, anon, aux = refined_setup
        engine = RefinedDeanonymizer(anon, aux, classifier="knn")
        anon_user = anon.users[0]
        candidates = aux.users[:4]
        winner, details = engine.deanonymize_user(anon_user, list(candidates))
        assert winner in candidates
        assert set(details["scores"]) <= set(candidates)

    def test_empty_candidates(self, refined_setup):
        _, anon, aux = refined_setup
        engine = RefinedDeanonymizer(anon, aux, classifier="knn")
        winner, details = engine.deanonymize_user(anon.users[0], [])
        assert winner is None
        assert "empty" in details["reason"]

    def test_single_candidate_shortcut(self, refined_setup):
        _, anon, aux = refined_setup
        engine = RefinedDeanonymizer(anon, aux, classifier="knn")
        winner, details = engine.deanonymize_user(anon.users[0], [aux.users[0]])
        assert winner == aux.users[0]

    def test_true_mapping_usually_wins(self, refined_setup):
        split, anon, aux = refined_setup
        engine = RefinedDeanonymizer(anon, aux, classifier="knn")
        hits = 0
        total = 0
        for anon_user in anon.users:
            target = split.truth.true_match(anon_user)
            if target is None:
                continue
            distractors = [u for u in aux.users if u != target][:4]
            winner, _ = engine.deanonymize_user(anon_user, [target] + distractors)
            total += 1
            hits += winner == target
        assert hits / total >= 0.5  # well above the 1/5 random baseline

    def test_false_addition_can_reject(self, refined_setup):
        split, anon, aux = refined_setup
        engine = RefinedDeanonymizer(
            anon, aux, classifier="knn", verification="false_addition",
            false_addition_count=3, seed=5,
        )
        anon_user = anon.users[0]
        target = split.truth.true_match(anon_user)
        # candidate set deliberately excludes the true mapping
        wrong = [u for u in aux.users if u != target][:3]
        winner, details = engine.deanonymize_user(anon_user, wrong)
        assert details["decoys"]  # decoys were added
        assert winner is None or winner in wrong

    def test_structural_features_toggle(self, refined_setup):
        _, anon, aux = refined_setup
        with_struct = RefinedDeanonymizer(anon, aux, use_structural_features=True)
        without = RefinedDeanonymizer(anon, aux, use_structural_features=False)
        m_with = with_struct._post_matrix(aux, with_struct._aux_cache, aux.users[0])
        m_without = without._post_matrix(aux, without._aux_cache, aux.users[0])
        assert m_with.shape[1] == m_without.shape[1] + 4

    def test_cache_reused(self, refined_setup):
        _, anon, aux = refined_setup
        engine = RefinedDeanonymizer(anon, aux, classifier="knn")
        a = engine._post_matrix(aux, engine._aux_cache, aux.users[0])
        b = engine._post_matrix(aux, engine._aux_cache, aux.users[0])
        assert a is b

    def test_bad_classifier_fails_fast(self, refined_setup):
        _, anon, aux = refined_setup
        with pytest.raises(ConfigError):
            RefinedDeanonymizer(anon, aux, classifier="nope")


class TestPrerank:
    def test_bad_fraction_rejected(self, refined_setup):
        _, anon, aux = refined_setup
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ConfigError):
                RefinedDeanonymizer(anon, aux, refined_keep_fraction=bad)

    def test_full_fraction_is_inert(self, refined_setup):
        _, anon, aux = refined_setup
        plain = RefinedDeanonymizer(anon, aux, classifier="knn")
        keep_all = RefinedDeanonymizer(
            anon, aux, classifier="knn", refined_keep_fraction=1.0
        )
        cand = list(aux.users[:4])
        assert plain.deanonymize_user(anon.users[0], cand) == (
            keep_all.deanonymize_user(anon.users[0], cand)
        )
        # counters never move while the cut is disabled
        assert keep_all.prerank_stats == {
            "users": 0,
            "candidates_in": 0,
            "candidates_kept": 0,
        }

    def test_cut_by_scores(self, refined_setup):
        _, anon, aux = refined_setup
        engine = RefinedDeanonymizer(
            anon, aux, classifier="knn", refined_keep_fraction=0.5
        )
        cand = list(aux.users[:4])
        # scores 0.1, 0.2, 0.9, 0.8 rank the last two candidates highest;
        # phase 1 hands the set over best-first
        best_first = [cand[2], cand[3], cand[1], cand[0]]
        winner, details = engine.deanonymize_user(anon.users[0], best_first)
        assert set(details["scores"]) == {cand[2], cand[3]}
        assert engine.prerank_stats == {
            "users": 1,
            "candidates_in": 4,
            "candidates_kept": 2,
        }

    def test_cut_without_scores_trusts_list_order(self, refined_setup):
        _, anon, aux = refined_setup
        engine = RefinedDeanonymizer(
            anon, aux, classifier="knn", refined_keep_fraction=0.5
        )
        cand = list(aux.users[:4])
        winner, details = engine.deanonymize_user(anon.users[0], cand)
        assert set(details["scores"]) == set(cand[:2])

    def test_always_keeps_at_least_one(self, refined_setup):
        _, anon, aux = refined_setup
        engine = RefinedDeanonymizer(
            anon, aux, classifier="knn", refined_keep_fraction=0.01
        )
        cand = list(aux.users[:4])
        # scores 0.0, 0.0, 1.0, 0.0, handed over best-first
        best_first = [cand[2], cand[0], cand[1], cand[3]]
        winner, details = engine.deanonymize_user(anon.users[0], best_first)
        # ceil(0.01 × 4) = 1: the single best-scored candidate survives
        assert winner == cand[2]
        assert details["reason"] == "single-candidate set"
