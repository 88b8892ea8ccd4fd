"""Engine/AttackSession behaviour: caching, sweeps, and pipeline parity."""

import pytest

from repro import DeHealth, DeHealthConfig
from repro.api import AttackRequest, AttackSession, Engine, dataset_fingerprint
from repro.errors import ConfigError


@pytest.fixture(scope="module")
def engine(tiny_corpus):
    eng = Engine()
    eng.register("tiny", tiny_corpus)
    return eng


def _request(**overrides) -> AttackRequest:
    base = dict(
        corpus="tiny",
        aux_fraction=0.5,
        split_seed=102,
        top_k=5,
        n_landmarks=5,
        classifier="knn",
        ks=(1, 5),
    )
    base.update(overrides)
    return AttackRequest(**base)


class TestRegistry:
    def test_register_summary(self, engine, tiny_corpus):
        summary = engine.describe("tiny")
        assert summary["users"] == tiny_corpus.n_users
        assert summary["fingerprint"] == dataset_fingerprint(tiny_corpus)

    def test_unknown_corpus(self, engine):
        with pytest.raises(ConfigError, match="unknown corpus"):
            engine.attack(_request(corpus="nope"))

    def test_generate_registers(self):
        eng = Engine()
        summary = eng.generate(preset="webmd", users=20, seed=1, name="g")
        assert summary["users"] == 20
        assert eng.corpus_names == ["g"]

    def test_generate_bad_preset(self):
        with pytest.raises(ConfigError, match="preset"):
            Engine().generate(preset="reddit", users=10)

    def test_fingerprint_distinguishes_content(self, tiny_corpus):
        from repro.datagen import webmd_like

        other = webmd_like(n_users=30, seed=7).dataset
        assert dataset_fingerprint(tiny_corpus) != dataset_fingerprint(other)

    def test_fingerprint_sees_post_text(self):
        """Same shape (name, counts, ids), different text -> new fingerprint."""
        from repro.forum import ForumDataset, Post, Thread, User

        def build(text):
            ds = ForumDataset("same")
            ds.add_user(User(user_id="u1", username="a", profile={}))
            ds.add_thread(
                Thread(thread_id="t1", board="b", topic="x", starter_id="u1")
            )
            ds.add_post(
                Post(post_id="p1", user_id="u1", thread_id="t1", board="b",
                     text=text)
            )
            return ds

        assert dataset_fingerprint(build("hello")) != dataset_fingerprint(
            build("goodbye")
        )


class TestSweepCaching:
    def test_sweep_fits_once(self, tiny_corpus):
        """Acceptance: >=3 top_k/classifier variants, one extraction pass,
        one combined-similarity computation."""
        eng = Engine()
        eng.register("tiny", tiny_corpus)
        base = _request()
        reports = eng.sweep(
            [
                base.variant(top_k=3),
                base.variant(top_k=5),
                base.variant(top_k=10, classifier="centroid"),
            ]
        )
        assert len(reports) == 3
        stats = eng.stats()
        assert len(stats["sessions"]) == 1
        session = stats["sessions"][0]
        # feature extraction (UDA graph build) happened exactly once...
        assert session["graph_builds"] == 1
        # ...and the combined similarity matrix was computed exactly once,
        # with every later variant hitting the cache.
        assert session["similarity_builds"]["combined"] == 1
        assert session["similarity_hits"]["combined"] >= 2
        assert reports[0].reused_fit is False
        assert all(r.reused_fit for r in reports[1:])

    def test_same_split_reuses_session(self, engine):
        engine.attack(_request(top_k=3, refined=False, ks=(1, 3)))
        after_first = len(engine.stats()["sessions"])
        hits_before = engine.session_hits
        engine.attack(_request(top_k=7, refined=False, ks=(1, 7)))
        assert len(engine.stats()["sessions"]) == after_first
        assert engine.session_hits == hits_before + 1

    def test_different_split_new_session(self, tiny_corpus):
        eng = Engine()
        eng.register("tiny", tiny_corpus)
        eng.attack(_request(refined=False))
        eng.attack(_request(refined=False, split_seed=103))
        assert len(eng.stats()["sessions"]) == 2

    def test_session_cache_evicts_lru(self, tiny_corpus):
        eng = Engine(max_sessions=1)
        eng.register("tiny", tiny_corpus)
        eng.attack(_request(refined=False))
        eng.attack(_request(refined=False, split_seed=103))
        stats = eng.stats()
        assert len(stats["sessions"]) == 1
        assert stats["session_evictions"] == 1
        with pytest.raises(ConfigError):
            Engine(max_sessions=0)

    def test_weight_sweep_shares_components(self, tiny_corpus):
        eng = Engine()
        eng.register("tiny", tiny_corpus)
        base = _request(refined=False)
        eng.sweep(
            [
                base.variant(weights=(0.05, 0.05, 0.9)),
                base.variant(weights=(0.2, 0.2, 0.6)),
            ]
        )
        session = eng.stats()["sessions"][0]
        # two combined matrices (different weights) but each component once
        assert session["similarity_builds"]["combined"] == 2
        assert session["similarity_builds"]["degree"] == 1
        assert session["similarity_builds"]["attribute"] == 1

    def test_stats_expose_cache_entries_and_bytes(self, tiny_corpus):
        eng = Engine()
        eng.register("tiny", tiny_corpus)
        eng.attack(_request(refined=False))
        stats = eng.stats()
        session = stats["sessions"][0]
        assert session["similarity_entries"] > 0
        assert session["similarity_bytes"] > 0
        assert stats["cache_bytes"] == session["similarity_bytes"]

    def test_blocked_and_dense_variants_share_one_session(self, tiny_corpus):
        eng = Engine()
        eng.register("tiny", tiny_corpus)
        dense = eng.attack(_request(refined=False))
        blocked = eng.attack(
            _request(refined=False, blocking="union", blocking_keep=0.5)
        )
        stats = eng.stats()
        assert len(stats["sessions"]) == 1  # blocking is not a split axis
        session = stats["sessions"][0]
        assert session["similarity_builds"]["combined"] == 1
        assert session["similarity_builds"]["combined_pairs"] == 1
        assert session["similarity_builds"]["blocking"] == 1
        assert blocked.n_anonymized == dense.n_anonymized
        assert set(blocked.success_rates) == set(dense.success_rates)
        assert all(0.0 <= rate <= 1.0 for rate in blocked.success_rates.values())

    def test_multi_policy_sweep_builds_attribute_and_landmarks_once(
        self, tiny_corpus, monkeypatch
    ):
        """The dense path and every blocking policy read one block per
        similarity term and split, so the attribute block and the landmark
        vectors behind the distance block are built once."""
        import repro.core.similarity as similarity

        calls = {"attribute": 0, "landmarks": 0}

        def counted(name, real):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(
            similarity,
            "_attribute_dense_block",
            counted("attribute", similarity._attribute_dense_block),
        )
        monkeypatch.setattr(
            similarity,
            "landmark_closeness",
            counted("landmarks", similarity.landmark_closeness),
        )
        session = AttackSession.from_dataset(
            tiny_corpus, aux_fraction=0.5, split_seed=102
        )
        base = _request(refined=False)
        session.sweep(
            [
                base.variant(blocking=blocking, weights=weights)
                for blocking in ("none", "lsh", "ann_graph", "union")
                for weights in ((0.05, 0.05, 0.9), (0.2, 0.2, 0.6))
            ]
        )
        # one block; two graphs × hop/weighted closeness
        assert calls == {"attribute": 1, "landmarks": 4}
        builds = session.similarity_cache.builds
        assert builds["degree"] == builds["distance"] == 1
        assert builds["attribute"] == 1
        assert "landmarks" not in builds
        # both dense weight vectors read their scores through one mask
        assert builds["full_mask"] == 1

    def test_clear_similarity_cache(self, tiny_corpus):
        eng = Engine()
        eng.register("tiny", tiny_corpus)
        request = _request(refined=False)
        eng.attack(request)
        session = eng.session_for(request)
        assert session.clear_similarity_cache() > 0
        assert eng.stats()["cache_bytes"] == 0
        eng.attack(request)  # rebuilds transparently
        assert eng.stats()["cache_bytes"] > 0


class TestSessionParity:
    def test_matches_direct_pipeline(self, tiny_split):
        """The session path must be numerically identical to DeHealth."""
        session = AttackSession(tiny_split)
        report = session.run(
            AttackRequest(top_k=5, n_landmarks=5, classifier="knn", seed=3)
        )
        attack = DeHealth(
            DeHealthConfig(top_k=5, n_landmarks=5, classifier="knn", seed=3)
        )
        attack.fit(*session.graphs)
        topk = attack.top_k_result(tiny_split.truth)
        assert report.success_rate(1) == topk.success_rate(1)
        assert report.success_rate(5) == topk.success_rate(5)
        result = attack.deanonymize()
        assert report.refined_accuracy == result.accuracy(tiny_split.truth)
        assert report.n_evaluated == topk.n_evaluated

    def test_topk_only_skips_refined(self, tiny_split):
        report = AttackSession(tiny_split).run(
            AttackRequest(refined=False, n_landmarks=5)
        )
        assert report.refined_accuracy is None
        assert report.n_correct is None
        assert report.success_rates  # phase 1 still measured

    def test_from_dataset_bad_world(self, tiny_corpus):
        with pytest.raises(ConfigError, match="world"):
            AttackSession.from_dataset(tiny_corpus, world="flat")

    def test_split_provenance_enforced(self, tiny_corpus):
        """A session built from a known spec rejects mismatched requests."""
        session = AttackSession.from_dataset(
            tiny_corpus, world="closed", aux_fraction=0.5, split_seed=102
        )
        with pytest.raises(ConfigError, match="does not match"):
            session.run(_request(aux_fraction=0.7))
        with pytest.raises(ConfigError, match="does not match"):
            session.run(_request(world="open", overlap_ratio=0.5))
        # matching requests run fine
        session.run(_request(refined=False))

    def test_custom_split_session_has_no_spec(self, tiny_split):
        session = AttackSession(tiny_split)
        assert session.split_spec is None
        session.run(AttackRequest(refined=False, n_landmarks=5))  # unchecked

    def test_run_validates_request(self, tiny_split):
        with pytest.raises(ConfigError):
            AttackSession(tiny_split).run(AttackRequest(top_k=0))

    def test_attack_accepts_dict(self, engine):
        report = engine.attack(
            {
                "corpus": "tiny",
                "split_seed": 102,
                "top_k": 3,
                "n_landmarks": 5,
                "refined": False,
                "ks": [1, 3],
            }
        )
        assert set(report.success_rates) == {1, 3}


class TestSweepBatchValidation:
    def test_session_sweep_validates_batch_up_front(self, tiny_corpus):
        """A mixed-split batch must raise before anything runs — previously
        the mismatch raised mid-sweep and the earlier reports were lost."""
        session = AttackSession.from_dataset(
            tiny_corpus, world="closed", aux_fraction=0.5, split_seed=102
        )
        good = _request(refined=False)
        bad = _request(refined=False, aux_fraction=0.7)  # different split
        with pytest.raises(ConfigError, match="does not match"):
            session.sweep([good, good, bad])
        assert session.runs == 0
        assert session.graph_builds == 0  # not even the fit started

    def test_session_sweep_validates_knobs_up_front(self, tiny_split):
        session = AttackSession(tiny_split)
        with pytest.raises(ConfigError):
            session.sweep(
                [AttackRequest(refined=False, n_landmarks=5), AttackRequest(top_k=0)]
            )
        assert session.runs == 0

    def test_engine_sweep_validates_corpus_up_front(self, tiny_corpus):
        eng = Engine()
        eng.register("tiny", tiny_corpus)
        with pytest.raises(ConfigError, match="unknown corpus"):
            eng.sweep([_request(refined=False), _request(corpus="ghost")])
        assert eng.attacks == 0
        assert eng.stats()["sessions"] == []

    def test_valid_sweep_still_runs(self, tiny_corpus):
        session = AttackSession.from_dataset(
            tiny_corpus, world="closed", aux_fraction=0.5, split_seed=102
        )
        reports = session.sweep(
            [_request(refined=False), _request(refined=False, top_k=3, ks=(1, 3))]
        )
        assert len(reports) == 2
        assert session.runs == 2


class TestLinkage:
    def test_linkage_summary(self):
        result = Engine().linkage(users=80, seed=11)
        assert result["users"] == 80
        assert any("NameLink" in line for line in result["summary"])
        assert 0.0 <= result["avatar_link_rate"] <= 1.0

    def test_linkage_validates(self):
        with pytest.raises(ConfigError):
            Engine().linkage(users=0)


class TestPostMatrixAccounting:
    """The refined phase's per-user post matrices are budget-accounted."""

    def test_refined_attack_populates_post_matrix_stats(self, tiny_corpus):
        eng = Engine()
        eng.register("tiny", tiny_corpus)
        eng.attack(_request(split_seed=310))
        stats = eng.stats()
        session = stats["sessions"][0]
        assert session["post_matrix_entries"] > 0
        assert session["post_matrix_bytes"] > 0
        assert stats["post_matrix_bytes"] == session["post_matrix_bytes"]

    def test_unrefined_attack_keeps_post_caches_empty(self, tiny_corpus):
        eng = Engine()
        eng.register("tiny", tiny_corpus)
        eng.attack(_request(split_seed=311, refined=False))
        session = eng.stats()["sessions"][0]
        assert session["post_matrix_entries"] == 0
        assert session["post_matrix_bytes"] == 0

    def test_drop_caches_clears_post_matrices(self, tiny_corpus):
        session = AttackSession.from_dataset(
            tiny_corpus, aux_fraction=0.5, split_seed=312
        )
        session.run(_request(split_seed=312))
        assert session.post_matrix_nbytes() > 0
        assert session.cache_nbytes() >= session.post_matrix_nbytes()
        dropped = session.drop_caches()
        assert dropped > 0
        assert session.post_matrix_nbytes() == 0
        assert session.post_matrix_entries() == 0

    def test_budget_evicts_post_matrices(self, tiny_corpus):
        """A budget below the post-matrix bytes forces their eviction."""
        eng = Engine()
        eng.register("tiny", tiny_corpus)
        eng.attack(_request(split_seed=313))
        post_bytes = eng.stats()["post_matrix_bytes"]
        assert post_bytes > 0
        eng.cache_budget_bytes = 1
        eng.enforce_cache_budget()
        stats = eng.stats()
        assert stats["post_matrix_bytes"] == 0
        assert stats["cache_budget_evictions"] >= 1


class TestPostMatrixCacheMutators:
    def test_all_mutators_keep_byte_accounting_exact(self):
        import numpy as np

        from repro.api.session import PostMatrixCache

        cache = PostMatrixCache()
        a = np.zeros((3, 4))
        b = np.zeros((2, 2))
        cache["a"] = a
        cache["b"] = b
        assert cache.nbytes_total == a.nbytes + b.nbytes
        cache["a"] = b  # replacement re-accounts
        assert cache.nbytes_total == 2 * b.nbytes
        assert cache.get("a") is b and len(cache) == 2
        cache.clear()
        assert cache.nbytes_total == 0 and len(cache) == 0


class TestBlockingStats:
    """Per-policy candidate-generation observability on stats surfaces."""

    def test_session_and_engine_blocking_stats(self, tiny_corpus):
        eng = Engine()
        eng.register("tiny", tiny_corpus)
        eng.attack(
            _request(split_seed=320, refined=False, blocking="attr_index")
        )
        eng.attack(
            _request(split_seed=320, refined=False, blocking="lsh", top_k=3)
        )
        stats = eng.stats()
        session = stats["sessions"][0]
        by_policy = {entry["policy"]: entry for entry in session["blocking"]}
        assert by_policy["attr_index"]["masks_built"] == 1
        assert by_policy["attr_index"]["candidates"] > 0
        assert by_policy["attr_index"]["generation_s"] >= 0.0
        assert by_policy["lsh"]["masks_built"] == 1
        assert by_policy["lsh"]["lsh_collision_touches"] > 0
        # engine-level aggregate mirrors the single session here
        assert stats["blocking"]["lsh"]["candidates"] == by_policy["lsh"][
            "candidates"
        ]
        assert stats["blocking"]["attr_index"]["masks_built"] == 1

    def test_dense_attacks_report_no_blocking(self, tiny_corpus):
        eng = Engine()
        eng.register("tiny", tiny_corpus)
        eng.attack(_request(split_seed=321, refined=False))
        stats = eng.stats()
        assert stats["blocking"] == {}
        assert stats["sessions"][0]["blocking"] == []
