"""Extraction fast path: memoization, parallelism, and budget eviction.

The contract under test is strict: every extraction path — cached,
batched, process-pool parallel, engine-shared — must produce *byte
identical* feature rows to the serial per-post loop, because the golden
report suite treats extraction as part of the locked science.  On top of
that, the cache counters must prove the perf claim: an executor sweep
over many splits of one corpus extracts each distinct post exactly once.
"""

import json
import random

import numpy as np
import pytest

from repro.api import AttackRequest, Engine
from repro.datagen import webmd_like
from repro.graph.uda import UDAGraph
from repro.stylometry import (
    ExtractionCache,
    FeatureExtractor,
    MAX_EXTRACT_WORKERS,
    resolve_extract_workers,
)


@pytest.fixture(scope="module")
def corpus():
    return webmd_like(n_users=30, seed=11).dataset


@pytest.fixture(scope="module")
def texts(corpus):
    return [
        p.text for u in corpus.user_ids() for p in corpus.posts_of(u)
    ]


class TestExtractionCache:
    def test_get_put_counters(self):
        cache = ExtractionCache()
        assert cache.get("hello") is None
        cache.put("hello", {1: 0.5})
        assert cache.get("hello") == {1: 0.5}
        c = cache.counters()
        assert c["hits"] == 1 and c["misses"] == 1
        assert c["builds"] == 1 and c["entries"] == 1
        assert c["bytes"] > 0

    def test_get_many_counts_as_per_post_gets(self, texts):
        """A batch lookup counts every text, duplicates included, as one
        :meth:`get` per text does, and returns the same rows."""
        batch = texts[:30] + texts[10:15] + ["never seen", "never seen"]
        batched, single = ExtractionCache(), ExtractionCache()
        for cache in (batched, single):
            for text in texts[5:20]:
                cache.put(text, {1: 1.0})
        rows = batched.get_many(batch)
        assert rows == [single.get(text) for text in batch]
        assert (batched.hits, batched.misses) == (single.hits, single.misses)
        assert batched.hits > 0 and batched.misses > 0

    def test_extract_rows_counts_as_per_post_gets(self, texts):
        """``extract_rows`` counts a batch as a per-post ``get`` loop over
        it, followed by the misses' ``put``, would."""
        batches = (texts[:10], texts[:20] + texts[:20] + texts[15:25])
        fx = FeatureExtractor(cache=ExtractionCache())
        single = ExtractionCache()
        for batch in batches:
            fx.extract_rows(batch)
            for text in [t for t in batch if single.get(t) is None]:
                single.put(text, {})
        assert (fx.cache.hits, fx.cache.misses) == (single.hits, single.misses)
        assert fx.cache.hits > 0 and fx.cache.misses > 0

    def test_first_writer_wins(self):
        cache = ExtractionCache()
        cache.put("t", {1: 1.0})
        cache.put("t", {2: 2.0})
        assert cache.get("t") == {1: 1.0}
        assert cache.builds == 1

    def test_clear_keeps_history(self):
        cache = ExtractionCache()
        cache.put("a", {1: 1.0})
        cache.get("a")
        assert cache.clear() == 1
        assert cache.entries == 0 and cache.nbytes() == 0
        assert cache.builds == 1 and cache.hits == 1


class TestMemoizedIdentity:
    """Cached and uncached extraction are byte-identical, post and profile."""

    def test_rows_identical_per_post(self, texts):
        plain = FeatureExtractor()
        cached = FeatureExtractor(cache=ExtractionCache())
        for text in texts:
            expected = plain.extract_sparse(text)
            assert cached.extract_sparse(text) == expected  # miss path
            assert cached.extract_sparse(text) == expected  # hit path

    def test_profiles_identical(self, corpus):
        plain = FeatureExtractor()
        cached = FeatureExtractor(cache=ExtractionCache())
        for uid in corpus.user_ids():
            posts = corpus.post_texts_of(uid)
            a = plain.attribute_weights([posts])
            b = cached.attribute_weights([posts])
            assert np.array_equal(a.indices, b.indices)
            assert np.array_equal(a.data, b.data)

    def test_returned_row_is_callers_to_mutate(self, texts):
        cached = FeatureExtractor(cache=ExtractionCache())
        first = cached.extract_sparse(texts[0])
        first[0] = -1.0
        assert cached.extract_sparse(texts[0]) != first

    def test_uda_graph_identical_with_cache(self, corpus):
        plain = UDAGraph(corpus)
        cached = UDAGraph(corpus, extractor=FeatureExtractor(cache=ExtractionCache()))
        assert (plain.attr_weights != cached.attr_weights).nnz == 0

    def test_second_graph_build_all_hits(self, corpus):
        extractor = FeatureExtractor(cache=ExtractionCache())
        first = UDAGraph(corpus, extractor=extractor)
        builds_after_first = extractor.cache.builds
        second = UDAGraph(corpus, extractor=extractor)
        assert extractor.cache.builds == builds_after_first
        assert (first.attr_weights != second.attr_weights).nnz == 0


class TestParallelIdentity:
    """Process-pool extraction is byte-identical to serial, any chunking."""

    def test_extract_rows_parallel_identical(self, texts):
        serial = FeatureExtractor().extract_rows(texts)
        parallel = FeatureExtractor().extract_rows(texts, workers=2)
        assert serial == parallel

    def test_extract_rows_dedupes_batch(self):
        extractor = FeatureExtractor(cache=ExtractionCache())
        rows = extractor.extract_rows(["same post"] * 5 + ["other post"])
        assert extractor.cache.builds == 2
        assert rows[0] == rows[4] and rows[0] != rows[5]

    def test_uda_graph_parallel_identical(self, corpus):
        serial = UDAGraph(corpus)
        parallel = UDAGraph(corpus, extract_workers=2)
        assert (serial.attr_weights != parallel.attr_weights).nnz == 0

    def test_seeded_random_batches_identical(self):
        rng = random.Random(23)
        vocab = ["pain", "doctor", "I", "took", "20mg", "becuase", "!!!",
                 "WebMD", "sleep", "weeks", "\n\n", "(", ")"]
        texts = [
            " ".join(rng.choice(vocab) for _ in range(rng.randrange(0, 60)))
            for _ in range(40)
        ]
        serial = FeatureExtractor().extract_rows(texts)
        cached = FeatureExtractor(cache=ExtractionCache()).extract_rows(texts)
        parallel = FeatureExtractor().extract_rows(texts, workers=3)
        assert serial == cached == parallel

    def test_resolve_extract_workers(self):
        assert resolve_extract_workers(1) == 1
        assert resolve_extract_workers(None) >= 1
        assert resolve_extract_workers(0) >= 1
        assert resolve_extract_workers(10**6) == MAX_EXTRACT_WORKERS

    def test_extractor_pickles_without_cache_state(self, texts):
        import pickle

        extractor = FeatureExtractor(cache=ExtractionCache())
        extractor.extract_sparse(texts[0])
        clone = pickle.loads(pickle.dumps(extractor))
        assert clone.cache is not None and clone.cache.entries == 0
        assert clone.extract_sparse(texts[0]) == extractor.extract_sparse(texts[0])


class TestEngineExtractionSharing:
    """The engine's shared cache spans sessions, splits, and sweep shards."""

    def test_sweep_extracts_each_distinct_post_once(self, corpus):
        distinct = {
            p.text for u in corpus.user_ids() for p in corpus.posts_of(u)
        }
        engine = Engine()
        engine.register("c", corpus)
        base = AttackRequest(
            corpus="c", n_landmarks=5, top_k=5, refined=False, ks=(1, 5)
        )
        engine.sweep([base.variant(split_seed=s) for s in (0, 1, 2)])
        counters = engine.stats()["extraction"]
        assert counters["builds"] == len(distinct)
        # every split after the first was served entirely from the cache
        assert counters["hits"] >= 2 * len(distinct)

    def test_stats_surface_extraction_block(self, corpus):
        engine = Engine()
        engine.register("c", corpus)
        engine.attack(
            AttackRequest(corpus="c", n_landmarks=5, top_k=5, refined=False)
        )
        stats = engine.stats()
        block = stats["extraction"]
        assert block is not None
        assert set(block) == {"hits", "misses", "builds", "entries", "bytes"}
        assert block["entries"] > 0 and block["bytes"] > 0
        assert stats["cache_budget_bytes"] is None
        assert stats["cache_budget_evictions"] == 0

    def test_service_stats_include_extraction(self, corpus):
        from repro.service import create_app
        from repro.service.testing import call_app

        engine = Engine()
        engine.register("c", corpus)
        app = create_app(engine)
        engine.attack(
            AttackRequest(corpus="c", n_landmarks=5, top_k=5, refined=False)
        )
        response = call_app(app, "GET", "/stats")
        assert response.status == 200
        assert response.json["extraction"]["builds"] > 0


class TestCacheBudget:
    def test_default_unlimited_keeps_caches(self, corpus):
        engine = Engine()
        engine.register("c", corpus)
        base = AttackRequest(
            corpus="c", n_landmarks=5, top_k=5, refined=False
        )
        engine.attack(base)
        stats = engine.stats()
        assert stats["cache_bytes"] > 0
        assert stats["extraction"]["bytes"] > 0

    def test_budget_evicts_lru_session_first(self, corpus):
        # generous enough to keep the newest session, too small for both
        engine = Engine()
        engine.register("c", corpus)
        base = AttackRequest(
            corpus="c", n_landmarks=5, top_k=5, refined=False
        )
        engine.attack(base.variant(split_seed=0))
        single = engine.stats()
        # room for ~1.5 sessions' similarity matrices on top of the shared
        # extraction cache: the second session must push past the budget
        budget = int(
            single["cache_bytes"] * 1.5 + single["extraction"]["bytes"]
        )
        engine2 = Engine(cache_budget_bytes=budget)
        engine2.register("c", corpus)
        engine2.attack(base.variant(split_seed=0))
        engine2.attack(base.variant(split_seed=1))
        stats = engine2.stats()
        by_seed = {s["split_seed"]: s for s in stats["sessions"]}
        assert stats["cache_budget_evictions"] >= 1
        # LRU (seed 0) was dropped; the newest session's matrices survive
        assert by_seed[0]["similarity_bytes"] == 0
        assert by_seed[1]["similarity_bytes"] > 0

    def test_oversized_extraction_cache_dropped_before_sessions(self, corpus):
        """When the extraction cache alone busts the budget, session
        matrices must survive: evicting them could never help."""
        engine = Engine()
        engine.register("c", corpus)
        base = AttackRequest(corpus="c", n_landmarks=5, top_k=5, refined=False)
        engine.attack(base)
        sim_bytes = engine.stats()["cache_bytes"]
        assert sim_bytes > 0
        # budget above the similarity bytes but below the extraction bytes
        budget = sim_bytes + 1
        assert engine.stats()["extraction"]["bytes"] > budget
        engine.cache_budget_bytes = budget
        engine.enforce_cache_budget()
        stats = engine.stats()
        assert stats["extraction"]["entries"] == 0
        assert stats["cache_bytes"] == sim_bytes  # hot session untouched

    def test_budget_rejects_negative(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            Engine(cache_budget_bytes=-1)

    def test_enforce_is_noop_without_budget(self, corpus):
        engine = Engine()
        engine.register("c", corpus)
        engine.attack(
            AttackRequest(corpus="c", n_landmarks=5, top_k=5, refined=False)
        )
        assert engine.enforce_cache_budget() == 0
        assert engine.stats()["cache_bytes"] > 0


class TestGoldenParity:
    """Goldens stay byte-identical under the cache and under workers>1."""

    def test_fig5_golden_byte_identical_with_workers(self):
        from tests.goldens import fig5_matrix, golden_engine, golden_path

        engine = golden_engine()
        requests = [r.variant(extract_workers=2) for r in fig5_matrix()]
        reports = engine.sweep(requests)
        assert engine.stats()["extraction"]["builds"] > 0
        payload = [report.canonical_dict() for report in reports]
        for entry in payload:
            # the only permitted delta: the perf knob on the request echo
            assert entry["request"].pop("extract_workers") == 2
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert text == golden_path("fig5_matrix").read_text(encoding="utf-8")
