"""The attack front door (:mod:`repro.api`) pinned by digest.

Each block drives one fixed script through a fresh
:class:`~repro.api.Engine`: a serial sweep over every scoring path, thread
and process pool sweeps, session and cache-budget eviction, and a
file-backed report store shared by three engines.  Each step is pinned as
the first 16 hex digits of a sha256 over the sorted-key JSON of what it
returns, with the volatile fields (wall clock, version, store path)
masked, the way ``tests/test_service_pins.py`` pins the service tier.  A
change to ``src/repro/api/`` must leave every digest where it is.

Pool stats are pinned in a schedule-independent form: sessions sorted by
split, and the extraction cache's hit and miss counts dropped, because
concurrent shards race on the shared cache (see
:class:`~repro.stylometry.ExtractionCache`).  The process pool's
``tenants`` block is not pinned: ``tests/test_api_executor.py`` checks its
tenant accounting.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.api import AttackRequest, Engine
from repro.datagen import webmd_like
from repro.store import StateStore

#: Keys whose values are wall clock, host-specific or the package version.
_VOLATILE_KEYS = frozenset({"generation_s", "version", "elapsed_ms", "path"})

BASE = AttackRequest(
    corpus="small",
    split_seed=7,
    top_k=5,
    n_landmarks=5,
    classifier="knn",
    ks=(1, 5),
    refined=False,
)

#: Every scoring path, two splits of one corpus, an alias and an open split.
SERIAL_VARIANTS = (
    BASE,
    BASE.variant(top_k=3),
    BASE.variant(blocking="lsh", blocking_keep=0.5),
    BASE.variant(blocking="union"),
    BASE.variant(refined=True, classifier="smo"),
    BASE.variant(refined=True, refined_keep_fraction=0.5),
    BASE.variant(split_seed=8),
    BASE.variant(corpus="alias"),
    BASE.variant(world="open", overlap_ratio=0.5, split_seed=9),
)

#: Four variants on three splits, so a two-worker pool runs three shards.
POOL_VARIANTS = (
    BASE,
    BASE.variant(split_seed=8),
    BASE.variant(top_k=3),
    BASE.variant(world="open", overlap_ratio=0.5, split_seed=9),
)

REFINED = BASE.variant(refined=True)

CACHE_BUDGETS = (0, 1, 50_000, 3_000_000, 5_000_000)


def _mask(value):
    if isinstance(value, dict):
        return {
            key: "<masked>" if key in _VOLATILE_KEYS and item is not None
            else _mask(item)
            for key, item in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [_mask(item) for item in value]
    return value


def _digest(value) -> str:
    text = json.dumps(_mask(value), indent=None, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _reports(reports) -> dict:
    return {
        "reports": [report.canonical_dict() for report in reports],
        "reused_fit": [report.reused_fit for report in reports],
    }


def _counters(engine: Engine) -> dict:
    return {
        "attacks": engine.attacks,
        "session_hits": engine.session_hits,
        "session_evictions": engine.session_evictions,
        "report_reuses": engine.report_reuses,
    }


def _pool_stats(engine: Engine, backend: str) -> dict:
    """``engine.stats()`` without what the pool's schedule decides."""
    stats = engine.stats()
    stats["sessions"].sort(
        key=lambda s: (s["corpus"], s["world"], s["param"], s["split_seed"])
    )
    del stats["extraction"]["hits"], stats["extraction"]["misses"]
    if backend == "process":
        del stats["tenants"]
    return stats


def _run_script(small_corpus, other_corpus, state_dir) -> dict:
    """Each step's digest, keyed by step name, in script order."""
    digests: dict = {}

    def step(name, value):
        digests[name] = _digest(value)

    # serial sweep: every scoring path; the alias shares the first session
    engine = Engine()
    engine.register("small", small_corpus)
    engine.register("alias", small_corpus)
    reports = engine.sweep(list(SERIAL_VARIANTS))
    step("serial_reports", _reports(reports))
    step("serial_stats", engine.stats())
    step("serial_counters", _counters(engine))

    # pools: three shards over two workers
    for backend in ("thread", "process"):
        engine = Engine()
        engine.register("small", small_corpus)
        reports = engine.sweep(list(POOL_VARIANTS), parallel=2, backend=backend)
        step(f"{backend}_reports", _reports(reports))
        step(f"{backend}_stats", _pool_stats(engine, backend))

    # session eviction: one session at a time, then a re-registered name
    engine = Engine(max_sessions=1)
    engine.register("small", small_corpus)
    reports = [
        engine.attack(BASE),
        engine.attack(BASE.variant(split_seed=8)),
        engine.attack(BASE.variant(top_k=3)),
    ]
    step("evict_lru", [_reports(reports), engine.stats(), _counters(engine)])
    engine.register("small", other_corpus)
    reports = [engine.attack(BASE), engine.attack(BASE.variant(top_k=3))]
    step("evict_reregister", [_reports(reports), engine.stats(), _counters(engine)])

    # cache budgets: each after two refined attacks on two splits
    for budget in CACHE_BUDGETS:
        engine = Engine(cache_budget_bytes=budget)
        engine.register("small", small_corpus)
        reports = [engine.attack(REFINED), engine.attack(REFINED.variant(split_seed=8))]
        step(f"budget_{budget}", [_reports(reports), engine.stats()])

    # a file-backed store: misses, hits, siblings and rehydration
    state = StateStore.at_dir(state_dir)
    sibling_state = StateStore.at_dir(state_dir)
    fresh_state = StateStore.at_dir(state_dir)
    try:
        engine = Engine(store=state)
        engine.register("small", small_corpus)
        step("store_miss", engine.attack(BASE).to_dict())
        step("store_hit", engine.attack(BASE).to_dict())
        step("store_other_tenant_miss", engine.attack(BASE, tenant="acme").to_dict())
        reports = engine.sweep([BASE, BASE], tenant="acme")
        step("store_sweep_hits", [_reports(reports), _counters(engine)])
        step("store_stats", engine.stats())
        sibling = Engine(store=sibling_state)
        sibling.register("other", other_corpus)
        step("store_refresh", [
            engine.refresh_corpora(), engine.refresh_corpora(), engine.corpus_names,
        ])
        fresh = Engine()
        fresh.register("local", other_corpus)
        step("store_attach", [fresh.attach_store(fresh_state), fresh.stats()])
        step("store_tenant_counters", state.tenant_counters())
    finally:
        for store in (state, sibling_state, fresh_state):
            store.close()
    return digests


#: Digest of each script step, in script order.
API_PINS: dict = {
    "serial_reports": "1141bbf0bf5ee7d7",
    "serial_stats": "f4f71b25c8c74a66",
    "serial_counters": "d616cf2771ed6366",
    "thread_reports": "4594125c485e9d4f",
    "thread_stats": "3e338b0d09590122",
    "process_reports": "4594125c485e9d4f",
    "process_stats": "a2079ab75dbdcd86",
    "evict_lru": "4519f40d6f303d9c",
    "evict_reregister": "834f17cd75246274",
    "budget_0": "fad0d1b40afd49ee",
    "budget_1": "f56fd4c4212cae7d",
    "budget_50000": "78e87c3bf788eac5",
    "budget_3000000": "3bd103dc9fb8d954",
    "budget_5000000": "ec23cee0a90b05df",
    "store_miss": "bee81fc02797347a",
    "store_hit": "bee81fc02797347a",
    "store_other_tenant_miss": "225f9997b17dfc26",
    "store_sweep_hits": "d9d2093862931938",
    "store_stats": "3cec267d00a5881b",
    "store_refresh": "f1441b2c30e5c5c1",
    "store_attach": "0b4cdeebaa6a462d",
    "store_tenant_counters": "3198be38a1d1cfca",
}


@pytest.fixture(scope="module")
def digests(small_corpus, tmp_path_factory):
    other = webmd_like(n_users=30, seed=78).dataset
    return _run_script(small_corpus, other, tmp_path_factory.mktemp("state"))


class TestApiPins:
    """Every engine entry point, byte for byte with volatile fields masked."""

    @pytest.mark.parametrize("name", list(API_PINS))
    def test_step_matches_pin(self, digests, name):
        assert digests[name] == API_PINS[name]

    def test_script_is_pinned_whole(self, digests):
        assert list(digests) == list(API_PINS)
