"""The attack engine: corpus registry + session cache + batch entry points.

The :class:`Engine` is the process-wide front door the CLI, the experiments,
and the :mod:`repro.service` WSGI layer all share.  It keys
:class:`~repro.api.AttackSession` instances by ``(dataset fingerprint,
split parameters)``, so any number of :class:`~repro.api.AttackRequest`
variants that agree on corpus and split reuse one fitted session — one
feature-extraction pass, one similarity computation.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict

from repro.api.protocol import (
    DEFAULT_TENANT,
    AttackReport,
    AttackRequest,
    request_hash,
)
from repro.api.session import AttackSession
from repro.errors import ConfigError
from repro.forum.models import ForumDataset
from repro.stylometry.cache import ExtractionCache
from repro.stylometry.extractor import FeatureExtractor

#: Corpus presets :meth:`Engine.generate` accepts.
PRESET_CHOICES: tuple = ("webmd", "healthboards")


def dataset_fingerprint(dataset: ForumDataset) -> str:
    """A content fingerprint of a corpus: name, sizes, users, and post text.

    Post text is included so re-registering a same-shaped corpus with edited
    content invalidates any cached sessions keyed on the old fingerprint.
    """
    digest = hashlib.sha1()
    digest.update(dataset.name.encode("utf-8"))
    digest.update(
        f":{dataset.n_users}:{dataset.n_posts}:{dataset.n_threads}".encode()
    )
    for uid in sorted(dataset.user_ids()):
        digest.update(uid.encode("utf-8"))
        digest.update(b"\0")
        for post in dataset.posts_of(uid):
            digest.update(post.post_id.encode("utf-8"))
            digest.update(b"\1")
            digest.update(post.text.encode("utf-8"))
            digest.update(b"\0")
    return digest.hexdigest()[:16]


class Engine:
    """Session-based attack engine over a registry of named corpora.

    ``max_sessions`` bounds the LRU cache of fitted sessions (each one pins
    two UDA graphs plus dense similarity matrices); the least recently used
    session is evicted when the cap is exceeded, so a long-running service
    cannot be grown without bound by varying split parameters.

    The engine's default extractor carries a shared
    :class:`~repro.stylometry.ExtractionCache`, so every session — and
    every shard of a serial or thread-backend sweep — extracts each
    distinct post exactly once, however many splits re-partition the same
    corpus.

    ``cache_budget_bytes`` bounds the total bytes of the per-session
    similarity caches plus the shared extraction cache: after each attack,
    least-recently-used sessions' similarity caches are dropped first, then
    the extraction cache, until the total fits.  ``None`` (the default)
    disables eviction — current behavior unchanged.

    ``store`` plugs in a :class:`repro.store.StateStore`: registered
    corpora and finished reports are persisted through it, the registry is
    rehydrated from it on construction (no re-upload after a restart), and
    — when the store is *file-backed* — an attack whose ``(corpus
    fingerprint, request hash)`` pair already has a stored report returns
    that report without fitting anything, which is how resumed sweeps skip
    already-completed shards.  ``None`` (the default) keeps the engine
    purely in-memory; with an in-memory store, reports are recorded for
    observability but never short-circuit execution.
    """

    def __init__(
        self,
        extractor: "FeatureExtractor | None" = None,
        max_sessions: int = 16,
        cache_budget_bytes: "int | None" = None,
        store=None,
    ) -> None:
        if max_sessions < 1:
            raise ConfigError(f"max_sessions must be >= 1, got {max_sessions}")
        if cache_budget_bytes is not None and cache_budget_bytes < 0:
            raise ConfigError(
                f"cache_budget_bytes must be >= 0 or None, got {cache_budget_bytes}"
            )
        self.extractor = extractor or FeatureExtractor(cache=ExtractionCache())
        self.max_sessions = max_sessions
        self.cache_budget_bytes = cache_budget_bytes
        self.cache_budget_evictions = 0
        self.store = None
        self.report_reuses = 0
        self._tenant_usage: dict = {}
        # Guards the registry and the session LRU: the threading WSGI
        # server and thread-backend sweeps hit one engine concurrently, and
        # the lookup-or-create in session_for must be atomic so each
        # (corpus, split) pair gets exactly one session (one fit).
        # Per-request *execution* happens outside this lock, under the
        # session's own lock, so distinct splits run concurrently.
        self._lock = threading.RLock()
        # corpus name -> (fingerprint, dataset)
        self._corpora: dict = {}
        self._sessions: OrderedDict = OrderedDict()
        self._session_meta: dict = {}
        self.attacks = 0
        self.session_hits = 0
        self.session_evictions = 0
        if store is not None:
            self.attach_store(store)

    # --- durable state --------------------------------------------------

    def attach_store(self, store) -> int:
        """Adopt a :class:`repro.store.StateStore` and rehydrate from it.

        Every corpus the store holds lands in the in-memory registry
        (fitting stays on demand — only the corpus bytes were persisted);
        corpora registered *before* attaching are written through.  Returns
        the number of corpora rehydrated.  The service layer uses this to
        give store-less engines its own (possibly in-memory) state.
        """
        with self._lock:
            if self.store is not None and self.store is not store:
                raise ConfigError("engine already has a different state store")
            self.store = store
            for name, (fingerprint, dataset) in sorted(self._corpora.items()):
                store.corpora.put(name, dataset, fingerprint)
            rehydrated = 0
            for name, fingerprint, dataset in store.corpora.load_all():
                if name not in self._corpora:
                    self._corpora[name] = (fingerprint, dataset)
                    rehydrated += 1
            return rehydrated

    def refresh_corpora(self) -> int:
        """Pull corpora other processes registered into the attached store.

        With several server processes sharing one ``--state-dir``, a corpus
        uploaded through process A exists only in the database until
        process B refreshes.  Loads every stored corpus whose fingerprint
        is not already registered in memory; returns how many were added.
        No-op (0) without a store.
        """
        with self._lock:
            if self.store is None:
                return 0
            added = 0
            for entry in self.store.corpora.list():
                current = self._corpora.get(entry["name"])
                if current is not None and current[0] == entry["fingerprint"]:
                    continue
                loaded = self.store.corpora.get(entry["name"])
                if loaded is not None:
                    self._corpora[entry["name"]] = loaded
                    added += 1
            return added

    # --- corpus registry ------------------------------------------------

    def register(self, name: str, dataset: ForumDataset) -> dict:
        """Register (or replace) a corpus under ``name``; returns a summary.

        With a state store attached the corpus is also persisted (canonical
        JSONL keyed by fingerprint); re-registering an identical corpus is
        a cheap no-op on the store side.
        """
        if not name:
            raise ConfigError("corpus name must be non-empty")
        fingerprint = dataset_fingerprint(dataset)
        with self._lock:
            self._corpora[name] = (fingerprint, dataset)
            if self.store is not None:
                self.store.corpora.put(name, dataset, fingerprint)
            return self.describe(name)

    def generate(
        self,
        preset: str = "webmd",
        users: int = 300,
        seed: int = 0,
        name: "str | None" = None,
    ) -> dict:
        """Generate a synthetic corpus from a preset and register it."""
        from repro.datagen import healthboards_like, webmd_like

        if preset not in PRESET_CHOICES:
            raise ConfigError(
                f"preset must be one of {PRESET_CHOICES}, got {preset!r}"
            )
        if users < 1:
            raise ConfigError(f"users must be >= 1, got {users}")
        maker = webmd_like if preset == "webmd" else healthboards_like
        generated = maker(n_users=users, seed=seed)
        return self.register(
            name or f"{preset}-{users}-{seed}", generated.dataset
        )

    def _entry(self, name: str) -> tuple:
        """The ``(fingerprint, dataset)`` registered under ``name``."""
        with self._lock:
            if name not in self._corpora:
                raise ConfigError(
                    f"unknown corpus {name!r}; registered: {sorted(self._corpora)}"
                )
            return self._corpora[name]

    def corpus(self, name: str) -> ForumDataset:
        return self._entry(name)[1]

    def fingerprint(self, name: str) -> str:
        """The registered content fingerprint of corpus ``name``."""
        return self._entry(name)[0]

    def describe(self, name: str) -> dict:
        fingerprint, dataset = self._entry(name)
        return {
            "corpus": name,
            "name": dataset.name,
            "fingerprint": fingerprint,
            "users": dataset.n_users,
            "posts": dataset.n_posts,
            "threads": dataset.n_threads,
        }

    @property
    def corpus_names(self) -> list:
        with self._lock:
            return sorted(self._corpora)

    # --- session cache --------------------------------------------------

    def session_for(self, request: AttackRequest) -> AttackSession:
        """The session serving ``request``'s (corpus, split) pair.

        Lookup-or-create is atomic under the engine lock, so concurrent
        callers agreeing on (corpus, split) always share one session — and
        therefore one fit.
        """
        with self._lock:
            fingerprint, dataset = self._entry(request.corpus)
            key = (fingerprint, request.split_key())
            session = self._sessions.get(key)
            if session is not None:
                self.session_hits += 1
                self._sessions.move_to_end(key)
                return session
            session = AttackSession.from_dataset(dataset, request, self.extractor)
            self._sessions[key] = session
            self._session_meta[key] = {
                "corpus": request.corpus,
                "world": request.world,
                "param": request.split_key()[1],
                "split_seed": request.split_seed,
            }
            while len(self._sessions) > self.max_sessions:
                evicted, _ = self._sessions.popitem(last=False)
                self._session_meta.pop(evicted, None)
                self.session_evictions += 1
            return session

    # --- attack entry points --------------------------------------------

    def attack(self, request, tenant: str = DEFAULT_TENANT) -> AttackReport:
        """Run one attack; ``request`` may be an AttackRequest or a dict.

        With a *persistent* store attached, a request whose report is
        already stored for this tenant returns the stored report (counted
        in ``report_reuses``) without touching a session — the
        restart/resume fast path.  Freshly computed reports are persisted
        (idempotently) before returning.
        """
        if isinstance(request, dict):
            request = AttackRequest.from_dict(request)
        request.validate()
        fingerprint = stored = None
        if self.store is not None:
            fingerprint = self.fingerprint(request.corpus)
            if self.store.persistent:
                stored = self.store.reports.lookup(fingerprint, request, tenant=tenant)
        with self._lock:
            # counted before the run (even before the session opens), so a
            # failed attack still counts
            self.attacks += 1
            session = None if stored is not None else self.session_for(request)
            self._note_use(tenant, request, reused=stored is not None)
        # run outside the engine lock: requests on *different* splits
        # proceed concurrently, same-split requests serialize on their
        # session's own lock
        report = stored if stored is not None else session.run(request)
        self._persist(report, fingerprint, tenant, fresh=stored is None)
        if stored is None:
            self.enforce_cache_budget()
        return report

    def record_reports(self, reports, tenant: str = DEFAULT_TENANT) -> None:
        """Account reports computed in worker processes as :meth:`attack`
        accounts a fresh run: count each attack, note the tenant's use,
        then (with a store) record the report and bump the tenant's
        durable ``attacks`` counter.

        The process-backend sweep executor calls this with the merged
        batch, because its workers have no engine or store of their own.
        """
        with self._lock:
            self.attacks += len(reports)
            for report in reports:
                self._note_use(tenant, report.request, reused=False)
        for report in reports:
            fingerprint = self.fingerprint(report.request.corpus)
            self._persist(report, fingerprint, tenant, fresh=True)

    def _note_use(self, tenant: str, request: AttackRequest, reused: bool) -> None:
        """Report-reuse and per-tenant accounting of one attack (caller
        holds the engine lock)."""
        usage = self._tenant_usage.setdefault(
            tenant, {"attacks": 0, "report_reuses": 0, "sessions": set()}
        )
        if reused:
            self.report_reuses += 1
            usage["report_reuses"] += 1
        else:
            usage["attacks"] += 1
        usage["sessions"].add((self._corpora[request.corpus][0], request.split_key()))

    def _persist(self, report, fingerprint, tenant: str, fresh: bool) -> None:
        """Record a fresh ``report``, then bump ``tenant``'s durable
        ``attacks`` counter; no-op without a store."""
        if self.store is None:
            return
        if fresh:
            self.store.reports.record(report, fingerprint, tenant=tenant)
        self.store.bump_tenant(tenant, "attacks")

    def sweep(
        self,
        requests,
        parallel: "int | None" = 1,
        backend: str = "process",
        tenant: str = DEFAULT_TENANT,
    ) -> list:
        """Run a batch of variants; same-split requests share one session.

        ``parallel`` is the worker count for the sharded executor
        (``None``/0 = one worker per available core).  With ``parallel=1``
        the sweep runs serially in-process; either way the whole batch is
        validated up front and reports come back in input order, with every
        non-volatile field identical between the two paths (see
        :mod:`repro.api.executor` for the determinism guarantee).
        """
        from repro.api.executor import SweepExecutor

        return SweepExecutor(
            self, workers=parallel, backend=backend, tenant=tenant
        ).execute(requests)

    # --- cache budget -----------------------------------------------------

    def _extraction_cache(self) -> "ExtractionCache | None":
        return getattr(self.extractor, "cache", None)

    def _cache_bytes_total(self) -> int:
        """Accounted cache bytes: per-session similarity matrices + refined
        post matrices, plus the shared extraction cache."""
        total = sum(
            session.cache_nbytes() for session in self._sessions.values()
        )
        extraction = self._extraction_cache()
        return total + (extraction.nbytes() if extraction is not None else 0)

    def enforce_cache_budget(self) -> int:
        """Evict caches until accounted bytes fit ``cache_budget_bytes``.

        Eviction order is least-recently-used session first (the session
        LRU the engine already maintains), similarity caches before the
        shared extraction cache — a hot session's matrices survive as long
        as anything colder can be dropped instead.  One exception keeps
        that promise honest: when the extraction cache *alone* exceeds the
        budget, no amount of session eviction can help, so it is dropped
        first instead of churning every session's matrices pointlessly.
        Returns the number of caches cleared.  No-op when no budget is
        set.  Best-effort by design: a session mid-fit may re-insert an
        entry right after the sweep, which the next enforcement pass will
        see.
        """
        if self.cache_budget_bytes is None:
            return 0
        with self._lock:
            budget = self.cache_budget_bytes
            caches = [
                (session.cache_nbytes, session.drop_caches)
                for session in self._sessions.values()
            ]
            extraction = self._extraction_cache()
            if extraction is not None:
                entry = (extraction.nbytes, extraction.clear)
                first = [entry] if extraction.nbytes() > budget else []
                caches = first + caches + [entry]
            cleared = 0
            for nbytes, clear in caches:
                if self._cache_bytes_total() <= budget:
                    break
                if nbytes() > 0:
                    clear()
                    cleared += 1
            self.cache_budget_evictions += cleared
        return cleared

    def linkage(self, users: int = 300, seed: int = 0) -> dict:
        """Run the NameLink/AvatarLink campaign; JSON-friendly summary."""
        from repro.experiments.linkage_exp import run_linkage_experiment

        if users < 1:
            raise ConfigError(f"users must be >= 1, got {users}")
        result = run_linkage_experiment(n_users=users, seed=seed)
        report = result.report
        return {
            "users": report.n_users,
            "name_linked": report.n_name_linked,
            "avatar_targets": report.n_avatar_targets,
            "avatar_linked": report.n_avatar_linked,
            "avatar_link_rate": report.avatar_link_rate,
            "overlap_both_tools": len(report.overlap_ids),
            "multi_service_fraction": report.multi_service_fraction,
            "name_precision": report.name_precision,
            "avatar_precision": report.avatar_precision,
            "summary": report.summary_lines(),
        }

    # --- introspection --------------------------------------------------

    def stats(self) -> dict:
        """Engine-wide, JSON-safe view of corpora, sessions, and caches."""
        from repro import __version__

        with self._lock:
            sessions = [
                {**self._session_meta[key], **session.stats()}
                for key, session in self._sessions.items()
            ]
            extraction = self._extraction_cache()
            # engine-wide per-policy blocking view: every session's mask
            # builds folded together, so a long-running `serve` can watch
            # candidate generation without walking the session list
            blocking: dict = {}
            for stats in sessions:
                for entry in stats["blocking"]:
                    agg = blocking.setdefault(
                        entry["policy"],
                        {"masks_built": 0, "candidates": 0, "generation_s": 0.0},
                    )
                    agg["masks_built"] += entry["masks_built"]
                    agg["candidates"] += entry["candidates"]
                    agg["generation_s"] += entry["generation_s"]
            # engine-wide refined pre-rank accounting (runs with
            # refined_keep_fraction < 1.0 across every live session)
            refined_prerank = {"users": 0, "candidates_in": 0, "candidates_kept": 0}
            for stats in sessions:
                for key in refined_prerank:
                    refined_prerank[key] += stats["refined_prerank"][key]
            # per-tenant view: attack/reuse counters plus cache-byte
            # attribution — every still-live session a tenant has touched
            # contributes its bytes to that tenant (overlapping tenants
            # each see the shared session's full bytes; the engine-wide
            # totals above remain the non-overlapping truth)
            tenants = {
                tenant: {
                    "attacks": usage["attacks"],
                    "report_reuses": usage["report_reuses"],
                    "sessions": sum(
                        1 for key in usage["sessions"] if key in self._sessions
                    ),
                    "cache_bytes": sum(
                        self._sessions[key].cache_nbytes()
                        for key in usage["sessions"]
                        if key in self._sessions
                    ),
                }
                for tenant, usage in sorted(self._tenant_usage.items())
            }
            return {
                "version": __version__,
                "attacks": self.attacks,
                "report_reuses": self.report_reuses,
                "session_hits": self.session_hits,
                "session_evictions": self.session_evictions,
                "max_sessions": self.max_sessions,
                "store": (
                    None if self.store is None else self.store.describe()
                ),
                "tenants": tenants,
                "cache_bytes": sum(s["similarity_bytes"] for s in sessions),
                "post_matrix_bytes": sum(
                    s["post_matrix_bytes"] for s in sessions
                ),
                "cache_budget_bytes": self.cache_budget_bytes,
                "cache_budget_evictions": self.cache_budget_evictions,
                "blocking": blocking,
                "refined_prerank": refined_prerank,
                "extraction": (
                    extraction.counters() if extraction is not None else None
                ),
                "corpora": {
                    name: self.describe(name) for name in self.corpus_names
                },
                "sessions": sessions,
            }
