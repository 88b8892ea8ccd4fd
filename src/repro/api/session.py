"""Cache-aware execution of attack variants over one fixed Δ1/Δ2 split.

An :class:`AttackSession` owns every expensive artifact of a graph pair —
the extracted UDA graphs (feature extraction), the similarity component
matrices, and the refined phase's per-user post matrices — so a sweep over
``top_k``, ``selection``, ``classifier``, weights, or verification settings
pays for each artifact exactly once.  Build/hit counters expose the reuse.
"""

from __future__ import annotations

import threading
import time

from repro.api.protocol import AttackReport, AttackRequest
from repro.core.deadline import deadline_scope
from repro.core.pipeline import DeHealth
from repro.core.similarity import SimilarityCache
from repro.errors import ConfigError
from repro.forum.models import ForumDataset
from repro.forum.split import SplitResult, closed_world_split, open_world_split
from repro.stylometry.extractor import FeatureExtractor


class PostMatrixCache:
    """Per-user post-matrix store with O(1) byte accounting.

    Its consumer (:class:`~repro.core.RefinedDeanonymizer`) reads it with
    ``get`` and writes it by item assignment.  ``nbytes_total`` is a
    running byte total, so the engine's ``cache_budget_bytes`` enforcement
    can account the refined phase's matrices without iterating a dict that
    another thread may be filling mid-run; those two, ``len`` and
    ``clear`` are the only ways in, so nothing bypasses the count.
    """

    def __init__(self) -> None:
        self._matrices: dict = {}
        self.nbytes_total = 0

    def get(self, key):
        return self._matrices.get(key)

    def __setitem__(self, key, value) -> None:
        previous = self._matrices.get(key)
        if previous is not None:
            self.nbytes_total -= int(previous.nbytes)
        self.nbytes_total += int(value.nbytes)
        self._matrices[key] = value

    def __len__(self) -> int:
        return len(self._matrices)

    def clear(self) -> None:
        self.nbytes_total = 0
        self._matrices.clear()


class AttackSession:
    """Runs :class:`AttackRequest` variants against one split, with caching.

    The session is keyed by its split: every request routed here must agree
    on the dataset and split parameters (the :class:`~repro.api.Engine`
    guarantees that).  Only the attack knobs may vary between requests.
    """

    def __init__(
        self,
        split: SplitResult,
        extractor: "FeatureExtractor | None" = None,
        split_spec: "tuple | None" = None,
        extract_workers: int = 1,
    ) -> None:
        self.split = split
        # ``split_spec`` is the (world, param, seed) identity of the split
        # when known (sessions built via from_dataset); ``run`` rejects
        # requests whose split fields disagree with it, so reports never
        # carry provenance for a split that was not actually used.  Direct
        # constructor callers with custom splits leave it None.
        self.split_spec = split_spec
        self.extractor = extractor or FeatureExtractor()
        # Pool width of the phase-0 extraction when this session builds its
        # UDA graphs; a pure performance knob (output is byte-identical at
        # any width), so requests differing only here share the session.
        self.extract_workers = extract_workers
        # One lock per session: concurrent callers (threaded sweeps, the
        # threading WSGI server) serialize on the session so the fit and
        # every artifact cache stay consistent — one fit per split, ever.
        self._lock = threading.RLock()
        self._graphs = None
        self._similarity_cache = SimilarityCache()
        self._post_caches: dict = {}
        self.graph_builds = 0
        self.graph_hits = 0
        self.runs = 0
        # Cumulative refined pre-rank accounting across runs: how many
        # candidates phase 2 would have classified vs how many it did
        # (only runs with refined_keep_fraction < 1.0 contribute).
        self.refined_prerank = {
            "users": 0,
            "candidates_in": 0,
            "candidates_kept": 0,
        }

    @classmethod
    def from_dataset(
        cls,
        dataset: ForumDataset,
        request: AttackRequest,
        extractor: "FeatureExtractor | None" = None,
    ) -> "AttackSession":
        """Split ``dataset`` as ``request`` names (its world, fraction and
        split seed) and open a session over the split at the request's
        ``extract_workers``."""
        if request.world == "closed":
            split = closed_world_split(
                dataset, aux_fraction=request.aux_fraction, seed=request.split_seed
            )
        elif request.world == "open":
            split = open_world_split(
                dataset, overlap_ratio=request.overlap_ratio, seed=request.split_seed
            )
        else:
            raise ConfigError(
                f"world must be 'closed' or 'open', got {request.world!r}"
            )
        return cls(
            split,
            extractor=extractor,
            split_spec=request.split_key(),
            extract_workers=request.extract_workers,
        )

    # --- cached artifacts ----------------------------------------------

    @property
    def graphs(self) -> tuple:
        """The (anonymized, auxiliary) UDA graph pair, built once."""
        from repro.graph.uda import UDAGraph

        with self._lock:
            if self._graphs is None:
                self.graph_builds += 1
                self._graphs = (
                    UDAGraph(
                        self.split.anonymized,
                        extractor=self.extractor,
                        extract_workers=self.extract_workers,
                    ),
                    UDAGraph(
                        self.split.auxiliary,
                        extractor=self.extractor,
                        extract_workers=self.extract_workers,
                    ),
                )
            else:
                self.graph_hits += 1
            return self._graphs

    @property
    def similarity_cache(self) -> SimilarityCache:
        return self._similarity_cache

    # --- execution ------------------------------------------------------

    def run(self, request: AttackRequest) -> AttackReport:
        """Execute one attack variant, reusing every cached artifact."""
        request.validate()
        if self.split_spec is not None and request.split_key() != self.split_spec:
            raise ConfigError(
                f"request split {request.split_key()} does not match this "
                f"session's split {self.split_spec}"
            )
        with self._lock:
            # the scope covers lock acquisition's successor stages only —
            # a request that waited out its whole deadline behind another
            # fit still gets caught at the first pipeline boundary
            with deadline_scope(request.request_deadline_s):
                return self._run_checked(request)

    def _run_checked(self, request: AttackRequest) -> AttackReport:
        started = time.perf_counter()
        reused = self._graphs is not None
        anonymized, auxiliary = self.graphs
        caches = self._post_caches.setdefault(
            request.use_structural_features, (PostMatrixCache(), PostMatrixCache())
        )
        attack = DeHealth(request.to_config()).fit(
            anonymized,
            auxiliary,
            extractor=self.extractor,
            similarity_cache=self._similarity_cache,
            post_matrix_caches=caches,
        )
        truth = self.split.truth
        topk = attack.top_k_result(truth)
        success_rates = {
            k: topk.success_rate(k) for k in request.evaluation_ks()
        }
        refined_accuracy = false_positive_rate = rejection_rate = None
        n_correct = None
        if request.refined:
            result = attack.deanonymize()
            refined_accuracy = result.accuracy(truth)
            false_positive_rate = result.false_positive_rate(truth)
            rejection_rate = result.rejection_rate()
            n_correct = result.n_correct(truth)
            for key, value in attack._refined.prerank_stats.items():
                self.refined_prerank[key] += value
        self.runs += 1
        return AttackReport(
            request=request,
            n_anonymized=anonymized.n_users,
            n_auxiliary=auxiliary.n_users,
            n_evaluated=topk.n_evaluated,
            success_rates=success_rates,
            refined_accuracy=refined_accuracy,
            false_positive_rate=false_positive_rate,
            rejection_rate=rejection_rate,
            n_correct=n_correct,
            elapsed_ms=(time.perf_counter() - started) * 1e3,
            reused_fit=reused,
        )

    # --- introspection --------------------------------------------------

    def _post_matrix_caches(self) -> list:
        """Every post-matrix cache, across both sides and flag values."""
        return [
            cache for caches in list(self._post_caches.values()) for cache in caches
        ]

    def post_matrix_entries(self) -> int:
        """Cached per-user post matrices across both sides and flag values."""
        return sum(len(cache) for cache in self._post_matrix_caches())

    def post_matrix_nbytes(self) -> int:
        """Bytes held by the refined phase's cached post matrices."""
        return sum(cache.nbytes_total for cache in self._post_matrix_caches())

    def cache_nbytes(self) -> int:
        """Budget-accounted bytes: similarity cache + post matrices."""
        return self._similarity_cache.nbytes() + self.post_matrix_nbytes()

    def drop_caches(self) -> int:
        """Budget-eviction entry: clear the similarity and post-matrix
        caches *without* the session lock.

        The engine's byte-budget enforcer runs under the engine lock and
        must not wait on a session mid-fit; the similarity cache is
        internally synchronized and the post-matrix caches tolerate a
        racing re-insert (worst case, one matrix is re-extracted), so
        clearing them directly is safe — at worst an in-flight build
        re-inserts its entries afterwards.
        """
        dropped = self._similarity_cache.clear()
        for cache in self._post_matrix_caches():
            dropped += len(cache)
            cache.clear()
        return dropped

    def stats(self) -> dict:
        """Cache counters: graph builds/hits, similarity builds/hits/bytes.

        Deliberately does **not** take the session lock — ``Engine.stats``
        calls this under the engine lock, and waiting on a session mid-fit
        would stall every other engine operation.  The cache snapshots its
        own state under an internal mutex.
        """
        sim = self._similarity_cache.counters()
        return {
            "runs": self.runs,
            "graph_builds": self.graph_builds,
            "graph_hits": self.graph_hits,
            "similarity_builds": sim["builds"],
            "similarity_hits": sim["hits"],
            "similarity_entries": sim["entries"],
            "similarity_bytes": sim["bytes"],
            "post_matrix_entries": self.post_matrix_entries(),
            "post_matrix_bytes": self.post_matrix_nbytes(),
            "blocking": self._similarity_cache.blocking_stats(),
            "refined_prerank": dict(self.refined_prerank),
            "n_anonymized": self.split.anonymized.n_users,
            "n_auxiliary": self.split.auxiliary.n_users,
        }

    def __repr__(self) -> str:
        return (
            f"AttackSession(anon={self.split.anonymized.n_users}, "
            f"aux={self.split.auxiliary.n_users}, runs={self.runs})"
        )
