"""Stdlib-WSGI JSON service over the attack engine.

Routes (all request/response bodies are JSON):

=======  =============  ===================================================
method   path           behaviour
=======  =============  ===================================================
GET      /healthz       liveness + version
GET      /stats         engine + service stats: corpora, sessions, caches,
                        ``uptime_s``, job-queue depth/throughput, per-tenant
                        blocks, overload/limiter/breaker state, and the
                        state-store summary
POST     /generate      generate + register a synthetic corpus
POST     /corpora       register a corpus from canonical JSONL
                        (``{"name": ..., "jsonl": ...}``), with hard caps
                        on users/posts and structured 400s for malformed
                        records
POST     /attack        run one :class:`~repro.api.AttackRequest`; with
                        ``"async": true`` returns ``202 {"job_id": ...}``
POST     /sweep         run a matrix (explicit list or base × grid
                        expansion); ``"workers": N`` shards it across
                        threads, ``"async": true`` runs it as a background
                        job instead (shard-serial, per-shard progress)
POST     /linkage       run the NameLink/AvatarLink campaign
GET      /reports       stored attack reports, newest first (``?limit=``,
                        ``?fingerprint=`` filters)
GET      /reports/<id>  one stored report with its canonical JSON payload
GET      /jobs          background jobs, newest first (``?limit=``)
GET      /jobs/<id>     job state/progress/result (queued → running →
                        done | failed | cancelled, shard counters, attempts,
                        partial results)
DELETE   /jobs/<id>     cooperative cancel: a queued job terminalizes
                        immediately, a running one stops at the next shard
                        boundary (409 when already terminal)
=======  =============  ===================================================

Every route is tenant-scoped through the optional ``X-Tenant`` header
(default tenant otherwise): reports and jobs are partitioned per tenant,
quotas apply per tenant, and ``GET /stats`` breaks usage out per tenant.

The app always runs over a :class:`repro.store.StateStore` — in-memory by
default (strictly ephemeral, wire format unchanged), file-backed when the
server was started with ``--state-dir`` (or the engine was given a
persistent store).  Only a *persistent* store changes behaviour beyond
durability: attacks whose report is already stored are answered from the
store without re-fitting, which is how interrupted sweeps resume.

``/attack`` and ``/sweep`` accept the full request schema: the fields of
:class:`~repro.api.AttackRequest`, that is the split fields plus one field
per pipeline knob of :data:`repro.core.config.KNOBS`, the table that
declares each knob's name, default, bound and wire rule once.

Errors come back as ``{"error": {"type": ..., "message": ...}}`` built on
the :mod:`repro.errors` hierarchy: :class:`~repro.errors.ConfigError` (and
malformed JSON) map to 400, :class:`~repro.errors.NotFittedError` to 409,
:class:`~repro.errors.PayloadTooLargeError` to 413,
:class:`~repro.errors.QuotaExceededError` (including the durable token
bucket's :class:`~repro.errors.RateLimitedError`) to 429,
:class:`~repro.errors.DeadlineExceeded` to 504,
:class:`~repro.errors.ServiceBusyError` (admission gate, open circuit
breakers, a draining server, and a store outage at the request counter
or the limiter) to 503, any other :class:`~repro.errors.ReproError` to
422, unknown routes to 404, wrong methods to 405, and unexpected
failures to 500 — always as the JSON envelope, never as an HTML error
page.

Every shed response (413/429/503/504) carries a ``Retry-After`` header;
for 429 it is derived from the rejected tenant's actual token deficit —
how long the durable bucket needs to refill — and for an open circuit
from the remaining cooldown, so clients back off on an honest schedule
instead of a guess.  Retriable sheds (429/503/504) additionally mark the
error envelope ``"retriable": true``; a 413 is not retriable as-is.

The overload posture is configurable per process: ``rate_limit_per_s`` /
``rate_burst`` default the durable per-tenant token buckets (per-tenant
overrides live in the ``tenants`` table and win; buckets are shared by
every server on one ``--state-dir``), ``max_sync_attacks`` /
``admission_wait_s`` bound synchronous attack concurrency,
``request_deadline_s`` defaults a wall-clock watchdog onto sync attack
requests, ``max_body_bytes`` caps request bodies, and
``breaker_threshold`` / ``breaker_cooldown_s`` shape the per-corpus
circuit breakers.
"""

from __future__ import annotations

import json
import math
import re
import threading
import time
from contextlib import contextmanager
from urllib.parse import parse_qs

from repro.api.engine import Engine
from repro.api.executor import MAX_SWEEP_REQUESTS, MAX_WORKERS, expand_matrix
from repro.api.protocol import DEFAULT_TENANT, AttackRequest
from repro.errors import (
    CircuitOpenError,
    ConfigError,
    DeadlineExceeded,
    NotFittedError,
    PayloadTooLargeError,
    QuotaExceededError,
    RateLimitedError,
    ReproError,
    ServiceBusyError,
)
from repro.service.breaker import (
    DEFAULT_BREAKER_COOLDOWN_S,
    DEFAULT_BREAKER_THRESHOLD,
    CircuitBreaker,
)
from repro.store import (
    DEFAULT_LEASE_S,
    FATAL,
    JobRunner,
    RetryPolicy,
    StateStore,
    TenantRateLimiter,
    classify_failure,
)
from repro.testing import faults

_STATUS_LINES = {
    200: "200 OK",
    202: "202 Accepted",
    400: "400 Bad Request",
    404: "404 Not Found",
    405: "405 Method Not Allowed",
    409: "409 Conflict",
    413: "413 Content Too Large",
    422: "422 Unprocessable Entity",
    429: "429 Too Many Requests",
    500: "500 Internal Server Error",
    503: "503 Service Unavailable",
    504: "504 Gateway Timeout",
}

#: Statuses that shed load; every one carries a ``Retry-After`` header.
SHED_STATUSES: tuple = (413, 429, 503, 504)

#: Sheds a client should retry verbatim after backing off (413 is not:
#: the same oversized body will be rejected again).
RETRIABLE_STATUSES: tuple = (429, 503, 504)

#: Cap on the per-request ``workers`` knob of ``POST /sweep``; the engine
#: clamps again at :data:`repro.api.MAX_WORKERS`.
MAX_SERVICE_WORKERS = min(8, MAX_WORKERS)

#: Cap on ``?limit=`` of the ``/reports`` and ``/jobs`` listings.
MAX_LIST_LIMIT = 500

#: Default cap on request bodies (``CONTENT_LENGTH``), bytes.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Cap on the ``users`` knob of ``POST /generate``.
MAX_GENERATE_USERS = 5000

#: Caps on corpora ingested through ``POST /corpora``.
MAX_INGEST_USERS = 20000
MAX_INGEST_POSTS = 200000

#: Default width of the synchronous-attack admission gate and how long an
#: arriving request briefly waits for a slot before being shed with 503.
DEFAULT_MAX_SYNC_ATTACKS = 4
DEFAULT_ADMISSION_WAIT_S = 0.5

#: Tenant names accepted in the ``X-Tenant`` header.
_TENANT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


def _error_status(exc: Exception) -> int:
    if isinstance(exc, ConfigError):
        return 400
    if isinstance(exc, NotFittedError):
        return 409
    if isinstance(exc, PayloadTooLargeError):
        return 413
    if isinstance(exc, QuotaExceededError):
        return 429
    if isinstance(exc, DeadlineExceeded):
        return 504
    if isinstance(exc, ServiceBusyError):
        return 503
    if isinstance(exc, ReproError):
        return 422
    return 500


class DeHealthApp:
    """WSGI application exposing an :class:`~repro.api.Engine` as JSON routes.

    ``state`` is the durable tier (defaults to the engine's attached store,
    else a fresh in-memory :class:`~repro.store.StateStore`); ``job_workers``
    sizes the background-job pool.  Call :meth:`close` — or let the signal
    handlers in :mod:`repro.service.server` do it — to drain jobs and
    checkpoint the store on the way out.
    """

    def __init__(
        self,
        engine: "Engine | None" = None,
        state: "StateStore | None" = None,
        job_workers: int = 2,
        job_lease_s: float = DEFAULT_LEASE_S,
        job_deadline_s: "float | None" = None,
        job_retries: int = RetryPolicy.max_attempts,
        rate_limit_per_s: "float | None" = None,
        rate_burst: "float | None" = None,
        request_deadline_s: "float | None" = None,
        max_sync_attacks: int = DEFAULT_MAX_SYNC_ATTACKS,
        admission_wait_s: float = DEFAULT_ADMISSION_WAIT_S,
        max_body_bytes: int = MAX_BODY_BYTES,
        breaker_threshold: int = DEFAULT_BREAKER_THRESHOLD,
        breaker_cooldown_s: float = DEFAULT_BREAKER_COOLDOWN_S,
    ) -> None:
        if max_sync_attacks < 1:
            raise ConfigError(
                f"max_sync_attacks must be >= 1, got {max_sync_attacks}"
            )
        if admission_wait_s < 0:
            raise ConfigError(
                f"admission_wait_s must be >= 0, got {admission_wait_s}"
            )
        if max_body_bytes < 1:
            raise ConfigError(
                f"max_body_bytes must be >= 1, got {max_body_bytes}"
            )
        if request_deadline_s is not None and request_deadline_s <= 0:
            raise ConfigError(
                f"request_deadline_s must be > 0 or None, "
                f"got {request_deadline_s}"
            )
        self.engine = engine or Engine()
        engine_store = getattr(self.engine, "store", None)
        if (
            state is not None
            and engine_store is not None
            and state is not engine_store
        ):
            raise ConfigError(
                "engine already has a state store; pass either, not both"
            )
        self.state = state or engine_store or StateStore(None)
        if engine_store is None:
            self.engine.attach_store(self.state)
        self.runner = JobRunner(
            self.engine,
            self.state,
            workers=job_workers,
            lease_s=job_lease_s,
            deadline_s=job_deadline_s,
            retry=RetryPolicy(max_attempts=job_retries),
        )
        # overload posture: durable per-tenant token buckets (shared by
        # every server on this state database), a bounded admission gate
        # for synchronous attacks, per-corpus circuit breakers, and a
        # default wall-clock watchdog for sync attack requests
        self.limiter = TenantRateLimiter(
            self.state, refill_per_s=rate_limit_per_s, burst=rate_burst
        )
        self.breaker = CircuitBreaker(
            threshold=breaker_threshold, cooldown_s=breaker_cooldown_s
        )
        self.request_deadline_s = request_deadline_s
        self.max_sync_attacks = max_sync_attacks
        self.admission_wait_s = admission_wait_s
        self.max_body_bytes = max_body_bytes
        self._gate = threading.BoundedSemaphore(max_sync_attacks)
        self._overload_lock = threading.Lock()
        self._sync_active = 0
        self._shed_counts = {status: 0 for status in SHED_STATUSES}
        self.started = time.monotonic()
        self._closed = False
        self._routes = {
            ("GET", "/healthz"): self._healthz,
            ("GET", "/stats"): self._stats,
            ("POST", "/generate"): self._generate,
            ("POST", "/corpora"): self._corpora_upload,
            ("POST", "/attack"): self._attack,
            ("POST", "/sweep"): self._sweep,
            ("POST", "/linkage"): self._linkage,
            ("GET", "/reports"): self._reports_list,
            ("GET", "/jobs"): self._jobs_list,
        }
        self._paths = {path for _, path in self._routes}
        # prefix routes carry a trailing id segment: ("/reports/5", "GET")
        self._prefix_routes = {
            "/reports/": {"GET": self._report_get},
            "/jobs/": {"GET": self._job_get, "DELETE": self._job_cancel},
        }

    # --- lifecycle ------------------------------------------------------

    def close(self, drain_s: float = 5.0) -> "dict | None":
        """Drain the job pool and close the state store (idempotent).

        Returns the runner's drain summary, or ``None`` when already
        closed.  After closing, requests are answered with 503.
        """
        if self._closed:
            return None
        self._closed = True
        summary = self.runner.shutdown(drain_s=drain_s)
        self.state.close()
        return summary

    # --- WSGI entry -----------------------------------------------------

    def __call__(self, environ, start_response):
        method = environ.get("REQUEST_METHOD", "GET").upper()
        path = environ.get("PATH_INFO", "/") or "/"
        try:
            if self._closed:
                status, payload = 503, self._error_payload(
                    "ServiceUnavailable", "server is shutting down"
                )
            else:
                tenant = self._tenant(environ)
                self._shed_outage(
                    "request counter", self.state.bump_tenant, tenant, "requests"
                )
                handler, args, status_hint = self._dispatch(method, path)
                if handler is None:
                    status, payload = status_hint, self._error_payload(
                        "MethodNotAllowed"
                        if status_hint == 405
                        else "NotFound",
                        f"{method} not allowed on {path}"
                        if status_hint == 405
                        else f"no route for {path}",
                    )
                else:
                    status, payload = handler(environ, tenant, *args)
            exc = None
        except Exception as caught:  # noqa: BLE001 — mapped to structured errors
            exc = caught
            status = _error_status(exc)
            payload = self._error_payload(type(exc).__name__, str(exc))
        headers = [("Content-Type", "application/json; charset=utf-8")]
        if status in SHED_STATUSES:
            # machine-readable backpressure: every shed carries an honest
            # Retry-After (token deficit, breaker cooldown, ...) so clients
            # retry on a schedule instead of parsing error prose
            if (
                status in RETRIABLE_STATUSES
                and isinstance(payload, dict)
                and isinstance(payload.get("error"), dict)
            ):
                payload["error"]["retriable"] = True
            headers.append(("Retry-After", str(self._retry_after(status, exc))))
            with self._overload_lock:
                self._shed_counts[status] += 1
        body = json.dumps(payload, indent=None, sort_keys=True).encode("utf-8")
        headers.append(("Content-Length", str(len(body))))
        start_response(_STATUS_LINES[status], headers)
        return [body]

    def _retry_after(self, status: int, exc: "Exception | None" = None) -> int:
        """Seconds a shed (413/429/503/504) client should wait to retry.

        Exceptions that know their own wait — the token bucket's deficit,
        an open breaker's remaining cooldown, the admission gate — win;
        the fallbacks are static per status except 429, which scales with
        queue depth.
        """
        hinted = getattr(exc, "retry_after_s", None)
        if hinted is not None:
            return max(1, min(3600, math.ceil(hinted)))
        if status == 503:
            return 5
        if status == 429:
            try:
                depth = self.state.jobs.active_count()
                return max(1, min(60, math.ceil(depth / max(1, self.runner.workers))))
            except Exception:  # noqa: BLE001 — a hint, never a failure source
                return 1
        return 1

    def _dispatch(self, method: str, path: str):
        """Resolve (handler, extra args, error-status hint) for a request."""
        handler = self._routes.get((method, path))
        if handler is not None:
            return handler, (), 200
        if path in self._paths:
            return None, (), 405
        for prefix, methods in self._prefix_routes.items():
            if path.startswith(prefix):
                rest = path[len(prefix):]
                if not rest or "/" in rest:
                    return None, (), 404
                prefix_handler = methods.get(method)
                if prefix_handler is None:
                    return None, (), 405
                return prefix_handler, (rest,), 200
        return None, (), 404

    @staticmethod
    def _tenant(environ) -> str:
        tenant = environ.get("HTTP_X_TENANT", DEFAULT_TENANT)
        if not isinstance(tenant, str) or not _TENANT_RE.match(tenant):
            raise ConfigError(
                "X-Tenant must be 1-64 characters of [A-Za-z0-9._-] "
                "starting alphanumeric"
            )
        return tenant

    @staticmethod
    def _error_payload(kind: str, message: str) -> dict:
        return {"error": {"type": kind, "message": message}}

    def _read_json(self, environ) -> dict:
        """Parse the request body, enforcing the ``CONTENT_LENGTH`` cap.

        A missing or empty length means no body (``{}``); a garbage or
        negative length is a structured 400; a length over
        ``max_body_bytes`` is a 413 *before a single body byte is read*,
        so an oversized upload cannot occupy the worker.
        """
        declared = environ.get("CONTENT_LENGTH")
        if declared is None or declared == "":
            return {}
        try:
            length = int(declared)
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"CONTENT_LENGTH must be an integer, got {declared!r}"
            ) from exc
        if length < 0:
            raise ConfigError(
                f"CONTENT_LENGTH must be >= 0, got {length}"
            )
        if length > self.max_body_bytes:
            raise PayloadTooLargeError(
                f"request body of {length} bytes exceeds the "
                f"{self.max_body_bytes}-byte cap"
            )
        raw = environ["wsgi.input"].read(length) if length > 0 else b""
        if not raw:
            return {}
        try:
            payload = json.loads(raw)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"malformed JSON body: {exc}") from exc
        if not isinstance(payload, dict):
            raise ConfigError(
                f"JSON body must be an object, got {type(payload).__name__}"
            )
        return payload

    # --- overload controls ----------------------------------------------

    @staticmethod
    def _shed_outage(what: str, call, *args, **kwargs):
        """``call(*args, **kwargs)``, shedding a store outage as a 503.

        A store write that fails with anything but a
        :class:`ReproError` (``database is locked``, a full disk) means
        the state database is unavailable, so the request is shed with a
        retriable 503 rather than a 500: honest overload beats a
        success-rate lie in either direction.
        """
        try:
            return call(*args, **kwargs)
        except ReproError:
            raise
        except Exception as exc:  # noqa: BLE001 — store outage != bug
            raise ServiceBusyError(
                f"{what} unavailable: {exc}", retry_after_s=1.0
            ) from exc

    def _charge(self, tenant: str, cost: float = 1.0) -> None:
        """Debit ``cost`` tokens from the tenant's durable bucket.

        Raises :class:`RateLimitedError` (429, deficit-derived
        ``Retry-After``) when the bucket cannot cover the cost, and sheds
        a limiter outage with a retriable 503.
        """
        decision = self._shed_outage(
            "rate limiter", self.limiter.acquire, tenant, cost=cost
        )
        if not decision.allowed:
            raise RateLimitedError(
                f"tenant {tenant!r} is over its request budget "
                f"({decision.tokens:.2f} tokens available, {cost:g} needed)",
                retry_after_s=decision.retry_after_s,
            )

    @contextmanager
    def _admission(self):
        """Context manager: one bounded slot for a synchronous attack.

        Waits briefly (``admission_wait_s``) for a slot, then sheds with a
        retriable 503 — the worker never queues unboundedly behind long
        fits.  The chaos seam fires *after* admission so injected faults
        hit admitted requests exactly where real execution stalls would.
        """
        if not self._gate.acquire(timeout=self.admission_wait_s):
            raise ServiceBusyError(
                f"all {self.max_sync_attacks} synchronous attack slots are "
                f"busy (waited {self.admission_wait_s:g}s)",
                retry_after_s=2.0,
            )
        with self._overload_lock:
            self._sync_active += 1
        try:
            # chaos seam: fires after admission, before execution —
            # injected delays occupy a real slot (driving admission sheds),
            # and injected errors surface as a retriable 503, never a 500
            try:
                faults.fire(faults.SEAM_REQUEST)
            except ReproError:
                raise
            except BaseException as exc:
                raise ServiceBusyError(
                    f"request path interrupted: {exc}", retry_after_s=1.0
                ) from exc
            yield
        finally:
            with self._overload_lock:
                self._sync_active -= 1
            self._gate.release()

    @contextmanager
    def _sync_run(self, tenant: str, requests: list):
        """Admit a synchronous run of ``requests``; yields them with the
        service's default deadline applied.

        Corpus resolution comes *before* the charge and the breaker: a
        request for an unknown corpus 400s without burning budget or
        counting against a corpus.  The charge is one token per request,
        so N attacks through /sweep and through /attack drain the bucket
        alike.  The run's outcome feeds the per-corpus breakers.
        """
        fingerprints = sorted(set(self._fingerprints(requests)))
        self._charge(tenant, cost=float(len(requests)))
        for index, fingerprint in enumerate(fingerprints):
            try:
                self.breaker.allow(fingerprint)
            except CircuitOpenError:
                # release any half-open probe this run took for an earlier
                # corpus, or that corpus answers 503 until a restart
                for allowed in fingerprints[:index]:
                    self.breaker.abandon(allowed)
                raise
        requests = [self._with_deadline(request) for request in requests]
        try:
            with self._admission():
                yield requests
        except Exception as exc:
            self._record_outcome(fingerprints, exc)
            raise
        self._record_outcome(fingerprints, None)

    def _submit(self, tenant: str, kind: str, body: dict, requests: list) -> str:
        """Queue ``body`` as a background job once its corpora resolve and
        its tokens (one per request) are paid; returns the job id."""
        self._fingerprints(requests)
        self._charge(tenant, cost=float(len(requests)))
        return self.runner.submit(kind, body, tenant=tenant)

    def _fingerprints(self, requests) -> list:
        """Resolve each request's corpus fingerprint, failing fast (400).

        Before rejecting, refresh the registry from the shared store once:
        with several processes on one ``--state-dir``, the corpus may have
        been registered through a sibling after this engine attached.
        """
        refreshed = False
        fingerprints = []
        for request in requests:
            try:
                fingerprints.append(self.engine.fingerprint(request.corpus))
            except ConfigError:
                if refreshed or not self.engine.refresh_corpora():
                    raise
                refreshed = True
                fingerprints.append(self.engine.fingerprint(request.corpus))
        return fingerprints

    def _with_deadline(self, request: AttackRequest) -> AttackRequest:
        """Apply the service's default watchdog unless the request set one."""
        if self.request_deadline_s is None or request.request_deadline_s is not None:
            return request
        return request.variant(request_deadline_s=self.request_deadline_s)

    def _record_outcome(self, fingerprints, exc: "Exception | None") -> None:
        """Feed a sync run's outcome to the per-corpus circuit breakers.

        Only deterministic (FATAL-classified) failures count against a
        corpus, and only when the run involved exactly one corpus — a
        multi-corpus sweep's failure cannot be attributed.  Deadline
        expiry is load, not poison: it releases any half-open probe
        without judgment, as do transient failures.
        """
        if exc is None:
            for fingerprint in fingerprints:
                self.breaker.record_success(fingerprint)
            return
        fatal = (
            not isinstance(exc, DeadlineExceeded)
            and isinstance(exc, ReproError)
            and classify_failure(exc) == FATAL
        )
        if fatal and len(fingerprints) == 1:
            self.breaker.record_failure(fingerprints[0])
        else:
            for fingerprint in fingerprints:
                self.breaker.abandon(fingerprint)

    @staticmethod
    def _only_keys(payload: dict, allowed: tuple) -> None:
        unknown = set(payload) - set(allowed)
        if unknown:
            raise ConfigError(
                f"unknown fields: {sorted(unknown)}; allowed: {sorted(allowed)}"
            )

    @staticmethod
    def _users_and_seed(body: dict) -> tuple:
        """The ``users`` and ``seed`` fields of /generate and /linkage."""
        try:
            users = int(body.get("users", 300))
            seed = int(body.get("seed", 0))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"users and seed must be integers: {exc}") from exc
        if users > MAX_GENERATE_USERS:
            raise ConfigError(
                f"users must be <= {MAX_GENERATE_USERS}, got {users}"
            )
        return users, seed

    @staticmethod
    def _corpus_name(body: dict) -> "str | None":
        """The optional ``name`` field of /generate and /corpora."""
        name = body.get("name")
        if name is not None and (
            not isinstance(name, str) or not 1 <= len(name) <= 128
        ):
            raise ConfigError(
                f"name must be a string of 1-128 characters, got {name!r}"
            )
        return name

    @staticmethod
    def _pop_async(body: dict) -> bool:
        """Validate and remove the ``"async"`` flag from a request body."""
        flag = body.pop("async", False)
        if not isinstance(flag, bool):
            raise ConfigError(f"async must be a boolean, got {flag!r}")
        return flag

    @staticmethod
    def _query(environ) -> dict:
        return parse_qs(environ.get("QUERY_STRING", "") or "")

    @classmethod
    def _limit(cls, query: dict) -> int:
        raw = query.get("limit", ["50"])[-1]
        try:
            limit = int(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"limit must be an integer, got {raw!r}") from exc
        if not 1 <= limit <= MAX_LIST_LIMIT:
            raise ConfigError(
                f"limit must be in [1, {MAX_LIST_LIMIT}], got {limit}"
            )
        return limit

    # --- handlers -------------------------------------------------------

    def _healthz(self, environ, tenant) -> tuple:
        from repro import __version__

        return 200, {
            "status": "ok",
            "version": __version__,
            "corpora": self.engine.corpus_names,
        }

    def _stats(self, environ, tenant) -> tuple:
        stats = self.engine.stats()
        stats["uptime_s"] = round(time.monotonic() - self.started, 3)
        stats["jobs"] = self.runner.counters()
        # durable fault-tolerance counters, surfaced on their own so
        # operators can watch reclaim/retry/prune rates across restarts
        stats["resilience"] = self.state.resilience_counters()
        # merge the durable per-tenant counters (requests, submitted jobs,
        # stored rows) into the engine's in-memory usage/attribution blocks
        tenants = stats.get("tenants") or {}
        durable = self.state.tenant_counters()
        reports_by_tenant = self.state.reports.count_by_tenant()
        jobs_by_tenant = self.state.jobs.count_by_tenant()
        for name in set(tenants) | set(durable) | set(reports_by_tenant) | set(
            jobs_by_tenant
        ):
            block = tenants.setdefault(
                name,
                {
                    "attacks": 0,
                    "report_reuses": 0,
                    "sessions": 0,
                    "cache_bytes": 0,
                },
            )
            counters = durable.get(name, {})
            block["requests"] = counters.get("requests", 0)
            block["jobs_submitted"] = counters.get("jobs_submitted", 0)
            block["attacks_total"] = counters.get("attacks", 0)
            block["reports"] = reports_by_tenant.get(name, 0)
            block["jobs"] = jobs_by_tenant.get(name, 0)
        stats["tenants"] = tenants
        with self._overload_lock:
            sync_active = self._sync_active
            shed = {str(status): n for status, n in self._shed_counts.items()}
        stats["overload"] = {
            "limiter": self.limiter.describe(),
            "breaker": self.breaker.describe(),
            "max_sync_attacks": self.max_sync_attacks,
            "admission_wait_s": self.admission_wait_s,
            "sync_active": sync_active,
            "request_deadline_s": self.request_deadline_s,
            "max_body_bytes": self.max_body_bytes,
            "shed": shed,
        }
        return 200, stats

    def _generate(self, environ, tenant) -> tuple:
        body = self._read_json(environ)
        self._only_keys(body, ("preset", "users", "seed", "name"))
        users, seed = self._users_and_seed(body)
        name = self._corpus_name(body)
        self._charge(tenant)
        summary = self.engine.generate(
            preset=body.get("preset", "webmd"),
            users=users,
            seed=seed,
            name=name,
        )
        return 200, summary

    def _corpora_upload(self, environ, tenant) -> tuple:
        from repro.forum.store import loads_dataset

        body = self._read_json(environ)
        self._only_keys(body, ("name", "jsonl"))
        jsonl = body.get("jsonl")
        if not isinstance(jsonl, str) or not jsonl.strip():
            raise ConfigError("jsonl must be a non-empty string of JSONL")
        name = self._corpus_name(body)
        self._charge(tenant)
        dataset = loads_dataset(
            jsonl,
            source="request body",
            max_users=MAX_INGEST_USERS,
            max_posts=MAX_INGEST_POSTS,
        )
        return 200, self.engine.register(name or dataset.name, dataset)

    def _attack(self, environ, tenant) -> tuple:
        body = self._read_json(environ)
        run_async = self._pop_async(body)
        request = AttackRequest.from_dict(body).validate()
        if run_async:
            job_id = self._submit(tenant, "attack", body, [request])
            return 202, {"job_id": job_id, "state": "queued", "kind": "attack"}
        with self._sync_run(tenant, [request]) as (request,):
            report = self.engine.attack(request, tenant=tenant)
        return 200, report.to_dict()

    def _sweep(self, environ, tenant) -> tuple:
        body = self._read_json(environ)
        run_async = self._pop_async(body)
        self._only_keys(body, ("requests", "base", "grid", "workers"))
        workers = body.pop("workers", 1)
        if workers is None or isinstance(workers, bool) or not isinstance(workers, int):
            raise ConfigError(f"workers must be an integer, got {workers!r}")
        if not 1 <= workers <= MAX_SERVICE_WORKERS:
            raise ConfigError(
                f"workers must be in [1, {MAX_SERVICE_WORKERS}], got {workers}"
            )
        requests = expand_matrix(body, max_requests=MAX_SWEEP_REQUESTS)
        if run_async:
            # background job: shard-serial execution (per-shard progress,
            # canonical reports byte-identical to this synchronous path)
            job_id = self._submit(tenant, "sweep", body, requests)
            return 202, {
                "job_id": job_id,
                "state": "queued",
                "kind": "sweep",
                "shards_total": len(requests),
            }
        # thread backend, deliberately: the server is multi-threaded, and
        # forking a multi-threaded process (the process backend's fork
        # start method) can deadlock the children; threads also land the
        # fitted sessions in this engine's cache for later requests.
        with self._sync_run(tenant, requests) as requests:
            reports = self.engine.sweep(
                requests, parallel=workers, backend="thread", tenant=tenant
            )
        return 200, {
            "count": len(reports),
            "workers": workers,
            "reports": [report.to_dict() for report in reports],
        }

    def _linkage(self, environ, tenant) -> tuple:
        body = self._read_json(environ)
        self._only_keys(body, ("users", "seed"))
        users, seed = self._users_and_seed(body)
        self._charge(tenant)
        return 200, self.engine.linkage(users=users, seed=seed)

    # --- durable-tier handlers ------------------------------------------

    def _reports_list(self, environ, tenant) -> tuple:
        query = self._query(environ)
        fingerprint = query.get("fingerprint", [None])[-1]
        reports = self.state.reports.list(
            tenant=tenant, fingerprint=fingerprint, limit=self._limit(query)
        )
        return 200, {"count": len(reports), "reports": reports}

    def _report_get(self, environ, tenant, report_id: str) -> tuple:
        try:
            numeric_id = int(report_id)
        except ValueError:
            return 404, self._error_payload(
                "NotFound", f"no report {report_id!r}"
            )
        payload = self.state.reports.fetch(numeric_id, tenant=tenant)
        if payload is None:
            return 404, self._error_payload(
                "NotFound", f"no report {report_id!r} for tenant {tenant!r}"
            )
        return 200, payload

    def _jobs_list(self, environ, tenant) -> tuple:
        jobs = self.state.jobs.list(
            tenant=tenant, limit=self._limit(self._query(environ))
        )
        return 200, {"count": len(jobs), "jobs": jobs}

    def _job_get(self, environ, tenant, job_id: str) -> tuple:
        payload = self.state.jobs.get(job_id, tenant=tenant)
        if payload is None:
            return 404, self._error_payload(
                "NotFound", f"no job {job_id!r} for tenant {tenant!r}"
            )
        return 200, payload

    def _job_cancel(self, environ, tenant, job_id: str) -> tuple:
        outcome = self.state.jobs.request_cancel(job_id, tenant=tenant)
        if outcome is None:
            return 404, self._error_payload(
                "NotFound", f"no job {job_id!r} for tenant {tenant!r}"
            )
        if not outcome["changed"]:
            return 409, self._error_payload(
                "Conflict", f"job {job_id} is already {outcome['state']}"
            )
        return 200, {"job_id": job_id, "state": outcome["state"]}


#: The application factory: ``create_app(engine, state=..., ...)`` is
#: :class:`DeHealthApp` itself, so each app option is declared once.
create_app = DeHealthApp
