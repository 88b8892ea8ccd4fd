"""Background attack jobs: leased persistent rows + a fault-tolerant pool.

:class:`JobStore` is the durable side — one row per job with state
(``queued`` → ``running`` → ``done``/``failed``/``cancelled``), shard
progress, and the result payload, so ``GET /jobs/<id>`` answers from the
database and a restarted server still reports every job it ever accepted.

Ownership is **lease-based**: a worker claims the oldest queued job inside
a ``BEGIN IMMEDIATE`` transaction (:meth:`JobStore.claim_next`), stamping
its ``owner`` identity and a ``lease_expires`` deadline that heartbeats
extend while the job executes.  Any number of server processes can share
one ``--state-dir``: claims are mutually exclusive by construction, and a
crashed worker's in-flight jobs are *requeued* — not failed — as soon as
their lease expires (:meth:`JobStore.reclaim_expired`), bounded by a
per-job claim budget so a poison job cannot crash the fleet forever.

:class:`JobRunner` is the execution side — a bounded
:class:`~concurrent.futures.ThreadPoolExecutor` fed by a poller thread
that claims work, reclaims expired leases, and heartbeats its own jobs.
Each shard runs under a bounded, seeded exponential-backoff retry with
failure classification (:mod:`repro.store.resilience`): transient errors
(sqlite lock contention, injected faults, crashed workers) retry; fatal
ones (:class:`~repro.errors.ConfigError` and friends) terminalize the job
immediately with a structured error.  Cooperative cancellation
(:meth:`JobStore.request_cancel`) is checked between shards.  Sweep jobs
run shard-at-a-time in input order, so progress is per-shard, partial
results are always a prefix of the final report list, and the finished
reports are byte-identical to the synchronous ``POST /sweep`` path.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor

from repro.errors import ConfigError, QuotaExceededError, StoreError
from repro.store.db import (
    DEFAULT_TENANT,
    TERMINAL_JOB_STATES,
    StateStore,
    now,
)
from repro.store.resilience import (
    FATAL,
    TRANSIENT,
    RetryPolicy,
    classify_failure,
    structured_error,
)
from repro.testing import faults

#: Job kinds the runner executes.
JOB_KINDS: tuple = ("attack", "sweep")

#: States a job row can be in; the last three are terminal.
JOB_STATES: tuple = ("queued", "running") + TERMINAL_JOB_STATES

#: Ceiling on the runner's worker-thread count.
MAX_JOB_WORKERS = 8

#: Service-wide cap on jobs that are queued or running at once.
MAX_ACTIVE_JOBS = 64

#: Per-tenant cap on jobs that are queued or running at once (the quota).
MAX_ACTIVE_JOBS_PER_TENANT = 16

#: Seconds a claim stays valid without a heartbeat.
DEFAULT_LEASE_S = 30.0

#: Poller cadence: claim sweep, lease reclaim, and heartbeat interval.
DEFAULT_POLL_S = 0.25

#: Times a job may be claimed (first claim + reclaims) before it
#: terminalizes as failed — the poison-job backstop.
DEFAULT_MAX_CLAIMS = 5


def _encode_error(error) -> str:
    """Error column text: structured dicts as canonical JSON, strings as-is."""
    if isinstance(error, dict):
        return json.dumps(error, indent=None, sort_keys=True)
    return str(error)


def _decode_error(error):
    """Best-effort decode of a structured error column back to a dict."""
    if isinstance(error, str) and error.startswith("{"):
        try:
            decoded = json.loads(error)
        except json.JSONDecodeError:
            return error
        if isinstance(decoded, dict):
            return decoded
    return error


def _job_dict(row) -> dict:
    """A job row as a JSON-safe dict: ``job_id``, decoded error, flag bool."""
    job = dict(row)
    job["job_id"] = job.pop("id")
    job["error"] = _decode_error(job["error"])
    job["cancel_requested"] = bool(job["cancel_requested"])
    return job


def _claim_budget_error(attempts: int, message: str) -> dict:
    """The error of a job claimed ``attempts`` times without completing."""
    return {
        "type": "ClaimBudgetExhausted",
        "message": f"{message} (worker crashes?)",
        "classification": TRANSIENT,
        "attempts": attempts,
    }


class _ShardFailed(Exception):
    """Internal: a shard exhausted its retry budget (payload = error dict)."""

    def __init__(self, payload: dict) -> None:
        super().__init__(payload.get("message", "shard failed"))
        self.payload = payload


class JobStore:
    """Job rows in the service state database (see :mod:`repro.store.db`)."""

    def __init__(self, state: StateStore) -> None:
        self._state = state

    # --- lifecycle writes ----------------------------------------------

    def create(
        self,
        tenant: str,
        kind: str,
        payload: dict,
        shards_total: int = 0,
        deadline_s: "float | None" = None,
    ) -> str:
        """Insert a ``queued`` job row; returns the new job id.

        ``deadline_s`` (seconds from now) sets an absolute deadline past
        which the job terminalizes as failed instead of being (re)claimed
        or starting another shard.
        """
        if kind not in JOB_KINDS:
            raise ConfigError(f"job kind must be one of {JOB_KINDS}, got {kind!r}")
        if deadline_s is not None and deadline_s <= 0:
            raise ConfigError(f"deadline_s must be > 0, got {deadline_s}")
        job_id = uuid.uuid4().hex[:12]
        t = now()
        self._state.execute(
            "INSERT INTO jobs "
            "(id, tenant, kind, payload, state, shards_total, shards_done, "
            " created_at, deadline) VALUES (?, ?, ?, ?, 'queued', ?, 0, ?, ?)",
            (
                job_id,
                tenant,
                kind,
                json.dumps(payload),
                shards_total,
                t,
                None if deadline_s is None else t + deadline_s,
            ),
        )
        return job_id

    # --- lease-based ownership ------------------------------------------

    def claim_next(
        self,
        owner: str,
        lease_s: float = DEFAULT_LEASE_S,
        max_claims: int = DEFAULT_MAX_CLAIMS,
    ) -> "dict | None":
        """Atomically claim the oldest runnable queued job for ``owner``.

        The claim happens inside ``BEGIN IMMEDIATE``, so concurrent
        runners — in this process or another one sharing the database —
        can never claim the same row.  Queued rows that are already
        doomed (cancel requested, deadline passed, claim budget spent)
        are terminalized on the way and skipped.  Returns the claimed job
        dict, or ``None`` when the queue is empty.
        """
        while True:
            t = now()
            with self._state.transaction() as state:
                row = state._conn.execute(
                    "SELECT id, attempts, cancel_requested, deadline "
                    "FROM jobs WHERE state = 'queued' "
                    "ORDER BY created_at, id LIMIT 1"
                ).fetchone()
                if row is None:
                    return None
                job_id, attempts = row["id"], row["attempts"]
                if row["cancel_requested"]:
                    self._end(job_id, "cancelled")
                    continue
                if row["deadline"] is not None and t > row["deadline"]:
                    self._end(job_id, "failed", error={
                        "type": "DeadlineExceeded",
                        "message": "job deadline passed before execution",
                        "classification": FATAL,
                        "attempts": attempts,
                    })
                    continue
                if attempts >= max_claims:
                    self._end(job_id, "failed", error=_claim_budget_error(
                        attempts, f"claimed {attempts} times without completing"
                    ))
                    continue
                state._conn.execute(
                    "UPDATE jobs SET state = 'running', owner = ?, "
                    "lease_expires = ?, attempts = attempts + 1, "
                    "started_at = COALESCE(started_at, ?) WHERE id = ?",
                    (owner, t + lease_s, t, job_id),
                )
            return self.get(job_id)

    def reclaim_expired(self, max_claims: int = DEFAULT_MAX_CLAIMS) -> int:
        """Requeue running jobs whose lease lapsed; returns the requeue count.

        A ``running`` row with an expired — or missing, for rows a v1
        process left behind — lease belongs to a dead or frozen worker.
        It is put back in the queue (progress and partial results intact;
        with a persistent store the completed shards replay for free from
        the report store).  Rows that already spent their claim budget
        terminalize as failed instead.
        """
        t = now()
        requeued = 0
        with self._state.transaction() as state:
            rows = state._conn.execute(
                "SELECT id, attempts FROM jobs WHERE state = 'running' "
                "AND (lease_expires IS NULL OR lease_expires < ?)",
                (t,),
            ).fetchall()
            for row in rows:
                if row["attempts"] >= max_claims:
                    self._end(row["id"], "failed", error=_claim_budget_error(
                        row["attempts"], f"lease expired after {row['attempts']} claims"
                    ))
                else:
                    state._conn.execute(
                        "UPDATE jobs SET state = 'queued', owner = NULL, "
                        "lease_expires = NULL WHERE id = ?",
                        (row["id"],),
                    )
                    requeued += 1
            if requeued:
                self._state.bump_counter("reclaimed_jobs", requeued)
        return requeued

    def heartbeat(
        self, owner: str, job_ids, lease_s: float = DEFAULT_LEASE_S
    ) -> int:
        """Extend the lease on ``owner``'s still-running jobs."""
        ids = tuple(job_ids)
        if not ids:
            return 0
        marks = ", ".join("?" for _ in ids)
        cursor = self._state.execute(
            f"UPDATE jobs SET lease_expires = ? WHERE id IN ({marks}) "
            "AND owner = ? AND state = 'running'",
            (now() + lease_s, *ids, owner),
        )
        return cursor.rowcount

    # --- progress / terminal transitions --------------------------------

    def progress(
        self, job_id: str, shards_done: int, partial: dict, owner: str, lease_s: float
    ) -> bool:
        """Advance the shard counter and the partial result of ``owner``'s job.

        The update only applies while ``owner`` still holds the job — a
        row reclaimed by another process is left alone (returns
        ``False``, telling the caller to stop).  The same write extends
        the lease by ``lease_s`` (the shard-boundary heartbeat).
        """
        cursor = self._state.execute(
            "UPDATE jobs SET shards_done = ?, result = ?, lease_expires = ? "
            "WHERE id = ? AND owner = ? AND state = 'running'",
            (shards_done, json.dumps(partial), now() + lease_s, job_id, owner),
        )
        return cursor.rowcount > 0

    def _end(
        self,
        job_id: str,
        state: str,
        owner: "str | None" = None,
        error=None,
        result: "dict | None" = None,
    ) -> bool:
        """The one terminal transition; returns whether the row changed.

        Sets ``state`` and ``finished_at`` and drops the lease; ``error``
        and ``result`` fill their columns, and a ``result`` marks every
        shard done.  With ``owner`` the write lands only while that owner
        still holds the running job; without it the caller holds the
        transaction in which it read the row.  A row that turns
        ``cancelled`` bumps the ``cancelled_jobs`` counter.
        """
        sets = "state = ?, finished_at = ?, owner = NULL, lease_expires = NULL"
        params: list = [state, now()]
        if error is not None:
            sets += ", error = ?"
            params.append(_encode_error(error))
        if result is not None:
            sets += ", result = ?, shards_done = shards_total"
            params.append(json.dumps(result))
        guard = ""
        params.append(job_id)
        if owner is not None:
            guard = " AND owner = ? AND state = 'running'"
            params.append(owner)
        cursor = self._state.execute(
            f"UPDATE jobs SET {sets} WHERE id = ?{guard}", tuple(params)
        )
        ended = cursor.rowcount > 0
        if ended and state == "cancelled":
            self._state.bump_counter("cancelled_jobs")
        return ended

    def finish(self, job_id: str, result: dict, owner: str) -> bool:
        """Terminalize ``owner``'s running job as ``done`` with ``result``."""
        return self._end(job_id, "done", owner, result=result)

    def fail(self, job_id: str, error, owner: str) -> bool:
        """Terminalize as ``failed``; ``error`` may be a structured dict."""
        return self._end(job_id, "failed", owner, error=error)

    # --- cancellation ----------------------------------------------------

    def request_cancel(
        self, job_id: str, tenant: "str | None" = None
    ) -> "dict | None":
        """Cooperatively cancel a job; returns ``{"state", "changed"}``.

        A still-``queued`` job terminalizes as ``cancelled`` immediately
        (atomically with respect to concurrent claims); a ``running`` job
        gets its stop flag set — the shard loop honours it at the next
        shard boundary (``state`` comes back ``"cancelling"``).  Terminal
        jobs are reported unchanged; unknown ids return ``None``.
        """
        with self._state.transaction() as state:
            clause = "" if tenant is None else "AND tenant = ?"
            params = (job_id,) if tenant is None else (job_id, tenant)
            row = state._conn.execute(
                f"SELECT state FROM jobs WHERE id = ? {clause}", params
            ).fetchone()
            if row is None:
                return None
            if row["state"] in TERMINAL_JOB_STATES:
                return {"state": row["state"], "changed": False}
            state._conn.execute(
                "UPDATE jobs SET cancel_requested = 1 WHERE id = ?", (job_id,)
            )
            if row["state"] == "running":
                return {"state": "cancelling", "changed": True}
            self._end(job_id, "cancelled")
            return {"state": "cancelled", "changed": True}

    def cancel_requested(self, job_id: str) -> bool:
        row = self._state.query_one(
            "SELECT cancel_requested FROM jobs WHERE id = ?", (job_id,)
        )
        return bool(row is not None and row["cancel_requested"])

    def mark_cancelled(self, job_id: str, owner: str) -> bool:
        """Terminalize ``owner``'s running job as ``cancelled``."""
        return self._end(job_id, "cancelled", owner)

    # --- reads ----------------------------------------------------------

    def get(self, job_id: str, tenant: "str | None" = None) -> "dict | None":
        """Full job row (payload/result/error decoded), scoped to ``tenant``."""
        clause = "" if tenant is None else "AND tenant = ?"
        params = (job_id,) if tenant is None else (job_id, tenant)
        row = self._state.query_one(
            f"SELECT * FROM jobs WHERE id = ? {clause}", params
        )
        if row is None:
            return None
        job = _job_dict(row)
        job["payload"] = json.loads(job["payload"])
        if job["result"] is not None:
            job["result"] = json.loads(job["result"])
        return job

    def list(self, tenant: "str | None" = None, limit: int = 50) -> list:
        """Newest-first job summaries (no payload/result), JSON-safe."""
        clause = "" if tenant is None else "WHERE tenant = ?"
        params: tuple = () if tenant is None else (tenant,)
        rows = self._state.query_all(
            "SELECT id, tenant, kind, state, shards_total, shards_done, "
            "attempts, owner, cancel_requested, created_at, started_at, "
            "finished_at, error "
            f"FROM jobs {clause} ORDER BY created_at DESC, id LIMIT ?",
            (*params, max(1, int(limit))),
        )
        return [_job_dict(row) for row in rows]

    def active_count(self, tenant: "str | None" = None) -> int:
        clause = "" if tenant is None else "AND tenant = ?"
        params: tuple = () if tenant is None else (tenant,)
        return self._state.query_one(
            "SELECT COUNT(*) AS n FROM jobs "
            f"WHERE state IN ('queued', 'running') {clause}",
            params,
        )["n"]

    def queued_count(self) -> int:
        return self._state.query_one(
            "SELECT COUNT(*) AS n FROM jobs WHERE state = 'queued'"
        )["n"]

    def counters(self) -> dict:
        """Queue depth / throughput / resilience counters for ``GET /stats``."""
        by_state = {state: 0 for state in JOB_STATES}
        for row in self._state.query_all(
            "SELECT state, COUNT(*) AS n FROM jobs GROUP BY state"
        ):
            by_state[row["state"]] = row["n"]
        shards = self._state.query_one(
            "SELECT COALESCE(SUM(shards_done), 0) AS done, "
            "COALESCE(SUM(shards_total), 0) AS total FROM jobs"
        )
        return {
            **by_state,
            "depth": by_state["queued"] + by_state["running"],
            "total": sum(by_state.values()),
            "shards_completed": shards["done"],
            "shards_planned": shards["total"],
            **self._state.resilience_counters(),
        }

    def count_by_tenant(self) -> dict:
        return {
            row["tenant"]: row["n"]
            for row in self._state.query_all(
                "SELECT tenant, COUNT(*) AS n FROM jobs GROUP BY tenant"
            )
        }


class JobRunner:
    """Bounded thread pool executing leased jobs against an engine.

    ``workers`` caps concurrent jobs (each job runs its shards serially;
    parallelism comes from running jobs side by side).  Quotas bound the
    active backlog service-wide and per tenant — beyond them
    :meth:`submit` raises :class:`~repro.errors.QuotaExceededError`
    (HTTP 429 + ``Retry-After`` at the service layer).

    The runner's poller thread (every ``poll_s`` seconds) claims queued
    jobs when worker slots allow, requeues other owners' expired leases,
    and heartbeats this owner's in-flight jobs, so several runners — in
    one process or many — can drain one shared state database with no job
    executed twice and no job stranded by a crash.
    """

    def __init__(
        self,
        engine,
        state: StateStore,
        workers: int = 2,
        max_active: int = MAX_ACTIVE_JOBS,
        max_active_per_tenant: int = MAX_ACTIVE_JOBS_PER_TENANT,
        lease_s: float = DEFAULT_LEASE_S,
        poll_s: float = DEFAULT_POLL_S,
        retry: RetryPolicy = RetryPolicy(),
        deadline_s: "float | None" = None,
        max_claims: int = DEFAULT_MAX_CLAIMS,
        owner: "str | None" = None,
    ) -> None:
        if not 1 <= int(workers) <= MAX_JOB_WORKERS:
            raise ConfigError(
                f"job workers must be in [1, {MAX_JOB_WORKERS}], got {workers}"
            )
        if lease_s <= 0:
            raise ConfigError(f"lease_s must be > 0, got {lease_s}")
        if poll_s <= 0:
            raise ConfigError(f"poll_s must be > 0, got {poll_s}")
        if max_claims < 1:
            raise ConfigError(f"max_claims must be >= 1, got {max_claims}")
        if deadline_s is not None and deadline_s <= 0:
            raise ConfigError(f"deadline_s must be > 0, got {deadline_s}")
        self.engine = engine
        self.state = state
        self.jobs = state.jobs
        self.workers = int(workers)
        self.max_active = max_active
        self.max_active_per_tenant = max_active_per_tenant
        self.lease_s = float(lease_s)
        self.poll_s = float(poll_s)
        self.retry = retry
        self.deadline_s = deadline_s
        self.max_claims = int(max_claims)
        #: Claim identity recorded in the ``owner`` column — unique per
        #: runner so two processes (or two runners in one test) sharing a
        #: database are distinguishable.
        self.owner = owner or (
            f"{socket.gethostname()}:{os.getpid()}:{uuid.uuid4().hex[:6]}"
        )
        self.submitted = 0
        self.retries = 0
        # startup sweep: requeue whatever a dead predecessor left leased
        # (v1 rows have no lease and requeue too)
        self.reclaimed = self.jobs.reclaim_expired(self.max_claims)
        self._lock = threading.Lock()
        self._running: set = set()
        self._tickets = 0
        self._draining = False
        self._wake = threading.Event()
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="dehealth-job"
        )
        self._poller = threading.Thread(
            target=self._poll_loop, name="dehealth-job-poller", daemon=True
        )
        self._poller.start()

    # --- submission -----------------------------------------------------

    def submit(
        self, kind: str, payload: dict, tenant: str = DEFAULT_TENANT
    ) -> str:
        """Persist + enqueue one job; returns its id (raises on quota)."""
        requests = self._plan(kind, payload)
        with self._lock:
            if self._draining:
                raise QuotaExceededError("server is shutting down")
            if self.jobs.active_count() >= self.max_active:
                raise QuotaExceededError(
                    f"job queue is full ({self.max_active} active jobs)"
                )
            if self.jobs.active_count(tenant) >= self.max_active_per_tenant:
                raise QuotaExceededError(
                    f"tenant {tenant!r} already has "
                    f"{self.max_active_per_tenant} active jobs"
                )
            job_id = self.jobs.create(
                tenant,
                kind,
                payload,
                shards_total=len(requests),
                deadline_s=self.deadline_s,
            )
            self.submitted += 1
            self.state.bump_tenant(tenant, "jobs_submitted")
        self._wake.set()
        return job_id

    def _plan(self, kind: str, payload: dict) -> list:
        """Validate a job payload into attack requests (raises ConfigError).

        Validation happens at submit time, before any row is written, so a
        malformed body is a synchronous 400 — not a job that is born dead.
        """
        from repro.api.executor import MAX_SWEEP_REQUESTS, expand_matrix
        from repro.api.protocol import AttackRequest

        if kind == "attack":
            return [AttackRequest.from_dict(payload).validate()]
        if kind == "sweep":
            requests = expand_matrix(payload, max_requests=MAX_SWEEP_REQUESTS)
            for request in requests:
                request.validate()
            return requests
        raise ConfigError(f"job kind must be one of {JOB_KINDS}, got {kind!r}")

    # --- the poller -----------------------------------------------------

    def _poll_loop(self) -> None:
        while not self._draining:
            try:
                self._sweep()
            except StoreError:
                return  # store closed under us: the runner is done
            except Exception:  # noqa: BLE001 — the poller must survive
                pass
            self._wake.wait(self.poll_s)
            self._wake.clear()

    def _sweep(self) -> None:
        """One poller pass: reclaim, heartbeat, and hand out claim tickets."""
        if self._draining or self.state.closed:
            return
        reclaimed = self.jobs.reclaim_expired(self.max_claims)
        if reclaimed:
            with self._lock:
                self.reclaimed += reclaimed
        with self._lock:
            running = set(self._running)
        if running:
            self.jobs.heartbeat(self.owner, running, self.lease_s)
        queued = self.jobs.queued_count()
        with self._lock:
            if self._draining:
                return
            want = min(queued, self.workers) - self._tickets
            for _ in range(max(0, want)):
                self._tickets += 1
                self._pool.submit(self._drain)

    def _drain(self) -> None:
        """Worker entry: claim jobs one at a time until the queue is dry.

        The claim happens *here*, on the worker thread, so a job only
        turns ``running`` when a thread is actually about to execute it —
        a claim never sits in the pool's backlog burning its lease.
        """
        try:
            while not self._draining:
                try:
                    job = self.jobs.claim_next(
                        self.owner, self.lease_s, self.max_claims
                    )
                except Exception:  # noqa: BLE001 — claim contention/faults
                    return  # next poller pass retries
                if job is None:
                    return
                self._execute(job)
        finally:
            with self._lock:
                self._tickets -= 1

    # --- execution ------------------------------------------------------

    def _execute(self, job: dict) -> None:
        job_id = job["job_id"]
        with self._lock:
            self._running.add(job_id)
        try:
            self._run_job(job)
        except StoreError:
            pass  # store closed mid-job: the row stays leased for a successor
        except Exception as exc:  # noqa: BLE001 — job errors become rows
            try:
                self.jobs.fail(job_id, structured_error(exc), owner=self.owner)
            except StoreError:
                pass
        finally:
            with self._lock:
                self._running.discard(job_id)

    def _run_job(self, job: dict) -> None:
        job_id, kind, tenant = job["job_id"], job["kind"], job["tenant"]
        try:
            if getattr(self.engine, "store", None) is not None:
                # another process may have registered the corpus after this
                # engine attached (shared --state-dir): pull it in first
                self.engine.refresh_corpora()
            requests = self._plan(kind, job["payload"])
        except Exception as exc:  # noqa: BLE001 — plan errors are fatal
            self.jobs.fail(
                job_id,
                structured_error(exc, classification=FATAL, stage="plan"),
                owner=self.owner,
            )
            return
        reports = []
        for index, request in enumerate(requests):
            if self.jobs.cancel_requested(job_id):
                self.jobs.mark_cancelled(job_id, owner=self.owner)
                return
            if job["deadline"] is not None and now() > job["deadline"]:
                self.jobs.fail(
                    job_id,
                    {
                        "type": "DeadlineExceeded",
                        "message": f"deadline passed before shard {index}",
                        "classification": FATAL,
                        "shard": index,
                    },
                    owner=self.owner,
                )
                return
            try:
                report = self._run_shard(job_id, index, request, tenant, job)
            except _ShardFailed as exc:
                self.jobs.fail(job_id, exc.payload, owner=self.owner)
                return
            reports.append(report)
            alive = self.jobs.progress(
                job_id,
                index + 1,
                partial={
                    "count": index + 1,
                    "reports": [r.to_dict() for r in reports],
                },
                owner=self.owner,
                lease_s=self.lease_s,
            )
            if not alive:
                return  # lease lost: another owner took (or ended) the job
        if kind == "attack":
            result = reports[0].to_dict()
        else:
            result = {
                "count": len(reports),
                "workers": 1,
                "reports": [r.to_dict() for r in reports],
            }
        self.jobs.finish(job_id, result, owner=self.owner)

    def _run_shard(self, job_id, index, request, tenant, job):
        """One shard under the bounded, classified retry policy."""
        attempt = 0
        while True:
            attempt += 1
            try:
                faults.fire(faults.SEAM_SHARD)
                return self.engine.attack(request, tenant=tenant)
            except Exception as exc:  # noqa: BLE001 — classified below
                classification = classify_failure(exc)
                exhausted = attempt >= self.retry.max_attempts
                overdue = (
                    job["deadline"] is not None and now() >= job["deadline"]
                )
                if classification == FATAL or exhausted or overdue:
                    raise _ShardFailed(
                        structured_error(
                            exc,
                            classification=classification,
                            shard=index,
                            attempts=attempt,
                        )
                    ) from exc
                with self._lock:
                    self.retries += 1
                self.state.bump_counter("retries")
                time.sleep(
                    self.retry.backoff_s(f"{job_id}:{index}", attempt + 1)
                )

    # --- lifecycle ------------------------------------------------------

    def join(self, timeout_s: float = 60.0) -> bool:
        """Block until no job is queued or running (True) or timeout (False)."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            try:
                if self.jobs.active_count() == 0:
                    return True
            except StoreError:
                return False
            self._wake.set()
            time.sleep(0.02)
        return False

    def counters(self) -> dict:
        """Runner + store counters for ``GET /stats``."""
        return {
            **self.jobs.counters(),
            "workers": self.workers,
            "submitted": self.submitted,
            "reclaimed": self.reclaimed,
            "runner_retries": self.retries,
            "lease_s": self.lease_s,
            "owner": self.owner,
        }

    def shutdown(self, drain_s: float = 5.0) -> dict:
        """Stop claiming, drain briefly, and leave durable work durable.

        Queued jobs are *not* touched: with a persistent store they
        survive as ``queued`` for the next process; with an in-memory
        store they die with it either way.  Running jobs get ``drain_s``
        seconds to finish; stragglers keep their lease (a successor
        process reclaims them) unless the store is in-memory, in which
        case they are terminalized as interrupted for the record.
        """
        with self._lock:
            self._draining = True
            inflight_at_start = set(self._running)
        self._wake.set()
        self._pool.shutdown(wait=False, cancel_futures=True)
        self._poller.join(timeout=self.poll_s + 1.0)
        deadline = time.monotonic() + max(0.0, drain_s)
        while time.monotonic() < deadline:
            with self._lock:
                if not self._running:
                    break
            time.sleep(0.02)
        with self._lock:
            left_running = sorted(self._running)
        left_queued = 0
        try:
            left_queued = self.jobs.queued_count()
            if not self.state.persistent:
                for job_id in left_running:
                    self.jobs.fail(
                        job_id,
                        {
                            "type": "Interrupted",
                            "message": "interrupted by shutdown",
                            "classification": TRANSIENT,
                        },
                        owner=self.owner,
                    )
        except StoreError:
            pass
        return {
            "drained": len(inflight_at_start) - len(left_running),
            "left_running": len(left_running),
            "left_queued": left_queued,
        }
