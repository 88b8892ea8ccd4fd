"""Sqlite-backed durable state for the De-Health service tier.

:class:`StateStore` owns one :mod:`sqlite3` connection (WAL mode when
file-backed, so a serving process and read-only CLI inspectors coexist)
and the schema shared by the three sub-stores layered on top of it:

* :class:`~repro.store.CorpusStore` — registered corpora as canonical
  JSONL, keyed by the engine's dataset fingerprint;
* :class:`~repro.store.AttackReportStore` — every finished
  :class:`~repro.api.AttackReport` as canonical JSON, deduplicated on
  ``(tenant, corpus fingerprint, request hash)``;
* :class:`~repro.store.JobStore` — background attack/sweep jobs with
  progress counters and terminal states that survive restarts.

``StateStore(None)`` opens an in-memory database with the identical
schema: the service always runs against a store, and persistence is
purely a question of whether a ``--state-dir`` was given.  Only the
standard library is used.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from pathlib import Path

from repro.api.protocol import DEFAULT_TENANT
from repro.errors import StoreError
from repro.testing import faults

#: Database filename created inside a ``--state-dir``.
STATE_DB_FILENAME = "dehealth.sqlite3"

__all__ = [
    "DEFAULT_TENANT",
    "RESILIENCE_COUNTERS",
    "STATE_DB_FILENAME",
    "SCHEMA_VERSION",
    "TERMINAL_JOB_STATES",
    "StateStore",
]

#: Schema version recorded in ``meta``; bump on incompatible changes.
#: v2 added the job lease/retry/cancellation columns and the ``counters``
#: table; v3 added the durable token-bucket columns to ``tenants``
#: (older databases are migrated in place on open).
SCHEMA_VERSION = 3

#: Job states that can never change again (see :mod:`repro.store.jobs`).
TERMINAL_JOB_STATES: tuple = ("done", "failed", "cancelled")

#: Durable resilience counters kept in the ``counters`` table and surfaced
#: on ``GET /stats`` and the CLI inspectors.
RESILIENCE_COUNTERS: tuple = (
    "retries",
    "reclaimed_jobs",
    "cancelled_jobs",
    "pruned_reports",
    "pruned_jobs",
)

#: Columns v2 added to ``jobs`` — used by the in-place v1 migration.
_JOBS_V2_COLUMNS: tuple = (
    ("owner", "TEXT"),
    ("lease_expires", "REAL"),
    ("attempts", "INTEGER NOT NULL DEFAULT 0"),
    ("cancel_requested", "INTEGER NOT NULL DEFAULT 0"),
    ("deadline", "REAL"),
)

#: Columns v3 added to ``tenants`` — the durable token bucket.  NULL
#: ``refill_per_s``/``burst`` mean "no per-tenant override" (the serving
#: process's defaults apply); NULL ``tokens``/``updated_at`` mean the
#: bucket has never been touched and starts full on first use.
_TENANTS_V3_COLUMNS: tuple = (
    ("refill_per_s", "REAL"),
    ("burst", "REAL"),
    ("tokens", "REAL"),
    ("updated_at", "REAL"),
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS corpora (
    fingerprint TEXT PRIMARY KEY,
    name        TEXT NOT NULL UNIQUE,
    users       INTEGER NOT NULL,
    posts       INTEGER NOT NULL,
    threads     INTEGER NOT NULL,
    jsonl       TEXT NOT NULL,
    created_at  REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS reports (
    id           INTEGER PRIMARY KEY AUTOINCREMENT,
    tenant       TEXT NOT NULL,
    fingerprint  TEXT NOT NULL,
    request_hash TEXT NOT NULL,
    corpus       TEXT NOT NULL,
    created_at   REAL NOT NULL,
    canonical    TEXT NOT NULL,
    UNIQUE (tenant, fingerprint, request_hash)
);
CREATE INDEX IF NOT EXISTS reports_tenant_time
    ON reports (tenant, created_at);
CREATE INDEX IF NOT EXISTS reports_fingerprint
    ON reports (fingerprint);
CREATE TABLE IF NOT EXISTS jobs (
    id          TEXT PRIMARY KEY,
    tenant      TEXT NOT NULL,
    kind        TEXT NOT NULL,
    payload     TEXT NOT NULL,
    state       TEXT NOT NULL,
    shards_total INTEGER NOT NULL DEFAULT 0,
    shards_done  INTEGER NOT NULL DEFAULT 0,
    result      TEXT,
    error       TEXT,
    created_at  REAL NOT NULL,
    started_at  REAL,
    finished_at REAL,
    owner       TEXT,
    lease_expires REAL,
    attempts    INTEGER NOT NULL DEFAULT 0,
    cancel_requested INTEGER NOT NULL DEFAULT 0,
    deadline    REAL
);
CREATE INDEX IF NOT EXISTS jobs_tenant_state
    ON jobs (tenant, state);
CREATE INDEX IF NOT EXISTS jobs_state_created
    ON jobs (state, created_at);
CREATE TABLE IF NOT EXISTS tenants (
    tenant        TEXT PRIMARY KEY,
    requests      INTEGER NOT NULL DEFAULT 0,
    attacks       INTEGER NOT NULL DEFAULT 0,
    jobs_submitted INTEGER NOT NULL DEFAULT 0,
    refill_per_s  REAL,
    burst         REAL,
    tokens        REAL,
    updated_at    REAL
);
CREATE TABLE IF NOT EXISTS counters (
    key   TEXT PRIMARY KEY,
    value INTEGER NOT NULL DEFAULT 0
);
"""


class StateStore:
    """One sqlite connection + schema behind the service's durable state.

    The connection is shared across threads (the threading WSGI server and
    the job runner's worker pool all write) under one re-entrant lock;
    sqlite serializes writers anyway, so a finer scheme would buy nothing.
    ``path=None`` opens an in-memory database — same schema, same code
    paths, no files, dies with the process.
    """

    def __init__(self, path: "str | Path | None" = None) -> None:
        self.path = None if path is None else Path(path)
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._closed = False
        self._conn = sqlite3.connect(
            ":memory:" if self.path is None else str(self.path),
            check_same_thread=False,
            isolation_level=None,  # autocommit; multi-step ops use BEGIN
        )
        self._conn.row_factory = sqlite3.Row
        with self._lock:
            if self.path is not None:
                # WAL lets the serving process write while CLI inspectors
                # read; NORMAL sync is durable enough for derived state
                # (reports are recomputable) and much faster.
                self._conn.execute("PRAGMA journal_mode=WAL")
                self._conn.execute("PRAGMA synchronous=NORMAL")
                self._conn.execute("PRAGMA busy_timeout=5000")
            self._conn.executescript(_SCHEMA)
            self._conn.execute(
                "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                ("schema_version", str(SCHEMA_VERSION)),
            )
            self._migrate()
        # import here: repro.store.* modules import repro.api.protocol,
        # which must not re-enter this module during package init
        from repro.store.corpus import CorpusStore
        from repro.store.jobs import JobStore
        from repro.store.reports import AttackReportStore

        self.corpora = CorpusStore(self)
        self.reports = AttackReportStore(self)
        self.jobs = JobStore(self)

    @classmethod
    def at_dir(cls, state_dir: "str | Path") -> "StateStore":
        """Open (creating if needed) the store inside a ``--state-dir``."""
        return cls(Path(state_dir) / STATE_DB_FILENAME)

    def _migrate(self) -> None:
        """Upgrade an older database in place (caller holds the lock).

        ``CREATE TABLE IF NOT EXISTS`` only creates *missing* tables, so a
        v1 ``jobs`` table lacks the lease/retry/cancellation columns and a
        v2 ``tenants`` table lacks the token-bucket columns; both are
        added here with constant defaults (NULL owner/lease — exactly the
        shape the lease sweeper treats as "reclaim me"; NULL bucket
        columns — no override, bucket starts full on first use).
        """
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
        version = int(row["value"]) if row is not None else SCHEMA_VERSION
        if version >= SCHEMA_VERSION:
            return
        if version < 2:
            present = {
                info[1]
                for info in self._conn.execute("PRAGMA table_info(jobs)")
            }
            for column, declaration in _JOBS_V2_COLUMNS:
                if column not in present:
                    self._conn.execute(
                        f"ALTER TABLE jobs ADD COLUMN {column} {declaration}"
                    )
        if version < 3:
            present = {
                info[1]
                for info in self._conn.execute("PRAGMA table_info(tenants)")
            }
            for column, declaration in _TENANTS_V3_COLUMNS:
                if column not in present:
                    self._conn.execute(
                        f"ALTER TABLE tenants ADD COLUMN {column} {declaration}"
                    )
        self._conn.execute(
            "UPDATE meta SET value = ? WHERE key = 'schema_version'",
            (str(SCHEMA_VERSION),),
        )

    # --- properties -----------------------------------------------------

    @property
    def persistent(self) -> bool:
        """Whether this store outlives the process (file-backed)."""
        return self.path is not None

    @property
    def closed(self) -> bool:
        return self._closed

    # --- low-level access ----------------------------------------------

    def execute(self, sql: str, params: tuple = ()) -> sqlite3.Cursor:
        """Run one statement under the store lock (autocommitted)."""
        with self._lock:
            if self._closed:
                raise StoreError("state store is closed")
            return self._conn.execute(sql, params)

    # A read fetches under the store lock: a SELECT left unfinished holds a
    # read snapshot on the shared connection, and a write another thread
    # runs meanwhile fails at once with "database is locked" whenever
    # another connection to the file has committed since that snapshot.
    def query_one(self, sql: str, params: tuple = ()) -> "sqlite3.Row | None":
        with self._lock:
            return self.execute(sql, params).fetchone()

    def query_all(self, sql: str, params: tuple = ()) -> list:
        with self._lock:
            return self.execute(sql, params).fetchall()

    def transaction(self):
        """Context manager: the store lock + an IMMEDIATE transaction."""
        return _Transaction(self)

    # --- tenant accounting ----------------------------------------------

    def bump_tenant(self, tenant: str, column: str, by: int = 1) -> None:
        """Increment one per-tenant counter (requests/attacks/jobs)."""
        if column not in ("requests", "attacks", "jobs_submitted"):
            raise StoreError(f"unknown tenant counter {column!r}")
        self.execute(
            f"INSERT INTO tenants (tenant, {column}) VALUES (?, ?) "
            f"ON CONFLICT (tenant) DO UPDATE SET {column} = {column} + ?",
            (tenant, by, by),
        )

    def tenant_counters(self) -> dict:
        """Per-tenant request/attack/job counters, JSON-safe."""
        return {
            row["tenant"]: {
                "requests": row["requests"],
                "attacks": row["attacks"],
                "jobs_submitted": row["jobs_submitted"],
            }
            for row in self.query_all("SELECT * FROM tenants ORDER BY tenant")
        }

    # --- resilience counters --------------------------------------------

    def bump_counter(self, key: str, by: int = 1) -> None:
        """Increment a durable service counter (created on first bump)."""
        if by == 0:
            return
        self.execute(
            "INSERT INTO counters (key, value) VALUES (?, ?) "
            "ON CONFLICT (key) DO UPDATE SET value = value + ?",
            (key, by, by),
        )

    def counter(self, key: str) -> int:
        row = self.query_one(
            "SELECT value FROM counters WHERE key = ?", (key,)
        )
        return 0 if row is None else row["value"]

    def resilience_counters(self) -> dict:
        """Every :data:`RESILIENCE_COUNTERS` key (0 when never bumped)."""
        counters = {key: 0 for key in RESILIENCE_COUNTERS}
        for row in self.query_all("SELECT key, value FROM counters"):
            counters[row["key"]] = row["value"]
        return counters

    # --- retention / compaction -----------------------------------------

    def prune(
        self,
        max_age_s: "float | None" = None,
        keep_reports: "int | None" = None,
        keep_jobs: "int | None" = None,
        vacuum: bool = False,
    ) -> dict:
        """Age/count-prune stored reports and *terminal* jobs.

        ``max_age_s`` drops reports created — and terminal jobs finished —
        more than that many seconds ago; ``keep_reports``/``keep_jobs``
        keep only the newest N rows of each kind.  Queued and running jobs
        are never touched: retention must not eat live work.  Deletions
        land in the durable ``pruned_reports``/``pruned_jobs`` counters.
        ``vacuum=True`` runs ``VACUUM`` afterwards so the database file
        actually shrinks.  Returns the deletion counts.

        The ``tenants`` table — counters, rate-limit overrides, and live
        token-bucket state — is never pruned: a compaction run against a
        database a server is actively enforcing budgets on must not reset
        anyone's bucket.  ``tenants_kept`` in the result makes that
        guarantee observable.
        """
        for name, value in (("keep_reports", keep_reports), ("keep_jobs", keep_jobs)):
            if value is not None and value < 0:
                raise StoreError(f"{name} must be >= 0, got {value}")
        if max_age_s is not None and max_age_s < 0:
            raise StoreError(f"max_age_s must be >= 0, got {max_age_s}")
        terminal = ", ".join(f"'{state}'" for state in TERMINAL_JOB_STATES)
        pruned_reports = pruned_jobs = 0
        with self.transaction() as state:
            if max_age_s is not None:
                cutoff = now() - max_age_s
                pruned_reports += state._conn.execute(
                    "DELETE FROM reports WHERE created_at < ?", (cutoff,)
                ).rowcount
                pruned_jobs += state._conn.execute(
                    f"DELETE FROM jobs WHERE state IN ({terminal}) "
                    "AND COALESCE(finished_at, created_at) < ?",
                    (cutoff,),
                ).rowcount
            if keep_reports is not None:
                pruned_reports += state._conn.execute(
                    "DELETE FROM reports WHERE id NOT IN "
                    "(SELECT id FROM reports ORDER BY id DESC LIMIT ?)",
                    (keep_reports,),
                ).rowcount
            if keep_jobs is not None:
                pruned_jobs += state._conn.execute(
                    f"DELETE FROM jobs WHERE state IN ({terminal}) "
                    "AND id NOT IN (SELECT id FROM jobs "
                    f"WHERE state IN ({terminal}) "
                    "ORDER BY created_at DESC, id DESC LIMIT ?)",
                    (keep_jobs,),
                ).rowcount
            if pruned_reports:
                self.bump_counter("pruned_reports", pruned_reports)
            if pruned_jobs:
                self.bump_counter("pruned_jobs", pruned_jobs)
        if vacuum:
            with self._lock:
                if self._closed:
                    raise StoreError("state store is closed")
                self._conn.execute("VACUUM")
        tenants_kept = self.query_one("SELECT COUNT(*) AS n FROM tenants")["n"]
        return {
            "pruned_reports": pruned_reports,
            "pruned_jobs": pruned_jobs,
            "tenants_kept": tenants_kept,
            "vacuumed": bool(vacuum),
        }

    # --- lifecycle ------------------------------------------------------

    def describe(self) -> dict:
        """JSON-safe summary for ``GET /stats`` and CLI inspectors."""
        counts = {
            table: self.query_one(f"SELECT COUNT(*) AS n FROM {table}")["n"]
            for table in ("corpora", "reports", "jobs", "tenants")
        }
        return {
            "path": None if self.path is None else str(self.path),
            "persistent": self.persistent,
            "corpora": counts["corpora"],
            "reports": counts["reports"],
            "jobs": counts["jobs"],
            "tenants": counts["tenants"],
        }

    def checkpoint(self) -> None:
        """Fold the WAL back into the main database file (file-backed only)."""
        if self.path is not None and not self._closed:
            with self._lock:
                self._conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")

    def close(self) -> None:
        """Checkpoint the WAL and close the connection (idempotent).

        After a clean close no hot ``-wal``/``-shm`` sidecar is left
        behind: sqlite removes them when the last connection detaches from
        a checkpointed database.
        """
        with self._lock:
            if self._closed:
                return
            try:
                self.checkpoint()
            finally:
                self._closed = True
                self._conn.close()

    def __enter__(self) -> "StateStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        where = "memory" if self.path is None else str(self.path)
        return f"StateStore({where}, closed={self._closed})"


class _Transaction:
    """``with store.transaction():`` — lock + BEGIN IMMEDIATE/COMMIT."""

    def __init__(self, store: StateStore) -> None:
        self._store = store

    def __enter__(self) -> StateStore:
        self._store._lock.acquire()
        if self._store.closed:
            self._store._lock.release()
            raise StoreError("state store is closed")
        try:
            # chaos seam: injected sqlite lock errors surface exactly where
            # real BEGIN IMMEDIATE contention would
            faults.fire(faults.SEAM_COMMIT)
            self._store._conn.execute("BEGIN IMMEDIATE")
        except BaseException:
            self._store._lock.release()
            raise
        return self._store

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            if exc_type is None:
                self._store._conn.execute("COMMIT")
            else:
                self._store._conn.execute("ROLLBACK")
        finally:
            self._store._lock.release()


def now() -> float:
    """Wall-clock timestamp used for every row the store writes."""
    return time.time()
