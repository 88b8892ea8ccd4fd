"""Durable per-tenant token buckets over the ``tenants`` table.

:class:`TenantRateLimiter` enforces a combined request budget per tenant
across *every* process sharing one state database: the bucket lives in
the ``tenants`` row (``refill_per_s``/``burst`` overrides plus live
``tokens``/``updated_at`` state), and each acquire lazily refills and
debits it inside one ``BEGIN IMMEDIATE`` transaction — so N servers
pointed at the same ``--state-dir`` collectively admit no more than one
bucket's worth of work for a tenant, with no coordination beyond sqlite's
write lock.

NULL override columns fall back to the limiter's process-level defaults
(the ``serve`` CLI's ``--rate-limit-per-s``/``--rate-burst``); when the
effective refill is ``None`` the tenant is unlimited and the acquire is a
no-write fast path.  Rejections carry a ``retry_after_s`` derived from
the actual token deficit — exactly how long the bucket needs to refill
enough for the rejected cost — so the 429's ``Retry-After`` is honest.

Timestamps use the store's wall clock (:func:`repro.store.db.now`), the
only clock shared between processes; the refill math clamps negative
elapsed time so a clock step backwards never mints tokens.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.store.db import StateStore, now
from repro.testing import faults

#: One tenant's bucket: its overrides and its live state.
_BUCKET_SQL = (
    "SELECT refill_per_s, burst, tokens, updated_at FROM tenants WHERE tenant = ?"
)


def _check_limits(refill_per_s: "float | None", burst: "float | None") -> None:
    """Reject a refill rate or burst that is set but not positive."""
    if refill_per_s is not None and refill_per_s <= 0:
        raise ConfigError(f"refill_per_s must be > 0 or None, got {refill_per_s}")
    if burst is not None and burst <= 0:
        raise ConfigError(f"burst must be > 0 or None, got {burst}")


@dataclass(frozen=True)
class RateDecision:
    """Outcome of one :meth:`TenantRateLimiter.acquire`.

    ``allowed`` — the request may proceed; ``limited`` — a finite budget
    was actually enforced (``False`` for unlimited tenants, whose
    ``tokens``/``retry_after_s`` are ``None``).  On rejection
    ``retry_after_s`` is the deficit-derived wait before the bucket can
    cover the same cost.
    """

    allowed: bool
    limited: bool
    tokens: "float | None" = None
    retry_after_s: "float | None" = None


class TenantRateLimiter:
    """Lazily-refilled token buckets persisted in the ``tenants`` table."""

    def __init__(
        self,
        state: StateStore,
        refill_per_s: "float | None" = None,
        burst: "float | None" = None,
        clock=now,
    ) -> None:
        _check_limits(refill_per_s, burst)
        self.state = state
        self.default_refill_per_s = refill_per_s
        self.default_burst = burst
        self._clock = clock

    # --- enforcement ----------------------------------------------------

    def acquire(self, tenant: str, cost: float = 1.0) -> RateDecision:
        """Refill-and-debit ``cost`` tokens from ``tenant``'s bucket.

        The read-modify-write runs inside one ``BEGIN IMMEDIATE``
        transaction, so concurrent servers sharing the database cannot
        both spend the same tokens.  Unlimited tenants (no override, no
        default refill) return an allowed decision without writing.
        """
        if cost <= 0:
            raise ConfigError(f"acquire cost must be > 0, got {cost}")
        with self.state.transaction() as state:
            # chaos seam: an injected sqlite error here is indistinguishable
            # from the limiter's database genuinely being unavailable
            faults.fire(faults.SEAM_REFILL)
            row = state._conn.execute(_BUCKET_SQL, (tenant,)).fetchone()
            refill, burst = self._effective_limits(row)
            if refill is None:
                return RateDecision(allowed=True, limited=False)
            tokens, timestamp = self._refilled(row, refill, burst)
            if tokens + 1e-9 >= cost:
                tokens -= cost
                self._write_bucket(state, tenant, tokens, timestamp)
                return RateDecision(allowed=True, limited=True, tokens=tokens)
            # persist the refill even on rejection so updated_at advances
            # and the deficit math stays exact across servers
            self._write_bucket(state, tenant, tokens, timestamp)
            deficit = cost - tokens
            return RateDecision(
                allowed=False,
                limited=True,
                tokens=tokens,
                retry_after_s=deficit / refill,
            )

    def _effective_limits(self, row) -> tuple:
        """(refill_per_s, burst) after override/default resolution."""
        refill = self.default_refill_per_s
        burst = self.default_burst
        if row is not None:
            if row["refill_per_s"] is not None:
                refill = row["refill_per_s"]
            if row["burst"] is not None:
                burst = row["burst"]
        if refill is None:
            return None, None
        if burst is None:
            # a refill rate without an explicit burst gets a one-second
            # bucket, floored at one whole request
            burst = max(1.0, refill)
        return float(refill), float(burst)

    def _refilled(self, row, refill: float, burst: float) -> tuple:
        """Current (tokens, timestamp) after lazy refill (full when new)."""
        timestamp = self._clock()
        if row is None or row["tokens"] is None or row["updated_at"] is None:
            return burst, timestamp
        elapsed = max(0.0, timestamp - row["updated_at"])
        return min(burst, row["tokens"] + elapsed * refill), timestamp

    @staticmethod
    def _write_bucket(state, tenant: str, tokens: float, timestamp: float):
        state._conn.execute(
            "INSERT INTO tenants (tenant, tokens, updated_at) VALUES (?, ?, ?) "
            "ON CONFLICT (tenant) DO UPDATE SET "
            "tokens = excluded.tokens, updated_at = excluded.updated_at",
            (tenant, tokens, timestamp),
        )

    # --- administration -------------------------------------------------

    def set_limits(
        self,
        tenant: str,
        refill_per_s: "float | None",
        burst: "float | None" = None,
    ) -> None:
        """Set (or with ``None``, clear) a tenant's override.

        Changing limits resets the live bucket (tokens/updated_at go
        NULL → full on next use): a tenant whose budget was just raised
        should not start in debt from the old bucket's state.
        """
        _check_limits(refill_per_s, burst)
        if burst is not None and refill_per_s is None:
            raise ConfigError("burst override requires refill_per_s")
        with self.state.transaction() as state:
            state._conn.execute(
                "INSERT INTO tenants (tenant, refill_per_s, burst) "
                "VALUES (?, ?, ?) "
                "ON CONFLICT (tenant) DO UPDATE SET "
                "refill_per_s = excluded.refill_per_s, "
                "burst = excluded.burst, "
                "tokens = NULL, updated_at = NULL",
                (tenant, refill_per_s, burst),
            )

    # --- introspection --------------------------------------------------

    def snapshot(self, tenant: str) -> dict:
        """One tenant's effective limits and live bucket, JSON-safe."""
        row = self.state.query_one(_BUCKET_SQL, (tenant,))
        refill, burst = self._effective_limits(row)
        info = {
            "tenant": tenant,
            "refill_per_s": refill,
            "burst": burst,
            "override": bool(row is not None and row["refill_per_s"] is not None),
            "limited": refill is not None,
        }
        if refill is not None:
            tokens, _ = self._refilled(row, refill, burst)
            info["tokens"] = tokens
        return info

    def describe(self) -> dict:
        """Service-level limiter config for ``GET /stats``."""
        return {
            "refill_per_s": self.default_refill_per_s,
            "burst": self.default_burst,
            "overrides": self.state.query_one(
                "SELECT COUNT(*) AS n FROM tenants "
                "WHERE refill_per_s IS NOT NULL"
            )["n"],
        }
