"""Parallel sharded sweep executor over the attack engine.

A sweep is an attack *matrix*: many :class:`~repro.api.AttackRequest`
variants, usually spanning several Δ1/Δ2 splits.  The expensive unit of
work is the per-split fit (feature extraction + similarity), so the
executor shards the matrix by split: requests are grouped by ``(corpus
fingerprint, split_key)``, each shard is served by exactly one
:class:`~repro.api.AttackSession` (one fit per shard), and shards execute
concurrently across worker processes.

Determinism guarantee
---------------------
Merged reports come back in the exact order of the input requests,
independent of worker completion order, and every report field except the
two volatile ones — ``elapsed_ms`` (wall clock) and ``reused_fit`` (a
scheduling detail) — is bit-identical between serial and parallel
execution: each report is a pure function of (corpus, split spec, attack
knobs).  :func:`canonical_report_json` serializes reports with the volatile
fields dropped, so regression suites can assert byte-identity between
serial runs, parallel runs, and checked-in goldens.

Only the standard library is used for orchestration
(:mod:`concurrent.futures`); worker processes rebuild their shard's
session from the pickled dataset, so no state is shared between shards.

Backend choice: the ``process`` backend uses the platform's default
multiprocessing start method (fork on Linux) — use it from
single-threaded parents (the CLI, experiment scripts).  Multi-threaded
parents (the threading WSGI server) must use the ``thread`` backend
instead: forking a process whose other threads hold locks can deadlock
the children, and the engine/session locks make threads safe anyway.
"""

from __future__ import annotations

import itertools
import json
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, ThreadPoolExecutor, wait

from repro.api.protocol import DEFAULT_TENANT, AttackReport, AttackRequest
from repro.api.session import AttackSession
from repro.errors import ConfigError
from repro.utils.workers import clamp_workers

#: Executor backends ``SweepExecutor`` accepts.  ``process`` gives true
#: multi-core parallelism (one fitted session per worker process);
#: ``thread`` shares the engine's session cache under its lock (useful when
#: the shards' numpy kernels release the GIL); ``serial`` runs in-process.
BACKEND_CHOICES: tuple = ("process", "thread", "serial")

#: Hard ceiling on worker count, whatever the caller asks for.
MAX_WORKERS = 32


def resolve_workers(workers: "int | None") -> int:
    """Clamp a worker-count request to ``[1, MAX_WORKERS]``.

    ``None`` or 0 means "use every core the scheduler gives us"
    (:func:`repro.utils.workers.clamp_workers`); bad input is a
    :class:`ConfigError`.
    """
    try:
        return clamp_workers(workers, MAX_WORKERS)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# --- matrix specs -------------------------------------------------------

#: Hard cap on an expanded service sweep, so one request cannot wedge a
#: worker: ``POST /sweep`` and the job runner's sweep jobs expand with it.
MAX_SWEEP_REQUESTS = 256


def expand_grid(base: dict, grid: dict, max_requests: "int | None" = None) -> list:
    """Cartesian-product expansion of ``grid`` values over a ``base`` request.

    ``expand_grid({"corpus": "c"}, {"top_k": [5, 10], "classifier": ["knn",
    "smo"]})`` yields four requests, ordered with the *last* (alphabetically)
    grid key varying fastest.  Keys are validated by
    :meth:`AttackRequest.from_dict`, so typos fail with :class:`ConfigError`.
    """
    if not isinstance(base, dict):
        raise ConfigError(
            f"sweep base must be a JSON object, got {type(base).__name__}"
        )
    if not isinstance(grid, dict) or not grid:
        raise ConfigError("sweep grid must be a non-empty JSON object")
    names = sorted(grid)
    value_lists = []
    size = 1
    for name in names:
        values = grid[name]
        if not isinstance(values, (list, tuple)) or not len(values):
            raise ConfigError(f"grid value for {name!r} must be a non-empty list")
        value_lists.append(list(values))
        size *= len(values)
        # reject oversized grids before materializing the product — one
        # spec must not be able to wedge the worker pool
        if max_requests is not None and size > max_requests:
            raise ConfigError(
                f"sweep grid expands to {size}+ requests, exceeding the cap "
                f"of {max_requests}"
            )
    requests = []
    for combo in itertools.product(*value_lists):
        payload = dict(base)
        payload.update(dict(zip(names, combo)))
        requests.append(AttackRequest.from_dict(payload))
    return requests


def expand_matrix(spec: dict, max_requests: "int | None" = None) -> list:
    """Turn a matrix-spec JSON object into a list of requests.

    Two spellings are accepted (exactly one must be used)::

        {"requests": [{...}, {...}]}          # explicit list
        {"base": {...}, "grid": {"k": [..]}}  # cartesian product over base

    This is the shared grammar of the ``POST /sweep`` body and the CLI's
    ``repro-dehealth sweep --matrix`` file.
    """
    if not isinstance(spec, dict):
        raise ConfigError(
            f"matrix spec must be a JSON object, got {type(spec).__name__}"
        )
    unknown = set(spec) - {"requests", "base", "grid"}
    if unknown:
        raise ConfigError(
            f"unknown matrix spec fields: {sorted(unknown)}; "
            "allowed: ['base', 'grid', 'requests']"
        )
    if "requests" in spec:
        if "base" in spec or "grid" in spec:
            raise ConfigError("pass either 'requests' or 'base'+'grid', not both")
        specs = spec["requests"]
        if not isinstance(specs, list) or not specs:
            raise ConfigError("'requests' must be a non-empty list")
        requests = [AttackRequest.from_dict(item) for item in specs]
    elif "grid" in spec:
        requests = expand_grid(
            spec.get("base", {}), spec["grid"], max_requests=max_requests
        )
    else:
        raise ConfigError("matrix spec needs 'requests' or 'base'+'grid'")
    if max_requests is not None and len(requests) > max_requests:
        raise ConfigError(
            f"sweep of {len(requests)} requests exceeds the cap of {max_requests}"
        )
    return requests


# --- shard planning -----------------------------------------------------


def plan_shards(requests, fingerprints: "dict | None" = None) -> list:
    """Group requests by split so each shard needs exactly one fit.

    Returns ``[(shard_key, [(index, request), ...]), ...]`` where
    ``shard_key`` is ``(corpus-or-fingerprint, split_key)``.  Shards are
    ordered by first appearance in the input and each shard preserves input
    order, so execution plans — and therefore session reuse patterns — are
    deterministic.  The whole batch is validated up front: nothing runs if
    any request is malformed.
    """
    shards: dict = {}
    for index, request in enumerate(requests):
        request.validate()
        corpus_id = (fingerprints or {}).get(request.corpus, request.corpus)
        key = (corpus_id, request.split_key())
        shards.setdefault(key, []).append((index, request))
    return list(shards.items())


def _run_shard(dataset, request_payloads: list, extractor) -> list:
    """Worker entry: one fitted session serves every request of the shard.

    Module-level so it pickles under the ``process`` backend.  Reports come
    back as wire dicts (cheap to pickle, schema-checked on merge).
    """
    requests = [AttackRequest.from_dict(p) for p in request_payloads]
    session = AttackSession.from_dataset(dataset, requests[0], extractor)
    return [session.run(request).to_dict() for request in requests]


# --- canonical serialization -------------------------------------------


def canonical_report_json(reports, indent: "int | None" = None) -> str:
    """Deterministic JSON for a merged report list (golden-comparable).

    Volatile fields (``elapsed_ms``, ``reused_fit``) are dropped and keys
    are sorted, so two runs that agree on the science produce byte-identical
    strings however they were scheduled.
    """
    payload = [report.canonical_dict() for report in reports]
    return json.dumps(payload, indent=indent, sort_keys=True) + (
        "\n" if indent is not None else ""
    )


# --- executor -----------------------------------------------------------


class SweepExecutor:
    """Plans, shards, and executes an attack matrix against an engine.

    ``workers=1`` (the default) runs serially through the engine — identical
    behaviour, sessions cached as usual.  ``workers>1`` fans shards out to a
    pool; with the ``process`` backend each worker rebuilds its shard's
    session from the pickled corpus (one fit per shard, zero shared state),
    with the ``thread`` backend shards share the engine's (locked) session
    cache and fitted sessions remain available afterwards.
    """

    def __init__(
        self,
        engine,
        workers: "int | None" = 1,
        backend: str = "process",
        tenant: str = DEFAULT_TENANT,
    ) -> None:
        if backend not in BACKEND_CHOICES:
            raise ConfigError(
                f"backend must be one of {BACKEND_CHOICES}, got {backend!r}"
            )
        self.engine = engine
        self.workers = resolve_workers(workers)
        self.backend = "serial" if self.workers == 1 else backend
        # reports computed through the engine are attributed (and, with a
        # state store, persisted) under this tenant
        self.tenant = tenant

    # -- planning --------------------------------------------------------

    def plan(self, requests) -> list:
        """Validated shard plan for ``requests`` (see :func:`plan_shards`)."""
        normalized = [
            AttackRequest.from_dict(r) if isinstance(r, dict) else r
            for r in requests
        ]
        # resolve every corpus up front — unknown names must fail before
        # any shard starts, not mid-sweep
        fingerprints = {
            corpus: self.engine.fingerprint(corpus)
            for corpus in dict.fromkeys(request.corpus for request in normalized)
        }
        return plan_shards(normalized, fingerprints)

    # -- execution -------------------------------------------------------

    def execute(self, requests) -> list:
        """Run the matrix; reports are merged back into input order."""
        shards = self.plan(requests)
        pooled = self.backend != "serial" and len(shards) > 1
        if pooled:
            results = self._run_pool(shards)
        else:
            results = [self._attack_shard(members) for _, members in shards]
        merged: list = [None] * sum(len(members) for _, members in shards)
        for (_, members), reports in zip(shards, results):
            for (index, _), report in zip(members, reports):
                merged[index] = report
        if pooled and self.backend == "process":
            # worker processes had no engine: account the merged batch (and
            # persist it, with a store) from the parent
            self.engine.record_reports(merged, tenant=self.tenant)
        return merged

    def _attack_shard(self, members) -> list:
        """One shard through the engine (one session), in input order."""
        return [
            self.engine.attack(request, tenant=self.tenant) for _, request in members
        ]

    def _run_pool(self, shards) -> list:
        """Each shard's reports, run on a thread or process pool."""
        process = self.backend == "process"
        pool_cls = ProcessPoolExecutor if process else ThreadPoolExecutor
        with pool_cls(max_workers=min(self.workers, len(shards))) as pool:
            if process:
                futures = [
                    pool.submit(
                        _run_shard,
                        self.engine.corpus(members[0][1].corpus),
                        [request.to_dict() for _, request in members],
                        self.engine.extractor,
                    )
                    for _, members in shards
                ]
            else:
                futures = [pool.submit(self._attack_shard, m) for _, m in shards]
            done, not_done = wait(futures, return_when=FIRST_EXCEPTION)
            failure = next(
                (f.exception() for f in done if f.exception() is not None), None
            )
            if failure is not None:
                for future in not_done:
                    future.cancel()
                raise failure
            results = [future.result() for future in futures]
        if process:
            results = [
                [AttackReport.from_dict(payload) for payload in payloads]
                for payloads in results
            ]
        return results
