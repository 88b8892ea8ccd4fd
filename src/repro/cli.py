"""Command-line interface for the De-Health reproduction.

Subcommands::

    repro-dehealth generate --users 300 --preset webmd --out corpus.jsonl
    repro-dehealth stats corpus.jsonl
    repro-dehealth attack corpus.jsonl --top-k 10 --classifier knn \
        --selection matching --weights 0.05,0.05,0.9
    repro-dehealth sweep corpus.jsonl --matrix matrix.json --workers 4
    repro-dehealth linkage --users 500 --seed 7
    repro-dehealth serve --port 8321 --corpus corpus.jsonl \
        --state-dir ./state --job-workers 2 --job-lease-s 30 \
        --rate-limit-per-s 2 --rate-burst 10 --request-deadline-s 30
    repro-dehealth reports ./state --limit 20
    repro-dehealth jobs ./state --id 1f0c2a9b
    repro-dehealth tenants ./state
    repro-dehealth tenants ./state --set acme --refill-per-s 5 --burst 20
    repro-dehealth compact ./state --max-age-s 604800 --vacuum

Every subcommand is deterministic under ``--seed``.  ``generate``,
``attack``, ``sweep``, ``linkage``, and ``serve`` all route through the
session-based :class:`repro.api.Engine`; ``sweep`` shards its attack
matrix across worker processes via :class:`repro.api.SweepExecutor`;
``serve`` exposes the same engine over the JSON service in
:mod:`repro.service` — with ``--state-dir`` it persists corpora, attack
reports, and background jobs to sqlite and resumes them across restarts.
``reports`` and ``jobs`` inspect such a state directory offline (they
only read; a live server's rows are left untouched); ``tenants`` lists
per-tenant usage and durable rate-limit state, and sets or clears
per-tenant token-bucket overrides (enforced by every server sharing the
state directory); ``compact`` prunes old reports and terminal jobs from
one (optionally ``VACUUM``-ing the file down) — safe to run against a
live server, since queued and running jobs are never touched and the
``tenants`` table (counters, overrides, live buckets) is never pruned.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.api import (
    AttackRequest,
    Engine,
    canonical_report_json,
    expand_matrix,
)
from repro.core.config import KNOBS, Knob
from repro.errors import ConfigError
from repro.experiments import run_fig1, run_fig2, run_fig7
from repro.forum import load_dataset, save_dataset
from repro.service import (
    DEFAULT_ADMISSION_WAIT_S,
    DEFAULT_BREAKER_COOLDOWN_S,
    DEFAULT_BREAKER_THRESHOLD,
    DEFAULT_MAX_SYNC_ATTACKS,
    MAX_BODY_BYTES,
    create_app,
    serve,
)
from repro.store import (
    DEFAULT_LEASE_S,
    STATE_DB_FILENAME,
    RetryPolicy,
    StateStore,
    TenantRateLimiter,
)


#: The knobs ``sweep`` can force onto every variant of its matrix.
SWEEP_OVERRIDES: tuple = ("blocking", "refined_keep_fraction", "extract_workers")


def _add_knob_flag(parser: argparse.ArgumentParser, spec: Knob, **overrides) -> None:
    """Add ``spec``'s flag to ``parser``, with the knob's default, bound
    choices and parser unless ``overrides`` says otherwise."""
    options = {"dest": spec.name, "default": spec.default, "help": spec.help}
    if spec.metavar:
        options["metavar"] = spec.metavar
    if spec.choices:
        options["choices"] = spec.choices
    elif spec.parse:
        def parse(text: str, parse=spec.parse):
            try:
                return parse(text)
            except (ConfigError, ValueError) as exc:
                raise argparse.ArgumentTypeError(str(exc)) from exc

        options["type"] = parse
    else:
        options["type"] = type(spec.default)
    parser.add_argument(spec.flag, **{**options, **overrides})


def _cmd_generate(args: argparse.Namespace) -> int:
    engine = Engine()
    summary = engine.generate(
        preset=args.preset, users=args.users, seed=args.seed, name="cli"
    )
    save_dataset(engine.corpus("cli"), args.out)
    print(f"wrote {args.out}: {summary['users']} users, {summary['posts']} posts, "
          f"{summary['threads']} threads")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.corpus)
    fig1 = run_fig1(dataset)
    fig2 = run_fig2(dataset)
    fig7 = run_fig7(dataset)
    print(f"corpus: {dataset}")
    print(f"mean posts/user:     {fig1.mean_posts_per_user:.2f}")
    print(f"users with <5 posts: {fig1.fraction_under_5:.1%}")
    print(f"mean post length:    {fig2.mean_words:.1f} words")
    print(f"graph: mean degree {fig7.mean_degree:.2f}, "
          f"median {fig7.median_degree:.0f}, "
          f"{fig7.n_components} components")
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    engine = Engine()
    engine.register("cli", load_dataset(args.corpus))
    request = AttackRequest(
        corpus="cli",
        aux_fraction=args.aux_fraction,
        split_seed=args.seed,
        refined=not args.skip_refined,
        **{spec.name: getattr(args, spec.name) for spec in KNOBS if spec.flag},
    )
    request = request.variant(ks=request.evaluation_ks())
    report = engine.attack(request)
    print(f"anonymized users: {report.n_anonymized}")
    for k in (1, 5, request.top_k):
        print(f"top-{k} success: {report.success_rate(k):.1%}")
    if request.refined:
        print(f"refined DA accuracy: {report.refined_accuracy:.1%}")
    return 0


def load_matrix_requests(path: str, default_corpus: str = "cli") -> list:
    """Read a matrix-spec JSON file and expand it to attack requests.

    The spec uses the same grammar as ``POST /sweep`` (``{"requests":
    [...]}`` or ``{"base": {...}, "grid": {...}}``); any request that
    doesn't name a corpus is pointed at ``default_corpus`` — the corpus
    file the CLI just registered.
    """
    try:
        spec = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise SystemExit(f"error: cannot read matrix file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SystemExit(f"error: matrix file {path} is not valid JSON: {exc}") from exc
    if isinstance(spec, dict) and ("base" in spec or "grid" in spec):
        spec = dict(spec)
        base = dict(spec.get("base") or {})
        base.setdefault("corpus", default_corpus)
        spec["base"] = base
    elif isinstance(spec, dict) and isinstance(spec.get("requests"), list):
        spec = {
            "requests": [
                {"corpus": default_corpus, **item} if isinstance(item, dict) else item
                for item in spec["requests"]
            ]
        }
    try:
        return expand_matrix(spec)
    except ConfigError as exc:
        raise SystemExit(f"error: bad matrix spec in {path}: {exc}") from exc


def _cmd_sweep(args: argparse.Namespace) -> int:
    engine = Engine()
    engine.register("cli", load_dataset(args.corpus))
    requests = load_matrix_requests(args.matrix, default_corpus="cli")
    # CLI overrides: force a knob onto every variant of the matrix
    # (matrix-spec fields win when unset)
    overrides = {
        spec.name: getattr(args, spec.name)
        for spec in KNOBS
        if getattr(args, spec.name, None) is not None
    }
    if overrides:
        requests = [r.variant(**overrides) for r in requests]
    reports = engine.sweep(requests, parallel=args.workers)
    for report in reports:
        request = report.request
        knobs = (
            f"split={request.world}/{request.split_key()[1]}/{request.split_seed} "
            f"k={request.top_k} clf={request.classifier} sel={request.selection}"
        )
        rates = " ".join(
            f"top-{k}={report.success_rate(k):.1%}"
            for k in request.evaluation_ks()
        )
        line = f"{knobs}  {rates}"
        if report.refined_accuracy is not None:
            line += f"  refined={report.refined_accuracy:.1%}"
        print(line)
    print(f"{len(reports)} variants, workers={args.workers}")
    if args.out:
        Path(args.out).write_text(
            canonical_report_json(reports, indent=2), encoding="utf-8"
        )
        print(f"wrote {args.out}")
    return 0


def _cmd_linkage(args: argparse.Namespace) -> int:
    result = Engine().linkage(users=args.users, seed=args.seed)
    for line in result["summary"]:
        print(line)
    return 0


def build_engine_for_serve(
    corpus_paths, cache_budget_mb: "float | None" = None
) -> Engine:
    """An engine pre-loaded with the ``--corpus`` files (name = file stem).

    ``cache_budget_mb`` caps the engine's similarity + extraction cache
    bytes (LRU eviction) — long-running servers should set it, since the
    shared extraction cache otherwise grows with every distinct post seen.
    """
    budget = None if cache_budget_mb is None else int(cache_budget_mb * 1e6)
    engine = Engine(cache_budget_bytes=budget)
    for path in corpus_paths or ():
        name = Path(path).stem
        if name in engine.corpus_names:
            raise SystemExit(
                f"error: duplicate corpus name {name!r} from {path}; "
                "rename one of the files"
            )
        engine.register(name, load_dataset(path))
    return engine


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.testing import faults

    # chaos harness hook: a REPRO_FAULTS env var (serialized FaultPlan)
    # arms the fault seams in this process; unset = no-op
    faults.install_from_env()
    engine = build_engine_for_serve(
        args.corpus, cache_budget_mb=args.cache_budget_mb
    )
    if args.state_dir:
        # attach before create_app so registered --corpus files are written
        # through and previously persisted corpora rehydrate
        engine.attach_store(StateStore.at_dir(args.state_dir))
    app = create_app(
        engine,
        job_workers=args.job_workers,
        job_lease_s=args.job_lease_s,
        job_deadline_s=args.job_deadline_s,
        job_retries=args.job_retries,
        rate_limit_per_s=args.rate_limit_per_s,
        rate_burst=args.rate_burst,
        request_deadline_s=args.request_deadline_s,
        max_sync_attacks=args.max_sync_attacks,
        admission_wait_s=args.admission_wait_s,
        max_body_bytes=args.max_body_bytes,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_s=args.breaker_cooldown_s,
    )
    serve(app=app, host=args.host, port=args.port)
    return 0


def _open_state(state_dir: str):
    """Open an existing service state database (never creates one)."""
    db_path = Path(state_dir) / STATE_DB_FILENAME
    if not db_path.exists():
        raise SystemExit(f"error: no state database at {db_path}")
    return StateStore.at_dir(state_dir)


def _cmd_reports(args: argparse.Namespace) -> int:
    with _open_state(args.state_dir) as state:
        if args.id is not None:
            payload = state.reports.fetch(args.id, tenant=None)
            if payload is None:
                raise SystemExit(f"error: no stored report with id {args.id}")
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        rows = state.reports.list(
            tenant=args.tenant, fingerprint=args.fingerprint, limit=args.limit
        )
        for row in rows:
            print(
                f"#{row['id']} tenant={row['tenant']} corpus={row['corpus']} "
                f"fingerprint={row['fingerprint'][:12]} "
                f"request={row['request_hash']}"
            )
        counters = state.resilience_counters()
        print(
            f"{len(rows)} report(s) in {args.state_dir} "
            f"(pruned so far: {counters['pruned_reports']})"
        )
        return 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    with _open_state(args.state_dir) as state:
        if args.id is not None:
            payload = state.jobs.get(args.id, tenant=None)
            if payload is None:
                raise SystemExit(f"error: no job with id {args.id!r}")
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        rows = state.jobs.list(tenant=args.tenant, limit=args.limit)
        for row in rows:
            line = (
                f"{row['job_id']} tenant={row['tenant']} kind={row['kind']} "
                f"state={row['state']} "
                f"shards={row['shards_done']}/{row['shards_total']} "
                f"attempts={row['attempts']}"
            )
            if row["owner"]:
                line += f" owner={row['owner']}"
            if row["error"]:
                line += f" error={row['error']!r}"
            print(line)
        counters = state.resilience_counters()
        print(
            f"{len(rows)} job(s) in {args.state_dir} "
            f"(retries: {counters['retries']}, "
            f"reclaimed: {counters['reclaimed_jobs']}, "
            f"cancelled: {counters['cancelled_jobs']})"
        )
        return 0


def _cmd_tenants(args: argparse.Namespace) -> int:
    if args.set and args.clear:
        raise SystemExit("error: --set and --clear are mutually exclusive")
    if (args.refill_per_s is not None or args.burst is not None) and not args.set:
        raise SystemExit("error: --refill-per-s/--burst require --set TENANT")
    with _open_state(args.state_dir) as state:
        limiter = TenantRateLimiter(state)
        if args.set:
            if args.refill_per_s is None:
                raise SystemExit("error: --set requires --refill-per-s")
            try:
                limiter.set_limits(args.set, args.refill_per_s, args.burst)
            except ConfigError as exc:
                raise SystemExit(f"error: {exc}") from exc
            line = f"set {args.set}: refill_per_s={args.refill_per_s:g}"
            if args.burst is not None:
                line += f" burst={args.burst:g}"
            print(line + " (bucket reset; enforced by all servers on this state dir)")
            return 0
        if args.clear:
            limiter.set_limits(args.clear, None)
            print(f"cleared override for {args.clear} (server defaults apply)")
            return 0
        counters = state.tenant_counters()
        for name in sorted(counters):
            info = limiter.snapshot(name)
            block = counters[name]
            line = (
                f"{name} requests={block['requests']} "
                f"attacks={block['attacks']} "
                f"jobs={block['jobs_submitted']}"
            )
            if info["limited"]:
                line += (
                    f" refill_per_s={info['refill_per_s']:g} "
                    f"burst={info['burst']:g} tokens={info['tokens']:.2f}"
                )
                if info["override"]:
                    line += " (override)"
            else:
                # the offline inspector cannot see a live server's
                # process-level --rate-limit-per-s defaults, only the
                # durable overrides stored in this table
                line += " no-override (server defaults apply)"
            print(line)
        print(f"{len(counters)} tenant(s) in {args.state_dir}")
        return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    with _open_state(args.state_dir) as state:
        summary = state.prune(
            max_age_s=args.max_age_s,
            keep_reports=args.keep_reports,
            keep_jobs=args.keep_jobs,
            vacuum=args.vacuum,
        )
        print(
            f"pruned {summary['pruned_reports']} report(s), "
            f"{summary['pruned_jobs']} terminal job(s)"
            + (" and compacted the database file" if summary["vacuumed"] else "")
        )
        print(
            f"kept {summary['tenants_kept']} tenant row(s) "
            "(counters, rate limits, and token buckets are never pruned)"
        )
        return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-dehealth",
        description="De-Health online health data de-anonymization (reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic forum corpus")
    gen.add_argument("--users", type=int, default=300)
    gen.add_argument("--preset", choices=("webmd", "healthboards"), default="webmd")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output JSONL path")
    gen.set_defaults(func=_cmd_generate)

    stats = sub.add_parser("stats", help="corpus statistics (Fig 1/2/7)")
    stats.add_argument("corpus", help="JSONL corpus path")
    stats.set_defaults(func=_cmd_stats)

    attack = sub.add_parser("attack", help="run De-Health on a corpus")
    attack.add_argument("corpus", help="JSONL corpus path")
    attack.add_argument(
        "--aux-fraction", type=float, default=AttackRequest.aux_fraction
    )
    attack.add_argument(
        "--skip-refined", action="store_true",
        help="only run the Top-K phase",
    )
    for spec in KNOBS:
        if spec.flag:
            _add_knob_flag(attack, spec)
    attack.set_defaults(func=_cmd_attack)

    sweep = sub.add_parser(
        "sweep", help="run an attack matrix, sharded across worker processes"
    )
    sweep.add_argument("corpus", help="JSONL corpus path")
    sweep.add_argument(
        "--matrix", required=True, metavar="PATH",
        help="matrix-spec JSON file: {'requests': [...]} or "
             "{'base': {...}, 'grid': {...}} (cartesian product)",
    )
    sweep.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (one fitted session per split shard); "
             "0 = one per available core",
    )
    sweep.add_argument(
        "--out", metavar="PATH", default=None,
        help="write merged reports as canonical JSON (deterministic, "
             "timing fields dropped)",
    )
    for spec in KNOBS:
        if spec.name in SWEEP_OVERRIDES:
            _add_knob_flag(
                sweep, spec, default=None,
                help=f"{spec.help}; forced onto every matrix variant "
                     "(default: whatever the matrix spec says)",
            )
    sweep.set_defaults(func=_cmd_sweep)

    linkage = sub.add_parser("linkage", help="run the linkage attack campaign")
    linkage.add_argument("--users", type=int, default=500)
    linkage.add_argument("--seed", type=int, default=0)
    linkage.set_defaults(func=_cmd_linkage)

    srv = sub.add_parser("serve", help="serve the JSON API (wsgiref)")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8321)
    srv.add_argument(
        "--corpus", action="append", default=[], metavar="PATH",
        help="pre-load a JSONL corpus (repeatable; name = file stem)",
    )
    srv.add_argument(
        "--cache-budget-mb", type=float, default=None, metavar="MB",
        help="evict similarity/extraction caches (LRU) past this many "
             "megabytes; default: unlimited",
    )
    srv.add_argument(
        "--state-dir", default=None, metavar="DIR",
        help="persist corpora, attack reports, and background jobs to a "
             "sqlite database in DIR; restarts rehydrate corpora and serve "
             "stored reports without re-fitting (default: in-memory only)",
    )
    srv.add_argument(
        "--job-workers", type=int, default=2, metavar="N",
        help="worker threads of the background job pool "
             "(async /attack and /sweep requests)",
    )
    srv.add_argument(
        "--job-lease-s", type=float, default=DEFAULT_LEASE_S, metavar="S",
        help="background-job lease duration: a crashed worker's jobs are "
             "requeued once their lease lapses — several server processes "
             "may share one --state-dir (default: %(default)g)",
    )
    srv.add_argument(
        "--job-deadline-s", type=float, default=None, metavar="S",
        help="per-job wall-clock deadline; past it a job terminalizes as "
             "failed instead of starting another shard (default: none)",
    )
    srv.add_argument(
        "--job-retries", type=int, default=RetryPolicy.max_attempts, metavar="N",
        help="per-shard attempt budget for transient failures (sqlite "
             "lock contention, crashed workers); fatal errors never "
             "retry (default: %(default)d)",
    )
    srv.add_argument(
        "--rate-limit-per-s", type=float, default=None, metavar="R",
        help="default per-tenant token refill rate (tokens/second; one "
             "sync or async attack costs one token, a sweep one per "
             "variant).  Buckets persist in the state database, so every "
             "server sharing a --state-dir enforces one combined budget "
             "per tenant; per-tenant overrides (see the tenants "
             "subcommand) win (default: unlimited)",
    )
    srv.add_argument(
        "--rate-burst", type=float, default=None, metavar="B",
        help="default per-tenant bucket capacity "
             "(default: max(1, rate-limit-per-s))",
    )
    srv.add_argument(
        "--request-deadline-s", type=float, default=None, metavar="S",
        help="default wall-clock deadline for synchronous attack "
             "requests, checked at pipeline stage boundaries; past it the "
             "request fails with a structured 504 instead of wedging a "
             "worker (default: none; requests may set their own)",
    )
    srv.add_argument(
        "--max-sync-attacks", type=int, default=DEFAULT_MAX_SYNC_ATTACKS,
        metavar="N",
        help="synchronous attack/sweep requests executing at once; "
             "arrivals beyond it wait briefly, then shed with a "
             "retriable 503 (default: %(default)d)",
    )
    srv.add_argument(
        "--admission-wait-s", type=float, default=DEFAULT_ADMISSION_WAIT_S,
        metavar="S",
        help="how long an arriving sync attack waits for a slot before "
             "being shed (default: %(default)g)",
    )
    srv.add_argument(
        "--max-body-bytes", type=int, default=MAX_BODY_BYTES, metavar="N",
        help="reject request bodies over N bytes with 413 before reading "
             "them (default: %(default)d)",
    )
    srv.add_argument(
        "--breaker-threshold", type=int, default=DEFAULT_BREAKER_THRESHOLD,
        metavar="N",
        help="consecutive deterministic failures before a corpus's "
             "circuit opens and its sync attacks fail fast with 503 "
             "(default: %(default)d)",
    )
    srv.add_argument(
        "--breaker-cooldown-s", type=float, default=DEFAULT_BREAKER_COOLDOWN_S,
        metavar="S",
        help="seconds an open circuit waits before admitting one "
             "half-open probe request (default: %(default)g)",
    )
    srv.set_defaults(func=_cmd_serve)

    reports = sub.add_parser(
        "reports", help="list/inspect attack reports stored by serve --state-dir"
    )
    reports.add_argument("state_dir", help="the server's --state-dir")
    reports.add_argument(
        "--id", type=int, default=None, help="print one stored report as JSON"
    )
    reports.add_argument(
        "--tenant", default=None, help="only this tenant (default: all)"
    )
    reports.add_argument(
        "--fingerprint", default=None, help="only this corpus fingerprint"
    )
    reports.add_argument("--limit", type=int, default=50)
    reports.set_defaults(func=_cmd_reports)

    jobs = sub.add_parser(
        "jobs", help="list/inspect background jobs stored by serve --state-dir"
    )
    jobs.add_argument("state_dir", help="the server's --state-dir")
    jobs.add_argument(
        "--id", default=None, help="print one job (state, progress, result) as JSON"
    )
    jobs.add_argument(
        "--tenant", default=None, help="only this tenant (default: all)"
    )
    jobs.add_argument("--limit", type=int, default=50)
    jobs.set_defaults(func=_cmd_jobs)

    tenants = sub.add_parser(
        "tenants",
        help="list tenant usage and durable rate limits; set/clear "
             "per-tenant token-bucket overrides",
    )
    tenants.add_argument("state_dir", help="the server's --state-dir")
    tenants.add_argument(
        "--set", default=None, metavar="TENANT",
        help="set TENANT's token-bucket override (requires --refill-per-s; "
             "resets the live bucket)",
    )
    tenants.add_argument(
        "--clear", default=None, metavar="TENANT",
        help="clear TENANT's override so server defaults apply again",
    )
    tenants.add_argument(
        "--refill-per-s", type=float, default=None, metavar="R",
        help="override refill rate, tokens/second (with --set)",
    )
    tenants.add_argument(
        "--burst", type=float, default=None, metavar="B",
        help="override bucket capacity (with --set; default: "
             "max(1, refill rate))",
    )
    tenants.set_defaults(func=_cmd_tenants)

    compact = sub.add_parser(
        "compact",
        help="prune old reports and terminal jobs from a --state-dir database",
    )
    compact.add_argument("state_dir", help="the server's --state-dir")
    compact.add_argument(
        "--max-age-s", type=float, default=None, metavar="S",
        help="drop reports and terminal jobs older than this many seconds",
    )
    compact.add_argument(
        "--keep-reports", type=int, default=None, metavar="N",
        help="keep only the N newest reports",
    )
    compact.add_argument(
        "--keep-jobs", type=int, default=None, metavar="N",
        help="keep only the N newest terminal jobs (queued/running never pruned)",
    )
    compact.add_argument(
        "--vacuum", action="store_true",
        help="VACUUM the database file after pruning to reclaim disk space",
    )
    compact.set_defaults(func=_cmd_compact)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
