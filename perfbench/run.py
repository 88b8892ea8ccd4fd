"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload attack_refined --seed 1 --seconds 10 --trace 0

Run from the repository root (the program is imported from ``src/``).
``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` wraps each layer's public functions (``tracer.py``) and reports the
per-layer metrics instead, and writes its spans to
``.perfbench-run/spans-<workload>-seed<seed>.jsonl``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 when every op's output
matched its reference, 1 when any op failed, 2 when the program is not
there to run.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".perfbench-run"

#: Cold set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Host-probe timings taken at the start and at the end of every run.
PROBE_REPS = 10

#: End-to-end metrics, ``(name, unit)``, in BENCHMARK.json order.  The
#: p99 is printed beside them but not gated: on a shared host the service
#: tail doubles in the host's slow spells (see README.md).
END_TO_END: tuple = (
    ("latency_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

#: ``(metric suffix, span names)`` of each store function.
STORE_FUNCS: tuple = (
    ("limiter", ("TenantRateLimiter.acquire",)),
    ("bump_tenant", ("StateStore.bump_tenant",)),
    ("lookup", ("AttackReportStore.lookup",)),
    ("record", ("AttackReportStore.record",)),
    ("list", ("AttackReportStore.list",)),
)

#: Service routes with their own latency metric (the op kinds).
ROUTES: tuple = ("attack_hit", "attack_miss", "stats", "reports")


def host_probe_ms() -> list:
    """Timings (ms) of a fixed pure-Python + numpy loop.

    Nothing in it depends on the program; a change in it between two runs
    is a change in the host.  Its data stay in the fastest caches, so the
    timing does not depend on what the process allocated before it.
    """
    import numpy as np

    base = np.arange(40_000, dtype=np.float64).reshape(200, 200) / 40_000.0
    timings = []
    for _ in range(PROBE_REPS):
        started = time.perf_counter()
        acc = 0
        for i in range(150_000):
            acc += (i * i) % 7
        table: dict = {}
        for i in range(50_000):
            table[i % 997] = table.get(i % 997, 0) + i
        matrix = base
        for _ in range(20):
            matrix = np.tanh(matrix @ base)
        timings.append((time.perf_counter() - started) * 1e3)
    return timings


def percentile(values: list, share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("attack_refined", "topk_sweep", "service_mixed"),
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=10.0,
        help="nominal measuring window; converted to a fixed op count",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(workload, tracer) -> dict:
    """Set up, run every op, check outputs; returns the raw figures.

    A workload whose ops are independent of each other (``segmented``)
    runs a third of its ops after each of the set-ups, so the measured
    ops are spread over the whole run rather than one stretch of it and
    a slow spell of the host weighs on fewer of them.  Otherwise every op
    runs after the last set-up.
    """
    probes = host_probe_ms()
    ops = list(enumerate(workload.ops))
    if workload.segmented:
        segments = [ops[rep::SETUP_REPS] for rep in range(SETUP_REPS)]
    else:
        segments = [[]] * (SETUP_REPS - 1) + [ops]
    setup_s, generate_s = [], []
    durations: dict = {}
    failed: set = set()
    if tracer is not None:
        tracer.install()
    try:
        for segment in segments:
            workload.close()
            gc.collect()
            started = time.perf_counter()
            generate_s.append(workload.setup())
            setup_s.append(time.perf_counter() - started)
            gc.collect()
            for index, op in segment:
                ctx = workload.prepare(op)
                if tracer is not None:
                    tracer.begin(index, workload.kind(op))
                started = time.perf_counter()
                try:
                    out = workload.run(ctx)
                except Exception as exc:  # noqa: BLE001 — a failed op, reported
                    print(f"op {index} failed: {exc!r}", file=sys.stderr)
                    failed.add(index)
                    continue
                finally:
                    elapsed = time.perf_counter() - started
                    if tracer is not None:
                        tracer.end()
                durations[index] = elapsed
                workload.after(index, op, ctx, out)
    finally:
        if tracer is not None:
            tracer.uninstall()
    # ru_maxrss is KiB on Linux; read before the output check so the
    # references' own memory stays out of the figure
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    counters = workload.counters()
    try:
        failed.update(workload.check())
    finally:
        workload.close()
    probes += host_probe_ms()
    return {
        "setup_s": setup_s,
        "generate_s": generate_s,
        # every op that returned, so a run whose outputs are all wrong
        # still reports how long they took
        "durations_s": [durations[i] for i in sorted(durations)],
        "failed": sorted(failed),
        "peak_rss_mb": peak_rss_mb,
        "counters": counters,
        "probes_ms": probes,
    }


def end_to_end(workload, raw: dict) -> dict:
    latencies = [d * 1e3 for d in raw["durations_s"]]
    n = len(latencies)
    return {
        "latency_p50_ms": (statistics.median(latencies), n),
        "latency_p99_ms": (percentile(latencies, 0.99), n),
        "throughput_per_s": (
            workload.units_per_op * n / sum(raw["durations_s"]), n
        ),
        "peak_rss_mb": (raw["peak_rss_mb"], 1),
        "setup_s": (statistics.median(raw["setup_s"]), len(raw["setup_s"])),
    }


def per_layer(workload, raw: dict, tracer) -> dict:
    """Every per-layer metric: ``name -> (value, unit, samples)``."""
    summary = tracer.summary()
    n_ops = len(workload.ops)
    counters = raw["counters"]

    def pick(names, field):
        return sum(summary[name][field] for name in names if name in summary)

    def self_ms(*names):
        return pick(names, "self_s") * 1e3 / n_ops

    def total_ms(*names):
        return pick(names, "total_s") * 1e3 / n_ops

    def calls(*names):
        return pick(names, "outer_calls")

    extract = ("FeatureExtractor.extract_matrix", "FeatureExtractor.extract_rows")
    user = "RefinedDeanonymizer.deanonymize_user"
    user_durations = summary.get(user, {}).get("durations", [])
    out = {
        "datagen.generate_s": (
            statistics.median(raw["generate_s"]), "s", len(raw["generate_s"])
        ),
        "stylometry.extract_ms": (self_ms(*extract), "ms", n_ops),
        "stylometry.extract_calls": (calls(*extract), "count", 1),
        "stylometry.cache_hit_ratio": (
            counters["stylometry.cache_hit_ratio"], "ratio", 1
        ),
        "graph.build_ms": (self_ms("UDAGraph.__init__"), "ms", n_ops),
        "graph.builds": (counters["graph.builds"], "count", 1),
        "similarity.scores_self_ms": (
            self_ms("SimilarityComputer.scores"), "ms", n_ops
        ),
        "similarity.builds": (counters["similarity.builds"], "count", 1),
        "similarity.hits": (counters["similarity.hits"], "count", 1),
        "blocking.mask_ms": (
            self_ms("SimilarityComputer.candidate_mask"), "ms", n_ops
        ),
    }
    for key in sorted(k for k in counters if k.startswith("blocking.pair_fraction.")):
        out[key] = (counters[key], "ratio", 1)
    out.update({
        "topk.rank_ms": (self_ms("DeHealth.top_k_result"), "ms", n_ops),
        "topk.candidates_ms": (self_ms("DeHealth.top_k_candidates"), "ms", n_ops),
        "refined.user_ms": (total_ms(user), "ms", n_ops),
        "refined.user_p50_ms": (
            statistics.median(user_durations) * 1e3 if user_durations else 0.0,
            "ms", len(user_durations),
        ),
        "refined.users": (calls(user), "count", 1),
        "refined.self_ms": (self_ms(user), "ms", n_ops),
        "ml.fit_ms": (self_ms("SMOClassifier.fit"), "ms", n_ops),
        "ml.fits": (calls("SMOClassifier.fit"), "count", 1),
        "ml.predict_ms": (
            self_ms("OneVsRestClassifier.predict_scores"), "ms", n_ops
        ),
        "api.attack_ms": (total_ms("Engine.attack"), "ms", n_ops),
        "api.session_run_ms": (total_ms("AttackSession.run"), "ms", n_ops),
        "api.protocol_ms": (
            self_ms("AttackRequest.from_dict", "AttackReport.to_dict"), "ms", n_ops
        ),
        "api.report_reuse_ratio": (counters["api.report_reuse_ratio"], "ratio", 1),
    })
    for suffix, names in STORE_FUNCS:
        out[f"store.{suffix}_ms"] = (self_ms(*names), "ms", n_ops)
        out[f"store.{suffix}_calls"] = (calls(*names), "count", 1)
    out["service.self_ms"] = (self_ms("DeHealthApp.__call__"), "ms", n_ops)
    kinds = list(tracer.op_kinds.values())
    for route in ROUTES:
        out[f"service.route.{route}.p50_ms"] = (
            tracer.route_p50_ms(route, "DeHealthApp.__call__"), "ms",
            kinds.count(route),
        )
    out["service.shed"] = (counters.get("service.shed", 0), "count", 1)
    layer_s = tracer.layer_self_s()
    op_s = sum(layer_s.values())
    for layer, seconds in layer_s.items():
        out[f"share.{layer}"] = (100.0 * seconds / op_s if op_s else 0.0, "%", n_ops)
    out["trace.throughput_per_s"] = (
        workload.units_per_op * len(raw["durations_s"])
        / sum(raw["durations_s"]),
        "1/s", len(raw["durations_s"]),
    )
    out["host.ref_ms"] = host_ref_ms(raw)
    return out


def host_ref_ms(raw: dict) -> tuple:
    """The host probe's median over the run's start and end timings."""
    return statistics.median(raw["probes_ms"]), "ms", len(raw["probes_ms"])


def use_program() -> bool:
    """Make the program under ``src/`` importable, on one BLAS thread.

    Returns False, after saying why, when there is no program to import.
    """
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {ROOT / 'src'}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return False
    # set before numpy loads: the measured path uses no worker pools, a
    # second BLAS thread on a small shared host only adds run-to-run
    # noise, and the reference reports in expected/ were computed on one
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if not use_program():
        return 2
    RUN_DIR.mkdir(exist_ok=True)
    os.environ["SQLITE_TMPDIR"] = str(RUN_DIR)

    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.seconds, RUN_DIR)
    tracer = Tracer() if args.trace else None
    raw = measure(workload, tracer)
    if not raw["durations_s"]:
        print("perfbench: every op raised; nothing was measured", file=sys.stderr)
        return 1

    attempted = len(workload.ops)
    if args.trace:
        rows = per_layer(workload, raw, tracer)
        tracer.write(RUN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        figures = end_to_end(workload, raw)
        rows = {
            name: (figures[name][0], unit, figures[name][1])
            for name, unit in END_TO_END
        }
        # not an end-to-end metric and not gated: it tells host drift
        # apart from a program change in the gated runs
        rows["host.ref_ms"] = host_ref_ms(raw)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"ops={attempted} ({workload.units_per_op} {workload.unit} each) "
          f"failed={len(raw['failed'])} "
          f"host.ref_ms start={statistics.median(raw['probes_ms'][:PROBE_REPS]):.1f} "
          f"end={statistics.median(raw['probes_ms'][PROBE_REPS:]):.1f}")
    print(f"{'metric':<34} {'value':>14} {'unit':<6} samples")
    for name, (value, unit, samples) in rows.items():
        print(f"{name:<34} {value:>14.6g} {unit:<6} {samples}")
    if not args.trace:
        value, samples = figures["latency_p99_ms"]
        print(f"{'latency_p99_ms (not gated)':<34} {value:>14.6g} {'ms':<6} {samples}")
    result = {
        "correct": not raw["failed"],
        "attempted": attempted,
        "failed": len(raw["failed"]),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in rows.items()
        },
    }
    print(json.dumps(result))
    return 0 if not raw["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
