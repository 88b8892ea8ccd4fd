"""The benchmark's three workloads.

Every workload has the same shape, which ``run.py`` drives:

* ``__init__(seed, seconds, run_dir)`` builds the fixed op sequence from
  the seed.  ``seconds`` becomes an op count at the workload's nominal op
  cost, so a faster program runs the same ops, never more of them;
  ``run_dir`` holds whatever the workload writes (the service state dir).
* ``setup()`` is one cold set-up: corpus generation, registration and
  cache warm-up.  It returns the generation seconds.
* ``prepare(op)`` does the untimed per-op set-up, ``run(ctx)`` is the only
  timed call, and ``after(index, op, ctx, out)`` keeps what the output
  check and the counters need.
* ``check()`` compares every op's output with its reference and returns
  the indexes of ops whose output differs.
* ``counters()`` returns the run's counters, taken from ``Engine.stats()``.

Every op in a workload does the same kind of work, and the only thread
that sends work is the caller's.
"""

from __future__ import annotations

import json
import random
import shutil
import time
from pathlib import Path

from repro.api import AttackReport, AttackRequest, Engine
from repro.datagen import healthboards_like, webmd_like
from repro.service import SHED_STATUSES, DeHealthApp, call_app
from repro.store import StateStore
from repro.stylometry import ExtractionCache, FeatureExtractor

#: Seed of every generated corpus.  The corpus is a fixed fixture; the
#: run's ``--seed`` chooses the ops that are run against it.
WORLD_SEED = 0

CORPUS = "forum"

#: Policies whose candidate masks ``blocking.pair_fraction.*`` reports.
PAIR_FRACTION_POLICIES: tuple = ("lsh", "ann_graph", "union")

#: Reference reports of the library workloads, one file per workload,
#: written by ``expected.py``.
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


def _op_count(seconds: float, nominal_op_s: float, minimum: int) -> int:
    return max(minimum, round(seconds / nominal_op_s))


def _warm_extractor(dataset) -> FeatureExtractor:
    """A cold extractor with every post of ``dataset`` extracted once."""
    extractor = FeatureExtractor(cache=ExtractionCache())
    extractor.extract_rows([post.text for post in dataset.posts()], copy=False)
    return extractor


class _EngineCounters:
    """Sums ``Engine.stats()`` counters; ``sign=-1`` subtracts a snapshot
    taken before the ops."""

    def __init__(self) -> None:
        self.graph_builds = 0
        self.similarity_builds = 0
        self.similarity_hits = 0
        self.attacks = 0
        self.report_reuses = 0
        self.extraction_hits = 0
        self.extraction_lookups = 0
        self.blocking: dict = {}

    def add(self, stats: dict, sign: int = 1) -> None:
        extraction = stats["extraction"]
        self.extraction_hits += sign * extraction["hits"]
        self.extraction_lookups += sign * (
            extraction["hits"] + extraction["misses"]
        )
        self.attacks += sign * stats["attacks"]
        self.report_reuses += sign * stats["report_reuses"]
        for session in stats["sessions"]:
            self.graph_builds += sign * session["graph_builds"]
            self.similarity_builds += sign * sum(
                session["similarity_builds"].values()
            )
            self.similarity_hits += sign * sum(
                session["similarity_hits"].values()
            )
            for entry in session["blocking"]:
                agg = self.blocking.setdefault(entry["policy"], [0, 0])
                agg[0] += sign * entry["candidates"]
                agg[1] += sign * entry["masks_built"] * entry["n_total_pairs"]

    def as_dict(self) -> dict:
        out = {
            "graph.builds": self.graph_builds,
            "similarity.builds": self.similarity_builds,
            "similarity.hits": self.similarity_hits,
            # no lookup at all means nothing missed the cache
            "stylometry.cache_hit_ratio": (
                self.extraction_hits / self.extraction_lookups
                if self.extraction_lookups
                else 1.0
            ),
            "api.report_reuse_ratio": (
                self.report_reuses / self.attacks if self.attacks else 0.0
            ),
        }
        for policy in PAIR_FRACTION_POLICIES:
            candidates, pairs = self.blocking.get(policy, (0, 0))
            out[f"blocking.pair_fraction.{policy}"] = (
                candidates / pairs if pairs else 0.0
            )
        return out


class _LibraryWorkload:
    """Shared shape of the two library workloads: every op runs on a fresh
    :class:`Engine` that shares the extractor warmed in set-up.

    An op's split seed comes from the workload's fixed ``split_pool``, so
    every op has a reference in ``expected/<name>.json``: the canonical
    reports ``DeHealth.fit`` + ``top_k_result`` / ``deanonymize`` gave for
    that split, without the request each report echoes.
    """

    name: str
    users: int
    maker = staticmethod(webmd_like)
    segmented = True
    split_pool: tuple
    nominal_op_s: float
    min_ops: int

    def __init__(self, seed: int, seconds: float, run_dir) -> None:
        rng = random.Random(f"{self.name}:{seed}")
        count = min(
            _op_count(seconds, self.nominal_op_s, self.min_ops),
            len(self.split_pool),
        )
        self.ops = [self.requests(s) for s in rng.sample(self.split_pool, count)]
        self.dataset = None
        self.extractor = None
        self.kept: list = []
        self.engine_counters = _EngineCounters()

    @classmethod
    def requests(cls, split_seed: int) -> list:
        """The requests of one op, on split ``split_seed``."""
        raise NotImplementedError

    def setup(self) -> float:
        started = time.perf_counter()
        dataset = self.maker(n_users=self.users, seed=WORLD_SEED).dataset
        generate_s = time.perf_counter() - started
        self.dataset = dataset
        self.extractor = _warm_extractor(dataset)
        return generate_s

    def close(self) -> None:
        self.dataset = self.extractor = None

    def kind(self, op) -> str:
        return self.name

    def prepare(self, op):
        engine = Engine(extractor=self.extractor)
        engine.register(CORPUS, self.dataset)
        # the extractor (and its cache counters) outlives this engine
        self.engine_counters.add(engine.stats(), sign=-1)
        return engine, op

    def after(self, index: int, op, ctx, out) -> None:
        self.engine_counters.add(ctx[0].stats())
        self.kept.append((index, op, [report.canonical_dict() for report in out]))

    def counters(self) -> dict:
        return self.engine_counters.as_dict()

    def check(self) -> list:
        """Indexes of the ops whose reports differ from the reference of
        their split."""
        with open(EXPECTED_DIR / f"{self.name}.json", encoding="utf-8") as handle:
            expected = json.load(handle)
        failed = []
        for index, requests, canonicals in self.kept:
            outcomes = expected[str(requests[0].split_seed)]
            references = [
                {"request": request.to_dict(), **outcome}
                for request, outcome in zip(requests, outcomes)
            ]
            if _canonical(references) != _canonical(canonicals):
                failed.append(index)
        return failed


class AttackRefined(_LibraryWorkload):
    """The paper's full attack: the default request (dense scoring, SMO,
    refined phase on, ``top_k=10``) on a new closed split per op."""

    name = "attack_refined"
    unit = "attacks"
    units_per_op = 1
    users = 150
    split_pool = tuple(range(1, 13))
    nominal_op_s = 6.5
    # two ops after each of the run's three set-ups: fewer ops measure
    # too short a stretch of time to average out the host's drift
    min_ops = 6

    @classmethod
    def requests(cls, split_seed: int) -> list:
        return [AttackRequest(corpus=CORPUS, aux_fraction=0.5, split_seed=split_seed)]

    @staticmethod
    def run(ctx):
        engine, (request,) = ctx
        return [engine.attack(request)]


#: The Top-K sweep grid: every blocking path × two K × two weight vectors.
SWEEP_BLOCKING: tuple = ("none", "lsh", "ann_graph", "union")
SWEEP_TOP_K: tuple = (5, 20)
SWEEP_WEIGHTS: tuple = ((0.05, 0.05, 0.90), (0.2, 0.2, 0.6))


class TopKSweep(_LibraryWorkload):
    """One serial ``Engine.sweep`` of the 16-variant grid per op, on a new
    split, refined phase off: 4 variants build scores, 12 re-rank them."""

    name = "topk_sweep"
    unit = "variants"
    units_per_op = len(SWEEP_BLOCKING) * len(SWEEP_TOP_K) * len(SWEEP_WEIGHTS)
    users = 400
    maker = staticmethod(healthboards_like)
    split_pool = tuple(range(1, 21))
    nominal_op_s = 1.6
    # three ops after each of the run's three set-ups, for the same reason
    min_ops = 9

    @classmethod
    def requests(cls, split_seed: int) -> list:
        return [
            AttackRequest(
                corpus=CORPUS, aux_fraction=0.5, split_seed=split_seed,
                refined=False, blocking=blocking, top_k=top_k, weights=weights,
            )
            for blocking in SWEEP_BLOCKING
            for top_k in SWEEP_TOP_K
            for weights in SWEEP_WEIGHTS
        ]

    @staticmethod
    def run(ctx):
        engine, requests = ctx
        return engine.sweep(requests, parallel=1)


#: Service request mix: (kind, share of requests).
SERVICE_MIX: tuple = (
    ("attack_hit", 0.6),
    ("attack_miss", 0.2),
    ("stats", 0.1),
    ("reports", 0.1),
)
SERVICE_TENANTS: tuple = ("clinic-a", "clinic-b", "clinic-c")
SERVICE_SPLITS = 2
#: Report-listing page size of the ``reports`` requests.
SERVICE_LIST_LIMIT = 20
#: Top-k-only variants recorded per (tenant, split) in set-up: the hits.
SERVICE_HIT_VARIANTS: tuple = tuple(
    {"top_k": top_k, "weights": list(weights)}
    for top_k in (1, 5, 10, 20)
    for weights in ((0.05, 0.05, 0.90), (0.1, 0.1, 0.8))
)
#: One in this many cache-miss attacks is recomputed for the output check
#: (every distinct hit is).
SERVICE_MISS_CHECK_EVERY = 4


class ServiceMixed:
    """One closed-loop client driving an in-process ``DeHealthApp`` over a
    file-backed state dir with a fixed, seeded request mix."""

    name = "service_mixed"
    unit = "requests"
    # the report store fills as the run goes, so the ops share one set-up
    segmented = False
    units_per_op = 1
    users = 200
    nominal_op_s = 0.001
    min_ops = 200

    def __init__(self, seed: int, seconds: float, run_dir) -> None:
        self.run_dir = run_dir
        rng = random.Random(f"{self.name}:{seed}")
        self.split_seeds = rng.sample(range(1, 1_000_000), SERVICE_SPLITS)
        self.base = {"corpus": CORPUS, "aux_fraction": 0.5, "refined": False}
        self.hits = [
            (tenant, {**self.base, "split_seed": s, **variant})
            for tenant in SERVICE_TENANTS
            for s in self.split_seeds
            for variant in SERVICE_HIT_VARIANTS
        ]
        count = _op_count(seconds, self.nominal_op_s, self.min_ops)
        kinds = [kind for kind, _ in SERVICE_MIX]
        weights = [share for _, share in SERVICE_MIX]
        seen: set = set()
        self.ops = []
        for kind in rng.choices(kinds, weights=weights, k=count):
            if kind == "attack_hit":
                tenant, body = rng.choice(self.hits)
            else:
                tenant = rng.choice(SERVICE_TENANTS)
                body = None
                if kind == "attack_miss":
                    body = self._new_variant(rng, tenant, seen)
            self.ops.append((kind, tenant, body))
        self.app = None
        self.state_dir = None
        self.dataset = None
        self.attacks: list = []
        self.failed: list = []
        self.counts: dict = {}

    def _new_variant(self, rng: random.Random, tenant: str, seen: set) -> dict:
        """A top-k-only variant no earlier request of ``tenant`` sent."""
        while True:
            split_seed = rng.choice(self.split_seeds)
            top_k = rng.randint(1, 60)
            ks = sorted(rng.sample(range(1, 61), 2))
            key = (tenant, split_seed, top_k, tuple(ks))
            if key not in seen:
                seen.add(key)
                return {**self.base, "split_seed": split_seed, "top_k": top_k,
                        "ks": ks}

    def setup(self) -> float:
        started = time.perf_counter()
        dataset = webmd_like(n_users=self.users, seed=WORLD_SEED).dataset
        generate_s = time.perf_counter() - started
        self.dataset = dataset
        self.state_dir = self.run_dir / "service-state"
        shutil.rmtree(self.state_dir, ignore_errors=True)
        engine = Engine(store=StateStore.at_dir(self.state_dir))
        engine.register(CORPUS, dataset)
        # finite but never binding: every charge takes the limiter's write
        # transaction and none is shed
        self.app = DeHealthApp(
            engine, job_workers=1, rate_limit_per_s=1e9, rate_burst=1e9
        )
        # the first request of each split fits it; the rest are recorded
        # so the measured run can be served from the report store
        for tenant, body in self.hits:
            response = call_app(self.app, "POST", "/attack", body, tenant=tenant)
            if response.status != 200:
                raise RuntimeError(f"set-up attack failed: {response.json}")
        self.recorded = {
            tenant: len(SERVICE_HIT_VARIANTS) * SERVICE_SPLITS
            for tenant in SERVICE_TENANTS
        }
        self.stats_before = engine.stats()
        return generate_s

    def close(self) -> None:
        if self.app is not None:
            self.app.close()
            self.app = None
        if self.state_dir is not None:
            shutil.rmtree(self.state_dir, ignore_errors=True)

    def kind(self, op) -> str:
        return op[0]

    def prepare(self, op):
        return op

    def run(self, op):
        kind, tenant, body = op
        if kind == "stats":
            return call_app(self.app, "GET", "/stats", tenant=tenant)
        if kind == "reports":
            return call_app(self.app, "GET", "/reports", tenant=tenant,
                            query=f"limit={SERVICE_LIST_LIMIT}")
        return call_app(self.app, "POST", "/attack", body, tenant=tenant)

    def after(self, index: int, op, ctx, out) -> None:
        kind, tenant, body = op
        self.counts[out.status] = self.counts.get(out.status, 0) + 1
        if kind == "attack_miss":
            self.recorded[tenant] += 1
        if out.status != 200:
            self.failed.append(index)
        elif kind == "stats":
            if not isinstance(out.json.get("attacks"), int):
                self.failed.append(index)
        elif kind == "reports":
            if out.json["count"] != min(SERVICE_LIST_LIMIT, self.recorded[tenant]):
                self.failed.append(index)
        else:
            self.attacks.append((index, kind, body, out.json))

    def check(self) -> list:
        """Recompute every distinct hit and a sample of the misses on a
        second, store-less engine; status and listing checks ran per op."""
        reference = Engine()
        reference.register(CORPUS, self.dataset)
        expected: dict = {}
        failed = list(self.failed)
        misses = 0
        for index, kind, body, payload in self.attacks:
            if kind == "attack_miss":
                misses += 1
                if misses % SERVICE_MISS_CHECK_EVERY:
                    continue
            key = _canonical(body)
            if key not in expected:
                expected[key] = _canonical(
                    reference.attack(AttackRequest.from_dict(body)).canonical_dict()
                )
            got = AttackReport.from_dict(payload).canonical_dict()
            if _canonical(got) != expected[key]:
                failed.append(index)
        return failed

    def counters(self) -> dict:
        counters = _EngineCounters()
        counters.add(self.app.engine.stats())
        counters.add(self.stats_before, sign=-1)
        out = counters.as_dict()
        out["service.shed"] = sum(
            n for status, n in self.counts.items() if status in SHED_STATUSES
        )
        return out


WORKLOADS: dict = {
    cls.name: cls for cls in (AttackRefined, TopKSweep, ServiceMixed)
}
