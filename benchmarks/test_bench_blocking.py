"""Candidate blocking vs dense scoring — the pair-space economics bench.

One synthetic scaling world (600-user WebMD-like corpus, closed split),
scored under every blocking policy with shared UDA graphs.  Claims:

* **pruning** — the attribute-index and LSH policies score at most 1/5 of
  the dense pair count (their per-row keep fraction is 0.2 by
  construction), ann_graph at most ``ef/n2``;
* **recall** — attr_index retains >= 95% of the dense top-10 pairs, and
  the ANN policies (lsh, ann_graph) retain >= 90% of the dense top-10
  *true-match hits* — approximate candidate generation does not cost the
  attack its signal;
* **generation** — LSH candidate generation (seeded signatures + bucket
  collisions) is faster than the attribute inverted index on the same
  world (asserted on >= 4-core machines, like the executor and extraction
  benches: determinism-first, speedup-where-measurable), and touches no
  ``n1 × n2`` array anywhere;
* **memory** — the blocked similarity cache holds strictly fewer bytes
  than the dense (n1 × n2) matrices; both totals are reported.

The union policy is also checked for near-perfect recall (it is the
recall-safe production default candidate), and degree_band is reported
for completeness without a pruning gate (forum degree distributions are
too homogeneous for bands alone to prune hard).

Measured numbers land in ``BENCH_blocking.json`` at the repo root, next
to ``BENCH_extraction.json`` — the perf trajectory of candidate
generation.
"""

from __future__ import annotations

import heapq
import json
import os
import statistics
import time
from pathlib import Path

import numpy as np
from scipy import sparse

from repro.core.blocking import (
    NSWIndex,
    _profile_matrix,
    ann_graph_candidates,
    attr_index_candidates,
    lsh_candidates,
)
from repro.datagen import webmd_like
from repro.experiments import run_scaling
from repro.forum.split import closed_world_split
from repro.graph.uda import UDAGraph
from repro.stylometry import ExtractionCache, FeatureExtractor

from benchmarks.conftest import emit

SCALING_USERS = 600
SCALING_SEED = 2
SPLIT_SEED = 5
TOP_K = 10
#: Landmarks of the scaling world's distance similarity (ħ).
SCALING_LANDMARKS = 20

#: Acceptance gates for the attribute-index blocker.
MAX_PAIR_FRACTION = 0.2
MIN_TOPK_RECALL = 0.95
#: The union blocker must stay essentially lossless w.r.t. dense top-k.
MIN_UNION_RECALL = 0.99
#: LSH must keep >= 90% of the dense top-10 true-match hits.
MIN_ANN_TM_RECALL = 0.9
#: The NSW policy must keep *every* dense true-match hit (its beam search
#: rescoring is exact over the candidates it visits, so on this world it
#: actually finds slightly more true-match hits than the dense top-10).
MIN_ANN_GRAPH_TM_RECALL = 1.0
#: LSH generation must beat attr_index generation on capable machines.
TIMING_MIN_CORES = 4
TIMING_ROUNDS = 3
#: The vectorized NSW build must beat the frozen pre-vectorization build
#: by at least this factor on capable machines.
MIN_NSW_BUILD_SPEEDUP = 10.0

BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_blocking.json"


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover — non-Linux fallback
        return os.cpu_count() or 1


def _best_of(fn, rounds: int = TIMING_ROUNDS) -> float:
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _merge_bench(updates: dict) -> None:
    """Merge sections into ``BENCH_blocking.json`` (read-modify-write, so
    the three bench tests can each own a slice of the record)."""
    record = {}
    if BENCH_JSON.exists():
        record = json.loads(BENCH_JSON.read_text(encoding="utf-8"))
    record.update(updates)
    BENCH_JSON.write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _assert_numeric_throughput(policies: dict) -> None:
    """Every throughput field must be a real number — a ``null`` in the
    bench record hides a policy whose generation was never timed (the
    regression this guards: the dense row emitted ``null`` because its
    zero-cost generation step falsied the rate expression)."""
    for policy, row in policies.items():
        for field in ("generation_s", "generation_users_per_s"):
            value = row[field]
            assert isinstance(value, (int, float)) and value is not None, (
                f"policy {policy!r} has non-numeric {field}: {value!r}"
            )


class _FrozenNSWIndex:
    """The pre-vectorization NSW build, frozen as the speedup baseline.

    Verbatim behaviour of the sequential implementation this repo shipped
    before the batched build: one greedy ``search`` per inserted node,
    Python heaps, per-edge pruning.  Kept here (not imported) so the
    baseline cannot silently improve along with the production code.
    """

    def __init__(self, profiles, m: int = 12, ef: int = 48, seed: int = 0):
        self.m = m
        self.ef = ef
        X = sparse.csr_matrix(profiles, dtype=np.float64)
        norms = np.sqrt(np.asarray(X.multiply(X).sum(axis=1)).ravel())
        scale = np.divide(
            1.0, norms, out=np.zeros_like(norms), where=norms > 0
        )
        self.X = sparse.csr_matrix(X.multiply(scale[:, None]))
        self.n = X.shape[0]
        self.neighbors: list = [[] for _ in range(self.n)]
        rng = np.random.default_rng(np.random.PCG64(seed))
        self._order = rng.permutation(self.n)
        self._entry = int(self._order[0]) if self.n else 0
        self._build()

    def _build(self) -> None:
        max_degree = 2 * self.m
        for rank in range(1, self.n):
            node = int(self._order[rank])
            q = self.X[node].toarray().ravel()
            found = self.search(q, ef=max(self.ef, self.m))
            links = [j for _, j in found[: self.m]]
            self.neighbors[node] = links
            for j in links:
                self.neighbors[j].append(node)
                if len(self.neighbors[j]) > max_degree:
                    self.neighbors[j] = self._prune(j, max_degree)

    def _prune(self, node: int, max_degree: int) -> list:
        cand = sorted(set(self.neighbors[node]))
        sims = np.asarray(
            self.X[cand] @ self.X[node].toarray().ravel()
        ).ravel()
        ranked = sorted(zip(-sims, cand))
        return [j for _, j in ranked[:max_degree]]

    def search(self, q, ef=None) -> list:
        if not self.n:
            return []
        ef = ef or self.ef
        entry = self._entry
        sim_entry = float((self.X[entry] @ q)[0])
        visited = {entry}
        candidates = [(-sim_entry, entry)]
        results = [(sim_entry, entry)]
        while candidates:
            neg_sim, node = heapq.heappop(candidates)
            if -neg_sim < results[0][0] and len(results) >= ef:
                break
            fresh = [j for j in self.neighbors[node] if j not in visited]
            if not fresh:
                continue
            visited.update(fresh)
            sims = np.asarray(self.X[fresh] @ q).ravel()
            for j, sim in zip(fresh, sims):
                sim = float(sim)
                if len(results) < ef or sim > results[0][0]:
                    heapq.heappush(candidates, (-sim, j))
                    heapq.heappush(results, (sim, j))
                    if len(results) > ef:
                        heapq.heappop(results)
        return sorted(results, key=lambda pair: (-pair[0], pair[1]))


def test_blocking_pair_economics(benchmark):
    result = benchmark.pedantic(
        lambda: run_scaling(
            n_users=SCALING_USERS,
            seed=SCALING_SEED,
            split_seed=SPLIT_SEED,
            top_k=TOP_K,
            n_landmarks=SCALING_LANDMARKS,
            blocking_keep=MAX_PAIR_FRACTION,
        ),
        rounds=1,
        iterations=1,
    )
    emit(
        f"Blocking scaling world ({result.n_anonymized}×{result.n_auxiliary}, "
        f"top-{result.top_k})",
        result.table(),
    )

    dense = result.row("none")
    attr = result.row("attr_index")
    union = result.row("union")
    lsh = result.row("lsh")
    ann = result.row("ann_graph")

    assert dense.pair_fraction == 1.0
    assert attr.n_pairs * 5 <= dense.n_pairs, (
        f"attr_index scored {attr.n_pairs} of {dense.n_pairs} pairs, "
        f"more than 1/5 of the dense pair space"
    )
    assert attr.topk_recall >= MIN_TOPK_RECALL, (
        f"attr_index top-{TOP_K} recall {attr.topk_recall:.3f} < "
        f"{MIN_TOPK_RECALL} vs dense"
    )
    assert union.topk_recall >= MIN_UNION_RECALL

    # --- ANN policies: sub-quadratic candidate generation ----------------
    assert lsh.n_pairs * 5 <= dense.n_pairs, (
        f"lsh scored {lsh.n_pairs} of {dense.n_pairs} pairs, "
        f"more than 1/5 of the dense pair space"
    )
    assert ann.n_pairs * 5 <= dense.n_pairs
    assert lsh.true_match_recall >= MIN_ANN_TM_RECALL, (
        f"lsh top-{TOP_K} true-match recall {lsh.true_match_recall:.3f} < "
        f"{MIN_ANN_TM_RECALL} vs dense"
    )
    assert ann.true_match_recall >= MIN_ANN_GRAPH_TM_RECALL, (
        f"ann_graph top-{TOP_K} true-match recall "
        f"{ann.true_match_recall:.3f} < {MIN_ANN_GRAPH_TM_RECALL} vs dense"
    )
    # generation never materialized the pair space: the collision stream
    # is the entire cost, and it stayed below the full n1 × n2 grid
    assert lsh.meta["lsh_collision_touches"] < dense.n_pairs * 2
    assert lsh.meta["lsh_distinct_pairs"] < dense.n_pairs

    # peak similarity-matrix bytes: blocked must undercut dense, and both
    # totals must be real (reported above for the record)
    assert 0 < attr.matrix_bytes < dense.matrix_bytes
    assert 0 < lsh.matrix_bytes < dense.matrix_bytes
    emit(
        "Blocking memory",
        f"dense cache {dense.matrix_bytes / 1e6:.2f} MB vs "
        f"attr_index {attr.matrix_bytes / 1e6:.2f} MB "
        f"({dense.matrix_bytes / attr.matrix_bytes:.1f}x smaller) vs "
        f"lsh {lsh.matrix_bytes / 1e6:.2f} MB",
    )

    # --- candidate-generation wall time: lsh vs the inverted index -------
    # Timed on freshly built graphs (shared extraction cache keeps the
    # rebuild cheap), best-of-N on both sides so one scheduler hiccup
    # cannot decide the gate.
    dataset = webmd_like(
        n_users=SCALING_USERS, seed=SCALING_SEED, min_posts_per_user=2
    ).dataset
    split = closed_world_split(dataset, aux_fraction=0.5, seed=SPLIT_SEED)
    extractor = FeatureExtractor(cache=ExtractionCache())
    g1 = UDAGraph(split.anonymized, extractor=extractor)
    g2 = UDAGraph(split.auxiliary, extractor=extractor)
    attr_gen_s = _best_of(lambda: attr_index_candidates(g1, g2))
    lsh_gen_s = _best_of(lambda: lsh_candidates(g1, g2))

    cores = _available_cores()
    policies = {
        row.policy: {
            "pair_fraction": round(row.pair_fraction, 4),
            "topk_recall": round(row.topk_recall, 4),
            "true_match_recall": round(row.true_match_recall, 4),
            "generation_s": round(row.generation_s, 4),
            # 0.0 = "no generation step to time" (the dense policy):
            # a numeric sentinel, because a null here has historically
            # hidden a policy that was never timed at all
            "generation_users_per_s": (
                round(result.n_anonymized / row.generation_s, 1)
                if row.generation_s
                else 0.0
            ),
            "cache_bytes": row.matrix_bytes,
        }
        for row in result.rows
    }
    _assert_numeric_throughput(policies)
    record = {
        "corpus_users": SCALING_USERS,
        "corpus_seed": SCALING_SEED,
        "n_anonymized": result.n_anonymized,
        "n_auxiliary": result.n_auxiliary,
        "cores": cores,
        "top_k": result.top_k,
        "dense_pairs": dense.n_pairs,
        "dense_cache_bytes": dense.matrix_bytes,
        "policies": policies,
        "attr_index_gen_s_best": round(attr_gen_s, 4),
        "lsh_gen_s_best": round(lsh_gen_s, 4),
        "lsh_vs_attr_index_speedup": round(attr_gen_s / lsh_gen_s, 2),
    }
    _merge_bench(record)
    emit(
        f"Blocking generation ({cores} core(s))",
        f"attr_index best {attr_gen_s * 1e3:.1f} ms vs lsh best "
        f"{lsh_gen_s * 1e3:.1f} ms "
        f"({attr_gen_s / lsh_gen_s:.2f}x)",
    )

    if cores >= TIMING_MIN_CORES:
        assert lsh_gen_s < attr_gen_s, (
            f"lsh candidate generation ({lsh_gen_s * 1e3:.1f} ms) did not "
            f"beat attr_index ({attr_gen_s * 1e3:.1f} ms) on {cores} cores"
        )


def test_nsw_build_speedup(benchmark):
    """The vectorized NSW build vs the frozen sequential baseline.

    Determinism is asserted everywhere (two builds must produce identical
    candidate masks); the >= 10x wall-clock gate only fires on >= 4-core
    machines, matching the other timing gates in this suite.
    """
    dataset = webmd_like(
        n_users=SCALING_USERS, seed=SCALING_SEED, min_posts_per_user=2
    ).dataset
    split = closed_world_split(dataset, aux_fraction=0.5, seed=SPLIT_SEED)
    extractor = FeatureExtractor(cache=ExtractionCache())
    g1 = UDAGraph(split.anonymized, extractor=extractor)
    g2 = UDAGraph(split.auxiliary, extractor=extractor)
    X2 = _profile_matrix(g2)

    benchmark.pedantic(
        lambda: NSWIndex(X2, m=12, ef=48, seed=0), rounds=1, iterations=1
    )
    build_s = _best_of(lambda: NSWIndex(X2, m=12, ef=48, seed=0))
    # the frozen baseline costs seconds per round: two rounds keep the
    # bench under control while still absorbing one scheduler hiccup
    frozen_s = _best_of(
        lambda: _FrozenNSWIndex(X2, m=12, ef=48, seed=0), rounds=2
    )
    gen_s = _best_of(lambda: ann_graph_candidates(g1, g2))
    speedup = frozen_s / build_s

    # determinism: the full candidate mask must replay bit-identically
    a = ann_graph_candidates(g1, g2)
    b = ann_graph_candidates(g1, g2)
    assert (a.matrix != b.matrix).nnz == 0
    assert a.meta == b.meta

    cores = _available_cores()
    _merge_bench(
        {
            "ann_graph_build": {
                "n_indexed": int(X2.shape[0]),
                "build_s_best": round(build_s, 4),
                "frozen_build_s_best": round(frozen_s, 4),
                "build_speedup": round(speedup, 2),
                "generation_s_best": round(gen_s, 4),
                "generation_users_per_s": round(g1.n_users / gen_s, 1),
                "cores": cores,
            }
        }
    )
    emit(
        f"NSW build ({X2.shape[0]} profiles, {cores} core(s))",
        f"vectorized {build_s * 1e3:.0f} ms vs frozen sequential "
        f"{frozen_s * 1e3:.0f} ms ({speedup:.1f}x); full generation "
        f"{gen_s * 1e3:.0f} ms",
    )
    if cores >= TIMING_MIN_CORES:
        assert speedup >= MIN_NSW_BUILD_SPEEDUP, (
            f"NSW build speedup {speedup:.1f}x < {MIN_NSW_BUILD_SPEEDUP}x "
            f"over the frozen baseline on {cores} cores"
        )


#: Refined pre-rank bench world: a 200-user corpus keeps the full refined
#: phase cheap while leaving 100+ users to classify.
PRERANK_USERS = 200
PRERANK_TOP_K = 20
PRERANK_KEEP = 0.5
#: The cut may cost at most one percentage point of top-1 accuracy.
MAX_PRERANK_ACCURACY_DROP = 0.01
#: Timed rounds per side, alternating full and cut; the record keeps each
#: side's median, since one unrepeated timing follows host noise.
PRERANK_ROUNDS = 5


def test_refined_prerank_economics(benchmark):
    """``refined_keep_fraction=0.5`` halves the refined phase's classifier
    work at (essentially) unchanged top-1 accuracy.

    The phase-1 similarity ranking concentrates true matches near the
    front of each candidate set, so cutting the back half drops mostly
    distractors; the gate allows at most a one-point accuracy drop.
    """
    from repro.core import DeHealth, DeHealthConfig

    dataset = webmd_like(
        n_users=PRERANK_USERS, seed=SCALING_SEED, min_posts_per_user=2
    ).dataset
    split = closed_world_split(dataset, aux_fraction=0.5, seed=SPLIT_SEED)
    extractor = FeatureExtractor(cache=ExtractionCache())
    g1 = UDAGraph(split.anonymized, extractor=extractor)
    g2 = UDAGraph(split.auxiliary, extractor=extractor)
    caches: tuple = ({}, {})

    def run(keep_fraction: float):
        config = DeHealthConfig(
            top_k=PRERANK_TOP_K,
            classifier="centroid",
            refined_keep_fraction=keep_fraction,
        )
        attack = DeHealth(config).fit(
            g1, g2, extractor=extractor, post_matrix_caches=caches
        )
        started = time.perf_counter()
        result = attack.deanonymize()
        elapsed = time.perf_counter() - started
        return result.accuracy(split.truth), elapsed, attack._refined

    def alternate() -> tuple:
        full, cut = [], []
        for _ in range(PRERANK_ROUNDS):
            full.append(run(1.0))
            cut.append(run(PRERANK_KEEP))
        return full, cut

    # warm the shared post-matrix caches so the timed comparison is pure
    # classifier work, then measure both settings in alternating rounds
    run(1.0)
    full, cut = benchmark.pedantic(alternate, rounds=1, iterations=1)
    acc_full, acc_cut = full[-1][0], cut[-1][0]
    full_s = statistics.median(elapsed for _, elapsed, _ in full)
    cut_s = statistics.median(elapsed for _, elapsed, _ in cut)
    stats = cut[-1][2].prerank_stats
    classified_fraction = stats["candidates_kept"] / stats["candidates_in"]

    # the cut really halves the classified candidate volume ...
    assert classified_fraction <= PRERANK_KEEP + 1e-9, (
        f"pre-rank classified {classified_fraction:.3f} of candidates, "
        f"more than keep_fraction={PRERANK_KEEP}"
    )
    # ... at (essentially) unchanged accuracy
    assert acc_cut >= acc_full - MAX_PRERANK_ACCURACY_DROP, (
        f"refined accuracy dropped from {acc_full:.4f} to {acc_cut:.4f} "
        f"under keep_fraction={PRERANK_KEEP} — more than "
        f"{MAX_PRERANK_ACCURACY_DROP:.0%}"
    )

    cores = _available_cores()
    _merge_bench(
        {
            "refined_prerank": {
                "corpus_users": PRERANK_USERS,
                "top_k": PRERANK_TOP_K,
                "keep_fraction": PRERANK_KEEP,
                "classifier": "centroid",
                "accuracy_full": round(acc_full, 4),
                "accuracy_cut": round(acc_cut, 4),
                "classified_fraction": round(classified_fraction, 4),
                "refined_s_full": round(full_s, 4),
                "refined_s_cut": round(cut_s, 4),
                "refined_speedup": round(full_s / cut_s, 2),
                "cores": cores,
            }
        }
    )
    emit(
        f"Refined pre-rank ({PRERANK_USERS}-user world, "
        f"top-{PRERANK_TOP_K}, keep {PRERANK_KEEP})",
        f"accuracy {acc_full:.1%} -> {acc_cut:.1%}, refined phase "
        f"{full_s * 1e3:.0f} ms -> {cut_s * 1e3:.0f} ms "
        f"({full_s / cut_s:.1f}x), classified "
        f"{classified_fraction:.0%} of candidates",
    )
    if cores >= TIMING_MIN_CORES:
        assert cut_s < full_s, (
            f"pre-ranked refined phase ({cut_s * 1e3:.0f} ms) did not beat "
            f"the full refined phase ({full_s * 1e3:.0f} ms) on {cores} cores"
        )
