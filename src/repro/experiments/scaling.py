"""Blocking scaling experiment: blocked vs dense pair-space economics.

For one synthetic "large world" (a closed-world split of a WebMD-like
corpus), run the Top-K phase once per blocking policy and measure what the
candidate-blocking layer buys:

* ``n_pairs`` — similarity pairs actually scored (the dense path scores
  every ``n1 × n2`` pair);
* ``matrix_bytes`` — bytes held by the similarity cache after scoring,
  the peak-memory proxy: the dense path holds the three component blocks
  and the combined matrix, a blocking policy the same component blocks
  plus its mask and the combined scores at the candidate pairs;
* ``generation_s`` — wall time of candidate generation alone (mask
  construction; 0 for the dense path).  The quantity the ANN policies
  (``lsh``, ``ann_graph``) exist to bend: ``attr_index`` touches every
  attribute-slot collision, the ANN policies only signature buckets or
  graph walks;
* ``elapsed_s`` — wall time of candidate generation + scoring + top-k;
* ``topk_recall`` — fraction of the dense top-K candidate pairs the
  blocked run also surfaces (1.0 = blocking lost nothing the dense
  ranking cared about);
* ``true_match_recall`` — blocked top-K true-match hits over dense top-K
  true-match hits: the attack-level recall (can exceed 1.0 — pruning
  confusers sometimes promotes the true match into the top K).

Graphs are built once and shared across policies, so the measurement
isolates the scoring stage — exactly the stage blocking restructures.
The phase-0 extraction that feeds those graphs is measured too
(``extraction_s`` / ``extraction_stats``): it runs through a shared
:class:`~repro.stylometry.ExtractionCache`, so the auxiliary/anonymized
sides never re-extract a shared post, and ``extract_workers`` fans the
cold extraction across a process pool.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro.core.config import BLOCKING_CHOICES, DeHealthConfig, parse_blocking
from repro.core.similarity import SimilarityCache, SimilarityComputer
from repro.core.topk import direct_top_k
from repro.datagen import webmd_like
from repro.errors import ConfigError
from repro.experiments.reporting import format_table
from repro.forum.split import closed_world_split
from repro.graph.uda import UDAGraph
from repro.stylometry import ExtractionCache, FeatureExtractor


@dataclass(frozen=True)
class PolicyScaling:
    """One blocking policy's measurements on the scaling world."""

    policy: str
    n_pairs: int
    pair_fraction: float
    matrix_bytes: int
    elapsed_s: float
    topk_recall: float
    generation_s: float = 0.0
    true_match_recall: float = 1.0
    meta: "dict | None" = field(default=None, hash=False)


@dataclass(frozen=True)
class ScalingResult:
    """Blocked-vs-dense comparison over one synthetic world."""

    n_anonymized: int
    n_auxiliary: int
    top_k: int
    rows: list = field(hash=False)
    extraction_s: float = 0.0
    extraction_stats: "dict | None" = field(default=None, hash=False)

    def row(self, policy: str) -> PolicyScaling:
        for row in self.rows:
            if row.policy == policy:
                return row
        raise ConfigError(f"no scaling row for policy {policy!r}")

    def table(self) -> str:
        header = (
            "policy", "pairs", "pair_frac", "matrix_MB", "gen_s",
            "seconds", "recall", "tm_recall",
        )
        body = [
            (
                row.policy,
                str(row.n_pairs),
                f"{row.pair_fraction:.3f}",
                f"{row.matrix_bytes / 1e6:.2f}",
                f"{row.generation_s:.3f}",
                f"{row.elapsed_s:.2f}",
                f"{row.topk_recall:.3f}",
                f"{row.true_match_recall:.3f}",
            )
            for row in self.rows
        ]
        return format_table(header, body)


def _topk_sets(S, k: int) -> list:
    return [set(row) for row in direct_top_k(S, k)]


def run_scaling(
    config: "DeHealthConfig | None" = None,
    *,
    n_users: int = 400,
    seed: int = 2,
    aux_fraction: float = 0.5,
    split_seed: int = 5,
    min_posts_per_user: int = 2,
    policies: tuple = BLOCKING_CHOICES,
    **knobs,
) -> ScalingResult:
    """Score one synthetic world under every requested blocking policy.

    The world is a closed split (``aux_fraction``, ``split_seed``) of a
    WebMD-like corpus of ``n_users`` generated with ``seed``.  The knobs it
    reads (``top_k``, ``weights``, ``n_landmarks``, the ``blocking_*``
    parameters and ``extract_workers``) come from ``config``, a
    :class:`~repro.core.config.DeHealthConfig`, overridden by any given as
    keywords: ``run_scaling(n_users=50, top_k=3, blocking_keep=0.5)``.
    The dense path (``"none"``) always runs — it is the recall reference —
    even when not listed in ``policies``; listed policies report in input
    order with ``"none"`` first.  ``policies`` entries may be single
    policies or ``"+"`` composites.
    """
    config = replace(config or DeHealthConfig(), **knobs)
    for policy in policies:
        parse_blocking(policy)
    dataset = webmd_like(
        n_users=n_users, seed=seed, min_posts_per_user=min_posts_per_user
    ).dataset
    split = closed_world_split(dataset, aux_fraction=aux_fraction, seed=split_seed)
    extractor = FeatureExtractor(cache=ExtractionCache())
    extraction_started = time.perf_counter()
    anonymized, auxiliary = (
        UDAGraph(side, extractor=extractor, extract_workers=config.extract_workers)
        for side in (split.anonymized, split.auxiliary)
    )
    extraction_s = time.perf_counter() - extraction_started
    total_pairs = anonymized.n_users * auxiliary.n_users

    aux_index = {u: j for j, u in enumerate(auxiliary.users)}
    truth_cols = {
        i: aux_index[target]
        for i, anon in enumerate(anonymized.users)
        for target in [split.truth.mapping.get(anon)]
        if target in aux_index
    }

    def run_policy(policy: str) -> tuple:
        cache = SimilarityCache()
        computer = SimilarityComputer(
            anonymized, auxiliary, config, cache=cache, blocking=policy
        )
        generation_started = time.perf_counter()
        mask = computer.candidate_mask()  # None for the dense path
        generation_s = (
            time.perf_counter() - generation_started if mask is not None else 0.0
        )
        started = time.perf_counter()
        scores = computer.scores()
        topk = _topk_sets(scores, config.top_k)
        elapsed = generation_s + (time.perf_counter() - started)
        n_pairs = total_pairs if mask is None else mask.n_pairs
        tm_hits = sum(1 for i, col in truth_cols.items() if col in topk[i])
        return topk, tm_hits, PolicyScaling(
            policy=policy,
            n_pairs=n_pairs,
            pair_fraction=n_pairs / total_pairs if total_pairs else 0.0,
            matrix_bytes=cache.nbytes(),
            elapsed_s=elapsed,
            topk_recall=1.0,  # provisional; rewritten against the dense sets
            generation_s=generation_s,
            true_match_recall=1.0,  # provisional, same
            meta=dict(mask.meta) if mask is not None else None,
        )

    dense_topk, dense_tm_hits, dense_row = run_policy("none")
    rows = []
    for policy in ("none",) + tuple(p for p in policies if p != "none"):
        if policy == "none":
            rows.append(dense_row)
            continue
        blocked_topk, tm_hits, row = run_policy(policy)
        hits = total = 0
        for dense_set, blocked_set in zip(dense_topk, blocked_topk):
            total += len(dense_set)
            hits += len(dense_set & blocked_set)
        recall = hits / total if total else 1.0
        rows.append(
            PolicyScaling(
                policy=row.policy,
                n_pairs=row.n_pairs,
                pair_fraction=row.pair_fraction,
                matrix_bytes=row.matrix_bytes,
                elapsed_s=row.elapsed_s,
                topk_recall=recall,
                generation_s=row.generation_s,
                true_match_recall=(
                    tm_hits / dense_tm_hits if dense_tm_hits else 1.0
                ),
                meta=row.meta,
            )
        )
    return ScalingResult(
        n_anonymized=anonymized.n_users,
        n_auxiliary=auxiliary.n_users,
        top_k=config.top_k,
        rows=rows,
        extraction_s=extraction_s,
        extraction_stats=extractor.cache.counters(),
    )
