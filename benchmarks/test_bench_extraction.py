"""Extraction fast path — the phase-0 throughput bench.

Three claims on one generated corpus, gated:

* **algorithmic** — the rewritten single-core extractor (single char/word
  count passes, memoized word shapes and lexicon/suffix POS stages) beats
  a frozen copy of the pre-fast-path implementation by >= 1.5x (medians
  of alternating timed rounds), while producing byte-identical rows (the
  reference doubles as the oracle);
* **memoized** — a warm :class:`~repro.stylometry.ExtractionCache` pass
  over the same posts runs >= 5x faster than the cold pass;
* **parallel** — with >= 4 cores, a 4-worker process pool beats the cold
  serial pass by >= 2x (skipped on smaller machines, like the PR 2
  executor bench: this is a determinism-first, speedup-when-possible
  feature).

Measured numbers land in ``BENCH_extraction.json`` at the repo root —
the first entry of the perf trajectory.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import Counter
from pathlib import Path

from repro.datagen import webmd_like
from repro.stylometry import ExtractionCache, FeatureExtractor
from repro.stylometry.features import MAX_WORD_LENGTH_BIN
from repro.text.metrics import vocabulary_richness
from repro.text.postag import POSTagger
from repro.text.tokenize import tokenize, word_shape

from benchmarks.conftest import emit

BENCH_USERS = 80
BENCH_SEED = 3

MIN_ALGORITHMIC_SPEEDUP = 1.5
MIN_MEMOIZED_SPEEDUP = 5.0
MIN_PARALLEL_SPEEDUP = 2.0
PARALLEL_MIN_CORES = 4
PARALLEL_WORKERS = 4
#: Timed passes per side, alternating reference and cold; each side's
#: median enters the ratio, so a slow spell of the host weighs on both.
EXTRACTION_ROUNDS = 9

BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_extraction.json"


def _reference_extract_sparse(fx: FeatureExtractor, tagger: POSTagger, text: str):
    """Frozen copy of the pre-fast-path ``extract_sparse`` hot loop.

    Taken verbatim from the extractor as it stood before this bench
    existed (per-category passes over the text, one ``text.count`` per
    tracked character, unmemoized tagging via the passed-in tagger) so the
    speedup is measured against the real prior implementation — and so
    the new path can be asserted byte-identical to it.
    """
    out: dict = {}
    if not text or not text.strip():
        return out

    tokens = tokenize(text)
    words = [t.text for t in tokens if t.kind == "word"]
    lower_words = [w.lower() for w in words]
    n_words = len(words)
    n_chars = len(text)

    off = fx._offsets

    base = off["length"]
    out[base] = float(n_chars)
    paragraphs = [p for p in text.split("\n\n") if p.strip()]
    out[base + 1] = float(max(len(paragraphs), 1))
    if n_words:
        out[base + 2] = sum(len(w) for w in words) / n_words

    if n_words:
        base = off["word_length"]
        counts = Counter(min(len(w), MAX_WORD_LENGTH_BIN) for w in words)
        for length, c in counts.items():
            out[base + length - 1] = c / n_words

    base = off["vocabulary_richness"]
    for i, value in enumerate(vocabulary_richness(lower_words).values()):
        if value:
            out[base + i] = float(value)

    letters = [c for c in text if c.isalpha()]
    n_letters = len(letters)
    if n_letters:
        base = off["letter_freq"]
        counts = Counter(c.lower() for c in letters)
        for ch, c in counts.items():
            idx = ord(ch) - ord("a")
            if 0 <= idx < 26:
                out[base + idx] = c / n_letters
        n_upper = sum(1 for c in letters if c.isupper())
        if n_upper:
            out[off["uppercase_pct"]] = n_upper / n_letters

    base = off["digit_freq"]
    digit_counts = Counter(c for c in text if "0" <= c <= "9")
    for d, c in digit_counts.items():
        out[base + int(d)] = c / n_chars

    base = off["special_chars"]
    for ch, idx in fx._special_index.items():
        c = text.count(ch)
        if c:
            out[base + idx] = c / n_chars

    if n_words:
        base = off["word_shape"]
        shapes = [word_shape(w) for w in words]
        for s, c in Counter(shapes).items():
            out[base + fx._shape_index[s]] = c / n_words
        if len(shapes) > 1:
            bigram_counts = Counter(zip(shapes, shapes[1:]))
            for pair, c in bigram_counts.items():
                idx = fx._shape_bigram_index.get(pair)
                if idx is not None:
                    out[base + 5 + idx] = c / (len(shapes) - 1)

    base = off["punctuation"]
    for ch, idx in fx._punct_index.items():
        c = text.count(ch)
        if c:
            out[base + idx] = c / n_chars

    if n_words:
        base = off["function_words"]
        fw_counts = Counter(w for w in lower_words if w in fx._fw_index)
        for w, c in fw_counts.items():
            out[base + fx._fw_index[w]] = c / n_words

    tags = tagger.tag(tokens)
    n_tags = len(tags)
    if n_tags:
        base = off["pos_tags"]
        for t, c in Counter(tags).items():
            out[base + fx._tag_index[t]] = c / n_tags
        if n_tags > 1:
            base = off["pos_bigrams"]
            bigram_counts = Counter(zip(tags, tags[1:]))
            for (a, b), c in bigram_counts.items():
                idx = fx._tag_index[a] * fx._n_tags + fx._tag_index[b]
                out[base + idx] = c / (n_tags - 1)

    if n_words:
        base = off["misspellings"]
        ms_counts = Counter(w for w in lower_words if w in fx._misspell_index)
        for w, c in ms_counts.items():
            out[base + fx._misspell_index[w]] = c / n_words

    return out


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover — non-Linux fallback
        return os.cpu_count() or 1


def test_extraction_fast_path(benchmark):
    dataset = webmd_like(n_users=BENCH_USERS, seed=BENCH_SEED).dataset
    texts = [p.text for u in dataset.user_ids() for p in dataset.posts_of(u)]
    n_posts = len(texts)
    ref_fx = FeatureExtractor(tagger=POSTagger(memoize=False))

    def reference_pass():
        # the pre-fast-path loop, also the byte-identity oracle
        ref_tagger = POSTagger(memoize=False)
        return [
            _reference_extract_sparse(ref_fx, ref_tagger, text)
            for text in texts
        ]

    def cold_pass():
        # the fast path: a fresh extractor with an empty cache
        extractor = FeatureExtractor(cache=ExtractionCache())
        return extractor, extractor.extract_rows(texts, copy=False)

    def timed(run) -> tuple:
        started = time.perf_counter()
        out = run()
        return out, time.perf_counter() - started

    def alternate() -> tuple:
        ref, cold = [], []
        for _ in range(EXTRACTION_ROUNDS):
            ref.append(timed(reference_pass))
            cold.append(timed(cold_pass))
        return ref, cold

    ref, cold = benchmark.pedantic(alternate, rounds=1, iterations=1)
    ref_rows = ref[-1][0]
    extractor, cold_rows = cold[-1][0]
    ref_s = statistics.median(elapsed for _, elapsed in ref)
    cold_s = statistics.median(elapsed for _, elapsed in cold)

    assert cold_rows == ref_rows, (
        "fast-path extraction is not byte-identical to the reference"
    )

    # --- warm pass: every post served from the cache
    started = time.perf_counter()
    warm_rows = extractor.extract_rows(texts, copy=False)
    warm_s = time.perf_counter() - started
    assert warm_rows == ref_rows
    counters = extractor.cache.counters()
    assert counters["builds"] == len(set(texts))

    # --- optional parallel pass (multi-core machines only)
    cores = _available_cores()
    parallel_s = None
    if cores >= PARALLEL_MIN_CORES:
        fresh = FeatureExtractor()
        started = time.perf_counter()
        parallel_rows = fresh.extract_rows(texts, workers=PARALLEL_WORKERS)
        parallel_s = time.perf_counter() - started
        assert parallel_rows == ref_rows

    record = {
        "corpus_users": BENCH_USERS,
        "corpus_seed": BENCH_SEED,
        "n_posts": n_posts,
        "cores": cores,
        "ref_posts_per_sec": round(n_posts / ref_s, 1),
        "cold_posts_per_sec": round(n_posts / cold_s, 1),
        "warm_posts_per_sec": round(n_posts / warm_s, 1),
        "parallel_posts_per_sec": (
            round(n_posts / parallel_s, 1) if parallel_s else None
        ),
        "algorithmic_speedup": round(ref_s / cold_s, 2),
        "memoized_speedup": round(cold_s / warm_s, 1),
        "parallel_speedup": (
            round(cold_s / parallel_s, 2) if parallel_s else None
        ),
        "cache_entries": counters["entries"],
        "cache_bytes": counters["bytes"],
    }
    BENCH_JSON.write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    emit(
        f"Extraction fast path ({n_posts} posts, {cores} core(s))",
        json.dumps(record, indent=2, sort_keys=True),
    )

    assert ref_s / cold_s >= MIN_ALGORITHMIC_SPEEDUP, (
        f"single-core fast path only {ref_s / cold_s:.2f}x over the "
        f"reference extractor (gate: {MIN_ALGORITHMIC_SPEEDUP}x)"
    )
    assert cold_s / warm_s >= MIN_MEMOIZED_SPEEDUP, (
        f"memoized-warm pass only {cold_s / warm_s:.2f}x over cold "
        f"(gate: {MIN_MEMOIZED_SPEEDUP}x)"
    )
    if parallel_s is not None:
        assert cold_s / parallel_s >= MIN_PARALLEL_SPEEDUP, (
            f"{PARALLEL_WORKERS}-worker extraction only "
            f"{cold_s / parallel_s:.2f}x over serial on {cores} cores "
            f"(gate: {MIN_PARALLEL_SPEEDUP}x)"
        )
