"""Post-level feature extraction and user-level attribute aggregation.

Each post is tokenized and tagged once; every Table-I category then counts
into a sparse ``slot -> value`` mapping over the shared
:class:`~repro.stylometry.features.FeatureSpace`.  Frequencies are
normalised within their natural denominator (words for word-indexed
features, characters for character-indexed ones, tags for POS features), so
values are real, non-negative, and 0 means "post does not have this
feature" — exactly the paper's convention.

User-level aggregation follows Section II-B: user ``u`` *has* attribute
``A_i`` iff some post of ``u`` has feature ``F_i`` non-zero, and the weight
``l_u(A_i)`` is the number of ``u``'s posts with that feature.

The extraction hot path is engineered for corpus scale:

* one ``Counter`` pass over the characters serves the letter, digit,
  uppercase, special-character, and punctuation categories (the naive form
  re-scans the text ~30 times, once per tracked character);
* one ``Counter`` pass over the lowercased words serves the richness,
  function-word, and misspelling categories;
* word shapes and lexicon/suffix POS classifications are memoized per
  distinct word (the tagger's Brill contextual patches stay per-sequence);
* an optional :class:`~repro.stylometry.cache.ExtractionCache` memoizes
  whole rows by post content, so re-fits and sweeps never extract the same
  post twice;
* :meth:`FeatureExtractor.extract_rows` batches many posts, optionally
  fanning the cache misses out to a ``concurrent.futures`` process pool in
  deterministic chunks;
* every batched row is a read-only :class:`~repro.stylometry.cache.PostRow`
  (sorted int32 slots, float64 values), so the post matrices and the user
  attribute counts are array operations over the concatenated rows, with
  no loop over slots.

Every one of those paths produces byte-identical feature values to the
naive per-post loop: each value is either an exact integer ratio (the same
two integers divided once) or the same float expression evaluated in the
same order.  The golden-report suite and the extraction benchmark's
reference oracle both pin this.
"""

from __future__ import annotations

import multiprocessing
import threading
from collections import Counter
from collections.abc import Sequence

import numpy as np
from scipy import sparse

from repro.stylometry.cache import ExtractionCache, PostRow
from repro.testing import faults
from repro.stylometry.features import (
    FeatureSpace,
    MAX_WORD_LENGTH_BIN,
    WORD_SHAPE_BIGRAM_CLASSES,
    default_feature_space,
)
from repro.text.lexicons import (
    FUNCTION_WORDS,
    MISSPELLINGS,
    PUNCTUATION_MARKS,
    SPECIAL_CHARACTERS,
)
from repro.text.metrics import vocabulary_richness_from_counts
from repro.text.postag import PENN_TAGS, POSTagger
from repro.text.tokenize import scan, word_shape
from repro.utils.workers import clamp_workers

#: Hard ceiling on extraction worker processes, whatever the caller asks.
MAX_EXTRACT_WORKERS = 16

#: Pool dispatch is skipped below this many cache-missing distinct posts —
#: process startup would cost more than the extraction.
_MIN_PARALLEL_TEXTS = 8

#: Target chunks per worker when splitting a batch across the pool.
_CHUNKS_PER_WORKER = 4


def resolve_extract_workers(workers: "int | None") -> int:
    """Clamp an extraction worker count to ``[1, MAX_EXTRACT_WORKERS]``.

    ``None`` or 0 means one worker per available core — the same
    :mod:`repro.utils.workers` semantics as the sweep executor's knob.
    """
    return clamp_workers(workers, MAX_EXTRACT_WORKERS)


#: Per-worker-process extractor, installed by the pool initializer so the
#: (memo-laden) extractor is pickled once per worker, not once per chunk.
_WORKER_EXTRACTOR: "FeatureExtractor | None" = None


def _init_extract_worker(extractor: "FeatureExtractor") -> None:
    global _WORKER_EXTRACTOR
    _WORKER_EXTRACTOR = extractor


def _extract_chunk(texts: list) -> list:
    """Worker entry: extract one chunk of posts (module-level: picklable)."""
    return [PostRow.pack(_WORKER_EXTRACTOR._extract_row(text)) for text in texts]


def _concat(rows: list) -> tuple:
    """The rows' slots and values end to end, and the offset at which each
    row starts (a CSR ``indptr``)."""
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=indptr[1:])
    if not rows:
        return np.empty(0, dtype=np.int32), np.empty(0), indptr
    slots = np.concatenate([row.slots for row in rows])
    return slots, np.concatenate([row.data for row in rows]), indptr


class FeatureExtractor:
    """Maps post text to Table-I feature vectors.

    Parameters
    ----------
    space:
        Feature space to extract into; defaults to the shared layout.
    tagger:
        POS tagger; defaults to a fresh :class:`POSTagger`.
    cache:
        Optional :class:`ExtractionCache` memoizing extracted rows by post
        content.  Shared caches (e.g. one per :class:`~repro.api.Engine`)
        make re-fits, sweeps, and executor shards extract each distinct
        post exactly once.
    """

    def __init__(
        self,
        space: FeatureSpace | None = None,
        tagger: POSTagger | None = None,
        cache: "ExtractionCache | None" = None,
    ) -> None:
        self.space = space or default_feature_space()
        self._tagger = tagger or POSTagger()
        self.cache = cache
        self._offsets = {
            cat: sl.start for cat, sl in self.space.category_slices.items()
        }
        self._fw_index = {w: i for i, w in enumerate(FUNCTION_WORDS)}
        self._misspell_index = {w: i for i, w in enumerate(sorted(MISSPELLINGS))}
        self._tag_index = {t: i for i, t in enumerate(PENN_TAGS)}
        self._shape_index = {"upper": 0, "lower": 1, "capitalized": 2, "camel": 3, "other": 4}
        self._shape_bigram_index = {
            (a, b): i
            for i, (a, b) in enumerate(
                (a, b)
                for a in WORD_SHAPE_BIGRAM_CLASSES
                for b in WORD_SHAPE_BIGRAM_CLASSES
            )
        }
        self._special_index = {c: i for i, c in enumerate(SPECIAL_CHARACTERS)}
        self._punct_index = {c: i for i, c in enumerate(PUNCTUATION_MARKS)}
        self._n_tags = len(PENN_TAGS)
        # word -> shape memo; bounded by the vocabulary, not the corpus
        self._shape_memo: dict = {}

    # --- pickling (process-pool workers) --------------------------------

    def __getstate__(self) -> dict:
        # The cache holds a lock and must not travel to worker processes;
        # a truthy marker tells __setstate__ to attach a fresh one, so a
        # pickled-to-worker extractor still memoizes within its shard.
        state = self.__dict__.copy()
        state["cache"] = self.cache is not None
        return state

    def __setstate__(self, state: dict) -> None:
        had_cache = state.pop("cache")
        self.__dict__.update(state)
        self.cache = ExtractionCache() if had_cache else None

    # --- single-post extraction -----------------------------------------

    def _extract_row(self, text: str) -> dict[int, float]:
        """Extract one post, bypassing the cache (the pure hot loop)."""
        out: dict[int, float] = {}
        if not text or not text.strip():
            return out

        surfaces, kinds = scan(text)
        words = [s for s, k in zip(surfaces, kinds) if k == "word"]
        lower_words = [w.lower() for w in words]
        n_words = len(words)
        n_chars = len(text)

        off = self._offsets
        char_counts = Counter(text)
        word_counts = Counter(lower_words)

        # --- length (3)
        base = off["length"]
        out[base] = float(n_chars)
        paragraphs = [p for p in text.split("\n\n") if p.strip()]
        out[base + 1] = float(max(len(paragraphs), 1))
        lengths = [len(w) for w in words]
        if n_words:
            out[base + 2] = sum(lengths) / n_words

        # --- word length (20)
        if n_words:
            base = off["word_length"]
            counts = Counter(
                length if length < MAX_WORD_LENGTH_BIN else MAX_WORD_LENGTH_BIN
                for length in lengths
            )
            for length, c in counts.items():
                out[base + length - 1] = c / n_words

        # --- vocabulary richness (5)
        base = off["vocabulary_richness"]
        for i, value in enumerate(
            vocabulary_richness_from_counts(word_counts).values()
        ):
            if value:
                out[base + i] = float(value)

        # --- letter freq (26), uppercase pct (1)
        n_letters = 0
        n_upper = 0
        letter_counts: dict[str, int] = {}
        for ch, c in char_counts.items():
            if ch.isalpha():
                n_letters += c
                if ch.isupper():
                    n_upper += c
                lower = ch.lower()
                letter_counts[lower] = letter_counts.get(lower, 0) + c
        if n_letters:
            base = off["letter_freq"]
            for ch, c in letter_counts.items():
                idx = ord(ch) - ord("a")
                if 0 <= idx < 26:
                    out[base + idx] = c / n_letters
            if n_upper:
                out[off["uppercase_pct"]] = n_upper / n_letters

        # --- digit freq (10)
        # ASCII digits only: str.isdigit() also accepts superscripts etc.,
        # which are not Table-I digit features
        base = off["digit_freq"]
        for ch, c in char_counts.items():
            if "0" <= ch <= "9":
                out[base + int(ch)] = c / n_chars

        # --- special characters (21)
        base = off["special_chars"]
        for ch, idx in self._special_index.items():
            c = char_counts.get(ch)
            if c:
                out[base + idx] = c / n_chars

        # --- word shape (5 + 16)
        if n_words:
            base = off["word_shape"]
            shape_memo = self._shape_memo
            shapes = []
            for w in words:
                s = shape_memo.get(w)
                if s is None:
                    s = word_shape(w)
                    shape_memo[w] = s
                shapes.append(s)
            for s, c in Counter(shapes).items():
                out[base + self._shape_index[s]] = c / n_words
            if len(shapes) > 1:
                bigram_counts = Counter(zip(shapes, shapes[1:]))
                for pair, c in bigram_counts.items():
                    idx = self._shape_bigram_index.get(pair)
                    if idx is not None:
                        out[base + 5 + idx] = c / (len(shapes) - 1)

        # --- punctuation (10)
        base = off["punctuation"]
        for ch, idx in self._punct_index.items():
            c = char_counts.get(ch)
            if c:
                out[base + idx] = c / n_chars

        # --- function words (337)
        if n_words:
            base = off["function_words"]
            fw_index = self._fw_index
            for w, c in word_counts.items():
                idx = fw_index.get(w)
                if idx is not None:
                    out[base + idx] = c / n_words

        # --- POS tags and bigrams
        tags = self._tagger.tag_scan(surfaces, kinds)
        n_tags = len(tags)
        if n_tags:
            base = off["pos_tags"]
            tag_index = self._tag_index
            for t, c in Counter(tags).items():
                out[base + tag_index[t]] = c / n_tags
            if n_tags > 1:
                base = off["pos_bigrams"]
                bigram_counts = Counter(zip(tags, tags[1:]))
                for (a, b), c in bigram_counts.items():
                    idx = tag_index[a] * self._n_tags + tag_index[b]
                    out[base + idx] = c / (n_tags - 1)

        # --- misspellings (248)
        if n_words:
            base = off["misspellings"]
            ms_index = self._misspell_index
            for w, c in word_counts.items():
                idx = ms_index.get(w)
                if idx is not None:
                    out[base + idx] = c / n_words

        return out

    def extract_sparse(self, text: str) -> dict[int, float]:
        """Extract one post into a sparse ``{slot: value}`` mapping.

        Consults the :class:`ExtractionCache` when one is attached; the
        returned dict is always the caller's to mutate.
        """
        cache = self.cache
        if cache is None:
            return self._extract_row(text)
        row = cache.get(text)
        if row is None:
            row = PostRow.pack(self._extract_row(text))
            cache.put(text, row)
        return row.as_dict()

    # --- batched extraction ----------------------------------------------

    def extract_rows(
        self,
        texts: Sequence[str],
        workers: int = 1,
        copy: bool = True,
    ) -> list:
        """Extract many posts into :class:`PostRow` rows, in input order.

        Duplicate texts in the batch are extracted once; with an attached
        cache, previously seen posts are never re-extracted.  ``workers >
        1`` fans the cache misses out to a process pool in deterministic
        contiguous chunks (``0`` = one worker per core); output is
        byte-identical to serial on every path because each row is a pure
        function of its text.  Rows are read-only and may be shared cache
        entries, so ``copy`` has no effect; it stays for callers that pass
        it.
        """
        # chaos seam: batched extraction is where job shards spend their
        # time, so this is where a crashing worker is simulated
        faults.fire(faults.SEAM_EXTRACT)
        texts = list(texts)
        cache = self.cache
        rows = cache.get_many(texts) if cache is not None else [None] * len(texts)
        pending: dict[str, list[int]] = {}
        for i, row in enumerate(rows):
            if row is None:
                pending.setdefault(texts[i], []).append(i)

        miss_texts = list(pending)
        computed = self._compute_rows(miss_texts, workers)
        for text, row in zip(miss_texts, computed):
            if cache is not None:
                cache.put(text, row)
            for i in pending[text]:
                rows[i] = row
        return rows

    def _compute_rows(self, texts: list, workers: int) -> list:
        """Extract and pack distinct texts, serially or across a process
        pool (each post's dict is packed as soon as it is built)."""
        workers = resolve_extract_workers(workers)
        if workers <= 1 or len(texts) < _MIN_PARALLEL_TEXTS:
            return [PostRow.pack(self._extract_row(text)) for text in texts]
        from concurrent.futures import ProcessPoolExecutor

        # Forking a multi-threaded parent (the threading WSGI server) can
        # deadlock the children, so fall back to the spawn start method
        # there; single-threaded parents keep the cheap platform default.
        ctx = (
            multiprocessing.get_context("spawn")
            if threading.active_count() > 1
            else None
        )
        n_chunks = min(len(texts), workers * _CHUNKS_PER_WORKER)
        bounds = np.linspace(0, len(texts), n_chunks + 1).astype(int)
        chunks = [
            texts[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo
        ]
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=ctx,
            initializer=_init_extract_worker,
            initargs=(self,),
        ) as pool:
            chunk_rows = list(pool.map(_extract_chunk, chunks))
        return [row for chunk in chunk_rows for row in chunk]

    def extract_matrix(
        self, texts: Sequence[str], workers: int = 1
    ) -> sparse.csr_matrix:
        """Extract many posts into a CSR matrix of shape ``(n_posts, M)``."""
        rows = self.extract_rows(texts, workers=workers, copy=False)
        slots, data, indptr = _concat(rows)
        return sparse.csr_matrix(
            (data, slots, indptr), shape=(len(rows), self.space.size)
        )

    def attribute_weights(
        self, texts_per_user: Sequence[Sequence[str]], workers: int = 1
    ) -> sparse.csr_matrix:
        """WA(u) of many users: a CSR matrix ``(n_users, M)`` of int64
        counts whose entry ``(u, i)`` is ``l_u(A_i)``, the number of
        ``u``'s posts with feature ``F_i``.

        The posts of every user are extracted in one batch, in user order;
        each post's slots then count once for its user, as ``user × M +
        slot`` codes counted by one sort.
        """
        flat = [text for texts in texts_per_user for text in texts]
        rows = self.extract_rows(flat, workers=workers, copy=False)
        slots, _, post_ptr = _concat(rows)
        n_users, size = len(texts_per_user), self.space.size
        user_ptr = post_ptr[np.cumsum([0] + [len(t) for t in texts_per_user])]
        owners = np.repeat(np.arange(n_users), np.diff(user_ptr))
        codes, counts = np.unique(owners * size + slots, return_counts=True)
        indptr = np.searchsorted(codes, np.arange(n_users + 1) * size)
        return sparse.csr_matrix(
            (counts, codes % size, indptr),
            shape=(n_users, size),
            dtype=np.int64,
        )
