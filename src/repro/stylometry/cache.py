"""Content-keyed cache of extracted post feature rows.

Feature extraction is a pure function of the post text (the tokenizer,
tagger, and Table-I counters are all deterministic), so the extracted
sparse row can be memoized on the post content itself.  The
:class:`ExtractionCache` mirrors the similarity layer's
:class:`~repro.core.similarity.SimilarityCache`: hit/miss/build counters
let tests assert reuse ("an executor sweep extracts each distinct post
exactly once"), and entry/byte accounting lets long-running engines report
and bound their memory footprint.

The cache key is the post text itself — the exact content fingerprint.
Python caches each string's hash after the first lookup and the dict key
holds a *reference* to the already-in-memory post string, so keying by
content costs no copies and no re-hashing on repeat lookups (a digest
would re-scan the text every time).

Each cached row is a :class:`PostRow`: the post's sorted slots as int32
and its values as float64, both read-only, so one row is shared by every
reader of the post and no reader can corrupt it for the next.  A
``{slot: value}`` dict of Python objects costs about 16 KiB for a typical
post of ~200 slots; the two arrays hold the same row in about 2.6 KiB.
"""

from __future__ import annotations

import threading
from collections.abc import Mapping, Sequence

import numpy as np

#: Bytes one cached entry holds besides its arrays' data: the
#: :class:`PostRow` object, its two array headers and their shape
#: buffers, and the entry's share of the cache's dict.  Measured under
#: tracemalloc at 325–350 bytes an entry (CPython 3.11, numpy 2.4) and
#: rounded up, so the count never falls below what the rows hold.  The
#: post text is not counted: the key is a reference to the corpus's own
#: string.
_BYTES_PER_ENTRY = 512


class PostRow(Mapping):
    """One post's feature row: sorted int32 ``slots`` and float64 ``data``.

    A read-only ``{slot: value}`` mapping over two read-only arrays.  It
    compares equal to the dict it was packed from; readers that aggregate
    many rows concatenate the arrays instead of walking the mapping.
    """

    __slots__ = ("slots", "data")

    def __init__(self, slots: np.ndarray, data: np.ndarray) -> None:
        slots.flags.writeable = False
        data.flags.writeable = False
        self.slots = slots
        self.data = data

    @classmethod
    def pack(cls, row: Mapping) -> "PostRow":
        """``row`` as a :class:`PostRow` (itself if it already is one)."""
        if isinstance(row, PostRow):
            return row
        slots = np.fromiter(row.keys(), dtype=np.int32, count=len(row))
        data = np.fromiter(row.values(), dtype=np.float64, count=len(row))
        order = slots.argsort()
        return cls(slots[order], data[order])

    def as_dict(self) -> dict:
        """A fresh ``{slot: value}`` dict of Python ints and floats."""
        return dict(zip(self.slots.tolist(), self.data.tolist()))

    @property
    def nbytes(self) -> int:
        """Bytes of the two arrays' data."""
        return self.slots.nbytes + self.data.nbytes

    def __getitem__(self, slot) -> float:
        i = int(self.slots.searchsorted(slot))
        if i < len(self.slots) and self.slots[i] == slot:
            return float(self.data[i])
        raise KeyError(slot)

    def __iter__(self):
        return iter(self.slots.tolist())

    def __len__(self) -> int:
        return len(self.slots)

    def __eq__(self, other) -> bool:
        if isinstance(other, PostRow):
            return np.array_equal(self.slots, other.slots) and np.array_equal(
                self.data, other.data
            )
        if isinstance(other, Mapping):
            return self.as_dict() == dict(other.items())
        return NotImplemented

    def __reduce__(self) -> tuple:
        # unpickled arrays come back writeable; __init__ locks them again
        return PostRow, (self.slots, self.data)

    def __repr__(self) -> str:
        return f"PostRow({self.as_dict()!r})"


class ExtractionCache:
    """Post text -> extracted :class:`PostRow`, with reuse accounting.

    Thread-safe: dict reads/writes are GIL-atomic and the counters are
    guarded by an internal mutex, so thread-backend sweep shards can share
    one cache through their engine's extractor.  Two threads racing on the
    same text may both extract it; both ``put`` the identical row, so the
    stored value is unaffected (the race costs one redundant extraction,
    never correctness).
    """

    def __init__(self) -> None:
        self._rows: dict = {}
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.builds = 0
        self._mutex = threading.Lock()

    # --- access ---------------------------------------------------------

    def get(self, text: str) -> "PostRow | None":
        """The cached row for ``text``, or ``None`` (counted as hit/miss)."""
        return self.get_many([text])[0]

    def get_many(self, texts: Sequence[str]) -> list:
        """The cached row (or ``None``) of every text, in input order.

        Each text counts as one hit or miss, duplicates included, as a
        :meth:`get` per text would; the batch takes the mutex once.
        """
        rows = [self._rows.get(text) for text in texts]
        misses = sum(row is None for row in rows)
        with self._mutex:
            self.misses += misses
            self.hits += len(rows) - misses
        return rows

    def put(self, text: str, row: Mapping) -> None:
        """Store the extracted ``row`` for ``text``, packed (first writer
        wins).

        Check and insert happen under the mutex so two threads racing on
        the same post cannot double-count ``builds`` or inflate the byte
        accounting — the loser's redundant row is simply discarded.
        """
        row = PostRow.pack(row)
        with self._mutex:
            if text in self._rows:
                return
            self._rows[text] = row
            self.builds += 1
            self._bytes += _BYTES_PER_ENTRY + row.nbytes

    def clear(self) -> int:
        """Drop every cached row; returns how many were dropped.

        Hit/miss/build counters are cumulative and survive the clear (they
        describe history, not contents).
        """
        with self._mutex:
            dropped = len(self._rows)
            self._rows.clear()
            self._bytes = 0
        return dropped

    # --- accounting -----------------------------------------------------

    @property
    def entries(self) -> int:
        return len(self._rows)

    def nbytes(self) -> int:
        """Bytes held by cached rows: their arrays plus a fixed overhead
        per entry (keys are shared references)."""
        with self._mutex:
            return self._bytes

    def counters(self) -> dict:
        """Hits/misses/builds plus entry and byte totals, JSON-safe."""
        with self._mutex:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "builds": self.builds,
                "entries": len(self._rows),
                "bytes": self._bytes,
            }

    def __repr__(self) -> str:
        return (
            f"ExtractionCache(entries={self.entries}, "
            f"bytes={self.nbytes()}, hits={self.hits}, misses={self.misses})"
        )
