"""Packed post rows: the row type, read-only sharing, exact cache
accounting, and every row reader pinned byte for byte.

A cached post is a :class:`~repro.stylometry.PostRow` (sorted int32 slots,
float64 values).  The oracles below are the loops the readers ran when
rows were ``{slot: value}`` dicts, applied to the dicts
``FeatureExtractor._extract_row`` builds: each reader must return the same
arrays, with the same dtypes, on the golden corpus, on generated texts
(empty and whitespace-only posts included) and for a user with no posts.
"""

from __future__ import annotations

import gc
import pickle
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.graph.uda import UDAGraph
from repro.stylometry import ExtractionCache, FeatureExtractor, PostRow
from repro.stylometry.cache import _BYTES_PER_ENTRY
from tests.goldens import golden_corpus

_PLAIN = FeatureExtractor()
SIZE = _PLAIN.space.size


# --- the dict-row loops the array readers replaced ------------------------


def oracle_matrix(rows: list) -> sparse.csr_matrix:
    """``extract_matrix``'s CSR build."""
    indptr = [0]
    indices: list = []
    data: list = []
    for row in rows:
        for slot in sorted(row):
            indices.append(slot)
            data.append(row[slot])
        indptr.append(len(indices))
    return sparse.csr_matrix((data, indices, indptr), shape=(len(rows), SIZE))


def oracle_attr_weights(rows_per_user: list) -> sparse.csr_matrix:
    """``UDAGraph._build_attributes``'s per-user ``Counter`` loop."""
    indptr = [0]
    indices: list = []
    data: list = []
    for rows in rows_per_user:
        post_counts: Counter = Counter()
        for row in rows:
            post_counts.update(row.keys())
        slots = sorted(post_counts)
        indices.extend(slots)
        data.extend(post_counts[s] for s in slots)
        indptr.append(len(indices))
    return sparse.csr_matrix(
        (data, indices, indptr), shape=(len(rows_per_user), SIZE), dtype=np.int64
    )


def dict_rows(texts) -> list:
    return [_PLAIN._extract_row(text) for text in texts]


def assert_same_array(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_same_csr(got: sparse.csr_matrix, want: sparse.csr_matrix) -> None:
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        assert_same_array(getattr(got, name), getattr(want, name))


def assert_readers_match(extractor: FeatureExtractor, texts_per_user: list) -> None:
    """Every reader against its oracle, per user and over all users."""
    rows_per_user = [dict_rows(texts) for texts in texts_per_user]
    assert_same_csr(
        extractor.attribute_weights(texts_per_user),
        oracle_attr_weights(rows_per_user),
    )
    flat = [text for texts in texts_per_user for text in texts]
    assert_same_csr(
        extractor.extract_matrix(flat),
        oracle_matrix([row for rows in rows_per_user for row in rows]),
    )
    for texts, rows in zip(texts_per_user, rows_per_user):
        assert_same_csr(extractor.extract_matrix(texts), oracle_matrix(rows))
        assert_same_csr(
            extractor.attribute_weights([texts]), oracle_attr_weights([rows])
        )


@pytest.fixture(scope="module")
def corpus():
    return golden_corpus()


@pytest.fixture(scope="module")
def texts_per_user(corpus):
    return [corpus.post_texts_of(u) for u in sorted(corpus.user_ids())]


class TestPostRow:
    def test_packs_sorted_arrays_and_equals_its_dict(self):
        row = PostRow.pack({5: 0.5, 2: 1.0, 9: 0.25})
        assert row.slots.dtype == np.int32 and row.data.dtype == np.float64
        assert row.slots.tolist() == [2, 5, 9]
        assert row.data.tolist() == [1.0, 0.5, 0.25]
        assert row == {2: 1.0, 5: 0.5, 9: 0.25}
        assert row != {2: 1.0, 5: 0.5}
        assert row == PostRow.pack({9: 0.25, 5: 0.5, 2: 1.0})
        assert row[5] == 0.5 and 7 not in row and list(row) == [2, 5, 9]
        assert row.as_dict() == {2: 1.0, 5: 0.5, 9: 0.25}
        assert PostRow.pack(row) is row
        assert PostRow.pack({}) == {} and len(PostRow.pack({})) == 0

    def test_rows_equal_the_extracted_dicts(self, texts_per_user):
        texts = [text for texts in texts_per_user for text in texts]
        rows = FeatureExtractor(cache=ExtractionCache()).extract_rows(texts)
        assert rows == dict_rows(texts)
        assert all(type(row) is PostRow for row in rows)

    def test_cached_rows_are_read_only_and_shared(self, texts_per_user):
        texts = texts_per_user[0]
        extractor = FeatureExtractor(cache=ExtractionCache())
        shared = extractor.extract_rows(texts, copy=False)
        for row in shared:
            assert not row.slots.flags.writeable
            assert not row.data.flags.writeable
        # copy no longer matters: rows are read-only, so they are shared
        assert all(
            a is b for a, b in zip(shared, extractor.extract_rows(texts))
        )
        row = shared[0]
        with pytest.raises(ValueError):
            row.data[0] = -1.0
        with pytest.raises(ValueError):
            row.slots[0] = 0
        with pytest.raises(TypeError):
            row[int(row.slots[0])] = -1.0
        assert extractor.cache.get(texts[0]) == _PLAIN._extract_row(texts[0])

    def test_extract_sparse_hands_out_a_mutable_dict(self, texts_per_user):
        text = texts_per_user[0][0]
        extractor = FeatureExtractor(cache=ExtractionCache())
        extractor.extract_rows([text])
        out = extractor.extract_sparse(text)
        assert type(out) is dict
        assert out == _PLAIN._extract_row(text)
        out[0] = -1.0
        assert extractor.extract_sparse(text) != out
        assert extractor.cache.get(text) == _PLAIN._extract_row(text)

    def test_pickled_rows_stay_read_only(self):
        row = PostRow.pack({3: 0.5, 1: 2.0})
        clone = pickle.loads(pickle.dumps(row))
        assert clone == row
        assert not clone.slots.flags.writeable
        assert not clone.data.flags.writeable

    def test_put_packs_dicts(self):
        cache = ExtractionCache()
        cache.put("t", {3: 1.0, 1: 2.0})
        row = cache.get("t")
        assert type(row) is PostRow and row == {1: 2.0, 3: 1.0}
        assert cache.nbytes() == _BYTES_PER_ENTRY + 2 * (4 + 8)


class TestAccounting:
    def test_nbytes_covers_the_traced_growth(self, texts_per_user):
        texts = [text for texts in texts_per_user for text in texts]
        extractor = FeatureExtractor()
        extractor.extract_rows(texts)  # warms the tagger and shape memos
        extractor.cache = ExtractionCache()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            extractor.extract_rows(texts, copy=False)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert extractor.cache.entries == len(set(texts))
        assert 0 < grown <= extractor.cache.nbytes()


class TestReadersMatchDictLoops:
    def test_uda_attr_weights(self, corpus, texts_per_user):
        want = oracle_attr_weights([dict_rows(t) for t in texts_per_user])
        assert_same_csr(UDAGraph(corpus).attr_weights, want)
        cached = FeatureExtractor(cache=ExtractionCache())
        for _ in range(2):  # cold, then every post a cache hit
            assert_same_csr(UDAGraph(corpus, extractor=cached).attr_weights, want)

    def test_golden_corpus(self, texts_per_user):
        assert_readers_match(FeatureExtractor(), texts_per_user)
        assert_readers_match(
            FeatureExtractor(cache=ExtractionCache()), texts_per_user
        )

    def test_user_without_posts(self, texts_per_user):
        extractor = FeatureExtractor(cache=ExtractionCache())
        assert_readers_match(extractor, [[]])
        assert_readers_match(extractor, [[], texts_per_user[0], []])
        assert_readers_match(extractor, [])


_POST = st.one_of(
    st.text(
        alphabet=st.characters(min_codepoint=9, max_codepoint=0x2026),
        max_size=200,
    ),
    st.just(""),
    st.text(alphabet=" \t\n", min_size=1, max_size=5),
    st.sampled_from(
        ["I took 20mg becuase of the PAIN!!!", "Sleep?\n\nNo.", "ok ok ok"]
    ),
)
_CACHED = FeatureExtractor(cache=ExtractionCache())


@given(st.lists(st.lists(_POST, max_size=4), max_size=4))
@settings(max_examples=60, deadline=None)
def test_readers_match_on_generated_texts(texts_per_user):
    assert_readers_match(_CACHED, texts_per_user)
