"""Candidate generation ("blocking") for the Top-K DA phase.

Dense structural similarity scores every ``(anonymized, auxiliary)`` pair —
``n1 × n2`` memory and compute, a hard wall at WebMD scale.  Production
entity-resolution systems prune the pair space with a *blocking* stage
before scoring; this module provides that stage for De-Health:

* ``"none"`` — no blocking; the dense path scores every pair, read
  through the full mask (:meth:`CandidateMask.full`);
* ``"degree_band"`` — bucket users of both graphs into logarithmic degree
  bands; a pair is a candidate iff the bands are at most one apart.
  Cheap and attribute-free, but a weak pruner on degree-homogeneous forum
  graphs;
* ``"attr_index"`` — an inverted index over attribute slots generates the
  pairs sharing at least ``min_shared`` attributes; each candidate pair is
  ranked by its binary attribute Jaccard (the unweighted half of the
  paper's ``s^a``, computable from the index counts alone) and only the
  top ``keep_fraction`` of each anonymized user's column set is retained;
* ``"union"`` — an alias for ``"degree_band+attr_index"``, the OR of the
  two masks above: the recall-safe policy (a true match missed by one
  blocker is usually caught by the other);
* ``"lsh"`` — banded random-hyperplane (SimHash) signatures over the
  per-user attribute-profile vectors; candidates are the union of
  band-bucket collisions, ranked by how many bands collide, with the same
  per-row ``keep_fraction`` cap.  Cost is ``O((n1 + n2) · d · bits)`` for
  the signatures plus the collisions actually emitted — no ``n1 × n2``
  work anywhere;
* ``"ann_graph"`` — a small NSW-style (navigable-small-world) greedy
  search index built over the auxiliary profiles, queried per anonymized
  row for its nearest neighbours under cosine.  The high-recall
  alternative when signature bucketing is too coarse.

Composite policies are spelled ``"a+b"`` (e.g. ``"lsh+degree_band"``):
the masks of the parts are OR-ed, the recall-safe composition with the
existing exact blockers.

Every policy produces a :class:`CandidateMask` — a per-anonymized-user
candidate column set stored as a boolean CSR matrix.  Candidate
generation never builds an ``n1 × n2`` array.  Every policy, ``"none"``
included, hands the Top-K phase one :class:`SparseSimilarity`: the blocked
scoring path in :mod:`repro.core.similarity` samples the ``s^d``, ``s^s``
and ``s^a`` blocks the dense path uses too (one ``n1 × n2`` float64 block
per term and split), so its scores are the dense scores at the mask, byte
for byte, and the dense path and every policy of a session share one
build of each block.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from scipy import sparse

from repro.core.config import BLOCKING_CHOICES, DeHealthConfig, parse_blocking
from repro.errors import ConfigError
from repro.graph.uda import UDAGraph

#: Row-chunk size (anonymized users per block) for the inverted-index
#: sweep — bounds peak memory of candidate generation itself.
_ATTR_CHUNK_ROWS = 256

#: Bits per LSH band must pack into one uint64 bucket key.
MAX_LSH_ROWS = 62

#: Minimum width of the LSH ranking signature: when ``bands × rows`` is
#: smaller, extra (non-banded) hyperplane bits are appended so the hamming
#: re-rank of colliding pairs stays a sharp cosine proxy even under coarse
#: bucketing.  Linear cost, so generously sized.
LSH_RANK_BITS = 512


class CandidateMask:
    """Per-anonymized-user candidate columns as a boolean CSR matrix.

    Rows are anonymized users, columns auxiliary users; a stored ``True``
    at ``(i, j)`` marks the pair for scoring.  The matrix is kept
    canonical (sorted indices, no duplicates, no explicit zeros), so the
    CSR data order is a stable COO enumeration of the candidate pairs.
    """

    def __init__(self, matrix: sparse.spmatrix, meta: "dict | None" = None) -> None:
        csr = sparse.csr_matrix(matrix, dtype=bool)
        csr.eliminate_zeros()
        csr.sum_duplicates()
        csr.sort_indices()
        self.matrix = csr
        #: Policy-specific generation accounting (e.g. the LSH collision
        #: counts) — free-form, JSON-safe, surfaced through blocking stats.
        self.meta: dict = dict(meta or {})

    @classmethod
    def full(cls, n1: int, n2: int) -> "CandidateMask":
        """Every pair of the ``n1 × n2`` space, rows in column order (the
        dense case: CSR data order is the row-major ``ravel()`` order)."""
        indices = np.tile(np.arange(n2, dtype=np.int32), n1)
        indptr = np.arange(n1 + 1, dtype=np.int64) * n2
        return cls(
            sparse.csr_matrix(
                (np.ones(len(indices), dtype=bool), indices, indptr),
                shape=(n1, n2),
            )
        )

    # --- geometry -------------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.matrix.shape

    @property
    def n_pairs(self) -> int:
        """Number of candidate pairs (pairs the scorer will evaluate)."""
        return int(self.matrix.nnz)

    @property
    def n_total_pairs(self) -> int:
        return int(self.shape[0]) * int(self.shape[1])

    @property
    def density(self) -> float:
        """Fraction of the full pair space kept (1.0 = no pruning)."""
        total = self.n_total_pairs
        return self.n_pairs / total if total else 0.0

    @property
    def nbytes(self) -> int:
        m = self.matrix
        return int(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)

    # --- access ---------------------------------------------------------

    def row_cols(self, i: int) -> np.ndarray:
        """Sorted candidate column indices of row ``i``."""
        m = self.matrix
        return m.indices[m.indptr[i] : m.indptr[i + 1]]

    def pair_arrays(self) -> tuple:
        """``(rows, cols)`` of every candidate pair, in CSR data order."""
        m = self.matrix
        rows = np.repeat(
            np.arange(m.shape[0], dtype=np.int64), np.diff(m.indptr)
        )
        return rows, m.indices.astype(np.int64, copy=False)

    def __or__(self, other: "CandidateMask") -> "CandidateMask":
        if self.shape != other.shape:
            raise ConfigError(
                f"cannot union masks of shapes {self.shape} and {other.shape}"
            )
        return CandidateMask(
            self.matrix.maximum(other.matrix), meta={**self.meta, **other.meta}
        )

    def __repr__(self) -> str:
        return (
            f"CandidateMask(shape={self.shape}, pairs={self.n_pairs}, "
            f"density={self.density:.3f})"
        )


class SparseSimilarity:
    """Similarity scores evaluated only at a :class:`CandidateMask`'s pairs.

    Conceptually this is the dense similarity matrix with every unscored
    (pruned) pair pinned at ``floor`` — an explicit value strictly outside
    the candidate set's competition.  All combined similarity components
    are non-negative, so the default floor of 0.0 never outranks a scored
    pair.  ``values`` is aligned with the mask's CSR data order (the order
    :meth:`CandidateMask.pair_arrays` enumerates).

    Over a full mask (:meth:`CandidateMask.full`) nothing is unscored and
    ``values`` is the dense matrix raveled row-major: that is the dense
    case, and the one score type the Top-K phase reads
    (:meth:`from_dense` wraps an ``(n1 × n2)`` array this way).
    """

    def __init__(
        self,
        mask: CandidateMask,
        values: np.ndarray,
        floor: float = 0.0,
    ) -> None:
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (mask.n_pairs,):
            raise ConfigError(
                f"{values.shape[0] if values.ndim == 1 else values.shape} "
                f"values for a mask of {mask.n_pairs} pairs"
            )
        self.mask = mask
        self.values = values
        self.floor = float(floor)

    @classmethod
    def from_dense(cls, S) -> "SparseSimilarity":
        """An ``(n1 × n2)`` matrix as scores over the full mask."""
        S = np.asarray(S, dtype=np.float64)
        if S.ndim != 2:
            raise ConfigError(f"similarity matrix must be 2-D, got {S.shape}")
        return cls(CandidateMask.full(*S.shape), S.ravel())

    # --- geometry -------------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.mask.shape

    @property
    def n_pairs(self) -> int:
        return self.mask.n_pairs

    @property
    def nbytes(self) -> int:
        """Bytes of the score values only.

        The mask is a shared object (one mask serves every component's
        pair values in a :class:`~repro.core.similarity.SimilarityCache`)
        and is accounted once by whoever owns it, not once per score set.
        """
        return int(self.values.nbytes)

    # --- row access -----------------------------------------------------

    def row(self, i: int) -> tuple:
        """``(cols, values)`` of the scored pairs in row ``i``."""
        m = self.mask.matrix
        lo, hi = m.indptr[i], m.indptr[i + 1]
        return m.indices[lo:hi], self.values[lo:hi]

    def dense_row(self, i: int) -> np.ndarray:
        """Row ``i`` as a dense vector, unscored pairs filled with floor."""
        out = np.full(self.shape[1], self.floor, dtype=np.float64)
        cols, vals = self.row(i)
        out[cols] = vals
        return out

    def scores_at(self, i: int, cols) -> np.ndarray:
        """Scores of row ``i`` at ``cols`` (floor for unscored columns)."""
        row_cols, vals = self.row(i)
        cols = np.asarray(cols, dtype=np.int64)
        pos = np.searchsorted(row_cols, cols)
        pos_clipped = np.minimum(pos, max(len(row_cols) - 1, 0))
        out = np.full(cols.shape, self.floor, dtype=np.float64)
        if len(row_cols):
            hit = row_cols[pos_clipped] == cols
            out[hit] = vals[pos_clipped[hit]]
        return out

    # --- aggregates -----------------------------------------------------

    def _has_unscored(self) -> bool:
        return self.n_pairs < self.mask.n_total_pairs

    def max(self) -> float:
        """Max over the conceptual floor-filled matrix."""
        best = self.values.max() if len(self.values) else -np.inf
        if self._has_unscored():
            best = max(best, self.floor)
        return float(best)

    def min(self) -> float:
        """Min over the conceptual floor-filled matrix."""
        worst = self.values.min() if len(self.values) else np.inf
        if self._has_unscored():
            worst = min(worst, self.floor)
        return float(worst)

    def to_dense(self, floor: "float | None" = None) -> np.ndarray:
        """A fresh dense matrix, unscored pairs filled with ``floor``
        (default: :attr:`floor`)."""
        out = np.full(
            self.shape, self.floor if floor is None else floor, dtype=np.float64
        )
        rows, cols = self.mask.pair_arrays()
        out[rows, cols] = self.values
        return out

    def __repr__(self) -> str:
        return (
            f"SparseSimilarity(shape={self.shape}, pairs={self.n_pairs}, "
            f"floor={self.floor})"
        )


def as_similarity(S) -> SparseSimilarity:
    """``S`` itself, or a dense matrix wrapped by
    :meth:`SparseSimilarity.from_dense`: the Top-K phase's one conversion."""
    return S if isinstance(S, SparseSimilarity) else SparseSimilarity.from_dense(S)


# --- policies -----------------------------------------------------------


def _degree_bands(degrees: np.ndarray, band_width: float) -> np.ndarray:
    """Logarithmic degree band per user: ``floor(log2(1 + d) / width)``."""
    return np.floor(np.log2(1.0 + degrees.astype(np.float64)) / band_width).astype(
        np.int64
    )


def degree_band_candidates(
    anonymized: UDAGraph,
    auxiliary: UDAGraph,
    band_width: float = 1.0,
) -> CandidateMask:
    """Pairs whose log-degree bands differ by at most one.

    The same user's degree drifts between the Δ1/Δ2 splits (it depends on
    which co-thread posts landed on each side), so candidate bands must be
    generous: with the default width (log2) a degree-``d`` user keeps
    every auxiliary user within roughly a 4× degree range.
    """
    if band_width <= 0:
        raise ConfigError(f"band_width must be > 0, got {band_width}")
    b1 = _degree_bands(anonymized.degrees, band_width)
    b2 = _degree_bands(auxiliary.degrees, band_width)
    order = np.argsort(b2, kind="stable")
    sorted_b2 = b2[order]
    # per anon user: auxiliary columns whose band is in [b - 1, b + 1]
    lo = np.searchsorted(sorted_b2, b1 - 1, side="left")
    hi = np.searchsorted(sorted_b2, b1 + 1, side="right")
    counts = hi - lo
    indptr = np.zeros(len(b1) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = np.concatenate(
        [order[l:h] for l, h in zip(lo, hi)]
    ) if indptr[-1] else np.empty(0, dtype=np.int64)
    matrix = sparse.csr_matrix(
        (np.ones(indptr[-1], dtype=bool), indices, indptr),
        shape=(len(b1), len(b2)),
    )
    return CandidateMask(matrix)


def attr_index_candidates(
    anonymized: UDAGraph,
    auxiliary: UDAGraph,
    min_shared: int = 1,
    keep_fraction: float = 0.2,
) -> CandidateMask:
    """Inverted-index blocking over attribute slots, Jaccard-ranked.

    The inverted index (one sparse boolean matmul per row chunk) yields,
    for every anonymized user, the auxiliary users sharing at least
    ``min_shared`` attribute slots together with the shared-slot counts.
    Those counts give each pair's binary attribute Jaccard — the
    unweighted half of the paper's ``s^a``, free at this point — and each
    user keeps at most ``ceil(keep_fraction × n2)`` columns, best Jaccard
    first (rows with fewer index-generated candidates keep them all), so
    the mask never exceeds that fraction of the full pair space.  Peak
    memory is one row chunk, never ``n1 × n2``.
    """
    if min_shared < 1:
        raise ConfigError(f"min_shared must be >= 1, got {min_shared}")
    if not 0.0 < keep_fraction <= 1.0:
        raise ConfigError(
            f"keep_fraction must be in (0, 1], got {keep_fraction}"
        )
    B1 = (anonymized.attr_weights > 0).astype(np.float64).tocsr()
    B2 = (auxiliary.attr_weights > 0).astype(np.float64).tocsr()
    n1, n2 = B1.shape[0], B2.shape[0]
    sizes1 = np.asarray(B1.sum(axis=1)).ravel()
    sizes2 = np.asarray(B2.sum(axis=1)).ravel()
    B2T = B2.T.tocsc()
    keep = max(1, int(np.ceil(keep_fraction * n2)))

    row_cols: list = []  # one sorted int64 array per anonymized row
    for start in range(0, n1, _ATTR_CHUNK_ROWS):
        stop = min(start + _ATTR_CHUNK_ROWS, n1)
        inter = (B1[start:stop] @ B2T).tocsr()  # shared-slot counts, sparse
        for local in range(stop - start):
            lo, hi = inter.indptr[local], inter.indptr[local + 1]
            cols = inter.indices[lo:hi]
            counts = inter.data[lo:hi]
            eligible = counts >= min_shared
            cols = cols[eligible]
            counts = counts[eligible]
            if len(cols) > keep:
                union = sizes1[start + local] + sizes2[cols] - counts
                jaccard = np.divide(
                    counts,
                    union,
                    out=np.ones_like(counts, dtype=np.float64),
                    where=union > 0,
                )
                top = np.argpartition(-jaccard, keep - 1)[:keep]
                cols = cols[top]
            row_cols.append(np.sort(cols).astype(np.int64, copy=False))
    counts_per_row = np.array([len(c) for c in row_cols], dtype=np.int64)
    indptr = np.zeros(n1 + 1, dtype=np.int64)
    np.cumsum(counts_per_row, out=indptr[1:])
    indices = (
        np.concatenate(row_cols) if indptr[-1] else np.empty(0, dtype=np.int64)
    )
    matrix = sparse.csr_matrix(
        (np.ones(indptr[-1], dtype=bool), indices, indptr),
        shape=(n1, n2),
    )
    return CandidateMask(matrix)


# --- approximate-nearest-neighbour policies -----------------------------


def _profile_matrix(graph: UDAGraph) -> sparse.csr_matrix:
    """Per-user profile vectors the ANN policies hash/search over.

    The attribute weight rows with a ``log1p`` temper: the *set* of
    exhibited stylometric attributes carries the identity signal, so heavy
    posters must not dominate the hyperplane projections linearly.
    """
    W = graph.attr_weights.astype(np.float32).tocsr().copy()
    W.data = np.log1p(W.data)
    return W


#: Memo of seeded hyperplane matrices keyed ``(d, bits, seed)``.  The
#: Gaussian draw is deterministic, so sharing it across calls (sweep
#: variants, re-fits) is free; the bound keeps at most a few MB alive.
_PLANES_MEMO: dict = {}
_PLANES_MEMO_MAX = 4


def _hyperplanes(d: int, bits: int, seed: int) -> np.ndarray:
    """The seeded ``(d, bits)`` float32 Gaussian hyperplane matrix."""
    key = (d, bits, seed)
    planes = _PLANES_MEMO.get(key)
    if planes is None:
        rng = np.random.default_rng(np.random.PCG64(seed))
        planes = rng.standard_normal((d, bits), dtype=np.float32)
        while len(_PLANES_MEMO) >= _PLANES_MEMO_MAX:
            # concurrent sessions may race here; eviction is best-effort
            try:
                _PLANES_MEMO.pop(next(iter(_PLANES_MEMO)))
            except (StopIteration, KeyError):  # pragma: no cover
                break
        _PLANES_MEMO[key] = planes
    return planes


def _popcount(words: np.ndarray) -> np.ndarray:
    """Element-wise population count of a uint64 array (shape-preserving)."""
    if hasattr(np, "bitwise_count"):  # numpy >= 2.0
        return np.bitwise_count(words)
    # numpy 1.x fallback: expand each uint64 into its 8 bytes on a new
    # trailing axis, unpack to bits, and sum that axis away again
    expanded = words.reshape(words.shape + (1,)).view(np.uint8)
    return np.unpackbits(expanded, axis=-1).sum(axis=-1, dtype=np.int64)


def lsh_signature_bits(
    X1: sparse.spmatrix,
    X2: sparse.spmatrix,
    bands: int,
    rows: int,
    seed: int = 0,
) -> tuple:
    """Centered SimHash bit signatures for both sides.

    Both matrices are projected onto the *same* seeded Gaussian
    hyperplanes and thresholded at the joint mean projection (equivalent
    to mean-centering the profile vectors before hashing — essential on
    stylometric profiles, where every user shares the common language
    backbone and raw cosines bunch together).  The first ``bands × rows``
    bits feed the band buckets; the signature is padded to at least
    :data:`LSH_RANK_BITS` total bits so the hamming re-rank of colliding
    pairs stays sharp under coarse bucketing.  Deterministic across runs
    and processes: the hyperplanes come from a ``PCG64(seed)`` stream and
    every operation is pure NumPy.  Cost is ``O((nnz(X1) + nnz(X2)) ·
    bits)`` — linear in the number of users, never quadratic.
    """
    if bands < 1:
        raise ConfigError(f"lsh_bands must be >= 1, got {bands}")
    if not 1 <= rows <= MAX_LSH_ROWS:
        raise ConfigError(
            f"lsh_rows must be in [1, {MAX_LSH_ROWS}], got {rows}"
        )
    if bands * (1 << rows) > (1 << 64):
        # the composite bucket keys pack (band, key) into one uint64:
        # band offsets beyond 2^64 would wrap and alias distinct bands
        raise ConfigError(
            f"lsh_bands × 2^lsh_rows must fit in 64 bits, "
            f"got {bands} × 2^{rows}"
        )
    X1 = sparse.csr_matrix(X1, dtype=np.float32)
    X2 = sparse.csr_matrix(X2, dtype=np.float32)
    if X1.shape[1] != X2.shape[1]:
        raise ConfigError(
            f"profile widths differ: {X1.shape[1]} vs {X2.shape[1]}"
        )
    total_bits = max(LSH_RANK_BITS, bands * rows)
    # float32 throughout: sign bits only need the projection's sign, and
    # the narrower dtype halves the matmul bandwidth of the hot step
    planes = _hyperplanes(X1.shape[1], total_bits, seed)
    proj1 = np.asarray(X1 @ planes)
    proj2 = np.asarray(X2 @ planes)
    n = proj1.shape[0] + proj2.shape[0]
    center = (
        proj1.sum(axis=0, dtype=np.float64)
        + proj2.sum(axis=0, dtype=np.float64)
    ) / max(n, 1)
    center = center.astype(np.float32)
    return proj1 >= center, proj2 >= center


def _band_keys(bits: np.ndarray, bands: int, rows: int) -> np.ndarray:
    """``(n, bands)`` uint64 bucket keys from a signature bit matrix."""
    weights = np.uint64(1) << np.arange(rows, dtype=np.uint64)
    keys = np.empty((bits.shape[0], bands), dtype=np.uint64)
    for band in range(bands):
        block = bits[:, band * rows : (band + 1) * rows]
        keys[:, band] = block.astype(np.uint64) @ weights
    return keys


def _packed_signatures(bits: np.ndarray) -> np.ndarray:
    """Pack signature bits into ``(n, ceil(bits/64))`` uint64 words."""
    n, total = bits.shape
    words = int(np.ceil(total / 64)) or 1
    padded = np.zeros((n, words * 64), dtype=np.uint8)
    padded[:, :total] = bits
    weights = np.uint64(1) << np.arange(64, dtype=np.uint64)
    return padded.reshape(n, words, 64).astype(np.uint64) @ weights


def lsh_candidates(
    anonymized: UDAGraph,
    auxiliary: UDAGraph,
    bands: int = 48,
    rows: int = 6,
    keep_fraction: float = 0.2,
    seed: int = 0,
) -> CandidateMask:
    """Banded SimHash blocking: candidates = band-bucket collisions.

    Both sides are signed with the *same* seeded, mean-centered
    hyperplanes (:func:`lsh_signature_bits`); a pair is a candidate iff at
    least one band's bucket keys agree.  Colliding pairs are ranked by the
    hamming agreement of their *full* signatures — a sharp, cheap cosine
    proxy computed only at collisions — and each anonymized user keeps at
    most ``ceil(keep_fraction × n2)`` columns.  The whole computation is
    signatures (linear) + sort/searchsorted per band + the collisions
    actually emitted — no ``n1 × n2`` array or loop exists anywhere, so
    cost and memory scale sub-quadratically whenever the buckets do their
    job.  ``meta`` records ``lsh_collision_touches`` (band-level
    emissions, the true generation cost) and ``lsh_distinct_pairs``
    (unique pairs before the per-row cap).
    """
    if not 0.0 < keep_fraction <= 1.0:
        raise ConfigError(
            f"keep_fraction must be in (0, 1], got {keep_fraction}"
        )
    bits1, bits2 = lsh_signature_bits(
        _profile_matrix(anonymized),
        _profile_matrix(auxiliary),
        bands,
        rows,
        seed=seed,
    )
    keys1 = _band_keys(bits1, bands, rows)
    keys2 = _band_keys(bits2, bands, rows)
    n1, n2 = keys1.shape[0], keys2.shape[0]

    # One composite sort serves every band: keys of band b live in the
    # disjoint uint64 range [b·2^rows, (b+1)·2^rows), so a single
    # argsort + searchsorted over the band-major flattening replaces the
    # per-band loop entirely.
    band_offsets = (
        np.arange(bands, dtype=np.uint64) << np.uint64(rows)
    )[:, None]
    comp1 = (keys1.T + band_offsets).ravel()  # (bands · n1,) band-major
    comp2 = (keys2.T + band_offsets).ravel()  # (bands · n2,)
    order = np.argsort(comp2, kind="stable")
    sorted_keys = comp2[order]
    lo = np.searchsorted(sorted_keys, comp1, side="left")
    hi = np.searchsorted(sorted_keys, comp1, side="right")
    counts = hi - lo
    touches = int(counts.sum())

    if not touches:
        matrix = sparse.csr_matrix((n1, n2), dtype=bool)
        return CandidateMask(
            matrix, meta={"lsh_collision_touches": 0, "lsh_distinct_pairs": 0}
        )
    # vectorized multi-slice gather: for every (band, anonymized-row)
    # query, the positions [lo, hi) of its bucket, without a Python loop
    offsets = np.concatenate(([0], np.cumsum(counts)))
    within = np.arange(touches, dtype=np.int64) - np.repeat(
        offsets[:-1], counts
    )
    flat_pos = order[np.repeat(lo, counts) + within]
    pair_cols = flat_pos % n2  # order indexes the band-major flattening
    pair_rows = np.repeat(
        np.tile(np.arange(n1, dtype=np.int64), bands), counts
    )
    # dedup across bands: encoded pair ids sort row-major, so one sort +
    # neighbour-diff yields the distinct pairs in CSR order (cost
    # ∝ touches · log touches, never n1 × n2)
    encoded = pair_rows * np.int64(n2) + pair_cols
    encoded.sort(kind="quicksort")
    first = np.empty(len(encoded), dtype=bool)
    first[0] = True
    np.not_equal(encoded[1:], encoded[:-1], out=first[1:])
    encoded = encoded[first]
    distinct = len(encoded)
    flat_rows = encoded // np.int64(n2)
    flat_cols = encoded % np.int64(n2)
    # hamming agreement of the full signatures at the distinct pairs only:
    # total bits minus popcount of the XOR-ed packed signature words
    packed1 = _packed_signatures(bits1)
    packed2 = _packed_signatures(bits2)
    disagreements = _popcount(
        packed1[flat_rows] ^ packed2[flat_cols]
    ).sum(axis=1)
    agreement = bits1.shape[1] - disagreements.astype(np.int64)

    per_row = np.bincount(flat_rows, minlength=n1).astype(np.int64)
    row_starts = np.zeros(n1 + 1, dtype=np.int64)
    np.cumsum(per_row, out=row_starts[1:])
    keep = max(1, int(np.ceil(keep_fraction * n2)))
    row_cols: list = []
    for i in range(n1):
        lo_i, hi_i = row_starts[i], row_starts[i + 1]
        cols = flat_cols[lo_i:hi_i]
        if len(cols) > keep:
            top = np.argpartition(-agreement[lo_i:hi_i], keep - 1)[:keep]
            cols = np.sort(cols[top])
        row_cols.append(cols)
    counts_per_row = np.array([len(c) for c in row_cols], dtype=np.int64)
    indptr = np.zeros(n1 + 1, dtype=np.int64)
    np.cumsum(counts_per_row, out=indptr[1:])
    indices = (
        np.concatenate(row_cols) if indptr[-1] else np.empty(0, dtype=np.int64)
    )
    matrix = sparse.csr_matrix(
        (np.ones(indptr[-1], dtype=bool), indices, indptr), shape=(n1, n2)
    )
    return CandidateMask(
        matrix,
        meta={
            "lsh_collision_touches": touches,
            "lsh_distinct_pairs": distinct,
        },
    )


#: Width of the float32 projection the NSW build and beam exploration
#: rank pairs in.  Exact cosines are recomputed for every similarity the
#: index *returns*; the projection only decides which pairs are worth
#: exact scoring, so its width trades graph quality against scoring
#: bandwidth, never correctness of the reported similarities.
NSW_EXPLORE_DIMS = 128

#: Banded bucketing over the projection's sign bits — the LSH collision
#: stream that seeds build edges and query beams.
NSW_SEED_BANDS = 16
NSW_SEED_ROWS = 8

#: Within every band bucket each node links to the next ``window``
#: bucket-mates (a sliding window, so a giant bucket can never produce a
#: quadratic edge blow-up).
NSW_SEED_WINDOW = 4

#: Neighbour-of-neighbour refinement sweeps after seeding (NN-descent
#: style: every node proposes its neighbours' neighbours as edges).
NSW_REFINE_ROUNDS = 2

#: Beam entries expanded per query per search round.  Small values mimic
#: sequential best-first order (fewer wasted expansions); large values
#: cut round count.
_NSW_EXPAND_PER_ROUND = 8

#: LSH seeds kept per query (plus the fixed entry point).
_NSW_SEED_CAP = 16

#: Pair chunk of the projected-similarity gathers and query chunk of the
#: exact rescore — bound peak memory of build and batched search.
_NSW_PAIR_CHUNK = 8192
_NSW_QUERY_CHUNK = 256


def _concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated ``[starts[i], starts[i] + counts[i])`` index ranges."""
    counts = counts.astype(np.int64, copy=False)
    total = int(counts.sum())
    if not total:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts)
    offsets = np.repeat(ends - counts, counts)
    return (
        np.arange(total, dtype=np.int64)
        - offsets
        + np.repeat(starts.astype(np.int64, copy=False), counts)
    )


def _pair_sims(
    A: np.ndarray, B: np.ndarray, left: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """Dot products of the row pairs ``(A[left[i]], B[right[i]])``."""
    out = np.empty(len(left), dtype=np.float32)
    for start in range(0, len(left), _NSW_PAIR_CHUNK):
        stop = start + _NSW_PAIR_CHUNK
        out[start:stop] = np.einsum(
            "ij,ij->i", A[left[start:stop]], B[right[start:stop]]
        )
    return out


def _top_per_group(
    groups: np.ndarray, items: np.ndarray, scores: np.ndarray, k: int
) -> tuple:
    """Per-group top-``k`` triples by ``(-score, item)``.

    Output is sorted by ``(group, -score, item)``; the item id is the
    deterministic tie-break for equal scores.
    """
    order = np.lexsort((items, -scores, groups))
    g, it, sc = groups[order], items[order], scores[order]
    if not len(g):
        return g, it, sc
    new = np.empty(len(g), dtype=bool)
    new[0] = True
    np.not_equal(g[1:], g[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    rank = np.arange(len(g), dtype=np.int64) - starts[np.cumsum(new) - 1]
    keep = rank < k
    return g[keep], it[keep], sc[keep]


class NSWIndex:
    """A navigable-small-world greedy-search index over profile vectors.

    NumPy-only approximation of HNSW's layer 0, built and queried in
    vectorized batches.  Construction seeds candidate edges from an LSH
    collision stream over the rows' own SimHash buckets plus a ring over
    the seeded insertion order (the connectivity backbone), then runs
    NN-descent-style refinement sweeps; per-node edge selection keeps the
    ``m`` best by similarity in a low-dimensional float32 projection
    space, symmetrized under a ``2 m`` degree cap (the ring is exempt —
    it guarantees a beam of width ``>= n`` reaches every node).  Queries
    run a round-based batched beam of width ``ef`` seeded from the entry
    point and the query's own LSH bucket-mates; the surviving beam is
    rescored with exact float64 cosines, so returned similarities are
    exact even though exploration is approximate.  Everything — insertion
    order, tie-breaks (by node id), float kernels — is deterministic
    across runs and processes.
    """

    def __init__(
        self,
        profiles: sparse.spmatrix,
        m: int = 12,
        ef: int = 48,
        seed: int = 0,
    ) -> None:
        if m < 1:
            raise ConfigError(f"ann_m must be >= 1, got {m}")
        if ef < 1:
            raise ConfigError(f"ann_ef must be >= 1, got {ef}")
        self.m = m
        self.ef = ef
        X = sparse.csr_matrix(profiles, dtype=np.float64)
        norms = np.sqrt(np.asarray(X.multiply(X).sum(axis=1)).ravel())
        scale = np.divide(
            1.0, norms, out=np.zeros_like(norms), where=norms > 0
        )
        self.X = sparse.csr_matrix(X.multiply(scale[:, None]))
        self.X.sort_indices()
        self.n = X.shape[0]
        rng = np.random.default_rng(np.random.PCG64(seed))
        self._order = rng.permutation(self.n)
        self._entry = int(self._order[0]) if self.n else 0
        seed_bits = NSW_SEED_BANDS * NSW_SEED_ROWS
        self._planes = _hyperplanes(
            X.shape[1], max(NSW_EXPLORE_DIMS, seed_bits), seed
        )
        self._P = self._project(self.X)
        self._PE = self._explore(self._P)
        # the bucket-bit threshold is the index-side mean projection
        # (mean-centering, as in lsh_signature_bits) and stays frozen so
        # queries hash consistently
        self._center = (
            self._P[:, :seed_bits].mean(axis=0)
            if self.n
            else np.zeros(seed_bits, dtype=np.float32)
        )
        self._seed_keys = _band_keys(
            self._P[:, :seed_bits] >= self._center,
            NSW_SEED_BANDS,
            NSW_SEED_ROWS,
        )
        self._build()

    # --- shared kernels -------------------------------------------------

    def _project(self, M: sparse.spmatrix) -> np.ndarray:
        """Rows of ``M`` in the float32 projection space."""
        return np.asarray(sparse.csr_matrix(M, dtype=np.float32) @ self._planes)

    def _explore(self, P: np.ndarray) -> np.ndarray:
        """The contiguous exploration slice of a projection block."""
        return np.ascontiguousarray(P[:, :NSW_EXPLORE_DIMS])

    def _exact_sims(
        self, Q: sparse.csr_matrix, pair_q: np.ndarray, pair_v: np.ndarray
    ) -> np.ndarray:
        """Exact float64 cosines of the ``(query, node)`` pairs.

        ``pair_q`` must be sorted (pairs grouped by query) so the dense
        query buffer materializes one bounded chunk at a time.  Per-pair
        sums run over the node row's nonzeros via ``np.bincount`` —
        ``np.add.reduceat`` is unusable here, it mishandles empty
        segments — accumulating in the same index order as a CSR matvec.
        """
        out = np.empty(len(pair_q), dtype=np.float64)
        indptr, cols, data = self.X.indptr, self.X.indices, self.X.data
        for q0 in range(0, Q.shape[0], _NSW_QUERY_CHUNK):
            lo = int(np.searchsorted(pair_q, q0))
            hi = int(np.searchsorted(pair_q, q0 + _NSW_QUERY_CHUNK))
            if lo == hi:
                continue
            Qd = Q[q0 : q0 + _NSW_QUERY_CHUNK].toarray()
            v = pair_v[lo:hi]
            cnt = (indptr[v + 1] - indptr[v]).astype(np.int64)
            take = _concat_ranges(indptr[v], cnt)
            pid = np.repeat(np.arange(hi - lo, dtype=np.int64), cnt)
            contrib = data[take] * Qd[pair_q[lo:hi][pid] - q0, cols[take]]
            out[lo:hi] = np.bincount(
                pid, weights=contrib, minlength=hi - lo
            )
        return out

    # --- construction ---------------------------------------------------

    def _bucket_pairs(self) -> tuple:
        """The index's own LSH collision stream as directed seed pairs."""
        us: list = []
        vs: list = []
        for band in range(NSW_SEED_BANDS):
            order = np.argsort(self._seed_keys[:, band], kind="stable")
            sk = self._seed_keys[order, band]
            for w in range(1, NSW_SEED_WINDOW + 1):
                same = sk[w:] == sk[:-w]
                us.append(order[:-w][same])
                vs.append(order[w:][same])
        u = np.concatenate(us).astype(np.int64, copy=False)
        v = np.concatenate(vs).astype(np.int64, copy=False)
        return u, v

    def _select_edges(self, u: np.ndarray, v: np.ndarray) -> tuple:
        """Dedupe directed pairs, keep each node's top-``m`` by projected
        similarity (grouped by source node, ties on the neighbour id)."""
        enc = u * np.int64(self.n) + v
        enc = np.unique(enc[u != v])
        du, dv = enc // self.n, enc % self.n
        PE = self._PE
        return _top_per_group(du, dv, _pair_sims(PE, PE, du, dv), self.m)[:2]

    def _two_hop(self, out_u: np.ndarray, out_v: np.ndarray) -> tuple:
        """NN-descent proposals: each node meets its neighbours' neighbours."""
        counts = np.bincount(out_u, minlength=self.n).astype(np.int64)
        indptr = np.concatenate(([0], np.cumsum(counts)))
        c2 = counts[out_v]
        pu = np.repeat(out_u, c2)
        pv = out_v[_concat_ranges(indptr[out_v], c2)]
        return pu, pv

    def _build(self) -> None:
        """Store the graph as CSR neighbour ids (``_adj_indices``) and the
        ``-1``-padded neighbour table the batched search gathers from."""
        if self.n < 2:
            self._adj_indices = np.empty(0, dtype=np.int64)
            self._nbr_pad = np.full((self.n, 1), -1, dtype=np.int64)
            return
        order = self._order.astype(np.int64)
        ring_u = np.concatenate([order[:-1], order[1:]])
        ring_v = np.concatenate([order[1:], order[:-1]])
        su, sv = self._bucket_pairs()
        out_u, out_v = self._select_edges(
            np.concatenate([ring_u, su]), np.concatenate([ring_v, sv])
        )
        for _ in range(NSW_REFINE_ROUNDS):
            pu, pv = self._two_hop(out_u, out_v)
            out_u, out_v = self._select_edges(
                np.concatenate([out_u, pu, ring_u]),
                np.concatenate([out_v, pv, ring_v]),
            )
        # symmetrize under the 2m degree cap, then OR the ring back in
        # uncapped: it is the connectivity backbone that makes a beam of
        # width >= n exhaustive, so it is exempt from degree pruning
        cu = np.concatenate([out_u, out_v])
        cv = np.concatenate([out_v, out_u])
        enc = np.unique(cu * np.int64(self.n) + cv)
        du, dv = enc // self.n, enc % self.n
        au, av, _ = _top_per_group(
            du, dv, _pair_sims(self._PE, self._PE, du, dv), 2 * self.m
        )
        enc = np.unique(
            np.concatenate([au, ring_u]) * np.int64(self.n)
            + np.concatenate([av, ring_v])
        )
        fu, self._adj_indices = enc // self.n, enc % self.n
        # pad to a rectangle for the batched expansion gather: one 2-D
        # take beats per-node variable-length range arithmetic, and the
        # width is bounded by the degree cap (+ ring exemptions); the ring
        # gives every node at least one neighbour, so the width is >= 1
        counts = np.bincount(fu, minlength=self.n)
        width = int(counts.max())
        self._nbr_pad = np.full((self.n, width), -1, dtype=np.int64)
        flat = _concat_ranges(
            np.arange(self.n, dtype=np.int64) * width, counts
        )
        self._nbr_pad.ravel()[flat] = self._adj_indices

    # --- search ---------------------------------------------------------

    def _query_seeds(self, Qp: np.ndarray, Qe: np.ndarray) -> np.ndarray:
        """Encoded ``(query, node)`` beam seeds: the fixed entry point
        plus the top LSH bucket-mates of each query."""
        nq = Qp.shape[0]
        eq = np.arange(nq, dtype=np.int64)
        enc = eq * np.int64(self.n) + self._entry
        if self.n <= 1:
            return enc
        seed_bits = NSW_SEED_BANDS * NSW_SEED_ROWS
        keys_q = _band_keys(
            Qp[:, :seed_bits] >= self._center,
            NSW_SEED_BANDS,
            NSW_SEED_ROWS,
        )
        band_offsets = (
            np.arange(NSW_SEED_BANDS, dtype=np.uint64)
            << np.uint64(NSW_SEED_ROWS)
        )[:, None]
        comp_q = (keys_q.T + band_offsets).ravel()
        comp_x = (self._seed_keys.T + band_offsets).ravel()
        x_order = np.argsort(comp_x, kind="stable")
        x_sorted = comp_x[x_order]
        lo = np.searchsorted(x_sorted, comp_q, side="left")
        hi = np.searchsorted(x_sorted, comp_q, side="right")
        counts = hi - lo
        touches = int(counts.sum())
        if not touches:
            return enc
        offsets = np.concatenate(([0], np.cumsum(counts)))
        within = np.arange(touches, dtype=np.int64) - np.repeat(
            offsets[:-1], counts
        )
        sv = x_order[np.repeat(lo, counts) + within] % self.n
        sq = np.repeat(np.tile(eq, NSW_SEED_BANDS), counts)
        senc = np.unique(sq * np.int64(self.n) + sv)
        cq, cv = senc // self.n, senc % self.n
        ku, kv, _ = _top_per_group(
            cq, cv, _pair_sims(Qe, self._PE, cq, cv), _NSW_SEED_CAP
        )
        return np.unique(
            np.concatenate([enc, ku * np.int64(self.n) + kv])
        )

    def search_batch(
        self,
        queries: sparse.spmatrix,
        ef: "int | None" = None,
        rescore: bool = True,
    ) -> list:
        """Beam-search every query row at once: round-based batched NSW.

        ``queries`` rows must be L2-normalized (zero rows are allowed and
        simply walk the graph deterministically).  Each round keeps the
        per-query top-``ef`` beam by projected similarity, expands the
        best few unexpanded beam nodes of every query through the padded
        adjacency, and scores only never-visited ``(query, node)`` pairs.
        The surviving beams are rescored with exact float64 cosines
        unless ``rescore=False`` — callers that consume the beam as a
        *set* (every entry, order ignored) can skip that pass and take
        the float32 projection estimates instead.  Returns one
        ``(nodes, sims)`` pair per query, ordered by ``(-sim, node)``,
        at most ``ef`` entries each.
        """
        Q = sparse.csr_matrix(queries, dtype=np.float64)
        nq = Q.shape[0]
        ef = int(ef or self.ef)
        if not self.n or not nq:
            empty = (np.empty(0, np.int64), np.empty(0, np.float64))
            return [empty] * nq
        n = np.int64(self.n)
        Qp = self._project(Q)
        Qe = self._explore(Qp)
        visited = self._query_seeds(Qp, Qe)  # unique-encoded, sorted
        bq, bv = visited // n, visited % n
        bs = _pair_sims(Qe, self._PE, bq, bv)
        expanded = np.zeros(len(bq), dtype=bool)
        while True:
            # per-query top-ef beam by (projected sim, node id)
            order = np.lexsort((bv, -bs, bq))
            bq, bv, bs = bq[order], bv[order], bs[order]
            expanded = expanded[order]
            new = np.empty(len(bq), dtype=bool)
            new[0] = True
            np.not_equal(bq[1:], bq[:-1], out=new[1:])
            starts = np.flatnonzero(new)
            rank = (
                np.arange(len(bq), dtype=np.int64)
                - starts[np.cumsum(new) - 1]
            )
            keep = rank < ef
            bq, bv, bs = bq[keep], bv[keep], bs[keep]
            expanded = expanded[keep]
            open_idx = np.flatnonzero(~expanded)
            if not len(open_idx):
                break
            # expand the best few unexpanded beam entries of each query
            # (beam order is already (query, -sim, id))
            oq = bq[open_idx]
            onew = np.empty(len(oq), dtype=bool)
            onew[0] = True
            np.not_equal(oq[1:], oq[:-1], out=onew[1:])
            ostart = np.flatnonzero(onew)
            orank = (
                np.arange(len(oq), dtype=np.int64)
                - ostart[np.cumsum(onew) - 1]
            )
            sel = open_idx[orank < _NSW_EXPAND_PER_ROUND]
            expanded[sel] = True
            fq, fv = bq[sel], bv[sel]
            cand = self._nbr_pad[fv]  # (frontier, width), -1 padded
            enc = (fq[:, None] * n + cand)[cand >= 0]
            enc.sort(kind="quicksort")
            if len(enc):
                first = np.empty(len(enc), dtype=bool)
                first[0] = True
                np.not_equal(enc[1:], enc[:-1], out=first[1:])
                enc = enc[first]
            pos = np.minimum(
                np.searchsorted(visited, enc), len(visited) - 1
            )
            enc = enc[visited[pos] != enc]
            if len(enc):
                visited = np.sort(np.concatenate([visited, enc]))
                aq, av = enc // n, enc % n
                bq = np.concatenate([bq, aq])
                bv = np.concatenate([bv, av])
                bs = np.concatenate([bs, _pair_sims(Qe, self._PE, aq, av)])
                expanded = np.concatenate(
                    [expanded, np.zeros(len(enc), dtype=bool)]
                )
        # exact rescore of the surviving beams (grouped by query already)
        sims = (
            self._exact_sims(Q, bq, bv)
            if rescore
            else bs.astype(np.float64)
        )
        order = np.lexsort((bv, -sims, bq))
        bq, bv, sims = bq[order], bv[order], sims[order]
        bounds = np.searchsorted(bq, np.arange(nq + 1, dtype=np.int64))
        return [
            (bv[bounds[i] : bounds[i + 1]], sims[bounds[i] : bounds[i + 1]])
            for i in range(nq)
        ]


def ann_graph_candidates(
    anonymized: UDAGraph,
    auxiliary: UDAGraph,
    m: int = 12,
    ef: int = 48,
    keep_fraction: float = 0.2,
    seed: int = 0,
) -> CandidateMask:
    """NSW greedy-search blocking: per-row nearest profiles as candidates.

    An :class:`NSWIndex` is built over the auxiliary profile vectors and
    every anonymized row is beam-searched in one vectorized batch
    (:meth:`NSWIndex.search_batch`); each row keeps its ``min(ef,
    ceil(keep_fraction × n2))`` best-found neighbours.  Build and query
    cost scale with ``(n1 + n2) · ef``-ish graph walks — never ``n1 × n2``
    — making this the high-recall sub-quadratic alternative when LSH
    bucketing is too coarse for the corpus.  ``meta`` records the index's
    edge count.
    """
    if not 0.0 < keep_fraction <= 1.0:
        raise ConfigError(
            f"keep_fraction must be in (0, 1], got {keep_fraction}"
        )
    index = NSWIndex(_profile_matrix(auxiliary), m=m, ef=ef, seed=seed)
    X1 = sparse.csr_matrix(_profile_matrix(anonymized), dtype=np.float64)
    norms = np.sqrt(np.asarray(X1.multiply(X1).sum(axis=1)).ravel())
    scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    X1 = sparse.csr_matrix(X1.multiply(scale[:, None]), shape=X1.shape)
    n1, n2 = X1.shape[0], index.n
    keep = min(ef, max(1, int(np.ceil(keep_fraction * n2))))

    # when the keep cap cannot truncate the beam, the mask is the beam
    # *set* and the exact rescore pass would order entries only to have
    # that order erased by the sort below — skip it
    beams = index.search_batch(X1, ef=ef, rescore=keep < ef)
    row_cols = [np.sort(cols[:keep]) for cols, _ in beams]
    counts_per_row = np.array([len(c) for c in row_cols], dtype=np.int64)
    indptr = np.zeros(n1 + 1, dtype=np.int64)
    np.cumsum(counts_per_row, out=indptr[1:])
    indices = (
        np.concatenate(row_cols) if indptr[-1] else np.empty(0, dtype=np.int64)
    )
    matrix = sparse.csr_matrix(
        (np.ones(indptr[-1], dtype=bool), indices, indptr), shape=(n1, n2)
    )
    return CandidateMask(
        matrix, meta={"ann_graph_edges": len(index._adj_indices)}
    )


def build_candidates(
    anonymized: UDAGraph,
    auxiliary: UDAGraph,
    config: "DeHealthConfig | None" = None,
    **knobs,
) -> "CandidateMask | None":
    """The candidate mask of a config's blocking policy (``None`` for
    ``"none"``).

    The policy and its parameters (``blocking`` and the ``blocking_*``
    knobs) come from ``config``, a
    :class:`~repro.core.config.DeHealthConfig`, overridden by any given as
    keywords: ``build_candidates(g1, g2, blocking="lsh",
    blocking_keep=0.3)``.  ``blocking`` may be a single policy name or a
    ``"+"``-joined composite (``"lsh+degree_band"``): composite masks are
    the element-wise OR of their parts, the recall-safe composition.
    """
    c = replace(config or DeHealthConfig(), **knobs)
    atoms = parse_blocking(c.blocking)
    if atoms == ("none",):
        return None

    def build_atom(atom: str) -> CandidateMask:
        if atom == "degree_band":
            return degree_band_candidates(
                anonymized, auxiliary, band_width=c.blocking_band_width
            )
        if atom == "attr_index":
            return attr_index_candidates(
                anonymized,
                auxiliary,
                min_shared=c.blocking_min_shared,
                keep_fraction=c.blocking_keep,
            )
        if atom == "lsh":
            return lsh_candidates(
                anonymized,
                auxiliary,
                bands=c.blocking_lsh_bands,
                rows=c.blocking_lsh_rows,
                keep_fraction=c.blocking_keep,
                seed=c.blocking_seed,
            )
        if atom == "ann_graph":
            return ann_graph_candidates(
                anonymized,
                auxiliary,
                m=c.blocking_ann_m,
                ef=c.blocking_ann_ef,
                keep_fraction=c.blocking_keep,
                seed=c.blocking_seed,
            )
        raise ConfigError(
            f"blocking policy must be one of {BLOCKING_CHOICES}, got {c.blocking!r}"
        )

    mask = build_atom(atoms[0])
    for atom in atoms[1:]:
        mask = mask | build_atom(atom)
    return mask
