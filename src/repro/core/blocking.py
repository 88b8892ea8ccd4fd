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


# --- shared plumbing of the atoms ---------------------------------------


def _keep_count(keep_fraction: float, n2: int) -> int:
    """Columns a row keeps at most: ``max(1, ceil(keep_fraction × n2))``."""
    if not 0.0 < keep_fraction <= 1.0:
        raise ConfigError(
            f"keep_fraction must be in (0, 1], got {keep_fraction}"
        )
    return max(1, int(np.ceil(keep_fraction * n2)))


def _best_columns(cols: np.ndarray, scores: np.ndarray, keep: int) -> np.ndarray:
    """The ``keep`` columns of highest score (all of them when there are
    no more), sorted.  Which of the columns tied at the cut survive is
    ``np.argpartition``'s choice, so it follows the arrays' positional
    order: callers must pass their columns in a fixed order."""
    if len(cols) > keep:
        cols = cols[np.argpartition(-scores, keep - 1)[:keep]]
    return np.sort(cols)


def _mask_from_rows(
    row_cols: list, n2: int, meta: "dict | None" = None
) -> CandidateMask:
    """The mask whose row ``i`` holds the columns ``row_cols[i]``."""
    indptr = np.zeros(len(row_cols) + 1, dtype=np.int64)
    np.cumsum([len(c) for c in row_cols], out=indptr[1:])
    indices = (
        np.concatenate(row_cols) if indptr[-1] else np.empty(0, dtype=np.int64)
    )
    matrix = sparse.csr_matrix(
        (np.ones(indptr[-1], dtype=bool), indices, indptr),
        shape=(len(row_cols), n2),
    )
    return CandidateMask(matrix, meta)


def _unique(values: np.ndarray) -> np.ndarray:
    """The distinct values, sorted: one sort, then every entry that differs
    from its predecessor.

    Not ``np.unique``: on numpy 2.4 (2-vCPU VM) it took 27–30 ms on the
    305–310 thousand ``lsh`` collision codes of one 400-user split,
    against 4.2–4.5 ms for this sort and compare, and the same values.
    """
    values = np.sort(values)
    first = np.empty(len(values), dtype=bool)
    first[:1] = True
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return values[first]


def _rank_in_group(groups: np.ndarray) -> np.ndarray:
    """Each entry's position in its run of equal values of the sorted
    ``groups``."""
    new = np.empty(len(groups), dtype=bool)
    new[:1] = True
    np.not_equal(groups[1:], groups[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    return np.arange(len(groups), dtype=np.int64) - starts[np.cumsum(new) - 1]


def _unit_rows(M: sparse.spmatrix) -> sparse.csr_matrix:
    """``M`` as float64 CSR with sorted indices, each row scaled to unit
    L2 norm (zero rows stay zero)."""
    X = sparse.csr_matrix(M, dtype=np.float64)
    norms = np.sqrt(np.asarray(X.multiply(X).sum(axis=1)).ravel())
    scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    X = sparse.csr_matrix(X.multiply(scale[:, None]), shape=X.shape)
    X.sort_indices()
    return X


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


def _bucket_collisions(
    keys_q: np.ndarray, keys_x: np.ndarray, rows: int
) -> tuple:
    """``(q, x)`` row pairs whose ``(n, bands)`` band keys (``rows`` bits
    each) agree, once per agreeing band: band-major, query rows ascending
    within a band.

    One composite sort serves every band: keys of band b live in the
    disjoint uint64 range [b·2^rows, (b+1)·2^rows), so a single argsort +
    searchsorted over the band-major flattening replaces a per-band loop,
    and the bucket of every (band, query) is gathered without one.
    """
    bands = keys_q.shape[1]
    offsets = (np.arange(bands, dtype=np.uint64) << np.uint64(rows))[:, None]
    comp_q = (keys_q.T + offsets).ravel()  # (bands · n_q,) band-major
    comp_x = (keys_x.T + offsets).ravel()  # (bands · n_x,)
    order = np.argsort(comp_x, kind="stable")
    sorted_x = comp_x[order]
    lo = np.searchsorted(sorted_x, comp_q, side="left")
    counts = np.searchsorted(sorted_x, comp_q, side="right") - lo
    q = np.repeat(
        np.tile(np.arange(len(keys_q), dtype=np.int64), bands), counts
    )
    # order indexes the band-major flattening
    return q, order[_concat_ranges(lo, counts)] % len(keys_x)


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
    return _mask_from_rows([order[l:h] for l, h in zip(lo, hi)], len(b2))


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
    keep = _keep_count(keep_fraction, auxiliary.n_users)
    B1 = (anonymized.attr_weights > 0).astype(np.float64).tocsr()
    B2 = (auxiliary.attr_weights > 0).astype(np.float64).tocsr()
    n1, n2 = B1.shape[0], B2.shape[0]
    sizes1 = np.asarray(B1.sum(axis=1)).ravel()
    sizes2 = np.asarray(B2.sum(axis=1)).ravel()
    B2T = B2.T.tocsc()

    row_cols: list = []  # one sorted column array per anonymized row
    for start in range(0, n1, _ATTR_CHUNK_ROWS):
        stop = min(start + _ATTR_CHUNK_ROWS, n1)
        inter = (B1[start:stop] @ B2T).tocsr()  # shared-slot counts, sparse
        rows = np.repeat(np.arange(start, stop), np.diff(inter.indptr))
        eligible = inter.data >= min_shared
        rows = rows[eligible]
        cols = inter.indices[eligible]
        counts = inter.data[eligible]
        union = sizes1[rows] + sizes2[cols] - counts
        jaccard = np.divide(
            counts, union, out=np.ones_like(counts), where=union > 0
        )
        bounds = np.searchsorted(rows, np.arange(start, stop + 1))
        row_cols += [
            _best_columns(cols[lo:hi], jaccard[lo:hi], keep)
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
    return _mask_from_rows(row_cols, n2)


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
    keep = _keep_count(keep_fraction, auxiliary.n_users)
    bits1, bits2 = lsh_signature_bits(
        _profile_matrix(anonymized),
        _profile_matrix(auxiliary),
        bands,
        rows,
        seed=seed,
    )
    n1, n2 = bits1.shape[0], bits2.shape[0]
    pair_rows, pair_cols = _bucket_collisions(
        _band_keys(bits1, bands, rows), _band_keys(bits2, bands, rows), rows
    )
    # dedup across bands: encoded pair ids sort row-major, so the distinct
    # pairs come out in CSR order (cost ∝ touches · log touches, never
    # n1 × n2)
    encoded = _unique(pair_rows * np.int64(n2) + pair_cols)
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

    bounds = np.searchsorted(flat_rows, np.arange(n1 + 1))
    row_cols = [
        _best_columns(flat_cols[lo:hi], agreement[lo:hi], keep)
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]
    return _mask_from_rows(
        row_cols,
        n2,
        meta={
            "lsh_collision_touches": len(pair_rows),
            "lsh_distinct_pairs": len(encoded),
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
) -> np.ndarray:
    """Positions of each group's top-``k`` entries by ``(-score, item)``.

    The positions come in ``(group, -score, item)`` order; the item id is
    the deterministic tie-break for equal scores.
    """
    order = np.lexsort((items, -scores, groups))
    return order[_rank_in_group(groups[order]) < k]


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
        self.X = _unit_rows(profiles)
        self.n = self.X.shape[0]
        rng = np.random.default_rng(np.random.PCG64(seed))
        self._order = rng.permutation(self.n)
        self._entry = int(self._order[0]) if self.n else 0
        seed_bits = NSW_SEED_BANDS * NSW_SEED_ROWS
        self._planes = _hyperplanes(
            self.X.shape[1], max(NSW_EXPLORE_DIMS, seed_bits), seed
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
        enc = _unique((u * np.int64(self.n) + v)[u != v])
        du, dv = enc // self.n, enc % self.n
        PE = self._PE
        top = _top_per_group(du, dv, _pair_sims(PE, PE, du, dv), self.m)
        return du[top], dv[top]

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
        enc = _unique(cu * np.int64(self.n) + cv)
        du, dv = enc // self.n, enc % self.n
        top = _top_per_group(
            du, dv, _pair_sims(self._PE, self._PE, du, dv), 2 * self.m
        )
        enc = _unique(
            np.concatenate([du[top], ring_u]) * np.int64(self.n)
            + np.concatenate([dv[top], ring_v])
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
        n = np.int64(self.n)
        enc = np.arange(Qp.shape[0], dtype=np.int64) * n + self._entry
        seed_bits = NSW_SEED_BANDS * NSW_SEED_ROWS
        keys_q = _band_keys(
            Qp[:, :seed_bits] >= self._center,
            NSW_SEED_BANDS,
            NSW_SEED_ROWS,
        )
        sq, sv = _bucket_collisions(keys_q, self._seed_keys, NSW_SEED_ROWS)
        senc = _unique(sq * n + sv)
        cq, cv = senc // n, senc % n
        top = _top_per_group(
            cq, cv, _pair_sims(Qe, self._PE, cq, cv), _NSW_SEED_CAP
        )
        return _unique(np.concatenate([enc, senc[top]]))

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
            top = _top_per_group(bq, bv, bs, ef)
            bq, bv, bs, expanded = bq[top], bv[top], bs[top], expanded[top]
            open_idx = np.flatnonzero(~expanded)
            if not len(open_idx):
                break
            # expand the best few unexpanded beam entries of each query
            # (beam order is already (query, -sim, id))
            rank = _rank_in_group(bq[open_idx])
            sel = open_idx[rank < _NSW_EXPAND_PER_ROUND]
            expanded[sel] = True
            fq, fv = bq[sel], bv[sel]
            cand = self._nbr_pad[fv]  # (frontier, width), -1 padded
            enc = _unique((fq[:, None] * n + cand)[cand >= 0])
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
    keep = min(ef, _keep_count(keep_fraction, auxiliary.n_users))
    index = NSWIndex(_profile_matrix(auxiliary), m=m, ef=ef, seed=seed)
    # when the keep cap cannot truncate the beam, the mask is the beam
    # *set* and the exact rescore pass would order entries only to have
    # that order erased by the sort below — skip it
    beams = index.search_batch(
        _unit_rows(_profile_matrix(anonymized)), ef=ef, rescore=keep < ef
    )
    return _mask_from_rows(
        [np.sort(cols[:keep]) for cols, _ in beams],
        index.n,
        meta={"ann_graph_edges": len(index._adj_indices)},
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
