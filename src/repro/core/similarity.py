"""Structural similarity between anonymized and auxiliary users (Section III-B).

``s_uv = c1·s^d + c2·s^s + c3·s^a`` with

* ``s^d`` — degree similarity: min/max ratios of degree and weighted degree
  plus cosine of the (zero-padded) NCS vectors;
* ``s^s`` — distance similarity: cosine of landmark-closeness vectors,
  unweighted plus weighted;
* ``s^a`` — attribute similarity: Jaccard of A(u)/A(v) plus weighted Jaccard
  of WA(u)/WA(v).

The three components can be evaluated two ways:

* **dense** — full (n1 × n2) matrices with fully vectorised NumPy/SciPy
  code; the weighted Jaccard uses a level-set decomposition
  (Σ min(a,b) = Σ_t |{a ≥ t} ∩ {b ≥ t}| for integer weights) so it reduces
  to a short series of sparse boolean matmuls.  This is the exact path and
  the default (``blocking="none"``).
* **sparse / pair-level** — when a blocking policy
  (:mod:`repro.core.blocking`) prunes the pair space, the result is a
  :class:`~repro.core.blocking.SparseSimilarity` over the surviving
  candidate pairs.  ``s^d`` and ``s^s`` are evaluated only at those pairs
  (pairwise min/max ratios, chunked cosine over COO index pairs).
  ``s^a`` is sampled at them from the dense attribute block, which is
  built once per split and shared by the dense path and every policy.
  That costs one ``n1 × n2`` float64 array per split and gives the same
  bits as a per-pair evaluation.  A per-pair evaluation can be cheaper
  for a lone attack under a very sparse mask; once a session scores the
  dense path or a second policy, the shared block is.

The landmark-closeness vectors behind ``s^s`` are likewise built once per
split and cached, whichever path reads them.
"""

from __future__ import annotations

import threading
import time

import numpy as np
from scipy import sparse

from repro.core.blocking import CandidateMask, SparseSimilarity, build_candidates
from repro.core.config import SimilarityWeights, parse_blocking
from repro.graph.landmarks import landmark_closeness, select_landmarks
from repro.graph.uda import UDAGraph

#: Pair-chunk size for the chunked cosine kernels (bounds peak memory of
#: the gathered row blocks at ``chunk × vector_width`` floats).
_COSINE_CHUNK_PAIRS = 1 << 18


def _minmax_ratio_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise min/max ratio with the 0/0 -> 1 convention."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    lo = np.minimum.outer(a, b)
    hi = np.maximum.outer(a, b)
    out = np.ones_like(hi)
    np.divide(lo, hi, out=out, where=hi > 0)
    return out


def _row_normalize(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return unit-row matrix and a boolean mask of all-zero rows."""
    norms = np.linalg.norm(mat, axis=1)
    zero = norms == 0.0
    safe = norms.copy()
    safe[zero] = 1.0
    return mat / safe[:, None], zero


def _cosine_matrix(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Pairwise cosine with zero-vs-zero = 1, zero-vs-nonzero = 0."""
    An, a_zero = _row_normalize(A)
    Bn, b_zero = _row_normalize(B)
    cos = An @ Bn.T
    if a_zero.any() or b_zero.any():
        cos[a_zero, :] = 0.0
        cos[:, b_zero] = 0.0
        cos[np.ix_(a_zero, b_zero)] = 1.0
    return cos


def _pad_ncs(ncs: list, width: int) -> np.ndarray:
    out = np.zeros((len(ncs), width))
    for i, vec in enumerate(ncs):
        if len(vec):
            out[i, : len(vec)] = vec
    return out


# --- pairwise (masked) kernels ------------------------------------------


def _minmax_ratio_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise min/max ratio over gathered pair values (0/0 -> 1)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    out = np.ones_like(hi)
    np.divide(lo, hi, out=out, where=hi > 0)
    return out


def _cosine_pairs(
    A: np.ndarray, B: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Cosine at the given (row, col) pairs, same zero conventions as dense.

    Gathers row blocks of at most :data:`_COSINE_CHUNK_PAIRS` pairs, so
    peak memory is bounded regardless of how many pairs are scored.
    """
    An, a_zero = _row_normalize(A)
    Bn, b_zero = _row_normalize(B)
    out = np.empty(len(rows), dtype=np.float64)
    for start in range(0, len(rows), _COSINE_CHUNK_PAIRS):
        stop = start + _COSINE_CHUNK_PAIRS
        out[start:stop] = np.einsum(
            "ij,ij->i", An[rows[start:stop]], Bn[cols[start:stop]]
        )
    az = a_zero[rows]
    bz = b_zero[cols]
    if az.any() or bz.any():
        out[az | bz] = 0.0
        out[az & bz] = 1.0
    return out


def _attribute_dense_block(
    W1: sparse.csr_matrix, W2: sparse.csr_matrix, cap: int
) -> np.ndarray:
    """Jaccard + weighted Jaccard of capped weight rows, as a dense block.

    The whole ``n1 × n2`` block of one split: the dense path reads it as
    ``s^a`` and the blocked path samples it at the candidate pairs.  The
    Σ min(w1, w2) numerator uses the level-set decomposition.  Capped
    weights are positive integers, so level 1 (``w ≥ 1``) is the overlap
    product the Jaccard already needs; the deeper levels' products are
    accumulated as sparse matrices and densified once.  Every level
    contributes exact small integers, so the sum is bit-identical to
    summing dense levels in any order.
    """
    B1 = (W1 > 0).astype(np.float64)
    B2 = (W2 > 0).astype(np.float64)
    sizes1 = np.asarray(B1.sum(axis=1)).ravel()
    sizes2 = np.asarray(B2.sum(axis=1)).ravel()
    inter = (B1 @ B2.T).toarray()
    union = sizes1[:, None] + sizes2[None, :] - inter
    jac = np.ones_like(inter)
    np.divide(inter, union, out=jac, where=union > 0)

    deeper: "sparse.spmatrix | None" = None
    for level in range(2, cap + 1):
        B1t = (W1 >= level).astype(np.float64)
        B2t = (W2 >= level).astype(np.float64)
        if B1t.nnz == 0 or B2t.nnz == 0:
            break
        product = B1t @ B2t.T
        deeper = product if deeper is None else deeper + product
    min_sum = inter if deeper is None else inter + deeper.toarray()
    sum1 = np.asarray(W1.sum(axis=1)).ravel().astype(np.float64)
    sum2 = np.asarray(W2.sum(axis=1)).ravel().astype(np.float64)
    max_sum = sum1[:, None] + sum2[None, :] - min_sum
    wjac = np.ones_like(inter)
    np.divide(min_sum, max_sum, out=wjac, where=max_sum > 0)

    return jac + wjac


class SimilarityCache:
    """Shared store of similarity matrices for one anonymized/auxiliary pair.

    Keys are ``(kind, *params)`` tuples — ``("degree",)``,
    ``("landmarks", n_landmarks)``, ``("distance", n_landmarks)``,
    ``("attribute", cap)`` and ``("combined", (c1, c2, c3), n_landmarks,
    cap)`` — so any number of :class:`SimilarityComputer` instances with
    different weights, knobs or blocking policies can share one cache and
    each matrix is computed at most once.  Sparse-path entries additionally
    carry the blocking-policy key (``("blocking", ...)`` masks,
    ``("degree_pairs", ...)`` / ``("distance_pairs", ...)`` /
    ``("combined_pairs", ...)`` pair values), so dense and blocked variants
    never collide.  Build/hit counters per kind let callers assert reuse
    (parameter-sweep tests); entry/byte accounting lets long-lived sessions
    report and bound their memory footprint.
    """

    def __init__(self) -> None:
        self._matrices: dict = {}
        self.builds: dict = {}
        self.hits: dict = {}
        self._blocking_stats: dict = {}
        # Protects dict mutation vs the snapshot reads (counters/nbytes):
        # writers are already serialized by their session's lock, but a
        # stats poll must be able to read consistently without waiting on
        # a session mid-fit.  Builds happen outside this mutex.
        self._mutex = threading.Lock()

    def get_or_build(self, key: tuple, build) -> np.ndarray:
        kind = key[0]
        if key in self._matrices:
            with self._mutex:
                self.hits[kind] = self.hits.get(kind, 0) + 1
            return self._matrices[key]
        with self._mutex:
            self.builds[kind] = self.builds.get(kind, 0) + 1
        matrix = build()
        with self._mutex:
            self._matrices[key] = matrix
        return matrix

    def has(self, *key) -> bool:
        return tuple(key) in self._matrices

    def clear(self) -> int:
        """Drop every cached entry; returns how many were dropped.

        Build/hit counters are cumulative and survive the clear (they
        describe history, not contents).
        """
        with self._mutex:
            dropped = len(self._matrices)
            self._matrices.clear()
        return dropped

    @property
    def entries(self) -> int:
        return len(self._matrices)

    @classmethod
    def _entry_nbytes(cls, value) -> int:
        if isinstance(value, tuple):
            return sum(cls._entry_nbytes(part) for part in value)
        if sparse.issparse(value):
            parts = (
                getattr(value, "data", None),
                getattr(value, "indices", None),
                getattr(value, "indptr", None),
            )
            return sum(int(p.nbytes) for p in parts if p is not None)
        nbytes = getattr(value, "nbytes", None)
        return int(nbytes) if nbytes is not None else 0

    def nbytes(self) -> int:
        """Total bytes held by cached entries (dense, sparse, masks, and the
        arrays of tuple entries)."""
        with self._mutex:
            return sum(self._entry_nbytes(v) for v in self._matrices.values())

    def counters(self) -> dict:
        """Builds/hits per kind plus entry and byte totals."""
        with self._mutex:
            builds = dict(self.builds)
            hits = dict(self.hits)
        return {
            "builds": builds,
            "hits": hits,
            "entries": self.entries,
            "bytes": self.nbytes(),
        }

    # --- blocking observability -----------------------------------------

    def record_blocking(
        self, policy: str, mask: "CandidateMask", generation_s: float
    ) -> None:
        """Fold one candidate-mask build into the per-policy accounting.

        Cumulative (like build/hit counters, the totals survive
        :meth:`clear`), so a long-running service reports every mask a
        policy ever generated, not just the currently cached one.  Meta
        counters (collision touches, distinct pairs, graph edges) are
        numeric per-build counts and accumulate the same way;
        ``n_total_pairs`` is the world geometry — identical for every
        build of this graph pair — and is simply recorded.
        """
        with self._mutex:
            entry = self._blocking_stats.setdefault(
                policy,
                {
                    "policy": policy,
                    "masks_built": 0,
                    "candidates": 0,
                    "generation_s": 0.0,
                },
            )
            entry["masks_built"] += 1
            entry["candidates"] += mask.n_pairs
            entry["generation_s"] += generation_s
            entry["n_total_pairs"] = mask.n_total_pairs
            for key, value in mask.meta.items():
                entry[key] = entry.get(key, 0) + value

    def blocking_stats(self) -> list:
        """Per-policy candidate-generation stats, JSON-safe."""
        with self._mutex:
            return [dict(entry) for entry in self._blocking_stats.values()]


class SimilarityComputer:
    """Computes and caches the three similarity components for a graph pair.

    Passing a shared :class:`SimilarityCache` lets several computers over the
    same graph pair (e.g. a sweep over c1/c2/c3 weights) reuse component and
    combined matrices instead of recomputing them.

    ``blocking`` selects the scoring path: ``"none"`` keeps the exact dense
    matrices, any other policy builds a candidate mask
    (:func:`repro.core.blocking.build_candidates`) and scores only the
    masked pairs (:meth:`combined_sparse`); :meth:`scores` dispatches.
    """

    def __init__(
        self,
        anonymized: UDAGraph,
        auxiliary: UDAGraph,
        weights: "SimilarityWeights | None" = None,
        n_landmarks: int = 50,
        attribute_weight_cap: int = 64,
        cache: "SimilarityCache | None" = None,
        blocking: str = "none",
        blocking_band_width: float = 1.0,
        blocking_min_shared: int = 1,
        blocking_keep: float = 0.2,
        blocking_lsh_bands: int = 48,
        blocking_lsh_rows: int = 6,
        blocking_ann_m: int = 12,
        blocking_ann_ef: int = 48,
        blocking_seed: int = 0,
    ) -> None:
        self.anonymized = anonymized
        self.auxiliary = auxiliary
        self.weights = weights or SimilarityWeights()
        self.weights.validate()
        self.n_landmarks = n_landmarks
        self.attribute_weight_cap = attribute_weight_cap
        self.cache = cache or SimilarityCache()
        self.blocking = blocking
        self.blocking_band_width = blocking_band_width
        self.blocking_min_shared = blocking_min_shared
        self.blocking_keep = blocking_keep
        self.blocking_lsh_bands = blocking_lsh_bands
        self.blocking_lsh_rows = blocking_lsh_rows
        self.blocking_ann_m = blocking_ann_m
        self.blocking_ann_ef = blocking_ann_ef
        self.blocking_seed = blocking_seed

    # --- components -----------------------------------------------------

    def degree_similarity(self) -> np.ndarray:
        """s^d: degree ratio + weighted-degree ratio + NCS cosine."""
        return self.cache.get_or_build(("degree",), self._build_degree)

    def _ncs_padded(self) -> tuple:
        """Zero-padded NCS matrices for both graphs, shared width.

        Single source of the padding setup for the dense and pair kernels
        — they must stay numerically identical position-by-position.
        """
        g1, g2 = self.anonymized, self.auxiliary
        width = max(
            max((len(v) for v in g1.ncs), default=0),
            max((len(v) for v in g2.ncs), default=0),
            1,
        )
        return _pad_ncs(g1.ncs, width), _pad_ncs(g2.ncs, width)

    def _landmark_vectors(self) -> tuple:
        """Landmark-closeness matrices (hop and weighted) for both graphs.

        Single source of the landmark setup for the dense and pair kernels,
        cached so the Dijkstra runs happen once per split.
        """
        return self.cache.get_or_build(
            ("landmarks", self.n_landmarks), self._build_landmark_vectors
        )

    def _build_landmark_vectors(self) -> tuple:
        g1, g2 = self.anonymized, self.auxiliary
        h = min(self.n_landmarks, g1.n_users, g2.n_users)
        lm1 = select_landmarks(g1, h)
        lm2 = select_landmarks(g2, h)
        return (
            landmark_closeness(g1, lm1, weighted=False),
            landmark_closeness(g2, lm2, weighted=False),
            landmark_closeness(g1, lm1, weighted=True),
            landmark_closeness(g2, lm2, weighted=True),
        )

    def _build_degree(self) -> np.ndarray:
        g1, g2 = self.anonymized, self.auxiliary
        component = _minmax_ratio_matrix(g1.degrees, g2.degrees)
        component += _minmax_ratio_matrix(g1.weighted_degrees, g2.weighted_degrees)
        component += _cosine_matrix(*self._ncs_padded())
        return component

    def distance_similarity(self) -> np.ndarray:
        """s^s: cosine of landmark closeness vectors, hop + weighted."""
        return self.cache.get_or_build(
            ("distance", self.n_landmarks), self._build_distance
        )

    def _build_distance(self) -> np.ndarray:
        hop1, hop2, w1, w2 = self._landmark_vectors()
        component = _cosine_matrix(hop1, hop2)
        component += _cosine_matrix(w1, w2)
        return component

    def attribute_similarity(self) -> np.ndarray:
        """s^a: Jaccard(A(u), A(v)) + weighted Jaccard(WA(u), WA(v))."""
        return self.cache.get_or_build(
            ("attribute", self.attribute_weight_cap), self._build_attribute
        )

    def _build_attribute(self) -> np.ndarray:
        cap = self.attribute_weight_cap
        W1 = self.anonymized.attr_weights.astype(np.int64).tocsr().copy()
        W2 = self.auxiliary.attr_weights.astype(np.int64).tocsr().copy()
        W1.data = np.minimum(W1.data, cap)
        W2.data = np.minimum(W2.data, cap)
        return _attribute_dense_block(W1, W2, cap)

    # --- combination ----------------------------------------------------

    def combined_key(self) -> tuple:
        """The cache key of this computer's combined matrix."""
        w = self.weights
        return (
            "combined",
            (w.degree, w.distance, w.attribute),
            self.n_landmarks,
            self.attribute_weight_cap,
        )

    def combined(self) -> np.ndarray:
        """The full similarity matrix s_uv (anonymized rows, auxiliary cols).

        Components with zero weight are skipped entirely — the c1=c2=0
        ablation never pays the landmark-Dijkstra cost.
        """
        return self.cache.get_or_build(self.combined_key(), self._build_combined)

    def _build_combined(self) -> np.ndarray:
        w = self.weights
        total = np.zeros((self.anonymized.n_users, self.auxiliary.n_users))
        if w.degree:
            total += w.degree * self.degree_similarity()
        if w.distance:
            total += w.distance * self.distance_similarity()
        if w.attribute:
            total += w.attribute * self.attribute_similarity()
        return total

    # --- blocking / sparse pair scoring ---------------------------------

    def _atom_key(self, atom: str) -> tuple:
        if atom == "degree_band":
            return ("degree_band", self.blocking_band_width)
        if atom == "attr_index":
            return ("attr_index", self.blocking_min_shared, self.blocking_keep)
        if atom == "union":
            return (
                "union",
                self.blocking_band_width,
                self.blocking_min_shared,
                self.blocking_keep,
            )
        if atom == "lsh":
            return (
                "lsh",
                self.blocking_lsh_bands,
                self.blocking_lsh_rows,
                self.blocking_keep,
                self.blocking_seed,
            )
        return (
            "ann_graph",
            self.blocking_ann_m,
            self.blocking_ann_ef,
            self.blocking_keep,
            self.blocking_seed,
        )

    def blocking_key(self) -> tuple:
        """Hashable identity of the blocking policy and its parameters.

        Composite policies concatenate their atoms' keys, so any distinct
        parameterization — of any part — lands in its own cache slot.
        """
        if self.blocking == "none":
            return ("none",)
        key: tuple = ()
        for atom in parse_blocking(self.blocking):
            key += self._atom_key(atom)
        return key

    def candidate_mask(self) -> "CandidateMask | None":
        """The cached candidate mask of this computer's blocking policy."""
        if self.blocking == "none":
            return None
        return self.cache.get_or_build(
            ("blocking",) + self.blocking_key(), self._build_mask
        )

    def _build_mask(self) -> CandidateMask:
        started = time.perf_counter()
        mask = build_candidates(
            self.anonymized,
            self.auxiliary,
            self.blocking,
            band_width=self.blocking_band_width,
            min_shared=self.blocking_min_shared,
            keep_fraction=self.blocking_keep,
            lsh_bands=self.blocking_lsh_bands,
            lsh_rows=self.blocking_lsh_rows,
            ann_m=self.blocking_ann_m,
            ann_ef=self.blocking_ann_ef,
            seed=self.blocking_seed,
        )
        self.cache.record_blocking(
            self.blocking, mask, time.perf_counter() - started
        )
        return mask

    def degree_pairs(self) -> np.ndarray:
        """s^d at the masked pairs only (CSR data order of the mask)."""
        return self.cache.get_or_build(
            ("degree_pairs",) + self.blocking_key(), self._build_degree_pairs
        )

    def _build_degree_pairs(self) -> np.ndarray:
        g1, g2 = self.anonymized, self.auxiliary
        rows, cols = self.candidate_mask().pair_arrays()
        vals = _minmax_ratio_pairs(g1.degrees[rows], g2.degrees[cols])
        vals += _minmax_ratio_pairs(
            g1.weighted_degrees[rows], g2.weighted_degrees[cols]
        )
        ncs1, ncs2 = self._ncs_padded()
        vals += _cosine_pairs(ncs1, ncs2, rows, cols)
        return vals

    def distance_pairs(self) -> np.ndarray:
        """s^s at the masked pairs only."""
        return self.cache.get_or_build(
            ("distance_pairs", self.n_landmarks) + self.blocking_key(),
            self._build_distance_pairs,
        )

    def _build_distance_pairs(self) -> np.ndarray:
        rows, cols = self.candidate_mask().pair_arrays()
        hop1, hop2, w1, w2 = self._landmark_vectors()
        vals = _cosine_pairs(hop1, hop2, rows, cols)
        vals += _cosine_pairs(w1, w2, rows, cols)
        return vals

    def attribute_pairs(self) -> np.ndarray:
        """s^a at the masked pairs only, sampled from the dense block."""
        rows, cols = self.candidate_mask().pair_arrays()
        return self.attribute_similarity()[rows, cols]

    def combined_sparse(self) -> SparseSimilarity:
        """The combined similarity at the masked pairs only.

        Requires a blocking policy other than ``"none"``.  Unscored pairs
        carry the explicit floor 0.0 — strictly below any scored pair's
        possible value, since every component is non-negative.
        """
        if self.blocking == "none":
            raise ValueError(
                "combined_sparse() needs a blocking policy; "
                "use combined() for the dense path"
            )
        w = self.weights
        key = (
            "combined_pairs",
            (w.degree, w.distance, w.attribute),
            self.n_landmarks,
            self.attribute_weight_cap,
        ) + self.blocking_key()
        return self.cache.get_or_build(key, self._build_combined_sparse)

    def _build_combined_sparse(self) -> SparseSimilarity:
        w = self.weights
        mask = self.candidate_mask()
        total = np.zeros(mask.n_pairs, dtype=np.float64)
        if w.degree:
            total += w.degree * self.degree_pairs()
        if w.distance:
            total += w.distance * self.distance_pairs()
        if w.attribute:
            total += w.attribute * self.attribute_pairs()
        return SparseSimilarity(mask, total)

    def scores(self):
        """Dense matrix or :class:`SparseSimilarity`, per the blocking policy."""
        if self.blocking == "none":
            return self.combined()
        return self.combined_sparse()

    def score(self, anon_user: str, aux_user: str) -> float:
        """Similarity of one pair, by user id (floor if pruned by blocking)."""
        i = self.anonymized.index[anon_user]
        j = self.auxiliary.index[aux_user]
        S = self.scores()
        if isinstance(S, SparseSimilarity):
            return float(S.scores_at(i, [j])[0])
        return float(S[i, j])
