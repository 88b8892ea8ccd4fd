"""Structural similarity between anonymized and auxiliary users (Section III-B).

``s_uv = c1·s^d + c2·s^s + c3·s^a`` with

* ``s^d`` — degree similarity: min/max ratios of degree and weighted degree
  plus cosine of the (zero-padded) NCS vectors;
* ``s^s`` — distance similarity: cosine of landmark-closeness vectors,
  unweighted plus weighted;
* ``s^a`` — attribute similarity: Jaccard of A(u)/A(v) plus weighted Jaccard
  of WA(u)/WA(v).

Each component has one kernel, which builds its full ``n1 × n2`` block
with vectorised NumPy/SciPy code.  ``s^a`` works on the attribute columns
that both sides use, densified once: an attribute missing from either
side adds nothing to a pair's overlap or to its Σ min(w1, w2), so one
BLAS product of their 0/1 pattern gives the overlap counts and one
``np.minimum.outer`` per shared column gives the weighted numerator.
Both are exact integers, so the block does not depend on the order of
any sum.  The blocks are built once per split and cached, and both
scoring paths read them.
Either way the Top-K phase receives one score type, a
:class:`~repro.core.blocking.SparseSimilarity`:

* **dense** — ``blocking="none"`` (the default) combines the whole blocks
  into the ``n1 × n2`` matrix ``s_uv`` and hands it over as scores on the
  full mask (a view of the cached block, no copy);
* **blocked** — when a blocking policy (:mod:`repro.core.blocking`) prunes
  the pair space, the scores cover the surviving candidate pairs.  Their
  values are the component blocks sampled at those pairs and combined in
  the dense order, so they equal the dense ``s_uv`` at every candidate
  pair byte for byte.  No combined ``n1 × n2`` matrix is built for them;
  the component blocks are shared with the dense path and every other
  policy of the split.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace

import numpy as np
from scipy import sparse

from repro.core.blocking import CandidateMask, SparseSimilarity, build_candidates
from repro.core.config import (
    BLOCKING_CHOICES,
    KNOBS,
    DeHealthConfig,
    parse_blocking,
)
from repro.graph.landmarks import landmark_closeness, select_landmarks
from repro.graph.uda import UDAGraph

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


def _capped(W: sparse.spmatrix, cap: int) -> sparse.csr_matrix:
    """Integer weights ``W`` as a new CSR matrix, each capped at ``cap``."""
    W = sparse.csr_matrix(W, dtype=np.int64, copy=True)
    np.minimum(W.data, cap, out=W.data)
    return W


def _attribute_dense_block(
    W1: sparse.spmatrix, W2: sparse.spmatrix, cap: int
) -> np.ndarray:
    """Jaccard + weighted Jaccard of weight rows capped at ``cap``, as a
    dense block.

    The whole ``n1 × n2`` block of one split: the dense path reads it as
    ``s^a`` and the blocked path samples it at the candidate pairs.  A
    column that is empty on either side adds nothing to any pair's overlap
    |A(u) ∩ A(v)| or numerator Σ min(w1, w2), so both are summed over the
    shared columns only, densified once: the overlap is one float64 BLAS
    product of their 0/1 pattern, and the numerator adds one
    ``np.minimum.outer`` per shared column into an accumulator.  The
    weights are stored in the smallest unsigned dtype that holds the
    largest of them, and the accumulator in the smallest that holds
    Σ_k min(max1_k, max2_k), which bounds every pair's numerator.  Set
    sizes and weight sums run over all columns.

    Every intermediate is an exact integer, so the block does not depend
    on the order of any sum: it equals ``jaccard + weighted_jaccard`` of
    each pair's ``{slot: weight}`` dicts bit for bit, for every cap.
    """
    W1, W2 = _capped(W1, cap), _capped(W2, cap)
    B1, B2 = W1 > 0, W2 > 0
    sizes1 = np.asarray(B1.sum(axis=1), dtype=np.float64).ravel()
    sizes2 = np.asarray(B2.sum(axis=1), dtype=np.float64).ravel()
    sum1 = np.asarray(W1.sum(axis=1), dtype=np.float64).ravel()
    sum2 = np.asarray(W2.sum(axis=1), dtype=np.float64).ravel()

    shared = np.flatnonzero(
        np.logical_and(B1.getnnz(axis=0), B2.getnnz(axis=0))
    )
    largest = max(W1.data.max(initial=0), W2.data.max(initial=0))
    values = np.min_scalar_type(largest)
    # one contiguous row of weights per shared column
    C1 = W1[:, shared].T.tocsr().astype(values).toarray()
    C2 = W2[:, shared].T.tocsr().astype(values).toarray()
    inter = (C1 > 0).astype(np.float64).T @ (C2 > 0).astype(np.float64)

    max1, max2 = C1.max(axis=1, initial=0), C2.max(axis=1, initial=0)
    bound = np.minimum(max1, max2).sum()
    min_sum = np.zeros(inter.shape, dtype=np.min_scalar_type(bound))
    term = np.empty(inter.shape, dtype=values)
    for a, b in zip(C1, C2):
        np.minimum.outer(a, b, out=term)
        min_sum += term  # no term exceeds ``bound``
    min_sum = min_sum.astype(np.float64)

    union = sizes1[:, None] + sizes2[None, :] - inter
    jac = np.ones_like(inter)
    np.divide(inter, union, out=jac, where=union > 0)
    max_sum = sum1[:, None] + sum2[None, :] - min_sum
    wjac = np.ones_like(inter)
    np.divide(min_sum, max_sum, out=wjac, where=max_sum > 0)
    return jac + wjac


class SimilarityCache:
    """Shared store of similarity matrices for one anonymized/auxiliary pair.

    Keys are ``(kind, *params)`` tuples — ``("degree",)``,
    ``("distance", n_landmarks)``, ``("attribute", cap)``,
    ``("combined", (c1, c2, c3), n_landmarks, cap)`` and ``("full_mask",)``,
    the every-pair mask the dense scores are read through — so any number of
    :class:`SimilarityComputer` instances with different weights, knobs or
    blocking policies can share one cache and each matrix is computed at
    most once.  The three component blocks serve the dense path and every
    blocking policy alike.  Blocked-path entries additionally carry the
    blocking-policy key (``("blocking", ...)`` masks and
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

    def nbytes(self) -> int:
        """Total bytes held by cached entries: every entry is an array, a
        :class:`CandidateMask` or a :class:`SparseSimilarity`, and each
        counts its own ``nbytes``."""
        with self._mutex:
            return sum(int(v.nbytes) for v in self._matrices.values())

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

    The knobs it reads (weights, ``n_landmarks``, ``attribute_weight_cap``
    and the blocking knobs) come from ``config``, a
    :class:`~repro.core.config.DeHealthConfig`, overridden by any given as
    keywords: ``SimilarityComputer(g1, g2, n_landmarks=5, blocking="lsh")``.
    Passing a shared :class:`SimilarityCache` lets several computers over the
    same graph pair (e.g. a sweep over c1/c2/c3 weights) reuse component and
    combined matrices instead of recomputing them.

    ``blocking`` selects the scoring path: ``"none"`` combines the whole
    component blocks into the dense matrix, any other policy builds a
    candidate mask (:func:`repro.core.blocking.build_candidates`) and
    combines the same blocks sampled at the masked pairs
    (:meth:`combined_sparse`); :meth:`scores` returns either as a
    :class:`SparseSimilarity`.
    """

    def __init__(
        self,
        anonymized: UDAGraph,
        auxiliary: UDAGraph,
        config: "DeHealthConfig | None" = None,
        cache: "SimilarityCache | None" = None,
        **knobs,
    ) -> None:
        self.anonymized = anonymized
        self.auxiliary = auxiliary
        self.config = replace(config or DeHealthConfig(), **knobs)
        self.config.weights.validate()
        self.cache = cache or SimilarityCache()

    # --- components -----------------------------------------------------

    def degree_similarity(self) -> np.ndarray:
        """s^d: degree ratio + weighted-degree ratio + NCS cosine."""
        return self.cache.get_or_build(("degree",), self._build_degree)

    def _build_degree(self) -> np.ndarray:
        g1, g2 = self.anonymized, self.auxiliary
        component = _minmax_ratio_matrix(g1.degrees, g2.degrees)
        component += _minmax_ratio_matrix(g1.weighted_degrees, g2.weighted_degrees)
        width = max(
            max((len(v) for v in g1.ncs), default=0),
            max((len(v) for v in g2.ncs), default=0),
            1,
        )
        component += _cosine_matrix(_pad_ncs(g1.ncs, width), _pad_ncs(g2.ncs, width))
        return component

    def distance_similarity(self) -> np.ndarray:
        """s^s: cosine of landmark closeness vectors, hop + weighted."""
        return self.cache.get_or_build(
            ("distance", self.config.n_landmarks), self._build_distance
        )

    def _build_distance(self) -> np.ndarray:
        g1, g2 = self.anonymized, self.auxiliary
        h = min(self.config.n_landmarks, g1.n_users, g2.n_users)
        lm1 = select_landmarks(g1, h)
        lm2 = select_landmarks(g2, h)
        component = _cosine_matrix(
            landmark_closeness(g1, lm1, weighted=False),
            landmark_closeness(g2, lm2, weighted=False),
        )
        component += _cosine_matrix(
            landmark_closeness(g1, lm1, weighted=True),
            landmark_closeness(g2, lm2, weighted=True),
        )
        return component

    def attribute_similarity(self) -> np.ndarray:
        """s^a: Jaccard(A(u), A(v)) + weighted Jaccard(WA(u), WA(v))."""
        return self.cache.get_or_build(
            ("attribute", self.config.attribute_weight_cap), self._build_attribute
        )

    def _build_attribute(self) -> np.ndarray:
        return _attribute_dense_block(
            self.anonymized.attr_weights,
            self.auxiliary.attr_weights,
            self.config.attribute_weight_cap,
        )

    # --- combination ----------------------------------------------------

    def combined_key(self) -> tuple:
        """The cache key of this computer's combined matrix."""
        c = self.config
        w = c.weights
        return (
            "combined",
            (w.degree, w.distance, w.attribute),
            c.n_landmarks,
            c.attribute_weight_cap,
        )

    def combined(self) -> np.ndarray:
        """The full similarity matrix s_uv (anonymized rows, auxiliary cols).

        Components with zero weight are skipped entirely — the c1=c2=0
        ablation never pays the landmark-Dijkstra cost.
        """
        return self.cache.get_or_build(self.combined_key(), self._build_combined)

    def _build_combined(self) -> np.ndarray:
        w = self.config.weights
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
        """``atom`` and the values of the knobs that read it."""
        return (atom,) + tuple(
            getattr(self.config, spec.name) for spec in KNOBS if atom in spec.atoms
        )

    def blocking_key(self) -> tuple:
        """Hashable identity of the blocking policy and its parameters.

        Composite policies concatenate their atoms' keys in
        :data:`BLOCKING_CHOICES` order, so every spelling of one OR of
        masks (``union``, ``degree_band+attr_index``,
        ``attr_index+degree_band``) shares a cache slot, while any
        distinct parameterization — of any part — lands in its own.
        """
        if self.config.blocking == "none":
            return ("none",)
        key: tuple = ()
        atoms = sorted(
            parse_blocking(self.config.blocking), key=BLOCKING_CHOICES.index
        )
        for atom in atoms:
            key += self._atom_key(atom)
        return key

    def candidate_mask(self) -> "CandidateMask | None":
        """The cached candidate mask of this computer's blocking policy."""
        if self.config.blocking == "none":
            return None
        return self.cache.get_or_build(
            ("blocking",) + self.blocking_key(), self._build_mask
        )

    def _build_mask(self) -> CandidateMask:
        started = time.perf_counter()
        mask = build_candidates(self.anonymized, self.auxiliary, self.config)
        self.cache.record_blocking(
            self.config.blocking, mask, time.perf_counter() - started
        )
        return mask

    def combined_sparse(self) -> SparseSimilarity:
        """The combined similarity at the masked pairs only.

        The cached component blocks are sampled at the mask and summed in
        :meth:`combined`'s order, so the values equal
        ``combined()[rows, cols]`` byte for byte, yet no combined
        ``n1 × n2`` matrix is built.  Requires a blocking policy other than
        ``"none"``.  Unscored pairs carry the explicit floor 0.0 — strictly
        below any scored pair's possible value, since every component is
        non-negative.
        """
        if self.config.blocking == "none":
            raise ValueError(
                "combined_sparse() needs a blocking policy; "
                "use combined() for the dense path"
            )
        key = ("combined_pairs",) + self.combined_key()[1:] + self.blocking_key()
        return self.cache.get_or_build(key, self._build_combined_sparse)

    def _build_combined_sparse(self) -> SparseSimilarity:
        w = self.config.weights
        mask = self.candidate_mask()
        rows, cols = mask.pair_arrays()
        total = np.zeros(mask.n_pairs, dtype=np.float64)
        if w.degree:
            total += w.degree * self.degree_similarity()[rows, cols]
        if w.distance:
            total += w.distance * self.distance_similarity()[rows, cols]
        if w.attribute:
            total += w.attribute * self.attribute_similarity()[rows, cols]
        return SparseSimilarity(mask, total)

    def scores(self) -> SparseSimilarity:
        """The scores the Top-K phase reads, as one :class:`SparseSimilarity`.

        For ``blocking="none"`` the cached :meth:`combined` block, raveled
        without a copy, over the split's full mask (built once, cached as
        ``("full_mask",)``); otherwise :meth:`combined_sparse`.
        """
        if self.config.blocking == "none":
            mask = self.cache.get_or_build(
                ("full_mask",),
                lambda: CandidateMask.full(
                    self.anonymized.n_users, self.auxiliary.n_users
                ),
            )
            return SparseSimilarity(mask, self.combined().ravel())
        return self.combined_sparse()

    def score(self, anon_user: str, aux_user: str) -> float:
        """Similarity of one pair, by user id (floor if pruned by blocking)."""
        i = self.anonymized.index[anon_user]
        j = self.auxiliary.index[aux_user]
        return float(self.scores().scores_at(i, [j])[0])
