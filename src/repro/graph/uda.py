"""The User-Data-Attribute (UDA) graph.

Extends the correlation graph with the paper's attribute layer: user ``u``
has attribute ``A_i`` iff some post of ``u`` exhibits stylometric feature
``F_i``, weighted by how many posts do (``l_u(A_i)``).  The class
pre-computes every structural quantity the Top-K phase consumes — degrees,
weighted degrees, NCS vectors, the sparse user × attribute weight matrix —
in array form indexed by a stable user ordering.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

import networkx as nx

from repro.errors import EmptyDatasetError
from repro.forum.models import ForumDataset
from repro.graph.correlation import build_correlation_graph
from repro.stylometry.extractor import FeatureExtractor


class UDAGraph:
    """UDA graph G = (V, E, W, A, O, L) over one forum dataset.

    Attributes
    ----------
    users:
        Stable user ordering; every array below is indexed by it.
    graph:
        The weighted correlation graph (networkx).
    degrees / weighted_degrees:
        ``d_u`` and ``wd_u`` per user.
    ncs:
        Neighborhood Correlation Strength vectors — per user, the
        decreasing sequence of incident edge weights.
    attr_weights:
        CSR matrix (n_users × M) with ``l_u(A_i)`` counts; binarising it
        yields A(u).
    """

    def __init__(
        self,
        dataset: ForumDataset,
        extractor: "FeatureExtractor | None" = None,
        with_attributes: bool = True,
        extract_workers: int = 1,
    ) -> None:
        if dataset.n_users == 0:
            raise EmptyDatasetError("cannot build a UDA graph without users")
        self.dataset = dataset
        self.extractor = extractor or FeatureExtractor()
        self.extract_workers = extract_workers
        self.users: list[str] = sorted(dataset.user_ids())
        self.index: dict[str, int] = {u: i for i, u in enumerate(self.users)}
        self.graph: nx.Graph = build_correlation_graph(dataset)

        n = len(self.users)
        self.degrees = np.zeros(n, dtype=np.int64)
        self.weighted_degrees = np.zeros(n, dtype=np.float64)
        self.ncs: list[np.ndarray] = [np.empty(0)] * n
        for u in self.users:
            i = self.index[u]
            weights = sorted(
                (data["weight"] for _, _, data in self.graph.edges(u, data=True)),
                reverse=True,
            )
            self.degrees[i] = len(weights)
            self.weighted_degrees[i] = float(sum(weights))
            self.ncs[i] = np.asarray(weights, dtype=np.float64)

        self.n_posts = np.array(
            [len(dataset.posts_of(u)) for u in self.users], dtype=np.int64
        )

        if with_attributes:
            self.attr_weights = self._build_attributes()
        else:
            self.attr_weights = sparse.csr_matrix(
                (n, self.extractor.space.size), dtype=np.int64
            )

    def _build_attributes(self) -> sparse.csr_matrix:
        """One batched extraction pass over every user's posts.

        Posts are flattened in user order (so parallel chunking follows
        user boundaries closely), extracted once via the extractor's
        cache-aware batch path, and counted into per-user A(u)/WA(u) rows
        by :meth:`~repro.stylometry.FeatureExtractor.attribute_weights`.
        """
        return self.extractor.attribute_weights(
            [self.dataset.post_texts_of(u) for u in self.users],
            workers=self.extract_workers,
        )

    # --- convenience accessors -----------------------------------------

    @property
    def n_users(self) -> int:
        return len(self.users)

    def degree_of(self, user_id: str) -> int:
        return int(self.degrees[self.index[user_id]])

    def weighted_degree_of(self, user_id: str) -> float:
        return float(self.weighted_degrees[self.index[user_id]])

    def ncs_of(self, user_id: str) -> np.ndarray:
        return self.ncs[self.index[user_id]]

    def attribute_set_of(self, user_id: str) -> frozenset[int]:
        row = self.attr_weights.getrow(self.index[user_id])
        return frozenset(int(i) for i in row.indices)

    def attribute_weights_of(self, user_id: str) -> dict[int, int]:
        row = self.attr_weights.getrow(self.index[user_id])
        return {int(i): int(v) for i, v in zip(row.indices, row.data)}

    def adjacency(self, weighted: bool = True) -> sparse.csr_matrix:
        """Sparse adjacency in the canonical user order."""
        return nx.to_scipy_sparse_array(
            self.graph,
            nodelist=self.users,
            weight="weight" if weighted else None,
            format="csr",
        )

    def with_masked_attributes(self, categories: "list[str]") -> "UDAGraph":
        """Shallow copy with the given feature categories' attributes zeroed.

        Used by the feature-effectiveness ablation (the paper's stated
        future work): knocking out one Table-I category at a time measures
        its contribution to the attribute similarity.  Graph structure,
        extractor, and all other arrays are shared with ``self``.
        """
        import copy

        clone = copy.copy(self)
        mask = np.ones(self.extractor.space.size, dtype=bool)
        for category in categories:
            sl = self.extractor.space.slots(category)  # KeyError on typos
            mask[sl] = False
        masked = self.attr_weights.tolil(copy=True)
        masked[:, ~mask] = 0
        clone.attr_weights = masked.tocsr()
        clone.attr_weights.eliminate_zeros()
        return clone

    def __repr__(self) -> str:
        return (
            f"UDAGraph(users={self.n_users}, edges={self.graph.number_of_edges()}, "
            f"attrs_nnz={self.attr_weights.nnz})"
        )
