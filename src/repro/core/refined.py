"""Refined DA: per-user classification into the Top-K candidate set.

For each anonymized user ``u`` with candidate set ``Cu``, a classifier is
trained on the *auxiliary posts* of the candidates (stylometric vectors,
optionally concatenated with the author's structural features) and applied
to ``u``'s anonymized posts; per-post scores are summed into a user-level
decision.  The open-world *false addition* scheme trains on ``K'`` extra
decoy users — if a decoy wins, the answer is ⊥.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.config import DeHealthConfig
from repro.errors import ConfigError
from repro.graph.uda import UDAGraph
from repro.ml import (
    KNNClassifier,
    NearestCentroidClassifier,
    RLSCClassifier,
    SMOClassifier,
    StandardScaler,
)
from repro.utils.rng import derive_rng


def make_classifier(name: str, seed: int = 0):
    """Instantiate one of the benchmark refined-DA classifiers by name."""
    if name == "smo":
        return SMOClassifier(C=1.0, kernel="linear", seed=seed)
    if name == "knn":
        return KNNClassifier(k=3, metric="cosine")
    if name == "rlsc":
        return RLSCClassifier(reg=1.0)
    if name == "centroid":
        return NearestCentroidClassifier()
    raise ConfigError(f"unknown classifier {name!r}")


class RefinedDeanonymizer:
    """Phase-2 engine: classify anonymized users into their candidate sets.

    The knobs it reads (``classifier``, ``use_structural_features``,
    ``seed``, ``refined_keep_fraction``, and ``false_addition_count``
    under ``verification="false_addition"``) come from ``config``, a
    :class:`~repro.core.config.DeHealthConfig`, overridden by any given as
    keywords: ``RefinedDeanonymizer(g1, g2, classifier="knn")``.  Bad
    values raise :class:`~repro.errors.ConfigError`.

    Post feature matrices are extracted once per user and cached, because
    the same auxiliary user appears in many candidate sets.
    ``post_matrix_caches`` lets a parameter sweep share them across
    instances; the cached matrices depend on ``use_structural_features``,
    so callers must key shared caches by that knob.
    """

    def __init__(
        self,
        anonymized: UDAGraph,
        auxiliary: UDAGraph,
        config: "DeHealthConfig | None" = None,
        post_matrix_caches: "tuple[dict, dict] | None" = None,
        **knobs,
    ) -> None:
        self.anonymized = anonymized
        self.auxiliary = auxiliary
        self.config = replace(config or DeHealthConfig(), **knobs)
        self.config.validate()
        #: Pre-ranking counters (cumulative over deanonymize_user calls
        #: while the cut is active): users pre-ranked, candidates seen,
        #: candidates actually classified.
        self.prerank_stats = {"users": 0, "candidates_in": 0, "candidates_kept": 0}
        self._rng = derive_rng(self.config.seed)
        self._anon_cache, self._aux_cache = post_matrix_caches or ({}, {})

    # --- feature assembly -------------------------------------------------

    def _post_matrix(self, uda: UDAGraph, cache: dict, user_id: str) -> np.ndarray:
        matrix = cache.get(user_id)
        if matrix is None:
            texts = uda.dataset.post_texts_of(user_id)
            matrix = uda.extractor.extract_matrix(texts).toarray()
            if self.config.use_structural_features:
                matrix = np.hstack(
                    [matrix, self._structural_row(uda, user_id, len(texts))]
                )
            cache[user_id] = matrix
        return matrix

    def _structural_row(
        self, uda: UDAGraph, user_id: str, n_rows: int
    ) -> np.ndarray:
        i = uda.index[user_id]
        ncs = uda.ncs[i]
        row = np.array(
            [
                np.log1p(uda.degrees[i]),
                np.log1p(uda.weighted_degrees[i]),
                np.log1p(ncs.max() if len(ncs) else 0.0),
                np.log1p(uda.n_posts[i]),
            ]
        )
        return np.tile(row, (n_rows, 1))

    def anonymized_rows(self, user_id: str) -> np.ndarray:
        """The post rows of anonymized user ``user_id``."""
        return self._post_matrix(self.anonymized, self._anon_cache, user_id)

    def training_set(self, users) -> tuple:
        """The auxiliary post rows of ``users``, stacked, and their labels;
        users without posts add none, and ``(None, None)`` means none of
        them has a post."""
        blocks = []
        labels = []
        for v in users:
            block = self._post_matrix(self.auxiliary, self._aux_cache, v)
            if block.size:
                blocks.append(block)
                labels.extend([v] * len(block))
        if not blocks:
            return None, None
        return np.vstack(blocks), np.asarray(labels)

    def fit_classifier(self, train_X: np.ndarray, train_y: np.ndarray) -> tuple:
        """A scaler fit to ``train_X`` and the configured classifier
        trained on the scaled rows."""
        scaler = StandardScaler().fit(train_X)
        clf = make_classifier(self.config.classifier, seed=self.config.seed)
        clf.fit(scaler.transform(train_X), train_y)
        return scaler, clf

    # --- per-user DA --------------------------------------------------------

    def _prerank(self, candidates: list) -> list:
        """Cut a candidate set to its top ``refined_keep_fraction``.

        Direct selection, matching and Algorithm 2 filtering all emit
        candidates best-first by phase-1 score, so the top
        ``ceil(refined_keep_fraction × |Cu|)`` are the head of the list.
        """
        fraction = self.config.refined_keep_fraction
        kept = candidates[: max(1, int(np.ceil(fraction * len(candidates))))]
        self.prerank_stats["users"] += 1
        self.prerank_stats["candidates_in"] += len(candidates)
        self.prerank_stats["candidates_kept"] += len(kept)
        return kept

    def deanonymize_user(
        self, anon_user: str, candidates: list
    ) -> "tuple[str | None, dict]":
        """Classify one anonymized user into ``candidates``, a best-first
        candidate set (pre-ranked when ``refined_keep_fraction < 1.0``).

        Returns ``(winner, details)`` where winner is an auxiliary user id
        or ``None`` (⊥, only under false addition), and details carries the
        per-candidate aggregate scores.
        """
        if not candidates:
            return None, {"reason": "empty candidate set"}
        if self.config.refined_keep_fraction < 1.0:
            candidates = self._prerank(candidates)
        test_X = self.anonymized_rows(anon_user)
        if test_X.size == 0:
            return None, {"reason": "anonymized user has no posts"}

        decoys: list = []
        config = self.config
        if config.verification == "false_addition" and config.false_addition_count:
            candidate_set = set(candidates)
            pool = [u for u in self.auxiliary.users if u not in candidate_set]
            n_decoys = min(config.false_addition_count, len(pool))
            if n_decoys:
                decoys = [
                    pool[int(i)]
                    for i in self._rng.choice(len(pool), size=n_decoys, replace=False)
                ]
        decoy_set = set(decoys)

        train_X, train_y = self.training_set(list(candidates) + decoys)
        if train_X is None:
            return None, {"reason": "no training posts among candidates"}
        if len(np.unique(train_y)) == 1:
            only = str(train_y[0])
            winner = None if only in decoy_set else only
            return winner, {"reason": "single-candidate set", "scores": {only: 1.0}}

        scaler, clf = self.fit_classifier(train_X, train_y)
        scores = clf.predict_scores(scaler.transform(test_X))

        class_totals: dict[str, float] = {}
        for j, cls in enumerate(clf.classes_):
            class_totals[str(cls)] = float(scores[:, j].sum())
        winner = max(class_totals, key=class_totals.get)
        details = {"scores": class_totals, "decoys": decoys}
        if winner in decoy_set:
            return None, details
        return winner, details
