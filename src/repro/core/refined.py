"""Refined DA: per-user classification into the Top-K candidate set.

For each anonymized user ``u`` with candidate set ``Cu``, a classifier is
trained on the *auxiliary posts* of the candidates (stylometric vectors,
optionally concatenated with the author's structural features) and applied
to ``u``'s anonymized posts; per-post scores are summed into a user-level
decision.  The open-world *false addition* scheme trains on ``K'`` extra
decoy users — if a decoy wins, the answer is ⊥.
"""

from __future__ import annotations

import numpy as np

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

    Post feature matrices are extracted once per user and cached, because
    the same auxiliary user appears in many candidate sets.
    """

    def __init__(
        self,
        anonymized: UDAGraph,
        auxiliary: UDAGraph,
        classifier: str = "smo",
        use_structural_features: bool = True,
        false_addition_count: "int | None" = None,
        seed: int = 0,
        post_matrix_caches: "tuple[dict, dict] | None" = None,
        keep_fraction: float = 1.0,
    ) -> None:
        if not 0.0 < keep_fraction <= 1.0:
            raise ConfigError(
                f"keep_fraction must be in (0, 1], got {keep_fraction}"
            )
        self.anonymized = anonymized
        self.auxiliary = auxiliary
        self.classifier_name = classifier
        self.use_structural_features = use_structural_features
        self.false_addition_count = false_addition_count
        self.seed = seed
        #: Pre-ranking knob: each candidate set is cut to its top
        #: ``ceil(keep_fraction × |Cu|)`` entries by phase-1 similarity
        #: before any classifier training.  ``1.0`` disables the cut —
        #: the classifier sees exactly the phase-1 candidate sets.
        self.keep_fraction = float(keep_fraction)
        #: Pre-ranking counters (cumulative over deanonymize_user calls
        #: while the cut is active): users pre-ranked, candidates seen,
        #: candidates actually classified.
        self.prerank_stats = {"users": 0, "candidates_in": 0, "candidates_kept": 0}
        self._rng = derive_rng(seed)
        # ``post_matrix_caches`` lets a parameter sweep share the extracted
        # per-user post matrices across deanonymizer instances; the cached
        # matrices depend on ``use_structural_features``, so callers must
        # key shared caches by that flag.
        if post_matrix_caches is None:
            post_matrix_caches = ({}, {})
        self._anon_cache, self._aux_cache = post_matrix_caches
        make_classifier(classifier)  # fail fast on bad names

    @classmethod
    def from_config(
        cls,
        anonymized: UDAGraph,
        auxiliary: UDAGraph,
        config,
        post_matrix_caches: "tuple[dict, dict] | None" = None,
    ) -> "RefinedDeanonymizer":
        """The refined phase a :class:`~repro.core.DeHealthConfig`
        describes: its classifier, structural features, seed and pre-rank
        fraction, and its decoy count under false-addition verification."""
        return cls(
            anonymized,
            auxiliary,
            classifier=config.classifier,
            use_structural_features=config.use_structural_features,
            false_addition_count=(
                config.false_addition_count
                if config.verification == "false_addition"
                else None
            ),
            seed=config.seed,
            post_matrix_caches=post_matrix_caches,
            keep_fraction=config.refined_keep_fraction,
        )

    # --- feature assembly -------------------------------------------------

    def _post_matrix(self, uda: UDAGraph, cache: dict, user_id: str) -> np.ndarray:
        matrix = cache.get(user_id)
        if matrix is None:
            texts = uda.dataset.post_texts_of(user_id)
            matrix = uda.extractor.extract_matrix(texts).toarray()
            if self.use_structural_features:
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

    # --- per-user DA --------------------------------------------------------

    def _prerank(self, candidates: list, candidate_scores) -> list:
        """Cut a candidate set to its top ``keep_fraction`` by phase-1 score.

        ``candidate_scores`` aligns with ``candidates`` (the blocking
        layer's sparse similarity values, threaded down by the pipeline);
        when absent, the phase-1 ordering of the list itself is trusted —
        both selection paths emit candidates best-first.  Ties and the
        no-scores path preserve list order, so the cut is deterministic.
        """
        kept_n = max(1, int(np.ceil(self.keep_fraction * len(candidates))))
        if kept_n < len(candidates):
            if candidate_scores is not None:
                scores = np.asarray(candidate_scores, dtype=np.float64)
                order = np.lexsort((np.arange(len(candidates)), -scores))
                candidates = [candidates[int(i)] for i in order[:kept_n]]
            else:
                candidates = list(candidates)[:kept_n]
        self.prerank_stats["users"] += 1
        self.prerank_stats["candidates_kept"] += len(candidates)
        return candidates

    def deanonymize_user(
        self,
        anon_user: str,
        candidates: list,
        candidate_scores=None,
    ) -> "tuple[str | None, dict]":
        """Classify one anonymized user into ``candidates``.

        ``candidate_scores`` (optional, aligned with ``candidates``) are
        the phase-1 similarity scores used for pre-ranking when
        ``keep_fraction < 1.0``; they never affect the classifier itself.
        Returns ``(winner, details)`` where winner is an auxiliary user id
        or ``None`` (⊥, only under false addition), and details carries the
        per-candidate aggregate scores.
        """
        if not candidates:
            return None, {"reason": "empty candidate set"}
        if self.keep_fraction < 1.0:
            self.prerank_stats["candidates_in"] += len(candidates)
            candidates = self._prerank(candidates, candidate_scores)
        test_X = self._post_matrix(self.anonymized, self._anon_cache, anon_user)
        if test_X.size == 0:
            return None, {"reason": "anonymized user has no posts"}

        classes = list(candidates)
        decoys: list = []
        if self.false_addition_count:
            candidate_set = set(candidates)
            pool = [u for u in self.auxiliary.users if u not in candidate_set]
            n_decoys = min(self.false_addition_count, len(pool))
            if n_decoys:
                decoys = [
                    pool[int(i)]
                    for i in self._rng.choice(len(pool), size=n_decoys, replace=False)
                ]
        decoy_set = set(decoys)
        train_users = classes + decoys

        blocks = []
        labels = []
        for v in train_users:
            block = self._post_matrix(self.auxiliary, self._aux_cache, v)
            if block.size == 0:
                continue
            blocks.append(block)
            labels.extend([v] * len(block))
        if not blocks:
            return None, {"reason": "no training posts among candidates"}
        train_X = np.vstack(blocks)
        train_y = np.asarray(labels)
        if len(np.unique(train_y)) == 1:
            only = str(train_y[0])
            winner = None if only in decoy_set else only
            return winner, {"reason": "single-candidate set", "scores": {only: 1.0}}

        scaler = StandardScaler().fit(train_X)
        clf = make_classifier(self.classifier_name, seed=self.seed)
        clf.fit(scaler.transform(train_X), train_y)
        scores = clf.predict_scores(scaler.transform(test_X))

        class_totals: dict[str, float] = {}
        for j, cls in enumerate(clf.classes_):
            class_totals[str(cls)] = float(scores[:, j].sum())
        winner = max(class_totals, key=class_totals.get)
        details = {"scores": class_totals, "decoys": decoys}
        if winner in decoy_set:
            return None, details
        return winner, details
