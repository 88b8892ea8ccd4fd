"""The end-to-end De-Health pipeline (the paper's Algorithm 1).

Usage::

    attack = DeHealth(DeHealthConfig(top_k=10, classifier="smo"))
    attack.fit(anonymized_dataset, auxiliary_dataset)
    candidates = attack.top_k_candidates()          # phase 1
    result = attack.deanonymize()                   # phase 2 -> DAResult
    result.accuracy(truth), result.false_positive_rate(truth)

``fit`` builds both UDA graphs and the structural similarity matrix; the
two phases can then be run (and re-run with different K) without paying
feature extraction again.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import DeHealthConfig
from repro.core.deadline import check_deadline, deadline_scope
from repro.core.filtering import filter_candidates
from repro.core.refined import RefinedDeanonymizer
from repro.core.results import DAResult, TopKResult
from repro.core.similarity import SimilarityComputer
from repro.core.topk import direct_top_k, matching_top_k, true_match_ranks
from repro.core.verification import mean_verification
from repro.errors import NotFittedError
from repro.forum.models import ForumDataset
from repro.forum.split import GroundTruth
from repro.graph.uda import UDAGraph
from repro.stylometry.extractor import FeatureExtractor


class DeHealth:
    """Two-phase de-anonymization attack over a pair of forum datasets."""

    def __init__(self, config: "DeHealthConfig | None" = None) -> None:
        self.config = config or DeHealthConfig()
        self.config.validate()
        self.anonymized: "UDAGraph | None" = None
        self.auxiliary: "UDAGraph | None" = None
        self.similarity: "SimilarityComputer | None" = None
        self._refined: "RefinedDeanonymizer | None" = None

    # --- phase 0: graph construction -----------------------------------

    def fit(
        self,
        anonymized: "ForumDataset | UDAGraph",
        auxiliary: "ForumDataset | UDAGraph",
        extractor: "FeatureExtractor | None" = None,
        *,
        similarity_cache=None,
        post_matrix_caches: "tuple[dict, dict] | None" = None,
    ) -> "DeHealth":
        """Build UDA graphs for Δ1/Δ2 and prepare the similarity computer.

        Pre-built :class:`UDAGraph` instances are accepted directly, so
        parameter sweeps (over K, classifiers, weights) can share one
        feature-extraction pass.  ``similarity_cache`` (a
        :class:`~repro.core.similarity.SimilarityCache`) and
        ``post_matrix_caches`` extend that sharing to the similarity
        matrices and the refined phase's per-user post matrices — the hooks
        :class:`repro.api.AttackSession` uses to make sweeps pay for each
        expensive artifact once.
        """
        extractor = extractor or FeatureExtractor()
        # stage-boundary watchdog: a request_deadline_s armed here (or by
        # the serving session) turns a wedged fit into a structured
        # DeadlineExceeded at the next boundary
        with deadline_scope(self.config.request_deadline_s):
            check_deadline("fit:anonymized-graph")
            self.anonymized = self._graph(anonymized, extractor)
            check_deadline("fit:auxiliary-graph")
            self.auxiliary = self._graph(auxiliary, extractor)
            check_deadline("fit:similarity")
        self.similarity = SimilarityComputer(
            self.anonymized, self.auxiliary, self.config, cache=similarity_cache
        )
        self._refined = RefinedDeanonymizer(
            self.anonymized, self.auxiliary, self.config, post_matrix_caches
        )
        return self

    def _graph(self, data, extractor: FeatureExtractor) -> UDAGraph:
        """``data`` itself if it is a :class:`UDAGraph`, else its graph."""
        if isinstance(data, UDAGraph):
            return data
        return UDAGraph(
            data, extractor=extractor, extract_workers=self.config.extract_workers
        )

    def _require_fit(self) -> None:
        if self.similarity is None:
            raise NotFittedError("call fit(anonymized, auxiliary) first")

    # --- phase 1: Top-K DA ----------------------------------------------

    def similarity_scores(self):
        """The scored similarity, a
        :class:`~repro.core.blocking.SparseSimilarity`: over the full mask
        for ``blocking="none"``, over the candidate pairs otherwise.
        """
        self._require_fit()
        return self.similarity.scores()

    def similarity_matrix(self) -> np.ndarray:
        """The similarity as a fresh ``n1 × n2`` array, pruned pairs at the
        sparse floor.

        Every call builds a new copy, for ``blocking="none"`` too (not the
        cached block), so callers may modify it; the Top-K phase reads
        :meth:`similarity_scores` instead.
        """
        self._require_fit()
        return self.similarity.scores().to_dense()

    def blocking_stats(self) -> dict:
        """Pair-space accounting: pairs scored vs the full pair space."""
        self._require_fit()
        n1 = self.anonymized.n_users
        n2 = self.auxiliary.n_users
        total = n1 * n2
        mask = self.similarity.candidate_mask()
        pairs = total if mask is None else mask.n_pairs
        return {
            "policy": self.config.blocking,
            "n_pairs": pairs,
            "n_total_pairs": total,
            "pair_fraction": pairs / total if total else 0.0,
        }

    def top_k_candidates(self, k: "int | None" = None) -> dict:
        """Candidate sets Cu: anonymized id -> list of auxiliary ids.

        A user filtered to ⊥ by Algorithm 2 maps to ``None``; a user whose
        row the blocking policy left without any scored pair maps to an
        empty list (both are treated as ⊥ by the refined phase, with
        distinct provenance in the result details).
        """
        self._require_fit()
        check_deadline("topk:candidates")
        k = k or self.config.top_k
        S = self.similarity_scores()
        if self.config.selection == "matching":
            cols = matching_top_k(S, k)
        else:
            cols = direct_top_k(S, k)
        if self.config.filtering:
            outcome = filter_candidates(
                S,
                cols,
                epsilon=self.config.filter_epsilon,
                levels=self.config.filter_levels,
            )
            # rows blocking pruned to nothing went into the filter empty;
            # restore them as empty lists so they keep their own
            # provenance instead of counting as Algorithm-2 ⊥
            cols = [
                [] if kept is None and not original else kept
                for kept, original in zip(outcome.kept, cols)
            ]
        aux_ids = self.auxiliary.users
        out: dict = {}
        for i, anon in enumerate(self.anonymized.users):
            cand = cols[i]
            out[anon] = None if cand is None else [aux_ids[c] for c in cand]
        return out

    def top_k_result(self, truth: GroundTruth) -> TopKResult:
        """Rank of every anonymized user's true mapping (Fig 3 / Fig 5 data)."""
        self._require_fit()
        check_deadline("topk:rank")
        ranks = true_match_ranks(
            self.similarity_scores(),
            self.anonymized.users,
            self.auxiliary.users,
            truth.mapping,
        )
        return TopKResult(ranks=ranks)

    # --- phase 2: refined DA ----------------------------------------------

    def deanonymize(self, k: "int | None" = None) -> DAResult:
        """Run both phases and return user-level DA decisions."""
        self._require_fit()
        with deadline_scope(self.config.request_deadline_s):
            return self._deanonymize_checked(k)

    def _deanonymize_checked(self, k: "int | None" = None) -> DAResult:
        candidates = self.top_k_candidates(k)
        S = self.similarity_scores()
        aux_index = {u: j for j, u in enumerate(self.auxiliary.users)}

        predictions: dict = {}
        details: dict = {}
        for i, anon in enumerate(self.anonymized.users):
            check_deadline("refined:user-loop")
            cand = candidates[anon]
            if not cand:
                # None = Algorithm-2 ⊥; [] = blocking (or matching-column
                # exhaustion) left nothing to classify.  The empty-list
                # reason matches what RefinedDeanonymizer reports for the
                # same situation, keeping provenance accurate either way.
                predictions[anon] = None
                details[anon] = {
                    "reason": (
                        "filtered to bottom"
                        if cand is None
                        else "empty candidate set"
                    )
                }
                continue
            winner, info = self._refined.deanonymize_user(anon, cand)
            if winner is not None and self.config.verification == "mean":
                row = S.dense_row(i)
                accepted = mean_verification(
                    row,
                    [aux_index[c] for c in cand],
                    aux_index[winner],
                    r=self.config.verification_r,
                    floor=float(row.min()),
                )
                if not accepted:
                    info = {**info, "rejected_by": "mean_verification"}
                    winner = None
            predictions[anon] = winner
            details[anon] = info
        return DAResult(predictions=predictions, details=details)
