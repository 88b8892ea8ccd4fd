"""The "Stylometry" comparison method of Section V.

The paper's baseline is the traditional stylometric attack ([29]-[37]):
train **one** classifier over *all* auxiliary users (no Top-K reduction) on
the same feature set, then classify every anonymized user into the full
auxiliary population.  It is "equivalent to the second phase (refined DA)
of De-Health" run with Cu = V2, and it is built from that phase's code:
the same post matrices, scaler and classifier.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.config import DeHealthConfig
from repro.core.refined import RefinedDeanonymizer
from repro.core.results import DAResult
from repro.graph.uda import UDAGraph


class StylometryBaseline:
    """One global classifier over the whole auxiliary population.

    It reads the refined phase's ``classifier``, ``use_structural_features``
    and ``seed`` from ``config``, a :class:`~repro.core.config.DeHealthConfig`,
    overridden by any given as keywords:
    ``StylometryBaseline(classifier="knn")``.  Bad values raise
    :class:`~repro.errors.ConfigError`.
    """

    def __init__(self, config: "DeHealthConfig | None" = None, **knobs) -> None:
        self.config = replace(config or DeHealthConfig(), **knobs)
        self.config.validate()

    def deanonymize(
        self, anonymized: UDAGraph, auxiliary: UDAGraph
    ) -> DAResult:
        """Train once on Δ2, classify every user of Δ1."""
        phase = RefinedDeanonymizer(anonymized, auxiliary, self.config)
        scaler, clf = phase.fit_classifier(*phase.training_set(auxiliary.users))

        predictions: dict = {}
        for u in anonymized.users:
            test_X = phase.anonymized_rows(u)
            if test_X.size == 0:
                predictions[u] = None
                continue
            scores = clf.predict_scores(scaler.transform(test_X))
            totals = scores.sum(axis=0)
            predictions[u] = str(clf.classes_[int(np.argmax(totals))])
        return DAResult(predictions=predictions)
