"""Unit tests for the Stylometry comparison baseline."""

import hashlib
import json

import pytest

from repro.core import StylometryBaseline
from repro.errors import ConfigError
from repro.forum import closed_world_split, select_users_with_posts
from repro.graph import UDAGraph


@pytest.fixture(scope="module")
def baseline_setup(tiny_corpus, extractor):
    sel = select_users_with_posts(tiny_corpus, n_users=10, min_posts=4, seed=11)
    split = closed_world_split(sel, aux_fraction=0.5, seed=12)
    anon = UDAGraph(split.anonymized, extractor=extractor)
    aux = UDAGraph(split.auxiliary, extractor=extractor)
    return split, anon, aux


@pytest.fixture(scope="module")
def pin_graphs(tiny_corpus, extractor):
    """40 users with two posts or more: few enough posts that the baseline
    errs often and its predictions tell the classifiers apart."""
    sel = select_users_with_posts(tiny_corpus, n_users=40, min_posts=2, seed=11)
    split = closed_world_split(sel, aux_fraction=0.5, seed=12)
    return (
        UDAGraph(split.anonymized, extractor=extractor),
        UDAGraph(split.auxiliary, extractor=extractor),
    )


#: (classifier, structural features, seed) -> the first 16 hex digits of
#: the sha256 of the sorted-key JSON of the baseline's predictions on the
#: pin split.
PREDICTION_PINS = {
    ("smo", True, 0): "980e6ae763327add",
    ("smo", True, 3): "bf245722a44a6246",
    ("smo", False, 0): "d28126e439101bac",
    ("smo", False, 3): "d28126e439101bac",
    ("knn", True, 0): "22a39deffdd1fc82",
    ("knn", False, 0): "22a39deffdd1fc82",
    ("rlsc", True, 0): "40d08f0bd2b8d5ba",
    ("rlsc", False, 0): "78410cd05482316f",
    ("centroid", True, 0): "aa0965003cd1e76f",
    ("centroid", False, 0): "f03fb48521f163d7",
}


class TestPredictionPin:
    @pytest.mark.parametrize(
        "case", list(PREDICTION_PINS), ids=lambda case: "-".join(map(str, case))
    )
    def test_predictions_match_pin(self, pin_graphs, case):
        classifier, structural, seed = case
        baseline = StylometryBaseline(
            classifier=classifier, use_structural_features=structural, seed=seed
        )
        predictions = baseline.deanonymize(*pin_graphs).predictions
        payload = json.dumps(predictions, sort_keys=True).encode("utf-8")
        assert hashlib.sha256(payload).hexdigest()[:16] == PREDICTION_PINS[case]


class TestStylometryBaseline:
    def test_every_user_decided(self, baseline_setup):
        split, anon, aux = baseline_setup
        result = StylometryBaseline(classifier="knn").deanonymize(anon, aux)
        assert set(result.predictions) == set(split.anonymized.user_ids())
        # the baseline has no rejection option
        assert all(v is not None for v in result.predictions.values())

    def test_beats_random(self, baseline_setup):
        split, anon, aux = baseline_setup
        result = StylometryBaseline(classifier="knn").deanonymize(anon, aux)
        assert result.accuracy(split.truth) > 1.0 / aux.n_users

    def test_bad_classifier(self):
        with pytest.raises(ConfigError):
            StylometryBaseline(classifier="gpt")

    def test_centroid_variant_runs(self, baseline_setup):
        split, anon, aux = baseline_setup
        result = StylometryBaseline(classifier="centroid").deanonymize(anon, aux)
        assert len(result.predictions) == anon.n_users
