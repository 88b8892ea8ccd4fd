"""WSGI round-trip tests for the JSON service layer."""

import io
import json
import sys

import pytest

from repro import __version__
from repro.api import Engine, expand_grid
from repro.service import MAX_SWEEP_REQUESTS, call_app, create_app
from repro.errors import ConfigError


@pytest.fixture(scope="module")
def app(tiny_corpus):
    engine = Engine()
    engine.register("tiny", tiny_corpus)
    return create_app(engine)


ATTACK_BODY = {
    "corpus": "tiny",
    "split_seed": 102,
    "top_k": 5,
    "n_landmarks": 5,
    "classifier": "knn",
    "ks": [1, 5],
}


class TestRoutes:
    def test_healthz(self, app):
        res = call_app(app, "GET", "/healthz")
        assert res.status == 200
        assert res.json["status"] == "ok"
        assert res.json["version"] == __version__
        assert "tiny" in res.json["corpora"]
        assert res.headers["Content-Type"].startswith("application/json")

    def test_generate(self, app):
        res = call_app(
            app,
            "POST",
            "/generate",
            {"preset": "webmd", "users": 25, "seed": 4, "name": "gen"},
        )
        assert res.status == 200
        assert res.json["users"] == 25
        assert res.json["corpus"] == "gen"

    def test_attack_returns_rates_and_accuracy(self, app):
        """Acceptance: POST /attack returns top-k success rates and refined
        DA accuracy as JSON for a generated corpus."""
        res = call_app(app, "POST", "/attack", ATTACK_BODY)
        assert res.status == 200
        rates = res.json["success_rates"]
        assert set(rates) == {"1", "5"}
        assert all(0.0 <= v <= 1.0 for v in rates.values())
        assert 0.0 <= res.json["refined_accuracy"] <= 1.0
        assert res.json["n_anonymized"] > 0

    def test_sweep_explicit_requests(self, app):
        body = {
            "requests": [
                {**ATTACK_BODY, "top_k": k, "refined": False, "ks": [1, k]}
                for k in (3, 5, 10)
            ]
        }
        res = call_app(app, "POST", "/sweep", body)
        assert res.status == 200
        assert res.json["count"] == 3
        assert [r["request"]["top_k"] for r in res.json["reports"]] == [3, 5, 10]

    def test_sweep_grid(self, app):
        res = call_app(
            app,
            "POST",
            "/sweep",
            {
                "base": {**ATTACK_BODY, "refined": False},
                "grid": {"top_k": [3, 5], "selection": ["direct", "matching"]},
            },
        )
        assert res.status == 200
        assert res.json["count"] == 4
        combos = {
            (r["request"]["top_k"], r["request"]["selection"])
            for r in res.json["reports"]
        }
        assert combos == {(3, "direct"), (3, "matching"), (5, "direct"), (5, "matching")}

    def test_sweep_shares_one_fit(self, tiny_corpus):
        engine = Engine()
        engine.register("tiny", tiny_corpus)
        app = create_app(engine)
        res = call_app(
            app,
            "POST",
            "/sweep",
            {
                "base": {**ATTACK_BODY, "refined": False},
                "grid": {"top_k": [3, 5, 10]},
            },
        )
        assert res.status == 200
        session = call_app(app, "GET", "/stats").json["sessions"][0]
        assert session["graph_builds"] == 1
        assert session["similarity_builds"]["combined"] == 1

    def test_attack_with_blocking_and_cache_stats(self, tiny_corpus):
        engine = Engine()
        engine.register("tiny", tiny_corpus)
        app = create_app(engine)
        res = call_app(
            app,
            "POST",
            "/attack",
            {**ATTACK_BODY, "refined": False, "blocking": "union",
             "blocking_keep": 0.5},
        )
        assert res.status == 200
        assert res.json["request"]["blocking"] == "union"
        stats = call_app(app, "GET", "/stats").json
        session = stats["sessions"][0]
        assert session["similarity_builds"]["blocking"] == 1
        assert session["similarity_builds"]["combined_pairs"] == 1
        assert session["similarity_entries"] > 0
        assert stats["cache_bytes"] == session["similarity_bytes"] > 0

    def test_attack_bad_blocking_is_400(self, app):
        res = call_app(
            app, "POST", "/attack", {**ATTACK_BODY, "blocking": "bogus"}
        )
        assert res.status == 400
        assert "blocking" in res.json["error"]["message"]

    def test_sweep_workers_knob(self, tiny_corpus):
        """`workers: N` shards the sweep; reports match the serial path on
        every non-volatile field."""
        body = {
            "base": {**ATTACK_BODY, "refined": False},
            "grid": {"top_k": [3, 5], "split_seed": [102, 103]},
        }
        serial_engine = Engine()
        serial_engine.register("tiny", tiny_corpus)
        serial = call_app(create_app(serial_engine), "POST", "/sweep", body)
        parallel_engine = Engine()
        parallel_engine.register("tiny", tiny_corpus)
        parallel = call_app(
            create_app(parallel_engine), "POST", "/sweep", {**body, "workers": 2}
        )
        assert serial.status == parallel.status == 200
        assert serial.json["workers"] == 1
        assert parallel.json["workers"] == 2
        assert parallel.json["count"] == 4

        def canonical(payload):
            from repro.api import VOLATILE_REPORT_FIELDS

            reports = [dict(r) for r in payload["reports"]]
            for report in reports:
                for name in VOLATILE_REPORT_FIELDS:
                    report.pop(name, None)
            return reports

        assert canonical(serial.json) == canonical(parallel.json)

    def test_stats(self, app):
        res = call_app(app, "GET", "/stats")
        assert res.status == 200
        assert res.json["version"] == __version__
        assert "tiny" in res.json["corpora"]
        json.dumps(res.json)  # fully JSON-safe

    def test_linkage(self, app):
        res = call_app(app, "POST", "/linkage", {"users": 60, "seed": 2})
        assert res.status == 200
        assert res.json["users"] == 60
        assert "avatar_link_rate" in res.json


class TestErrors:
    def test_unknown_route_404(self, app):
        assert call_app(app, "GET", "/nope").status == 404

    def test_wrong_method_405(self, app):
        assert call_app(app, "POST", "/healthz").status == 405
        assert call_app(app, "GET", "/attack").status == 405

    def test_malformed_json_400(self, app):
        raw = b"{not json"
        environ = {
            "REQUEST_METHOD": "POST",
            "PATH_INFO": "/attack",
            "CONTENT_LENGTH": str(len(raw)),
            "wsgi.input": io.BytesIO(raw),
            "wsgi.errors": sys.stderr,
        }
        captured = {}

        def start_response(status, headers, exc_info=None):
            captured["status"] = int(status.split(" ", 1)[0])

        body = b"".join(app(environ, start_response))
        assert captured["status"] == 400
        payload = json.loads(body)
        assert payload["error"]["type"] == "ConfigError"
        assert "malformed JSON" in payload["error"]["message"]

    def test_non_object_body_400(self, app):
        res = call_app(app, "POST", "/attack", [1, 2, 3])
        assert res.status == 400

    def test_config_error_maps_to_400(self, app):
        res = call_app(app, "POST", "/attack", {**ATTACK_BODY, "top_k": 0})
        assert res.status == 400
        assert res.json["error"]["type"] == "ConfigError"

    def test_unknown_field_400(self, app):
        res = call_app(app, "POST", "/attack", {**ATTACK_BODY, "topk": 5})
        assert res.status == 400
        assert "unknown" in res.json["error"]["message"]

    def test_unknown_corpus_400(self, app):
        res = call_app(app, "POST", "/attack", {**ATTACK_BODY, "corpus": "ghost"})
        assert res.status == 400
        assert "unknown corpus" in res.json["error"]["message"]

    def test_generate_bad_preset_400(self, app):
        res = call_app(app, "POST", "/generate", {"preset": "reddit"})
        assert res.status == 400

    def test_generate_unknown_key_400(self, app):
        res = call_app(app, "POST", "/generate", {"userz": 10})
        assert res.status == 400

    def test_sweep_bad_base_400(self, app):
        res = call_app(
            app, "POST", "/sweep", {"base": [1, 2], "grid": {"top_k": [5]}}
        )
        assert res.status == 400
        assert "base" in res.json["error"]["message"]

    def test_sweep_needs_requests_or_grid(self, app):
        assert call_app(app, "POST", "/sweep", {}).status == 400
        assert (
            call_app(
                app, "POST", "/sweep",
                {"requests": [ATTACK_BODY], "grid": {"top_k": [1]}},
            ).status
            == 400
        )

    def test_sweep_bad_workers_400(self, app):
        from repro.service import MAX_SERVICE_WORKERS

        body = {
            "base": {**ATTACK_BODY, "refined": False},
            "grid": {"top_k": [3]},
        }
        for workers in (0, -1, "four", 2.5, None, MAX_SERVICE_WORKERS + 1, True):
            res = call_app(app, "POST", "/sweep", {**body, "workers": workers})
            assert res.status == 400, workers
            assert "workers" in res.json["error"]["message"]

    def test_sweep_cap(self, app):
        res = call_app(
            app,
            "POST",
            "/sweep",
            {
                "base": ATTACK_BODY,
                "grid": {"top_k": list(range(1, MAX_SWEEP_REQUESTS + 2))},
            },
        )
        assert res.status == 400
        assert "cap" in res.json["error"]["message"]

    def test_linkage_bad_users_400(self, app):
        assert call_app(app, "POST", "/linkage", {"users": "many"}).status == 400


class TestGridExpansion:
    def test_expand_grid(self):
        requests = expand_grid(
            {"corpus": "c"}, {"top_k": [1, 2], "classifier": ["knn"]}
        )
        assert len(requests) == 2
        assert {r.top_k for r in requests} == {1, 2}
        assert all(r.corpus == "c" and r.classifier == "knn" for r in requests)

    def test_expand_grid_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            expand_grid({}, {})
        with pytest.raises(ConfigError):
            expand_grid({}, {"top_k": []})
        with pytest.raises(ConfigError):
            expand_grid({}, {"not_a_field": [1]})


class TestBlockingObservability:
    """GET /stats surfaces per-policy blocking and post-matrix accounting."""

    def test_stats_report_blocking_and_post_matrices(self, tiny_corpus):
        engine = Engine()
        engine.register("tiny", tiny_corpus)
        app = create_app(engine)
        body = {
            **ATTACK_BODY,
            "split_seed": 401,
            "blocking": "lsh",
            "blocking_lsh_bands": 24,
            "blocking_seed": 2,
        }
        res = call_app(app, "POST", "/attack", body)
        assert res.status == 200
        assert res.json["request"]["blocking"] == "lsh"
        assert res.json["request"]["blocking_lsh_bands"] == 24
        stats = call_app(app, "GET", "/stats").json
        assert stats["blocking"]["lsh"]["masks_built"] == 1
        assert stats["blocking"]["lsh"]["candidates"] > 0
        assert stats["blocking"]["lsh"]["generation_s"] >= 0.0
        assert stats["post_matrix_bytes"] > 0  # refined ran by default
        session = stats["sessions"][0]
        assert session["post_matrix_entries"] > 0
        by_policy = {e["policy"]: e for e in session["blocking"]}
        assert by_policy["lsh"]["lsh_collision_touches"] > 0

    def test_attack_accepts_composite_policy(self, tiny_corpus):
        engine = Engine()
        engine.register("tiny", tiny_corpus)
        app = create_app(engine)
        body = {
            **ATTACK_BODY,
            "split_seed": 402,
            "refined": False,
            "blocking": "lsh+degree_band",
        }
        res = call_app(app, "POST", "/attack", body)
        assert res.status == 200
        assert res.json["request"]["blocking"] == "lsh+degree_band"
