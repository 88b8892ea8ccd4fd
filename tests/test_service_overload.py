"""Overload posture of the request path: buckets, gate, watchdog, breaker.

Covers the service-level overload controls end to end:

- ingest hardening: ``CONTENT_LENGTH`` abuse (garbage, negative,
  oversized) never reaches a handler, corpus uploads reject malformed
  JSONL with line numbers, and generation knobs are capped;
- durable token buckets: 429s carry an integer deficit-derived
  ``Retry-After`` and a ``"retriable": true`` envelope, tenants are
  isolated, and **two apps sharing one state directory enforce a single
  combined budget per tenant** (the multi-server acceptance test);
- admission gate: a full gate sheds with a retriable 503 instead of
  queueing unboundedly, and recovers once the slot frees;
- watchdog deadlines: per-request and app-default deadlines surface as a
  structured 504, and deadline expiry never trips a circuit breaker;
- circuit breaker: consecutive fatal failures fail fast per corpus,
  half-open probes admit exactly one caller, success closes the circuit.
"""

import sqlite3

import pytest

from repro.api import AttackRequest, Engine
from repro.api.protocol import request_hash
from repro.core.config import DeHealthConfig
from repro.core.deadline import Deadline, check_deadline, deadline_scope
from repro.errors import CircuitOpenError, ConfigError, DeadlineExceeded
from repro.forum.models import ForumDataset, User
from repro.forum.store import dumps_dataset, loads_dataset
from repro.service import CircuitBreaker, call_app, create_app
from repro.store import StateStore

ATTACK_BODY = {
    "corpus": "tiny",
    "split_seed": 102,
    "top_k": 5,
    "n_landmarks": 5,
    "classifier": "knn",
    "ks": [1, 5],
    "refined": False,
}


def poison_corpus(name: str = "poison") -> ForumDataset:
    """Users but no posts: every attack fails fatally (EmptyDatasetError)."""
    dataset = ForumDataset(name)
    for i in range(6):
        dataset.add_user(
            User(user_id=f"u{i}", username=f"user-{i}", profile={}, avatar_id=None)
        )
    return dataset


@pytest.fixture()
def app(tiny_corpus):
    engine = Engine()
    engine.register("tiny", tiny_corpus)
    application = create_app(engine, job_workers=1)
    yield application
    application.close(drain_s=1.0)


class TestIngestHardening:
    """Satellite: the request-body read is bounded and structured."""

    def test_garbage_content_length_is_400(self, app):
        res = call_app(
            app, "POST", "/generate", {"users": 12},
            environ_overrides={"CONTENT_LENGTH": "banana"},
        )
        assert res.status == 400
        assert res.json["error"]["type"] == "ConfigError"
        assert "CONTENT_LENGTH" in res.json["error"]["message"]

    def test_negative_content_length_is_400(self, app):
        res = call_app(
            app, "POST", "/generate", {"users": 12},
            environ_overrides={"CONTENT_LENGTH": "-7"},
        )
        assert res.status == 400
        assert "CONTENT_LENGTH" in res.json["error"]["message"]

    def test_oversized_content_length_is_413_with_retry_after(self, app):
        res = call_app(
            app, "POST", "/attack", ATTACK_BODY,
            environ_overrides={"CONTENT_LENGTH": str(10**9)},
        )
        assert res.status == 413
        assert res.json["error"]["type"] == "PayloadTooLargeError"
        assert int(res.headers["Retry-After"]) >= 1
        # a 413 is not retriable as-is: the same body would be shed again
        assert "retriable" not in res.json["error"]

    def test_body_cap_is_configurable(self, tiny_corpus):
        engine = Engine()
        engine.register("tiny", tiny_corpus)
        application = create_app(engine, job_workers=1, max_body_bytes=64)
        try:
            res = call_app(
                application, "POST", "/attack", ATTACK_BODY
            )  # real body over the 64-byte cap, honest CONTENT_LENGTH
            assert res.status == 413
        finally:
            application.close(drain_s=1.0)

    def test_missing_content_length_means_empty_body(self, app):
        res = call_app(
            app, "POST", "/sweep", None,
            environ_overrides={"CONTENT_LENGTH": ""},
        )
        assert res.status == 400  # empty body -> no requests, structured
        assert res.json["error"]["type"] == "ConfigError"

    def test_generate_users_cap(self, app):
        res = call_app(app, "POST", "/generate", {"users": 10**6})
        assert res.status == 400
        assert "users" in res.json["error"]["message"]

    def test_generate_rejects_bad_name(self, app):
        res = call_app(
            app, "POST", "/generate", {"users": 12, "name": "x" * 200}
        )
        assert res.status == 400

    def test_corpora_upload_roundtrip(self, app, small_corpus):
        res = call_app(
            app, "POST", "/corpora",
            {"name": "uploaded", "jsonl": dumps_dataset(small_corpus)},
        )
        assert res.status == 200
        assert res.json["corpus"] == "uploaded"
        assert res.json["users"] == small_corpus.n_users
        health = call_app(app, "GET", "/healthz")
        assert "uploaded" in health.json["corpora"]

    def test_corpora_upload_malformed_line_is_400_with_lineno(self, app):
        jsonl = '{"kind": "meta", "name": "x"}\n{not json\n'
        res = call_app(app, "POST", "/corpora", {"jsonl": jsonl})
        assert res.status == 400
        assert "request body:2" in res.json["error"]["message"]

    def test_corpora_upload_unknown_kind_is_400(self, app):
        res = call_app(
            app, "POST", "/corpora",
            {"jsonl": '{"kind": "meta", "name": "x"}\n{"kind": "gremlin"}\n'},
        )
        assert res.status == 400
        assert "gremlin" in res.json["error"]["message"]

    def test_corpora_upload_missing_fields_is_400(self, app):
        res = call_app(
            app, "POST", "/corpora",
            {"jsonl": '{"kind": "meta", "name": "x"}\n{"kind": "user"}\n'},
        )
        assert res.status == 400
        assert "missing fields" in res.json["error"]["message"]

    def test_loads_dataset_user_cap_checked_while_counting(self):
        text = dumps_dataset(poison_corpus())
        with pytest.raises(ConfigError, match="2-user cap"):
            loads_dataset(text, source="cap-test", max_users=2)

    def test_loads_dataset_post_cap(self, small_corpus):
        text = dumps_dataset(small_corpus)
        with pytest.raises(ConfigError, match="1-post cap"):
            loads_dataset(text, source="cap-test", max_posts=1)


class TestTokenBucket429:
    """Satellite: Retry-After comes from the token deficit, not a guess."""

    @pytest.fixture()
    def limited_app(self, tiny_corpus):
        engine = Engine()
        engine.register("tiny", tiny_corpus)
        application = create_app(
            engine, job_workers=1, rate_limit_per_s=0.001, rate_burst=2
        )
        yield application
        application.close(drain_s=1.0)

    def test_burst_then_deficit_derived_retry_after(self, limited_app):
        for i in range(2):
            res = call_app(
                limited_app, "POST", "/generate",
                {"users": 12, "seed": i, "name": f"g{i}"}, tenant="acme",
            )
            assert res.status == 200, res.json
        res = call_app(
            limited_app, "POST", "/generate",
            {"users": 12, "seed": 9, "name": "g9"}, tenant="acme",
        )
        assert res.status == 429
        assert res.json["error"]["type"] == "RateLimitedError"
        assert res.json["error"]["retriable"] is True
        retry_after = int(res.headers["Retry-After"])  # integral or raises
        # one token at 0.001/s is ~1000s away: the deficit-derived hint,
        # nothing like the old queue-depth heuristic's <= 60s
        assert 900 <= retry_after <= 1000

    def test_tenants_are_isolated(self, limited_app):
        for i in range(3):
            call_app(
                limited_app, "POST", "/generate",
                {"users": 12, "seed": i, "name": f"a{i}"}, tenant="acme",
            )
        res = call_app(
            limited_app, "POST", "/generate",
            {"users": 12, "seed": 0, "name": "other0"}, tenant="other",
        )
        assert res.status == 200, res.json

    def test_linkage_is_charged(self, limited_app):
        for i in range(2):
            call_app(
                limited_app, "POST", "/generate",
                {"users": 12, "seed": i, "name": f"b{i}"}, tenant="acme",
            )
        res = call_app(
            limited_app, "POST", "/linkage", {"users": 50}, tenant="acme"
        )
        assert res.status == 429
        assert int(res.headers["Retry-After"]) >= 1

    def test_linkage_validates_before_charging(self, limited_app):
        res = call_app(
            limited_app, "POST", "/linkage", {"users": 10**6}, tenant="fresh"
        )
        assert res.status == 400  # 400s burn no budget
        res = call_app(
            limited_app, "POST", "/linkage", {"users": "many"}, tenant="fresh"
        )
        assert res.status == 400

    def test_shed_counters_surface_in_stats(self, limited_app):
        for i in range(4):
            call_app(
                limited_app, "POST", "/generate",
                {"users": 12, "seed": i, "name": f"c{i}"}, tenant="acme",
            )
        stats = call_app(limited_app, "GET", "/stats").json
        overload = stats["overload"]
        assert overload["limiter"]["refill_per_s"] == 0.001
        assert overload["shed"]["429"] >= 1
        assert set(overload["shed"]) == {"413", "429", "503", "504"}

    def test_two_servers_share_one_tenant_budget(self, tmp_path):
        """Acceptance: one combined bucket across two live apps."""
        apps = []
        for _ in range(2):
            engine = Engine(store=StateStore.at_dir(tmp_path))
            apps.append(
                create_app(
                    engine, job_workers=1,
                    rate_limit_per_s=0.001, rate_burst=5,
                )
            )
        try:
            admitted, sheds = 0, 0
            for i in range(16):
                res = call_app(
                    apps[i % 2], "POST", "/generate",
                    {"users": 12, "seed": i, "name": f"s{i}"}, tenant="acme",
                )
                if res.status == 200:
                    admitted += 1
                else:
                    assert res.status == 429
                    assert int(res.headers["Retry-After"]) >= 1
                    sheds += 1
            # burst=5 and ~zero refill over the test window: the two
            # servers collectively admit exactly one bucket's worth
            assert admitted == 5
            assert sheds == 11
        finally:
            for application in apps:
                application.close(drain_s=1.0)


class TestAdmissionGate:
    @pytest.fixture()
    def gated_app(self, tiny_corpus):
        engine = Engine()
        engine.register("tiny", tiny_corpus)
        application = create_app(
            engine, job_workers=1, max_sync_attacks=1, admission_wait_s=0.05
        )
        yield application
        application.close(drain_s=1.0)

    def test_full_gate_sheds_retriable_503(self, gated_app):
        assert gated_app._gate.acquire(timeout=1.0)  # occupy the only slot
        try:
            res = call_app(gated_app, "POST", "/attack", ATTACK_BODY)
            assert res.status == 503
            assert res.json["error"]["type"] == "ServiceBusyError"
            assert res.json["error"]["retriable"] is True
            assert int(res.headers["Retry-After"]) >= 1
        finally:
            gated_app._gate.release()

    def test_gate_recovers_after_release(self, gated_app):
        gated_app._gate.acquire(timeout=1.0)
        call_app(gated_app, "POST", "/attack", ATTACK_BODY)
        gated_app._gate.release()
        # the slot is free again: the request passes admission and dies on
        # its (tiny) deadline instead — proving the gate released cleanly
        res = call_app(
            gated_app, "POST", "/attack",
            {**ATTACK_BODY, "request_deadline_s": 1e-6},
        )
        assert res.status == 504
        stats = call_app(gated_app, "GET", "/stats").json
        assert stats["overload"]["sync_active"] == 0

    def test_admission_context_tracks_active(self, gated_app):
        with gated_app._admission():
            assert gated_app._sync_active == 1
        assert gated_app._sync_active == 0

    def test_constructor_validates_knobs(self):
        with pytest.raises(ConfigError):
            create_app(max_sync_attacks=0)
        with pytest.raises(ConfigError):
            create_app(admission_wait_s=-1)
        with pytest.raises(ConfigError):
            create_app(max_body_bytes=0)
        with pytest.raises(ConfigError):
            create_app(request_deadline_s=0)


class TestWatchdogDeadline:
    def test_request_level_deadline_is_504(self, app):
        res = call_app(
            app, "POST", "/attack",
            {**ATTACK_BODY, "request_deadline_s": 1e-6},
        )
        assert res.status == 504
        assert res.json["error"]["type"] == "DeadlineExceeded"
        assert res.json["error"]["retriable"] is True
        assert int(res.headers["Retry-After"]) >= 1
        assert "deadline exceeded at" in res.json["error"]["message"]

    def test_app_default_deadline_applies(self, tiny_corpus):
        engine = Engine()
        engine.register("tiny", tiny_corpus)
        application = create_app(
            engine, job_workers=1, request_deadline_s=1e-6
        )
        try:
            res = call_app(application, "POST", "/attack", ATTACK_BODY)
            assert res.status == 504
            # async submission is not watchdogged: jobs have their own
            # lease/deadline machinery in the runner
            res = call_app(
                application, "POST", "/attack", {**ATTACK_BODY, "async": True}
            )
            assert res.status == 202
        finally:
            application.close(drain_s=2.0)

    def test_sweep_honours_deadline(self, app):
        res = call_app(
            app, "POST", "/sweep",
            {
                "base": {**ATTACK_BODY, "request_deadline_s": 1e-6},
                "grid": {"top_k": [3, 5]},
            },
        )
        assert res.status == 504

    def test_deadline_scope_nesting_keeps_sooner_expiry(self):
        with deadline_scope(1e-6):
            with deadline_scope(3600.0):  # cannot loosen the outer budget
                with pytest.raises(DeadlineExceeded):
                    check_deadline("unit:test")

    def test_check_deadline_is_noop_without_scope(self):
        check_deadline("unit:idle")  # no ambient deadline, no error

    def test_deadline_validates_seconds(self):
        with pytest.raises(ConfigError):
            Deadline(0)
        with pytest.raises(ConfigError):
            DeHealthConfig(request_deadline_s=-1.0).validate()

    def test_wire_format_is_stable_when_unset(self):
        """Satellite: historical request hashes must not shift."""
        request = AttackRequest(corpus="tiny")
        payload = request.to_dict()
        assert "request_deadline_s" not in payload
        assert request_hash(AttackRequest.from_dict(payload)) == request_hash(
            request
        )
        timed = request.variant(request_deadline_s=2.5)
        assert timed.to_dict()["request_deadline_s"] == 2.5
        assert request_hash(timed) != request_hash(request)


class TestCircuitBreaker:
    def test_unit_trip_cooldown_probe_cycle(self):
        clock = {"t": 0.0}
        breaker = CircuitBreaker(
            threshold=2, cooldown_s=10.0, clock=lambda: clock["t"]
        )
        breaker.record_failure("fp")
        breaker.allow("fp")  # one failure: still closed
        breaker.record_failure("fp")
        with pytest.raises(CircuitOpenError) as err:
            breaker.allow("fp")
        assert 0 < err.value.retry_after_s <= 10.0
        clock["t"] = 11.0
        breaker.allow("fp")  # half-open: exactly one probe
        with pytest.raises(CircuitOpenError):
            breaker.allow("fp")  # competitor while the probe is in flight
        breaker.record_success("fp")
        breaker.allow("fp")  # closed again
        assert breaker.describe()["trips"] == 1

    def test_unit_failed_probe_waits_full_cooldown(self):
        clock = {"t": 0.0}
        breaker = CircuitBreaker(
            threshold=1, cooldown_s=10.0, clock=lambda: clock["t"]
        )
        breaker.record_failure("fp")
        clock["t"] = 11.0
        breaker.allow("fp")
        breaker.record_failure("fp")  # the probe failed fatally again
        clock["t"] = 12.0
        with pytest.raises(CircuitOpenError):
            breaker.allow("fp")  # fresh cooldown restarted at t=11
        clock["t"] = 22.0
        breaker.allow("fp")

    def test_unit_abandon_releases_probe_without_judgment(self):
        clock = {"t": 0.0}
        breaker = CircuitBreaker(
            threshold=1, cooldown_s=5.0, clock=lambda: clock["t"]
        )
        breaker.record_failure("fp")
        clock["t"] = 6.0
        breaker.allow("fp")
        breaker.abandon("fp")  # e.g. the probe hit its deadline
        breaker.allow("fp")  # next caller may probe immediately

    def test_unit_validates_knobs(self):
        with pytest.raises(ConfigError):
            CircuitBreaker(threshold=0)
        with pytest.raises(ConfigError):
            CircuitBreaker(cooldown_s=0)

    @pytest.fixture()
    def poisoned_app(self):
        engine = Engine()
        engine.register("poison", poison_corpus("poison"))
        engine.register("poison2", poison_corpus("poison2"))
        application = create_app(
            engine, job_workers=1,
            breaker_threshold=2, breaker_cooldown_s=60.0,
        )
        yield application
        application.close(drain_s=1.0)

    def test_repeated_fatal_failures_open_the_circuit(self, poisoned_app):
        body = {**ATTACK_BODY, "corpus": "poison"}
        for _ in range(2):
            res = call_app(poisoned_app, "POST", "/attack", body)
            assert res.status == 422  # deterministic pipeline failure
            assert res.json["error"]["type"] == "EmptyDatasetError"
        res = call_app(poisoned_app, "POST", "/attack", body)
        assert res.status == 503  # fail-fast, no fit burned
        assert res.json["error"]["type"] == "CircuitOpenError"
        assert res.json["error"]["retriable"] is True
        assert 1 <= int(res.headers["Retry-After"]) <= 60
        # the breaker is keyed per corpus fingerprint: a different corpus
        # still reaches the engine (and fails on its own merits)
        res = call_app(
            poisoned_app, "POST", "/attack", {**ATTACK_BODY, "corpus": "poison2"}
        )
        assert res.status == 422
        stats = call_app(poisoned_app, "GET", "/stats").json
        assert len(stats["overload"]["breaker"]["open"]) == 1
        assert stats["overload"]["breaker"]["trips"] == 1

    def test_sweep_refused_by_a_later_circuit_releases_earlier_probes(self):
        """A sync sweep checks its corpora's breakers in fingerprint order;
        when a later circuit is still open, the half-open probe already
        taken for an earlier corpus must not stay in flight forever."""
        engine = Engine()
        engine.register("poison", poison_corpus("poison"))
        engine.register("poison2", poison_corpus("poison2"))
        application = create_app(
            engine, job_workers=1, breaker_threshold=1, breaker_cooldown_s=10.0
        )
        clock = {"t": 0.0}
        application.breaker._clock = lambda: clock["t"]
        first, second = sorted(("poison", "poison2"), key=engine.fingerprint)
        try:
            for t, corpus in ((0.0, first), (5.0, second)):
                clock["t"] = t
                res = call_app(
                    application, "POST", "/attack", {**ATTACK_BODY, "corpus": corpus}
                )
                assert res.status == 422
            clock["t"] = 12.0  # first past its cooldown, second still open
            sweep = {"requests": [
                {**ATTACK_BODY, "corpus": first}, {**ATTACK_BODY, "corpus": second},
            ]}
            res = call_app(application, "POST", "/sweep", sweep)
            assert res.status == 503
            assert "circuit open" in res.json["error"]["message"]
            for t in (1000.0, 1011.0):
                # each cooldown later, one probe is admitted and fails on
                # its merits (before the fix: a half-open 503, for good)
                clock["t"] = t
                res = call_app(
                    application, "POST", "/attack", {**ATTACK_BODY, "corpus": first}
                )
                assert res.status == 422
        finally:
            application.close(drain_s=1.0)

    def test_deadline_expiry_never_trips_the_breaker(self, tiny_corpus):
        engine = Engine()
        engine.register("tiny", tiny_corpus)
        application = create_app(
            engine, job_workers=1, breaker_threshold=2
        )
        try:
            body = {**ATTACK_BODY, "request_deadline_s": 1e-6}
            for _ in range(3):
                res = call_app(application, "POST", "/attack", body)
                assert res.status == 504
            stats = call_app(application, "GET", "/stats").json
            assert stats["overload"]["breaker"]["open"] == []
        finally:
            application.close(drain_s=1.0)

    def test_charge_outage_is_503_not_500(self, app, monkeypatch):
        def explode(tenant, cost=1.0):
            raise RuntimeError("db on fire")

        monkeypatch.setattr(app.limiter, "acquire", explode)
        res = call_app(app, "POST", "/generate", {"users": 12})
        assert res.status == 503
        assert res.json["error"]["retriable"] is True

    def test_request_counter_outage_is_503_not_500(self, app, monkeypatch):
        # every request bumps its tenant's counter before dispatch, so a
        # locked database fails there first, on any route
        def locked(tenant, column, by=1):
            raise sqlite3.OperationalError("database is locked")

        with monkeypatch.context() as patch:
            patch.setattr(app.state, "bump_tenant", locked)
            res = call_app(app, "GET", "/healthz")
        assert res.status == 503
        assert res.headers["Retry-After"] == "1"
        assert res.json["error"] == {
            "type": "ServiceBusyError",
            "message": "request counter unavailable: database is locked",
            "retriable": True,
        }
        stats = call_app(app, "GET", "/stats").json
        assert stats["overload"]["shed"]["503"] == 1

    def test_admission_interruption_is_503_not_500(self, app, monkeypatch):
        def fire(seam):
            # only the admission seam misbehaves; the commit/refill seams
            # stay healthy so the failure is attributable
            if seam == "service.request":
                raise OSError("injected")

        # non-Repro failures inside the admitted section must map to a
        # retriable 503, releasing the slot on the way out
        monkeypatch.setattr("repro.testing.faults.fire", fire)
        res = call_app(app, "POST", "/attack", ATTACK_BODY)
        assert res.status == 503
        assert res.json["error"]["type"] == "ServiceBusyError"
        assert app._sync_active == 0
