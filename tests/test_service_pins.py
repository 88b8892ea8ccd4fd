"""The service tier's wire and job rows, pinned by digest.

``TestWirePins`` drives an in-memory app through one fixed script that
reaches every route and every status a request can get (200, 202, 400,
404, 405, 409, 413, 422, 429, 503 and 504), then a file-backed app
through a report-store miss and hit.  Each response is pinned as the
first 16 hex digits of a sha256 over its status, its ``Retry-After`` and
``Content-Type`` headers and its JSON body with the volatile fields
masked.  ``TestJobRowPins`` drives :class:`~repro.store.JobStore` through
ten transitions and digests every row and the resilience counters, with
timestamps masked.  A change to the service tier or the job store must
leave every digest where it is.

Store outages are not pinned here: what status an outage earns is a
decision of its own (``tests/test_service_overload.py`` checks it).
"""

from __future__ import annotations

import hashlib
import io
import json
import re
import time

import pytest

from repro.api import Engine
from repro.forum.models import ForumDataset, User
from repro.forum.store import dumps_dataset
from repro.service import call_app, create_app
from repro.store import StateStore

ATTACK = {
    "corpus": "small",
    "split_seed": 7,
    "top_k": 5,
    "n_landmarks": 5,
    "classifier": "knn",
    "ks": [1, 5],
    "refined": False,
}

#: Keys whose values are wall clock, random or host-specific.
_VOLATILE_KEYS = frozenset({
    "elapsed_ms", "uptime_s", "lease_expires", "deadline", "owner",
    "generation_s", "path", "version",
})

#: Durations that error messages print.
_VOLATILE_TEXT = (
    (re.compile(r"probe in \d+\.\ds"), "probe in <s>"),
    (re.compile(r"\(\d+\.\d+s past the deadline\)"), "(<s> past the deadline)"),
)


def _mask(value, ids: list):
    if isinstance(value, dict):
        return {
            key: "<masked>"
            if item is not None and (key in _VOLATILE_KEYS or key.endswith("_at"))
            else _mask(item, ids)
            for key, item in value.items()
        }
    if isinstance(value, list):
        return [_mask(item, ids) for item in value]
    if isinstance(value, str):
        for index, job_id in enumerate(ids):
            value = value.replace(job_id, f"<job{index}>")
        for pattern, replacement in _VOLATILE_TEXT:
            value = pattern.sub(replacement, value)
    return value


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _response_digest(res, ids: list) -> str:
    return _digest(json.dumps(
        [
            res.status,
            res.headers.get("Retry-After"),
            res.headers.get("Content-Type"),
            _mask(res.json, ids),
        ],
        indent=None,
        sort_keys=True,
    ))


def _poison() -> ForumDataset:
    """Users but no posts: every attack on it fails at fit time (422)."""
    dataset = ForumDataset("poison")
    for i in range(6):
        dataset.add_user(
            User(user_id=f"u{i}", username=f"user-{i}", profile={}, avatar_id=None)
        )
    return dataset


def _raw(payload: bytes) -> dict:
    return {
        "wsgi.input": io.BytesIO(payload),
        "CONTENT_LENGTH": str(len(payload)),
    }


def _run_wire_script(small_corpus, state_dir) -> dict:
    """Each step's response digest and status, keyed by step name."""
    digests: dict = {}
    statuses: dict = {}
    ids: list = []

    def step(name, app, method, path, body=None, **kwargs):
        res = call_app(app, method, path, body, **kwargs)
        job_id = res.json.get("job_id") if isinstance(res.json, dict) else None
        if job_id is not None and job_id not in ids:
            ids.append(job_id)
        digests[name] = _response_digest(res, ids)
        statuses[name] = res.status
        return res

    engine = Engine()
    engine.register("small", small_corpus)
    engine.register("poison", _poison())
    app = create_app(
        engine, job_workers=1, breaker_threshold=1, breaker_cooldown_s=3600.0
    )
    app.limiter.set_limits("capped", 0.001, 1.0)
    try:
        # routing
        step("healthz", app, "GET", "/healthz")
        step("no_route", app, "GET", "/nope")
        step("healthz_post_405", app, "POST", "/healthz")
        step("attack_get_405", app, "GET", "/attack")
        step("jobs_put_405", app, "PUT", "/jobs/abc")
        step("jobs_empty_id_404", app, "GET", "/jobs/")
        step("jobs_nested_404", app, "GET", "/jobs/a/b")
        step("report_bad_id_404", app, "GET", "/reports/xyz")
        step("report_missing_404", app, "GET", "/reports/999")
        step("job_missing_404", app, "GET", "/jobs/missing")
        step("job_cancel_missing_404", app, "DELETE", "/jobs/missing")
        step("bad_tenant_400", app, "GET", "/healthz", tenant="-bad")
        # body parsing
        step("length_garbage_400", app, "POST", "/attack", ATTACK,
             environ_overrides={"CONTENT_LENGTH": "banana"})
        step("length_negative_400", app, "POST", "/attack", ATTACK,
             environ_overrides={"CONTENT_LENGTH": "-3"})
        step("length_over_cap_413", app, "POST", "/attack", ATTACK,
             environ_overrides={"CONTENT_LENGTH": str(64 * 1024 * 1024)})
        step("malformed_json_400", app, "POST", "/attack",
             environ_overrides=_raw(b"{bad"))
        step("body_not_object_400", app, "POST", "/attack", [1, 2])
        # request validation
        step("attack_unknown_corpus_400", app, "POST", "/attack",
             {**ATTACK, "corpus": "nope"})
        step("attack_wrong_type_400", app, "POST", "/attack", {**ATTACK, "top_k": "5"})
        step("attack_bad_async_400", app, "POST", "/attack", {**ATTACK, "async": "yes"})
        step("generate_bad_users_400", app, "POST", "/generate", {"users": "many"})
        step("generate_too_many_400", app, "POST", "/generate", {"users": 99999})
        step("generate_bad_name_400", app, "POST", "/generate", {"name": ""})
        step("generate_unknown_key_400", app, "POST", "/generate", {"bogus": 1})
        step("corpora_empty_400", app, "POST", "/corpora", {"jsonl": ""})
        step("corpora_bad_name_400", app, "POST", "/corpora", {"name": 5, "jsonl": "x"})
        step("corpora_bad_line_400", app, "POST", "/corpora", {"jsonl": "not json"})
        step("linkage_bad_users_400", app, "POST", "/linkage", {"users": "x"})
        step("linkage_too_many_400", app, "POST", "/linkage", {"users": 99999})
        step("sweep_bad_workers_400", app, "POST", "/sweep",
             {"base": ATTACK, "grid": {"top_k": [3]}, "workers": 0})
        step("sweep_workers_type_400", app, "POST", "/sweep",
             {"base": ATTACK, "grid": {"top_k": [3]}, "workers": "2"})
        step("sweep_unknown_key_400", app, "POST", "/sweep", {"base": ATTACK, "x": 1})
        step("sweep_over_cap_400", app, "POST", "/sweep",
             {"base": ATTACK, "grid": {"top_k": list(range(1, 300))}})
        step("jobs_bad_limit_400", app, "GET", "/jobs", query="limit=0")
        step("reports_bad_limit_400", app, "GET", "/reports", query="limit=x")
        # work
        step("generate", app, "POST", "/generate",
             {"users": 12, "seed": 3, "name": "gen"})
        step("corpora_upload", app, "POST", "/corpora",
             {"name": "up", "jsonl": dumps_dataset(small_corpus)})
        step("linkage", app, "POST", "/linkage", {"users": 20, "seed": 1})
        step("attack", app, "POST", "/attack", ATTACK)
        step("attack_again", app, "POST", "/attack", ATTACK)
        step("attack_deadline_504", app, "POST", "/attack",
             {**ATTACK, "request_deadline_s": 1e-6})
        step("sweep_grid", app, "POST", "/sweep",
             {"base": ATTACK, "grid": {"top_k": [3, 5]}})
        step("sweep_list", app, "POST", "/sweep",
             {"requests": [ATTACK, {**ATTACK, "split_seed": 8}]})
        step("sweep_deadline_504", app, "POST", "/sweep",
             {"base": {**ATTACK, "request_deadline_s": 1e-6}, "grid": {"top_k": [3]}})
        step("attack_poison_422", app, "POST", "/attack", {**ATTACK, "corpus": "poison"})
        step("attack_open_breaker_503", app, "POST", "/attack",
             {**ATTACK, "corpus": "poison"})
        # background jobs
        attack_job = step("attack_async_202", app, "POST", "/attack",
                          {**ATTACK, "top_k": 3, "async": True}).json["job_id"]
        assert app.runner.join(timeout_s=120)
        sweep_job = step("sweep_async_202", app, "POST", "/sweep",
                         {"base": ATTACK, "grid": {"top_k": [2, 4]},
                          "async": True}).json["job_id"]
        assert app.runner.join(timeout_s=120)
        step("job_attack_done", app, "GET", f"/jobs/{attack_job}")
        step("job_sweep_done", app, "GET", f"/jobs/{sweep_job}")
        step("jobs_list", app, "GET", "/jobs")
        step("cancel_done_409", app, "DELETE", f"/jobs/{attack_job}")
        # reports (in-memory reports are recorded, never looked up)
        reports = step("reports_list", app, "GET", "/reports").json["reports"]
        step("reports_limit", app, "GET", "/reports", query="limit=1")
        step("reports_by_fingerprint", app, "GET", "/reports",
             query=f"fingerprint={reports[0]['fingerprint']}")
        step("report_get", app, "GET", f"/reports/{reports[-1]['id']}")
        step("reports_other_tenant", app, "GET", "/reports", tenant="acme")
        # a tenant over its budget: the bucket is charged before the work
        step("capped_generate", app, "POST", "/generate",
             {"users": 12, "seed": 4, "name": "cap"}, tenant="capped")
        step("capped_generate_429", app, "POST", "/generate",
             {"users": 12, "seed": 5, "name": "cap2"}, tenant="capped")
        step("capped_attack_429", app, "POST", "/attack", ATTACK, tenant="capped")
        step("stats", app, "GET", "/stats")
        # a stopped runner refuses jobs; a queued row is cancelled at once
        app.runner.shutdown(drain_s=1.0)
        step("submit_after_shutdown_429", app, "POST", "/sweep",
             {"base": ATTACK, "grid": {"top_k": [6]}, "async": True})
        queued = app.state.jobs.create("default", "attack", dict(ATTACK))
        ids.append(queued)
        step("cancel_queued", app, "DELETE", f"/jobs/{queued}")
        step("cancel_cancelled_409", app, "DELETE", f"/jobs/{queued}")
        step("job_cancelled", app, "GET", f"/jobs/{queued}")
        step("stats_after_cancel", app, "GET", "/stats")
    finally:
        app.close(drain_s=1.0)
    step("closed_503", app, "GET", "/healthz")
    step("closed_attack_503", app, "POST", "/attack", ATTACK)

    # a file-backed store answers a repeated request from its reports
    engine = Engine(store=StateStore.at_dir(state_dir))
    engine.register("small", small_corpus)
    app = create_app(engine, job_workers=1)
    try:
        step("durable_attack_miss", app, "POST", "/attack", ATTACK)
        step("durable_attack_hit", app, "POST", "/attack", ATTACK)
        step("durable_sweep_hits", app, "POST", "/sweep",
             {"base": ATTACK, "grid": {"top_k": [5]}})
        step("durable_reports", app, "GET", "/reports")
        step("durable_stats", app, "GET", "/stats")
    finally:
        app.close(drain_s=1.0)
    return {"digests": digests, "statuses": statuses}


#: Digest of each wire-script step's response.
WIRE_PINS: dict = {
    "healthz": "ffc769f60723f9f1",
    "no_route": "4dac36168bda6dea",
    "healthz_post_405": "fb25d35af75c2072",
    "attack_get_405": "d8f3efceea3d0502",
    "jobs_put_405": "05751bde5900bca2",
    "jobs_empty_id_404": "8849447d14c23795",
    "jobs_nested_404": "6084fd33e87713bb",
    "report_bad_id_404": "6d70bfb6f8641258",
    "report_missing_404": "1e7d001bac833d9f",
    "job_missing_404": "1fa3b771366829ec",
    "job_cancel_missing_404": "1fa3b771366829ec",
    "bad_tenant_400": "c59334741bec98f6",
    "length_garbage_400": "a9a197c8ef963697",
    "length_negative_400": "00fe3b4411ecd27a",
    "length_over_cap_413": "fdb29fdfc8b03e41",
    "malformed_json_400": "fd20e1116ac316ae",
    "body_not_object_400": "338cbbc595ac7adb",
    "attack_unknown_corpus_400": "52b744cef29df078",
    "attack_wrong_type_400": "6d4773a5bb168d5e",
    "attack_bad_async_400": "7cfde1653bed81ef",
    "generate_bad_users_400": "ea52e1025bc32963",
    "generate_too_many_400": "c338b9006cf4ab45",
    "generate_bad_name_400": "2fc6ccd596b4c77c",
    "generate_unknown_key_400": "654b9d271b604e7a",
    "corpora_empty_400": "7b3015298efdd9e6",
    "corpora_bad_name_400": "88e5ce441e533c71",
    "corpora_bad_line_400": "f67bd173ebd1e928",
    "linkage_bad_users_400": "f293adff16a582a2",
    "linkage_too_many_400": "c338b9006cf4ab45",
    "sweep_bad_workers_400": "9d8bd4eba2976644",
    "sweep_workers_type_400": "bd843f7a8ef9162a",
    "sweep_unknown_key_400": "82d9353b930e3e7c",
    "sweep_over_cap_400": "ddda8f996baf2544",
    "jobs_bad_limit_400": "d1497029896a9630",
    "reports_bad_limit_400": "1599012adb2b1bbb",
    "generate": "eacd39d4229c5d50",
    "corpora_upload": "869c17200bdd1329",
    "linkage": "a9b84a5a6594fe39",
    "attack": "4de93d8211978230",
    "attack_again": "3a45d6debe6028f8",
    "attack_deadline_504": "eedd369f689aff4d",
    "sweep_grid": "8e3f3ecce7e0c84e",
    "sweep_list": "6f8bec1f14327534",
    "sweep_deadline_504": "eedd369f689aff4d",
    "attack_poison_422": "12638f090a33352e",
    "attack_open_breaker_503": "9501b902634cc7c8",
    "attack_async_202": "7a7817137238814e",
    "sweep_async_202": "89c7cdd8ec91564c",
    "job_attack_done": "b0b85a85716eddf2",
    "job_sweep_done": "2a061824178fedc1",
    "jobs_list": "fad65dd96641024c",
    "cancel_done_409": "cc6f92a82d0d7995",
    "reports_list": "90e05d3682e8ba1a",
    "reports_limit": "947d57f01125b086",
    "reports_by_fingerprint": "90e05d3682e8ba1a",
    "report_get": "5f19da4ac2e695e6",
    "reports_other_tenant": "74892074d9ec0d2d",
    "capped_generate": "ba93baf2c8183470",
    "capped_generate_429": "cbc0e637913fe61b",
    "capped_attack_429": "cbc0e637913fe61b",
    "stats": "f5fb1f6bff666e86",
    "submit_after_shutdown_429": "f750e723e2c18a68",
    "cancel_queued": "b5bec9d042cd49ff",
    "cancel_cancelled_409": "0071a9282e836860",
    "job_cancelled": "5444a625f522d058",
    "stats_after_cancel": "adde078589786b10",
    "closed_503": "023c2de4732eba2e",
    "closed_attack_503": "023c2de4732eba2e",
    "durable_attack_miss": "4de93d8211978230",
    "durable_attack_hit": "4de93d8211978230",
    "durable_sweep_hits": "08a595273a2a1a43",
    "durable_reports": "780f22c6f0b74376",
    "durable_stats": "98b15e73d94f077d",
}


@pytest.fixture(scope="module")
def wire(small_corpus, tmp_path_factory):
    return _run_wire_script(small_corpus, tmp_path_factory.mktemp("state"))


class TestWirePins:
    """Every route and status, byte for byte with volatile fields masked."""

    @pytest.mark.parametrize("name", list(WIRE_PINS))
    def test_response_matches_pin(self, wire, name):
        assert wire["digests"][name] == WIRE_PINS[name]

    def test_script_is_pinned_whole(self, wire):
        assert list(wire["digests"]) == list(WIRE_PINS)

    def test_script_reaches_every_status(self, wire):
        assert set(wire["statuses"].values()) == {
            200, 202, 400, 404, 405, 409, 413, 422, 429, 503, 504,
        }


# --- job rows -------------------------------------------------------------

_ROW_TIMES = ("created_at", "started_at", "finished_at", "lease_expires", "deadline")


def _rows_digest(store: StateStore, outcomes: list) -> str:
    rows = [dict(row) for row in store.query_all(
        "SELECT * FROM jobs ORDER BY created_at, id"
    )]
    ids = [row["id"] for row in rows]
    for row in rows:
        for column in _ROW_TIMES:
            if row[column] is not None:
                row[column] = "<t>"
    return _digest(json.dumps(
        [
            _mask_ids(rows, ids),
            _mask_ids(outcomes, ids),
            store.resilience_counters(),
        ],
        indent=None,
        sort_keys=True,
    ))


def _mask_ids(value, ids: list):
    """``value`` with job ids, and job-dict timestamps, masked."""
    if isinstance(value, dict):
        return {
            key: "<t>" if key in _ROW_TIMES and item is not None
            else _mask_ids(item, ids)
            for key, item in value.items()
        }
    if isinstance(value, list):
        return [_mask_ids(item, ids) for item in value]
    if isinstance(value, str):
        for index, job_id in enumerate(ids):
            value = value.replace(job_id, f"<job{index}>")
    return value


def _expire() -> None:
    """Sleep past the 1 ms leases and deadlines the cases set."""
    time.sleep(0.01)


def _case_finish(store, out):
    jobs = store.jobs
    job = jobs.create("default", "sweep", {"x": 1}, shards_total=2)
    out.append(jobs.claim_next("w1"))
    out.append(jobs.progress(job, 1, partial={"count": 1}, owner="w1", lease_s=30.0))
    out.append(jobs.finish(job, {"count": 2}, owner="w1"))


def _case_fail(store, out):
    jobs = store.jobs
    job = jobs.create("acme", "attack", {"x": 2}, shards_total=1)
    out.append(jobs.claim_next("w1"))
    out.append(jobs.fail(
        job,
        {"type": "FaultInjected", "message": "boom",
         "classification": "transient", "shard": 0, "attempts": 3},
        owner="w1",
    ))


def _case_cancel_queued(store, out):
    jobs = store.jobs
    job = jobs.create("default", "attack", {})
    out.append(jobs.request_cancel(job))
    out.append(jobs.request_cancel(job))
    out.append(jobs.claim_next("w1"))


def _case_cancel_running(store, out):
    jobs = store.jobs
    job = jobs.create("default", "attack", {})
    out.append(jobs.claim_next("w1"))
    out.append(jobs.request_cancel(job, tenant="default"))
    out.append(jobs.cancel_requested(job))
    out.append(jobs.mark_cancelled(job, owner="w1"))
    out.append(jobs.request_cancel(job))


def _case_reclaim_cancel_flag(store, out):
    jobs = store.jobs
    jobs.create("default", "attack", {})
    out.append(jobs.claim_next("w1", lease_s=0.001))
    out.append(jobs.request_cancel(jobs.list()[0]["job_id"]))
    _expire()
    out.append(jobs.reclaim_expired())
    out.append(jobs.claim_next("w2"))


def _case_deadline(store, out):
    jobs = store.jobs
    jobs.create("default", "attack", {}, deadline_s=0.001)
    _expire()
    out.append(jobs.claim_next("w1"))


def _case_claim_budget(store, out):
    jobs = store.jobs
    jobs.create("default", "attack", {})
    for _ in range(2):
        out.append(jobs.claim_next("w1", lease_s=0.001, max_claims=2))
        _expire()
        out.append(jobs.reclaim_expired(max_claims=5))
    out.append(jobs.claim_next("w1", max_claims=2))


def _case_reclaim_budget(store, out):
    jobs = store.jobs
    jobs.create("default", "attack", {})
    out.append(jobs.claim_next("w1", lease_s=0.001))
    _expire()
    out.append(jobs.reclaim_expired(max_claims=1))


def _case_stale_owner(store, out):
    jobs = store.jobs
    job = jobs.create("default", "attack", {}, shards_total=1)
    out.append(jobs.claim_next("w1", lease_s=0.001))
    _expire()
    out.append(jobs.reclaim_expired())
    out.append(jobs.claim_next("w2"))
    out.append(jobs.progress(job, 1, partial={"stale": 1}, owner="w1", lease_s=30.0))
    out.append(jobs.finish(job, {"stale": True}, owner="w1"))
    out.append(jobs.fail(job, "stale", owner="w1"))
    out.append(jobs.mark_cancelled(job, owner="w1"))
    out.append(jobs.heartbeat("w1", [job], lease_s=30.0))
    out.append(jobs.heartbeat("w2", [job], lease_s=30.0))
    out.append(jobs.finish(job, {"ok": True}, owner="w2"))


def _case_leaseless_running(store, out):
    """A running row with no lease, the shape a v1 database holds."""
    jobs = store.jobs
    job = jobs.create("default", "attack", {})
    store.execute(
        "UPDATE jobs SET state = 'running', started_at = ? WHERE id = ?",
        (time.time(), job),
    )
    out.append(jobs.reclaim_expired())
    out.append(jobs.claim_next("w1"))
    out.append(jobs.finish(job, {"late": True}, owner="w1"))


_JOB_CASES = {
    "finish": _case_finish,
    "fail": _case_fail,
    "cancel_queued": _case_cancel_queued,
    "cancel_running": _case_cancel_running,
    "reclaim_cancel_flag": _case_reclaim_cancel_flag,
    "deadline": _case_deadline,
    "claim_budget": _case_claim_budget,
    "reclaim_budget": _case_reclaim_budget,
    "stale_owner": _case_stale_owner,
    "leaseless_running": _case_leaseless_running,
}


def _job_case_digest(name: str) -> str:
    store = StateStore(None)
    try:
        outcomes: list = []
        _JOB_CASES[name](store, outcomes)
        return _rows_digest(store, outcomes)
    finally:
        store.close()


#: Digest of each job case's rows, call results and resilience counters.
JOB_ROW_PINS: dict = {
    "finish": "9a779be65127122c",
    "fail": "b1ddfeaddadc56f4",
    "cancel_queued": "14617556343f5623",
    "cancel_running": "5c4bedc4037156ad",
    "reclaim_cancel_flag": "dffc1f4a1c921afb",
    "deadline": "edd19aac20f29d3b",
    "claim_budget": "13d90fd622143cb2",
    "reclaim_budget": "565215c2ea518049",
    "stale_owner": "4026c4f3d0be9719",
    "leaseless_running": "f0efbf5ac9d8477a",
}


class TestJobRowPins:
    """Job-row transitions, byte for byte with timestamps and ids masked."""

    @pytest.mark.parametrize("name", list(JOB_ROW_PINS))
    def test_rows_match_pin(self, name):
        assert _job_case_digest(name) == JOB_ROW_PINS[name]

    def test_every_case_is_pinned(self):
        assert list(JOB_ROW_PINS) == list(_JOB_CASES)
