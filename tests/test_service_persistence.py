"""Restart durability of `serve --state-dir`, proven across real processes.

The acceptance scenario of the durable tier: fit + sweep against a state
directory, kill the server (SIGKILL — the WAL must survive a crash),
restart it *without* ``--corpus``, and observe that the corpus rehydrates,
the same sweep fits zero new sessions, and every stored report is
byte-identical.  A final SIGTERM exercises the graceful path: exit code 0
and no hot ``-wal`` sidecar left behind.
"""

import json
import os
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

SWEEP_BODY = {
    "base": {
        "corpus": "demo",
        "split_seed": 11,
        "top_k": 5,
        "n_landmarks": 5,
        "classifier": "knn",
        "ks": [1, 5],
        "refined": False,
    },
    "grid": {"top_k": [3, 5]},
}


def start_server(state_dir, corpus=None, timeout_s=90.0, env_extra=None):
    """Launch `serve --port 0`; returns (process, base_url)."""
    cmd = [
        sys.executable, "-m", "repro.cli", "serve",
        "--port", "0", "--state-dir", str(state_dir), "--job-workers", "1",
    ]
    if corpus is not None:
        cmd += ["--corpus", str(corpus)]
    env = {**os.environ, "PYTHONPATH": SRC, "PYTHONUNBUFFERED": "1"}
    env.update(env_extra or {})
    proc = subprocess.Popen(
        cmd, env=env, stderr=subprocess.PIPE, text=True, bufsize=1
    )
    deadline = time.monotonic() + timeout_s
    banner = ""
    while time.monotonic() < deadline:
        line = proc.stderr.readline()
        if not line:
            if proc.poll() is not None:
                raise AssertionError(
                    f"server died at startup (rc={proc.returncode}): {banner}"
                )
            time.sleep(0.05)
            continue
        banner += line
        match = re.search(r"http://[\d.]+:(\d+)", line)
        if match:
            return proc, f"http://127.0.0.1:{match.group(1)}"
    proc.kill()
    raise AssertionError(f"no startup banner within {timeout_s}s: {banner}")


def request_json(url, body=None, timeout_s=120.0):
    data = None if body is None else json.dumps(body).encode("utf-8")
    req = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(req, timeout=timeout_s) as res:
        return json.loads(res.read())


def wait_reachable(base_url, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            return request_json(f"{base_url}/healthz", timeout_s=5.0)
        except (urllib.error.URLError, ConnectionError, OSError):
            time.sleep(0.1)
    raise AssertionError(f"{base_url} never became reachable")


def test_restart_round_trip(tmp_path):
    state_dir = tmp_path / "state"
    corpus = tmp_path / "demo.jsonl"
    generate = subprocess.run(
        [sys.executable, "-m", "repro.cli", "generate",
         "--users", "40", "--seed", "3", "--out", str(corpus)],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, timeout=300,
    )
    assert generate.returncode == 0, generate.stderr

    # --- first life: fit + sweep, then die hard -------------------------
    proc, base = start_server(state_dir, corpus=corpus)
    try:
        health = wait_reachable(base)
        assert health["corpora"] == ["demo"]
        first = request_json(f"{base}/sweep", SWEEP_BODY)
        assert first["count"] == 2
        listing = request_json(f"{base}/reports?limit=10")
        assert listing["count"] == 2
        stored_before = {
            row["id"]: request_json(f"{base}/reports/{row['id']}")["report"]
            for row in listing["reports"]
        }
        stats = request_json(f"{base}/stats")
        assert len(stats["sessions"]) == 1  # one split shard was fitted
    finally:
        proc.kill()  # SIGKILL: simulate a crash, the WAL must survive
        proc.wait(timeout=30)

    assert (state_dir / "dehealth.sqlite3").exists()

    # --- second life: no --corpus, everything comes from the store ------
    proc, base = start_server(state_dir)
    try:
        health = wait_reachable(base)
        assert health["corpora"] == ["demo"]  # rehydrated, not re-uploaded
        again = request_json(f"{base}/sweep", SWEEP_BODY)
        assert again["count"] == 2
        stats = request_json(f"{base}/stats")
        # the resumed sweep fit zero shards: answered from stored reports
        assert stats["sessions"] == []
        assert stats["report_reuses"] == 2
        listing = request_json(f"{base}/reports?limit=10")
        assert listing["count"] == 2  # deduplicated, not re-recorded
        for row in listing["reports"]:
            replayed = request_json(f"{base}/reports/{row['id']}")["report"]
            assert json.dumps(replayed, sort_keys=True) == json.dumps(
                stored_before[row["id"]], sort_keys=True
            )
    finally:
        # --- graceful exit: SIGTERM drains and checkpoints --------------
        proc.send_signal(signal.SIGTERM)
        rc = proc.wait(timeout=60)

    assert rc == 0, proc.stderr.read()
    leftovers = sorted(p.name for p in state_dir.iterdir())
    assert leftovers == ["dehealth.sqlite3"]  # no hot -wal/-shm


def _seed_state_dir(state_dir, name="demo", users=40, seed=3):
    """Persist a generated corpus into a state dir without running a server."""
    from repro.api import Engine
    from repro.datagen import webmd_like
    from repro.store import StateStore

    store = StateStore.at_dir(state_dir)
    engine = Engine(store=store)
    engine.register(name, webmd_like(n_users=users, seed=seed).dataset)
    return store


def test_interrupted_jobs_are_requeued_and_finished_after_restart(tmp_path):
    """Jobs a dead process left mid-run are reclaimed and completed, not
    blanket-failed — the lease model treats a restart like any crashed
    worker."""
    state_dir = tmp_path / "state"
    store = _seed_state_dir(state_dir)
    # simulate a worker that died mid-job: running, but no live lease
    zombie = store.jobs.create(
        "default", "attack", dict(SWEEP_BODY["base"]), shards_total=1
    )
    store.execute(
        "UPDATE jobs SET state = 'running', started_at = ? WHERE id = ?",
        (time.time(), zombie),
    )
    store.close()

    proc, base = start_server(state_dir)
    try:
        wait_reachable(base)
        deadline = time.monotonic() + 120.0
        job = request_json(f"{base}/jobs/{zombie}")
        while time.monotonic() < deadline and job["state"] in ("queued", "running"):
            time.sleep(0.2)
            job = request_json(f"{base}/jobs/{zombie}")
        assert job["state"] == "done", job.get("error")
        assert job["result"]  # the requeued job actually executed
        stats = request_json(f"{base}/stats")
        assert stats["resilience"]["reclaimed_jobs"] == 1
        assert stats["jobs"]["reclaimed"] == 1
    finally:
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0


def test_sigterm_with_deep_queue_persists_queued_jobs(tmp_path):
    """SIGTERM under load: the drain window finishes what it can, queued
    jobs persist as ``queued`` (owner-less, claimable by the next life),
    exit code is 0, and no hot ``-wal`` sidecar is left behind."""
    from repro.store import StateStore
    from repro.testing import faults
    from repro.testing.faults import FaultPlan, FaultSpec

    state_dir = tmp_path / "state"
    _seed_state_dir(state_dir).close()

    # slow every shard down via the fault harness (serve installs the plan
    # from REPRO_FAULTS) so the queue is provably deeper than one drain
    # window — the single worker clears at most a few of the 12 jobs
    slow = FaultPlan([
        FaultSpec(
            seam=faults.SEAM_SHARD, action="delay",
            at=tuple(range(24)), delay_s=1.5,
        ),
    ])
    proc, base = start_server(
        state_dir, env_extra={faults.FAULTS_ENV_VAR: slow.to_json()}
    )
    try:
        wait_reachable(base)
        job_ids = []
        for i in range(12):
            body = dict(SWEEP_BODY["base"], split_seed=200 + i)
            body["async"] = True
            job_ids.append(request_json(f"{base}/attack", body)["job_id"])
    finally:
        proc.send_signal(signal.SIGTERM)
        rc = proc.wait(timeout=120)

    assert rc == 0, proc.stderr.read()
    leftovers = sorted(p.name for p in state_dir.iterdir())
    assert leftovers == ["dehealth.sqlite3"]  # WAL checkpointed on exit

    store = StateStore.at_dir(state_dir)
    try:
        states = {}
        for job_id in job_ids:
            job = store.jobs.get(job_id)
            assert job is not None, f"job {job_id} lost across SIGTERM"
            states[job_id] = job["state"]
            if job["state"] == "queued":
                assert job["owner"] is None  # claimable by the next process
        assert set(states.values()) <= {"queued", "running", "done"}
        assert "queued" in states.values(), states
    finally:
        store.close()


def test_two_server_processes_share_one_state_dir(tmp_path):
    """Two live servers on one ``--state-dir``: every job submitted to one
    reaches ``done`` with exactly one execution attempt — the lease claim
    keeps competing pollers from running the same job twice."""
    state_dir = tmp_path / "state"
    _seed_state_dir(state_dir).close()

    proc_a, base_a = start_server(state_dir)
    proc_b, base_b = start_server(state_dir)
    try:
        wait_reachable(base_a)
        wait_reachable(base_b)
        job_ids = []
        for i in range(4):
            body = dict(SWEEP_BODY["base"], split_seed=300 + i)
            body["async"] = True
            job_ids.append(request_json(f"{base_a}/attack", body)["job_id"])
        deadline = time.monotonic() + 180.0
        for job_id in job_ids:
            # either process can answer for a shared job
            job = request_json(f"{base_b}/jobs/{job_id}")
            while time.monotonic() < deadline and job["state"] in (
                "queued", "running"
            ):
                time.sleep(0.2)
                job = request_json(f"{base_b}/jobs/{job_id}")
            assert job["state"] == "done", job.get("error")
            assert job["attempts"] == 1  # exactly-once: never claimed twice
    finally:
        for proc in (proc_a, proc_b):
            proc.send_signal(signal.SIGTERM)
        for proc in (proc_a, proc_b):
            assert proc.wait(timeout=60) == 0
