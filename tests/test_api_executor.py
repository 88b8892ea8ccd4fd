"""Sweep executor: planning, matrix expansion, backends, and merge order.

Includes the seeded stdlib-``random`` property tests: matrix expansion is a
true cartesian product (size, uniqueness, coverage) and the protocol
round-trips through ``to_dict``/``from_dict`` for randomized knob combos.
"""

import random

import pytest

from repro.api import (
    AttackReport,
    AttackRequest,
    Engine,
    MAX_WORKERS,
    SweepExecutor,
    canonical_report_json,
    expand_grid,
    expand_matrix,
    plan_shards,
    resolve_workers,
)
from repro.errors import ConfigError
from repro.store import StateStore


@pytest.fixture(scope="module")
def engine(small_corpus):
    eng = Engine()
    eng.register("small", small_corpus)
    return eng


def _request(**overrides) -> AttackRequest:
    base = dict(
        corpus="small",
        aux_fraction=0.5,
        split_seed=7,
        top_k=3,
        n_landmarks=3,
        classifier="knn",
        refined=False,
        ks=(1, 3),
    )
    base.update(overrides)
    return AttackRequest(**base)


class TestResolveWorkers:
    def test_clamps_to_range(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(4) == 4
        assert resolve_workers(MAX_WORKERS + 50) == MAX_WORKERS

    def test_none_and_zero_mean_all_cores(self):
        import os

        expected = len(os.sched_getaffinity(0))
        assert resolve_workers(None) == max(1, min(expected, MAX_WORKERS))
        assert resolve_workers(0) == resolve_workers(None)

    def test_rejects_garbage(self):
        with pytest.raises(ConfigError):
            resolve_workers(-1)
        with pytest.raises(ConfigError):
            resolve_workers("many")


class TestExpandMatrix:
    def test_grid_expansion_order(self):
        requests = expand_grid(
            {"corpus": "c", "refined": False},
            {"top_k": [3, 5], "split_seed": [1, 2]},
        )
        # sorted key order: split_seed varies slower than top_k
        assert [(r.split_seed, r.top_k) for r in requests] == [
            (1, 3), (1, 5), (2, 3), (2, 5)
        ]

    def test_matrix_requests_spelling(self):
        requests = expand_matrix(
            {"requests": [{"corpus": "c", "top_k": 4}, {"corpus": "d"}]}
        )
        assert [r.corpus for r in requests] == ["c", "d"]
        assert requests[0].top_k == 4

    def test_matrix_rejects_both_spellings(self):
        with pytest.raises(ConfigError, match="not both"):
            expand_matrix(
                {"requests": [{}], "grid": {"top_k": [1]}}
            )

    def test_matrix_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown matrix spec"):
            expand_matrix({"grid": {"top_k": [1]}, "workerz": 3})

    def test_matrix_rejects_non_object(self):
        with pytest.raises(ConfigError, match="JSON object"):
            expand_matrix([1, 2])
        with pytest.raises(ConfigError, match="'requests' or 'base'"):
            expand_matrix({})

    def test_cap_applies_to_explicit_requests(self):
        with pytest.raises(ConfigError, match="cap"):
            expand_matrix({"requests": [{"corpus": "c"}] * 5}, max_requests=4)

    def test_cap_rejects_grid_before_materializing(self):
        with pytest.raises(ConfigError, match="cap"):
            expand_grid(
                {}, {"top_k": list(range(1, 100)), "split_seed": list(range(100))},
                max_requests=50,
            )


class TestPlanShards:
    def test_groups_by_split_preserving_order(self):
        a1, b1 = _request(split_seed=1), _request(split_seed=2)
        a2 = _request(split_seed=1, top_k=5)
        shards = plan_shards([a1, b1, a2])
        assert len(shards) == 2
        (_, first), (_, second) = shards
        assert first == [(0, a1), (2, a2)]
        assert second == [(1, b1)]

    def test_distinguishes_world_and_corpus(self):
        shards = plan_shards(
            [
                _request(),
                _request(world="open", overlap_ratio=0.5),
                _request(corpus="other"),
            ]
        )
        assert len(shards) == 3

    def test_fingerprints_unify_corpus_aliases(self):
        shards = plan_shards(
            [_request(), _request(corpus="alias")],
            fingerprints={"small": "f0", "alias": "f0"},
        )
        assert len(shards) == 1

    def test_validates_whole_batch_up_front(self):
        with pytest.raises(ConfigError):
            plan_shards([_request(), _request(top_k=0)])


class TestSweepExecutor:
    def test_rejects_bad_backend(self, engine):
        with pytest.raises(ConfigError, match="backend"):
            SweepExecutor(engine, workers=2, backend="gpu")

    def test_empty_sweep(self, engine):
        assert SweepExecutor(engine, workers=2).execute([]) == []

    def test_unknown_corpus_fails_before_running(self, engine):
        attacks_before = engine.attacks
        with pytest.raises(ConfigError, match="unknown corpus"):
            SweepExecutor(engine, workers=2).execute(
                [_request(), _request(corpus="ghost")]
            )
        assert engine.attacks == attacks_before

    def test_accepts_dict_requests(self, engine):
        reports = SweepExecutor(engine, workers=1).execute(
            [{"corpus": "small", "split_seed": 7, "top_k": 3,
              "n_landmarks": 3, "refined": False, "ks": [1, 3]}]
        )
        assert len(reports) == 1
        assert set(reports[0].success_rates) == {1, 3}

    def test_merge_preserves_interleaved_input_order(self, small_corpus):
        """Reports land at their request's index whatever the shard layout."""
        requests = [
            _request(split_seed=seed, top_k=k)
            for k, seed in [(3, 1), (3, 2), (5, 1), (5, 2), (10, 1)]
        ]
        serial_engine = Engine()
        serial_engine.register("small", small_corpus)
        serial = serial_engine.sweep(requests)
        parallel_engine = Engine()
        parallel_engine.register("small", small_corpus)
        parallel = parallel_engine.sweep(requests, parallel=2)
        assert [r.request for r in parallel] == requests
        assert canonical_report_json(parallel) == canonical_report_json(serial)

    def test_parallel_counts_attacks(self, small_corpus):
        eng = Engine()
        eng.register("small", small_corpus)
        eng.sweep([_request(), _request(split_seed=8)], parallel=2)
        assert eng.attacks == 2

    def test_thread_backend_populates_session_cache(self, small_corpus):
        eng = Engine()
        eng.register("small", small_corpus)
        eng.sweep(
            [_request(), _request(split_seed=8)], parallel=2, backend="thread"
        )
        stats = eng.stats()
        assert len(stats["sessions"]) == 2
        assert all(s["graph_builds"] == 1 for s in stats["sessions"])

    @pytest.mark.parametrize(
        "parallel, backend", [(1, "serial"), (2, "thread"), (2, "process")]
    )
    def test_every_backend_accounts_tenant_attacks(
        self, small_corpus, tmp_path, parallel, backend
    ):
        """Three variants on two splits count as three of the tenant's
        attacks, in memory and in the store, on every backend."""
        state = StateStore.at_dir(tmp_path)
        try:
            eng = Engine(store=state)
            eng.register("small", small_corpus)
            requests = [_request(), _request(top_k=5), _request(split_seed=8)]
            eng.sweep(requests, parallel=parallel, backend=backend, tenant="acme")
            assert state.tenant_counters()["acme"]["attacks"] == 3
            stats = eng.stats()
            assert stats["attacks"] == 3
            assert stats["tenants"]["acme"]["attacks"] == 3
            assert stats["tenants"]["acme"]["report_reuses"] == 0
            assert len(state.reports.list(tenant="acme")) == 3
        finally:
            state.close()

    def test_canonical_json_drops_volatile_fields(self, engine):
        report = engine.attack(_request(top_k=5, ks=(1, 5)))
        assert report.elapsed_ms > 0
        payload = report.canonical_dict()
        assert "elapsed_ms" not in payload and "reused_fit" not in payload
        assert '"elapsed_ms"' not in canonical_report_json([report])


# --- seeded stdlib-random property tests --------------------------------

N_PROPERTY_TRIALS = 25


def _random_grid(rng: random.Random) -> dict:
    """A random valid grid over distinct values per knob."""
    pools = {
        "top_k": list(range(1, 40)),
        "split_seed": list(range(0, 50)),
        "n_landmarks": list(range(1, 30)),
        "classifier": ["smo", "knn", "rlsc", "centroid"],
        "selection": ["direct", "matching"],
        "aux_fraction": [0.3, 0.4, 0.5, 0.6, 0.7, 0.8],
        "seed": list(range(0, 50)),
    }
    names = rng.sample(sorted(pools), k=rng.randint(1, 3))
    return {
        name: rng.sample(pools[name], k=rng.randint(1, min(3, len(pools[name]))))
        for name in names
    }


class TestMatrixProperties:
    def test_expansion_is_true_cartesian_product(self):
        rng = random.Random(0xDE4EA17)
        for _ in range(N_PROPERTY_TRIALS):
            grid = _random_grid(rng)
            requests = expand_grid({"corpus": "c", "refined": False}, grid)
            expected_size = 1
            for values in grid.values():
                expected_size *= len(values)
            # size is the product of the axes ...
            assert len(requests) == expected_size
            # ... with no duplicate requests (true product, distinct values)
            assert len(set(requests)) == expected_size
            # ... and every combination is present
            for name, values in grid.items():
                for value in values:
                    assert any(
                        getattr(r, name) == value for r in requests
                    )

    def test_expansion_keeps_base_fields(self):
        rng = random.Random(7)
        for _ in range(N_PROPERTY_TRIALS):
            grid = _random_grid(rng)
            base = {"corpus": "c", "attribute_weight_cap": 32}
            for request in expand_grid(base, grid):
                assert request.corpus == "c"
                if "attribute_weight_cap" not in grid:
                    assert request.attribute_weight_cap == 32


def _random_request(rng: random.Random) -> AttackRequest:
    world = rng.choice(["closed", "open"])
    verification = rng.choice([None, "mean", "false_addition"])
    weights = [round(rng.uniform(0.0, 2.0), 6) for _ in range(3)]
    if sum(weights) == 0.0:
        weights[rng.randrange(3)] = 1.0
    return AttackRequest(
        corpus=rng.choice(["a", "b", "c"]),
        world=world,
        aux_fraction=round(rng.uniform(0.05, 0.95), 6),
        overlap_ratio=round(rng.uniform(0.05, 1.0), 6),
        split_seed=rng.randrange(1000),
        top_k=rng.randint(1, 50),
        selection=rng.choice(["direct", "matching"]),
        classifier=rng.choice(["smo", "knn", "rlsc", "centroid"]),
        weights=tuple(weights),
        n_landmarks=rng.randint(1, 60),
        attribute_weight_cap=rng.randint(1, 64),
        filtering=rng.choice([True, False]),
        filter_epsilon=round(rng.uniform(0.0, 0.1), 6),
        filter_levels=rng.randint(2, 12),
        verification=verification,
        verification_r=round(rng.uniform(0.0, 1.0), 6),
        false_addition_count=rng.choice([None, rng.randint(1, 10)]),
        use_structural_features=rng.choice([True, False]),
        refined=rng.choice([True, False]),
        ks=tuple(sorted(rng.sample(range(1, 60), k=rng.randint(0, 4)))),
        seed=rng.randrange(1000),
    )


class TestProtocolRoundTripProperties:
    def test_request_round_trips(self):
        rng = random.Random(0x5EED)
        for _ in range(N_PROPERTY_TRIALS * 4):
            request = _random_request(rng)
            request.validate()
            rebuilt = AttackRequest.from_dict(request.to_dict())
            assert rebuilt == request
            # and the wire dict is stable across one more cycle
            assert rebuilt.to_dict() == request.to_dict()

    def test_report_round_trips(self):
        rng = random.Random(0xBEEF)
        for _ in range(N_PROPERTY_TRIALS * 4):
            request = _random_request(rng)
            refined = rng.choice([True, False])
            report = AttackReport(
                request=request,
                n_anonymized=rng.randint(1, 500),
                n_auxiliary=rng.randint(1, 500),
                n_evaluated=rng.randint(0, 500),
                success_rates={
                    k: round(rng.random(), 9) for k in request.evaluation_ks()
                },
                refined_accuracy=round(rng.random(), 9) if refined else None,
                false_positive_rate=round(rng.random(), 9) if refined else None,
                rejection_rate=round(rng.random(), 9) if refined else None,
                n_correct=rng.randint(0, 100) if refined else None,
                elapsed_ms=round(rng.uniform(0, 1e4), 6),
                reused_fit=rng.choice([True, False]),
            )
            rebuilt = AttackReport.from_dict(report.to_dict())
            assert rebuilt == report
            assert rebuilt.canonical_dict() == report.canonical_dict()
