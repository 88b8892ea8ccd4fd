"""Candidate blocking: masks, policies, and the sparse scoring path.

Two property suites anchor the refactor:

* **dense identity** — ``blocking="none"`` is the exact dense path
  (element-wise identical matrices), and every policy's pair-level scores
  agree with the dense matrix at the masked positions;
* **recall gate** — on rich synthetic ground-truth corpora (seeded
  stdlib-random draws), each policy's candidate sets contain every true
  match, so blocking never prunes the answer itself.

The sparse consumers (top-k, ranks, filtering) are checked against the
floor-filled dense semantics they are defined by, on randomly generated
masks and scores.
"""

import random
import subprocess
import sys

import numpy as np
import pytest
from scipy import sparse

from repro.core import (
    DeHealth,
    DeHealthConfig,
    NSWIndex,
    SimilarityComputer,
    ann_graph_candidates,
    attr_index_candidates,
    build_candidates,
    degree_band_candidates,
    direct_top_k,
    filter_candidates,
    lsh_candidates,
    lsh_signature_bits,
    matching_top_k,
    parse_blocking,
    union_candidates,
)
from repro.core.blocking import CandidateMask, SparseSimilarity, _profile_matrix
from repro.core.topk import true_match_ranks
from repro.datagen import webmd_like
from repro.errors import ConfigError
from repro.forum.split import closed_world_split
from repro.graph.uda import UDAGraph

POLICIES = ("degree_band", "attr_index", "union")
ANN_POLICIES = ("lsh", "ann_graph")
ALL_POLICIES = POLICIES + ANN_POLICIES

#: Per-policy knobs for the recall gate — generous enough that the true
#: match always survives on the rich corpora below (verified property).
GATE_KNOBS = {
    "degree_band": {"band_width": 2.0},
    "attr_index": {"keep_fraction": 0.7},
    "union": {"band_width": 1.0, "keep_fraction": 0.3},
    # lsh: 2-bit bands make a bucket collision near-certain for any pair
    # with correlated profiles; no per-row cap, so the gate isolates the
    # bucketing itself
    "lsh": {"lsh_bands": 64, "lsh_rows": 2, "keep_fraction": 1.0},
    # ann_graph: a beam wider than the auxiliary side walks the whole
    # (connected-by-construction) NSW graph — exhaustive, so the gate
    # isolates graph connectivity
    "ann_graph": {"ann_ef": 256, "keep_fraction": 1.0},
}


@pytest.fixture(scope="module")
def small_world():
    corpus = webmd_like(n_users=40, seed=3, min_posts_per_user=2).dataset
    split = closed_world_split(corpus, aux_fraction=0.5, seed=11)
    return split, UDAGraph(split.anonymized), UDAGraph(split.auxiliary)


def _random_sparse_scores(rng: random.Random, n1: int, n2: int):
    """A random CandidateMask + SparseSimilarity (possibly with empty rows)."""
    density = rng.uniform(0.2, 0.8)
    kept = np.array(
        [[rng.random() < density for _ in range(n2)] for _ in range(n1)],
        dtype=bool,
    )
    mask = CandidateMask(sparse.csr_matrix(kept))
    values = np.array([rng.uniform(0.1, 3.0) for _ in range(mask.n_pairs)])
    return SparseSimilarity(mask, values)


class TestCandidateMask:
    def test_geometry_and_access(self, small_world):
        _, g1, g2 = small_world
        mask = degree_band_candidates(g1, g2)
        assert mask.shape == (g1.n_users, g2.n_users)
        assert 0 < mask.n_pairs <= mask.n_total_pairs
        assert mask.density == mask.n_pairs / mask.n_total_pairs
        assert mask.nbytes > 0
        rows, cols = mask.pair_arrays()
        assert len(rows) == len(cols) == mask.n_pairs
        for i in range(g1.n_users):
            expected = cols[rows == i]
            assert np.array_equal(mask.row_cols(i), expected)
            for j in expected[:3]:
                assert mask.contains(i, int(j))

    def test_union_is_elementwise_or(self, small_world):
        _, g1, g2 = small_world
        band = degree_band_candidates(g1, g2)
        attr = attr_index_candidates(g1, g2, keep_fraction=0.3)
        union = band | attr
        expected = band.matrix.maximum(attr.matrix)
        assert (union.matrix != expected).nnz == 0
        assert union.n_pairs >= max(band.n_pairs, attr.n_pairs)
        direct = union_candidates(g1, g2, keep_fraction=0.3)
        assert (union.matrix != direct.matrix).nnz == 0

    def test_attr_index_respects_keep_fraction(self, small_world):
        _, g1, g2 = small_world
        keep = 0.25
        mask = attr_index_candidates(g1, g2, keep_fraction=keep)
        cap = int(np.ceil(keep * g2.n_users))
        per_row = np.diff(mask.matrix.indptr)
        assert per_row.max() <= cap

    def test_build_candidates_dispatch(self, small_world):
        _, g1, g2 = small_world
        assert build_candidates(g1, g2, "none") is None
        for policy in ALL_POLICIES:
            mask = build_candidates(g1, g2, policy)
            assert isinstance(mask, CandidateMask)
        with pytest.raises(ConfigError, match="blocking"):
            build_candidates(g1, g2, "simhashx")

    def test_parameter_validation(self, small_world):
        _, g1, g2 = small_world
        with pytest.raises(ConfigError):
            degree_band_candidates(g1, g2, band_width=0.0)
        with pytest.raises(ConfigError):
            attr_index_candidates(g1, g2, min_shared=0)
        with pytest.raises(ConfigError):
            attr_index_candidates(g1, g2, keep_fraction=0.0)
        with pytest.raises(ConfigError):
            attr_index_candidates(g1, g2, keep_fraction=1.5)
        with pytest.raises(ConfigError):
            lsh_candidates(g1, g2, bands=0)
        with pytest.raises(ConfigError):
            lsh_candidates(g1, g2, rows=0)
        with pytest.raises(ConfigError):
            lsh_candidates(g1, g2, rows=63)
        with pytest.raises(ConfigError):
            lsh_candidates(g1, g2, keep_fraction=0.0)
        with pytest.raises(ConfigError):
            ann_graph_candidates(g1, g2, m=0)
        with pytest.raises(ConfigError):
            ann_graph_candidates(g1, g2, ef=0)
        # composite uint64 bucket keys: band offsets must not wrap
        with pytest.raises(ConfigError, match="64 bits"):
            lsh_candidates(g1, g2, bands=8, rows=62)
        with pytest.raises(ConfigError, match="64 bits"):
            DeHealthConfig(
                blocking="lsh", blocking_lsh_bands=8, blocking_lsh_rows=62
            ).validate()

    def test_parse_blocking_composites(self):
        assert parse_blocking("lsh") == ("lsh",)
        assert parse_blocking("lsh+degree_band") == ("lsh", "degree_band")
        with pytest.raises(ConfigError, match="blocking"):
            parse_blocking("lsh+bogus")
        with pytest.raises(ConfigError, match="none"):
            parse_blocking("none+lsh")
        with pytest.raises(ConfigError, match="repeats"):
            parse_blocking("lsh+lsh")
        with pytest.raises(ConfigError, match="blocking"):
            parse_blocking("")

    def test_composite_mask_is_or_of_parts(self, small_world):
        _, g1, g2 = small_world
        composite = build_candidates(g1, g2, "lsh+degree_band")
        lsh = build_candidates(g1, g2, "lsh")
        band = build_candidates(g1, g2, "degree_band")
        expected = lsh.matrix.maximum(band.matrix)
        assert (composite.matrix != expected).nnz == 0
        # meta of both parts survives the union
        assert "lsh_collision_touches" in composite.meta


class TestDenseIdentity:
    def test_none_is_the_dense_path(self, small_world):
        split, g1, g2 = small_world
        attack = DeHealth(DeHealthConfig(n_landmarks=5)).fit(g1, g2)
        scores = attack.similarity_scores()
        assert isinstance(scores, np.ndarray)
        reference = SimilarityComputer(g1, g2, n_landmarks=5).combined()
        assert np.array_equal(scores, reference)
        assert attack.blocking_stats()["pair_fraction"] == 1.0

    # blocking_keep 0.5 and 0.1: attr_index, lsh and ann_graph masks keep
    # about half and a tenth of the pairs; union and degree_band stay
    # dense-ish at both
    @pytest.mark.parametrize("keep", (0.5, 0.1))
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_masked_scores_match_dense_at_pairs(self, small_world, policy, keep):
        _, g1, g2 = small_world
        dense = SimilarityComputer(g1, g2, n_landmarks=5)
        computer = SimilarityComputer(
            g1, g2, n_landmarks=5, blocking=policy, blocking_keep=keep
        )
        scores = computer.combined_sparse()
        rows, cols = scores.mask.pair_arrays()
        assert np.allclose(scores.values, dense.combined()[rows, cols])
        # s^a must be byte-identical, not just close
        assert (
            computer.attribute_pairs().tobytes()
            == dense.attribute_similarity()[rows, cols].tobytes()
        )

    @pytest.mark.parametrize("policy", ALL_POLICIES + ("lsh+degree_band",))
    def test_blocked_pipeline_runs_end_to_end(self, small_world, policy):
        split, g1, g2 = small_world
        config = DeHealthConfig(
            top_k=5, n_landmarks=5, blocking=policy, verification="mean"
        )
        attack = DeHealth(config).fit(g1, g2)
        stats = attack.blocking_stats()
        assert stats["policy"] == policy
        assert 0 < stats["n_pairs"] <= stats["n_total_pairs"]
        result = attack.top_k_result(split.truth)
        assert 0.0 <= result.success_rate(5) <= 1.0
        da = attack.deanonymize()
        assert set(da.predictions) == set(g1.users)


class TestRecallGate:
    """Seeded stdlib-random draws of rich ground-truth corpora: every
    policy's candidate set must contain every user's true match."""

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    def test_true_match_always_survives(self, policy):
        rng = random.Random(20260730)
        for corpus_seed in rng.sample(range(10), 3):
            corpus = webmd_like(
                n_users=60, seed=corpus_seed, min_posts_per_user=8
            ).dataset
            split = closed_world_split(
                corpus, aux_fraction=0.5, seed=corpus_seed + 100
            )
            g1 = UDAGraph(split.anonymized)
            g2 = UDAGraph(split.auxiliary)
            mask = build_candidates(g1, g2, policy, **GATE_KNOBS[policy])
            aux_index = {u: j for j, u in enumerate(g2.users)}
            for i, anon in enumerate(g1.users):
                target = split.truth.mapping.get(anon)
                if target is None or target not in aux_index:
                    continue
                assert mask.contains(i, aux_index[target]), (
                    f"{policy} pruned the true match of {anon} "
                    f"(corpus seed {corpus_seed})"
                )


class TestSparseConsumers:
    """Top-k / ranks / filtering on SparseSimilarity must match the
    floor-filled dense semantics they are defined by."""

    def test_direct_top_k_matches_floor_filled_dense(self):
        rng = random.Random(77)
        for _ in range(5):
            n1, n2 = rng.randint(2, 8), rng.randint(2, 10)
            S = _random_sparse_scores(rng, n1, n2)
            k = rng.randint(1, n2)
            sparse_lists = direct_top_k(S, k)
            dense_lists = direct_top_k(S.to_dense(), k)
            for i in range(n1):
                cols, _ = S.row(i)
                # the sparse list is the dense list restricted to scored pairs
                expected = [c for c in dense_lists[i] if c in set(cols)][:k]
                assert sparse_lists[i] == expected

    def test_true_match_ranks_match_floor_filled_dense(self):
        rng = random.Random(78)
        for _ in range(5):
            n1, n2 = rng.randint(2, 8), rng.randint(2, 10)
            S = _random_sparse_scores(rng, n1, n2)
            anon_ids = [f"a{i}" for i in range(n1)]
            aux_ids = [f"b{j}" for j in range(n2)]
            truth = {
                f"a{i}": f"b{rng.randrange(n2)}"
                for i in range(n1)
                if rng.random() < 0.8
            }
            assert true_match_ranks(S, anon_ids, aux_ids, truth) == true_match_ranks(
                S.to_dense(), anon_ids, aux_ids, truth
            )

    def test_filtering_matches_floor_filled_dense(self):
        rng = random.Random(79)
        for _ in range(5):
            n1, n2 = rng.randint(2, 8), rng.randint(3, 10)
            S = _random_sparse_scores(rng, n1, n2)
            candidates = direct_top_k(S, min(3, n2))
            sparse_out = filter_candidates(S, candidates, epsilon=0.05, levels=4)
            dense_out = filter_candidates(
                S.to_dense(), candidates, epsilon=0.05, levels=4
            )
            assert sparse_out.kept == dense_out.kept
            assert np.allclose(sparse_out.thresholds, dense_out.thresholds)

    def test_matching_top_k_never_selects_pruned_pairs(self):
        rng = random.Random(80)
        S = _random_sparse_scores(rng, 5, 7)
        lists = matching_top_k(S, 3)
        for i, cand in enumerate(lists):
            cols = set(S.row(i)[0])
            assert set(cand) <= cols

    def test_empty_row_yields_empty_candidates(self):
        matrix = sparse.csr_matrix(
            (np.array([True, True]), (np.array([0, 0]), np.array([1, 2]))),
            shape=(2, 4),
        )
        S = SparseSimilarity(CandidateMask(matrix), np.array([1.0, 2.0]))
        assert direct_top_k(S, 2) == [[2, 1], []]
        ranks = true_match_ranks(S, ["a0", "a1"], ["b0", "b1", "b2", "b3"], {"a1": "b0"})
        assert ranks["a1"] == 4  # pruned truth ties pessimally with unscored

    def test_scores_at_and_rows(self):
        matrix = sparse.csr_matrix(
            (np.array([True, True, True]), (np.array([0, 0, 1]), np.array([0, 2, 1]))),
            shape=(2, 3),
        )
        S = SparseSimilarity(CandidateMask(matrix), np.array([1.5, 0.5, 2.0]))
        assert np.array_equal(S.scores_at(0, [0, 1, 2]), [1.5, 0.0, 0.5])
        assert np.array_equal(S.dense_row(1), [0.0, 2.0, 0.0])
        assert S.max() == 2.0
        assert S.min() == 0.0  # floor shows through the unscored pairs
        dense = S.to_dense()
        assert dense.shape == (2, 3)
        assert dense[0, 1] == 0.0 and dense[1, 1] == 2.0


#: Subprocess oracle for cross-process determinism: rebuilds the same
#: world, hashes the LSH mask's CSR structure, prints the digest.
_SUBPROCESS_DIGEST_SCRIPT = """
import hashlib
from repro.core import lsh_candidates
from repro.datagen import webmd_like
from repro.forum.split import closed_world_split
from repro.graph.uda import UDAGraph

corpus = webmd_like(n_users=40, seed=3, min_posts_per_user=2).dataset
split = closed_world_split(corpus, aux_fraction=0.5, seed=11)
mask = lsh_candidates(UDAGraph(split.anonymized), UDAGraph(split.auxiliary))
digest = hashlib.sha256()
digest.update(mask.matrix.indptr.tobytes())
digest.update(mask.matrix.indices.tobytes())
print(digest.hexdigest())
"""


class TestANNPolicies:
    """LSH and NSW-graph candidate generation: determinism, caps, and the
    no-dense-materialization guarantee."""

    def test_lsh_signature_bits_shape_and_determinism(self, small_world):
        _, g1, g2 = small_world
        X1, X2 = _profile_matrix(g1), _profile_matrix(g2)
        bits1, bits2 = lsh_signature_bits(X1, X2, bands=8, rows=4, seed=7)
        # padded to the ranking width, never below bands*rows
        from repro.core.blocking import LSH_RANK_BITS

        assert bits1.shape == (g1.n_users, max(LSH_RANK_BITS, 32))
        assert bits2.shape[0] == g2.n_users
        again1, again2 = lsh_signature_bits(X1, X2, bands=8, rows=4, seed=7)
        assert np.array_equal(bits1, again1)
        assert np.array_equal(bits2, again2)
        other1, _ = lsh_signature_bits(X1, X2, bands=8, rows=4, seed=8)
        assert not np.array_equal(bits1, other1)

    def test_lsh_mask_deterministic_across_runs(self, small_world):
        _, g1, g2 = small_world
        a = lsh_candidates(g1, g2)
        b = lsh_candidates(g1, g2)
        assert (a.matrix != b.matrix).nnz == 0
        assert a.meta == b.meta

    def test_lsh_mask_deterministic_across_processes(self, small_world):
        _, g1, g2 = small_world
        mask = lsh_candidates(g1, g2)
        import hashlib

        digest = hashlib.sha256()
        digest.update(mask.matrix.indptr.tobytes())
        digest.update(mask.matrix.indices.tobytes())
        # the small_world fixture is built from the same corpus parameters
        # the subprocess script uses, so equal digests mean the signatures,
        # buckets, and cap selection all replay bit-identically elsewhere
        result = subprocess.run(
            [sys.executable, "-c", _SUBPROCESS_DIGEST_SCRIPT],
            capture_output=True,
            text=True,
            check=True,
        )
        assert result.stdout.strip() == digest.hexdigest()

    def test_lsh_respects_keep_fraction(self, small_world):
        _, g1, g2 = small_world
        keep = 0.25
        mask = lsh_candidates(g1, g2, keep_fraction=keep)
        cap = int(np.ceil(keep * g2.n_users))
        assert np.diff(mask.matrix.indptr).max() <= cap
        assert mask.meta["lsh_collision_touches"] >= mask.meta[
            "lsh_distinct_pairs"
        ] >= mask.n_pairs

    def test_ann_graph_respects_caps(self, small_world):
        _, g1, g2 = small_world
        mask = ann_graph_candidates(g1, g2, ef=6, keep_fraction=0.9)
        assert np.diff(mask.matrix.indptr).max() <= 6  # ef < keep cap
        mask = ann_graph_candidates(g1, g2, ef=64, keep_fraction=0.1)
        cap = int(np.ceil(0.1 * g2.n_users))
        assert np.diff(mask.matrix.indptr).max() <= cap
        assert mask.meta["ann_graph_edges"] > 0

    def test_ann_graph_deterministic_across_runs(self, small_world):
        _, g1, g2 = small_world
        a = ann_graph_candidates(g1, g2)
        b = ann_graph_candidates(g1, g2)
        assert (a.matrix != b.matrix).nnz == 0

    def test_nsw_exhaustive_search_is_exact(self, small_world):
        """A beam wider than the graph walks every (connected) node, so
        the search must return the exact cosine ranking."""
        _, _, g2 = small_world
        X = _profile_matrix(g2)
        index = NSWIndex(X, m=4, ef=8, seed=0)
        dense = np.asarray(X.todense(), dtype=np.float64)
        norms = np.linalg.norm(dense, axis=1)
        unit = dense / np.maximum(norms, 1e-12)[:, None]
        rng = random.Random(13)
        for node in rng.sample(range(g2.n_users), 5):
            q = unit[node]
            found = index.search(q, ef=4 * g2.n_users)
            sims = unit @ q
            best = int(np.lexsort((np.arange(len(sims)), -sims))[0])
            assert found[0][1] == best

    def test_no_dense_pair_allocation(self, small_world, monkeypatch):
        """Neither ANN policy may materialize an (n1, n2) array — the
        no-quadratic-memory guarantee, asserted at the allocator."""
        _, g1, g2 = small_world
        n1, n2 = g1.n_users, g2.n_users
        offenders: list = []

        def guard(name, real):
            def wrapped(shape, *args, **kwargs):
                dims = shape if isinstance(shape, tuple) else (shape,)
                if tuple(dims) == (n1, n2):
                    offenders.append((name, dims))
                return real(shape, *args, **kwargs)

            return wrapped

        for name in ("zeros", "empty", "ones", "full"):
            monkeypatch.setattr(np, name, guard(name, getattr(np, name)))
        lsh_candidates(g1, g2)
        ann_graph_candidates(g1, g2, ef=8)
        assert offenders == []


class TestNSWDegenerate:
    """Empty / single-node / zero-norm corpora must not crash the index
    (regressions: empty-corpus entry point, single-node search, NaN
    similarities from un-normalizable profiles)."""

    def test_empty_index_searches_empty(self):
        index = NSWIndex(sparse.csr_matrix((0, 5)), m=4, ef=8, seed=0)
        assert index.n == 0
        assert index.search(np.ones(5)) == []

    def test_empty_index_accepts_inserts(self):
        index = NSWIndex(sparse.csr_matrix((0, 3)), m=2, ef=4, seed=0)
        first = index.insert(np.array([1.0, 0.0, 0.0]))
        assert first == 0
        assert index.search(np.array([1.0, 0.0, 0.0]))[0][1] == 0
        second = index.insert(np.array([0.0, 1.0, 0.0]))
        assert second == 1
        found = index.search(np.array([0.0, 1.0, 0.0]), ef=8)
        assert found[0][1] == 1
        assert found[0][0] == pytest.approx(1.0)

    def test_single_node_index(self):
        X = sparse.csr_matrix(np.array([[3.0, 4.0]]))
        index = NSWIndex(X, m=4, ef=8, seed=0)
        found = index.search(np.array([0.6, 0.8]))
        assert [j for _, j in found] == [0]
        assert found[0][0] == pytest.approx(1.0)

    def test_zero_norm_profiles_stay_finite(self):
        rows = np.array(
            [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0], [1.0, 1.0]]
        )
        index = NSWIndex(sparse.csr_matrix(rows), m=2, ef=8, seed=0)
        found = index.search(np.array([1.0, 0.0]), ef=4 * len(rows))
        sims = [s for s, _ in found]
        assert np.isfinite(sims).all()
        assert found[0][1] == 0  # the identical row wins
        # zero rows score 0.0, never NaN
        by_node = dict((j, s) for s, j in found)
        assert by_node[1] == 0.0 and by_node[3] == 0.0

    def test_zero_norm_insert(self):
        index = NSWIndex(sparse.csr_matrix(np.eye(3)), m=2, ef=4, seed=0)
        node = index.insert(np.zeros(3))
        assert node == 3
        found = index.search(np.ones(3) / np.sqrt(3), ef=12)
        assert {j for _, j in found} == {0, 1, 2, 3}


class TestPruneDeterminism:
    def test_prune_ties_break_by_node_id(self):
        # four identical rows: every similarity ties at 1.0, so _prune
        # must fall through to the node-id tie-break — numpy float64
        # scalars in the sort key used to make that comparison
        # dtype-dependent
        rows = np.tile(np.array([[0.6, 0.8]]), (4, 1))
        index = NSWIndex(sparse.csr_matrix(rows), m=2, ef=8, seed=0)
        index.neighbors[0] = [3, 1, 2]
        kept = index._prune(0, max_degree=2)
        assert kept == [1, 2]
        assert all(isinstance(j, int) for j in kept)

    def test_prune_deterministic_across_runs(self):
        rng = np.random.default_rng(11)
        base = rng.normal(size=(1, 6))
        rows = np.vstack([base] * 5 + [rng.normal(size=(2, 6))])
        kept_runs = []
        for _ in range(2):
            index = NSWIndex(sparse.csr_matrix(rows), m=2, ef=8, seed=3)
            index.neighbors[0] = list(range(1, 7))
            kept_runs.append(index._prune(0, max_degree=3))
        assert kept_runs[0] == kept_runs[1]
        # duplicate rows (nodes 1-4) tie at sim 1.0; lowest ids win
        assert kept_runs[0][:2] == [1, 2]
