"""Candidate blocking: masks, policies, and the sparse scoring path.

Two property suites anchor the refactor:

* **dense identity** — ``blocking="none"`` is the exact dense path
  (element-wise identical matrices), and every policy's pair-level scores
  equal the dense matrix at the masked positions, byte for byte;
* **recall gate** — on rich synthetic ground-truth corpora (seeded
  stdlib-random draws), each policy's candidate sets contain every true
  match, so blocking never prunes the answer itself.

The sparse consumers (top-k, ranks, filtering) are checked against the
floor-filled dense semantics they are defined by, on randomly generated
masks and scores.
"""

import ast
import hashlib
import json
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
    SimilarityCache,
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
    "degree_band": {"blocking_band_width": 2.0},
    "attr_index": {"blocking_keep": 0.7},
    "union": {"blocking_band_width": 1.0, "blocking_keep": 0.3},
    # lsh: 2-bit bands make a bucket collision near-certain for any pair
    # with correlated profiles; no per-row cap, so the gate isolates the
    # bucketing itself
    "lsh": {
        "blocking_lsh_bands": 64, "blocking_lsh_rows": 2, "blocking_keep": 1.0,
    },
    # ann_graph: a beam wider than the auxiliary side walks the whole
    # (connected-by-construction) NSW graph — exhaustive, so the gate
    # isolates graph connectivity
    "ann_graph": {"blocking_ann_ef": 256, "blocking_keep": 1.0},
}


@pytest.fixture(scope="module")
def small_world():
    corpus = webmd_like(n_users=40, seed=3, min_posts_per_user=2).dataset
    split = closed_world_split(corpus, aux_fraction=0.5, seed=11)
    return split, UDAGraph(split.anonymized), UDAGraph(split.auxiliary)


def _search(index: NSWIndex, q, ef=None) -> list:
    """One query through ``search_batch``: ``[(similarity, node), ...]``,
    best first."""
    row = sparse.csr_matrix(np.asarray(q, dtype=np.float64).reshape(1, -1))
    ((nodes, sims),) = index.search_batch(row, ef=ef)
    return [(float(s), int(j)) for s, j in zip(sims, nodes)]


def _true_match_ranks_sparse(
    S: SparseSimilarity,
    anon_ids: list[str],
    aux_ids: list[str],
    truth_mapping: dict,
) -> dict:
    """The per-row ranking loop ``true_match_ranks`` replaced, frozen as
    its oracle."""
    if S.shape != (len(anon_ids), len(aux_ids)):
        raise ConfigError(
            f"similarity shape {S.shape} does not match id lists "
            f"({len(anon_ids)}, {len(aux_ids)})"
        )
    aux_index = {u: j for j, u in enumerate(aux_ids)}
    n2 = S.shape[1]
    ranks: dict = {}
    for i, anon in enumerate(anon_ids):
        target = truth_mapping.get(anon)
        if target is None or target not in aux_index:
            ranks[anon] = None
            continue
        cols, vals = S.row(i)
        score = float(S.scores_at(i, [aux_index[target]])[0])
        rank = int((vals >= score).sum())
        if S.floor >= score:
            rank += n2 - len(cols)  # unscored pairs tie in (pessimistic)
        ranks[anon] = rank
    return ranks


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
                assert int(j) in mask.row_cols(i)

    def test_union_is_elementwise_or(self, small_world):
        _, g1, g2 = small_world
        band = degree_band_candidates(g1, g2)
        attr = attr_index_candidates(g1, g2, keep_fraction=0.3)
        union = band | attr
        expected = band.matrix.maximum(attr.matrix)
        assert (union.matrix != expected).nnz == 0
        assert union.n_pairs >= max(band.n_pairs, attr.n_pairs)
        direct = build_candidates(g1, g2, blocking="union", blocking_keep=0.3)
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
        assert build_candidates(g1, g2, blocking="none") is None
        for policy in ALL_POLICIES:
            mask = build_candidates(g1, g2, blocking=policy)
            assert isinstance(mask, CandidateMask)
        with pytest.raises(ConfigError, match="blocking"):
            build_candidates(g1, g2, blocking="simhashx")

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
        assert parse_blocking("union") == ("degree_band", "attr_index")
        assert parse_blocking("union+degree_band") == (
            "degree_band",
            "attr_index",
        )
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
        composite = build_candidates(g1, g2, blocking="lsh+degree_band")
        lsh = build_candidates(g1, g2, blocking="lsh")
        band = build_candidates(g1, g2, blocking="degree_band")
        expected = lsh.matrix.maximum(band.matrix)
        assert (composite.matrix != expected).nnz == 0
        # meta of both parts survives the union
        assert "lsh_collision_touches" in composite.meta

    def test_spellings_of_one_composite_share_a_cache_entry(self, small_world):
        """``union`` and both orders of its atoms are one OR of masks, so
        one cache builds that mask and its pair scores once."""
        _, g1, g2 = small_world
        cache = SimilarityCache()
        for policy in ("union", "degree_band+attr_index", "attr_index+degree_band"):
            SimilarityComputer(
                g1, g2, n_landmarks=5, cache=cache, blocking=policy
            ).combined_sparse()
        assert cache.builds["blocking"] == 1
        assert cache.builds["combined_pairs"] == 1


class TestDenseIdentity:
    def test_none_is_the_dense_path(self, small_world):
        split, g1, g2 = small_world
        attack = DeHealth(DeHealthConfig(n_landmarks=5)).fit(g1, g2)
        scores = attack.similarity_scores()
        assert scores.n_pairs == g1.n_users * g2.n_users
        reference = SimilarityComputer(g1, g2, n_landmarks=5).combined()
        assert scores.to_dense().tobytes() == reference.tobytes()
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
        # byte-identical, not just close: blocked scores are the dense
        # scores sampled at the mask
        assert (
            scores.values.tobytes() == dense.combined()[rows, cols].tobytes()
        )
        # sampled from the component blocks: the blocked computer never
        # builds a combined n1 × n2 matrix of its own
        assert not computer.cache.has(*computer.combined_key())

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
            mask = build_candidates(
                g1, g2, blocking=policy, **GATE_KNOBS[policy]
            )
            aux_index = {u: j for j, u in enumerate(g2.users)}
            for i, anon in enumerate(g1.users):
                target = split.truth.mapping.get(anon)
                if target is None or target not in aux_index:
                    continue
                assert aux_index[target] in mask.row_cols(i), (
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
        """Partial masks and their floor-filled dense form rank like the
        frozen per-row loop: tied and exact-zero scores, pruned true
        matches, empty rows, users without a truth entry, truth ids
        outside ``aux_ids`` and worlds without anonymized users."""
        rng = random.Random(78)
        for trial in range(200):
            n1, n2 = rng.randint(0, 8), rng.randint(1, 10)
            density = rng.uniform(0.2, 1.0)
            kept = np.array(
                [rng.random() < density for _ in range(n1 * n2)], dtype=bool
            ).reshape(n1, n2)
            if n1 and rng.random() < 0.3:
                kept[rng.randrange(n1)] = False
            mask = CandidateMask(sparse.csr_matrix(kept))
            tied = rng.random()  # share of scores drawn from {0, 0.5, 1}
            values = [
                rng.choice((0.0, 0.5, 1.0))
                if rng.random() < tied
                else rng.uniform(0.0, 3.0)
                for _ in range(mask.n_pairs)
            ]
            S = SparseSimilarity(mask, np.array(values, dtype=np.float64))
            dense = SparseSimilarity.from_dense(S.to_dense())
            anon_ids = [f"a{i}" for i in range(n1)]
            aux_ids = [f"b{j}" for j in range(n2)]
            truth = {}
            for anon in anon_ids:
                draw = rng.random()
                if draw < 0.7:
                    truth[anon] = f"b{rng.randrange(n2)}"
                elif draw < 0.85:
                    truth[anon] = "not-an-aux-id"
            args = (anon_ids, aux_ids, truth)
            expected = _true_match_ranks_sparse(S, *args)
            assert true_match_ranks(S, *args) == expected, trial
            assert _true_match_ranks_sparse(dense, *args) == expected, trial
            assert true_match_ranks(dense, *args) == expected, trial
            assert true_match_ranks(S.to_dense(), *args) == expected, trial
        assert true_match_ranks(np.zeros((0, 3)), [], ["b0", "b1", "b2"], {}) == {}

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
            found = _search(index, q, ef=4 * g2.n_users)
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
        assert _search(index, np.ones(5)) == []

    def test_single_node_index(self):
        X = sparse.csr_matrix(np.array([[3.0, 4.0]]))
        index = NSWIndex(X, m=4, ef=8, seed=0)
        found = _search(index, np.array([0.6, 0.8]))
        assert [j for _, j in found] == [0]
        assert found[0][0] == pytest.approx(1.0)

    def test_zero_norm_profiles_stay_finite(self):
        rows = np.array(
            [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [0.0, 0.0], [1.0, 1.0]]
        )
        index = NSWIndex(sparse.csr_matrix(rows), m=2, ef=8, seed=0)
        found = _search(index, np.array([1.0, 0.0]), ef=4 * len(rows))
        sims = [s for s, _ in found]
        assert np.isfinite(sims).all()
        assert found[0][1] == 0  # the identical row wins
        # zero rows score 0.0, never NaN
        by_node = dict((j, s) for s, j in found)
        assert by_node[1] == 0.0 and by_node[3] == 0.0


class TestPairSimsChunking:
    """``_pair_sims`` gathers its row pairs one chunk at a time; the chunk
    size bounds memory only and never changes a similarity's bytes."""

    def test_same_bytes_at_every_chunk_size(self, monkeypatch):
        import repro.core.blocking as blocking

        rng = np.random.default_rng(4)
        A = rng.standard_normal((300, blocking.NSW_EXPLORE_DIMS))
        B = rng.standard_normal((200, blocking.NSW_EXPLORE_DIMS))
        A, B = A.astype(np.float32), B.astype(np.float32)
        n_pairs = 2 * blocking._NSW_PAIR_CHUNK + 5
        left = rng.integers(0, len(A), size=n_pairs)
        right = rng.integers(0, len(B), size=n_pairs)

        expected = blocking._pair_sims(A, B, left, right)
        assert expected.dtype == np.float32 and len(expected) == n_pairs
        for chunk in (1, 7):
            monkeypatch.setattr(blocking, "_NSW_PAIR_CHUNK", chunk)
            got = blocking._pair_sims(A, B, left, right)
            assert got.tobytes() == expected.tobytes(), chunk


@pytest.fixture(scope="module")
def pin_worlds(small_world):
    """The module's ``small_world`` and closed split 118 of the golden
    corpus, as ``(anonymized, auxiliary)`` graph pairs."""
    from tests.goldens import golden_corpus

    golden = closed_world_split(golden_corpus(), aux_fraction=0.5, seed=118)
    return {
        "small": small_world[1:],
        "golden118": (UDAGraph(golden.anonymized), UDAGraph(golden.auxiliary)),
    }


def _digest(arrays, meta=None) -> str:
    """First 16 hex digits of a sha256 over each array's dtype name and
    bytes, then the sorted-key JSON of ``meta``."""
    h = hashlib.sha256()
    for arr in arrays:
        h.update(str(arr.dtype).encode("ascii"))
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(json.dumps(meta or {}, sort_keys=True).encode("utf-8"))
    return h.hexdigest()[:16]


def _unit_queries(graph: UDAGraph) -> sparse.csr_matrix:
    """``graph``'s profile rows scaled to unit L2 norm (zero rows stay
    zero), computed densely so the queries do not depend on the module."""
    X = _profile_matrix(graph).astype(np.float64).toarray()
    norms = np.linalg.norm(X, axis=1)
    return sparse.csr_matrix(X / np.where(norms > 0, norms, 1.0)[:, None])


_ATOMS = {
    "degree_band": degree_band_candidates,
    "attr_index": attr_index_candidates,
    "lsh": lsh_candidates,
    "ann_graph": ann_graph_candidates,
}

#: ``(world, atom, knobs)`` -> :func:`_digest` of the mask's CSR
#: ``indices`` and ``indptr`` and its ``meta``.  ``keep_fraction`` 0.1
#: caps most rows and 1.0 none; one ``lsh`` geometry (1 band × 62 rows)
#: gives no collision at all on the golden split.
MASK_PINS = {
    ("small", "degree_band", "band_width=1.0"): "329a0d7e2f2b4ab0",
    ("small", "degree_band", "band_width=0.5"): "e6573c0c83d66095",
    ("small", "attr_index", ""): "c6eb8cc063c03150",
    ("small", "attr_index", "keep_fraction=0.1"): "8489722c8b1f6b61",
    ("small", "attr_index", "keep_fraction=1.0"): "54a205b9670807f7",
    ("small", "attr_index", "min_shared=3,keep_fraction=0.5"): "8f88b0f5428c5da6",
    ("small", "lsh", ""): "62351e1deba57be5",
    ("small", "lsh", "keep_fraction=0.1"): "502ec37dec7f1300",
    ("small", "lsh", "bands=16,rows=4,keep_fraction=1.0,seed=3"): "63e90f01aa9b4989",
    ("small", "lsh", "bands=1,rows=62"): "bfcfe9db49a00b0a",
    ("small", "ann_graph", ""): "6f6ae29acc511808",
    ("small", "ann_graph", "keep_fraction=0.1"): "16991bb9e8211288",
    ("small", "ann_graph", "m=4,ef=8,keep_fraction=1.0"): "7ccc2f13fe57a8a2",
    ("small", "ann_graph", "ef=500,keep_fraction=0.5,seed=2"): "9ad2d53f6590c58f",
    ("golden118", "degree_band", "band_width=1.0"): "af46d273f75426f0",
    ("golden118", "degree_band", "band_width=0.5"): "939da9d5fde7ebb1",
    ("golden118", "attr_index", ""): "8e7b9882e68512e9",
    ("golden118", "attr_index", "keep_fraction=0.1"): "36822da83b46c275",
    ("golden118", "attr_index", "keep_fraction=1.0"): "8500e0ced6c29d4c",
    ("golden118", "attr_index", "min_shared=3,keep_fraction=0.5"): "a47e6d597697cdd3",
    ("golden118", "lsh", ""): "d852a17aafc1dbd6",
    ("golden118", "lsh", "keep_fraction=0.1"): "980d8020d5ab5d20",
    ("golden118", "lsh", "bands=16,rows=4,keep_fraction=1.0,seed=3"): "56fbaab97ae6520d",
    ("golden118", "lsh", "bands=1,rows=62"): "710833c4a95c6039",
    ("golden118", "ann_graph", ""): "ec3c5a3afb5e7f7c",
    ("golden118", "ann_graph", "keep_fraction=0.1"): "a2d758e9a36aaedb",
    ("golden118", "ann_graph", "m=4,ef=8,keep_fraction=1.0"): "6d45413c3c1f1aa6",
    ("golden118", "ann_graph", "ef=500,keep_fraction=0.5,seed=2"): "503e70e3b01d1d24",
}

#: ``(world, (m, ef, seed), part)`` -> :func:`_digest` of an
#: :class:`NSWIndex` over the auxiliary profiles: ``"adjacency"`` covers
#: ``_adj_indices`` and the padded neighbour table, ``"rescore"`` and
#: ``"projected"`` every ``(nodes, sims)`` that ``search_batch`` returns
#: for the unit anonymized profiles at ``ef`` 1, 16, the index's own and
#: 500, with ``rescore`` on and off.
NSW_PINS = {
    ("small", (12, 48, 0), "adjacency"): "4e916cde50c2792d",
    ("small", (12, 48, 0), "rescore"): "49622953ce2ae580",
    ("small", (12, 48, 0), "projected"): "d3b4c1995e9c31e5",
    ("small", (4, 8, 2), "adjacency"): "5f47c08e38c27b08",
    ("small", (4, 8, 2), "rescore"): "ca109496ade8364d",
    ("small", (4, 8, 2), "projected"): "8882e6eb7740f11f",
    ("golden118", (12, 48, 0), "adjacency"): "2add013eea258d1a",
    ("golden118", (12, 48, 0), "rescore"): "cdadf1713b655c5a",
    ("golden118", (12, 48, 0), "projected"): "75ba4bfe0b84e510",
    ("golden118", (4, 8, 2), "adjacency"): "65a31842732118a8",
    ("golden118", (4, 8, 2), "rescore"): "069039cbe571f698",
    ("golden118", (4, 8, 2), "projected"): "4451e8e9e518c6e9",
}


def _knobs(spec: str) -> dict:
    """``"bands=1,rows=62"`` -> ``{"bands": 1, "rows": 62}``."""
    pairs = (item.split("=") for item in spec.split(",") if item)
    return {name: ast.literal_eval(value) for name, value in pairs}


def _nsw_id(case) -> str:
    world, (m, ef, seed), part = case
    return f"{world}-m={m},ef={ef},seed={seed}-{part}"


def _mask_digest(graphs, atom: str, knobs) -> str:
    mask = _ATOMS[atom](*graphs, **_knobs(knobs))
    m = mask.matrix
    return _digest((m.indices, m.indptr), mask.meta)


def _nsw_digest(graphs, params, part: str) -> str:
    m, ef, seed = params
    index = NSWIndex(_profile_matrix(graphs[1]), m=m, ef=ef, seed=seed)
    if part == "adjacency":
        return _digest((index._adj_indices, index._nbr_pad))
    queries = _unit_queries(graphs[0])
    arrays = []
    for width in (1, 16, None, 500):
        for nodes, sims in index.search_batch(
            queries, ef=width, rescore=part == "rescore"
        ):
            arrays += [nodes, sims]
    return _digest(arrays)


class TestMaskPins:
    """Every atom's mask, and the NSW index under ``ann_graph``, pinned by
    digest: a refactor of the blocking module must leave each byte, dtype
    and ``meta`` entry where it was."""

    @pytest.mark.parametrize(
        "case", list(MASK_PINS), ids=lambda case: "-".join(case)
    )
    def test_mask_matches_pin(self, pin_worlds, case):
        world, atom, knobs = case
        assert _mask_digest(pin_worlds[world], atom, knobs) == MASK_PINS[case]

    @pytest.mark.parametrize("case", list(NSW_PINS), ids=_nsw_id)
    def test_nsw_matches_pin(self, pin_worlds, case):
        world, params, part = case
        assert _nsw_digest(pin_worlds[world], params, part) == NSW_PINS[case]

    def test_pins_cover_the_cap_and_no_collision(self, pin_worlds):
        g1, g2 = pin_worlds["golden118"]
        cap = int(np.ceil(0.1 * g2.n_users))
        capped = attr_index_candidates(g1, g2, keep_fraction=0.1)
        assert (np.diff(capped.matrix.indptr) == cap).mean() > 0.5
        none = lsh_candidates(g1, g2, bands=1, rows=62)
        assert none.n_pairs == 0
        assert none.meta == {"lsh_collision_touches": 0, "lsh_distinct_pairs": 0}
