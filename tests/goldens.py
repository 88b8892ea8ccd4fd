"""Golden-report matrix definitions shared by tests and the regen script.

The golden suite locks the *science* of the sweep executor: for five
fixed matrices (fig3-style, fig5-style, ablation-style, refined-phase,
blocked-path) on a small fixed corpus, the canonical merged-report JSON must be
byte-identical between serial execution, parallel execution, and the
checked-in files under ``tests/golden/``.  Regenerate after an intentional
numerics change with::

    PYTHONPATH=src python tests/goldens.py --write

and review the diff like any other code change.  ``--check`` is the CI
drift gate: a read-only comparison that exits non-zero on any mismatch,
so scoring regressions fail fast before the full suite runs::

    PYTHONPATH=src python tests/goldens.py --check
"""

from __future__ import annotations

from pathlib import Path

from repro.api import AttackRequest, Engine, canonical_report_json
from repro.datagen import webmd_like
from repro.experiments import (
    selection_ablation_requests,
    weights_ablation_requests,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Corpus parameters for every golden matrix (small = fast fits).
GOLDEN_CORPUS_USERS = 60
GOLDEN_CORPUS_SEED = 101


def golden_corpus():
    return webmd_like(
        n_users=GOLDEN_CORPUS_USERS, seed=GOLDEN_CORPUS_SEED
    ).dataset


def golden_engine() -> Engine:
    engine = Engine()
    engine.register("golden", golden_corpus())
    return engine


def fig3_matrix() -> list:
    """12-variant fig3-style matrix: 3 closed splits × 4 top_k values."""
    base = AttackRequest(
        corpus="golden",
        world="closed",
        split_seed=118,
        n_landmarks=5,
        refined=False,
        ks=(1, 5, 10),
    )
    return [
        base.variant(aux_fraction=fraction, top_k=k)
        for fraction in (0.5, 0.7, 0.9)
        for k in (3, 5, 10, 20)
    ]


def fig5_matrix() -> list:
    """Fig5-style matrix: 2 open splits × 2 top_k values."""
    base = AttackRequest(
        corpus="golden",
        world="open",
        split_seed=129,
        n_landmarks=5,
        refined=False,
        ks=(1, 5, 10),
    )
    return [
        base.variant(overlap_ratio=ratio, top_k=k)
        for ratio in (0.5, 0.9)
        for k in (3, 10)
    ]


def ablation_matrix() -> list:
    """Weights + selection ablation variants over two closed splits."""
    return weights_ablation_requests(
        corpus="golden", split_seed=8, n_landmarks=5, ks=(1, 5, 10)
    ) + selection_ablation_requests(
        corpus="golden", split_seed=10, top_k=5, n_landmarks=5
    )


def refined_matrix() -> list:
    """Refined-phase variants: the smo, knn and centroid classifiers on
    one closed split, the pre-rank cut, and both open-world verifications
    (false addition with three decoys, mean verification)."""
    closed = AttackRequest(
        corpus="golden",
        world="closed",
        split_seed=118,
        n_landmarks=5,
        ks=(1, 5, 10),
    )
    open_world = closed.variant(world="open", split_seed=129)
    return [
        closed.variant(classifier="smo"),
        closed.variant(classifier="knn"),
        closed.variant(classifier="centroid"),
        closed.variant(classifier="smo", refined_keep_fraction=0.5),
        open_world.variant(
            verification="false_addition", false_addition_count=3
        ),
        open_world.variant(verification="mean"),
    ]


def blocking_matrix() -> list:
    """Blocked-path variants on one closed split: ``degree_band`` once (it
    reads no keep fraction); ``attr_index``, ``union``, ``lsh``,
    ``ann_graph`` and ``lsh+degree_band`` at ``blocking_keep`` 0.5 and
    0.1; and ``union`` with matching selection.

    Every variant runs ``refined: false``, so its success rates come from
    the true-match ranks, which never read a candidate set: the matching
    variant pins the ``union`` mask (at the default keep), not matching
    selection, and reads the same rates as ``union`` with direct
    selection."""
    base = AttackRequest(
        corpus="golden",
        world="closed",
        split_seed=118,
        n_landmarks=5,
        top_k=5,
        refined=False,
        ks=(1, 5, 10),
    )
    return (
        [base.variant(blocking="degree_band")]
        + [
            base.variant(blocking=policy, blocking_keep=keep)
            for policy in (
                "attr_index", "union", "lsh", "ann_graph", "lsh+degree_band"
            )
            for keep in (0.5, 0.1)
        ]
        + [base.variant(blocking="union", selection="matching")]
    )


MATRICES = {
    "fig3_matrix": fig3_matrix,
    "fig5_matrix": fig5_matrix,
    "ablation_matrix": ablation_matrix,
    "refined_matrix": refined_matrix,
    "blocking_matrix": blocking_matrix,
}


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


def compute_golden(name: str, parallel: int = 1) -> str:
    """Canonical report JSON for matrix ``name`` on a fresh engine."""
    engine = golden_engine()
    reports = engine.sweep(MATRICES[name](), parallel=parallel)
    return canonical_report_json(reports, indent=2)


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--write", action="store_true", help="regenerate tests/golden/*.json"
    )
    parser.add_argument(
        "--check", action="store_true",
        help="read-only drift gate: exit 1 if any golden mismatches",
    )
    args = parser.parse_args(argv)
    if args.write and args.check:
        parser.error("--write and --check are mutually exclusive")
    stale = 0
    for name in MATRICES:
        text = compute_golden(name)
        path = golden_path(name)
        if args.write:
            GOLDEN_DIR.mkdir(exist_ok=True)
            path.write_text(text, encoding="utf-8")
            print(f"wrote {path}")
        else:
            fresh = path.exists() and path.read_text(encoding="utf-8") == text
            stale += 0 if fresh else 1
            print(f"{path}: {'match' if fresh else 'STALE'}")
    if args.check and stale:
        print(f"{stale} golden(s) drifted; regenerate with --write if intended")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
