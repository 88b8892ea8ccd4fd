#!/usr/bin/env python3
"""Open-world de-anonymization with verification (the Fig 6 scenario).

Builds two datasets whose user populations only partially overlap, then
compares De-Health with mean-verification against the traditional
Stylometry baseline on both accuracy and false-positive rate.  The baseline
cannot say ⊥, so every non-overlapping user it maps is a false positive;
De-Health's mean-verification scheme rejects low-evidence mappings.

The De-Health variants run through the session-based API
(:class:`repro.api.AttackSession`): both requests share one feature
extraction and one similarity computation, as the cache stats printed at
the end show.

Run:  python examples/open_world_attack.py
"""

from repro import StylometryBaseline
from repro.api import AttackRequest, AttackSession
from repro.experiments import refined_open_split

SEED = 3
OVERLAP = 0.5  # half the anonymized users have no auxiliary counterpart


def main() -> None:
    split = refined_open_split(
        overlap_ratio=OVERLAP, n_users=60, posts_per_user=20, seed=SEED
    )
    truth = split.truth
    print(f"auxiliary:  {split.auxiliary}")
    print(f"anonymized: {split.anonymized}")
    print(
        f"overlapping users: {len(truth.overlapping_ids)}, "
        f"without true mapping: {len(truth.non_overlapping_ids)}"
    )

    session = AttackSession(split)

    # --- baseline: one classifier over everyone, no rejection option
    baseline = StylometryBaseline(classifier="knn")
    base_result = baseline.deanonymize(*session.graphs)
    print("\nStylometry baseline:")
    print(f"  accuracy:            {base_result.accuracy(truth):.1%}")
    print(f"  false-positive rate: {base_result.false_positive_rate(truth):.1%}")

    # --- De-Health, with and without verification: one request protocol,
    # one shared fit.  The paper's r=0.25 on its score scale maps to ~0.03
    # on ours after floor correction (DESIGN.md §3).
    base = AttackRequest(
        world="open",
        overlap_ratio=OVERLAP,
        split_seed=SEED + 3,  # refined_open_split's actual split seed
        top_k=5,
        n_landmarks=5,
        classifier="knn",
    )
    unverified = session.run(base)
    verified = session.run(base.variant(verification="mean", verification_r=0.03))

    print("\nDe-Health (K=5, no verification):")
    print(f"  accuracy:            {unverified.refined_accuracy:.1%}")
    print(f"  false-positive rate: {unverified.false_positive_rate:.1%}")

    print("\nDe-Health (K=5, mean-verification r=0.03 floor-corrected):")
    print(f"  accuracy:            {verified.refined_accuracy:.1%}")
    print(f"  false-positive rate: {verified.false_positive_rate:.1%}")
    print(f"  rejected as ⊥:       {verified.rejection_rate:.1%}")

    stats = session.stats()
    print(
        f"\nsession cache: {stats['graph_builds']} graph build(s), "
        f"{stats['similarity_builds'].get('combined', 0)} combined-similarity "
        f"computation(s) across {stats['runs']} attack runs"
    )


if __name__ == "__main__":
    main()
