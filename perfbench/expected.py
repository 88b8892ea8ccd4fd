"""Write the reference reports the library workloads are checked against.

    python3 perfbench/expected.py

Run it from the repository root.  For every split seed in the
``split_pool`` of ``attack_refined`` and ``topk_sweep`` it computes the
canonical reports of that split's op through the library pipeline,
``DeHealth(config).fit`` then ``top_k_result`` and, for a refined
request, ``deanonymize``, rather than through the ``Engine`` the benchmark
times.  It writes them, without the request each report echoes, to
``expected/<workload>.json``, one line per split seed.  The benchmark
compares every op with these files, so a change to what any layer
returns fails the op.  Write them again only after an intended change of
the attack's numbers, and review the diff like code.
"""

from __future__ import annotations

import json
import sys

import run


def reference_reports(requests: list, split, extractor) -> list:
    """The canonical reports of ``requests`` on ``split``.  Consecutive
    requests reuse the fitted graph pair and similarity cache, as one
    engine session does."""
    from repro.api import AttackReport
    from repro.core import DeHealth, SimilarityCache

    graphs = (split.anonymized, split.auxiliary)
    cache = SimilarityCache()
    truth = split.truth
    reports = []
    for request in requests:
        attack = DeHealth(request.to_config()).fit(
            *graphs, extractor=extractor, similarity_cache=cache
        )
        graphs = (attack.anonymized, attack.auxiliary)
        topk = attack.top_k_result(truth)
        fields = {
            "request": request,
            "n_anonymized": attack.anonymized.n_users,
            "n_auxiliary": attack.auxiliary.n_users,
            "n_evaluated": topk.n_evaluated,
            "success_rates": {
                k: topk.success_rate(k) for k in request.evaluation_ks()
            },
        }
        if request.refined:
            result = attack.deanonymize()
            fields.update(
                refined_accuracy=result.accuracy(truth),
                false_positive_rate=result.false_positive_rate(truth),
                rejection_rate=result.rejection_rate(),
                n_correct=result.n_correct(truth),
            )
        reports.append(AttackReport(**fields).canonical_dict())
    return reports


def main() -> int:
    if not run.use_program():
        return 2
    from repro.forum import closed_world_split
    from workloads import EXPECTED_DIR, AttackRefined, TopKSweep

    EXPECTED_DIR.mkdir(exist_ok=True)
    for cls in (AttackRefined, TopKSweep):
        workload = cls(seed=0, seconds=0, run_dir=None)
        workload.setup()
        lines = []
        for split_seed in cls.split_pool:
            requests = cls.requests(split_seed)
            split = closed_world_split(
                workload.dataset, aux_fraction=requests[0].aux_fraction,
                seed=split_seed,
            )
            outcomes = reference_reports(requests, split, workload.extractor)
            for outcome in outcomes:
                del outcome["request"]
            lines.append(f'"{split_seed}": {json.dumps(outcomes, sort_keys=True)}')
            print(f"{cls.name} split {split_seed}: {len(outcomes)} reports",
                  file=sys.stderr)
        path = EXPECTED_DIR / f"{cls.name}.json"
        path.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
        workload.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
