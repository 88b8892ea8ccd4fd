"""Layer-share report: where each workload spends its time.

    python3 perfbench/report.py --seed 1 --seconds 10

Runs ``run.py`` for every workload twice, untraced and traced, each run in
its own interpreter, and prints two tables: every layer's share of self
time per workload (from the traced run), and the tracing overhead, which
is the traced throughput minus the untraced throughput.  Reporting only:
nothing here gates anything.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS: tuple = ("attack_refined", "topk_sweep", "service_mixed")

#: The layers each workload exists to exercise.
FOCUS: dict = {
    "attack_refined": ("refined", "ml"),
    "topk_sweep": ("similarity", "blocking", "graph"),
    "service_mixed": ("store", "service", "api"),
}


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(
        command, cwd=HERE.parent, capture_output=True, text=True, timeout=900
    )
    if proc.returncode != 0:
        sys.exit(f"{' '.join(command)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)

    plain, traced = {}, {}
    for workload in WORKLOADS:
        plain[workload] = run(workload, args.seed, args.seconds, 0)
        traced[workload] = run(workload, args.seed, args.seconds, 1)

    layers = [
        name.split(".", 1)[1]
        for name in traced[WORKLOADS[0]]
        if name.startswith("share.")
    ]
    print("self-time share by layer, % of op time (traced run)")
    print(f"{'layer':<12}" + "".join(f"{w:>16}" for w in WORKLOADS))
    for layer in layers:
        print(f"{layer:<12}" + "".join(
            f"{traced[w]['share.' + layer]['value']:>16.2f}" for w in WORKLOADS
        ))
    print(f"{'focus':<12}" + "".join(
        f"{sum(traced[w]['share.' + l]['value'] for l in FOCUS[w]):>16.2f}"
        for w in WORKLOADS
    ))
    print("  focus = " + "; ".join(
        f"{w}: {'+'.join(FOCUS[w])}" for w in WORKLOADS
    ))
    print()
    print("tracing overhead (traced minus untraced throughput, 1/s)")
    print(f"{'workload':<16}{'untraced':>14}{'traced':>14}{'overhead':>14}{'%':>8}")
    for w in WORKLOADS:
        base = plain[w]["throughput_per_s"]["value"]
        with_trace = traced[w]["trace.throughput_per_s"]["value"]
        print(f"{w:<16}{base:>14.4f}{with_trace:>14.4f}"
              f"{with_trace - base:>14.4f}{100 * (with_trace - base) / base:>8.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
