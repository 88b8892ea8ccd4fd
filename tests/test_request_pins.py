"""Byte-level pins of the attack request protocol.

``tests/golden/request_pins.json`` holds, for each request below, the
sorted-key JSON of ``AttackRequest.to_dict()``, its ``request_hash`` and
the field values of ``to_config()``; and, for argv lists that set every
``repro-dehealth attack`` flag, the request the CLI builds (captured with
the engine stubbed out).  A change to how any knob normalizes, travels on
the wire, hashes or reaches the pipeline fails here.  Regenerate only
after an intended wire change, and review the diff like code::

    PYTHONPATH=src python tests/test_request_pins.py --write
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

from repro.api import AttackRequest, request_hash

PIN_PATH = Path(__file__).parent / "golden" / "request_pins.json"

#: One value other than the default for every pipeline knob.
OTHER_VALUES = {
    "weights": (0.1, 0.2, 0.7),
    "n_landmarks": 9,
    "top_k": 7,
    "selection": "matching",
    "filtering": True,
    "filter_epsilon": 0.05,
    "filter_levels": 4,
    "classifier": "knn",
    "use_structural_features": False,
    "verification": "mean",
    "verification_r": 0.5,
    "false_addition_count": 3,
    "attribute_weight_cap": 8,
    "blocking": "attr_index",
    "blocking_band_width": 2.0,
    "blocking_min_shared": 2,
    "blocking_keep": 0.3,
    "blocking_lsh_bands": 24,
    "blocking_lsh_rows": 4,
    "blocking_ann_m": 6,
    "blocking_ann_ef": 32,
    "blocking_seed": 5,
    "refined_keep_fraction": 0.5,
    "extract_workers": 2,
    "request_deadline_s": 30.0,
    "seed": 11,
}

#: A policy that reads each blocking parameter (alone, the parameters are
#: inert and normalize away).
ACTIVE_UNDER = {
    "blocking_band_width": "degree_band",
    "blocking_min_shared": "attr_index",
    "blocking_keep": "lsh",
    "blocking_lsh_bands": "lsh",
    "blocking_lsh_rows": "lsh",
    "blocking_ann_m": "ann_graph",
    "blocking_ann_ef": "ann_graph",
    "blocking_seed": "ann_graph",
}

BLOCKING_SPELLINGS = (
    "degree_band", "attr_index", "lsh", "ann_graph", "union",
    "union+degree_band", "attr_index+degree_band", "lsh+degree_band",
)


def request_cases() -> dict:
    """Name -> ``AttackRequest`` keyword arguments."""
    cases = {"default": {}}
    for name, value in OTHER_VALUES.items():
        cases[f"{name}={value!r}"] = {name: value}
        if name in ACTIVE_UNDER:
            policy = ACTIVE_UNDER[name]
            cases[f"{name}={value!r} under {policy}"] = {
                "blocking": policy, name: value,
            }
    for policy in BLOCKING_SPELLINGS:
        cases[f"blocking={policy}"] = {"blocking": policy}
    cases["every blocking knob under lsh+degree_band+ann_graph"] = {
        "blocking": "lsh+degree_band+ann_graph",
        **{name: OTHER_VALUES[name] for name in ACTIVE_UNDER},
    }
    for refined in (True, False):
        cases[f"refined={refined}"] = {"refined": refined}
        cases[f"refined={refined} keep=0.5"] = {
            "refined": refined, "refined_keep_fraction": 0.5,
        }
    cases["weights as list"] = {"weights": [0.1, 0.2, 0.7]}
    cases["weights as dict"] = {
        "weights": {"degree": 0.1, "distance": 0.2, "attribute": 0.7}
    }
    cases["weights as partial dict"] = {"weights": {"attribute": 1.0}}
    cases["extract_workers=0"] = {"extract_workers": 0}
    cases["request_deadline_s=5"] = {"request_deadline_s": 5}
    cases["open world"] = {
        "world": "open", "overlap_ratio": 0.7, "split_seed": 4, "ks": [7, 1],
    }
    cases["closed split"] = {"corpus": "c", "aux_fraction": 0.6}
    return cases


#: argv lists that set every ``attack`` flag.
CLI_ARGVS = (
    [
        "attack", "c.jsonl", "--top-k", "7", "--aux-fraction", "0.6",
        "--landmarks", "9", "--classifier", "rlsc", "--selection", "matching",
        "--weights", "0.1,0.2,0.7", "--seed", "3", "--refined-keep", "0.5",
        "--blocking", "lsh+degree_band", "--blocking-keep", "0.3",
        "--lsh-bands", "24", "--lsh-rows", "4", "--ann-m", "6",
        "--ann-ef", "32", "--blocking-seed", "5", "--extract-workers", "2",
    ],
    [
        "attack", "c.jsonl", "--top-k", "3", "--aux-fraction", "0.4",
        "--landmarks", "5", "--classifier", "centroid", "--selection",
        "direct", "--weights", "0,0,1", "--seed", "8", "--skip-refined",
        "--refined-keep", "0.25", "--blocking", "ann_graph",
        "--blocking-keep", "0.1", "--lsh-bands", "16", "--lsh-rows", "8",
        "--ann-m", "4", "--ann-ef", "16", "--blocking-seed", "2",
        "--extract-workers", "0",
    ],
    [
        "attack", "c.jsonl", "--top-k", "20", "--aux-fraction", "0.5",
        "--landmarks", "50", "--classifier", "smo", "--selection", "direct",
        "--weights", "0.05,0.05,0.9", "--seed", "0", "--refined-keep", "1.0",
        "--blocking", "union", "--blocking-keep", "0.2", "--lsh-bands", "48",
        "--lsh-rows", "6", "--ann-m", "12", "--ann-ef", "48",
        "--blocking-seed", "0", "--extract-workers", "1",
    ],
)


def _jsonable(value):
    return json.loads(json.dumps(value))


def _wire(request) -> str:
    return json.dumps(request.to_dict(), sort_keys=True, separators=(",", ":"))


def request_pin(kwargs: dict) -> dict:
    request = AttackRequest(**kwargs)
    return {
        "wire": _wire(request),
        "hash": request_hash(request),
        "config": _jsonable(dataclasses.asdict(request.to_config())),
    }


def cli_request(argv: list) -> AttackRequest:
    """The request ``repro-dehealth attack`` builds for ``argv``."""
    import repro.cli as cli

    built = []

    class _Report:
        n_anonymized = 0
        refined_accuracy = 0.0

        def success_rate(self, k):
            return 0.0

    class _Engine:
        def register(self, name, dataset):
            pass

        def attack(self, request):
            built.append(request)
            return _Report()

    saved = (cli.Engine, cli.load_dataset)
    cli.Engine, cli.load_dataset = _Engine, lambda path: None
    try:
        assert cli.main(argv) == 0
    finally:
        cli.Engine, cli.load_dataset = saved
    (request,) = built
    return request


def cli_pin(argv: list) -> dict:
    request = cli_request(argv)
    return {
        "wire": _wire(request),
        "hash": request_hash(request),
        "fields": _jsonable(
            {f.name: getattr(request, f.name)
             for f in dataclasses.fields(request)}
        ),
    }


def compute_pins() -> dict:
    return {
        "requests": {
            name: request_pin(kwargs)
            for name, kwargs in request_cases().items()
        },
        "cli": [
            {"argv": argv, **cli_pin(argv)} for argv in CLI_ARGVS
        ],
    }


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PIN_PATH.read_text(encoding="utf-8"))


def test_pinned_request_names(pins):
    assert sorted(pins["requests"]) == sorted(request_cases())


@pytest.mark.parametrize("name", sorted(request_cases()))
def test_request_matches_pin(pins, name):
    assert request_pin(request_cases()[name]) == pins["requests"][name]


@pytest.mark.parametrize("index", range(len(CLI_ARGVS)))
def test_cli_request_matches_pin(pins, index, capsys):
    entry = pins["cli"][index]
    assert entry["argv"] == CLI_ARGVS[index]
    assert {"argv": entry["argv"], **cli_pin(entry["argv"])} == entry


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_request_pins.py --write")
    PIN_PATH.write_text(
        json.dumps(compute_pins(), indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {PIN_PATH}")
