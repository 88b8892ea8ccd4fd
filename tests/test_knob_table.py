"""The knob table drives the request, the CLI and the service alike.

Every case here is generated from :data:`repro.core.config.KNOBS`: a knob
added to the table is covered without touching this file (a knob with its
own string parser needs a sample below).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import AttackReport, AttackRequest, Engine
from repro.cli import build_parser
from repro.core.config import KNOBS, REFINED, DeHealthConfig
from repro.datagen import webmd_like
from repro.service import call_app, create_app
from tests.test_request_pins import cli_request

FLAGGED = tuple(spec for spec in KNOBS if spec.flag)

#: A CLI string for each knob whose flag has its own parser.
PARSED_SAMPLES = {"weights": "0.1,0.2,0.7", "blocking": "lsh+degree_band"}
#: Knobs left out of the service variants: a wider extraction pool starts
#: worker processes (the extraction tests cover it).
NOT_SERVED = {"extract_workers"}


def other_value(spec) -> tuple:
    """A valid non-default value of ``spec`` and its CLI spelling."""
    if spec.parse:
        text = PARSED_SAMPLES[spec.name]
        return spec.parse(text), text
    if spec.choices:
        value = next(c for c in spec.choices if c != spec.default)
    elif spec.le is not None:
        value = type(spec.default)(spec.default / 2)
    else:
        value = spec.default + 1
    assert spec.accepts is None or spec.accepts(value)
    return value, str(value)


def activating_policy(spec) -> "str | None":
    """A blocking policy under which ``spec`` is read, if it needs one."""
    atoms = sorted(spec.atoms - {REFINED})
    return atoms[0] if atoms else None


def test_every_parsed_flag_has_a_sample():
    assert {spec.name for spec in FLAGGED if spec.parse} <= set(PARSED_SAMPLES)


def test_request_fields_carry_the_knob_defaults():
    defaults = {f.name: f.default for f in dataclasses.fields(AttackRequest)}
    config = DeHealthConfig()
    for spec in KNOBS:
        expected = spec.coerce(spec.default) if spec.coerce else spec.default
        assert defaults[spec.name] == expected
        assert getattr(config, spec.name) == spec.default


def test_cli_defaults_are_the_table_defaults(capsys):
    args = build_parser().parse_args(["attack", "c.jsonl"])
    for spec in FLAGGED:
        assert getattr(args, spec.name) == spec.default, spec.name
    # so a bare CLI attack runs the knobs of a POST /attack that sets none
    request = cli_request(["attack", "c.jsonl"])
    bare = AttackRequest.from_dict({"corpus": "cli"})
    for spec in KNOBS:
        assert getattr(request, spec.name) == getattr(bare, spec.name)


@pytest.mark.parametrize("spec", FLAGGED, ids=lambda spec: spec.name)
def test_cli_request_equals_from_dict(spec, capsys):
    value, text = other_value(spec)
    argv = ["attack", "c.jsonl", spec.flag, text]
    body = {"corpus": "cli", spec.name: value}
    policy = activating_policy(spec)
    if policy:
        argv += ["--blocking", policy]
        body["blocking"] = policy
    expected = AttackRequest.from_dict(body)
    # the CLI seeds the split with --seed and reports top-1/5/K
    expected = expected.variant(
        split_seed=expected.seed, ks=expected.evaluation_ks()
    )
    request = cli_request(argv)
    assert request == expected
    assert getattr(request, spec.name) == value


@pytest.fixture(scope="module")
def corpus():
    return webmd_like(n_users=40, seed=23).dataset


def service_variants() -> list:
    """A Top-K-only body per flagged knob at its other value (a cheap
    classifier where the refined phase runs), on a small fast base."""
    base = {"corpus": "parity", "n_landmarks": 5, "top_k": 5, "refined": False}
    bodies = [base]
    for spec in FLAGGED:
        if spec.name in NOT_SERVED:
            continue
        value, _ = other_value(spec)
        body = {**base, spec.name: value}
        if REFINED in spec.atoms:
            body.update(refined=True, classifier="centroid")
        policy = activating_policy(spec)
        if policy:
            body["blocking"] = policy
        bodies.append(body)
    return bodies


def test_engine_and_service_reports_agree(corpus):
    engine = Engine()
    engine.register("parity", corpus)
    served = Engine()
    served.register("parity", corpus)
    app = create_app(served)
    for body in service_variants():
        direct = engine.attack(AttackRequest.from_dict(body)).canonical_dict()
        res = call_app(app, "POST", "/attack", body)
        assert res.status == 200, res.json
        assert AttackReport.from_dict(res.json).canonical_dict() == direct, body


#: Values of the wrong JSON type for each declared field type: a string
#: for a number, a float for an int, a bool for any number, and so on.
WRONG_TYPED = {
    "int": ("5", 2.5, True),
    "float": ("0.5", True),
    "bool": ("no", 0),
    "str": (5, True),
    "tuple": ("15", [1.5], [True]),
    "SimilarityWeights": ("123", [True, False, True], ["0.1", "0.1", "0.8"]),
}


def wrong_typed_bodies() -> list:
    """``(field, value, body)`` for every request field and every wrong
    value of its declared type (a knob's type is its config field's), in
    a body where the field is read."""
    declared = {f.name: f.type for f in dataclasses.fields(DeHealthConfig)}
    atoms = {spec.name: spec.atoms for spec in KNOBS}
    base = {"corpus": "typed", "n_landmarks": 5, "top_k": 5,
            "classifier": "centroid", "refined": False}
    cases = []
    for f in dataclasses.fields(AttackRequest):
        # the base type of the declaration: "int | None" -> "int",
        # "tuple[int, ...]" -> "tuple" (quoted or not)
        kind = declared.get(f.name, f.type).strip("'\"")
        kind = kind.removesuffix(" | None").split("[")[0]
        for value in WRONG_TYPED[kind]:
            body = {**base, f.name: value}
            read_by = atoms.get(f.name, frozenset())
            if REFINED in read_by:
                body["refined"] = True
            if read_by - {REFINED}:
                body["blocking"] = sorted(read_by - {REFINED})[0]
            cases.append((f.name, value, body))
    return cases


@pytest.fixture(scope="module")
def typed_app(corpus):
    engine = Engine()
    engine.register("typed", corpus)
    return create_app(engine)


WRONG_TYPED_BODIES = wrong_typed_bodies()


@pytest.mark.parametrize(
    "name, value, body", WRONG_TYPED_BODIES,
    ids=[f"{name}={value!r}" for name, value, _ in WRONG_TYPED_BODIES],
)
def test_wrong_typed_field_is_a_400(typed_app, name, value, body):
    res = call_app(typed_app, "POST", "/attack", body)
    assert res.status == 400, (body, res.json)
    assert res.json["error"]["type"] == "ConfigError"
    assert name in res.json["error"]["message"]


#: Bodies whose bad knob no active atom reads: the knob is reset to its
#: default, which must not hide the bad value.
INERT_BAD_BODIES = (
    {"blocking_lsh_rows": "x"},
    {"blocking_lsh_rows": 500},
    {"refined": False, "refined_keep_fraction": "half"},
)


@pytest.mark.parametrize(
    "bad", INERT_BAD_BODIES, ids=[repr(body) for body in INERT_BAD_BODIES]
)
def test_inert_knob_is_checked_before_its_reset(typed_app, bad):
    body = {"corpus": "typed", "n_landmarks": 5, "top_k": 5,
            "classifier": "centroid", "refined": False, **bad}
    res = call_app(typed_app, "POST", "/attack", body)
    assert res.status == 400, (body, res.json)
    assert res.json["error"]["type"] == "ConfigError"
    (name,) = bad.keys() - {"refined"}
    assert name in res.json["error"]["message"]
