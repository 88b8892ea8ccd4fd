"""Declarative request/report protocol for the attack engine.

:class:`AttackRequest` is the JSON-serializable description of one attack
variant — which corpus, how to split it, and every knob of the two-phase
De-Health pipeline.  :class:`AttackReport` carries the measurements back.
Both round-trip through ``to_dict``/``from_dict`` so they can travel over
the :mod:`repro.service` wire format unchanged.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from operator import attrgetter

from repro.core.config import (
    ALWAYS,
    CHANGED,
    KNOBS,
    DeHealthConfig,
    active_atoms,
    check_knob,
    check_knobs,
    check_types,
    field_types,
)
from repro.errors import ConfigError

#: Split worlds an :class:`AttackRequest` can ask for.
WORLD_CHOICES: tuple = ("closed", "open")

#: Tenant every engine/service/store entry point assumes when none is
#: given (the ``X-Tenant`` header at the service layer).  Defined here —
#: the lowest layer that speaks tenancy — so the engine, the service, and
#: :mod:`repro.store` agree without import cycles.
DEFAULT_TENANT = "default"

#: Report fields that vary run-to-run without changing the science:
#: ``elapsed_ms`` is wall clock, ``reused_fit`` depends on scheduling.
#: Canonical (golden-comparable) serialization drops them.
VOLATILE_REPORT_FIELDS: tuple = ("elapsed_ms", "reused_fit")


def _with_knobs(cls):
    """Give ``cls`` one field per :data:`~repro.core.config.KNOBS` entry,
    after its own fields, defaulting to the knob's default (coerced).
    Apply it under ``@dataclass``."""
    annotations = cls.__dict__.get("__annotations__", {})
    config_types = {f.name: f.type for f in fields(DeHealthConfig)}
    for spec in KNOBS:
        default = spec.coerce(spec.default) if spec.coerce else spec.default
        annotations[spec.name] = (
            type(default).__name__ if spec.coerce else config_types[spec.name]
        )
        setattr(cls, spec.name, default)
    cls.__annotations__ = annotations
    return cls


@dataclass(frozen=True)
@_with_knobs
class AttackRequest:
    """One attack variant: corpus reference + split spec + pipeline knobs.

    ``corpus`` names a dataset registered with the :class:`~repro.api.Engine`;
    ``world``/``aux_fraction``/``overlap_ratio``/``split_seed`` determine the
    Δ1/Δ2 split (and therefore which cached :class:`~repro.api.AttackSession`
    serves the request).  ``ks`` lists the K values the report's success
    rates are evaluated at (defaults to ``(1, 5, top_k)``);
    ``refined=False`` stops after the Top-K phase.

    The remaining fields are the pipeline knobs, one per
    :class:`~repro.core.config.Knob` of :data:`~repro.core.config.KNOBS`,
    with the same names and defaults as
    :class:`~repro.core.DeHealthConfig`'s; :meth:`to_config` hands them
    over.  Each knob's declaration decides the rest.  A knob that no
    active atom reads — a blocking parameter of a policy the request does
    not name, ``refined_keep_fraction`` with ``refined=False`` — is
    checked against its declared type and bound, raising
    :class:`~repro.errors.ConfigError`, and then reset to its default, so
    requests that behave alike compare equal and ``to_dict``/``from_dict``
    is a strict round-trip.  A knob travels on the wire always, while one
    of its atoms is active, or while it is not at its default, as its
    wire rule says; so a request that leaves the blocking, pre-rank,
    extraction-width and deadline knobs alone keeps the wire form and the
    hash it had before they existed.
    """

    corpus: str = "default"
    world: str = "closed"
    aux_fraction: float = 0.5
    overlap_ratio: float = 0.5
    split_seed: int = 0
    refined: bool = True
    ks: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for spec in _COERCED:
            object.__setattr__(self, spec.name, spec.coerce(getattr(self, spec.name)))
        if isinstance(self.ks, list):
            object.__setattr__(self, "ks", tuple(self.ks))
        atoms = active_atoms(self, self.refined)
        for spec in _SCOPED:
            if spec.atoms.isdisjoint(atoms):
                check_knob(self, spec)  # the reset would hide a bad value
                object.__setattr__(self, spec.name, spec.default)

    # --- validation / conversion ---------------------------------------

    def to_config(self) -> DeHealthConfig:
        """The :class:`DeHealthConfig` this request describes (validated)."""
        config = DeHealthConfig(*_knob_values(self))  # fields in KNOBS order
        config.validate()
        return config

    def validate(self) -> "AttackRequest":
        """Raise :class:`~repro.errors.ConfigError` unless every field
        holds a value of its declared type (see
        :func:`~repro.core.config.field_types`) within its bound."""
        check_types(self, _REQUEST_TYPED)
        if self.world not in WORLD_CHOICES:
            raise ConfigError(
                f"world must be one of {WORLD_CHOICES}, got {self.world!r}"
            )
        if self.world == "closed" and not 0.0 < self.aux_fraction < 1.0:
            raise ConfigError(
                f"aux_fraction must be in (0, 1), got {self.aux_fraction}"
            )
        if self.world == "open" and not 0.0 < self.overlap_ratio <= 1.0:
            raise ConfigError(
                f"overlap_ratio must be in (0, 1], got {self.overlap_ratio}"
            )
        for k in self.ks:
            if type(k) is not int or k < 1:
                raise ConfigError(f"evaluation ks must be ints >= 1, got {k!r}")
        check_knobs(self)
        return self

    def evaluation_ks(self) -> tuple:
        """The K values the report's success rates cover, sorted, deduped."""
        ks = self.ks or (1, 5, self.top_k)
        return tuple(sorted(set(int(k) for k in ks)))

    def split_key(self) -> tuple:
        """Hashable identity of the split this request needs (sans corpus)."""
        if self.world == "closed":
            return ("closed", round(self.aux_fraction, 9), self.split_seed)
        return ("open", round(self.overlap_ratio, 9), self.split_seed)

    def variant(self, **changes) -> "AttackRequest":
        """A copy with the given fields changed (sweep convenience)."""
        return replace(self, **changes)

    # --- wire format ----------------------------------------------------

    def to_dict(self) -> dict:
        """The wire form: every field the wire rules put there, tuples as
        lists."""
        payload = dict(zip(_ALWAYS, _always_values(self)))
        for name in _LISTS:
            payload[name] = list(payload[name])
        atoms = active_atoms(self, self.refined)
        for spec, value in zip(_OPTIONAL, _optional_values(self)):
            if (
                value != spec.default
                if spec.wire == CHANGED
                else not spec.atoms.isdisjoint(atoms)
            ):
                payload[spec.name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "AttackRequest":
        if not isinstance(payload, dict):
            raise ConfigError(
                f"attack request must be a JSON object, got {type(payload).__name__}"
            )
        unknown = payload.keys() - _FIELD_NAMES
        if unknown:
            raise ConfigError(f"unknown attack request fields: {sorted(unknown)}")
        try:
            return cls(**payload)
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"bad attack request: {exc}") from exc


_FIELD_NAMES = frozenset(f.name for f in fields(AttackRequest))
_KNOB_NAMES = tuple(spec.name for spec in KNOBS)
#: The request-only fields and their type tests (``check_knobs`` types
#: the knobs).
_OWN = tuple(f.name for f in fields(AttackRequest) if f.name not in _KNOB_NAMES)
_REQUEST_TYPED = field_types(AttackRequest, _OWN)
_knob_values = attrgetter(*_KNOB_NAMES)
_COERCED = tuple(spec for spec in KNOBS if spec.coerce)
_SCOPED = tuple(spec for spec in KNOBS if spec.atoms)
#: Fields always on the wire (every request-only field, then the knobs
#: whose wire rule is ALWAYS), the tuple-valued ones among them, and the
#: knobs whose wire rule depends on the request.
_ALWAYS = _OWN + tuple(spec.name for spec in KNOBS if spec.wire == ALWAYS)
_always_values = attrgetter(*_ALWAYS)
_LISTS = tuple(
    f.name for f in fields(AttackRequest)
    if f.name in _ALWAYS and isinstance(f.default, tuple)
)
_OPTIONAL = tuple(spec for spec in KNOBS if spec.wire != ALWAYS)
_optional_values = attrgetter(*(spec.name for spec in _OPTIONAL))


def request_hash(request: AttackRequest) -> str:
    """Content hash of a request's wire form (the report-dedup key).

    Computed over the sorted-key JSON of :meth:`AttackRequest.to_dict`, so
    two requests hash equal exactly when they serialize equal — inert
    knobs are already normalized away by ``__post_init__``, and the
    default wire format keeps historical hashes stable.  The
    :class:`~repro.store.AttackReportStore` keys stored reports on
    ``(tenant, corpus fingerprint, request_hash)``.
    """
    payload = json.dumps(
        request.to_dict(), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:24]


@dataclass(frozen=True)
class AttackReport:
    """Measurements of one attack run, JSON-serializable.

    ``success_rates`` maps K -> Top-K success rate (the Fig 3/5 data at the
    requested ``ks``); the refined fields are ``None`` when the request set
    ``refined=False``.  ``reused_fit`` records whether the serving session
    already had its UDA graphs built (i.e. the expensive fit was shared).
    """

    request: AttackRequest
    n_anonymized: int
    n_auxiliary: int
    n_evaluated: int
    success_rates: dict = field(hash=False)
    refined_accuracy: "float | None" = None
    false_positive_rate: "float | None" = None
    rejection_rate: "float | None" = None
    n_correct: "int | None" = None
    elapsed_ms: float = 0.0
    reused_fit: bool = False

    def success_rate(self, k: int) -> float:
        return self.success_rates[int(k)]

    def to_dict(self) -> dict:
        return {
            "request": self.request.to_dict(),
            "n_anonymized": self.n_anonymized,
            "n_auxiliary": self.n_auxiliary,
            "n_evaluated": self.n_evaluated,
            "success_rates": {str(k): v for k, v in self.success_rates.items()},
            "refined_accuracy": self.refined_accuracy,
            "false_positive_rate": self.false_positive_rate,
            "rejection_rate": self.rejection_rate,
            "n_correct": self.n_correct,
            "elapsed_ms": self.elapsed_ms,
            "reused_fit": self.reused_fit,
        }

    def canonical_dict(self) -> dict:
        """The wire dict minus :data:`VOLATILE_REPORT_FIELDS`.

        Two reports with equal canonical dicts agree on every measured
        quantity; serial and parallel sweep execution are required to
        produce equal canonical dicts for equal requests.
        """
        payload = self.to_dict()
        for name in VOLATILE_REPORT_FIELDS:
            payload.pop(name, None)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "AttackReport":
        if not isinstance(payload, dict):
            raise ConfigError(
                f"attack report must be a JSON object, got {type(payload).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ConfigError(f"unknown attack report fields: {sorted(unknown)}")
        data = dict(payload)
        try:
            data["request"] = AttackRequest.from_dict(data.get("request") or {})
            data["success_rates"] = {
                int(k): float(v)
                for k, v in (data.get("success_rates") or {}).items()
            }
            return cls(**data)
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"bad attack report: {exc}") from exc
