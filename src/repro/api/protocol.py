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

from repro.core.config import UNION_ATOMS, DeHealthConfig, SimilarityWeights
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


def _weights_tuple(value) -> tuple:
    """Normalise any weights spelling to a ``(c1, c2, c3)`` float tuple."""
    if isinstance(value, SimilarityWeights):
        return (value.degree, value.distance, value.attribute)
    if isinstance(value, dict):
        unknown = set(value) - {"degree", "distance", "attribute"}
        if unknown:
            raise ConfigError(
                f"unknown weight keys {sorted(unknown)}; "
                "expected degree/distance/attribute"
            )
        return (
            float(value.get("degree", 0.0)),
            float(value.get("distance", 0.0)),
            float(value.get("attribute", 0.0)),
        )
    try:
        out = tuple(float(v) for v in value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"weights must be three numbers, got {value!r}") from exc
    if len(out) != 3:
        raise ConfigError(f"weights must have exactly 3 entries, got {len(out)}")
    return out


@dataclass(frozen=True)
class AttackRequest:
    """One attack variant: corpus reference + split spec + pipeline knobs.

    ``corpus`` names a dataset registered with the :class:`~repro.api.Engine`;
    ``world``/``aux_fraction``/``overlap_ratio``/``split_seed`` determine the
    Δ1/Δ2 split (and therefore which cached :class:`~repro.api.AttackSession`
    serves the request); everything else maps 1:1 onto
    :class:`~repro.core.DeHealthConfig`.  ``ks`` lists the K values the
    report's success rates are evaluated at (defaults to ``(1, 5, top_k)``);
    ``refined=False`` stops after the Top-K phase.

    ``blocking`` selects the candidate-generation policy of the Top-K
    phase (``"none"`` = exact dense scoring; single policies or ``"+"``
    composites like ``"lsh+degree_band"``; see
    :mod:`repro.core.blocking`).  The blocking fields serialize only when
    a policy is active — and the ANN knobs (``blocking_lsh_bands`` /
    ``blocking_lsh_rows`` for ``lsh``, ``blocking_ann_m`` /
    ``blocking_ann_ef`` for ``ann_graph``, ``blocking_seed`` for either)
    only when their policy atom is — so default (dense) requests keep
    their historical wire format — and the golden canonical report JSON —
    byte-identical.

    ``refined_keep_fraction`` pre-ranks the refined phase: each
    candidate set is cut to its top ``ceil(fraction × |Cu|)`` entries by
    phase-1 similarity before any classifier is trained (``1.0`` = no
    cut, the historical behaviour).  It serializes only when active —
    and is normalized back to ``1.0`` when ``refined=False``, where it
    has nothing to act on — so default requests keep their wire format.

    ``extract_workers`` is the process-pool width of the phase-0 feature
    extraction (``1`` = serial, ``0`` = one per core).  A pure
    performance knob — extraction is byte-identical at any width — so it
    too serializes only when non-default.

    ``request_deadline_s`` is the per-request wall-clock watchdog
    (:mod:`repro.core.deadline`): past it the pipeline raises a
    structured :class:`~repro.errors.DeadlineExceeded` at the next stage
    boundary.  An ops knob, not science — a run that finishes in time is
    byte-identical either way — so it serializes only when set and
    default requests keep their historical wire format and hashes.
    """

    corpus: str = "default"
    world: str = "closed"
    aux_fraction: float = 0.5
    overlap_ratio: float = 0.5
    split_seed: int = 0
    top_k: int = 10
    selection: str = "direct"
    classifier: str = "smo"
    weights: tuple = (0.05, 0.05, 0.90)
    n_landmarks: int = 50  # matches the DeHealthConfig corpus-scale default
    attribute_weight_cap: int = 64
    filtering: bool = False
    filter_epsilon: float = 0.01
    filter_levels: int = 10
    verification: "str | None" = None
    verification_r: float = 0.25
    false_addition_count: "int | None" = None
    use_structural_features: bool = True
    refined: bool = True
    refined_keep_fraction: float = 1.0
    ks: tuple = ()
    blocking: str = "none"
    blocking_band_width: float = 1.0
    blocking_min_shared: int = 1
    blocking_keep: float = 0.2
    blocking_lsh_bands: int = 48
    blocking_lsh_rows: int = 6
    blocking_ann_m: int = 12
    blocking_ann_ef: int = 48
    blocking_seed: int = 0
    extract_workers: int = 1
    request_deadline_s: "float | None" = None
    seed: int = 0

    def _blocking_atoms(self) -> set:
        """The policy atoms named by ``blocking``, leniently split, with
        ``"union"`` spelled out as its parts.

        Validation happens in :meth:`validate` (via the config); this
        helper only decides which knobs are *relevant*, so construction of
        a not-yet-validated request never raises.
        """
        if not isinstance(self.blocking, str):
            return set()
        atoms = {part.strip() for part in self.blocking.split("+")}
        if "union" in atoms:
            atoms.update(UNION_ATOMS)
        return atoms

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", _weights_tuple(self.weights))
        object.__setattr__(self, "ks", tuple(int(k) for k in self.ks))
        # normalize inert policy parameters so equal-behaviour requests
        # compare equal and to_dict/from_dict stays a strict round-trip
        # (a knob is omitted from the wire whenever no active policy atom
        # reads it)
        atoms = self._blocking_atoms()
        if "degree_band" not in atoms:
            object.__setattr__(self, "blocking_band_width", 1.0)
        if "attr_index" not in atoms:
            object.__setattr__(self, "blocking_min_shared", 1)
        if not atoms & {"attr_index", "lsh", "ann_graph"}:
            object.__setattr__(self, "blocking_keep", 0.2)
        if "lsh" not in atoms:
            object.__setattr__(self, "blocking_lsh_bands", 48)
            object.__setattr__(self, "blocking_lsh_rows", 6)
        if "ann_graph" not in atoms:
            object.__setattr__(self, "blocking_ann_m", 12)
            object.__setattr__(self, "blocking_ann_ef", 48)
        if not atoms & {"lsh", "ann_graph"}:
            object.__setattr__(self, "blocking_seed", 0)
        # the refined pre-rank knob is meaningless without a refined phase
        if not self.refined:
            object.__setattr__(self, "refined_keep_fraction", 1.0)

    # --- validation / conversion ---------------------------------------

    def to_config(self) -> DeHealthConfig:
        """The :class:`DeHealthConfig` this request describes (validated)."""
        config = DeHealthConfig(
            weights=SimilarityWeights(*self.weights),
            n_landmarks=self.n_landmarks,
            top_k=self.top_k,
            selection=self.selection,
            filtering=self.filtering,
            filter_epsilon=self.filter_epsilon,
            filter_levels=self.filter_levels,
            classifier=self.classifier,
            use_structural_features=self.use_structural_features,
            verification=self.verification,
            verification_r=self.verification_r,
            false_addition_count=self.false_addition_count,
            attribute_weight_cap=self.attribute_weight_cap,
            blocking=self.blocking,
            blocking_band_width=self.blocking_band_width,
            blocking_min_shared=self.blocking_min_shared,
            blocking_keep=self.blocking_keep,
            blocking_lsh_bands=self.blocking_lsh_bands,
            blocking_lsh_rows=self.blocking_lsh_rows,
            blocking_ann_m=self.blocking_ann_m,
            blocking_ann_ef=self.blocking_ann_ef,
            blocking_seed=self.blocking_seed,
            refined_keep_fraction=self.refined_keep_fraction,
            extract_workers=self.extract_workers,
            request_deadline_s=self.request_deadline_s,
            seed=self.seed,
        )
        config.validate()
        return config

    def validate(self) -> "AttackRequest":
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
            if k < 1:
                raise ConfigError(f"evaluation ks must be >= 1, got {k}")
        self.to_config()
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
        payload = {
            "corpus": self.corpus,
            "world": self.world,
            "aux_fraction": self.aux_fraction,
            "overlap_ratio": self.overlap_ratio,
            "split_seed": self.split_seed,
            "top_k": self.top_k,
            "selection": self.selection,
            "classifier": self.classifier,
            "weights": list(self.weights),
            "n_landmarks": self.n_landmarks,
            "attribute_weight_cap": self.attribute_weight_cap,
            "filtering": self.filtering,
            "filter_epsilon": self.filter_epsilon,
            "filter_levels": self.filter_levels,
            "verification": self.verification,
            "verification_r": self.verification_r,
            "false_addition_count": self.false_addition_count,
            "use_structural_features": self.use_structural_features,
            "refined": self.refined,
            "ks": list(self.ks),
            "seed": self.seed,
        }
        # The blocking fields are serialized only when a policy is active:
        # default (dense) requests keep the pre-blocking wire format, so
        # checked-in goldens and external clients are unaffected.  The ANN
        # knobs are likewise scoped to their own policies, so attr_index /
        # degree_band requests keep their pre-ANN wire format.
        if self.blocking != "none":
            payload["blocking"] = self.blocking
            atoms = self._blocking_atoms()
            if "degree_band" in atoms:
                payload["blocking_band_width"] = self.blocking_band_width
            if "attr_index" in atoms:
                payload["blocking_min_shared"] = self.blocking_min_shared
            if atoms & {"attr_index", "lsh", "ann_graph"}:
                payload["blocking_keep"] = self.blocking_keep
            if "lsh" in atoms:
                payload["blocking_lsh_bands"] = self.blocking_lsh_bands
                payload["blocking_lsh_rows"] = self.blocking_lsh_rows
            if "ann_graph" in atoms:
                payload["blocking_ann_m"] = self.blocking_ann_m
                payload["blocking_ann_ef"] = self.blocking_ann_ef
            if atoms & {"lsh", "ann_graph"}:
                payload["blocking_seed"] = self.blocking_seed
        # Serialized only when the pre-rank cut is active: default
        # requests keep the historical wire format (and hashes).
        if self.refined_keep_fraction != 1.0:
            payload["refined_keep_fraction"] = self.refined_keep_fraction
        # Performance knob, not science: serialized only when non-default,
        # so default requests keep the historical wire format.
        if self.extract_workers != 1:
            payload["extract_workers"] = self.extract_workers
        # Watchdog knob, not science: serialized only when armed, so
        # default requests keep the historical wire format (and hashes).
        if self.request_deadline_s is not None:
            payload["request_deadline_s"] = self.request_deadline_s
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "AttackRequest":
        if not isinstance(payload, dict):
            raise ConfigError(
                f"attack request must be a JSON object, got {type(payload).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ConfigError(f"unknown attack request fields: {sorted(unknown)}")
        try:
            return cls(**payload)
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"bad attack request: {exc}") from exc


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
