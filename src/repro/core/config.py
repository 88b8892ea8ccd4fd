"""Configuration objects for the De-Health pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigError

#: Classifiers selectable for the refined-DA phase.
CLASSIFIER_CHOICES: tuple[str, ...] = ("smo", "knn", "rlsc", "centroid")

#: Top-K candidate selection strategies.
SELECTION_CHOICES: tuple[str, ...] = ("direct", "matching")

#: Open-world verification schemes (``None`` disables verification).
VERIFICATION_CHOICES: tuple[str, ...] = ("mean", "false_addition")

#: Candidate-blocking policies (``"none"`` = exact dense scoring).
#: Policies other than ``"none"`` may be composed with ``"+"``
#: (``"lsh+degree_band"``): the composite mask is the OR of the parts.
BLOCKING_CHOICES: tuple[str, ...] = (
    "none",
    "degree_band",
    "attr_index",
    "union",
    "lsh",
    "ann_graph",
)

#: The atoms ``"union"`` stands for: :func:`parse_blocking` spells it out
#: as these, while requests and ``/stats`` keep the name ``"union"``.
UNION_ATOMS: tuple[str, ...] = ("degree_band", "attr_index")


def parse_blocking(policy) -> tuple:
    """Split a blocking policy spec into its validated atoms.

    ``"attr_index"`` -> ``("attr_index",)``; ``"lsh+degree_band"`` ->
    ``("lsh", "degree_band")``.  ``"none"`` cannot be composed, every atom
    must be a :data:`BLOCKING_CHOICES` member, and duplicates are
    rejected.  Raises :class:`~repro.errors.ConfigError` otherwise.
    ``"union"`` then expands to :data:`UNION_ATOMS`, skipping parts
    already named: ``"union+degree_band"`` -> ``("degree_band",
    "attr_index")``.
    """
    if not isinstance(policy, str) or not policy:
        raise ConfigError(
            f"blocking policy must be one of {BLOCKING_CHOICES} "
            f"(optionally '+'-composed), got {policy!r}"
        )
    atoms = tuple(part.strip() for part in policy.split("+"))
    for atom in atoms:
        if atom not in BLOCKING_CHOICES:
            raise ConfigError(
                f"blocking policy must be one of {BLOCKING_CHOICES} "
                f"(optionally '+'-composed), got {policy!r}"
            )
    if len(atoms) > 1 and "none" in atoms:
        raise ConfigError(
            f"blocking 'none' cannot be composed with other policies, "
            f"got {policy!r}"
        )
    if len(set(atoms)) != len(atoms):
        raise ConfigError(f"blocking composite repeats a policy: {policy!r}")
    expanded: tuple = ()
    for atom in atoms:
        for part in UNION_ATOMS if atom == "union" else (atom,):
            if part not in expanded:
                expanded += (part,)
    return expanded


@dataclass(frozen=True)
class SimilarityWeights:
    """The c1/c2/c3 weights of the combined structural similarity.

    Paper defaults: low weight on degree and distance (the graphs are sparse
    and disconnected), high weight on attributes: c1 = c2 = 0.05, c3 = 0.9.
    """

    degree: float = 0.05
    distance: float = 0.05
    attribute: float = 0.90

    def validate(self) -> None:
        for name, value in (
            ("degree", self.degree),
            ("distance", self.distance),
            ("attribute", self.attribute),
        ):
            if value < 0:
                raise ConfigError(f"similarity weight {name} must be >= 0, got {value}")
        if self.degree == self.distance == self.attribute == 0.0:
            raise ConfigError("at least one similarity weight must be positive")


@dataclass(frozen=True)
class DeHealthConfig:
    """Every knob of the two-phase attack, paper defaults pre-set.

    ``n_landmarks`` is the paper's ħ (50 for corpus-scale runs, 5 for the
    small refined-DA experiments); ``verification=None`` corresponds to the
    closed-world setting.

    ``blocking`` selects the candidate-generation policy of the Top-K
    phase: ``"none"`` ranks every (anonymized, auxiliary) pair of the
    dense similarity matrix; ``"degree_band"``, ``"attr_index"``, and
    ``"union"`` (an alias for ``"degree_band+attr_index"``) prune the pair
    space first and rank only the candidate pairs, whose scores are the
    dense ones sampled at the mask (see :mod:`repro.core.blocking`).
    ``blocking_band_width`` is the log2-degree band width of the degree
    blocker, ``blocking_min_shared`` the minimum shared-attribute count of
    the inverted-index blocker, and ``blocking_keep`` bounds how many
    candidates the index blocker may retain per anonymized user: a cap of
    ``ceil(blocking_keep × n2)`` auxiliary columns (so the whole mask
    never exceeds that fraction of the full pair space; rows with fewer
    index-generated candidates keep them all).

    The approximate-nearest-neighbour policies make candidate generation
    itself sub-quadratic: ``"lsh"`` hashes every user's attribute-profile
    vector into ``blocking_lsh_bands`` bucket keys of ``blocking_lsh_rows``
    SimHash bits each (candidates = band-bucket collisions, ranked by
    full-signature hamming agreement under the same ``blocking_keep``
    cap); ``"ann_graph"`` builds an NSW greedy-search index over the
    auxiliary profiles (``blocking_ann_m`` edges per node) and
    beam-searches it per anonymized row (width ``blocking_ann_ef``).
    Both are seeded by ``blocking_seed`` and deterministic across runs
    and processes.  Policies compose with ``"+"``
    (``"lsh+degree_band"``): the masks are OR-ed, the recall-safe
    combination.

    ``refined_keep_fraction`` pre-ranks the refined phase: each
    anonymized user's candidate set is cut to its top
    ``ceil(refined_keep_fraction × |Cu|)`` entries by phase-1 similarity
    before any classifier is trained, so phase 2 pays for only the
    plausible fraction of every candidate set.  ``1.0`` (the default)
    disables pre-ranking entirely — the classifier sees exactly the
    candidate sets phase 1 produced, byte-identical to historical runs.

    ``extract_workers`` is the process-pool width of the phase-0 feature
    extraction (``1`` = in-process serial, ``0`` = one worker per
    available core).  A pure performance knob: extraction output is
    byte-identical at any width.

    ``request_deadline_s`` is a wall-clock budget for one attack run,
    checked cooperatively at stage boundaries (graph build, similarity,
    the refined per-user loop) via :mod:`repro.core.deadline`.  Past it
    the next boundary raises :class:`~repro.errors.DeadlineExceeded`
    (the service maps that to a structured 504) instead of leaving the
    worker wedged.  ``None`` (the default) disables the watchdog —
    behaviour and output are otherwise unchanged: a run that finishes in
    time is byte-identical with or without a deadline.
    """

    weights: SimilarityWeights = field(default_factory=SimilarityWeights)
    n_landmarks: int = 50
    top_k: int = 10
    selection: str = "direct"
    filtering: bool = False
    filter_epsilon: float = 0.01
    filter_levels: int = 10
    classifier: str = "smo"
    use_structural_features: bool = True
    verification: "str | None" = None
    verification_r: float = 0.25
    false_addition_count: "int | None" = None
    attribute_weight_cap: int = 64
    blocking: str = "none"
    blocking_band_width: float = 1.0
    blocking_min_shared: int = 1
    blocking_keep: float = 0.2
    blocking_lsh_bands: int = 48
    blocking_lsh_rows: int = 6
    blocking_ann_m: int = 12
    blocking_ann_ef: int = 48
    blocking_seed: int = 0
    refined_keep_fraction: float = 1.0
    extract_workers: int = 1
    request_deadline_s: "float | None" = None
    seed: int = 0

    def validate(self) -> None:
        self.weights.validate()
        if self.n_landmarks < 1:
            raise ConfigError(f"n_landmarks must be >= 1, got {self.n_landmarks}")
        if self.top_k < 1:
            raise ConfigError(f"top_k must be >= 1, got {self.top_k}")
        if self.selection not in SELECTION_CHOICES:
            raise ConfigError(
                f"selection must be one of {SELECTION_CHOICES}, got {self.selection!r}"
            )
        if self.classifier not in CLASSIFIER_CHOICES:
            raise ConfigError(
                f"classifier must be one of {CLASSIFIER_CHOICES}, got {self.classifier!r}"
            )
        if self.verification is not None and self.verification not in VERIFICATION_CHOICES:
            raise ConfigError(
                f"verification must be None or one of {VERIFICATION_CHOICES}, "
                f"got {self.verification!r}"
            )
        if self.filter_levels < 2:
            raise ConfigError(f"filter_levels must be >= 2, got {self.filter_levels}")
        if self.filter_epsilon < 0:
            raise ConfigError(
                f"filter_epsilon must be >= 0, got {self.filter_epsilon}"
            )
        if self.verification_r < 0:
            raise ConfigError(
                f"verification_r must be >= 0, got {self.verification_r}"
            )
        if self.attribute_weight_cap < 1:
            raise ConfigError(
                f"attribute_weight_cap must be >= 1, got {self.attribute_weight_cap}"
            )
        parse_blocking(self.blocking)
        if self.blocking_band_width <= 0:
            raise ConfigError(
                f"blocking_band_width must be > 0, got {self.blocking_band_width}"
            )
        if self.blocking_min_shared < 1:
            raise ConfigError(
                f"blocking_min_shared must be >= 1, got {self.blocking_min_shared}"
            )
        if not 0.0 < self.blocking_keep <= 1.0:
            raise ConfigError(
                f"blocking_keep must be in (0, 1], got {self.blocking_keep}"
            )
        if self.blocking_lsh_bands < 1:
            raise ConfigError(
                f"blocking_lsh_bands must be >= 1, got {self.blocking_lsh_bands}"
            )
        if not 1 <= self.blocking_lsh_rows <= 62:
            raise ConfigError(
                f"blocking_lsh_rows must be in [1, 62], got {self.blocking_lsh_rows}"
            )
        if self.blocking_lsh_bands * (1 << self.blocking_lsh_rows) > (1 << 64):
            # composite bucket keys pack (band, key) into one uint64
            raise ConfigError(
                f"blocking_lsh_bands × 2^blocking_lsh_rows must fit in 64 "
                f"bits, got {self.blocking_lsh_bands} × "
                f"2^{self.blocking_lsh_rows}"
            )
        if self.blocking_ann_m < 1:
            raise ConfigError(
                f"blocking_ann_m must be >= 1, got {self.blocking_ann_m}"
            )
        if self.blocking_ann_ef < 1:
            raise ConfigError(
                f"blocking_ann_ef must be >= 1, got {self.blocking_ann_ef}"
            )
        if not 0.0 < self.refined_keep_fraction <= 1.0:
            raise ConfigError(
                f"refined_keep_fraction must be in (0, 1], "
                f"got {self.refined_keep_fraction}"
            )
        if self.extract_workers < 0:
            raise ConfigError(
                f"extract_workers must be >= 0, got {self.extract_workers}"
            )
        if self.request_deadline_s is not None and self.request_deadline_s <= 0:
            raise ConfigError(
                f"request_deadline_s must be > 0 or None, "
                f"got {self.request_deadline_s}"
            )
