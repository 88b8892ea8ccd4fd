"""Configuration objects for the De-Health pipeline.

Every knob of the attack is declared once, as a :class:`DeHealthConfig`
field made by :func:`knob`: its name and type, default and bound, the
blocking atoms that read it, its wire rule and its ``repro-dehealth
attack`` flag.  :data:`KNOBS` lists the declarations in field order, and
the rest is derived from it: :class:`repro.api.AttackRequest` carries one
field per knob and normalizes, serializes and converts them by their
declarations; the similarity cache keys each blocking atom by the knobs
that read it; and the ``attack`` subcommand has one flag per knob that
declares one, with the knob's default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from itertools import repeat
from operator import contains
from typing import Any, Callable

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


def blocking_spec(text: str) -> str:
    """``text`` itself once :func:`parse_blocking` accepts it."""
    parse_blocking(text)
    return text


def weights_tuple(value) -> tuple:
    """Normalise any weights spelling to a ``(c1, c2, c3)`` float tuple:
    a :class:`SimilarityWeights`, a dict with degree/distance/attribute
    keys (missing ones are 0.0), or a list or tuple of three numbers."""
    if isinstance(value, SimilarityWeights):
        return (value.degree, value.distance, value.attribute)
    entries = value
    if isinstance(value, dict):
        unknown = set(value) - {"degree", "distance", "attribute"}
        if unknown:
            raise ConfigError(
                f"unknown weight keys {sorted(unknown)}; "
                "expected degree/distance/attribute"
            )
        entries = [
            value.get(key, 0.0) for key in ("degree", "distance", "attribute")
        ]
    if (
        isinstance(entries, (list, tuple))
        and len(entries) == 3
        and all(map(_NUMBERS.__contains__, map(type, entries)))
    ):
        return tuple(map(float, entries))
    raise ConfigError(f"weights must be three numbers, got {value!r}")


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


#: The value types each declared field type admits.  An int passes where
#: a float is declared and stays an int, so wire forms and hashes keep
#: their spelling; a bool, a type of its own, passes as neither.
_ADMITS: dict = {
    "int": (int,),
    "float": (int, float),
    "bool": (bool,),
    "str": (str,),
    "tuple[int, ...]": (tuple,),
}
_NUMBERS = frozenset(_ADMITS["float"])


def field_types(cls, names) -> tuple:
    """What :func:`check_types` checks of the fields ``names`` of dataclass
    ``cls``: the names, their declared types, and for each the set of
    value types its declared type admits (``X | None`` admits ``None``)."""
    declared = {f.name: f.type for f in fields(cls)}
    names = tuple(names)
    admitted = []
    for name in names:
        base = declared[name].removesuffix(" | None")
        none = (type(None),) if base != declared[name] else ()
        admitted.append(frozenset(_ADMITS[base] + none))
    return names, tuple(declared[name] for name in names), tuple(admitted)


def check_types(obj, typed: tuple) -> None:
    """Raise :class:`~repro.errors.ConfigError` unless each field of
    ``typed`` (see :func:`field_types`) holds a value of a type its
    declared type admits."""
    names, declared, admitted = typed
    values = tuple(map(getattr, repeat(obj), names))
    if all(map(contains, admitted, map(type, values))):
        return
    for name, decl, types, value in zip(names, declared, admitted, values):
        if type(value) not in types:
            raise ConfigError(f"{name} must be {decl}, got {value!r}")


# Wire rules (Knob.wire): when a knob travels in a request's wire form.  A
# knob that is not ALWAYS there stays off the wire while a request leaves
# it alone, so adding one keeps the wire forms and hashes of old requests.
#: On the wire in every request.
ALWAYS = "always"
#: On the wire while one of the knob's atoms is active.
WHILE_READ = "while_read"
#: On the wire while the knob is not at its default.
CHANGED = "changed"

#: The atom of the refined phase: a request with ``refined=False`` leaves
#: it inactive, like a blocking atom its policy does not name.
REFINED = "refined"


@dataclass(frozen=True)
class Knob:
    """One pipeline knob, as a :class:`DeHealthConfig` field declares it.

    ``ge``/``gt``/``le`` bound a number and ``choices`` a string; a knob
    whose default is ``None`` takes ``None`` too.  ``atoms`` names the
    parts of the pipeline that read the knob when not every run does:
    blocking atoms (see :func:`parse_blocking`) or :data:`REFINED`.  A
    request in which none of them is active resets the knob to its
    default, so requests that behave alike compare and hash equal.
    ``wire`` is the knob's wire rule: :data:`WHILE_READ` by default for a
    knob with atoms, :data:`ALWAYS` otherwise.  ``coerce`` normalizes a
    request's value.  ``flag`` is the knob's ``repro-dehealth attack``
    option (shown with ``metavar`` and ``help``); ``parse`` turns its
    string into a value, raising :class:`~repro.errors.ConfigError` or
    ``ValueError``, and without ``parse`` the default's type does.
    """

    name: str
    default: Any
    ge: "float | None" = None
    gt: "float | None" = None
    le: "float | None" = None
    choices: tuple = ()
    atoms: frozenset = frozenset()
    wire: "str | None" = None
    coerce: "Callable | None" = None
    flag: "str | None" = None
    metavar: "str | None" = None
    help: "str | None" = None
    parse: "Callable | None" = None
    #: ``value -> bool``: whether the bound admits ``value`` (``None`` for
    #: an unbounded knob).
    accepts: "Callable | None" = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", frozenset(self.atoms))
        if self.wire is None:
            object.__setattr__(self, "wire", WHILE_READ if self.atoms else ALWAYS)
        object.__setattr__(self, "accepts", self._predicate())

    def _predicate(self) -> "Callable | None":
        if self.choices:
            test = self.choices.__contains__
        elif self.gt is not None or self.ge is not None:
            lo = self.ge if self.gt is None else self.gt
            hi = math.inf if self.le is None else self.le
            if self.gt is None:
                test = lambda v: lo <= v <= hi
            else:
                test = lambda v: lo < v <= hi
        else:
            return None
        if self.default is None:
            return lambda v: v is None or test(v)
        return test

    def bound(self) -> str:
        """The bound in words: ``">= 1"``, ``"in (0, 1]"``, ``"one of
        (...)"``, with ``" or None"`` when ``None`` is admitted."""
        if self.choices:
            text = f"one of {self.choices}"
        elif self.le is None:
            text = f">= {self.ge}" if self.gt is None else f"> {self.gt}"
        else:
            lo = f"[{self.ge}" if self.gt is None else f"({self.gt}"
            text = f"in {lo}, {self.le}]"
        return text + (" or None" if self.default is None else "")


def knob(default, **declaration) -> Any:
    """A :class:`DeHealthConfig` field declaring one knob; the keywords
    are :class:`Knob`'s."""
    return field(default=default, metadata={"knob": declaration})


@dataclass(frozen=True)
class DeHealthConfig:
    """Every knob of the two-phase attack, paper defaults pre-set.

    Each field declares one knob (see :class:`Knob` and :data:`KNOBS`).
    ``weights`` may be given in any spelling :func:`weights_tuple` takes;
    it is stored as :class:`SimilarityWeights`.

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

    ``seed`` draws the SMO solver's random pairs and the refined phase's
    false-addition decoys.
    """

    weights: SimilarityWeights = knob(
        SimilarityWeights(), coerce=weights_tuple, flag="--weights",
        parse=lambda text: weights_tuple([float(x) for x in text.split(",")]),
        metavar="C1,C2,C3",
        help="similarity weights: degree, distance, attribute",
    )
    n_landmarks: int = knob(50, ge=1, flag="--landmarks")
    top_k: int = knob(10, ge=1, flag="--top-k")
    selection: str = knob(
        "direct", choices=SELECTION_CHOICES, flag="--selection",
        help="Top-K candidate selection strategy",
    )
    filtering: bool = knob(False)
    filter_epsilon: float = knob(0.01, ge=0)
    filter_levels: int = knob(10, ge=2)
    classifier: str = knob("smo", choices=CLASSIFIER_CHOICES, flag="--classifier")
    use_structural_features: bool = knob(True)
    verification: str | None = knob(None, choices=VERIFICATION_CHOICES)
    verification_r: float = knob(0.25, ge=0)
    false_addition_count: int | None = knob(None)
    attribute_weight_cap: int = knob(64, ge=1)
    blocking: str = knob(
        "none", wire=CHANGED, flag="--blocking", parse=blocking_spec,
        metavar="POLICY",
        help="candidate-blocking policy for the Top-K phase: one of "
             f"{'|'.join(BLOCKING_CHOICES)} or a '+'-composite like "
             "lsh+degree_band (none = exact dense scoring)",
    )
    blocking_band_width: float = knob(1.0, gt=0, atoms=("degree_band",))
    blocking_min_shared: int = knob(1, ge=1, atoms=("attr_index",))
    blocking_keep: float = knob(
        0.2, gt=0, le=1, atoms=("attr_index", "lsh", "ann_graph"),
        flag="--blocking-keep", metavar="F",
        help="per-user candidate cap as a fraction of the auxiliary side "
             "(attr_index/lsh/ann_graph policies)",
    )
    blocking_lsh_bands: int = knob(
        48, ge=1, atoms=("lsh",), flag="--lsh-bands", metavar="B",
        help="LSH bucket bands (blocking=lsh)",
    )
    blocking_lsh_rows: int = knob(
        6, ge=1, le=62, atoms=("lsh",), flag="--lsh-rows", metavar="R",
        help="SimHash bits per LSH band (blocking=lsh)",
    )
    blocking_ann_m: int = knob(
        12, ge=1, atoms=("ann_graph",), flag="--ann-m", metavar="M",
        help="NSW edges per node (blocking=ann_graph)",
    )
    blocking_ann_ef: int = knob(
        48, ge=1, atoms=("ann_graph",), flag="--ann-ef", metavar="EF",
        help="NSW search beam width (blocking=ann_graph)",
    )
    blocking_seed: int = knob(
        0, atoms=("lsh", "ann_graph"), flag="--blocking-seed", metavar="S",
        help="seed of the LSH hyperplanes / ANN insertion order",
    )
    refined_keep_fraction: float = knob(
        1.0, gt=0, le=1, atoms=(REFINED,), wire=CHANGED,
        flag="--refined-keep", metavar="F",
        help="pre-rank the refined phase: classify only the top "
             "ceil(F × |Cu|) of each candidate set by phase-1 similarity "
             "(1.0 = classify everything, the historical behaviour)",
    )
    extract_workers: int = knob(
        1, ge=0, wire=CHANGED, flag="--extract-workers", metavar="N",
        help="process-pool width of phase-0 feature extraction "
             "(1 = serial, 0 = one per core; output is byte-identical)",
    )
    request_deadline_s: float | None = knob(None, gt=0, wire=CHANGED)
    seed: int = knob(
        0, flag="--seed",
        help="seed of the split and of the refined phase's solver and decoys",
    )

    def __post_init__(self) -> None:
        if not isinstance(self.weights, SimilarityWeights):
            object.__setattr__(
                self, "weights", SimilarityWeights(*weights_tuple(self.weights))
            )

    def validate(self) -> None:
        check_knobs(self)


#: Every knob, in :class:`DeHealthConfig` field order.
KNOBS: tuple = tuple(
    Knob(f.name, f.default, **f.metadata["knob"]) for f in fields(DeHealthConfig)
)
_BOUNDED: tuple = tuple(spec for spec in KNOBS if spec.accepts is not None)
#: The knobs' type tests; a knob with ``coerce`` is checked by it.
_TYPED: tuple = field_types(
    DeHealthConfig, [spec.name for spec in KNOBS if not spec.coerce]
)
#: The same tests by knob name: its declared type and the value types
#: that type admits.
_TYPED_EACH: dict = dict(zip(_TYPED[0], zip(_TYPED[1], _TYPED[2])))


def active_atoms(knobs, refined: bool = True) -> set:
    """The atoms in effect for ``knobs`` (a config or a request): the
    parts of its blocking policy, split leniently so that a spelling not
    yet validated never raises, with ``"union"`` spelled out; and
    :data:`REFINED` when the refined phase runs."""
    policy = knobs.blocking
    atoms = set()
    if isinstance(policy, str):
        atoms.update(part.strip() for part in policy.split("+"))
    if "union" in atoms:
        atoms.update(UNION_ATOMS)
    if refined:
        atoms.add(REFINED)
    return atoms


def check_knobs(knobs) -> None:
    """Raise :class:`~repro.errors.ConfigError` unless the knobs of
    ``knobs`` (a config or a request) are valid: each of its declared type
    and within its declared bound, the weights valid, and the blocking
    policy parsing.  The checks that span knobs stay here, written out."""
    check_types(knobs, _TYPED)
    for spec in _BOUNDED:
        _check_bound(spec, getattr(knobs, spec.name))
    weights = knobs.weights
    if not isinstance(weights, SimilarityWeights):
        weights = SimilarityWeights(*weights)
    weights.validate()
    parse_blocking(knobs.blocking)
    if knobs.blocking_lsh_bands * (1 << knobs.blocking_lsh_rows) > (1 << 64):
        # composite bucket keys pack (band, key) into one uint64
        raise ConfigError(
            f"blocking_lsh_bands × 2^blocking_lsh_rows must fit in 64 "
            f"bits, got {knobs.blocking_lsh_bands} × "
            f"2^{knobs.blocking_lsh_rows}"
        )


def check_knob(knobs, spec: Knob) -> None:
    """Raise :class:`~repro.errors.ConfigError` unless the knob ``spec`` of
    ``knobs`` holds a value of its declared type within its bound: what
    :func:`check_knobs` checks of every knob, for one."""
    value = getattr(knobs, spec.name)
    if spec.name in _TYPED_EACH:
        declared, admitted = _TYPED_EACH[spec.name]
        if type(value) not in admitted:
            raise ConfigError(f"{spec.name} must be {declared}, got {value!r}")
    if spec.accepts is not None:
        _check_bound(spec, value)


def _check_bound(spec: Knob, value) -> None:
    if not spec.accepts(value):
        raise ConfigError(f"{spec.name} must be {spec.bound()}, got {value!r}")
