"""Span recorder for the traced benchmark run.

The program is not instrumented.  For a traced run the benchmark replaces
each layer's public functions (listed in :data:`TARGETS`) on the class
that defines them, which is where every caller looks them up, with a
wrapper that records one span per call: name, start, end, parent span and
op id.  Spans are recorded only inside an op window and only on the
client thread, so set-up, output checks and the service's background job
poller leave no spans.  They stay in memory until the run ends.

A span's self time is its duration minus the time its child spans cover;
children of one span run one after another on one thread, so that is the
sum of their durations.
"""

from __future__ import annotations

import functools
import json
import statistics
import threading
import time

#: (layer, module, class, attribute) of every wrapped public function.
TARGETS: tuple = (
    ("stylometry", "repro.stylometry.extractor", "FeatureExtractor", "extract_matrix"),
    ("stylometry", "repro.stylometry.extractor", "FeatureExtractor", "extract_rows"),
    ("graph", "repro.graph.uda", "UDAGraph", "__init__"),
    ("similarity", "repro.core.similarity", "SimilarityComputer", "scores"),
    ("blocking", "repro.core.similarity", "SimilarityComputer", "candidate_mask"),
    ("topk", "repro.core.pipeline", "DeHealth", "top_k_result"),
    ("topk", "repro.core.pipeline", "DeHealth", "top_k_candidates"),
    ("refined", "repro.core.refined", "RefinedDeanonymizer", "deanonymize_user"),
    ("ml", "repro.ml.svm_smo", "SMOClassifier", "fit"),
    ("ml", "repro.ml.multiclass", "OneVsRestClassifier", "predict_scores"),
    ("api", "repro.api.engine", "Engine", "attack"),
    ("api", "repro.api.engine", "Engine", "sweep"),
    ("api", "repro.api.engine", "Engine", "stats"),
    ("api", "repro.api.session", "AttackSession", "run"),
    ("api", "repro.api.protocol", "AttackRequest", "from_dict"),
    ("api", "repro.api.protocol", "AttackReport", "to_dict"),
    ("store", "repro.store.limits", "TenantRateLimiter", "acquire"),
    ("store", "repro.store.reports", "AttackReportStore", "lookup"),
    ("store", "repro.store.reports", "AttackReportStore", "record"),
    ("store", "repro.store.reports", "AttackReportStore", "list"),
    ("store", "repro.store.db", "StateStore", "bump_tenant"),
    ("service", "repro.service.app", "DeHealthApp", "__call__"),
)

#: Name of the root span the benchmark opens around each op; its self
#: time is the client's own share (request encoding, response decoding).
OP_SPAN = "op"

#: Layer of each span name, the op root included.
LAYER_OF: dict = {f"{cls}.{attr}": layer for layer, _, cls, attr in TARGETS}
LAYER_OF[OP_SPAN] = "client"

#: Every layer in report order.
LAYERS: tuple = tuple(dict.fromkeys(LAYER_OF.values()))


class Tracer:
    """Installs the wrappers and collects spans while an op is open."""

    def __init__(self) -> None:
        #: One ``[name, start, end, parent, op]`` list per span; ``parent``
        #: is the parent's index in this list, -1 for an op root.
        self.spans: list = []
        self.op_kinds: dict = {}
        self._stack: list = []
        self._op = None
        self._thread = threading.get_ident()
        self._saved: list = []

    # --- patching --------------------------------------------------------

    def install(self) -> None:
        import importlib

        for _, module, cls_name, attr in TARGETS:
            owner = getattr(importlib.import_module(module), cls_name)
            original = owner.__dict__[attr]
            name = f"{cls_name}.{attr}"
            if isinstance(original, classmethod):
                patched = classmethod(self._wrap(name, original.__func__))
            else:
                patched = self._wrap(name, original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name: str, func):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if tracer._op is None or threading.get_ident() != tracer._thread:
                return func(*args, **kwargs)
            span = [name, time.perf_counter(), 0.0, tracer._stack[-1], tracer._op]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                return func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()

        return traced

    # --- op windows ------------------------------------------------------

    def begin(self, op: int, kind: str) -> None:
        self.op_kinds[op] = kind
        self._op = op
        self._stack = [len(self.spans)]
        self.spans.append([OP_SPAN, time.perf_counter(), 0.0, -1, op])

    def end(self) -> None:
        self.spans[self._stack[0]][2] = time.perf_counter()
        self._op = None
        self._stack = []

    # --- derived figures -------------------------------------------------

    def self_times(self) -> list:
        """Self time (s) of every span, aligned with :attr:`spans`."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self) -> dict:
        """Per span name: calls, inclusive and self seconds, durations.

        ``outer_calls`` counts only calls not nested in a call of the same
        layer, so a wrapped function calling another of its own layer is
        one piece of that layer's work.
        """
        own = self.self_times()
        out: dict = {}
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            entry = out.setdefault(
                name,
                {"calls": 0, "outer_calls": 0, "total_s": 0.0, "self_s": 0.0,
                 "durations": []},
            )
            entry["calls"] += 1
            if parent < 0 or LAYER_OF[self.spans[parent][0]] != LAYER_OF[name]:
                entry["outer_calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += own[index]
            entry["durations"].append(end - start)
        return out

    def layer_self_s(self) -> dict:
        """Self seconds per layer over every op (client = op root self)."""
        totals = dict.fromkeys(LAYERS, 0.0)
        for (name, *_), own in zip(self.spans, self.self_times()):
            totals[LAYER_OF[name]] += own
        return totals

    def route_p50_ms(self, kind: str, name: str) -> float:
        """Median inclusive time (ms) of ``name`` spans directly under ops
        of ``kind``; 0.0 when no op of that kind ran."""
        durations = [
            end - start
            for span_name, start, end, parent, op in self.spans
            if span_name == name
            and parent >= 0
            and self.spans[parent][0] == OP_SPAN
            and self.op_kinds.get(op) == kind
        ]
        return statistics.median(durations) * 1e3 if durations else 0.0

    def write(self, path) -> None:
        """Write every span as one JSON line, times relative to the first."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "layer": LAYER_OF[name],
                            "start_s": round(start - origin, 9),
                            "end_s": round(end - origin, 9),
                            "parent": parent,
                            "op": op,
                            "kind": self.op_kinds.get(op),
                        }
                    )
                    + "\n"
                )
