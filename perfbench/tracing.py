"""Span tracing installed from outside the program.

Timing wrappers replace the module and class attributes that callers look
up (``repro.core.pipeline.encode_query``, ``CDCLSolver.add_clause``, ...),
so no file of the program changes.  Each wrapped call records a span: its
layer name, start, end, and the span that caused it.  Spans stay in memory
until the run ends.

Two economies keep tracing cheap enough to leave the workload's shape
intact.  A call that caused no traced call of its own is folded into a
``(parent, layer) -> (seconds, calls)`` aggregate instead of a span record
(a question loads thousands of clauses).  Sites marked ``count_only``
record only how often they ran.  Counts are kept per owning span (the
innermost recorded span open when they were taken, 0 outside any), so a trace can be cut to the spans
that started after a moment (:meth:`Trace.since`) with their counts.

Threads: a call made on a thread with no open span is parented to the
innermost open *adopting* span (``JobRunner.run``), so a fan-out's worker
spans count as its children.  Adopted spans are always recorded in full,
since their intervals can overlap each other.

A layer's self time is its duration minus the part of it that its child
spans cover (interval union; aggregated same-thread children add their
durations, which cannot overlap).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True, slots=True)
class Site:
    """One patch point: ``"module:attr"`` or ``"module:Class.attr"``."""

    target: str
    layer: str
    adopt: bool = False
    count_only: bool = False
    #: ``result -> {counter: amount}``; added to ``counts`` as
    #: ``"<layer>.<counter>"``, so counts are taken where the work happens.
    observe: Callable[[Any], dict] | None = None


def _observe_query(outcome) -> dict:
    metrics = outcome.metrics
    counts = {
        "translation_hits": metrics.translation_hits,
        "translation_misses": metrics.translation_misses,
        "subgraph_hits": metrics.subgraph_hits,
        "subgraph_misses": metrics.subgraph_misses,
        "verification_hits": metrics.verification_hits,
        "verification_misses": metrics.verification_misses,
        "propagations": metrics.solver_propagations,
        "conflicts": metrics.solver_conflicts,
        "questions": 1,
    }
    if metrics.verification_misses:
        stats = outcome.verification.solver_result.statistics
        counts["ground_instances"] = stats.ground_instances
    return counts


def _observe_update(returned) -> dict:
    _model, stats = returned
    return {
        "segments_total": stats.segments_total,
        "segments_reextracted": stats.segments_reextracted,
    }


def _observe_len(result) -> dict:
    return {"items": len(result)}


#: Every patch point, at the attribute its callers look up.
SITES: tuple[Site, ...] = (
    Site("repro.core.pipeline:PolicyPipeline.query", "core.query", observe=_observe_query),
    Site(
        "repro.core.pipeline:PolicyPipeline.update",
        "core.update",
        observe=_observe_update,
    ),
    Site("repro.llm.tasks:TaskRunner.resolve_coreferences", "core.parse"),
    Site("repro.llm.tasks:TaskRunner.extract_parameters", "core.parse"),
    Site("repro.core.pipeline:translate_query_terms", "core.translation"),
    Site("repro.core.translation:top_k", "embeddings.search"),
    Site("repro.core.pipeline:extract_subgraph", "core.subgraph"),
    Site("repro.core.pipeline:encode_query", "core.encode"),
    Site("repro.core.pipeline:verify_encoded", "core.verify"),
    Site("repro.core.verify:compile_validity_script", "smtlib.print"),
    Site("repro.smtlib.parser:parse_script", "smtlib.parse"),
    Site("repro.solver.interface:ground", "solver.ground"),
    Site("repro.solver.interface:simplify", "solver.simplify"),
    Site("repro.solver.interface:tseitin", "solver.tseitin", observe=_observe_len),
    Site("repro.solver.interface:preprocess", "solver.preprocess"),
    Site("repro.solver.sat:CDCLSolver.add_clause", "solver.load"),
    Site("repro.solver.interface:solve_with_theory", "solver.search"),
    Site("repro.solver.interface:check_proof", "solver.certify"),
    Site("repro.solver.modelcheck:expand", "solver.certify"),
    Site("repro.solver.modelcheck:clause_violations", "solver.certify"),
    Site("repro.solver.modelcheck:evaluate_formula", "solver.certify"),
    Site("repro.solver.modelcheck:euf_consistent", "solver.certify"),
    Site("repro.solver.interface:Solver.check_sat", "solver.check", count_only=True),
    Site(
        "repro.solver.interface:Solver.check_sat_assuming",
        "solver.check",
        count_only=True,
    ),
    Site("repro.core.pipeline:segment_policy", "core.segmenter"),
    Site("repro.core.extraction:segment_policy", "core.segmenter"),
    Site("repro.nlp.tokenizer:sentences", "nlp.tokenizer"),
    Site("repro.core.segmenter:sentences", "nlp.tokenizer"),
    Site("repro.llm.simulated:sentences", "nlp.tokenizer"),
    Site("repro.core.pipeline:extract_policy", "core.extraction"),
    Site("repro.llm.simulated:SimulatedLLM.complete", "llm.complete"),
    Site("repro.llm.client:CachedLLM.complete", "llm.cached", count_only=True),
    Site("repro.core.pipeline:chain_of_layer", "core.hierarchy"),
    Site("repro.embeddings.store:EmbeddingStore.add", "embeddings.index"),
    Site("repro.core.pipeline:PolicyPipeline.load_model", "store.load"),
    Site("repro.store.snapshot:SnapshotStore.commit", "store.commit"),
    Site("repro.registry.registry:PolicyRegistry.get_model", "registry.get_model"),
    Site("repro.jobs.runner:JobRunner.run", "jobs.run", adopt=True),
    Site("repro.jobs.checkpoint:append_durable_line", "jobs.checkpoint_append"),
    Site("repro.server.daemon:PolicyServer.handle_query", "server.handle_query"),
    Site("repro.server.admission:AdmissionGate.enter", "server.admission"),
)


def _resolve(target: str):
    """``(owner, attribute name)`` for a site's target string."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Collects spans from the wrappers it installs."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._adopters: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        #: ``(id, layer, start, end, parent, thread ident)``; parent 0 = root.
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        #: ``(parent, layer) -> [seconds, calls]`` for calls with no children.
        self.leaves: dict[tuple[int, str], list] = defaultdict(lambda: [0.0, 0])
        #: ``(owner span, counter) -> amount``; owner 0 = outside any span.
        self.counts: Counter = Counter()

    # -- recording ------------------------------------------------------

    def _tally(self, layer: str, amounts: dict) -> None:
        """Count ``amounts`` against the innermost open span of this thread.

        The counts wait in its frame: a span that ends with no children is
        folded into an aggregate, and its counts then go to its parent.
        """
        stack = getattr(self._local, "stack", None)
        named = {f"{layer}.{name}": amount for name, amount in amounts.items()}
        if stack:
            frame = stack[-1]
            if frame[2] is None:
                frame[2] = Counter()
            frame[2].update(named)
        else:
            self._commit(self._adopters[-1] if self._adopters else 0, named)

    def _commit(self, owner: int, pending) -> None:
        with self._lock:
            for name, amount in pending.items():
                self.counts[(owner, name)] += amount

    def _call(self, layer: str, adopt: bool, observe, fn, args, kwargs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        adopted = False
        if stack:
            parent_frame = stack[-1]
            parent_frame[1] = True
            parent = parent_frame[0]
        elif self._adopters:
            parent = self._adopters[-1]
            adopted = True
        else:
            parent = 0
        span_id = next(self._ids)
        frame = [span_id, False, None]  # id, has children, pending counts
        stack.append(frame)
        if adopt:
            self._adopters.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if observe is not None:
                self._tally(layer, observe(result))
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            if adopt:
                self._adopters.remove(span_id)
            recorded = frame[1] or adopted or adopt
            if recorded:
                self.spans.append(
                    (span_id, layer, start, end, parent, threading.get_ident())
                )
            else:
                with self._lock:
                    cell = self.leaves[(parent, layer)]
                    cell[0] += end - start
                    cell[1] += 1
            if frame[2]:
                if recorded:
                    self._commit(span_id, frame[2])
                elif stack:  # the parent is open on this thread
                    if stack[-1][2] is None:
                        stack[-1][2] = Counter()
                    stack[-1][2].update(frame[2])
                else:
                    self._commit(parent, frame[2])

    def _wrap(self, site: Site, original):
        if site.count_only:

            @functools.wraps(original)
            def counting(*args, **kwargs):
                self._tally(site.layer, {"calls": 1})
                return original(*args, **kwargs)

            return counting

        @functools.wraps(original)
        def timed(*args, **kwargs):
            return self._call(
                site.layer, site.adopt, site.observe, original, args, kwargs
            )

        return timed

    def install(self, sites=SITES) -> None:
        """Patch every site; :meth:`uninstall` restores the originals."""
        for site in sites:
            owner, attr = _resolve(site.target)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(site, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- transport -------------------------------------------------------

    def dump(self, path) -> None:
        payload = {
            "spans": self.spans,
            "leaves": [[p, layer, s, n] for (p, layer), (s, n) in self.leaves.items()],
            "counts": [[o, name, n] for (o, name), n in self.counts.items()],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)

    def trace(self) -> "Trace":
        return Trace(
            self.spans,
            [(p, l, s, n) for (p, l), (s, n) in self.leaves.items()],
            [(o, name, n) for (o, name), n in self.counts.items()],
        )


def load_trace(path) -> "Trace":
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    return Trace(
        [tuple(s) for s in payload["spans"]],
        [tuple(leaf) for leaf in payload["leaves"]],
        [tuple(count) for count in payload["counts"]],
    )


def _layers(spec) -> tuple[str, ...]:
    return (spec,) if isinstance(spec, str) else tuple(spec)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cursor = float("-inf")
    for start, end in sorted(intervals):
        if end <= cursor:
            continue
        total += end - max(start, cursor)
        cursor = end
    return total


class Trace:
    """Read-only analysis of recorded spans and aggregates."""

    #: Slack for comparing sums of separately rounded clock readings.
    EPSILON = 1e-6

    def __init__(self, spans, leaves, counts) -> None:
        """``counts``: ``(owner span, counter, amount)`` triples."""
        self.spans = {s[0]: s for s in spans}
        self.leaves = list(leaves)
        self.owned_counts = list(counts)
        self.counts: Counter = Counter()
        for _owner, name, amount in self.owned_counts:
            self.counts[name] += amount
        self._children: dict[int, list] = defaultdict(list)
        for span in spans:
            self._children[span[4]].append(span)
        self._leaf_children: dict[int, list] = defaultdict(list)
        for leaf in leaves:
            self._leaf_children[leaf[0]].append(leaf)

    def _ancestors(self, parent: int):
        while parent:
            span = self.spans.get(parent)
            if span is None:
                return
            yield span
            parent = span[4]

    def _keep(self, layer: str, parent: int, under, not_under) -> bool:
        seen = {span[1] for span in self._ancestors(parent)}
        if layer in seen:
            return False  # nested in a span of its own layer: counted there
        if under is not None and seen.isdisjoint(_layers(under)):
            return False
        return not_under is None or seen.isdisjoint(_layers(not_under))

    def since(self, moment: float) -> "Trace":
        """The spans whose outermost ancestor started at or after ``moment``
        (a ``time.perf_counter()`` reading; on Linux the clock is shared
        across processes), with the aggregates and counts they own."""
        kept = set()
        for span in self.spans.values():
            outermost = span
            for outermost in self._ancestors(span[4]):
                pass
            if outermost[2] >= moment:
                kept.add(span[0])
        return Trace(
            [s for s in self.spans.values() if s[0] in kept],
            [leaf for leaf in self.leaves if leaf[0] in kept],
            [count for count in self.owned_counts if count[0] in kept],
        )

    def layer_seconds(self, layer: str, *, under=None, not_under=None) -> float:
        """Total outermost time of ``layer``; ``under`` / ``not_under`` (a
        layer or several) keep only spans with / without such an ancestor."""
        total = 0.0
        for span in self.spans.values():
            if span[1] == layer and self._keep(layer, span[4], under, not_under):
                total += span[3] - span[2]
        for parent, name, seconds, _calls in self.leaves:
            if name == layer and self._keep(layer, parent, under, not_under):
                total += seconds
        return total

    def layer_calls(self, layer: str) -> int:
        calls = sum(1 for s in self.spans.values() if s[1] == layer)
        return calls + sum(n for _p, name, _s, n in self.leaves if name == layer)

    def covered(self, span) -> float:
        """Seconds its children cover: the union of the recorded children's
        intervals plus the aggregated (same-thread, sequential) children."""
        intervals = [(c[2], c[3]) for c in self._children.get(span[0], ())]
        leaf_time = sum(leaf[2] for leaf in self._leaf_children.get(span[0], ()))
        return _union_length(intervals) + leaf_time

    def self_seconds(self, layer: str) -> float:
        """Outermost ``layer`` durations minus what their children cover."""
        total = 0.0
        for span in self.spans.values():
            if span[1] == layer and self._keep(layer, span[4], None, None):
                total += (span[3] - span[2]) - self.covered(span)
        for parent, name, seconds, _calls in self.leaves:
            if name == layer and self._keep(layer, parent, None, None):
                total += seconds  # no children by construction
        return total

    def integrity(self) -> dict[str, int]:
        """Structural checks; every count must be zero.

        * ``escaped``: a recorded child starts before or ends after its
          parent;
        * ``self_mismatch``: self time plus the time the children cover
          does not make up the duration with a non-negative self time,
          i.e. the children claim more time than the span lasted;
        * ``orphans``: a child names a parent that was never recorded.
        """
        escaped = mismatch = 0
        for span in self.spans.values():
            start, end = span[2], span[3]
            for child in self._children.get(span[0], ()):
                if child[2] < start - self.EPSILON or child[3] > end + self.EPSILON:
                    escaped += 1
            if (end - start) - self.covered(span) < -self.EPSILON:
                mismatch += 1
        orphans = sum(
            1
            for parent in set(self._children) | set(self._leaf_children)
            if parent and parent not in self.spans
        )
        return {"escaped": escaped, "self_mismatch": mismatch, "orphans": orphans}

    def child_seconds(self, span) -> float:
        """Sum of a span's direct children (recorded and aggregated)."""
        recorded = sum(c[3] - c[2] for c in self._children.get(span[0], ()))
        return recorded + sum(leaf[2] for leaf in self._leaf_children.get(span[0], ()))

    def spans_of(self, layer: str) -> list:
        return [s for s in self.spans.values() if s[1] == layer]
