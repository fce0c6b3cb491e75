"""Algorithm 1 end to end: the :class:`PolicyPipeline` orchestrator.

``process`` runs Phases 1 and 2 over a policy and returns a
:class:`PolicyModel`; ``query`` runs Phase 3 against a model;
``query_batch`` runs many Phase 3 queries concurrently against one model
on the :class:`~repro.jobs.JobRunner` executor, sharing repeated work
through the model's memoization caches; ``update``
applies a new policy version incrementally, re-extracting only segments
whose content hash changed.  Artifacts (segments, practices, graphs,
embeddings) can be written out for inspection, mirroring the paper's
per-stage caching.

Concurrency contract: a :class:`PolicyModel` and its substrates
(:class:`~repro.embeddings.store.EmbeddingStore`,
:class:`~repro.llm.client.CachedLLM`, :class:`~repro.core.caches.ModelCaches`)
are safe to share across query workers; each verification builds its own
:class:`~repro.solver.interface.Solver`, which is single-thread-owned.
``process`` and ``update`` are not concurrent-safe against in-flight
queries on the same model — batch boundaries are the synchronization
points.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro.core.caches import ModelCaches
from repro.core.encode import EncodedQuery, encode_query
from repro.core.extraction import ExtractionResult, extract_policy
from repro.core.graphs import NODE_DATA, PolicyGraph
from repro.core.hierarchy import Taxonomy, chain_of_layer
from repro.core.metrics import PipelineMetrics, merged
from repro.core.segmenter import LineUnits, diff_segments, segment_policy
from repro.core.subgraph import Subgraph, extract_subgraph, subgraph_cache_key
from repro.core.translation import TranslationResult, translate_query_terms
from repro.core.verify import (
    VerificationResult,
    Verdict,
    compile_script_text,
    is_certification_failure,
    verification_cache_key,
    verify_encoded,
)
from repro.embeddings.model import EmbeddingModel
from repro.embeddings.search import edge_text
from repro.embeddings.store import EmbeddingStore
from repro.errors import QueryError
from repro.llm.client import CachedLLM, LLMClient
from repro.llm.simulated import SimulatedLLM
from repro.llm.tasks import TaskRunner
from repro.resilience.degradation import (
    BudgetLadder,
    DegradationReport,
    execute_ladder,
    is_budget_limited,
)
from repro.solver.interface import SolverBudget


@contextmanager
def _stage(name: str):
    """Tag exceptions escaping a Phase 3 stage for batch fault isolation.

    The first stage to see an exception wins (an exception re-raised
    through outer stages keeps its original tag), so an
    :class:`ErrorOutcome` can report where a query died without the
    pipeline threading stage state through every call.
    """
    try:
        yield
    except BaseException as exc:
        if getattr(exc, "pipeline_stage", None) is None:
            try:
                exc.pipeline_stage = name
            except Exception:  # noqa: BLE001 - tagging must never mask the error
                pass
        raise


@dataclass(slots=True)
class PipelineConfig:
    """Tunables for the three phases; defaults follow the paper."""

    top_k: int = 10
    min_similarity: float = 0.3
    col_similarity_threshold: float = 0.0  # 0 disables the SciBERT-style filter
    include_hierarchy_axioms: bool = True
    solver_budget: SolverBudget = field(default_factory=SolverBudget)
    enable_query_caches: bool = True  # per-model Phase 3 memoization
    # Degradation ladder for budget-limited UNKNOWN verdicts; None disables
    # it (the default keeps query traces byte-identical to prior releases).
    budget_ladder: BudgetLadder | None = None
    # Trust-but-verify certification of solver verdicts: re-validate SAT
    # answers against the original formulas, replay UNSAT proofs, and
    # demote any verdict whose certificate fails to UNKNOWN (soundness
    # alarm).  Single queries certify by default; batches sample every
    # fourth question (repro.jobs.runner.BATCH_CERTIFY_STRIDE).
    certify: bool = True
    # Directory for quarantined formulas whose verdict failed
    # certification; None disables quarantine (the alarm still fires).
    certification_quarantine_dir: str | Path | None = None
    # Default supervision settings for run_job/resume_job (watchdog,
    # admission control, checkpointing; query_batch runs without); None
    # means plain JobConfig() defaults.  Annotated lazily to keep
    # repro.jobs import-free here — the jobs package imports this
    # module at import time, never the reverse.
    jobs: "JobConfig | None" = None  # noqa: F821 - resolved lazily


@dataclass(slots=True)
class PolicyModel:
    """Everything Phases 1 and 2 know about one policy version."""

    company: str
    extraction: ExtractionResult
    data_taxonomy: Taxonomy
    graph: PolicyGraph
    store: EmbeddingStore
    node_vocabulary: set[str] = field(default_factory=set)
    revision: int = 0  # bumped by every update; embedded in cache keys
    caches: ModelCaches = field(default_factory=ModelCaches)
    #: Ground-truth metadata for generated corpora (JSON-safe dict): the
    #: injected exception pairs and showcase statements the analysis
    #: experiments score against.  ``None`` for models built from real
    #: policy text; round-trips through snapshot save/load.
    provenance: dict | None = None

    @property
    def statistics(self):
        return self.graph.statistics()


@dataclass(slots=True)
class UpdateStats:
    """Cost accounting for one incremental update."""

    segments_total: int = 0
    segments_reused: int = 0
    segments_reextracted: int = 0
    segments_removed: int = 0
    seconds: float = 0.0

    @property
    def reuse_fraction(self) -> float:
        if self.segments_total == 0:
            return 1.0
        return self.segments_reused / self.segments_total


@dataclass(slots=True)
class QueryOutcome:
    """Full Phase 3 trace for one query."""

    question: str
    translations: dict[str, TranslationResult]
    subgraph: Subgraph
    encoded: EncodedQuery
    verification: VerificationResult
    metrics: PipelineMetrics = field(default_factory=PipelineMetrics)
    degradation: DegradationReport | None = None

    @property
    def verdict(self):
        return self.verification.verdict

    @property
    def failed(self) -> bool:
        """False: this query produced a verdict (see :class:`ErrorOutcome`)."""
        return False

    def summary(self) -> str:
        lines = [f"query: {self.question}"]
        changed = [t for t in self.translations.values() if t.changed]
        if changed:
            lines.append("translated terms:")
            lines.extend(
                f"  {t.original!r} -> {t.translated!r} (similarity {t.similarity:.3f})"
                for t in changed
            )
        lines.append(f"relevant subgraph: {self.subgraph.num_edges} edges")
        lines.append(self.verification.summary())
        if self.degradation is not None:
            lines.append(self.degradation.summary())
        return "\n".join(lines)

    def as_dict(self, *, include_metrics: bool = False) -> dict[str, object]:
        """JSON-serializable trace of the full Phase 3 run.

        Metrics (wall times, cache counters) are excluded by default so
        traces of equivalent runs compare byte-identical; pass
        ``include_metrics=True`` for the full accounting.
        """
        trace: dict[str, object] = {
            "question": self.question,
            "translations": {
                term: {
                    "translated": t.translated,
                    "similarity": round(t.similarity, 4),
                    "verified": t.verified,
                }
                for term, t in self.translations.items()
            },
            "subgraph_edges": self.subgraph.num_edges,
            "policy_formulas": self.encoded.num_policy_formulas,
            "verification": self.verification.as_dict(),
        }
        if self.degradation is not None:
            trace["degradation"] = self.degradation.as_dict()
        if include_metrics:
            trace["metrics"] = self.metrics.as_dict()
        return trace


@dataclass(slots=True)
class ErrorOutcome:
    """Structured failure record for one query in a fault-isolated batch.

    Takes a :class:`QueryOutcome`'s place in
    :attr:`repro.jobs.JobResult.outcomes` when that query raised: the
    batch keeps its order and its other verdicts, and the failure is
    reduced to what a caller can act on — which question, which pipeline
    stage, which exception.
    """

    question: str
    stage: str
    error_type: str
    message: str
    metrics: PipelineMetrics = field(default_factory=PipelineMetrics)

    @property
    def verdict(self) -> Verdict:
        return Verdict.ERROR

    @property
    def failed(self) -> bool:
        return True

    def summary(self) -> str:
        return (
            f"query: {self.question}\n"
            f"ERROR in {self.stage} stage: {self.error_type}: {self.message}"
        )

    def as_dict(self, *, include_metrics: bool = False) -> dict[str, object]:
        trace: dict[str, object] = {
            "question": self.question,
            "error": {
                "stage": self.stage,
                "type": self.error_type,
                "message": self.message,
            },
        }
        if include_metrics:
            trace["metrics"] = self.metrics.as_dict()
        return trace


class PolicyPipeline:
    """The paper's system: LLM extraction -> graphs -> FOL -> SMT."""

    def __init__(
        self,
        llm: LLMClient | None = None,
        embedding_model: EmbeddingModel | None = None,
        config: PipelineConfig | None = None,
    ) -> None:
        # Explicit None check: CachedLLM reports its entry count via
        # __len__, so a freshly-constructed (empty) wrapper is falsy and
        # `llm or default` would silently discard it.
        self.llm = llm if llm is not None else CachedLLM(SimulatedLLM())
        self.runner = TaskRunner(self.llm)
        self.embedding_model = embedding_model or EmbeddingModel()
        self.config = config or PipelineConfig()
        # Pipeline-lifetime accounting for model-store and audit events
        # (per-query metrics ride on each QueryOutcome instead).
        self.metrics = PipelineMetrics(queries=0)
        # Bounded log of typed integrity findings surfaced by loads (the
        # newest 64; the serving daemon exposes them under /stats).
        self.integrity_log: list = []

    def metrics_report(self, *parts: PipelineMetrics) -> PipelineMetrics:
        """``parts`` and the lifetime metrics merged into a new report.

        The one report behind every ``--stats`` block and the daemon's
        ``/stats``; none of ``parts`` is changed.  The LLM boundary's
        counters are not in it: they stay on the wrapper stack, read
        through :func:`~repro.providers.introspect.llm_stack_state`.
        """
        return merged([*parts, self.metrics])

    # ------------------------------------------------------------------
    # Phases 1 + 2
    # ------------------------------------------------------------------

    def process(self, policy_text: str, *, company: str | None = None) -> PolicyModel:
        """Extract, organize, and index one policy version."""
        extraction = extract_policy(self.runner, policy_text, company=company)
        return self._build_model(extraction)

    def _build_model(self, extraction: ExtractionResult) -> PolicyModel:
        graph = PolicyGraph(extraction.company)
        graph.add_practices(extraction.practices)
        graph.data_taxonomy = data_taxonomy = self._induce_taxonomy(graph)

        store = EmbeddingStore(self.embedding_model)
        vocabulary: set[str] = set()
        self._index_graph_embeddings(store, vocabulary, graph)

        return PolicyModel(
            company=extraction.company,
            extraction=extraction,
            data_taxonomy=data_taxonomy,
            graph=graph,
            store=store,
            node_vocabulary=vocabulary,
        )

    @staticmethod
    def _index_graph_embeddings(
        store: EmbeddingStore, vocabulary: set[str], graph: PolicyGraph
    ) -> None:
        """Index a graph's nodes and edge texts into the embedding store.

        Both fresh builds and in-place patches go through this helper, so
        the two paths produce identical store entries: node names enter the
        query vocabulary, and every materialized edge (including derived
        ``receive`` edges) contributes its canonical edge text.  One
        ``add_many`` call sizes the store's row buffer for all of them.
        """
        nodes = list(graph.nodes())
        vocabulary.update(nodes)
        store.add_many(
            nodes
            + [edge_text(edge.source, edge.action, edge.target) for edge in graph.edges()]
        )

    # ------------------------------------------------------------------
    # Incremental updates
    # ------------------------------------------------------------------

    def update(
        self,
        model: PolicyModel,
        new_policy_text: str,
        *,
        in_place: bool = False,
    ) -> tuple[PolicyModel, UpdateStats]:
        """Apply a new policy version, re-extracting only changed segments.

        With ``in_place=False`` (default) a fresh model is rebuilt from the
        (mostly cached) extraction.  With ``in_place=True`` the existing
        model is *patched*: edges of removed segments are dropped, practices
        of added segments are inserted, and only genuinely new vocabulary
        runs through Chain-of-Layer — the paper's "update only those
        branches" behaviour.  The passed-in model object is mutated and
        returned.  Either way the updated model keeps the verification
        answers (their keys hash the compiled script), so a question whose
        script the edit left unchanged is answered without a solve.
        """
        start = time.monotonic()
        old_segments = model.extraction.segments
        splits: dict[str, LineUnits] = {}
        new_segments = segment_policy(
            new_policy_text, model.extraction.line_splits, splits
        )
        diff = diff_segments(old_segments, new_segments)

        cached = {
            seg.segment_id: model.extraction.practices_by_segment[seg.segment_id]
            for seg in diff.unchanged
            if seg.segment_id in model.extraction.practices_by_segment
        }
        extraction = extract_policy(
            self.runner,
            new_policy_text,
            company=model.company,
            cached=cached,
            segments=new_segments,
        )
        extraction.line_splits = splits
        # Phase 3 memoization: the revision bump retires every translation
        # and subgraph key (they embed it), and the clear releases those
        # entries eagerly.  A verification key hashes the script itself,
        # so an answer whose script the edit left unchanged carries over;
        # a rebuilt model gets a copy, leaving the old model its own.
        if in_place:
            new_model = self._patch_model(model, extraction, diff)
            new_model.caches.clear(ModelCaches.REVISIONED)
        else:
            new_model = self._build_model(extraction)
            new_model.caches = model.caches.successor()
        new_model.revision = model.revision + 1
        stats = UpdateStats(
            segments_total=len(new_segments),
            segments_reused=len(diff.unchanged),
            segments_reextracted=len(diff.added),
            segments_removed=len(diff.removed),
        )
        stats.seconds = time.monotonic() - start
        return new_model, stats

    def _patch_model(
        self, model: PolicyModel, extraction: ExtractionResult, diff
    ) -> PolicyModel:
        """Mutate ``model`` to reflect a new extraction incrementally."""
        graph = model.graph
        nodes_before = set(graph.nodes())
        for segment in diff.removed:
            graph.remove_segment(segment.segment_id)

        added_ids = {seg.segment_id for seg in diff.added}
        new_practices = [
            p for p in extraction.practices if p.segment_id in added_ids
        ]
        candidate_graph = PolicyGraph(model.company)
        candidate_graph.add_practices(new_practices)
        graph.add_practices(new_practices)

        # Chain-of-Layer placement is context-dependent: a term's parent can
        # change when *other* vocabulary enters or leaves (e.g. "usage
        # information" reparents under a newly disclosed "usage data"), and
        # removed terms would otherwise linger in the hierarchy forever.  So
        # whenever the node set changed at all, the data taxonomy is
        # re-induced over the merged vocabulary — the prompts run through the
        # cached LLM, so unchanged layers cost no completions — which keeps a
        # patched model's hierarchy identical (as an edge set) to a
        # from-scratch rebuild's.  Segment re-extraction, the expensive
        # phase, stays incremental.
        if set(graph.nodes()) != nodes_before:
            self._rebuild_taxonomy(model)
        # The candidate graph materialized the same edges (primary and
        # derived) the main graph just gained, so indexing it keeps the
        # store identical to what a fresh build would produce.
        self._index_graph_embeddings(model.store, model.node_vocabulary, candidate_graph)
        # Nodes orphaned by removed segments left the graph; drop them from
        # the query vocabulary too so a patched model translates terms
        # exactly like a rebuilt one (the store keeps their vectors, but
        # the vocabulary filter excludes them from matching).
        model.node_vocabulary.intersection_update(graph.nodes())
        model.extraction = extraction
        return model

    def _rebuild_taxonomy(self, model: PolicyModel) -> None:
        """Re-induce the data hierarchy over the model's current vocabulary.

        The graph holds a reference to the taxonomy object (closure queries
        go through it), so the model field and the graph field are
        re-pointed together.
        """
        model.graph.data_taxonomy = model.data_taxonomy = self._induce_taxonomy(
            model.graph
        )

    def _induce_taxonomy(self, graph: PolicyGraph) -> Taxonomy:
        """Chain-of-Layer over the graph's data nodes.

        Only the data hierarchy is induced: subgraph extraction and the
        inheritance axioms read it alone, so an entity hierarchy would
        decide no verdict.
        """
        threshold = self.config.col_similarity_threshold
        return chain_of_layer(
            self.runner,
            graph.nodes_of_kind(NODE_DATA),
            "data",
            similarity_model=self.embedding_model if threshold > 0 else None,
            similarity_threshold=threshold,
        )

    # ------------------------------------------------------------------
    # Phase 3
    # ------------------------------------------------------------------

    def query(
        self,
        model: PolicyModel,
        question: str,
        *,
        budget: SolverBudget | None = None,
        certify: bool | None = None,
    ) -> QueryOutcome:
        """Verify a data-practice question against the model.

        Accepts both declarative statements ("TikTak collects the email.")
        and questions ("Does TikTak collect my email?"), which are
        normalized before extraction.  Repeated work is shared through the
        model's memoization caches (disable with
        ``PipelineConfig.enable_query_caches=False``); the attached
        :class:`PipelineMetrics` records per-stage wall time, cache
        hits/misses, and solver work.

        ``budget`` overrides ``PipelineConfig.solver_budget`` for this one
        query.  When ``PipelineConfig.budget_ladder`` is set and the
        verification comes back UNKNOWN for budget reasons, the ladder
        escalates, then decomposes, then reseeds before answering; the
        attempt trail is attached as :attr:`QueryOutcome.degradation`.

        ``certify`` overrides ``PipelineConfig.certify`` for this one
        query: the solver's verdict is re-validated by the independent
        certification layer, and a failed certificate is demoted to
        UNKNOWN (soundness alarm) rather than surfaced — never escalated
        by the degradation ladder.
        """
        from repro.core.questions import is_question, normalize_question

        metrics = PipelineMetrics()
        caches = model.caches if self.config.enable_query_caches else None
        started = time.perf_counter()

        with _stage("parse"):
            normalized = question
            if is_question(question):
                normalized = normalize_question(question)
            resolved = self.runner.resolve_coreferences(normalized, model.company)
            candidates = self.runner.extract_parameters(resolved, model.company)
            if not candidates:
                raise QueryError(
                    f"could not extract a data practice from query: {question!r}"
                )
            params = candidates[0]
        metrics.parse_seconds = time.perf_counter() - started

        stage = time.perf_counter()
        terms = [params.data_type]
        if params.sender:
            terms.append(params.sender)
        if params.receiver:
            terms.append(params.receiver)
        with _stage("translate"):
            translations = translate_query_terms(
                self.runner,
                model.store,
                terms,
                vocabulary=model.node_vocabulary,
                k=self.config.top_k,
                min_similarity=self.config.min_similarity,
                cache=caches,
                revision=model.revision,
                metrics=metrics,
            )
        metrics.translate_seconds = time.perf_counter() - stage

        def translated(term: str | None) -> str | None:
            if term is None:
                return None
            result = translations.get(term)
            return result.translated if result else term

        from repro.llm.tasks import ExtractedParameters

        translated_params = ExtractedParameters(
            sender=translated(params.sender) or params.sender,
            receiver=translated(params.receiver),
            subject=params.subject,
            data_type=translated(params.data_type) or params.data_type,
            action=params.action,
            condition=params.condition,
            permission=params.permission,
        )

        stage = time.perf_counter()
        with _stage("subgraph"):
            subgraph = self._relevant_subgraph(
                model, translated_params, caches, metrics
            )
        metrics.subgraph_seconds = time.perf_counter() - stage

        stage = time.perf_counter()
        with _stage("encode"):
            encoded = encode_query(
                subgraph,
                translated_params,
                include_hierarchy_axioms=self.config.include_hierarchy_axioms,
            )
        metrics.encode_seconds = time.perf_counter() - stage

        stage = time.perf_counter()
        effective_budget = (
            budget if budget is not None else self.config.solver_budget
        )
        effective_certify = (
            certify if certify is not None else self.config.certify
        )
        degradation: DegradationReport | None = None
        with _stage("verify"):
            verification = self._verify(
                encoded,
                caches,
                metrics,
                budget=effective_budget,
                certify=effective_certify,
            )
            ladder = self.config.budget_ladder
            if ladder is not None and is_budget_limited(verification):
                verification, degradation = execute_ladder(
                    subgraph,
                    translated_params,
                    verification,
                    ladder=ladder,
                    base_budget=effective_budget,
                    encoded=encoded,
                    include_hierarchy_axioms=self.config.include_hierarchy_axioms,
                    verify=lambda enc, b: self._verify(
                        enc,
                        caches,
                        metrics,
                        budget=b,
                        certify=effective_certify,
                    ),
                )
                metrics.degraded_queries += 1
                metrics.ladder_escalations += degradation.escalations
                metrics.ladder_decompositions += degradation.decompositions
                if degradation.rescued:
                    metrics.ladder_rescues += 1
        metrics.verify_seconds = time.perf_counter() - stage
        metrics.total_seconds = time.perf_counter() - started

        return QueryOutcome(
            question=question,
            translations=translations,
            subgraph=subgraph,
            encoded=encoded,
            verification=verification,
            metrics=metrics,
            degradation=degradation,
        )

    def _relevant_subgraph(
        self,
        model: PolicyModel,
        params,
        caches: ModelCaches | None,
        metrics: PipelineMetrics,
    ) -> Subgraph:
        """Extract (or reuse) the subgraph for translated query params."""
        data_terms = [params.data_type]
        entity_terms = [t for t in (params.sender, params.receiver) if t]
        key = subgraph_cache_key(
            data_terms,
            entity_terms,
            use_hierarchy=self.config.include_hierarchy_axioms,
            revision=model.revision,
        )
        def run_extract() -> Subgraph:
            return extract_subgraph(
                model.graph,
                data_terms,
                entity_terms,
                use_hierarchy=self.config.include_hierarchy_axioms,
            )

        if caches is not None:
            subgraph, computed = caches.get_or_compute(
                "subgraph", key, run_extract
            )
            if computed:
                metrics.subgraph_misses += 1
            else:
                metrics.subgraph_hits += 1
            return subgraph
        subgraph = run_extract()
        metrics.subgraph_misses += 1
        return subgraph

    def _verify(
        self,
        encoded: EncodedQuery,
        caches: ModelCaches | None,
        metrics: PipelineMetrics,
        *,
        budget: SolverBudget | None = None,
        certify: bool = False,
    ) -> VerificationResult:
        """Verify (or reuse) an encoded query.

        Each miss builds one fresh :class:`~repro.solver.interface.Solver`
        inside :func:`verify_encoded`, so concurrent workers never share
        solver state; hits skip the solver entirely and are
        not counted in the solver totals.  Concurrent workers on the same
        uncached problem share one single-flight solve (the followers
        count as hits — they ran no solver).  The cache key embeds
        ``budget`` and ``certify``, so results obtained under escalated
        (or starved) work budgets never answer for the default one, and
        an uncertified verdict never answers for a certified request.
        The wall-clock ``timeout_seconds`` is not in the key (a served
        request tightens it to its remaining deadline); instead a solve
        that outlasted it is not stored.  Every wall-clock trip (search,
        grounding, presolving, or either probe) happens only after that
        much time, so no result shaped by the clock is ever reused.  Only
        callers with the same ``timeout_seconds`` share a solve in
        progress: a short deadline never waits out a longer one's solve,
        and the followers of a solve that ran out of time get its
        UNKNOWN at once instead of each re-solving in turn.
        """
        if budget is None:
            budget = self.config.solver_budget
        script_text = compile_script_text(encoded)
        key = verification_cache_key(script_text, budget, certify=certify)

        outlasted = False

        def run_solver() -> VerificationResult:
            nonlocal outlasted
            started = time.monotonic()
            verification = verify_encoded(
                encoded,
                budget=budget,
                script_text=script_text,
                certify=certify,
                quarantine_dir=self.config.certification_quarantine_dir
                if certify
                else None,
            )
            outlasted = (
                budget.timeout_seconds is not None
                and time.monotonic() - started >= budget.timeout_seconds
            )
            return verification

        if caches is not None:
            verification, computed = caches.get_or_compute(
                "verification",
                key,
                run_solver,
                keep=lambda _v: not outlasted,
                flight_key=(key, budget.timeout_seconds),
            )
            if not computed:
                metrics.verification_hits += 1
                return verification
        else:
            verification = run_solver()
        metrics.verification_misses += 1
        stats = verification.solver_result.statistics
        metrics.solver_conflicts += stats.conflicts
        metrics.solver_propagations += stats.propagations
        if certify:
            metrics.certifications_run += 1
            if is_certification_failure(verification):
                metrics.certification_failures += 1
                if verification.quarantined_to is not None:
                    metrics.certification_quarantines += 1
        return verification

    def query_batch(
        self,
        model: PolicyModel,
        questions: Iterable[str],
        *,
        max_workers: int | None = None,
    ):
        """Verify many questions against one model concurrently.

        A plain :meth:`run_job` (no watchdog, no journal, no signal
        handlers, so an interrupt propagates) that returns its
        :class:`repro.jobs.JobResult`.  Outcomes keep input order and are
        verdict-identical to a sequential :meth:`query` loop: workers
        share only the model's memoization caches and the thread-safe
        substrates, and every stage is deterministic.  A query that raises
        an :class:`Exception` fills its slot with an :class:`ErrorOutcome`;
        the default ``max_workers`` and the sampled certification are as
        in :class:`repro.jobs.JobRunner`.
        """
        from repro.jobs.config import JobConfig

        config = JobConfig(max_workers=max_workers, handle_signals=False)
        return self.run_job(model, questions, job_config=config)

    # ------------------------------------------------------------------
    # Supervised jobs
    # ------------------------------------------------------------------

    def run_job(
        self,
        model: PolicyModel,
        questions: Iterable[str],
        *,
        job_config=None,
    ):
        """Run a question suite under supervision (see :mod:`repro.jobs`).

        The executor behind :meth:`query_batch`, with the supervision
        :attr:`PipelineConfig.jobs` asks for: heartbeat watchdog, bounded
        admission, graceful drain on SIGINT/SIGTERM, and — with a
        checkpoint directory configured — crash-resumable journaling.
        ``job_config`` overrides :attr:`PipelineConfig.jobs` for this run.
        Returns a :class:`repro.jobs.JobResult`.
        """
        from repro.jobs.runner import JobRunner

        return JobRunner(self, model, job_config).run(questions)

    def resume_job(self, model: PolicyModel, *, job_config=None):
        """Resume a checkpointed job: restore committed results, run the rest.

        Requires a checkpoint directory (on ``job_config`` or
        :attr:`PipelineConfig.jobs`) whose journal header names the
        original question suite.  Restored outcomes are byte-identical
        (trace for trace) to what the interrupted run committed; only
        pending queries execute.
        """
        from repro.jobs.runner import JobRunner

        return JobRunner(self, model, job_config).resume()

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save_artifacts(self, model: PolicyModel, directory: str | Path) -> None:
        """Write inspectable artifacts for every pipeline stage.

        The files are the snapshot artifacts of
        :func:`repro.store.serialize.model_artifacts`, plus the graph's
        statistics (``graph_stats.json``) and a Graphviz rendering
        (``graph.dot``).  Every file goes through the atomic writer (temp
        file + fsync + rename), so re-dumping over an existing artifact
        directory can never leave a truncated file behind, no matter where
        a crash lands.  For durable, hash-verified, *loadable* persistence
        use :meth:`save_model` instead — this dump has no manifest.
        """
        from repro.store.atomic import (
            atomic_write_bytes,
            atomic_write_json,
            atomic_write_text,
        )
        from repro.store.serialize import model_artifacts

        directory = Path(directory)
        for name, payload in model_artifacts(model).items():
            atomic_write_bytes(directory / name, payload)
        atomic_write_json(
            directory / "graph_stats.json", model.statistics.as_dict()
        )
        atomic_write_text(
            directory / "graph.dot", model.graph.to_dot(max_edges=500)
        )

    def save_model(
        self, model: PolicyModel, directory: str | Path, *, journaled: bool = False
    ):
        """Commit ``model`` to the crash-safe snapshot store at ``directory``.

        With ``journaled=True`` the commit is bracketed by the write-ahead
        journal (use after :meth:`update` so a crash recovers to exactly
        the pre- or post-update snapshot).  Returns the
        :class:`~repro.store.snapshot.SnapshotInfo` of the new snapshot.
        """
        from repro.store.snapshot import SnapshotStore

        store = SnapshotStore(directory)
        info = store.commit_update(model) if journaled else store.commit(model)
        self.metrics.snapshot_saves += 1
        return info

    def load_model(
        self,
        directory: str | Path,
        *,
        policy_text: str | None = None,
        company: str | None = None,
    ) -> PolicyModel:
        """Warm-start a model from the snapshot store at ``directory``.

        Every artifact is hash-verified against the snapshot manifest;
        corrupt snapshots are quarantined and the newest valid one wins.
        When no valid snapshot survives (or none was ever committed) and
        ``policy_text`` is given, the model is rebuilt from scratch and
        re-committed so the next start is warm again; without
        ``policy_text`` the :class:`~repro.errors.SnapshotError` escapes.
        """
        from repro.errors import SnapshotError
        from repro.store.snapshot import SnapshotStore

        store = SnapshotStore(directory)
        try:
            result = store.load()
        except SnapshotError as exc:
            # Every quarantine report on the error is a typed integrity
            # finding; rebuild-from-text repairs them, otherwise they
            # escape as unrepairable (this is the single counting point —
            # registry loads funnel through here too).
            damage = len(getattr(exc, "reports", ()))
            self.metrics.integrity_findings += damage
            if policy_text is None:
                self.metrics.integrity_unrepairable += damage
                raise
            model = self.process(policy_text, company=company)
            store.commit(model)
            self.metrics.snapshot_rebuilds += 1
            self.metrics.snapshot_saves += 1
            self.metrics.integrity_repairs += damage
            self._note_integrity(exc_reports=getattr(exc, "reports", ()), store_root=directory)
            return model
        self.metrics.snapshot_loads += 1
        self.metrics.snapshot_quarantines += len(result.quarantined)
        if result.quarantined:
            # Served after quarantining damage and falling back to the
            # newest valid snapshot: findings surfaced AND healed.
            self.metrics.integrity_findings += len(result.quarantined)
            self.metrics.integrity_repairs += len(result.quarantined)
            self._note_integrity(
                exc_reports=result.quarantined, store_root=directory
            )
        if result.journal_recovery is not None:
            self.metrics.snapshot_journal_recoveries += 1
        return result.model

    def _note_integrity(self, *, exc_reports, store_root) -> None:
        """Keep a bounded log of typed findings for ``/stats`` surfacing."""
        from repro.integrity.findings import findings_from_quarantine

        self.integrity_log.extend(
            findings_from_quarantine(exc_reports, str(store_root))
        )
        del self.integrity_log[:-64]
