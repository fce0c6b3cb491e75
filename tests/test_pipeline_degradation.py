"""Degradation-ladder and fault-isolation tests for the query pipeline.

Covers the solver UNKNOWN -> QueryOutcome path end-to-end, the
escalate/decompose/reseed ladder, per-query budget overrides, strict translation,
and the conversion of raising queries into structured ErrorOutcome records
inside ``query_batch``.
"""

from __future__ import annotations

import pytest

from repro import PipelineConfig, PolicyPipeline, Verdict
from repro.core.encode import encode_query
from repro.core.pipeline import ErrorOutcome
from repro.core.subgraph import Subgraph, component_for_terms, split_components
from repro.core.verify import VerificationResult, verify_encoded
from repro.errors import TranslationError, UnknownCause
from repro.resilience import BudgetLadder, execute_ladder, is_budget_limited
from repro.resilience.degradation import RESEED_SEEDS
from repro.resilience.faults import (
    STARVED_BUDGET,
    BudgetStarvingPipeline,
    FaultInjectingLLM,
)
from repro.llm.client import CachedLLM
from repro.llm.simulated import SimulatedLLM
from repro.solver.interface import SolverBudget
from repro.solver.result import (
    CERTIFICATION_FAILED,
    CertificateReport,
    SatResult,
    SolverResult,
)

QUESTION = "Does Acme collect my email address?"


def _full_graph_subgraph(model) -> Subgraph:
    """All practice edges plus the hierarchy links between their terms."""
    sub = Subgraph()
    sub.edges = list(model.graph.edges())
    for edge in sub.edges:
        sub.data_terms.add(edge.target)
        sub.entity_terms.add(edge.source)
        if edge.receiver:
            sub.entity_terms.add(edge.receiver)
    taxonomy = model.graph.data_taxonomy
    for child in sorted(sub.data_terms):
        parent = taxonomy.parent(child)
        if parent and parent != taxonomy.root and parent in sub.data_terms:
            sub.hierarchy_edges.append((parent, child))
    return sub


class TestUnknownVerdictEndToEnd:
    """Solver budget exhaustion must surface as a structured UNKNOWN."""

    def test_starved_budget_yields_budget_unknown(self, pipeline, small_model):
        outcome = pipeline.query(small_model, QUESTION, budget=STARVED_BUDGET)
        assert outcome.verdict is Verdict.UNKNOWN
        reason = outcome.verification.solver_result.reason
        assert "budget exhausted" in reason or "timeout" in reason
        assert outcome.verification.solver_result.cause is not None
        assert is_budget_limited(outcome.verification)
        # Without a ladder configured, no degradation is attempted and the
        # trace stays byte-identical to prior releases.
        assert outcome.degradation is None
        assert "degradation" not in outcome.as_dict()
        assert f"reason: {reason}" in outcome.summary()
        assert outcome.failed is False

    def test_budget_override_does_not_pollute_default_cache(
        self, pipeline, small_model
    ):
        starved = pipeline.query(small_model, QUESTION, budget=STARVED_BUDGET)
        assert starved.verdict is Verdict.UNKNOWN
        normal = pipeline.query(small_model, QUESTION)
        assert normal.verdict is not Verdict.UNKNOWN
        again = pipeline.query(small_model, QUESTION, budget=STARVED_BUDGET)
        assert again.verdict is Verdict.UNKNOWN


class TestBudgetLadder:
    def test_validation(self):
        with pytest.raises(ValueError):
            BudgetLadder(multipliers=(1.0,))
        with pytest.raises(ValueError):
            BudgetLadder(multipliers=(16.0, 4.0))
        with pytest.raises(ValueError):
            BudgetLadder(decompose_budget_multiplier=0.0)

    def test_scaled_budget(self):
        base = SolverBudget(
            max_conflicts=10,
            max_propagations=None,
            max_ground_instances=3,
            timeout_seconds=1.0,
            decision_seed=2,
        )
        scaled = base.scaled(4.0)
        assert scaled.max_conflicts == 40
        assert scaled.max_propagations is None
        assert scaled.max_ground_instances == 12
        assert scaled.timeout_seconds == 4.0
        assert scaled.decision_seed == 2
        with pytest.raises(ValueError):
            base.scaled(0.0)

    def test_escalation_rescues_starved_query(self, small_policy_text):
        pipeline = BudgetStarvingPipeline(
            config=PipelineConfig(budget_ladder=BudgetLadder()),
            starve_questions=(QUESTION,),
        )
        model = pipeline.process(small_policy_text)
        outcome = pipeline.query(model, QUESTION)
        assert outcome.verdict is not Verdict.UNKNOWN
        report = outcome.degradation
        assert report is not None
        assert report.rescued
        assert report.final_rung == "escalate"
        assert report.steps[0].rung == "escalate"
        assert "budget" in report.base_reason
        assert outcome.metrics.degraded_queries == 1
        assert outcome.metrics.ladder_rescues == 1
        assert outcome.metrics.ladder_escalations >= 1
        # The report travels with the deterministic trace and the summary.
        assert outcome.as_dict()["degradation"]["rescued"] is True
        assert "degradation ladder" in outcome.summary()

    def test_unstarved_queries_skip_the_ladder(self, small_policy_text):
        pipeline = BudgetStarvingPipeline(
            config=PipelineConfig(budget_ladder=BudgetLadder()),
            starve_questions=(QUESTION,),
        )
        model = pipeline.process(small_policy_text)
        outcome = pipeline.query(model, "Acme collects the phone number.")
        assert outcome.degradation is None
        assert outcome.metrics.degraded_queries == 0

    def test_decomposition_rescues_when_escalation_cannot(self, small_model):
        """A policy-sized encoding over budget, rescued by its data branch."""
        pipeline = PolicyPipeline()
        full = _full_graph_subgraph(small_model)
        components = split_components(full)
        assert len(components) > 1

        resolved = pipeline.runner.resolve_coreferences(
            "Acme collects email address.", small_model.company
        )
        params = pipeline.runner.extract_parameters(
            resolved, small_model.company
        )[0]
        encoded = encode_query(full, params)
        # Too small for the full graph, ample for the email component —
        # and one doubling does not close the gap.
        base = SolverBudget(
            max_conflicts=None,
            max_propagations=None,
            max_ground_instances=100,
            timeout_seconds=None,
        )
        initial = verify_encoded(encoded, budget=base)
        assert initial.verdict is Verdict.UNKNOWN
        assert is_budget_limited(initial)

        final, report = execute_ladder(
            full,
            params,
            initial,
            ladder=BudgetLadder(multipliers=(2.0,)),
            base_budget=base,
            encoded=encoded,
        )
        assert final.verdict is Verdict.VALID
        assert report.rescued
        assert report.final_rung == "decompose"
        assert report.escalations == 1
        assert report.decompositions == 1
        escalate, decompose = report.steps
        assert escalate.verdict == "UNKNOWN"
        assert decompose.verdict == "VALID"
        assert decompose.sound  # a component VALID is sound for the whole
        assert "component" in decompose.detail

    def test_component_lookup_matches_query_terms(self, small_model):
        components = split_components(_full_graph_subgraph(small_model))
        component = component_for_terms(components, ["email address"])
        assert component is not None
        assert "email address" in component.data_terms
        assert component_for_terms(components, ["no such term"]) is None

    def test_unrescued_ladder_reports_every_step(self, small_policy_text):
        # Escalation multipliers too small to matter, decomposition
        # disabled: the original UNKNOWN must stand, with the trail intact.
        pipeline = BudgetStarvingPipeline(
            config=PipelineConfig(
                budget_ladder=BudgetLadder(
                    multipliers=(1.5,), decompose=False
                )
            ),
            starve_questions=(QUESTION,),
        )
        model = pipeline.process(small_policy_text)
        outcome = pipeline.query(model, QUESTION)
        assert outcome.verdict is Verdict.UNKNOWN
        report = outcome.degradation
        assert report is not None
        assert not report.rescued
        assert report.final_rung is None
        # The starved budget trips grounding, which no decision seed
        # changes, so the reseed rung is skipped.
        assert outcome.verification.solver_result.cause is (
            UnknownCause.GROUND_INSTANCES
        )
        assert [(s.rung, s.detail) for s in report.steps] == [
            ("escalate", "budget x1.5")
        ]
        assert "not rescued" in report.summary()
        assert outcome.metrics.ladder_rescues == 0


def _budget_unknown(cause=UnknownCause.CONFLICTS) -> VerificationResult:
    return VerificationResult(
        verdict=Verdict.UNKNOWN,
        solver_result=SolverResult(
            status=SatResult.UNKNOWN, reason="budget exhausted", cause=cause
        ),
        smtlib_text="",
    )


def _contradiction_unknown() -> VerificationResult:
    return VerificationResult(
        verdict=Verdict.UNKNOWN,
        solver_result=SolverResult(
            status=SatResult.UNSAT,
            reason="policy statements in the relevant subgraph are mutually "
            "contradictory; human review required",
        ),
        smtlib_text="",
        policy_consistent=False,
    )


def _certification_failure() -> VerificationResult:
    report = CertificateReport(
        verdict="unsat", status="failed", failures=["proof replay failed"]
    )
    return VerificationResult(
        verdict=Verdict.UNKNOWN,
        solver_result=SolverResult(
            status=SatResult.UNKNOWN,
            reason=f"{CERTIFICATION_FAILED}: proof replay failed",
            certificate=report,
        ),
        smtlib_text="",
    )


def _valid() -> VerificationResult:
    return VerificationResult(
        verdict=Verdict.VALID,
        solver_result=SolverResult(status=SatResult.UNSAT),
        smtlib_text="",
    )


class RecordingVerify:
    """A ``verify`` fake for :func:`execute_ladder` that records its calls.

    The full encoding answers ``full_answers[decision_seed]`` (a budget
    UNKNOWN by default); the decomposed component answers
    ``component_answer`` (a budget UNKNOWN by default, so decomposition
    does not rescue).
    """

    def __init__(self, full_encoding, full_answers=None, component_answer=None):
        self.full_encoding = full_encoding
        self.full_answers = full_answers or {}
        self.component_answer = component_answer
        self.calls: list[tuple[str, int, int | None]] = []

    def __call__(self, encoded, budget):
        kind = "full" if encoded is self.full_encoding else "component"
        self.calls.append((kind, budget.decision_seed, budget.max_conflicts))
        if kind == "full" and budget.decision_seed in self.full_answers:
            return self.full_answers[budget.decision_seed]
        if kind == "component" and self.component_answer is not None:
            return self.component_answer
        return _budget_unknown()

    @property
    def seeds_tried(self) -> list[int]:
        return [seed for _kind, seed, _conflicts in self.calls if seed]


class TestReseedRung:
    BASE = SolverBudget(max_conflicts=30)

    @pytest.fixture
    def problem(self, pipeline, small_model):
        full = _full_graph_subgraph(small_model)
        resolved = pipeline.runner.resolve_coreferences(
            "Acme collects email address.", small_model.company
        )
        params = pipeline.runner.extract_parameters(
            resolved, small_model.company
        )[0]
        return full, params, encode_query(full, params)

    def _run(self, problem, initial, verify):
        full, params, encoded = problem
        return execute_ladder(
            full,
            params,
            initial,
            ladder=BudgetLadder(),
            base_budget=self.BASE,
            encoded=encoded,
            verify=verify,
        )

    def test_runs_after_decompose_in_seed_order_until_decisive(self, problem):
        valid = _valid()
        verify = RecordingVerify(problem[2], {2: valid})
        final, report = self._run(problem, _budget_unknown(), verify)
        assert verify.calls == [
            ("full", 0, 120),
            ("full", 0, 480),
            ("component", 0, 30),
            ("full", 1, 30),  # reseed re-verifies at the base budget
            ("full", 2, 30),  # the first decisive answer ends the rung
        ]
        assert [(s.rung, s.detail) for s in report.steps[3:]] == [
            ("reseed", "seed 1"),
            ("reseed", "seed 2"),
        ]
        assert final is valid
        assert report.rescued and report.final_rung == "reseed"

    def test_unrescued_rung_tries_every_seed(self, problem):
        verify = RecordingVerify(problem[2])
        final, report = self._run(problem, _budget_unknown(), verify)
        assert verify.seeds_tried == list(RESEED_SEEDS)
        assert final.verdict is Verdict.UNKNOWN
        assert is_budget_limited(final)
        assert not report.rescued and report.final_rung is None

    def test_skips_a_grounding_limited_unknown(self, problem):
        grounding = _budget_unknown(UnknownCause.GROUND_INSTANCES)
        verify = RecordingVerify(problem[2], {0: grounding})
        final, report = self._run(problem, grounding, verify)
        assert verify.seeds_tried == []
        assert [s.rung for s in report.steps] == [
            "escalate",
            "escalate",
            "decompose",
        ]
        assert final is grounding and not report.rescued

    @pytest.mark.parametrize(
        "cause",
        [
            UnknownCause.CONFLICTS,
            UnknownCause.PROPAGATIONS,
            UnknownCause.THEORY_ROUNDS,
            UnknownCause.WALL_CLOCK,
        ],
    )
    def test_runs_for_every_search_cause(self, problem, cause):
        verify = RecordingVerify(problem[2], {0: _budget_unknown(cause)})
        self._run(problem, _budget_unknown(cause), verify)
        assert verify.seeds_tried == list(RESEED_SEEDS)

    def test_never_runs_for_a_contradiction_unknown(self, problem):
        initial = _contradiction_unknown()
        verify = RecordingVerify(problem[2])
        final, report = self._run(problem, initial, verify)
        assert verify.calls == [("component", 0, 30)]
        assert [s.rung for s in report.steps] == ["decompose"]
        assert final is initial

    def test_never_runs_for_a_certification_failure(self, problem):
        initial = _certification_failure()
        verify = RecordingVerify(problem[2])
        final, report = self._run(problem, initial, verify)
        assert verify.calls == []
        assert final is initial and report.steps == []

        # An escalation that trips the alarm ends the ladder: neither a
        # component VALID nor a seed may replace the alarm.
        alarm = _certification_failure()
        verify = RecordingVerify(
            problem[2], {0: alarm, 1: _valid()}, component_answer=_valid()
        )
        final, report = self._run(problem, _budget_unknown(), verify)
        assert verify.calls == [("full", 0, 120)]
        assert [s.rung for s in report.steps] == ["escalate"]
        assert final is alarm and not report.rescued

    def test_certification_failure_is_never_a_rescue(self, problem):
        alarm = _certification_failure()
        verify = RecordingVerify(problem[2], {1: alarm, 2: _valid()})
        final, report = self._run(problem, _budget_unknown(), verify)
        assert verify.seeds_tried == [1]
        assert final is alarm
        assert not report.rescued and report.final_rung is None


class TestStrictTranslation:
    QUESTION = "Acme collects the shoe size."

    def test_strict_mode_raises_with_terms(self, small_model):
        pipeline = PolicyPipeline(
            config=PipelineConfig(strict_translation=True, min_similarity=0.99)
        )
        with pytest.raises(TranslationError) as excinfo:
            pipeline.query(small_model, self.QUESTION)
        assert excinfo.value.terms  # names the untranslatable terms
        assert all(isinstance(t, str) for t in excinfo.value.terms)

    def test_default_mode_counts_fallbacks(self, small_model):
        pipeline = PolicyPipeline(
            config=PipelineConfig(min_similarity=0.99, enable_query_caches=False)
        )
        outcome = pipeline.query(small_model, self.QUESTION)
        assert outcome.metrics.translation_fallbacks >= 1
        assert any(t.fell_back for t in outcome.translations.values())

    def test_strict_error_isolated_in_batch(self, small_model):
        pipeline = PolicyPipeline(
            config=PipelineConfig(strict_translation=True, min_similarity=0.99)
        )
        batch = pipeline.query_batch(small_model, [self.QUESTION], max_workers=1)
        (outcome,) = batch.outcomes
        assert isinstance(outcome, ErrorOutcome)
        assert outcome.stage == "translate"
        assert outcome.error_type == "TranslationError"


class TestBatchFaultIsolation:
    # The poisoned question is declarative: interrogatives are rewritten
    # by normalization before any prompt is rendered, so their original
    # text never appears at the LLM boundary.
    QUESTIONS = [
        "Acme collects the email address.",
        "Acme collects the phone number.",
        "Acme shares the location information with advertisers.",
    ]

    def _poisoned_pipeline(self, poison: str) -> PolicyPipeline:
        llm = CachedLLM(
            FaultInjectingLLM(SimulatedLLM(), fail_substrings=(poison,))
        )
        return PolicyPipeline(llm=llm)

    def test_failed_query_becomes_error_outcome(self, small_policy_text):
        poison = self.QUESTIONS[1]
        pipeline = self._poisoned_pipeline(poison)
        model = PolicyPipeline().process(small_policy_text)
        batch = pipeline.query_batch(model, self.QUESTIONS, max_workers=2)
        assert [o.question for o in batch.outcomes] == self.QUESTIONS
        good_a, error, good_b = batch.outcomes
        assert isinstance(error, ErrorOutcome)
        assert error.verdict is Verdict.ERROR
        assert error.failed is True
        assert error.stage == "parse"  # the first LLM call carries the text
        assert error.error_type == "InjectedFaultError"
        assert not good_a.failed and not good_b.failed
        assert batch.errors == [error]
        assert batch.succeeded == [good_a, good_b]
        assert batch.metrics.query_errors == 1
        assert "1 isolated failures" in batch.summary()
        as_dict = batch.as_dict()
        assert as_dict["errors"] == 1
        assert as_dict["verdicts"]["ERROR"] == 1
        assert as_dict["outcomes"][1]["error"]["stage"] == "parse"
        assert "ERROR in parse stage" in error.summary()

    def test_isolation_can_be_disabled(self, small_policy_text):
        poison = self.QUESTIONS[1]
        pipeline = self._poisoned_pipeline(poison)
        model = PolicyPipeline().process(small_policy_text)
        with pytest.raises(Exception, match="injected LLM fault"):
            pipeline.query_batch(
                model, self.QUESTIONS, max_workers=1, isolate_faults=False
            )

    def test_unaffected_queries_match_fault_free_run(self, small_policy_text):
        clean = PolicyPipeline()
        model = clean.process(small_policy_text)
        baseline = {
            q: clean.query(model, q).as_dict() for q in self.QUESTIONS
        }
        poisoned = self._poisoned_pipeline(self.QUESTIONS[1])
        model2 = PolicyPipeline().process(small_policy_text)
        batch = poisoned.query_batch(model2, self.QUESTIONS, max_workers=3)
        for outcome in batch.outcomes:
            if isinstance(outcome, ErrorOutcome):
                continue
            assert outcome.as_dict() == baseline[outcome.question]
