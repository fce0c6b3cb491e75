"""Tests for PipelineConfig knobs and their observable effects."""

import pytest

from repro import PipelineConfig, PolicyPipeline, SolverBudget, Verdict


class TestConfigKnobs:
    def test_col_similarity_filter_flattens_taxonomy(self, small_policy_text):
        strict = PolicyPipeline(
            config=PipelineConfig(col_similarity_threshold=1.01)
        )
        model = strict.process(small_policy_text)
        # Every term ends up directly under the root: depth 1.
        assert model.data_taxonomy.max_depth() <= 1

    def test_tiny_solver_budget_yields_unknown(self, small_policy_text):
        pipeline = PolicyPipeline(
            config=PipelineConfig(
                solver_budget=SolverBudget(max_ground_instances=1)
            )
        )
        model = pipeline.process(small_policy_text)
        outcome = pipeline.query(model, "Acme collects the email address.")
        assert outcome.verdict is Verdict.UNKNOWN
        assert "budget" in outcome.verification.solver_result.reason

    def test_hierarchy_axioms_config_changes_encoding(self, small_policy_text):
        with_h = PolicyPipeline(config=PipelineConfig(include_hierarchy_axioms=True))
        without_h = PolicyPipeline(
            config=PipelineConfig(include_hierarchy_axioms=False)
        )
        q = "Acme collects the email address."
        m1 = with_h.process(small_policy_text)
        m2 = without_h.process(small_policy_text)
        e1 = with_h.query(m1, q).encoded.num_policy_formulas
        e2 = without_h.query(m2, q).encoded.num_policy_formulas
        assert e1 >= e2
