"""Unit tests for the analysis layer (contradictions, diffing, coverage)."""

import pytest

from repro.analysis import (
    ExceptionPattern,
    classify_exception,
    coverage_report,
    diff_policies,
    find_contradictions,
    render_contradictions,
    render_coverage,
    render_diff,
)
from repro.core.extraction import extract_policy
from repro.core.graphs import PolicyGraph
from repro.core.hierarchy import Taxonomy
from repro.core.parameters import annotate
from repro.llm.tasks import ExtractedParameters


def _practice(sender, action, data_type, receiver=None, condition=None, permission=True, seg="s1"):
    return annotate(
        ExtractedParameters(
            sender=sender,
            receiver=receiver,
            subject="user",
            data_type=data_type,
            action=action,
            condition=condition,
            permission=permission,
        ),
        segment_id=seg,
    )


class TestClassifyException:
    def _denial(self):
        return _practice("acme", "share", "location", receiver="third parties", permission=False)

    def test_condition_wins(self):
        permission = _practice(
            "acme", "share", "location", receiver="third parties",
            condition="with your consent",
        )
        assert classify_exception(self._denial(), permission) is ExceptionPattern.CONDITIONAL_EXCEPTION

    def test_receiver_scoping(self):
        permission = _practice("acme", "share", "location", receiver="mapping services")
        assert classify_exception(self._denial(), permission) is ExceptionPattern.RECEIVER_SCOPED

    def test_narrower_data(self):
        permission = _practice("acme", "share", "approximate location")
        assert (
            classify_exception(self._denial(), permission, data_is_narrower=True)
            is ExceptionPattern.NARROWER_DATA
        )

    def test_contradiction_when_unscoped(self):
        permission = _practice("acme", "share", "location", receiver="third parties")
        assert classify_exception(self._denial(), permission) is ExceptionPattern.CONTRADICTION

    def test_coherence_flag(self):
        assert ExceptionPattern.CONDITIONAL_EXCEPTION.is_coherent
        assert not ExceptionPattern.CONTRADICTION.is_coherent


class TestFindContradictions:
    def test_detects_share_vs_deny(self):
        practices = [
            _practice("acme", "share", "location", permission=False),
            _practice("acme", "share", "location", condition="with your consent", seg="s2"),
        ]
        report = find_contradictions(practices)
        assert report.total == 1
        assert report.coherent_fraction == 1.0

    def test_cross_verb_same_group(self):
        practices = [
            _practice("acme", "sell", "email", permission=False),
            _practice("acme", "disclose", "email", seg="s2"),
        ]
        report = find_contradictions(practices)
        assert report.total == 1
        assert report.genuine  # unscoped disclosure contradicts no-sell

    def test_different_groups_not_compared(self):
        practices = [
            _practice("acme", "sell", "email", permission=False),
            _practice("acme", "collect", "email", seg="s2"),
        ]
        assert find_contradictions(practices).total == 0

    def test_hierarchy_related_data(self):
        taxonomy = Taxonomy(root="data")
        taxonomy.add("location", "data")
        taxonomy.add("gps location", "location")
        practices = [
            _practice("acme", "share", "location", permission=False),
            _practice("acme", "share", "gps location", seg="s2"),
        ]
        report = find_contradictions(practices, data_taxonomy=taxonomy)
        assert report.total == 1
        assert report.contradictions[0].pattern is ExceptionPattern.NARROWER_DATA

    def test_sender_scoping(self):
        practices = [
            _practice("acme", "share", "email", permission=False),
            _practice("user", "share", "email", seg="s2"),
        ]
        assert find_contradictions(practices).total == 0
        assert find_contradictions(practices, same_sender_only=False).total == 1

    def test_by_pattern_counts(self):
        practices = [
            _practice("acme", "share", "location", permission=False),
            _practice("acme", "share", "location", condition="if required", seg="s2"),
            _practice("acme", "share", "location", receiver="third parties", seg="s3"),
        ]
        report = find_contradictions(practices)
        counts = report.by_pattern()
        assert counts.get("conditional_exception") == 1
        assert counts.get("contradiction") == 1

    def test_empty_input(self):
        report = find_contradictions([])
        assert report.total == 0
        assert report.coherent_fraction == 1.0


class TestGroundTruthRecovery:
    def test_injected_pairs_recovered(self, pipeline):
        """The generator's ground-truth exception pairs are all detected and
        correctly classified on a freshly generated policy."""
        from repro.corpus.generator import GeneratorProfile, PolicyGenerator

        profile = GeneratorProfile(
            company="Probe",
            platform="Probe",
            seed=99,
            exception_pairs=8,
            incoherent_exception_fraction=0.25,
        )
        doc = PolicyGenerator(profile).generate(2500)
        extraction = extract_policy(pipeline.runner, doc.text, company="Probe")
        report = find_contradictions(extraction.practices)
        # Extraction singularizes data types; normalize the ground truth.
        from repro.nlp.morphology import singularize_phrase

        truth_incoherent = {
            singularize_phrase(p.data_type) for p in doc.exception_pairs if not p.coherent
        }
        found_incoherent = {c.denial.data_type for c in report.genuine}
        assert truth_incoherent <= found_incoherent
        truth_coherent = {
            singularize_phrase(p.data_type) for p in doc.exception_pairs if p.coherent
        }
        found_coherent = {c.denial.data_type for c in report.coherent}
        assert truth_coherent <= found_coherent


class TestDiffPolicies:
    def test_identical_versions(self, runner, small_policy_text):
        a = extract_policy(runner, small_policy_text)
        b = extract_policy(runner, small_policy_text)
        diff = diff_policies(a, b)
        assert diff.is_empty

    def test_added_practice_detected(self, runner, small_policy_text):
        a = extract_policy(runner, small_policy_text)
        b = extract_policy(
            runner, small_policy_text + "\nWe collect your shoe size.\n", company="Acme"
        )
        diff = diff_policies(a, b)
        assert any(p.data_type == "shoe size" for p in diff.added_practices)

    def test_removed_practice_detected(self, runner, small_policy_text):
        a = extract_policy(runner, small_policy_text)
        b = extract_policy(
            runner,
            small_policy_text.replace(
                "We delete your message content after 90 days.", ""
            ),
            company="Acme",
        )
        diff = diff_policies(a, b)
        assert any(p.action == "delete" for p in diff.removed_practices)

    def test_condition_change_detected(self, runner):
        a = extract_policy(
            runner, "Acme Privacy Policy.\nWe share your email with advertisers.",
            company="Acme",
        )
        b = extract_policy(
            runner,
            "Acme Privacy Policy.\nWe share your email with advertisers with your consent.",
            company="Acme",
        )
        diff = diff_policies(a, b)
        assert diff.condition_changes


class TestCoverage:
    def _graph(self):
        g = PolicyGraph("Acme")
        g.add_practices(
            [
                _practice("acme", "collect", "email"),
                _practice("acme", "retain", "email", seg="s2"),
                _practice("acme", "collect", "location", seg="s3"),
                _practice("acme", "share", "email", receiver="advertisers", seg="s4"),
                _practice(
                    "acme", "share", "location", receiver="partners",
                    condition="for legitimate business purposes", seg="s5",
                ),
            ]
        )
        return g

    def test_retention_gap_found(self):
        report = coverage_report(self._graph())
        assert "location" in report.collection_without_retention
        assert "email" not in report.collection_without_retention

    def test_unconditional_sharing_flagged(self):
        report = coverage_report(self._graph())
        assert any("email" in desc for desc in report.unconditional_sharing)

    def test_vague_counts(self):
        report = coverage_report(self._graph())
        assert report.vague_term_counts.get("legitimate_business_purpose", 0) >= 1

    def test_fractions_bounded(self):
        report = coverage_report(self._graph())
        assert 0.0 <= report.conditional_edge_fraction <= 1.0
        assert 0.0 <= report.vague_edge_fraction <= 1.0

    def test_empty_graph(self):
        report = coverage_report(PolicyGraph("Acme"))
        assert report.summary()["collected_data_types"] == 0


class TestRendering:
    def test_render_contradictions(self):
        practices = [
            _practice("acme", "share", "location", permission=False),
            _practice("acme", "share", "location", receiver="third parties", seg="s2"),
        ]
        text = render_contradictions(find_contradictions(practices))
        assert "apparent contradictions: 1" in text
        assert "genuine contradictions needing review:" in text

    def test_render_coverage(self):
        text = render_coverage(coverage_report(PolicyGraph("Acme")))
        assert text.startswith("coverage report:")

    def test_render_diff(self, runner, small_policy_text):
        a = extract_policy(runner, small_policy_text)
        diff = diff_policies(a, a)
        assert "policy diff:" in render_diff(diff)
