"""Unit tests for the user-rights audit."""

import pytest

from repro.analysis.rights import RIGHT_ACTIONS, rights_report
from repro.core.graphs import PolicyGraph
from repro.core.parameters import annotate
from repro.llm.tasks import ExtractedParameters


def _practice(sender, action, data_type, condition=None, permission=True, seg="s1"):
    return annotate(
        ExtractedParameters(
            sender=sender,
            receiver=None,
            subject="user",
            data_type=data_type,
            action=action,
            condition=condition,
            permission=permission,
        ),
        segment_id=seg,
    )


def _build(practices):
    graph = PolicyGraph("Acme")
    graph.add_practices(practices)
    return practices, graph


class TestRightGrants:
    def test_user_deletion_grant(self):
        practices, graph = _build(
            [_practice("user", "delete", "email")]
        )
        report = rights_report(practices, graph)
        assert "deletion" in report.rights_present
        assert report.grants[0].data_type == "email"

    def test_company_deletion_via_request_channel(self):
        practices, graph = _build(
            [_practice("acme", "delete", "email", condition="if you request deletion")]
        )
        report = rights_report(practices, graph)
        assert "deletion" in report.rights_present

    def test_company_deletion_without_channel_not_a_grant(self):
        # "We delete logs after 90 days" is retention policy, not a right.
        practices, graph = _build(
            [_practice("acme", "delete", "logs", condition="after 90 days")]
        )
        report = rights_report(practices, graph)
        assert "deletion" not in report.rights_present

    def test_denied_practice_not_a_grant(self):
        practices, graph = _build(
            [_practice("user", "delete", "email", permission=False)]
        )
        report = rights_report(practices, graph)
        assert not report.grants

    def test_absent_rights_listed(self):
        practices, graph = _build([_practice("user", "delete", "email")])
        report = rights_report(practices, graph)
        assert "portability" in report.rights_absent
        assert report.rights_present | report.rights_absent == set(RIGHT_ACTIONS)


class TestDeletionCoverage:
    def test_uncovered_collection_flagged(self):
        practices, graph = _build(
            [
                _practice("acme", "collect", "email"),
                _practice("acme", "collect", "gps location", seg="s2"),
                _practice("user", "delete", "email", seg="s3"),
            ]
        )
        report = rights_report(practices, graph)
        assert "gps location" in report.collected_without_deletion
        assert "email" not in report.collected_without_deletion

    def test_blanket_deletion_covers_everything(self):
        practices, graph = _build(
            [
                _practice("acme", "collect", "email"),
                _practice("acme", "collect", "gps location", seg="s2"),
                _practice("user", "delete", "personal information", seg="s3"),
            ]
        )
        report = rights_report(practices, graph)
        assert not report.collected_without_deletion

    def test_hierarchy_relative_counts(self):
        from repro.core.hierarchy import Taxonomy

        taxonomy = Taxonomy(root="data")
        taxonomy.add("contact information", "data")
        taxonomy.add("email", "contact information")
        graph = PolicyGraph("Acme", data_taxonomy=taxonomy)
        practices = [
            _practice("acme", "collect", "email"),
            _practice("user", "delete", "contact information", seg="s2"),
        ]
        graph.add_practices(practices)
        report = rights_report(practices, graph)
        assert "email" not in report.collected_without_deletion


class TestRendering:
    def test_render_sections(self):
        practices, graph = _build(
            [
                _practice("acme", "collect", "gps location"),
                _practice("user", "delete", "email", seg="s2"),
            ]
        )
        text = rights_report(practices, graph).render()
        assert "user rights audit:" in text
        assert "deletion" in text
        assert "no stated deletion path" in text

    def test_integration_on_bundled_policy(self, tiktak_model):
        report = rights_report(
            tiktak_model.extraction.practices, tiktak_model.graph
        )
        # The generated rights section grants at least deletion + objection.
        assert "deletion" in report.rights_present
        assert report.grants
