"""Unit tests for incomplete-disclaimer detection."""

import pytest

from repro.analysis.disclaimers import (
    find_incomplete_disclaimers,
    is_sensitive,
    render_disclaimers,
)
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


class TestIsSensitive:
    @pytest.mark.parametrize(
        "term",
        [
            "biometric identifiers",
            "health information",
            "financial information",
            "precise location",
            "faceprints",
            "medications",
        ],
    )
    def test_sensitive(self, term):
        assert is_sensitive(term)

    @pytest.mark.parametrize("term", ["email address", "username", "device model"])
    def test_not_sensitive(self, term):
        assert not is_sensitive(term)


class TestSharedButNotCollected:
    def test_gap_detected(self):
        g = PolicyGraph("Acme")
        g.add_practice(_practice("acme", "share", "browsing history", receiver="advertisers"))
        report = find_incomplete_disclaimers(g)
        assert "browsing history" in report.shared_but_not_collected

    def test_collection_closes_gap(self):
        g = PolicyGraph("Acme")
        g.add_practices(
            [
                _practice("acme", "collect", "browsing history"),
                _practice("acme", "share", "browsing history", receiver="advertisers", seg="s2"),
            ]
        )
        report = find_incomplete_disclaimers(g)
        assert "browsing history" not in report.shared_but_not_collected

    def test_hierarchy_relative_closes_gap(self):
        taxonomy = Taxonomy(root="data")
        taxonomy.add("usage data", "data")
        taxonomy.add("browsing history", "usage data")
        g = PolicyGraph("Acme", data_taxonomy=taxonomy)
        g.add_practices(
            [
                _practice("acme", "collect", "usage data"),
                _practice("acme", "share", "browsing history", receiver="advertisers", seg="s2"),
            ]
        )
        report = find_incomplete_disclaimers(g)
        assert "browsing history" not in report.shared_but_not_collected

    def test_user_provision_counts_as_collection(self):
        g = PolicyGraph("Acme")
        g.add_practices(
            [
                _practice("user", "provide", "email"),
                _practice("acme", "share", "email", receiver="partners", seg="s2"),
            ]
        )
        report = find_incomplete_disclaimers(g)
        assert "email" not in report.shared_but_not_collected


class TestSensitiveWithoutConsent:
    def test_ungated_sensitive_sharing_flagged(self):
        g = PolicyGraph("Acme")
        g.add_practice(
            _practice("acme", "share", "health information", receiver="partners")
        )
        report = find_incomplete_disclaimers(g)
        assert report.sensitive_without_consent

    def test_consent_gate_accepted(self):
        g = PolicyGraph("Acme")
        g.add_practice(
            _practice(
                "acme",
                "share",
                "health information",
                receiver="partners",
                condition="with your consent",
            )
        )
        report = find_incomplete_disclaimers(g)
        assert not report.sensitive_without_consent

    def test_opt_out_counts_as_gate(self):
        g = PolicyGraph("Acme")
        g.add_practice(
            _practice(
                "acme",
                "share",
                "precise location",
                receiver="partners",
                condition="unless you opt out in your account settings",
            )
        )
        report = find_incomplete_disclaimers(g)
        assert not report.sensitive_without_consent

    def test_non_sensitive_not_flagged(self):
        g = PolicyGraph("Acme")
        g.add_practice(_practice("acme", "share", "username", receiver="partners"))
        report = find_incomplete_disclaimers(g)
        assert not report.sensitive_without_consent

    def test_denied_practice_not_flagged(self):
        g = PolicyGraph("Acme")
        g.add_practice(
            _practice("acme", "sell", "health information", permission=False)
        )
        report = find_incomplete_disclaimers(g)
        assert not report.sensitive_without_consent


class TestExternalDependencies:
    def test_law_reference(self):
        g = PolicyGraph("Acme")
        g.add_practice(
            _practice(
                "acme",
                "disclose",
                "email",
                receiver="law enforcement",
                condition="when required by law",
            )
        )
        report = find_incomplete_disclaimers(g)
        assert "law" in report.external_dependencies

    def test_settings_reference(self):
        g = PolicyGraph("Acme")
        g.add_practice(
            _practice(
                "acme",
                "collect",
                "gps location",
                condition="if you enable this feature in your settings",
            )
        )
        report = find_incomplete_disclaimers(g)
        assert "application settings" in report.external_dependencies

    def test_conditions_deduplicated(self):
        g = PolicyGraph("Acme")
        for i, data in enumerate(("email", "username")):
            g.add_practice(
                _practice(
                    "acme",
                    "disclose",
                    data,
                    receiver="courts",
                    condition="when required by law",
                    seg=f"s{i}",
                )
            )
        report = find_incomplete_disclaimers(g)
        assert report.external_dependencies["law"] == ["when required by law"]


class TestRendering:
    def test_render_covers_sections(self):
        g = PolicyGraph("Acme")
        g.add_practices(
            [
                _practice("acme", "share", "health information", receiver="partners"),
                _practice(
                    "acme",
                    "disclose",
                    "email",
                    receiver="courts",
                    condition="when required by law",
                    seg="s2",
                ),
            ]
        )
        text = render_disclaimers(find_incomplete_disclaimers(g))
        assert "incomplete disclaimers:" in text
        assert "sensitive data practices lacking a consent gate:" in text
        assert "[law]" in text

    def test_empty_graph(self):
        report = find_incomplete_disclaimers(PolicyGraph("Acme"))
        assert report.total_findings == 0

    def test_integration_on_bundled_policy(self, tiktak_model):
        report = find_incomplete_disclaimers(tiktak_model.graph)
        # The synthetic policies deliberately contain external references.
        assert "law" in report.external_dependencies
        assert report.total_findings > 0
