"""Unit tests for the simulated LLM's task handlers."""

import json
import re

import pytest

import repro.llm.simulated
from repro.core.segmenter import segment_policy
from repro.corpus import meditrack_policy, metabook_policy, tiktak_policy
from repro.errors import LLMError
from repro.llm.simulated import (
    SimulatedLLM,
    extract_practices,
    resolve_first_person,
    terms_equivalent,
)
from repro.llm.tasks import TaskRunner
from repro.nlp.lexicon import ENTITY_TERMS


@pytest.fixture(scope="module")
def runner():
    return TaskRunner(SimulatedLLM())


class TestCompanyName:
    def test_privacy_policy_heading(self, runner):
        assert runner.extract_company_name("TikTak Privacy Policy. We care.") == "TikTak"

    def test_quoted_we_pattern(self, runner):
        text = 'Welcome! Streamly ("we", "us") values privacy.'
        assert runner.extract_company_name(text) == "Streamly"

    def test_welcome_to_pattern(self, runner):
        assert runner.extract_company_name("Welcome to Acme and its services.") == "Acme"

    def test_inc_suffix(self, runner):
        assert runner.extract_company_name("This policy covers Grobly, Inc. only.") == "Grobly"

    def test_multiword_company(self, runner):
        name = runner.extract_company_name("Blue River Privacy Policy.")
        assert name == "Blue River"

    def test_fallback_capitalized_token(self, runner):
        name = runner.extract_company_name(
            "This policy describes how Zorble handles your data."
        )
        assert name == "Zorble"


class TestCoreference:
    def test_we_replaced(self):
        assert resolve_first_person("We collect data", "Acme") == "Acme collect data"

    def test_our_becomes_possessive(self):
        assert resolve_first_person("our partners", "Acme") == "Acme's partners"

    def test_us_replaced(self):
        assert resolve_first_person("contact us", "Acme") == "contact Acme"

    def test_uppercase_us_country_untouched(self):
        resolved = resolve_first_person("stored in the US region", "Acme")
        assert "US region" in resolved

    def test_user_words_untouched(self):
        resolved = resolve_first_person("We collect your data", "Acme")
        assert "your data" in resolved

    def test_runner_interface(self, runner):
        resolved = runner.resolve_coreferences("We love our users", "Acme")
        assert resolved == "Acme love Acme's users"


class TestExtractPractices:
    def test_simple_collection(self):
        practices = extract_practices("Acme collects your email address.", "Acme")
        assert len(practices) == 1
        p = practices[0]
        assert p["sender"] == "Acme"
        assert p["action"] == "collect"
        assert p["data_type"] == "email address"
        assert p["permission"] is True

    def test_negation_sets_permission_false(self):
        practices = extract_practices(
            "Acme does not sell your personal information.", "Acme"
        )
        assert practices
        assert all(p["permission"] is False for p in practices)

    def test_not_limited_to_is_not_negation(self):
        practices = extract_practices(
            "Acme collects data including but not limited to email.", "Acme"
        )
        assert any(p["permission"] for p in practices)

    def test_enumeration_expansion(self):
        practices = extract_practices(
            "You may provide your name, age, and email address.", "Acme"
        )
        types = {p["data_type"] for p in practices}
        assert {"name", "age", "email address"} <= types

    def test_coordinated_verbs_share_object(self):
        practices = extract_practices(
            "Acme will access and collect contact information.", "Acme"
        )
        actions = {p["action"] for p in practices}
        assert actions == {"access", "collect"}

    def test_condition_attached(self):
        practices = extract_practices(
            "If you enable syncing, Acme collects your contact list.", "Acme"
        )
        conditional = [p for p in practices if p["action"] == "collect"]
        assert conditional
        assert "enable syncing" in conditional[0]["condition"]

    def test_receiver_extracted_for_sharing(self):
        practices = extract_practices(
            "Acme shares your usage information with advertisers.", "Acme"
        )
        assert practices[0]["receiver"] == "advertisers"

    def test_receiver_not_taken_from_other_clause(self):
        practices = extract_practices(
            "You use the platform and Acme collects usage information.", "Acme"
        )
        collect = [p for p in practices if p["action"] == "collect"]
        assert collect and collect[0]["receiver"] is None

    def test_receive_from_swaps_roles(self):
        practices = extract_practices(
            "Acme receives demographic information from data brokers.", "Acme"
        )
        assert practices[0]["sender"] == "data brokers"
        assert practices[0]["receiver"] == "Acme"

    def test_collect_from_device_strips_source(self):
        practices = extract_practices(
            "Acme automatically collects battery level from your device.", "Acme"
        )
        assert practices[0]["data_type"] == "battery level"

    def test_user_sender_detected(self):
        practices = extract_practices("You upload videos to the platform.", "Acme")
        assert practices[0]["sender"] == "user"

    def test_subject_always_user(self):
        practices = extract_practices("Acme collects your email.", "Acme")
        assert practices[0]["subject"] == "user"

    def test_verbless_enumeration_fallback(self):
        practices = extract_practices(
            "Account information, such as username and password.", "Acme"
        )
        assert {p["data_type"] for p in practices} >= {"username", "password"}
        assert all(p["action"] == "provide" for p in practices)

    def test_deduplication(self):
        practices = extract_practices(
            "Acme collects email. Acme collects email.", "Acme"
        )
        assert len(practices) == 1

    def test_empty_statement(self):
        assert extract_practices("", "Acme") == []

    def test_condition_clause_user_actions_extracted(self):
        practices = extract_practices(
            "When you create an account, Acme collects your email.", "Acme"
        )
        actions = {(p["sender"], p["action"]) for p in practices}
        assert ("user", "create") in actions
        assert ("Acme", "collect") in actions


class TestTermsEquivalent:
    @pytest.mark.parametrize(
        "a,b",
        [
            ("email", "email address"),
            ("email addresses", "email address"),
            ("location information", "location data"),
            ("share", "disclose"),
            ("location information", "gps location"),
            ("phone number", "telephone number"),
            ("precise location information", "location information"),
        ],
    )
    def test_equivalent_pairs(self, a, b):
        assert terms_equivalent(a, b)
        assert terms_equivalent(b, a)

    @pytest.mark.parametrize(
        "a,b",
        [
            ("email", "phone number"),
            ("password", "advertisers"),
            ("location information", "payment information"),
        ],
    )
    def test_non_equivalent_pairs(self, a, b):
        assert not terms_equivalent(a, b)

    def test_identity(self):
        assert terms_equivalent("email", "email")


class TestTaxonomyHandler:
    def test_seed_categories_proposed(self, runner):
        resp = runner.taxonomy_layer("data", ["data"], ["email", "ip address"])
        parents = dict(resp.assignments)
        assert parents["email"] == "personal data"
        assert parents["ip address"] == "technical data"

    def test_specific_parent_deferred(self, runner):
        resp = runner.taxonomy_layer(
            "data", ["data"], ["location information", "precise location information"]
        )
        terms = [t for t, _p in resp.assignments]
        assert "location information" in terms
        assert "precise location information" not in terms  # waits a layer

    def test_entity_root_uses_entity_seeds(self, runner):
        resp = runner.taxonomy_layer("entity", ["entity"], ["advertisers"])
        assert dict(resp.assignments)["advertisers"] == "commercial partner"


class TestErrorPaths:
    def test_unknown_task_raises(self):
        llm = SimulatedLLM()
        with pytest.raises(LLMError):
            llm.complete("### TASK: bogus_task\npayload")

    def test_malformed_completion_raises_llm_error(self):
        class Broken:
            def complete(self, prompt):
                return "not json"

        runner = TaskRunner(Broken())
        with pytest.raises(LLMError):
            runner.extract_company_name("Acme Privacy Policy")

    def test_completions_are_valid_json(self, runner):
        raw = SimulatedLLM().complete(
            __import__("repro.llm.prompts", fromlist=["x"]).render_extract_parameters(
                "Acme collects email.", "Acme"
            )
        )
        parsed = json.loads(raw)
        assert "practices" in parsed


def _sender_per_call(region, company):
    """``_sender_from_region`` as it was: one pattern built per entity and call."""
    lowered = region.lower()
    candidates = []
    for match in re.finditer(r"\b(?:you|your|users?)\b", lowered):
        candidates.append((match.start(), "user"))
    for match in re.finditer(re.escape(company.lower()), lowered):
        candidates.append((match.start(), company))
    for entity in ENTITY_TERMS:
        for match in re.finditer(r"\b" + re.escape(entity) + r"\b", lowered):
            candidates.append((match.start() + len(entity) - 1, entity))
    if not candidates:
        return None
    return max(candidates, key=lambda c: (c[0], len(c[1]), c[1]))[1]


def _receiver_per_call(region, company):
    """``_receiver_in_region`` as it was: the entities sorted on every call."""
    split = repro.llm.simulated._RECEIVER_SPLIT_RE.split(region, maxsplit=1)
    if len(split) != 2:
        return None, region
    data_region, complement = split
    lowered = complement.lower()
    for entity in sorted(ENTITY_TERMS, key=lambda e: (-len(e), e)):
        if re.search(r"\b" + re.escape(entity) + r"\b", lowered):
            return entity, data_region
    if re.search(r"\b(?:you|your|users?)\b", lowered):
        return "user", data_region
    if company.lower() in lowered:
        return company, data_region
    candidate = repro.llm.simulated._strip_leading_particles(complement.strip(" ,"))
    first_np = candidate.split(",")[0].strip()
    if first_np and len(first_np.split()) <= 5:
        return first_np.lower(), data_region
    return None, region


class TestCompiledEntityPatterns:
    @pytest.mark.parametrize("policy", [tiktak_policy, metabook_policy, meditrack_policy])
    def test_same_practices_as_per_call_patterns(self, policy, monkeypatch):
        doc = policy()
        statements = [
            resolve_first_person(segment.text, doc.company)
            for segment in segment_policy(doc.text)
        ]
        compiled = [extract_practices(s, doc.company) for s in statements]
        monkeypatch.setattr(repro.llm.simulated, "_sender_from_region", _sender_per_call)
        monkeypatch.setattr(repro.llm.simulated, "_receiver_in_region", _receiver_per_call)
        per_call = [extract_practices(s, doc.company) for s in statements]
        assert compiled == per_call
        assert any(compiled)
