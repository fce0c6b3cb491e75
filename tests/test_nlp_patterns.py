"""Unit tests for clause-level patterns."""

from repro.nlp.patterns import (
    ClauseSplit,
    find_main_verbs,
    find_receiver,
    split_conditions,
)


class TestSplitConditions:
    def test_leading_if_clause(self):
        split = split_conditions(
            "If you enable location services, we collect gps location."
        )
        assert split.conditions == ["If you enable location services"]
        assert split.main.startswith("we collect")

    def test_leading_clause_with_internal_commas(self):
        split = split_conditions(
            "When you create an account, upload content, or use the Platform, "
            "you may provide information."
        )
        assert len(split.conditions) == 1
        assert "upload content" in split.conditions[0]
        assert split.main.startswith("you may provide")

    def test_trailing_condition(self):
        split = split_conditions(
            "We disclose personal information to law enforcement when required by law."
        )
        assert any("required by law" in c for c in split.conditions)
        assert "law enforcement" in split.main

    def test_trailing_purpose_tail(self):
        split = split_conditions(
            "We share usage data with advertisers for legitimate business purposes."
        )
        assert any("legitimate business purposes" in p for p in split.purposes)
        assert split.main.endswith("advertisers")

    def test_no_condition(self):
        split = split_conditions("We collect your email address.")
        assert split.conditions == []
        assert split.purposes == []

    def test_unless_clause(self):
        split = split_conditions(
            "We share your data with partners unless you opt out in settings."
        )
        assert any(c.lower().startswith("unless") for c in split.conditions)

    def test_returns_clause_split_type(self):
        assert isinstance(split_conditions("We collect data."), ClauseSplit)


class TestFindMainVerbs:
    def test_single_verb(self):
        verbs = find_main_verbs("We collect your email")
        assert [b for _i, b in verbs] == ["collect"]

    def test_coordinated_verbs(self):
        verbs = find_main_verbs("TikTok will access and collect information")
        assert [b for _i, b in verbs] == ["access", "collect"]

    def test_inflected_verb(self):
        verbs = find_main_verbs("TikTok shares your data")
        assert [b for _i, b in verbs] == ["share"]

    def test_nominal_use_skipped(self):
        verbs = find_main_verbs("your use of the platform helps nothing")
        assert "use" not in [b for _i, b in verbs]

    def test_noun_modifier_context_skipped(self):
        # "contacts" after "phone" is a noun, not the verb "contact".
        verbs = find_main_verbs("we read your phone contacts")
        assert "contact" not in [b for _i, b in verbs]

    def test_subject_precedes_verb(self):
        verbs = find_main_verbs("the user provides email")
        assert [b for _i, b in verbs] == ["provide"]

    def test_sentence_initial_plural_noun_skipped(self):
        verbs = find_main_verbs("Purchases or other transactions you make")
        assert [b for _i, b in verbs] == ["make"]

    def test_no_verbs(self):
        assert find_main_verbs("email address and phone number") == []


class TestFindReceiver:
    def test_known_entity(self):
        assert find_receiver("We share data with advertisers") == "advertisers"

    def test_longest_entity_wins(self):
        receiver = find_receiver("We disclose data to law enforcement agencies")
        assert receiver == "law enforcement agencies"

    def test_no_sharing_verb(self):
        assert find_receiver("We collect data about you") is None

    def test_unknown_receiver_falls_back_to_np(self):
        receiver = find_receiver("We transfer data to our parent organization")
        assert receiver is not None
