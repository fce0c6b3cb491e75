"""Unit tests for sentence and word tokenization."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import meditrack_policy, metabook_policy, tiktak_policy
from repro.nlp.tokenizer import (
    Token,
    _is_abbreviation,
    _iter_sentence_spans,
    sentence_spans,
    sentences,
    tokenize,
    words,
)


class TestTokenize:
    def test_simple_words(self):
        tokens = tokenize("We collect data")
        assert [t.text for t in tokens] == ["We", "collect", "data"]

    def test_spans_match_source(self):
        text = "We collect your email."
        for token in tokenize(text):
            assert text[token.start : token.end] == token.text

    def test_punctuation_kept_as_tokens(self):
        tokens = tokenize("name, age, and email.")
        assert "," in [t.text for t in tokens]
        assert "." in [t.text for t in tokens]

    def test_hyphenated_compound_is_one_token(self):
        tokens = tokenize("voice-enabled features")
        assert tokens[0].text == "voice-enabled"

    def test_numbers_tokenized(self):
        tokens = tokenize("retained for 90 days")
        assert "90" in [t.text for t in tokens]

    def test_is_word_excludes_punctuation_and_numbers(self):
        tokens = tokenize("a, 90")
        flags = {t.text: t.is_word for t in tokens}
        assert flags["a"] is True
        assert flags[","] is False
        assert flags["90"] is False

    def test_lower_property(self):
        token = Token("Email", 0, 5)
        assert token.lower == "email"

    def test_empty_input(self):
        assert tokenize("") == []

    def test_words_helper_drops_nonwords(self):
        assert words("We collect 5 cookies.") == ["we", "collect", "cookies"]


class TestSentences:
    def test_basic_split(self):
        result = sentences("We collect data. We share data.")
        assert result == ["We collect data.", "We share data."]

    def test_abbreviation_not_split(self):
        result = sentences("We share data with partners, e.g. advertisers. We care.")
        assert len(result) == 2
        assert "e.g. advertisers" in result[0]

    def test_initials_not_split(self):
        result = sentences("We comply with U.S. federal law. We also comply abroad.")
        assert len(result) == 2

    def test_question_and_exclamation(self):
        result = sentences("Do we sell data? No! We never sell data.")
        assert len(result) == 3

    def test_newline_before_capital_splits(self):
        result = sentences("Information You Provide\nWe collect your name.")
        assert len(result) == 2

    def test_blank_line_splits(self):
        result = sentences("First block\n\nsecond block")
        assert result == ["First block", "second block"]

    def test_trailing_text_without_period(self):
        result = sentences("We collect data. We share")
        assert result[-1] == "We share"

    def test_spans_cover_content(self):
        text = "We collect data. We share data."
        for start, end in sentence_spans(text):
            assert text[start:end].strip()

    def test_closing_quote_stays_with_sentence(self):
        result = sentences('We call this "data." Next sentence here.')
        assert result[0].endswith('"')

    def test_whitespace_only(self):
        assert sentences("   \n \n") == []

    def test_decimal_not_split(self):
        assert sentences("We retain logs for 2.5 years.") == [
            "We retain logs for 2.5 years."
        ]

    def test_section_number_not_split(self):
        assert sentences("See Section 3.2 of this policy.") == [
            "See Section 3.2 of this policy."
        ]

    def test_domain_name_not_split(self):
        assert sentences("Visit www.example.com for details.") == [
            "Visit www.example.com for details."
        ]


def _reference_sentence_spans(text):
    """The character-by-character splitter the boundary scan replaced.

    Verbatim but for one rule added since: a period followed by a letter
    or digit does not end a sentence.
    """
    start = 0
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            nxt = text[i + 1 : i + 2]
            if nxt in ("\n", "-", "*", "•", "") or (
                i + 1 < n and text[i + 1].isupper()
            ):
                if text[start:i].strip():
                    yield start, i
                start = i + 1
            i += 1
            continue
        if ch in ".!?":
            if ch == "." and (
                text[i + 1 : i + 2].isalnum() or _is_abbreviation(text, i)
            ):
                i += 1
                continue
            j = i + 1
            while j < n and text[j] in ")\"'”]":
                j += 1
            if text[start:j].strip():
                yield start, j
            start = j
            i = j
            continue
        i += 1
    if text[start:].strip():
        yield start, n


class TestBoundaryScanMatchesReference:
    @settings(max_examples=500, deadline=None)
    @given(st.text(alphabet='ab .!?\n-*•A)"\'”]eg2', max_size=60))
    def test_random_strings(self, text):
        assert list(_iter_sentence_spans(text)) == list(
            _reference_sentence_spans(text)
        )

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=40))
    def test_arbitrary_unicode(self, text):
        assert list(_iter_sentence_spans(text)) == list(
            _reference_sentence_spans(text)
        )

    def test_bundled_policies_and_their_lines(self):
        for policy in (tiktak_policy(), metabook_policy(), meditrack_policy()):
            text = policy.text
            assert list(_iter_sentence_spans(text)) == list(
                _reference_sentence_spans(text)
            )
            for line in text.splitlines():
                assert list(_iter_sentence_spans(line)) == list(
                    _reference_sentence_spans(line)
                )
