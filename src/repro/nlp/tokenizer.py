"""Sentence and word tokenization.

The tokenizer is intentionally conservative: privacy policies are edited
prose, so a rule-based splitter with an abbreviation guard is accurate and,
unlike statistical tokenizers, fully deterministic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

# Abbreviations that end with a period but do not end a sentence.
_ABBREVIATIONS = frozenset(
    {
        "e.g",
        "i.e",
        "etc",
        "inc",
        "ltd",
        "llc",
        "corp",
        "co",
        "no",
        "vs",
        "u.s",
        "u.k",
        "eu",
        "mr",
        "mrs",
        "ms",
        "dr",
        "jr",
        "sr",
        "st",
        "art",
        "sec",
        "para",
        "approx",
    }
)

_WORD_RE = re.compile(
    r"""
    [A-Za-z][A-Za-z0-9'’\-]*   # words, contractions, hyphenated compounds
    | \d+(?:\.\d+)?            # numbers
    | [.,;:!?()\[\]"“”]        # punctuation we keep as tokens
    """,
    re.VERBOSE,
)

# Every character that can end a sentence; the splitter visits only these.
_BOUNDARY_RE = re.compile(r"[.!?\n]")
# Closing punctuation that stays with the sentence it follows.
_CLOSERS = ")\"'”]"


@dataclass(frozen=True, slots=True)
class Token:
    """A single token with its source span.

    Attributes:
        text: the surface form exactly as it appears in the input.
        start: character offset of the first character.
        end: character offset one past the last character.
    """

    text: str
    start: int
    end: int

    @property
    def lower(self) -> str:
        """Lower-cased surface form."""
        return self.text.lower()

    @property
    def is_word(self) -> bool:
        """True when the token is alphabetic (not punctuation or a number)."""
        return self.text[0].isalpha()


def tokenize(text: str) -> list[Token]:
    """Split ``text`` into word and punctuation tokens with spans."""
    return [
        Token(m.group(0), m.start(), m.end()) for m in _WORD_RE.finditer(text)
    ]


def words(text: str) -> list[str]:
    """Lower-cased word tokens only (punctuation and numbers dropped)."""
    return [t.lower for t in tokenize(text) if t.is_word]


def _is_abbreviation(text: str, dot_index: int) -> bool:
    """True when the period at ``dot_index`` terminates an abbreviation."""
    j = dot_index - 1
    while j >= 0 and (text[j].isalnum() or text[j] == "."):
        j -= 1
    candidate = text[j + 1 : dot_index].lower().rstrip(".")
    if not candidate:
        return False
    if candidate in _ABBREVIATIONS:
        return True
    # Single letters ("U.S. federal law") are initials, not sentence ends.
    return len(candidate) == 1 and candidate.isalpha()


def _iter_sentence_spans(text: str) -> Iterator[tuple[int, int]]:
    """Yield (start, end) spans of sentences within ``text``.

    Only ``.``, ``!``, ``?`` and newlines can end a sentence, so the scan
    jumps from one such candidate to the next with a compiled search and
    decides each candidate on its neighbours; the text between candidates
    is never visited character by character.
    """
    start = 0
    n = len(text)
    search = _BOUNDARY_RE.search
    match = search(text)
    while match is not None:
        i = match.start()
        ch = text[i]
        if ch == "\n":
            # Blank lines and bullet-style line breaks end a sentence: policy
            # documents use lists heavily and list items rarely carry final
            # punctuation.
            nxt = text[i + 1 : i + 2]
            if nxt in ("\n", "-", "*", "•", "") or nxt.isupper():
                if text[start:i].strip():
                    yield start, i
                start = i + 1
            match = search(text, i + 1)
            continue
        if ch == "." and (
            # A period inside a token ("2.5", "3.2", "www.example.com")
            # or closing an abbreviation does not end the sentence.
            text[i + 1 : i + 2].isalnum() or _is_abbreviation(text, i)
        ):
            match = search(text, i + 1)
            continue
        # Consume trailing closing punctuation after the terminator.
        j = i + 1
        while j < n and text[j] in _CLOSERS:
            j += 1
        if text[start:j].strip():
            yield start, j
        start = j
        match = search(text, j)
    if text[start:].strip():
        yield start, n


def sentences(text: str) -> list[str]:
    """Split ``text`` into sentences, stripping surrounding whitespace."""
    return [text[a:b].strip() for a, b in _iter_sentence_spans(text)]


def sentence_spans(text: str) -> list[tuple[int, int]]:
    """Sentence spans as (start, end) character offsets into ``text``."""
    return list(_iter_sentence_spans(text))
