"""Clause-level patterns for data-practice statements.

Privacy-policy sentences follow a small number of clause shapes:

* ``[If/When <condition>,] <sender> <verb(s)> <data> [with/to <receiver>]
  [for <purpose>] [condition-tail]``
* enumerated continuations ("Account and profile information, such as ...")

:func:`split_conditions` separates the main clause from conditional and
purpose clauses; :func:`find_main_verbs` locates coordinated action verbs
("access and collect" yields both); :func:`find_receiver` resolves the
"with/to <entity>" complement of sharing verbs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.nlp.lexicon import (
    ACTION_VERBS,
    CONDITION_OPENERS,
    ENTITY_TERMS,
    PURPOSE_OPENERS,
    SHARING_VERBS,
)
from repro.nlp.morphology import lemmatize_verb
from repro.nlp.tokenizer import tokenize


@dataclass(slots=True)
class ClauseSplit:
    """A sentence decomposed into a main clause and auxiliary clauses."""

    main: str
    conditions: list[str] = field(default_factory=list)
    purposes: list[str] = field(default_factory=list)


def _lower(text: str) -> str:
    return text.lower()


_SUBJECT_STARTERS = frozenset({"you", "we", "user", "users", "they", "it", "this"})
_MODALS = frozenset({"may", "will", "can", "might", "must", "shall", "would", "could", "do", "does"})


def _main_clause_boundary(text: str) -> int:
    """Index of the comma where a leading subordinate clause ends.

    The clause may itself contain commas ("When you create an account,
    upload content, or use the Platform, you may provide ..."), so we take
    the first comma that is followed by the start of an independent clause:
    a subject pronoun, a capitalized name, or an entity, with a verb or
    modal within the next few tokens.  Returns -1 when no boundary exists.
    """
    offset = 0
    while True:
        comma = text.find(",", offset)
        if comma < 0:
            return -1
        following = tokenize(text[comma + 1 : comma + 80])
        word_tokens = [t for t in following if t.is_word][:4]
        if word_tokens:
            first = word_tokens[0]
            is_subject = (
                first.lower in _SUBJECT_STARTERS
                or (first.text[0].isupper() and lemmatize_verb(first.lower) not in ACTION_VERBS)
            )
            has_verb = any(
                t.lower in _MODALS or lemmatize_verb(t.lower) in ACTION_VERBS
                for t in word_tokens[1:]
            )
            if is_subject and has_verb:
                return comma
        offset = comma + 1


def split_conditions(sentence: str) -> ClauseSplit:
    """Separate conditional/purpose clauses from the main clause.

    Leading subordinate clauses end at the first comma; trailing ones run to
    the end of the sentence.  Purpose clauses ("in order to ...", "for the
    purposes of ...") are collected separately because the FOL encoding
    treats purposes as uninterpreted predicates rather than boolean guards.
    """
    text = sentence.strip().rstrip(".")
    conditions: list[str] = []
    purposes: list[str] = []

    # Peel leading subordinate clauses ("If you choose X, ...").
    changed = True
    while changed:
        changed = False
        lowered = _lower(text)
        for opener in CONDITION_OPENERS:
            if lowered.startswith(opener):
                comma = _main_clause_boundary(text)
                if comma > 0:
                    conditions.append(text[:comma].strip())
                    text = text[comma + 1 :].strip()
                    changed = True
                break
        lowered = _lower(text)
        for opener in PURPOSE_OPENERS:
            if lowered.startswith(opener):
                comma = _main_clause_boundary(text)
                if comma > 0:
                    purposes.append(text[:comma].strip())
                    text = text[comma + 1 :].strip()
                    changed = True
                break

    # Peel trailing subordinate clauses (search for the last opener that is
    # preceded by a comma or mid-sentence position).
    def peel_trailing(openers: tuple[str, ...], sink: list[str]) -> None:
        nonlocal text
        while True:
            lowered = _lower(text)
            best = -1
            for opener in openers:
                stem = opener.strip()
                for sep in (", " + stem, " " + stem):
                    idx = lowered.rfind(sep)
                    # The opener must start a trailing clause, not the whole
                    # sentence, and must be a whole-word match.
                    if idx <= 0:
                        continue
                    after = idx + len(sep)
                    if after < len(lowered) and lowered[after].isalnum():
                        continue
                    if idx > best:
                        best = idx
            if best <= 0:
                return
            clause = text[best:].lstrip(" ,")
            remainder = text[:best].rstrip(" ,")
            # Avoid destroying the main clause: it must keep a verb.
            if not _has_action_verb(remainder):
                return
            sink.append(clause.strip())
            text = remainder

    peel_trailing(CONDITION_OPENERS, conditions)
    peel_trailing(PURPOSE_OPENERS, purposes)

    # Trailing purpose tails: "... for legitimate business purposes",
    # "... for security and fraud-prevention purposes".
    tail = _PURPOSE_TAIL_RE.search(text)
    if tail and _has_action_verb(text[: tail.start()]):
        purposes.append(tail.group(0).strip().lstrip(","))
        text = text[: tail.start()].rstrip(" ,")

    return ClauseSplit(main=text.strip(), conditions=conditions, purposes=purposes)


_PURPOSE_TAIL_RE = re.compile(
    r",?\s+for\s+(?:[\w'’-]+[ -]){0,5}purposes?$", re.IGNORECASE
)


_NOMINAL_PRECEDERS = frozenset(
    {"the", "a", "an", "your", "our", "their", "its", "this", "that", "of", "my", "his", "her"}
)


_SUBJECT_WORDS = frozenset({"user", "users", "you", "we", "they", "it", "who"})


def _is_nominal_context(previous_word: str) -> bool:
    """True when a verb candidate after ``previous_word`` is really a noun."""
    if previous_word in _SUBJECT_WORDS:
        return False  # subjects precede verbs ("the user provides ...")
    if previous_word in _NOMINAL_PRECEDERS:
        return True
    from repro.nlp.lexicon import DATA_HEAD_NOUNS, DATA_MODIFIERS

    return previous_word in DATA_MODIFIERS or previous_word in DATA_HEAD_NOUNS


def _is_modifier_use(word: str, next_word: str) -> bool:
    """True when ``word`` modifies a following data head noun."""
    from repro.nlp.lexicon import DATA_HEAD_NOUNS, DATA_MODIFIERS
    from repro.nlp.morphology import singularize_noun

    if word not in DATA_MODIFIERS:
        return False
    return (
        next_word in DATA_HEAD_NOUNS
        or singularize_noun(next_word) in DATA_HEAD_NOUNS
    )


def _has_action_verb(text: str) -> bool:
    return any(
        lemmatize_verb(tok.lower) in ACTION_VERBS
        for tok in tokenize(text)
        if tok.is_word
    )


def find_main_verbs(clause: str) -> list[tuple[int, str]]:
    """Locate action verbs in ``clause`` as (token_index, base_form) pairs.

    Coordinated verbs sharing one object ("access and collect information")
    are all returned, enabling one extracted practice per verb as in the
    paper's "access and collect" example.
    """
    tokens = tokenize(clause)
    found: list[tuple[int, str]] = []
    for i, tok in enumerate(tokens):
        if not tok.is_word:
            continue
        base = lemmatize_verb(tok.lower)
        if base not in ACTION_VERBS:
            continue
        # Skip nominal uses: a verb candidate directly preceded by a
        # determiner, possessive, or noun modifier is acting as a noun
        # ("the purchase", "your use of the platform", "phone contacts").
        if i > 0 and tokens[i - 1].is_word and _is_nominal_context(tokens[i - 1].lower):
            continue
        # A candidate acting as a noun modifier ("contact information",
        # "purchase history") is not a verb.
        if i + 1 < len(tokens) and tokens[i + 1].is_word and _is_modifier_use(
            tok.lower, tokens[i + 1].lower
        ):
            continue
        # Sentence-initial inflected forms followed by a coordinator are
        # plural nouns, not verbs ("Purchases or other transactions ...").
        if (
            not found
            and i + 1 < len(tokens)
            and tok.lower != base
            and tok.lower.endswith("s")
            and tokens[i + 1].lower in {"or", "and", ","}
        ):
            continue
        found.append((i, base))
    return found


_RECEIVER_PREP_RE = re.compile(
    r"\b(?:with|to)\s+((?:[a-z][\w'’-]*\s*){1,5})", re.IGNORECASE
)

#: Each of ENTITY_TERMS with its word-bounded pattern, compiled once and
#: ordered longest first with ties broken alphabetically: ENTITY_TERMS is a
#: set, so a bare key=len would leave equal-length ties to hash-randomized
#: iteration order, and extraction would differ across processes.
ENTITY_PATTERNS: tuple[tuple[str, re.Pattern[str]], ...] = tuple(
    (entity, re.compile(r"\b" + re.escape(entity) + r"\b"))
    for entity in sorted(ENTITY_TERMS, key=lambda e: (-len(e), e))
)


def find_receiver(clause: str) -> str | None:
    """Find the receiver of a sharing verb via its with/to complement.

    Returns the matched entity phrase (longest known entity term wins), or
    the raw complement noun phrase when no lexicon entity matches, or None
    when the clause has no sharing verb or no complement.
    """
    lowered = clause.lower()
    if not any(
        lemmatize_verb(tok.lower) in SHARING_VERBS
        for tok in tokenize(clause)
        if tok.is_word
    ):
        return None
    for entity, pattern in ENTITY_PATTERNS:
        if pattern.search(lowered):
            return entity
    match = _RECEIVER_PREP_RE.search(clause)
    if match:
        from repro.nlp.chunker import _clean_item  # local import, no cycle

        candidate = _clean_item(match.group(1).strip())
        return candidate.lower() or None
    return None
