"""Policy segmentation with content-hash identifiers.

Each policy statement becomes a :class:`Segment` whose id is a hash of its
normalized content.  Hash-stable ids are what make incremental updates
possible: when a policy changes, unchanged statements keep their ids, so
their cached extractions (and the graph edges derived from them) are
reused, and only modified statements are re-extracted.
"""

from __future__ import annotations

import hashlib
import re
from collections.abc import Mapping
from dataclasses import dataclass

from repro.nlp.tokenizer import sentences

_HEADING_RE = re.compile(r"^\d+\.\s+[A-Z][A-Za-z ,/&-]+$")
_MIN_SEGMENT_WORDS = 3


@dataclass(frozen=True, slots=True)
class Segment:
    """One policy statement with a stable content-derived identifier."""

    segment_id: str
    text: str
    index: int
    section: str = ""

    @staticmethod
    def compute_id(text: str) -> str:
        """Content hash of normalized text (whitespace-insensitive)."""
        normalized = " ".join(text.split()).lower()
        return hashlib.sha256(normalized.encode("utf-8")).hexdigest()[:16]


#: One line's statement units: ``(segment_id, sentence, end)`` for each of
#: its sentences of at least three words, in order, where ``end`` is the
#: offset in the stripped line just past the sentence.  Units depend on the
#: line's text alone, never on where the line stands.
LineUnits = tuple[tuple[str, str, int], ...]


def segment_policy(
    text: str,
    previous: Mapping[str, LineUnits] | None = None,
    splits: dict[str, LineUnits] | None = None,
) -> list[Segment]:
    """Split a policy into statement segments.

    Sentences under a numbered heading inherit that heading as their
    section label.  Headings themselves and fragments shorter than
    three words are dropped — they carry no data practices.  A sentence
    whose id an earlier one already took is dropped too.

    ``previous`` is an earlier revision's ``splits``, so that an edit
    costs the sentence splitter and the hash only for the text it
    changed: a line found there keeps its units without being split
    again, a changed line keeps the units of the text it shares with an
    old line at either end (:class:`_LineSplitter`), and a re-split
    sentence takes its id from there when the same sentence had one.
    Section labels, indices and duplicate dropping are worked out afresh
    on every call, since they depend on position.  When ``splits`` is
    given, it receives this text's units for every non-heading line.
    The result is ``segment_policy(text)`` either way.
    """
    segments: list[Segment] = []
    current_section = ""
    seen_ids: set[str] = set()
    splitter = _LineSplitter(previous or {})
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped:
            continue
        units = splitter.reuse(stripped)  # only non-heading lines are there
        if units is None:
            if _HEADING_RE.match(stripped):
                current_section = stripped.split(". ", 1)[-1]
                continue
            units = splitter.split(stripped)
        if splits is not None:
            splits[stripped] = units
        for seg_id, sentence, _end in units:
            if seg_id in seen_ids:
                continue  # exact duplicates collapse to one segment
            seen_ids.add(seg_id)
            segments.append(Segment(seg_id, sentence, len(segments), current_section))
    return segments


class _LineSplitter:
    """Splits lines into units, reusing an earlier revision's where exact.

    The sentence splitter decides each ``.``/``!``/``?`` from its
    neighbours alone: the word run before it, the character after it and
    the closing punctuation that follows.  So a changed line pairs with
    the next old line after the last one found unchanged, and keeps the
    old units whose boundaries the text the two lines share decides:
    those ending inside the common prefix, and those after a boundary
    whose neighbours lie inside the common suffix.  Only the text between
    is split again.  A bad pairing costs time, never correctness.
    """

    def __init__(self, previous: Mapping[str, LineUnits]) -> None:
        self._previous = previous
        self._old_lines = list(previous)
        self._position = {line: i for i, line in enumerate(self._old_lines)}
        self._cursor = 0  # the old line after the last one found unchanged
        self._ids: dict[str, str] | None = None  # sentence -> id, from previous

    def reuse(self, line: str) -> LineUnits | None:
        """The previous units of ``line`` if it is unchanged, else None."""
        units = self._previous.get(line)
        if units is not None:
            self._cursor = self._position[line] + 1
        return units

    def split(self, line: str) -> LineUnits:
        """Units of a line not in the previous revision."""
        if self._cursor >= len(self._old_lines):
            return self._resplit(line, 0, len(line))
        old = self._old_lines[self._cursor]
        self._cursor += 1
        old_units = self._previous[old]
        prefix = _common_prefix(old, line)
        suffix = min(
            _common_prefix(old[::-1], line[::-1]), min(len(old), len(line)) - prefix
        )
        # Head: units ending inside the common prefix, up to the last one
        # followed by a character that stops the splitter's backward
        # abbreviation scan, so the re-split part cannot see past its start.
        head, start = 0, 0
        for k, (_id, _sentence, end) in enumerate(old_units):
            if end >= prefix:
                break
            if not _continues_word(old[end]):
                head, start = k + 1, end
        # Tail: units after the first old boundary whose terminator comes
        # after a word-run stop inside the common suffix.
        shift = len(old) - len(line)
        tail, stop = len(old_units), len(line)
        word_stop = len(line) - suffix
        while word_stop < len(line) and _continues_word(line[word_stop]):
            word_stop += 1
        for k in range(head, len(old_units)):
            end = old_units[k][2]
            if end == len(old):
                break  # the last sentence may end the line with no terminator
            terminator = end - 1  # back over the closing punctuation
            while old[terminator] not in ".!?":
                terminator -= 1
            if terminator - shift > word_stop:
                tail, stop = k + 1, end - shift
                break
        return (
            old_units[:head]
            + self._resplit(line, start, stop)
            + tuple((seg_id, text, end - shift) for seg_id, text, end in old_units[tail:])
        )

    def _resplit(self, line: str, start: int, stop: int) -> LineUnits:
        """Units of ``line[start:stop]``, which starts and ends at boundaries."""
        if self._ids is None:
            self._ids = {
                sentence: seg_id
                for units in self._previous.values()
                for seg_id, sentence, _end in units
            }
        units: list[tuple[str, str, int]] = []
        end = start
        for sentence in sentences(line[start:stop]):
            # Only whitespace precedes a sentence within its span.
            end = line.find(sentence, end) + len(sentence)
            seg_id = self._ids.get(sentence)  # a known one is long enough
            if seg_id is None:
                if len(sentence.split()) < _MIN_SEGMENT_WORDS:
                    continue
                seg_id = Segment.compute_id(sentence)
            units.append((seg_id, sentence, end))
        return tuple(units)


def _continues_word(char: str) -> bool:
    """Does the splitter's backward abbreviation scan run over ``char``?"""
    return char.isalnum() or char == "."


def _common_prefix(a: str, b: str) -> int:
    """Length of the longest common prefix of ``a`` and ``b``."""
    low, high = 0, min(len(a), len(b))
    while low < high:
        mid = (low + high + 1) // 2
        if a[:mid] == b[:mid]:
            low = mid
        else:
            high = mid - 1
    return low


@dataclass(frozen=True, slots=True)
class SegmentDiff:
    """Difference between two segmentations, keyed by content id."""

    added: tuple[Segment, ...]
    removed: tuple[Segment, ...]
    unchanged: tuple[Segment, ...]

    @property
    def reuse_fraction(self) -> float:
        total = len(self.added) + len(self.unchanged)
        if total == 0:
            return 1.0
        return len(self.unchanged) / total


def diff_segments(old: list[Segment], new: list[Segment]) -> SegmentDiff:
    """Diff two segment lists by content id.

    "Unchanged" segments are those present in both versions — their cached
    extractions remain valid even if they moved within the document.
    """
    old_ids = {s.segment_id for s in old}
    new_ids = {s.segment_id for s in new}
    return SegmentDiff(
        added=tuple(s for s in new if s.segment_id not in old_ids),
        removed=tuple(s for s in old if s.segment_id not in new_ids),
        unchanged=tuple(s for s in new if s.segment_id in old_ids),
    )
