"""Annotated semantic parameters: the unit of Phase 1 output.

Wraps the raw seven-field extraction with segment provenance, OPP-115
category tags, and the vague terms found in the condition — the explicit
ambiguity markers that later become uninterpreted predicates.

A practice names its segment by content hash only.  Its position (index
and section heading) lives on the :class:`~repro.core.segmenter.Segment`,
so a practice reused across policy revisions stays valid however far its
segment moves; :meth:`AnnotatedPractice.as_dict` joins the two.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.segmenter import Segment
from repro.llm.tasks import ExtractedParameters
from repro.nlp.lexicon import find_vague_terms


@dataclass(frozen=True, slots=True)
class AnnotatedPractice:
    """One extracted data practice with provenance and ambiguity markers."""

    params: ExtractedParameters
    segment_id: str
    opp115_categories: tuple[str, ...] = ()
    vague_terms: tuple[tuple[str, str], ...] = ()  # (phrase, predicate name)

    @property
    def sender(self) -> str:
        return self.params.sender

    @property
    def receiver(self) -> str | None:
        return self.params.receiver

    @property
    def data_type(self) -> str:
        return self.params.data_type

    @property
    def action(self) -> str:
        return self.params.action

    @property
    def condition(self) -> str | None:
        return self.params.condition

    @property
    def permission(self) -> bool:
        return self.params.permission

    @property
    def is_conditional(self) -> bool:
        return self.params.condition is not None

    @property
    def has_vague_condition(self) -> bool:
        return bool(self.vague_terms)

    def as_dict(self, segment: Segment) -> dict[str, object]:
        """JSON form, positioned by ``segment``, the segment it came from."""
        return {
            **self.params.as_dict(),
            "segment_id": self.segment_id,
            "segment_index": segment.index,
            "section": segment.section,
            "opp115_categories": list(self.opp115_categories),
            "vague_terms": [list(v) for v in self.vague_terms],
        }


def annotate(
    params: ExtractedParameters,
    *,
    segment_id: str,
    opp115_categories: tuple[str, ...] = (),
) -> AnnotatedPractice:
    """Attach provenance and vague-term annotations to raw parameters."""
    vague: tuple[tuple[str, str], ...] = ()
    if params.condition:
        vague = tuple(find_vague_terms(params.condition))
    return AnnotatedPractice(
        params=params,
        segment_id=segment_id,
        opp115_categories=opp115_categories,
        vague_terms=vague,
    )
