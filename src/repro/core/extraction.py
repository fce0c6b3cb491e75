"""Phase 1: per-segment semantic-parameter extraction.

Implements lines 1–10 of Algorithm 1: extract the company name from the
policy opening, resolve first-person coreferences, segment, and run the
extraction prompt per segment, tagging each result with OPP-115 categories
and vague-term annotations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.corpus.opp115 import match_categories
from repro.core.parameters import AnnotatedPractice, annotate
from repro.core.segmenter import Segment, segment_policy
from repro.errors import ExtractionError
from repro.llm.tasks import TaskRunner

_COMPANY_WINDOW = 1000


@dataclass(slots=True)
class ExtractionResult:
    """Everything Phase 1 produces for one policy version."""

    company: str
    segments: list[Segment] = field(default_factory=list)
    practices: list[AnnotatedPractice] = field(default_factory=list)
    practices_by_segment: dict[str, list[AnnotatedPractice]] = field(
        default_factory=dict
    )

    @property
    def num_practices(self) -> int:
        return len(self.practices)


def extract_company(runner: TaskRunner, policy_text: str) -> str:
    """Company name from the policy's first 1000 characters."""
    name = runner.extract_company_name(policy_text[:_COMPANY_WINDOW])
    if not name.strip():
        raise ExtractionError("empty company name extracted")
    return name.strip()


def extract_segment(
    runner: TaskRunner, segment: Segment, company: str
) -> list[AnnotatedPractice]:
    """Extract the data practices of a single segment.

    Coreference resolution runs first so the extraction prompt sees the
    company name instead of "we"/"our"; the OPP-115 match runs on the
    original text (Algorithm 1 line 8).
    """
    resolved = runner.resolve_coreferences(segment.text, company)
    categories = tuple(match_categories(segment.text))
    raw = runner.extract_parameters(resolved, company)
    return [
        annotate(
            params,
            segment_id=segment.segment_id,
            segment_index=segment.index,
            section=segment.section,
            opp115_categories=categories,
        )
        for params in raw
    ]


def extract_policy(
    runner: TaskRunner,
    policy_text: str,
    *,
    company: str | None = None,
    cached: dict[str, list[AnnotatedPractice]] | None = None,
    segments: list[Segment] | None = None,
) -> ExtractionResult:
    """Run Phase 1 over a full policy.

    Args:
        runner: the LLM task interface.
        policy_text: raw policy text.
        company: skip company extraction when already known.
        cached: previously extracted practices keyed by segment id; segments
            whose id appears here are reused without an LLM call, which is
            the incremental-update mechanism.
        segments: ``segment_policy(policy_text)`` when the caller already
            has it (an update diffs the new segmentation before extracting).
    """
    company = company or extract_company(runner, policy_text)
    if segments is None:
        segments = segment_policy(policy_text)
    result = ExtractionResult(company=company, segments=segments)
    cached = cached or {}
    for segment in segments:
        if segment.segment_id in cached:
            practices = [
                _rehome(p, segment) for p in cached[segment.segment_id]
            ]
        else:
            practices = extract_segment(runner, segment, company)
        result.practices_by_segment[segment.segment_id] = practices
        result.practices.extend(practices)
    return result


def _rehome(practice: AnnotatedPractice, segment: Segment) -> AnnotatedPractice:
    """Refresh positional provenance on a cache-reused practice."""
    if (
        practice.segment_index == segment.index
        and practice.section == segment.section
    ):
        return practice
    return AnnotatedPractice(
        params=practice.params,
        segment_id=segment.segment_id,
        segment_index=segment.index,
        section=segment.section,
        opp115_categories=practice.opp115_categories,
        vague_terms=practice.vague_terms,
    )
