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
from repro.core.segmenter import LineUnits, Segment, segment_policy
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
    #: ``segment_policy``'s per-line units of this version, which the next
    #: update reuses.  Transient: never serialized, not compared, and
    #: empty after a snapshot load.
    line_splits: dict[str, LineUnits] = field(
        default_factory=dict, compare=False, repr=False
    )

    @property
    def num_practices(self) -> int:
        return len(self.practices)

    def practice_dicts(self) -> list[dict[str, object]]:
        """Every practice's :meth:`AnnotatedPractice.as_dict`, in order,
        each joined to its segment's position."""
        by_id = {segment.segment_id: segment for segment in self.segments}
        return [p.as_dict(by_id[p.segment_id]) for p in self.practices]


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
            the incremental-update mechanism.  A practice carries no
            position, so a reused one is valid wherever its segment moved.
        segments: ``segment_policy(policy_text)`` when the caller already
            has it (an update diffs the new segmentation before extracting);
            the caller then also sets the result's ``line_splits``.
    """
    company = company or extract_company(runner, policy_text)
    splits: dict[str, LineUnits] = {}
    if segments is None:
        segments = segment_policy(policy_text, splits=splits)
    result = ExtractionResult(company=company, segments=segments, line_splits=splits)
    cached = cached or {}
    for segment in segments:
        reused = cached.get(segment.segment_id)
        if reused is not None:
            # A copy: a rebuilding update leaves the old model live.
            practices = list(reused)
        else:
            practices = extract_segment(runner, segment, company)
        result.practices_by_segment[segment.segment_id] = practices
        result.practices.extend(practices)
    return result
