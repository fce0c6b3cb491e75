"""Hardened LLM provider boundary: HTTP backend, cassettes, stress profiles.

The pipeline's :class:`~repro.llm.client.LLMClient` protocol was designed
to host a real completion backend; this package supplies it plus the
machinery that makes it operable:

* :class:`HTTPProvider` — env-gated stdlib HTTP backend with connection
  reuse, per-request timeouts, a structured error taxonomy
  (:class:`~repro.errors.RateLimitError` /
  :class:`~repro.errors.TransientHTTPError` /
  :class:`~repro.errors.PermanentHTTPError`), and client-side
  :class:`TokenBucket` throttling.  Never required by tier-1.
* :class:`RecordingLLM` / :class:`ReplayLLM` — content-addressed
  prompt→completion cassettes (fsync'd JSONL) that turn one real-provider
  run into a deterministic offline fixture; strict replay raises
  :class:`~repro.errors.CassetteMissError` on uncovered prompts.
* :class:`ProfiledLLM` + named :data:`PROFILES` (``flaky-429``,
  ``brownout``, ``flapping``) — deterministic, content-keyed fault and
  latency injection for end-to-end resilience stress.
* :func:`llm_stack_state` — operational introspection over a composed
  wrapper stack.
"""

from repro.providers.cassette import (
    CassetteReport,
    RecordingLLM,
    ReplayLLM,
    SkippedLine,
    cassette_line,
    load_cassette,
)
from repro.providers.http import HTTPProvider, parse_retry_after
from repro.providers.introspect import llm_stack_state
from repro.providers.profiles import (
    PROFILES,
    ProfiledLLM,
    StressProfile,
    get_profile,
)
from repro.providers.throttle import TokenBucket

__all__ = [
    "CassetteReport",
    "HTTPProvider",
    "PROFILES",
    "ProfiledLLM",
    "RecordingLLM",
    "ReplayLLM",
    "SkippedLine",
    "StressProfile",
    "TokenBucket",
    "cassette_line",
    "get_profile",
    "llm_stack_state",
    "load_cassette",
    "parse_retry_after",
]
