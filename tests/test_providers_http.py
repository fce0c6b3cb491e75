"""HTTP provider: error taxonomy, throttling, env gating, transports.

Everything runs against in-process fake transports — the autouse network
guard in conftest.py guarantees nothing here (or anywhere in tier-1)
reaches a real network.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import (
    PermanentHTTPError,
    ProviderError,
    RateLimitError,
    TransientHTTPError,
)
from repro.llm.client import UsageStats
from repro.providers import HTTPProvider, TokenBucket, parse_retry_after
from repro.providers.http import ENV_MODEL, ENV_RPS, ENV_TIMEOUT, ENV_URL
from repro.resilience import RetryingLLM, RetryPolicy

pytestmark = pytest.mark.providers

URL = "http://provider.invalid/v1/complete"


class FakeTransport:
    """Scripted (status, headers, body) responses, one per call."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def __call__(self, url, body, headers, timeout):
        self.calls.append(
            {
                "url": url,
                "body": json.loads(body.decode("utf-8")),
                "headers": headers,
                "timeout": timeout,
            }
        )
        response = self.responses.pop(0)
        if isinstance(response, Exception):
            raise response
        status, headers, doc = response
        return status, headers, json.dumps(doc).encode("utf-8")


def ok(completion="hello"):
    return 200, {}, {"completion": completion}


class TestRetryAfterParsing:
    def test_delta_seconds(self):
        assert parse_retry_after("2.5") == 2.5
        assert parse_retry_after(" 7 ") == 7.0

    def test_garbage_and_dates_degrade_to_none(self):
        assert parse_retry_after(None) is None
        assert parse_retry_after("Wed, 21 Oct 2026 07:28:00 GMT") is None
        assert parse_retry_after("-3") is None


class TestHTTPProvider:
    def test_happy_path_and_request_shape(self):
        transport = FakeTransport([ok("the completion")])
        provider = HTTPProvider(
            URL, model="quagmire-1", api_key="sk-test", transport=transport
        )
        assert provider.complete("a prompt") == "the completion"
        call = transport.calls[0]
        assert call["url"] == URL
        assert call["body"] == {"model": "quagmire-1", "prompt": "a prompt"}
        assert call["headers"]["Authorization"] == "Bearer sk-test"
        assert call["headers"]["Content-Type"] == "application/json"
        assert call["timeout"] == provider.timeout_seconds
        assert provider.stats.provider_calls == 1

    def test_openai_style_responses_accepted(self):
        transport = FakeTransport(
            [
                (200, {}, {"choices": [{"text": "legacy"}]}),
                (200, {}, {"choices": [{"message": {"content": "chat"}}]}),
            ]
        )
        provider = HTTPProvider(URL, transport=transport)
        assert provider.complete("p1") == "legacy"
        assert provider.complete("p2") == "chat"

    def test_429_maps_to_rate_limit_with_retry_after(self):
        transport = FakeTransport([(429, {"retry-after": "1.5"}, {})])
        provider = HTTPProvider(URL, transport=transport)
        with pytest.raises(RateLimitError) as excinfo:
            provider.complete("p")
        assert excinfo.value.retry_after == 1.5
        assert excinfo.value.status == 429
        assert provider.stats.provider_rate_limited == 1

    @pytest.mark.parametrize("status", [408, 500, 502, 503])
    def test_transient_statuses(self, status):
        provider = HTTPProvider(
            URL, transport=FakeTransport([(status, {}, {"error": "x"})])
        )
        with pytest.raises(TransientHTTPError) as excinfo:
            provider.complete("p")
        assert excinfo.value.status == status

    @pytest.mark.parametrize("status", [400, 401, 403, 404, 422])
    def test_permanent_statuses(self, status):
        provider = HTTPProvider(
            URL, transport=FakeTransport([(status, {}, {"error": "x"})])
        )
        with pytest.raises(PermanentHTTPError) as excinfo:
            provider.complete("p")
        assert excinfo.value.status == status

    def test_transport_oserror_is_transient(self):
        provider = HTTPProvider(
            URL, transport=FakeTransport([ConnectionResetError("peer reset")])
        )
        with pytest.raises(TransientHTTPError):
            provider.complete("p")

    def test_unparseable_200_body_is_transient(self):
        class GarbageTransport:
            def __call__(self, url, body, headers, timeout):
                return 200, {}, b"\x00not json"

        provider = HTTPProvider(URL, transport=GarbageTransport())
        with pytest.raises(TransientHTTPError):
            provider.complete("p")

    def test_200_without_completion_field_is_transient(self):
        provider = HTTPProvider(URL, transport=FakeTransport([(200, {}, {"a": 1})]))
        with pytest.raises(TransientHTTPError):
            provider.complete("p")

    def test_taxonomy_composes_with_retry_policy(self):
        policy = RetryPolicy()
        assert policy.is_retryable(TransientHTTPError("x"))
        assert policy.is_retryable(RateLimitError("x"))
        assert not policy.is_retryable(PermanentHTTPError("x"))

    def test_retrying_llm_rescues_transient_and_refuses_permanent(self):
        transport = FakeTransport([(503, {}, {}), ok("recovered")])
        provider = HTTPProvider(URL, transport=transport)
        stats = UsageStats()
        retrying = RetryingLLM(provider, stats=stats, sleep=lambda _s: None)
        assert retrying.complete("p") == "recovered"
        assert stats.retries == 1

        transport = FakeTransport([(401, {}, {}), ok("never reached")])
        retrying = RetryingLLM(
            HTTPProvider(URL, transport=transport), sleep=lambda _s: None
        )
        with pytest.raises(PermanentHTTPError):
            retrying.complete("p")
        assert len(transport.responses) == 1  # the 200 was never consumed


class TestEnvGating:
    def test_is_configured(self):
        assert not HTTPProvider.is_configured({})
        assert HTTPProvider.is_configured({ENV_URL: URL})

    def test_from_env_without_url_raises(self):
        with pytest.raises(ProviderError):
            HTTPProvider.from_env({})

    def test_from_env_reads_all_knobs(self):
        provider = HTTPProvider.from_env(
            {
                ENV_URL: URL,
                ENV_MODEL: "m-2",
                ENV_TIMEOUT: "5.5",
                ENV_RPS: "10",
            },
            transport=FakeTransport([ok()]),
        )
        assert provider.url == URL
        assert provider.model == "m-2"
        assert provider.timeout_seconds == 5.5
        assert provider._bucket is not None

    def test_from_env_rejects_bad_numbers(self):
        with pytest.raises(ProviderError):
            HTTPProvider.from_env({ENV_URL: URL, ENV_TIMEOUT: "soon"})
        with pytest.raises(ProviderError):
            HTTPProvider.from_env({ENV_URL: URL, ENV_RPS: "fast"})


class FakeTime:
    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def clock(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


class TestTokenBucket:
    def test_burst_then_throttle(self):
        ft = FakeTime()
        bucket = TokenBucket(2.0, burst=2.0, clock=ft.clock, sleep=ft.sleep)
        assert bucket.acquire() == 0.0
        assert bucket.acquire() == 0.0
        # Bucket empty: the third request waits for one token at 2/s.
        assert bucket.acquire() == pytest.approx(0.5)
        assert ft.sleeps == [pytest.approx(0.5)]

    def test_refill_caps_at_burst(self):
        ft = FakeTime()
        bucket = TokenBucket(1.0, burst=3.0, clock=ft.clock, sleep=ft.sleep)
        for _ in range(3):
            bucket.acquire()
        ft.now += 100.0  # long idle: refills to burst, not to 100 tokens
        for _ in range(3):
            assert bucket.acquire() == 0.0
        assert bucket.acquire() == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(0.0)
        with pytest.raises(ValueError):
            TokenBucket(1.0, burst=0.5)

    def test_provider_throttles_before_sending(self):
        ft = FakeTime()
        transport = FakeTransport([ok(), ok(), ok()])
        provider = HTTPProvider(URL, requests_per_second=1.0, burst=1.0, transport=transport)
        # Swap the bucket's time sources for the fake (constructor seam is
        # rate/burst only; the bucket owns its clock).
        provider._bucket = TokenBucket(1.0, burst=1.0, clock=ft.clock, sleep=ft.sleep)
        for prompt in ("a", "b", "c"):
            provider.complete(prompt)
        assert len(ft.sleeps) == 2  # first rode the burst, rest throttled
