"""Client-side token-bucket throttling for remote completion providers.

A remote API enforces a request budget on its side with 429s; a polite
client enforces the same budget on *its* side so the 429s (mostly) never
happen.  :class:`TokenBucket` is the standard leaky-refill formulation:
``rate`` tokens accrue per second up to a ``burst`` ceiling, each request
takes one token, and a request finding the bucket empty sleeps exactly
until its token has accrued.

Both the clock and the sleep are injectable, mirroring the seams in
:class:`~repro.resilience.retry.RetryingLLM` and :mod:`repro.jobs.faults`:
tests drive the bucket through simulated time and assert the exact waits
without ever touching the wall clock.
"""

from __future__ import annotations

import threading
import time


class TokenBucket:
    """Thread-safe token bucket; ``acquire`` blocks until a token is free.

    ``rate`` is tokens (requests) per second; ``burst`` is the bucket
    capacity — how many requests may go out back-to-back after an idle
    period.  A freshly built bucket starts full.
    """

    def __init__(
        self,
        rate: float,
        burst: float = 1.0,
        *,
        clock=time.monotonic,
        sleep=time.sleep,
    ) -> None:
        if rate <= 0:
            raise ValueError("rate must be > 0 tokens/second")
        if burst < 1:
            raise ValueError("burst must be >= 1 token")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._sleep = sleep
        self._lock = threading.Lock()
        self._tokens = self.burst
        self._updated = self._clock()

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self._updated)
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._updated = now

    def acquire(self) -> float:
        """Take a token, sleeping until one accrues; returns seconds waited.

        The deficit is computed under the lock but the sleep happens
        outside it, so a stalled bucket never blocks other threads from
        computing *their* deficit — they queue up on future tokens in
        arrival order of their reservations, not on the lock.
        """
        with self._lock:
            now = self._clock()
            self._refill(now)
            self._tokens -= 1.0
            if self._tokens >= 0.0:
                return 0.0
            wait = -self._tokens / self.rate
        self._sleep(wait)
        return wait

    @property
    def available(self) -> float:
        """Current token balance (may be negative under reservation debt)."""
        with self._lock:
            self._refill(self._clock())
            return self._tokens
