"""Latency reservoir suite: determinism, quantile bounds, worker merges.

The :class:`~repro.core.metrics.LatencyReservoir` is the serving
daemon's SLO instrument, so its contract is checked the way the LRU's
is — against a pure-Python reference.  The sketch must be a function of
the sample *multiset* alone (arrival order, thread interleaving, and
merge order must all be invisible), quantiles must stay within the
documented one-bucket relative error of the exact rank statistic, and a
merge of per-worker reservoirs must be bucket-for-bucket identical to
one central reservoir that saw every sample.
"""

from __future__ import annotations

import math
import random
import threading

import pytest

from repro import LatencyReservoir, PipelineMetrics

# One bucket spans a factor of 2**(1/PER_OCTAVE); interpolation keeps
# any quantile within one bucket width of the exact rank statistic.
BUCKET_RATIO = 2 ** (1 / LatencyReservoir.PER_OCTAVE)


def exact_quantile(samples: list[float], q: float) -> float:
    """The rank statistic the sketch approximates: value at ceil(q*n)."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def snapshot(reservoir: LatencyReservoir) -> tuple:
    return (
        tuple(reservoir._buckets),
        reservoir.count,
        round(reservoir.sum, 12),
        reservoir.min,
        reservoir.max,
    )


class TestRecording:
    def test_exact_count_sum_min_max(self):
        r = LatencyReservoir()
        for value in (0.004, 0.100, 0.0015, 2.5):
            r.record(value)
        assert r.count == 4
        assert r.sum == pytest.approx(0.004 + 0.100 + 0.0015 + 2.5)
        assert r.min == 0.0015
        assert r.max == 2.5

    def test_empty_sketch_reports_zero(self):
        r = LatencyReservoir()
        assert r.count == 0
        assert r.p50 == 0.0 and r.p95 == 0.0 and r.p99 == 0.0
        assert r.mean == 0.0
        d = r.as_dict()
        assert d["count"] == 0 and d["min_seconds"] == 0.0

    def test_negative_and_subfloor_samples_clamp(self):
        r = LatencyReservoir()
        r.record(-1.0)  # clock skew must not corrupt the sketch
        r.record(1e-9)
        assert r.count == 2
        assert r.min == 0.0
        assert r._buckets[0] == 2

    def test_quantile_domain_validated(self):
        r = LatencyReservoir()
        with pytest.raises(ValueError):
            r.quantile(1.5)
        with pytest.raises(ValueError):
            r.quantile(-0.01)

    def test_bounded_state_independent_of_sample_count(self):
        r = LatencyReservoir()
        for i in range(10_000):
            r.record((i % 97 + 1) * 1e-4)
        assert len(r._buckets) == LatencyReservoir.BUCKETS

    def test_huge_sample_lands_in_last_bucket(self):
        r = LatencyReservoir()
        r.record(1e30)  # beyond the 12.7-day ceiling
        assert r._buckets[-1] == 1
        assert r.p99 == pytest.approx(1e30)  # clamped to the exact max


class TestDeterminism:
    def test_state_is_a_function_of_the_multiset(self):
        rng = random.Random(7)
        samples = [rng.uniform(1e-5, 5.0) for _ in range(500)]
        a, b = LatencyReservoir(), LatencyReservoir()
        for s in samples:
            a.record(s)
        for s in sorted(samples, reverse=True):
            b.record(s)
        assert snapshot(a)[0] == snapshot(b)[0]
        assert a.as_dict() == b.as_dict()

    def test_concurrent_recording_matches_serial(self):
        rng = random.Random(11)
        samples = [rng.uniform(1e-5, 1.0) for _ in range(400)]
        serial = LatencyReservoir()
        for s in samples:
            serial.record(s)

        shared = LatencyReservoir()
        chunks = [samples[i::8] for i in range(8)]
        threads = [
            threading.Thread(target=lambda c=c: [shared.record(s) for s in c])
            for c in chunks
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert snapshot(shared)[0] == snapshot(serial)[0]
        assert shared.count == serial.count


class TestQuantiles:
    def test_single_sample_all_quantiles_exact(self):
        r = LatencyReservoir()
        r.record(0.25)
        for q in (0.0, 0.5, 0.95, 0.99, 1.0):
            assert r.quantile(q) == pytest.approx(0.25)

    def test_quantiles_clamped_to_observed_extremes(self):
        r = LatencyReservoir()
        for s in (0.010, 0.011, 0.012):
            r.record(s)
        assert r.quantile(0.0) >= r.min
        assert r.quantile(1.0) <= r.max

    @pytest.mark.parametrize("q", [0.50, 0.90, 0.95, 0.99])
    def test_relative_error_bounded_by_bucket_width(self, q):
        rng = random.Random(q)
        samples = [rng.lognormvariate(-6.0, 1.5) for _ in range(2000)]
        r = LatencyReservoir()
        for s in samples:
            r.record(s)
        truth = exact_quantile(samples, q)
        approx = r.quantile(q)
        assert truth / BUCKET_RATIO <= approx <= truth * BUCKET_RATIO, (
            f"q={q}: sketch {approx:.6f} vs exact {truth:.6f} "
            f"exceeds one-bucket error"
        )

    def test_monotone_in_q(self):
        rng = random.Random(3)
        r = LatencyReservoir()
        for _ in range(300):
            r.record(rng.uniform(1e-4, 2.0))
        values = [r.quantile(q / 100) for q in range(0, 101, 5)]
        assert values == sorted(values)


class TestMerge:
    def test_merge_equals_central_reservoir(self):
        rng = random.Random(19)
        samples = [rng.uniform(1e-5, 3.0) for _ in range(600)]
        central = LatencyReservoir()
        for s in samples:
            central.record(s)

        workers = [LatencyReservoir() for _ in range(5)]
        for i, s in enumerate(samples):
            workers[i % 5].record(s)
        merged = LatencyReservoir()
        for w in workers:
            merged.merge(w)
        assert snapshot(merged) == snapshot(central)
        assert merged.as_dict() == central.as_dict()

    def test_merge_order_independent(self):
        rng = random.Random(23)
        workers = []
        for seed in range(4):
            w = LatencyReservoir()
            for _ in range(100):
                w.record(rng.uniform(1e-5, 1.0))
            workers.append(w)
        forward, backward = LatencyReservoir(), LatencyReservoir()
        for w in workers:
            forward.merge(w)
        for w in reversed(workers):
            backward.merge(w)
        assert snapshot(forward) == snapshot(backward)

    def test_merge_with_empty_is_identity(self):
        r = LatencyReservoir()
        r.record(0.02)
        before = snapshot(r)
        r.merge(LatencyReservoir())
        assert snapshot(r) == before

    def test_merge_does_not_mutate_source(self):
        a, b = LatencyReservoir(), LatencyReservoir()
        b.record(0.5)
        before = snapshot(b)
        a.merge(b)
        assert snapshot(b) == before


class TestPipelineMetricsIntegration:
    def test_latency_field_defaults_to_none_and_stays_out_of_as_dict(self):
        metrics = PipelineMetrics(queries=0)
        assert metrics.latency is None
        assert "latency" not in metrics.as_dict()

    def test_as_dict_includes_reservoir_when_present(self):
        metrics = PipelineMetrics(queries=0, latency=LatencyReservoir())
        metrics.latency.record(0.05)
        d = metrics.as_dict()
        assert d["latency"]["count"] == 1

    def test_metrics_merge_folds_reservoirs_without_aliasing(self):
        a = PipelineMetrics(queries=0, latency=LatencyReservoir())
        b = PipelineMetrics(queries=0, latency=LatencyReservoir())
        a.latency.record(0.010)
        b.latency.record(0.030)
        merged = PipelineMetrics(queries=0)
        merged.merge(a)
        merged.merge(b)
        assert merged.latency is not None
        assert merged.latency is not a.latency and merged.latency is not b.latency
        assert merged.latency.count == 2
        assert merged.latency.min == pytest.approx(0.010)
        assert merged.latency.max == pytest.approx(0.030)
        # Sources untouched by the fold.
        assert a.latency.count == 1 and b.latency.count == 1

    def test_queue_high_water_is_max_merged_not_summed(self):
        a = PipelineMetrics(queries=0, queue_high_water=3)
        b = PipelineMetrics(queries=0, queue_high_water=5)
        merged = PipelineMetrics(queries=0)
        merged.merge(a)
        merged.merge(b)
        assert merged.queue_high_water == 5

    def test_render_mentions_latency_when_present(self):
        metrics = PipelineMetrics(queries=0, latency=LatencyReservoir())
        metrics.latency.record(0.02)
        metrics.server_requests = 1
        assert "p50" in metrics.render()
