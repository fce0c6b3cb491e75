import pytest

from perfbench.stats import (
    MIN_TAIL,
    InsufficientSamples,
    beta_cdf,
    min_samples_for,
    percentile,
    percentile_rank,
)


def test_nearest_rank():
    assert percentile_rank(100, 50) == 50
    assert percentile_rank(100, 95) == 95
    assert percentile_rank(200, 95) == 190
    assert percentile_rank(201, 95) == 191  # ceil(190.95)
    assert percentile_rank(1, 50) == 1


def test_percentile_is_the_harrell_davis_estimate():
    samples = [float(i) for i in range(1, 201)]
    shuffled = samples[::2] + samples[1::2]
    # On evenly spaced samples it sits at the interpolated quantile.
    assert percentile(shuffled, 50) == pytest.approx(100.5, abs=1e-6)
    assert percentile(shuffled, 95) == pytest.approx(0.95 * 200 + 0.5, abs=1e-6)
    assert percentile([7.0] * 50, 50) == pytest.approx(7.0)


def test_percentile_moves_smoothly_across_a_step():
    # Two steps of ten copies: nearest rank would jump from 1 to 2 at the
    # edge; the estimate sits halfway.
    assert percentile([1.0] * 10 + [2.0] * 10, 50) == pytest.approx(1.5)
    low = percentile([1.0] * 11 + [2.0] * 9, 50)
    assert 1.0 < low < 1.5


def test_matches_scipy_where_available():
    mstats = pytest.importorskip("scipy.stats.mstats")
    import random

    rng = random.Random(5)
    samples = [rng.lognormvariate(0, 1) for _ in range(300)]
    expected = mstats.hdquantiles(samples, prob=[0.5, 0.95])
    assert percentile(samples, 50) == pytest.approx(float(expected[0]), rel=1e-9)
    assert percentile(samples, 95) == pytest.approx(float(expected[1]), rel=1e-9)


def test_beta_cdf():
    assert beta_cdf(2.0, 3.0, 0.0) == 0.0 and beta_cdf(2.0, 3.0, 1.0) == 1.0
    # I_x(1, 1) = x; I_x(2, 2) = 3x^2 - 2x^3.
    assert beta_cdf(1.0, 1.0, 0.3) == pytest.approx(0.3)
    assert beta_cdf(2.0, 2.0, 0.4) == pytest.approx(3 * 0.16 - 2 * 0.064)


def test_refuses_a_thin_tail():
    with pytest.raises(InsufficientSamples):
        percentile(range(199), 95)  # rank 190 of 199: nine beyond
    percentile(range(200), 95)  # exactly ten beyond
    with pytest.raises(InsufficientSamples):
        percentile(range(19), 50)
    percentile(range(20), 50)


def test_min_samples_matches_refusal():
    for q in (50, 90, 95, 99):
        n = min_samples_for(q)
        assert n - percentile_rank(n, q) >= MIN_TAIL
        assert (n - 1) - percentile_rank(n - 1, q) < MIN_TAIL
    assert min_samples_for(95) == 200


def test_empty_and_bad_quantile():
    with pytest.raises(InsufficientSamples):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile_rank(10, 100)

