import pytest

from perfbench import measure


def test_nearest_rank_percentile():
    values = list(range(1, 101))  # 1..100
    assert measure.percentile(values, 50) == 50
    assert measure.percentile(values, 95) == 95
    assert measure.percentile(values, 100) == 100
    assert measure.percentile([7.0], 95) == 7.0
    assert measure.percentile([3, 1, 2], 50) == 2


def test_samples_beyond_a_percentile():
    assert measure.beyond(200, 95) == 10
    assert measure.beyond(199, 95) == 9
    assert measure.beyond(100, 50) == 50


def test_p95_needs_ten_samples_beyond_it():
    assert measure.supports(200, 95)
    assert not measure.supports(199, 95)
    with pytest.raises(ValueError):
        measure.latency_summary([0.001] * 199)
    summary = measure.latency_summary([i / 1000 for i in range(1, 201)])
    assert summary["samples"] == 200
    assert summary["p95_ms"] == pytest.approx(190.0)
    assert summary["tail_percentile"] == 95.0


def test_highest_supported_tail_grows_with_the_sample():
    assert measure.highest_supported(19) == 0.0
    assert measure.highest_supported(20) == 50.0
    assert measure.highest_supported(333) == 95.0
    assert measure.highest_supported(600) == 98.0
    assert measure.highest_supported(1000) == 99.0
    assert measure.highest_supported(10_000) == 99.9


def test_median_even_and_odd():
    assert measure.median([3, 1, 2]) == 2
    assert measure.median([4, 1, 3, 2]) == 2.5


def test_machine_block_has_the_honest_fields():
    block = measure.machine()
    assert {"cpu_count", "affinity", "python", "platform", "loadavg"} <= set(block)
    assert len(block["loadavg"]) == 3
