"""The percentile reporting rule and the declared metric set."""

import json
from pathlib import Path

import pytest

from perfbench.measure import Value, _latency_values
from perfbench.spec import END_TO_END, PER_LAYER, benchmark_json
from perfbench.stats import MIN_BEYOND, InsufficientSamples, percentile


def test_p99_needs_ten_samples_beyond_it():
    with pytest.raises(InsufficientSamples):
        percentile([float(i) for i in range(999)], 0.99)
    point = percentile([float(i) for i in range(1000)], 0.99)
    assert point.samples == 1000
    assert point.beyond == MIN_BEYOND
    assert point.value == 989.0


def test_median_of_small_population_is_reported_with_its_count():
    point = percentile([3.0, 1.0, 2.0] * 7, 0.5)
    assert (point.value, point.samples) == (2.0, 21)
    with pytest.raises(InsufficientSamples):
        percentile([1.0] * 19, 0.5)
    with pytest.raises(InsufficientSamples):
        percentile([], 0.5)


def test_reported_latencies_carry_their_sample_count():
    metrics: dict[str, Value] = {}
    problems: list[str] = []
    samples = [i / 1e3 for i in range(1500)]
    _latency_values("light_rot", samples[:100], samples, metrics, problems)
    assert problems == []
    assert metrics["light_rot_p50_ms"].value == 49.0
    assert "n=100" in metrics["light_rot_p50_ms"].note
    p99 = metrics["light_rot_p99_ms"]
    assert p99.unit == "ms"
    assert p99.value == pytest.approx(1484.0)
    assert "n=1500" in p99.note and "beyond=15" in p99.note


def test_too_few_samples_fail_the_run_with_their_count():
    metrics: dict[str, Value] = {}
    problems: list[str] = []
    samples = [i / 1e3 for i in range(500)]
    _latency_values("put", samples, samples, metrics, problems)
    assert "put_p50_ms" in metrics and "put_p99_ms" not in metrics
    assert len(problems) == 1
    assert problems[0].startswith("put_p99_ms:") and "500 samples" in problems[0]


def test_benchmark_json_matches_the_declarations():
    path = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
    assert json.loads(path.read_text()) == benchmark_json()
    names = [m.name for m in END_TO_END] + [m.name for m in PER_LAYER]
    assert len(names) == len(set(names))
    assert any(m.name == "setup_s" and m.unit == "s" for m in END_TO_END)
