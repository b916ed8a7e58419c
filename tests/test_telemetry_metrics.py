"""Telemetry primitives: counters, gauges, streaming histograms, exporters."""

import math
import random
import statistics

import pytest

from repro.errors import ConfigurationError
from repro.telemetry import (
    MetricsRegistry,
    NULL_REGISTRY,
    StreamingHistogram,
    describe_metric,
    escape_label_value,
    metric_description,
    prometheus_text,
    summary_table,
)


def exact_quantile(samples, p):
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(p * len(ordered)))]


class TestCounterGauge:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total")
        counter.inc()
        counter.inc(4)
        assert registry.counter("requests_total").value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().counter("c").inc(-1)

    def test_gauge_tracks_high_water(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(3)
        gauge.set(9)
        gauge.set(2)
        assert gauge.value == 2
        assert gauge.high_water == 9

    def test_labels_distinguish_metrics(self):
        registry = MetricsRegistry()
        registry.counter("served", {"core": "0"}).inc()
        registry.counter("served", {"core": "1"}).inc(2)
        assert registry.counter("served", {"core": "0"}).value == 1
        assert registry.counter("served", {"core": "1"}).value == 2

    def test_name_collision_across_kinds_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ConfigurationError):
            registry.gauge("x")

    def test_invalid_name_rejected(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().counter("bad name!")


class TestStreamingHistogram:
    def test_exact_count_sum_min_max(self):
        histogram = StreamingHistogram("h")
        for value in (1e-5, 2e-5, 3e-5):
            histogram.record(value)
        assert histogram.count == 3
        assert histogram.mean == pytest.approx(2e-5)
        assert histogram.minimum == 1e-5
        assert histogram.maximum == 3e-5

    @pytest.mark.parametrize("distribution", ["uniform", "lognormal"])
    def test_percentiles_within_one_bucket_of_exact(self, distribution):
        rng = random.Random(7)
        if distribution == "uniform":
            samples = [rng.uniform(1e-5, 1e-3) for _ in range(20_000)]
        else:
            samples = [rng.lognormvariate(-9.0, 0.8) for _ in range(20_000)]
        histogram = StreamingHistogram("h")
        for sample in samples:
            histogram.record(sample)
        quantiles = statistics.quantiles(samples, n=1000)
        for p in (0.5, 0.95, 0.99, 0.999):
            exact = quantiles[int(p * 1000) - 1]
            estimate = histogram.percentile(p)
            # The estimate is the bucket's upper edge: at most one
            # bucket width above the exact order statistic.
            assert exact / histogram.bucket_ratio <= estimate
            assert estimate <= exact * histogram.bucket_ratio

    def test_merge_is_associative_and_exact(self):
        rng = random.Random(3)
        samples = [rng.lognormvariate(-8.0, 1.0) for _ in range(9_000)]
        thirds = [samples[0:3000], samples[3000:6000], samples[6000:9000]]
        parts = []
        for third in thirds:
            histogram = StreamingHistogram("h")
            for sample in third:
                histogram.record(sample)
            parts.append(histogram)
        whole = StreamingHistogram("h")
        for sample in samples:
            whole.record(sample)
        left = parts[0].merge(parts[1]).merge(parts[2])
        right = parts[0].merge(parts[1].merge(parts[2]))
        for merged in (left, right):
            assert merged.counts == whole.counts
            assert merged.count == whole.count
            assert merged.total == pytest.approx(whole.total)
            assert merged.minimum == whole.minimum
            assert merged.maximum == whole.maximum
        assert left.percentile(0.99) == whole.percentile(0.99)

    def test_record_many_matches_record(self):
        rng = random.Random(7)
        values = [rng.lognormvariate(-9, 2) for _ in range(2000)] + [0.0, 1e-12, 1e9]
        one, many = StreamingHistogram(), StreamingHistogram()
        for value in values:
            one.record(value)
        many.record_many(values)
        assert many.counts == one.counts
        assert many.count == one.count == len(values)
        assert many.total == pytest.approx(one.total, rel=1e-12)
        assert (many.min_seen, many.max_seen) == (one.min_seen, one.max_seen)
        many.record_many([])
        assert many.count == len(values)
        with pytest.raises(ConfigurationError):
            many.record_many([-1.0])

    def test_merge_rejects_mismatched_buckets(self):
        a = StreamingHistogram("h", buckets_per_decade=10)
        b = StreamingHistogram("h", buckets_per_decade=20)
        with pytest.raises(ConfigurationError):
            a.merge(b)

    def test_fraction_below(self):
        histogram = StreamingHistogram("h")
        rng = random.Random(11)
        samples = [rng.uniform(1e-5, 1e-3) for _ in range(10_000)]
        for sample in samples:
            histogram.record(sample)
        threshold = 5e-4
        exact = sum(1 for s in samples if s <= threshold) / len(samples)
        assert histogram.fraction_below(threshold) == pytest.approx(exact, abs=0.05)
        assert histogram.fraction_below(1.0) == 1.0
        assert histogram.fraction_below(1e-9) == 0.0

    def test_out_of_range_samples_clamp_to_edge_buckets(self):
        histogram = StreamingHistogram("h", min_value=1e-6, max_value=1.0)
        histogram.record(1e-9)  # under range
        histogram.record(50.0)  # over range
        assert histogram.count == 2
        assert histogram.counts[0] == 1
        assert histogram.counts[-1] == 1
        assert histogram.maximum == 50.0

    def test_empty_histogram_is_quiet(self):
        histogram = StreamingHistogram("h")
        assert histogram.mean == 0.0
        assert histogram.percentile(0.99) == 0.0
        assert histogram.fraction_below(1.0) == 0.0

    def test_negative_and_bad_quantile_rejected(self):
        histogram = StreamingHistogram("h")
        with pytest.raises(ConfigurationError):
            histogram.record(-1.0)
        with pytest.raises(ConfigurationError):
            histogram.percentile(1.5)

    def test_to_dict_lists_occupied_buckets_only(self):
        histogram = StreamingHistogram("h")
        histogram.record(1e-4)
        snapshot = histogram.to_dict()
        assert snapshot["count"] == 1
        assert len(snapshot["buckets"]) == 1

    def test_dict_round_trip_is_exact(self):
        rng = random.Random(5)
        histogram = StreamingHistogram("h")
        for _ in range(5_000):
            histogram.record(rng.lognormvariate(-8.0, 1.2))
        histogram.record(3e-8)   # below range
        histogram.record(500.0)  # above range
        restored = StreamingHistogram.from_dict(histogram.to_dict(), name="h")
        # Bucket keys map back to the same indices; nothing quantised.
        assert restored.counts == histogram.counts
        assert restored.count == histogram.count
        assert restored.total == histogram.total
        assert restored.minimum == histogram.minimum == 3e-8
        assert restored.maximum == histogram.maximum == 500.0
        assert restored.percentile(0.99) == histogram.percentile(0.99)

    def test_round_trip_then_merge_carries_min_max_exactly(self):
        a = StreamingHistogram("h")
        b = StreamingHistogram("h")
        a.record(2.5e-5)
        b.record(7.7e-3)
        revived_a = StreamingHistogram.from_dict(a.to_dict())
        merged = revived_a.merge(b)
        assert merged.minimum == 2.5e-5
        assert merged.maximum == 7.7e-3
        assert merged.count == 2
        # And a second round trip of the merge is still exact.
        again = StreamingHistogram.from_dict(merged.to_dict())
        assert again.minimum == 2.5e-5 and again.maximum == 7.7e-3
        assert again.counts == merged.counts

    def test_round_trip_empty_histogram(self):
        restored = StreamingHistogram.from_dict(StreamingHistogram("h").to_dict())
        assert restored.count == 0
        assert restored.minimum == 0.0 and restored.maximum == 0.0

    def test_round_trip_preserves_custom_geometry(self):
        histogram = StreamingHistogram(
            "h", min_value=1e-3, max_value=10.0, buckets_per_decade=5
        )
        histogram.record(0.5)
        restored = StreamingHistogram.from_dict(histogram.to_dict())
        assert restored.buckets_per_decade == 5
        assert restored.min_value == 1e-3
        assert restored.counts == histogram.counts


class TestNullRegistry:
    def test_records_nothing(self):
        NULL_REGISTRY.counter("c").inc()
        NULL_REGISTRY.gauge("g").set(5)
        NULL_REGISTRY.histogram("h").record(1.0)
        assert len(NULL_REGISTRY) == 0
        assert list(NULL_REGISTRY) == []
        assert NULL_REGISTRY.histogram("h").count == 0

    def test_disabled_flag(self):
        assert not NULL_REGISTRY.enabled
        assert MetricsRegistry().enabled


class TestExporters:
    def test_prometheus_text_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("ops_total").inc(7)
        registry.gauge("depth", {"core": "0"}).set(4)
        histogram = registry.histogram("rtt_seconds")
        for value in (1e-4, 2e-4, 3e-4):
            histogram.record(value)
        text = prometheus_text(registry)
        assert "# TYPE ops_total counter" in text
        assert "ops_total 7" in text
        assert 'depth{core="0"} 4' in text
        assert 'rtt_seconds{quantile="0.5"}' in text
        assert "rtt_seconds_count 3" in text
        sum_line = next(l for l in text.splitlines() if l.startswith("rtt_seconds_sum"))
        assert float(sum_line.split()[1]) == pytest.approx(6e-4)

    def test_empty_registry_exports_empty(self):
        assert prometheus_text(MetricsRegistry()) == ""
        assert "no metrics" in summary_table(MetricsRegistry())

    def test_summary_table_mentions_metrics(self):
        registry = MetricsRegistry()
        registry.counter("ops_total").inc()
        registry.histogram("rtt_seconds").record(1e-4)
        text = summary_table(registry)
        assert "ops_total" in text
        assert "rtt_seconds" in text
        assert "p99" in text

    def test_label_value_escaping(self):
        assert escape_label_value('plain') == "plain"
        assert escape_label_value('a\\b') == "a\\\\b"
        assert escape_label_value('say "hi"') == 'say \\"hi\\"'
        assert escape_label_value("two\nlines") == "two\\nlines"
        # Order matters: the backslash introduced by the quote escape
        # must not be doubled again.
        assert escape_label_value('\\"') == '\\\\\\"'

    def test_prometheus_escapes_label_values(self):
        registry = MetricsRegistry()
        registry.counter("ops_total", {"path": 'C:\\tmp\n"x"'}).inc()
        text = prometheus_text(registry)
        assert 'ops_total{path="C:\\\\tmp\\n\\"x\\""} 1' in text
        # The raw newline never reaches the exposition output.
        assert all("\n" not in line or line == "" for line in text.split("\n"))

    def test_help_lines_from_description_registry(self):
        registry = MetricsRegistry()
        registry.counter("requests_completed_total").inc()
        registry.counter("totally_undocumented_total").inc()
        text = prometheus_text(registry)
        assert (
            "# HELP requests_completed_total "
            "Requests that completed within the run horizon" in text
        )
        # HELP precedes TYPE for documented metrics; undocumented ones
        # still get their TYPE line, just no HELP.
        lines = text.splitlines()
        help_index = lines.index(
            "# HELP requests_completed_total "
            "Requests that completed within the run horizon"
        )
        assert lines[help_index + 1] == "# TYPE requests_completed_total counter"
        assert "# HELP totally_undocumented_total" not in text
        assert "# TYPE totally_undocumented_total counter" in text

    def test_help_text_escaped(self):
        describe_metric("weird_total", "line one\nline \\two")
        try:
            registry = MetricsRegistry()
            registry.counter("weird_total").inc()
            text = prometheus_text(registry)
            assert "# HELP weird_total line one\\nline \\\\two" in text
        finally:
            from repro.telemetry.metrics import METRIC_DESCRIPTIONS

            METRIC_DESCRIPTIONS.pop("weird_total", None)

    def test_describe_metric_validates_and_reads_back(self):
        with pytest.raises(ConfigurationError):
            describe_metric("bad name!", "nope")
        assert metric_description("requests_completed_total")
        assert metric_description("never_registered_total") is None

    def test_help_emitted_once_per_metric_name(self):
        registry = MetricsRegistry()
        registry.counter("requests_served_total", {"core": "0"}).inc()
        registry.counter("requests_served_total", {"core": "1"}).inc()
        text = prometheus_text(registry)
        assert text.count("# HELP requests_served_total") == 1
        assert text.count("# TYPE requests_served_total") == 1
