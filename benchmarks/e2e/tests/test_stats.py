"""The reporting rules: percentiles, self time, shares."""

import math
import random

import numpy as np
import pytest

from benchmarks.e2e import stats
from benchmarks.e2e.layers import SpanForest


class TestPercentile:
    def test_needs_ten_samples_beyond(self):
        assert stats.samples_needed(90) == 100
        assert stats.samples_needed(99) == 1000
        with pytest.raises(stats.TooFewSamples):
            stats.percentile(list(range(99)), 90)
        with pytest.raises(stats.TooFewSamples):
            stats.percentile(list(range(999)), 99)
        stats.percentile(list(range(100)), 90)
        stats.percentile(list(range(1000)), 99)

    def test_median_needs_one_sample(self):
        assert stats.percentile([3.0], 50) == 3.0
        with pytest.raises(stats.TooFewSamples):
            stats.percentile([], 50)

    def test_lenient_mode_for_per_layer_metrics(self):
        assert stats.percentile([1.0, 2.0, 3.0], 99, strict=False) \
            == pytest.approx(np.percentile([1.0, 2.0, 3.0], 99))

    def test_matches_numpy(self):
        xs = [random.Random(7).random() for _ in range(1000)]
        for pct in (50, 90, 99):
            assert stats.percentile(xs, pct) == pytest.approx(
                np.percentile(xs, pct), rel=1e-12)

    def test_quartiles_match_statistics(self):
        xs = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 6.0, 8.0, 10.0]
        q1, q2, q3 = stats.quartiles(xs)
        import statistics

        assert [q1, q2, q3] == statistics.quantiles(xs, n=4)


class TestSelfTime:
    def test_no_children(self):
        assert stats.self_time(0.0, 5.0, []) == 5.0

    def test_nested_children(self):
        # A child inside another child covers nothing extra.
        assert stats.self_time(0.0, 10.0, [(1.0, 4.0), (2.0, 3.0)]) == 7.0

    def test_overlapping_children_count_once(self):
        assert stats.self_time(0.0, 10.0, [(1.0, 5.0), (3.0, 7.0)]) == 4.0

    def test_children_clipped_to_parent(self):
        assert stats.self_time(2.0, 6.0, [(0.0, 3.0), (5.0, 9.0)]) == 2.0

    def test_forest_partitions_root_duration(self):
        # One thread's tree: engine(0..10) > api(1..9) > runtime(2..6)
        # > machine(3..4), and hpf(6..7) under api.  Layer self times
        # add up to the root's duration.
        spans = [
            [4, 2, "machine.Machine.run", 3.0, 4.0, 1, None],
            [2, 1, "runtime.SimBackend.run_spmd", 2.0, 6.0, 1, None],
            [3, 1, "hpf.GridLayout.create", 6.0, 7.0, 1, None],
            [1, 0, "core.api.pack", 1.0, 9.0, 1, None],
            [0, None, "serve.engine.execute", 0.0, 10.0, 1, {"rids": ["o1"]}],
        ]
        forest = SpanForest(spans)
        assert [s[0] for s in forest.roots] == [0]
        parts = forest.layer_self(forest.roots[0])
        assert math.isclose(sum(parts.values()), 10.0)
        assert parts == pytest.approx({"serve.engine": 2.0, "core.api": 3.0,
                                       "runtime": 3.0, "machine": 1.0,
                                       "hpf": 1.0})


class TestShares:
    def test_add_up_to_one(self):
        rng = random.Random(3)
        for _ in range(200):
            parts = {f"l{i}": rng.random() * 1e-3 for i in range(8)}
            total = sum(parts.values()) + rng.random() * 1e-3
            sh = stats.shares(total, parts, "client")
            assert abs(math.fsum(sh.values()) - 1.0) <= 1e-9
            assert sh["client"] >= -1e-12

    def test_mean_over_requests_adds_up_to_one(self):
        rng = random.Random(5)
        per_request = []
        for _ in range(50):
            parts = {k: rng.random() for k in ("a", "b", "c")
                     if rng.random() < 0.7}
            per_request.append(
                stats.shares(sum(parts.values()) + 1.0, parts, "client"))
        mean = stats.mean_shares(per_request)
        assert abs(math.fsum(mean.values()) - 1.0) <= 1e-9

    def test_overlapping_parts_show_as_negative_residual(self):
        sh = stats.shares(1.0, {"a": 0.7, "b": 0.5}, "client")
        assert sh["client"] == pytest.approx(-0.2)

    def test_rejects_empty_total(self):
        with pytest.raises(ValueError):
            stats.shares(0.0, {"a": 0.0}, "client")
