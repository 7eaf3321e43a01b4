"""Tests of the benchmark's own arithmetic (run: python -m pytest servebench)."""

from __future__ import annotations

import math

import pytest

from servebench.stats import (
    HostTimeline,
    correction,
    iqr_over_median,
    percentile,
    self_times,
    trimmed_mean,
)
from servebench.tracing import Tracer


class TestPercentileRule:
    def test_p50_needs_twenty_samples(self):
        assert percentile(range(19), 0.5) is None
        assert percentile(range(20), 0.5) == pytest.approx(9.5)

    def test_p90_needs_a_hundred(self):
        assert percentile(range(99), 0.9) is None
        assert percentile(range(100), 0.9) == pytest.approx(89.1)

    def test_p99_needs_a_thousand(self):
        assert percentile(range(999), 0.99) is None
        assert percentile(range(1000), 0.99) == pytest.approx(989.01)

    def test_interpolates_unsorted_input(self):
        vals = list(reversed(range(100)))
        assert percentile(vals, 0.5) == pytest.approx(49.5)

    def test_empty_and_bad_quantile(self):
        assert percentile([], 0.5) is None
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)


class TestCorrection:
    def test_slow_host_gives_factor_below_one(self):
        # Probes take twice nominal: times are halved, rates doubled.
        c = correction([10.0, 12.0, 11.0], nominal_ms=5.5)
        assert c == pytest.approx(0.5)

    def test_trimmed_mean_drops_one_outlier_in_ten(self):
        assert trimmed_mean([5.0] * 9 + [500.0]) == pytest.approx(5.0)
        assert correction([5.0] * 9 + [500.0], nominal_ms=5.0) == pytest.approx(1.0)

    def test_bimodal_host_gives_the_time_average(self):
        probes = [4.0] * 10 + [6.0] * 10
        assert correction(probes, nominal_ms=5.0) == pytest.approx(1.0)

    def test_rejects_no_samples(self):
        with pytest.raises(ValueError):
            correction([], nominal_ms=5.0)


class TestHostTimeline:
    def test_steady_host_scales_every_span(self):
        tl = HostTimeline([0.0, 1.0, 2.0, 3.0], [10.0] * 4, nominal_ms=5.0)
        assert tl.span(0.5, 2.5) == pytest.approx(1.0)
        # Outside the probes it extrapolates at the end factors.
        assert tl.span(-1.0, 0.0) == pytest.approx(0.5)
        assert tl.span(3.0, 5.0) == pytest.approx(1.0)

    def test_each_span_is_corrected_by_its_own_host_speed(self):
        # Slow (probe 10 ms) for t < 10, nominal (5 ms) after.
        times = [0.1 * i for i in range(201)]
        probes = [10.0 if t < 10.0 else 5.0 for t in times]
        tl = HostTimeline(times, probes, nominal_ms=5.0, half_window=1.0)
        assert tl.span(2.0, 4.0) == pytest.approx(1.0)
        assert tl.span(15.0, 17.0) == pytest.approx(2.0)
        # A whole-run factor would give both the same correction.
        assert correction(probes, 5.0) == pytest.approx(5.0 / 7.5, rel=0.05)

    def test_local_factor_averages_the_window(self):
        tl = HostTimeline([0.0, 1.0, 2.0], [4.0, 6.0, 5.0], 5.0, half_window=1.0)
        assert tl.factors == pytest.approx([1.0, 1.0, 5.0 / 5.5])

    def test_monotone_and_unsorted_input(self):
        tl = HostTimeline([2.0, 0.0, 1.0], [7.0, 3.0, 5.0], nominal_ms=5.0)
        pts = [tl(t) for t in (-1.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0)]
        assert pts == sorted(pts)

    def test_rejects_no_samples(self):
        with pytest.raises(ValueError):
            HostTimeline([], [], nominal_ms=5.0)


class TestSelfTime:
    def test_nested_children_are_subtracted(self):
        # root [0, 10] with children [1, 3] and [4, 8]; grandchild [5, 6].
        starts = [0.0, 1.0, 4.0, 5.0]
        ends = [10.0, 3.0, 8.0, 6.0]
        parents = [-1, 0, 0, 2]
        assert self_times(starts, ends, parents) == pytest.approx([4.0, 2.0, 3.0, 1.0])

    def test_overlapping_children_counted_once(self):
        out = self_times([0.0, 1.0, 2.0], [10.0, 5.0, 6.0], [-1, 0, 0])
        assert out[0] == pytest.approx(5.0)

    def test_children_clipped_to_parent(self):
        out = self_times([2.0, 0.0], [4.0, 3.0], [-1, 0])
        assert out[0] == pytest.approx(1.0)

    def test_tracer_records_parentage_and_restores(self):
        ticks = iter(range(100))
        tr = Tracer(clock=lambda: float(next(ticks)))

        class Box:
            def inner(self, n):
                return n

            def outer(self, n):
                return self.inner(n) + 1

        box = Box()
        tr.patch(box, "inner", "inner", count=lambda n: n)
        tr.patch(box, "outer", "outer")
        assert box.outer(7) == 8
        assert tr.names == ["outer", "inner"]
        assert tr.parents == [-1, 0]
        assert tr.counts == [1, 7]
        assert tr.self_times() == pytest.approx([2.0, 1.0])
        tr.restore()
        assert "inner" not in vars(box) and "outer" not in vars(box)

    def test_class_patch_restores_inherited_attribute(self):
        class Base:
            def f(self):
                return 1

        class Sub(Base):
            pass

        tr = Tracer()
        tr.patch(Sub, "f", "f")
        assert Sub().f() == 1 and tr.names == ["f"]
        tr.restore()
        assert "f" not in vars(Sub)


def test_iqr_over_median():
    assert iqr_over_median([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(
        (4.5 - 1.5) / 3.0
    )
    assert not math.isnan(iqr_over_median([2.0, 2.0, 2.0]))
