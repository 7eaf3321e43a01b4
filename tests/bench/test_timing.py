"""The one bench timer: round-robin order, repeat count, median and IQR."""

from __future__ import annotations

import itertools

import pytest

from repro.bench import timing
from repro.bench.timing import REPEATS, Timing, interleaved, stats


@pytest.fixture()
def ticks(monkeypatch):
    """A fake clock that advances one second per reading."""
    counter = itertools.count()
    monkeypatch.setattr(timing, "clock", lambda: float(next(counter)))


def _case(name: str, log: list):
    def prepare():
        log.append(("prepare", name))

        def run():
            log.append(("run", name))
            return name

        return run

    return prepare


class TestInterleaved:
    def test_round_robin_order_and_repeat_count(self, ticks):
        log: list = []
        interleaved({k: _case(k, log) for k in ("a", "b", "c")})
        one_round = [(step, k) for k in "abc" for step in ("prepare", "run")]
        assert log == one_round * REPEATS

    def test_samples_and_outputs_per_case(self, ticks):
        out = interleaved({k: _case(k, []) for k in ("x", "y")})
        assert list(out) == ["x", "y"]
        for key, t in out.items():
            assert isinstance(t, Timing)
            assert len(t.samples) == REPEATS
            # Two clock readings bracket each run: exactly one fake second.
            assert t.samples == (1.0,) * REPEATS
            assert t.outputs == (key,) * REPEATS

    def test_prepare_is_untimed(self, monkeypatch):
        now = [0.0]
        monkeypatch.setattr(timing, "clock", lambda: now[0])

        def prepare():
            now[0] += 100.0  # setup cost must not land in the sample

            def run():
                now[0] += 2.0

            return run

        assert interleaved({"k": prepare})["k"].samples == (2.0,) * REPEATS

    def test_repeats_is_a_fixed_odd_constant(self):
        assert isinstance(REPEATS, int) and REPEATS >= 3 and REPEATS % 2 == 1


class TestStats:
    def test_median_and_iqr_on_known_samples(self):
        assert stats("wall_s", [5.0, 1.0, 4.0, 2.0, 3.0]) == {
            "wall_s": 3.0,
            "wall_s_iqr": 2.0,
        }

    def test_iqr_ignores_one_outlier(self):
        out = stats("t", [1.0, 1.0, 1.0, 1.0, 1000.0])
        assert out == {"t": 1.0, "t_iqr": 0.0}

    def test_accepts_a_generator(self):
        out = stats("tokens_per_s", (10.0 / s for s in (1.0, 2.0, 5.0)))
        assert out["tokens_per_s"] == 5.0
        assert out["tokens_per_s_iqr"] == pytest.approx(7.5 - 3.5)
