"""The one wall-clock timer behind every ``repro bench`` number.

Every bench hands :func:`interleaved` its cases at once.  Each case is a
*prepare* callable: it does the untimed setup (a fresh engine, a prefilled
KV cache) and returns the callable to time.  The timer runs ``REPEATS``
rounds; each round prepares and times every case once, in the order given,
so slow drift of the host (another tenant, thermal state) lands on every
case alike instead of on whichever case ran last.  A payload reports the
median of the repeats and their interquartile range (:func:`stats`).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Iterable, Mapping

import numpy as np

__all__ = ["REPEATS", "Timing", "clock", "interleaved", "stats"]

#: Timed repeats per case.  Odd, so the median is one measured sample.
REPEATS = 5

#: The one clock of ``repro.bench`` (trace stamps read it too).
clock = perf_counter


@dataclass(frozen=True)
class Timing:
    """One case's wall times (seconds, round order) and what each run returned."""

    samples: tuple[float, ...]
    outputs: tuple[Any, ...]


def interleaved(
    cases: Mapping[Any, Callable[[], Callable[[], Any]]],
) -> dict[Any, Timing]:
    """Time every case ``REPEATS`` times, round-robin over the cases."""
    samples: dict[Any, list[float]] = {key: [] for key in cases}
    outputs: dict[Any, list[Any]] = {key: [] for key in cases}
    for _ in range(REPEATS):
        for key, prepare in cases.items():
            run = prepare()
            t0 = clock()
            out = run()
            samples[key].append(clock() - t0)
            outputs[key].append(out)
    return {
        key: Timing(tuple(samples[key]), tuple(outputs[key])) for key in cases
    }


def stats(key: str, values: Iterable[float]) -> dict[str, float]:
    """``{key: median, key_iqr: interquartile range}`` of ``values``."""
    arr = np.asarray(list(values), dtype=np.float64)
    q1, med, q3 = np.percentile(arr, [25, 50, 75])
    return {key: float(med), f"{key}_iqr": float(q3 - q1)}
