"""The benchmark's own arithmetic: percentiles, host correction, self time.

Kept free of any ``repro`` import so it can be tested on its own.
"""

from __future__ import annotations

import bisect
import math
import statistics

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_TAIL = 10


def percentile(values, q: float) -> "float | None":
    """Linear-interpolated ``q``-quantile of ``values``, or ``None``.

    ``None`` means the sample cannot support the percentile: fewer than
    :data:`MIN_TAIL` samples would lie beyond it (``n * (1 - q) < 10``),
    so p50 needs 20 samples, p90 100 and p99 1000.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q} outside [0, 1]")
    xs = sorted(values)
    n = len(xs)
    if n * (1.0 - q) + 1e-9 < MIN_TAIL:
        return None
    pos = q * (n - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def trimmed_mean(values, trim: float = 0.1) -> float:
    """Mean after dropping the lowest and highest ``trim`` share."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    k = int(len(xs) * trim)
    kept = xs[k : len(xs) - k] or xs
    return sum(kept) / len(kept)


def correction(probe_ms, nominal_ms: float) -> float:
    """Host-speed factor ``c = nominal / trimmed mean(probe times)``.

    ``c < 1`` on a host running slower than nominal: times are multiplied
    by ``c`` and rates divided by it, so both read as on a nominal host.
    The host alternates between a fast and a slow state; the work sees the
    time average of the two, which the mean tracks and the median does
    not (it picks one state).  Trimming drops one-off interruptions.
    """
    probes = list(probe_ms)
    if not probes:
        raise ValueError("no reference-probe samples")
    ref = trimmed_mean(probes)
    if ref <= 0:
        raise ValueError(f"non-positive probe time {ref}")
    return nominal_ms / ref


class HostTimeline:
    """Maps bench-clock times to host-corrected times.

    Probe ``i`` ran at bench time ``times[i]`` and took ``probe_ms[i]``.
    Its local factor ``c_i`` is :func:`correction` over the probes within
    ``half_window`` seconds of it.  Corrected time runs at the mean of the
    two neighbouring probes' factors between them, and at the first or
    last factor outside them, so a duration ``T(b) - T(a)`` is corrected
    by the host speed while it elapsed rather than by a whole-run average.
    """

    def __init__(self, times, probe_ms, nominal_ms: float, half_window: float = 1.0) -> None:
        pairs = sorted(zip(times, probe_ms))
        if not pairs:
            raise ValueError("no reference-probe samples")
        self.times = [t for t, _ in pairs]
        ms = [m for _, m in pairs]
        lo = hi = 0
        self.factors = []
        for t in self.times:
            while self.times[lo] < t - half_window:
                lo += 1
            while hi < len(self.times) and self.times[hi] <= t + half_window:
                hi += 1
            self.factors.append(correction(ms[lo:hi], nominal_ms))
        # Corrected time at each probe, integrating the piecewise rate.
        self._at = [0.0]
        for i in range(1, len(self.times)):
            rate = 0.5 * (self.factors[i - 1] + self.factors[i])
            self._at.append(self._at[-1] + (self.times[i] - self.times[i - 1]) * rate)

    def __call__(self, t: float) -> float:
        ts = self.times
        i = bisect.bisect_right(ts, t) - 1
        if i < 0:
            return (t - ts[0]) * self.factors[0]
        if i == len(ts) - 1:
            return self._at[i] + (t - ts[i]) * self.factors[i]
        rate = 0.5 * (self.factors[i] + self.factors[i + 1])
        return self._at[i] + (t - ts[i]) * rate

    def span(self, a: float, b: float) -> float:
        """Corrected length of the bench-clock interval ``[a, b]``."""
        return self(b) - self(a)


def self_times(starts, ends, parents) -> list[float]:
    """Per-span self time: duration minus the part covered by its children.

    Spans are given as parallel sequences; ``parents[i]`` is the index of
    span ``i``'s parent or ``-1``.  Children may overlap one another (the
    union is subtracted once) and are clipped to the parent's interval.
    """
    n = len(starts)
    children: dict[int, list[tuple[float, float]]] = {}
    for i in range(n):
        p = parents[i]
        if p >= 0:
            children.setdefault(p, []).append((starts[i], ends[i]))
    out = [ends[i] - starts[i] for i in range(n)]
    for p, ivs in children.items():
        lo_p, hi_p = starts[p], ends[p]
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(ivs):
            lo, hi = max(lo, lo_p), min(hi, hi_p)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[p] -= covered
    return out


def iqr_over_median(values) -> float:
    """Quartile spread as a share of the median (the stability check)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
