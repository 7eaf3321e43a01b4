"""Host-speed reference probe, the paused benchmark clock, and steal time.

The probe is a frozen mix shaped like the serving work: NumPy
quantize-like elementwise work on small activation-sized arrays, a small
float32 GEMM and a short pure-Python loop.  Its time against
:data:`REF_NOMINAL_MS` gives the host-drift correction (see
:class:`servebench.stats.HostTimeline`).  Changing the probe or the
nominal constant changes every corrected number, so both stay fixed.
"""

from __future__ import annotations

import bisect
import time

import numpy as np

from servebench.stats import HostTimeline, correction

#: Nominal probe time in ms; a host whose probe takes this long reports
#: raw and corrected numbers equal.
REF_NOMINAL_MS = 5.0
#: Probes behind the causal speed estimate that paces open-loop arrivals.
CAUSAL_PROBES = 12

_rng = np.random.default_rng(12345)
_A = _rng.standard_normal((16, 128)).astype(np.float32)
_B = _rng.standard_normal((128, 256)).astype(np.float32)


def reference_probe(reps: int = 40) -> float:
    """Run the frozen reference kernel once; returns its wall time in ms.

    Elementwise calls on 16 x 128 arrays are ~90% of it: NumPy per-call
    overhead is what the small served model spends its time on, and a
    probe dominated by a larger GEMM or by interpreter work read
    differently from one process to the next while the serving work did
    not.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(reps):
        _A @ _B
        for _ in range(8):
            y = _A * 1.5
            m = np.abs(y).max(axis=-1, keepdims=True)
            np.round(y / m * 7.0)
        for k in range(100):
            acc += k ^ i
    return (time.perf_counter() - t0) * 1e3


class BenchClock:
    """Wall clock that stops while the reference probe runs.

    Every measured time (arrivals, TTFT, gaps, makespans) is read from
    :meth:`now`, so probes interleaved between engine steps neither delay
    requests nor count as serving time.  :meth:`tau` is a causal
    host-corrected clock for pacing arrivals; :meth:`timeline` is the
    after-the-fact one the metrics use.
    """

    def __init__(self, nominal_ms: float = REF_NOMINAL_MS) -> None:
        self.nominal_ms = nominal_ms
        self._paused = 0.0
        self.probes_ms: list[float] = []
        self.probe_times: list[float] = []
        # Causal corrected clock: piecewise linear, one segment per probe.
        self._seg_t = [0.0]
        self._seg_tau = [0.0]
        self._seg_c = [1.0]

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def probe(self) -> float:
        t_bench = self.now()
        t0 = time.perf_counter()
        ms = reference_probe()
        self._paused += time.perf_counter() - t0
        self.probes_ms.append(ms)
        self.probe_times.append(t_bench)
        tau = self.tau(t_bench)
        c = correction(self.probes_ms[-CAUSAL_PROBES:], self.nominal_ms)
        self._seg_t.append(t_bench)
        self._seg_tau.append(tau)
        self._seg_c.append(c)
        return ms

    def tau(self, t: "float | None" = None) -> float:
        """Causal corrected time at bench time ``t`` (default: now)."""
        t = self.now() if t is None else t
        i = max(bisect.bisect_right(self._seg_t, t) - 1, 0)
        return self._seg_tau[i] + (t - self._seg_t[i]) * self._seg_c[i]

    def at_tau(self, tau: float) -> float:
        """Bench time at which :meth:`tau` reads ``tau`` (extrapolating
        forward at the current speed estimate)."""
        i = max(bisect.bisect_right(self._seg_tau, tau) - 1, 0)
        return self._seg_t[i] + (tau - self._seg_tau[i]) / self._seg_c[i]

    def timeline(self) -> HostTimeline:
        return HostTimeline(self.probe_times, self.probes_ms, self.nominal_ms)


def cpu_times() -> "tuple[int, int] | None":
    """``(steal, total)`` jiffies from ``/proc/stat``, or ``None``."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu":
        return None
    vals = [int(v) for v in fields[1:]]
    steal = vals[7] if len(vals) > 7 else 0
    return steal, sum(vals[:8])


def steal_frac(before, after) -> float:
    """Share of CPU time the hypervisor stole between two readings."""
    if before is None or after is None:
        return 0.0
    d_total = after[1] - before[1]
    return (after[0] - before[0]) / d_total if d_total > 0 else 0.0
