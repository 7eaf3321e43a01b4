"""Numerical guardrails for the offline quantization pipeline.

The Atom recipe is a long open-loop computation: calibration capture, channel
reordering, per-layer GPTQ.  Several well-known hazards can silently poison
its outputs — NaN/Inf calibration activations propagate into Hessians and
scales, all-zero channels produce zero (or subnormal) group scales whose
reciprocals explode, and an ill-conditioned Hessian makes the GPTQ Cholesky
factorization fail or emit garbage (the original GPTQ paper already dampens
the Hessian diagonal for exactly this reason).

This module is the shared vocabulary for detecting and reporting those
hazards:

- :class:`GuardEvent` — one typed diagnostic (kind, location, detail).
- :class:`QuantHealthReport` — the per-run accumulator.  Every fallback the
  pipeline takes (escalated Hessian damping, per-column RTN instead of GPTQ,
  clamped degenerate scales, sanitized non-finite inputs) is recorded here so
  a run that *recovered* is distinguishable from a run that was clean.
- :class:`NumericalError` — the typed error strict mode raises instead of
  recording a **fatal** event (non-finite data).  CI runs strict
  (``ATOM_REPRO_STRICT_GUARDS=1``) so silent NaN propagation becomes a hard
  test failure; production/offline runs default to record-and-recover.

Guard kinds
-----------
``nonfinite_input``     NaN/Inf in data entering a quantizer (calibration
                        activations, weights, Hessians).  Fatal in strict
                        mode; sanitized to zero otherwise (recorded).
``nonfinite_output``    NaN/Inf in emitted codes/scales.  Fatal in strict
                        mode; triggers the RTN fallback in GPTQ otherwise.
``degenerate_scale``    zero/subnormal scale from an all-zero or constant
                        channel group, clamped to the epsilon floor.  Never
                        fatal: the clamp round-trips zeros exactly.
``dead_channels``       zero Hessian diagonal entries (channels never
                        activated during calibration); handled by unit
                        curvature, recorded for visibility.
``hessian_damping``     Cholesky needed more damping than the configured
                        ``percdamp`` (escalation ladder 1e-2 -> 1e-1 -> 1.0
                        of the mean diagonal).
``rtn_fallback``        GPTQ could not produce a finite factorization (or
                        finite outputs) at any damping level; the layer fell
                        back to per-column round-to-nearest.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "NumericalError",
    "GuardEvent",
    "QuantHealthReport",
    "FATAL_KINDS",
    "FALLBACK_KINDS",
    "DEGENERATE_SCALE_EPS",
    "strict_mode_default",
    "check_finite",
    "count_degenerate_scales",
]

#: Scales at or below this floor are considered degenerate (matches the
#: epsilon clamp of the weight slice scales in :mod:`repro.core.gptq` and
#: of the activation quantizer in :mod:`repro.core.linear`, so
#: "degenerate" == "the clamp actually fired").
DEGENERATE_SCALE_EPS = 1e-12

#: Event kinds that raise :class:`NumericalError` in strict mode.
FATAL_KINDS = frozenset({"nonfinite_input", "nonfinite_output"})

#: Event kinds that represent a recovery path taken instead of the default
#: algorithm (enumerated by the no-NaN acceptance suite).
FALLBACK_KINDS = frozenset({"hessian_damping", "rtn_fallback"})

_VALID_KINDS = frozenset(
    {
        "nonfinite_input",
        "nonfinite_output",
        "degenerate_scale",
        "dead_channels",
        "hessian_damping",
        "rtn_fallback",
    }
)


class NumericalError(ValueError):
    """A fatal numerical hazard detected while guards run in strict mode."""


def strict_mode_default() -> bool:
    """Process-wide strict default: ``ATOM_REPRO_STRICT_GUARDS`` truthy."""
    return os.environ.get("ATOM_REPRO_STRICT_GUARDS", "").lower() in (
        "1",
        "true",
        "yes",
        "on",
    )


@dataclass(frozen=True)
class GuardEvent:
    """One diagnostic: what happened (``kind``), where, and how much."""

    kind: str
    where: str
    detail: str = ""
    count: int = 1
    value: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _VALID_KINDS:
            raise ValueError(f"unknown guard kind {self.kind!r}")

    def describe(self) -> str:
        parts = [f"{self.kind} @ {self.where}"]
        if self.detail:
            parts.append(self.detail)
        if self.count != 1:
            parts.append(f"x{self.count}")
        return ": ".join(parts[:2]) + ("" if self.count == 1 else f" (x{self.count})")


@dataclass
class QuantHealthReport:
    """Accumulates guard events for one quantization run.

    ``strict=True`` turns fatal kinds into :class:`NumericalError` at the
    point of detection; everything else is always record-only.
    """

    strict: bool = False
    events: list[GuardEvent] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    def record(
        self,
        kind: str,
        where: str,
        detail: str = "",
        *,
        count: int = 1,
        value: float = 0.0,
    ) -> GuardEvent:
        ev = GuardEvent(kind=kind, where=where, detail=detail, count=count, value=value)
        self.events.append(ev)
        if self.strict and kind in FATAL_KINDS:
            raise NumericalError(ev.describe())
        return ev

    # ------------------------------------------------------------------ #
    def by_kind(self, kind: str) -> list[GuardEvent]:
        return [e for e in self.events if e.kind == kind]

    @property
    def fallbacks(self) -> list[GuardEvent]:
        """Every recovery path taken (damping escalations, RTN fallbacks)."""
        return [e for e in self.events if e.kind in FALLBACK_KINDS]

    @property
    def fatal(self) -> list[GuardEvent]:
        return [e for e in self.events if e.kind in FATAL_KINDS]

    @property
    def ok(self) -> bool:
        """True when no fatal (non-finite) hazard was observed."""
        return not self.fatal

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for e in self.events:
            out[e.kind] = out.get(e.kind, 0) + e.count
        return out

    def summary(self) -> str:
        """Human-readable one-block summary for CLI output."""
        if not self.events:
            return "quant health: clean (no guard events)"
        lines = ["quant health: " + ", ".join(f"{k}={v}" for k, v in sorted(self.counts().items()))]
        for e in self.events:
            lines.append(f"  - {e.describe()}")
        return "\n".join(lines)


# --------------------------------------------------------------------------- #
# Checks
# --------------------------------------------------------------------------- #
def check_finite(
    arr: np.ndarray,
    *,
    where: str,
    kind: str = "nonfinite_input",
    health: QuantHealthReport | None = None,
) -> bool:
    """Detect NaN/Inf in ``arr``; record (and, in strict mode, raise).

    Returns True when ``arr`` is fully finite.  With no ``health`` report the
    check is detection-only (never raises), so callers on golden paths can
    keep their pre-guard behavior bit-identical.
    """
    arr = np.asarray(arr)
    if arr.dtype.kind not in "fc":
        return True
    bad = int(arr.size - np.count_nonzero(np.isfinite(arr)))
    if bad == 0:
        return True
    if health is not None:
        health.record(
            kind,
            where,
            f"{bad}/{arr.size} non-finite values",
            count=bad,
        )
    return False


def count_degenerate_scales(
    scale: np.ndarray,
    *,
    where: str,
    health: QuantHealthReport | None = None,
    eps: float = DEGENERATE_SCALE_EPS,
) -> int:
    """Count zero/subnormal/non-finite scales (pre-clamp); record if any."""
    scale = np.asarray(scale)
    bad = int(np.count_nonzero(~np.isfinite(scale) | (scale <= eps)))
    if bad and health is not None:
        health.record(
            "degenerate_scale",
            where,
            f"{bad}/{scale.size} scales at/below {eps:g} (clamped)",
            count=bad,
        )
    return bad
