"""Quantization primitives shared by the quantizers and the serving model.

- :mod:`repro.quant.dtypes` — integer formats (INT2..INT8) and the FP4 (E2M1)
  and FP8 (E4M3) minifloat grids, each able to round a float array onto its
  representable grid;
- :mod:`repro.quant.guards` — numerical guardrails of the offline pipeline:
  the :class:`~repro.quant.guards.QuantHealthReport`, finite checks and
  degenerate-scale counting;
- :mod:`repro.quant.error` — the relative weight reconstruction error
  the Atom quantizer reports per linear.

The quantizers themselves live where they run: weights in
:mod:`repro.core.gptq`, activations in :mod:`repro.core.linear`, the KV cache
in :mod:`repro.core.kv_quant`.  The package re-exports nothing; import the
module you need.
"""
