"""Reproduction of *Atom: Low-Bit Quantization for Efficient and Accurate LLM Serving*.

Subpackages
-----------
- :mod:`repro.quant`     — quantization primitives (number formats, numerical
  guardrails, error metric)
- :mod:`repro.core`      — the Atom algorithm (outliers, reordering, mixed precision,
  group quantization, clipping, GPTQ, KV-cache quantization, model pipeline)
- :mod:`repro.baselines` — RTN, SmoothQuant, OmniQuant-lite, QLLM-lite, W8A8, W4A16
- :mod:`repro.tensor`    — NumPy reverse-mode autograd engine (training substrate)
- :mod:`repro.models`    — Llama-family transformer + MoE variant, trainer, model zoo
- :mod:`repro.data`      — synthetic corpora, tokenizer, ShareGPT-like workloads, tasks
- :mod:`repro.eval`      — perplexity / zero-shot / ablation harnesses
- :mod:`repro.serving`   — GPU roofline cost model + discrete-event serving simulator
- :mod:`repro.bench`     — table/figure rendering shared by the benchmark suite
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
