"""The Atom algorithm: accurate W4A4 quantization for LLM serving.

Modules map one-to-one onto the paper's §4 design components:

- :mod:`repro.core.config`    — :class:`AtomConfig`, whose knobs span the full
  ablation space of Table 3 (every row is a config);
- :mod:`repro.core.groups`    — ragged group slices: the channel layout after
  reordering (low-bit body groups + high-bit outlier tail);
- :mod:`repro.core.outliers`  — calibration-based outlier identification and
  the reorder permutation (§4.1, Fig. 7);
- :mod:`repro.core.gptq`      — GPTQ weight quantization with group scales;
- :mod:`repro.core.kv_quant`  — asymmetric per-head KV-cache codec (§4.4);
- :mod:`repro.core.linear`    — the quantized linear executors: dynamic
  activation quantization + one scale-folded GEMM (§4.2, Fig. 8);
- :mod:`repro.core.atom`      — :class:`AtomQuantizer`, the model-level
  pipeline (§4.5, Fig. 6);
- :mod:`repro.core.checkpoint` — crash-safe per-layer checkpoint store for
  the offline pipeline (atomic writes, checksums, typed
  :class:`CheckpointError`).
"""

from repro.core.checkpoint import CheckpointError, CheckpointStore
from repro.core.config import AtomConfig
from repro.core.groups import GroupSlice, make_group_slices
from repro.core.outliers import identify_outliers, reorder_permutation
from repro.core.gptq import gptq_quantize
from repro.core.kv_quant import AtomKVCodec
from repro.core.linear import AtomLinear
from repro.core.atom import AtomQuantizer

__all__ = [
    "AtomConfig",
    "AtomKVCodec",
    "AtomLinear",
    "AtomQuantizer",
    "CheckpointError",
    "CheckpointStore",
    "GroupSlice",
    "gptq_quantize",
    "identify_outliers",
    "make_group_slices",
    "reorder_permutation",
]
