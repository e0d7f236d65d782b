"""Quantization-aware training: uniform symmetric fake-quantization.

Implements the scheme the paper adopts (§5.1): per-layer symmetric uniform
quantization of weights and activations following Krishnamoorthi (2018),
with exponential-moving-average range observers, a straight-through
estimator for gradients, and a calibration mode that only warms up the
observers (the relaxation required to make even F2 usable post-training —
Table 1's footnote).
"""

from repro.quant.quantizer import (
    FakeQuant,
    Quantizer,
    ensure_calibrated,
    fake_quant_array,
    quantization_scale,
)
from repro.quant.qconfig import QConfig, STAGES, int8, int10, int16, fp32

__all__ = [
    "FakeQuant",
    "Quantizer",
    "ensure_calibrated",
    "fake_quant_array",
    "quantization_scale",
    "QConfig",
    "STAGES",
    "int8",
    "int10",
    "int16",
    "fp32",
]
