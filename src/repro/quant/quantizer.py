"""Fake-quantization primitives and the observer module."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd.function import Function, no_grad
from repro.autograd.tensor import Tensor, as_tensor
from repro.nn.module import Buffer, Module


def quantization_scale(max_abs: float, bits: int) -> float:
    """Symmetric uniform scale mapping [-max_abs, max_abs] onto the signed grid.

    The grid has ``2^(bits-1) - 1`` positive levels (symmetric, no
    asymmetric zero-point), per Krishnamoorthi (2018) per-layer symmetric
    quantization.
    """
    qmax = float(2 ** (bits - 1) - 1)
    max_abs = float(max_abs)
    if max_abs <= 0.0 or not np.isfinite(max_abs):
        return 1.0 / qmax  # degenerate range: harmless default
    return max_abs / qmax


class FakeQuant(Function):
    """Round-to-grid with straight-through gradients.

    Forward: ``clip(round(x / scale), -qmax, qmax) * scale``.
    Backward: pass-through inside the clipping range, zero outside
    (clipped STE), which is what lets quantization error participate in
    training without killing gradients.
    """

    def __init__(self, scale: float, bits: int):
        super().__init__()
        self.scale = float(scale)
        self.qmax = float(2 ** (bits - 1) - 1)

    def forward(self, x):
        q = np.rint(x / self.scale)
        self.inside = np.abs(q) <= self.qmax
        return (np.clip(q, -self.qmax, self.qmax) * self.scale).astype(x.dtype)

    def backward(self, grad):
        return (grad * self.inside,)


def fake_quant_array(x: np.ndarray, bits: int, max_abs: Optional[float] = None) -> np.ndarray:
    """NumPy-only fake quantization (used by the reference kernels)."""
    if max_abs is None:
        max_abs = float(np.abs(x).max())
    scale = quantization_scale(max_abs, bits)
    qmax = float(2 ** (bits - 1) - 1)
    return (np.clip(np.rint(x / scale), -qmax, qmax) * scale).astype(x.dtype)


class Quantizer(Module):
    """A fake-quantization observer for one tensor in the pipeline.

    Modes (driven by module training state plus :attr:`calibrating`):

    * **training** — update the EMA of ``max|x|`` from the current batch,
      then fake-quantize with the updated scale (QAT).
    * **calibrating** — same as training; used to warm up the moving
      averages of a pre-trained model without touching its weights
      (the relaxation described under Table 1).
    * **eval** — fake-quantize with the frozen EMA range.

    ``bits=None`` renders the module a no-op (FP32 path).
    """

    def __init__(self, bits: Optional[int], ema_momentum: float = 0.95, name: str = ""):
        super().__init__()
        self.bits = bits
        self.ema_momentum = float(ema_momentum)
        self.name = name
        self.calibrating = False
        self.register_buffer("running_max_abs", np.zeros(1, dtype=np.float64))
        self.register_buffer("initialized", np.zeros(1, dtype=np.float64))

    @property
    def enabled(self) -> bool:
        return self.bits is not None

    def observe(self, x: np.ndarray) -> None:
        """Update the EMA range from a batch (no quantization)."""
        batch_max = float(np.abs(x).max()) if x.size else 0.0
        if not self.initialized.data[0]:
            self.running_max_abs.data[0] = batch_max
            self.initialized.data[0] = 1.0
        else:
            m = self.ema_momentum
            self.running_max_abs.data[0] = m * self.running_max_abs.data[0] + (1 - m) * batch_max

    @property
    def cold(self) -> bool:
        """Enabled but never observed: no range to freeze yet."""
        return self.enabled and not self.initialized.data[0]

    @property
    def scale(self) -> float:
        if not self.enabled:
            raise RuntimeError("scale undefined for a disabled quantizer")
        return quantization_scale(self.running_max_abs.data[0], self.bits)

    def forward(self, x: Tensor) -> Tensor:
        if not self.enabled:
            return as_tensor(x)
        x = as_tensor(x)
        if self.training or self.calibrating:
            self.observe(x.data)
        if not self.initialized.data[0]:
            # Eval before any observation: fall back to batch range.
            self.observe(x.data)
        return FakeQuant.apply(x, scale=self.scale, bits=self.bits)

    def __repr__(self) -> str:
        bits = self.bits if self.enabled else "off"
        return f"Quantizer(bits={bits}, name={self.name!r})"


def ensure_calibrated(model: Module, x: np.ndarray) -> bool:
    """Warm the cold quantizers of ``model`` with one eval-mode forward
    of ``x``: each freezes the range the first eager eval forward would
    give it, and warm ones do not move.

    Runs nothing when no enabled quantizer is cold (so a float model, or
    one already calibrated, pays nothing) and returns whether it ran.
    :func:`repro.engine.compile_model` refuses a cold stage, so this is
    the step between building a quantized model and compiling it.
    """
    if not any(isinstance(m, Quantizer) and m.cold for m in model.modules()):
        return False
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            model(Tensor(x))
    finally:
        model.train(was_training)
    return True
