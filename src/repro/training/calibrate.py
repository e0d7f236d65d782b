"""Observer warm-up ("calibration") for post-training quantization.

Table 1's footnote: before evaluating a pre-trained model whose convs were
swapped to (quantized) Winograd, the paper warms up "all the moving
averages involved in Eq. 1 using the training set but without modifying the
weights".  That is precisely what :func:`calibrate` does: forward passes in
calibration mode update every quantizer's EMA range while no gradients are
computed and no parameter changes.

:func:`repro.quant.ensure_calibrated` is the one-batch form for
compiling: it warms only cold observers.  It lives beside the quantizer
because the serving path, which never imports this package, calls it.
"""

from __future__ import annotations

from typing import Optional

from repro.autograd.function import no_grad
from repro.autograd.tensor import Tensor
from repro.data.loader import DataLoader
from repro.nn.module import Module
from repro.quant.quantizer import Quantizer


def set_calibrating(model: Module, flag: bool) -> int:
    """Toggle calibration mode on every quantizer; returns how many."""
    count = 0
    for module in model.modules():
        if isinstance(module, Quantizer):
            module.calibrating = flag
            count += 1
    return count


def calibrate(model: Module, loader: DataLoader, num_batches: Optional[int] = None) -> None:
    """Warm up quantizer EMA ranges with forward passes only."""
    was_training = model.training
    model.eval()
    set_calibrating(model, True)
    try:
        with no_grad():
            for i, (images, _) in enumerate(loader):
                if num_batches is not None and i >= num_batches:
                    break
                model(Tensor(images))
    finally:
        set_calibrating(model, False)
        model.train(was_training)
