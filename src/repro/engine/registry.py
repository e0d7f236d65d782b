"""The inference-kernel registry.

Every plan step names an *op type* ("conv2d", "winograd_conv2d", ...);
the registry maps ``(op, backend)`` to the callable that executes it.
Three backends ship with the engine:

* ``reference`` — mirrors the eager eval-mode computation operation for
  operation (the correctness oracle);
* ``fast`` — the optimised deployment path, still faithful to eager's
  quantization-grid decisions (quantized Winograd keeps eager's nested
  transform order);
* ``int8`` — native integer-arithmetic execution of quantized layers:
  activations are quantized to integer codes once, the transform-domain
  and im2row GEMMs run over integer-valued arrays (exact under BLAS at
  any blocking, because every partial sum stays below the float mantissa
  bound proven at compile time), and each fake-quant stage becomes a
  fused requantization (precomputed scale product + rint/clip on the
  integer accumulator) instead of a dequantize→fake-quant round trip.
  Steps the integer path cannot take exactly (non-dyadic flex
  transforms, partially-disabled stages, accumulators past 2^53) or
  whose activation ranges were not calibrated before compiling run
  the ``fast`` path of the op's one kernel for both backends.

Kernel resolution falls back ``int8`` → ``fast`` → ``reference``, so an
op needs one kernel to be usable and more only where a faster
implementation exists.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

#: Kernel signature: ``kernel(inputs, attrs) -> run``: bound once with a
#: step's first-run input arrays and its frozen attribute dict (weights,
#: scales, fusion flags, ...), it returns the runner ``run(*inputs) ->
#: np.ndarray`` that executes the step on every later run.
Kernel = Callable[[Sequence, dict], Callable]

BACKENDS = ("reference", "fast", "int8")

#: Kernel-resolution fallback chain per backend.
_FALLBACK = {"int8": "fast", "fast": "reference"}


class KernelRegistry:
    """Maps ``(op type, backend)`` to an inference kernel."""

    def __init__(self) -> None:
        self._kernels: Dict[Tuple[str, str], Kernel] = {}

    def register(self, op: str, backend: str = "reference") -> Callable[[Kernel], Kernel]:
        """Decorator: register ``fn`` as the ``backend`` kernel for ``op``."""
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")

        def decorator(fn: Kernel) -> Kernel:
            self._kernels[(op, backend)] = fn
            return fn

        return decorator

    def get(self, op: str, backend: str = "fast") -> Kernel:
        """Resolve a kernel along the ``int8`` → ``fast`` → ``reference``
        fallback chain."""
        if backend not in BACKENDS:
            raise KeyError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
        probe: Optional[str] = backend
        while probe is not None:
            fn = self._kernels.get((op, probe))
            if fn is not None:
                return fn
            probe = _FALLBACK.get(probe)
        raise KeyError(f"no kernel registered for op {op!r} (backend {backend!r})")

    def ops(self) -> Tuple[str, ...]:
        return tuple(sorted({op for op, _ in self._kernels}))

    def backends_for(self, op: str) -> Tuple[str, ...]:
        return tuple(b for b in BACKENDS if (op, b) in self._kernels)


#: The process-wide registry all built-in kernels register into.
registry = KernelRegistry()
register_kernel = registry.register
