"""Autograd-free inference engine.

Compiles a trained :class:`~repro.nn.module.Module` into a flat execution
plan of NumPy inference kernels:

* :mod:`repro.engine.registry` — the kernel registry, mapping op types to
  ``reference`` (bit-faithful to eager) and ``fast`` (optimised) backends;
* :mod:`repro.engine.compile` — the compile pass: walks the module tree,
  freezes parameters, precomputes and caches Winograd-transformed filters
  (``G g Gᵀ``) and quantized weights once per plan, and fuses
  Conv→BatchNorm→ReLU chains by folding BN into the weights;
* :mod:`repro.engine.plan` — the batched executor (`CompiledPlan`);
* :mod:`repro.engine.memplan` — the compile-time memory planner: shape
  inference over the register file, liveness-based arena slot reuse, and
  the per-run workspace arena behind zero-allocation steady state;
* :mod:`repro.engine.pool` — the shared worker pool and ``REPRO_THREADS``
  resolution behind the batch lanes of a split run;
* :mod:`repro.engine.cache` — the LRU plan cache keyed by
  (architecture signature, input shape, quant config).

Typical use::

    from repro.engine import compile_model
    from repro.quant import ensure_calibrated

    model.eval()
    ensure_calibrated(model, batch)      # a quantized model must be calibrated
    plan = compile_model(model)          # backend="fast"
    logits = plan.run(batch)             # batch: np.ndarray, NCHW

The ``reference`` backend replays exactly the operation sequence of the
eager eval-mode forward (including every fake-quantization stage with
frozen observer ranges), so its outputs match eager bit-for-bit; the
``fast`` backend trades that for speed (folded BN, fused ReLU, strided
tile extraction, 1×1-conv shortcuts) and matches to float tolerance.
The ``int8`` backend (:mod:`repro.engine.int8`) executes quantized
layers natively on the integer codes of the fake-quant grids — integer
GEMMs with compile-time accumulator-bound proofs, fused requantization,
and integer handoffs between adjacent quantized layers — making
quantized inference faster than fp32 instead of slower.
"""

from repro.engine.cache import PlanCache, get_cached_plan, plan_cache
from repro.engine.compile import CompileError, compile_model
from repro.engine.memplan import MemoryLayout, plan_layout
from repro.engine.plan import CompiledPlan, Step
from repro.engine.pool import configure_threads, default_threads, resolve_threads
from repro.engine.registry import BACKENDS, KernelRegistry, register_kernel, registry
from repro.engine.timing import measure_callable_ms, measure_plan_ms

# Importing the kernels module registers every built-in kernel.
from repro.engine import kernels as _kernels  # noqa: F401  (registration side effect)

__all__ = [
    "BACKENDS",
    "CompileError",
    "CompiledPlan",
    "KernelRegistry",
    "MemoryLayout",
    "PlanCache",
    "Step",
    "compile_model",
    "configure_threads",
    "default_threads",
    "get_cached_plan",
    "measure_callable_ms",
    "measure_plan_ms",
    "plan_cache",
    "plan_layout",
    "register_kernel",
    "registry",
    "resolve_threads",
]
