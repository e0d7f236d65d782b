"""LRU plan cache keyed by (architecture signature, input shape, quant config).

Plans freeze parameters at compile time, so the cache key must change
whenever the model's weights, buffers (BN statistics, quantizer observer
ranges) or structure change.  :func:`model_signature` folds all of that
into one digest: architecture (class names + layer hyper-parameters +
quantization config) plus a cheap content fingerprint of every parameter
and buffer.  Recompiling after a training step is therefore automatic —
the signature moves and the stale plan simply ages out of the LRU.

The backend is part of the cache key, and observer buffers are part of
the signature — which matters doubly for the ``int8`` backend: its
per-step quantized buffers (integer weight codes, requant multipliers,
integer-handoff wiring between layers) are derived from the frozen
ranges at compile time, so recalibrating a model changes the signature
and recompiles.  Compiling never writes to the model, so the key a plan
is looked up under is the key it was stored under.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Optional, Tuple

import numpy as np

from repro.nn.module import Module

#: Structural attributes that distinguish architecturally different layers.
_ARCH_ATTRS = (
    "in_channels",
    "out_channels",
    "kernel_size",
    "stride",
    "padding",
    "groups",
    "m",
    "flex",
    "num_features",
    "eps",
    "in_features",
    "out_features",
    "bits",
)


def model_signature(model: Module) -> str:
    """Content digest of a model: architecture + quant config + weights."""
    h = hashlib.sha1()
    for name, module in model.named_modules():
        h.update(f"|{name}:{type(module).__name__}".encode())
        for attr in _ARCH_ATTRS:
            value = getattr(module, attr, None)
            if value is not None and not callable(value):
                h.update(f";{attr}={value}".encode())
        qconfig = getattr(module, "qconfig", None)
        if qconfig is not None:
            h.update(f";q={qconfig.name}:{sorted(qconfig.stage_bits.items())}".encode())
    for name, tensor in list(model.named_parameters()) + list(model.named_buffers()):
        data = tensor.data
        h.update(f"|{name}:{data.shape}".encode())
        # Hash the raw bytes: exact and order-sensitive (a permutation of
        # filters must change the digest), at memcpy-like throughput.
        h.update(np.ascontiguousarray(data).tobytes())
    return h.hexdigest()


class PlanCache:
    """A small LRU cache of compiled plans.

    Thread-safe: the inference server hits one shared cache from its
    worker pool, so lookup, insertion, eviction and the hit/miss counters
    are all guarded by one lock.  (OrderedDict.move_to_end is not atomic
    with respect to the surrounding bookkeeping.)
    """

    def __init__(self, maxsize: int = 32):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._plans: "OrderedDict[tuple, object]" = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def get(self, key: tuple):
        with self._lock:
            plan = self._plans.get(key)
            if plan is None:
                self.misses += 1
                return None
            self._plans.move_to_end(key)
            self.hits += 1
            return plan

    def put(self, key: tuple, plan) -> None:
        with self._lock:
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self.maxsize:
                self._plans.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
            self.hits = 0
            self.misses = 0

    def keys(self):
        with self._lock:
            return list(self._plans.keys())

    def stats(self) -> dict:
        """Counters snapshot (served verbatim by the ``/metrics`` endpoint)."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "size": len(self._plans),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hits / total if total else 0.0,
            }

    def memory_stats(self) -> dict:
        """Aggregate arena footprint of every cached plan (see
        :meth:`CompiledPlan.memory_report`)."""
        with self._lock:
            plans = list(self._plans.values())
        totals = {
            "plans": len(plans),
            "arenas_built": 0,
            "arena_bytes": 0,
            "register_bytes": 0,
            "persistent_scratch_bytes": 0,
            "transient_bytes": 0,
            "steady_state_allocations": 0,
        }
        for plan in plans:
            report = getattr(plan, "memory_report", None)
            if report is None:
                continue
            snap = report()
            for key in totals.keys() - {"plans"}:
                totals[key] += snap.get(key, 0)
        return totals


#: Process-wide default cache.
plan_cache = PlanCache()


def get_cached_plan(
    model: Module,
    input_shape: Tuple[int, ...],
    backend: str = "fast",
    cache: Optional[PlanCache] = None,
):
    """Fetch (or compile and cache) the plan for ``model`` at ``input_shape``.

    The key is (model content signature, input shape, backend); the quant
    configuration is part of the signature.  Weight updates change the
    signature, so a stale plan is never served.
    """
    from repro.engine.compile import compile_model

    cache = cache if cache is not None else plan_cache
    key = (model_signature(model), tuple(input_shape), backend)
    plan = cache.get(key)
    if plan is None:
        plan = compile_model(model, backend=backend)
        # The cached path knows the input shape, so the memory planner
        # (shape inference + arena slot assignment) runs at compile time
        # here — the first run starts with its layout already decided.
        plan.prepare(tuple(input_shape))
        cache.put(key, plan)
    return plan
