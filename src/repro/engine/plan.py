"""The execution plan IR and its zero-allocation parallel executor.

A compiled plan is a flat list of :class:`Step`s over a register file:
each step reads input registers, calls its kernel, and writes one output
register.  No autograd graph is built; every array is a plain
``np.ndarray`` and parameters were frozen (and pre-transformed) at
compile time.

Two executor-level upgrades ride on that IR (see
:mod:`repro.engine.memplan` and :mod:`repro.engine.pool`):

* a **memory plan** — registers are assigned liveness-disjoint arena
  slots at compile time and kernels route their temporaries through a
  per-run arena, so steady-state inference allocates nothing;
* a **step scheduler** — row-independent steps are split into batch
  chunks (which for Winograd steps are exactly blocks of input tiles)
  and fanned out across a shared worker pool, each lane writing its
  chunk straight into the planned output buffer.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine import memplan
from repro.engine.pool import resolve_threads, run_tasks
from repro.obs import trace as obs_trace

#: Ops that are row-independent along the batch axis (every input and the
#: output carry the batch on axis 0), so the executor may split a step
#: into sub-batches without changing per-sample results.
_CHUNKABLE_OPS = frozenset(
    {
        "add",
        "affine",
        "avg_pool",
        "concat",
        "conv2d",
        "flatten",
        "global_avg_pool",
        "linear",
        "max_pool",
        "relu",
        "winograd_conv2d",
    }
)

#: Working-set budget per step execution (~the L2 slice of one core).
#: A step whose inputs for the whole batch exceed this is executed in
#: batch chunks: large early-layer activations stay cache-resident while
#: small deep-layer steps keep the full batch (their GEMMs amortise
#: per-call overhead with batch).  Override via CompiledPlan.chunk_bytes
#: (0 disables chunking).
DEFAULT_CHUNK_BYTES = 1 << 19

#: Steps whose whole-batch inputs are smaller than this are not worth
#: fanning out across threads: the per-task dispatch would cost more
#: than the kernel.  (Chunking for cache residency has its own, larger
#: threshold above.)
MIN_PARALLEL_BYTES = 1 << 14

#: Ops whose *per-sample results cannot depend on the batch split at the
#: bit level*: elementwise, windowed, and shape ops whose reductions stay
#: entirely within one sample.  On the ``reference`` backend (the
#: bit-exactness oracle) the thread scheduler may shrink chunks only for
#: these — the big fused GEMMs (conv2d/winograd/linear) keep whatever
#: decomposition the thread-count-independent cache policy chose, because
#: BLAS may round a different M differently at the last ulp.  The
#: ``fast`` backend carries a float-tolerance contract (and the ``int8``
#: integer GEMMs are exact at any blocking), so there every chunkable op
#: may be thread-split.
_SPLIT_SAFE_OPS = frozenset(
    {
        "add",
        "affine",
        "avg_pool",
        "concat",
        "flatten",
        "global_avg_pool",
        "max_pool",
        "relu",
    }
)

#: On the ``reference`` backend the cache policy may batch-chunk only the
#: split-safe ops above.  Every GEMM-bearing step depends on the batch
#: extent at the bit level — ``conv2d``/``linear`` lower to one GEMM
#: whose M dimension is ``n·oh·ow``/``n``, and the Winograd Hadamard
#: stage contracts against a ``P = n·th·tw`` column dimension — and BLAS
#: may round a different M/N blocking differently at the last ulp
#: (caught by the differential fuzz corpus on random models: seeds with
#: im2row stems and F(6, r) layers at small spatial sizes flip single
#: ulps under splitting).  The oracle backend therefore executes GEMM
#: steps unsplit, so "chunked ≡ serial bitwise" holds by construction,
#: not empirically.


@dataclass
class Step:
    """One kernel invocation in a compiled plan."""

    op: str
    inputs: Tuple[int, ...]
    output: int
    attrs: Dict[str, Any] = field(default_factory=dict)
    label: str = ""
    fn: Optional[Callable] = None  # resolved kernel, bound at compile time
    frees: Tuple[int, ...] = ()  # registers whose last use is this step
    #: Execution domain: "float", or "int8" when the step carries native
    #: integer-arithmetic buffers (quantized weights as integer codes,
    #: requant multipliers) prepared by repro.engine.int8.
    domain: str = "float"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" [{self.label}]" if self.label else ""
        return f"Step({self.op}{label}: r{self.inputs} -> r{self.output})"


class CompiledPlan:
    """A flat, autograd-free inference program.

    Built by :func:`repro.engine.compile.compile_model`; run with
    :meth:`run` (single NCHW batch) or :meth:`run_many` (list of equal
    shape inputs, stacked into one batch so per-plan overheads and the
    Winograd input-tile transforms are shared across the whole batch).

    ``threads`` (per-call argument > this attribute > ``REPRO_THREADS``
    > 1) controls the step scheduler; ``planning`` (default on) controls
    the arena executor.  Both default to the exact serial semantics.
    """

    def __init__(
        self,
        steps: List[Step],
        num_regs: int,
        input_reg: int,
        output_reg: int,
        backend: str,
        signature: str,
        source: str = "",
    ):
        self.steps = steps
        self.num_regs = num_regs
        self.input_reg = input_reg
        self.output_reg = output_reg
        self.backend = backend
        self.signature = signature
        self.source = source  # class name of the compiled module
        self.chunk_bytes = DEFAULT_CHUNK_BYTES
        self.threads: Optional[int] = None  # None -> REPRO_THREADS default
        # The reference backend is the fidelity oracle: it keeps the
        # original allocate-per-step execution (its kernels ignore the
        # arena anyway, so planning would only burn memory).
        self.planning = backend != "reference"
        self._mem_lock = threading.Lock()
        self._mem_pools: Dict[tuple, Optional[memplan.ArenaPool]] = {}
        self._finalize()

    # -- liveness ----------------------------------------------------------
    def _finalize(self) -> None:
        """Compute per-step register death so the executor frees memory."""
        last_use: Dict[int, int] = {self.input_reg: -1}
        for i, step in enumerate(self.steps):
            for reg in step.inputs:
                last_use[reg] = i
        # The plan output must survive the whole run.
        last_use[self.output_reg] = len(self.steps)
        for i, step in enumerate(self.steps):
            step.frees = tuple(
                reg for reg in set(step.inputs) if last_use.get(reg) == i
            )

    # -- memory planning ---------------------------------------------------
    def _memory(self, sample_shape: tuple) -> Optional[memplan.ArenaPool]:
        """The arena pool for one per-sample input shape (lazily planned)."""
        if not self.planning:
            return None
        key = tuple(sample_shape)
        with self._mem_lock:
            pool = self._mem_pools.get(key, False)
            if pool is False:
                layout = memplan.plan_layout(
                    self.steps, self.input_reg, self.output_reg, key
                )
                pool = memplan.ArenaPool(layout) if layout is not None else None
                self._mem_pools[key] = pool
            return pool

    def prepare(self, input_shape: Sequence[int]) -> "CompiledPlan":
        """Build the memory plan for ``input_shape`` ahead of traffic
        (called by :func:`repro.engine.cache.get_cached_plan`, which knows
        the input shape at compile time)."""
        if len(input_shape) >= 2:
            self._memory(tuple(input_shape[1:]))
        return self

    # -- execution ------------------------------------------------------------
    @staticmethod
    def _has_cold_observer(step: Step) -> bool:
        """True if a fake-quant stage of ``step`` has not frozen its range
        yet.  Such a stage takes its scale from the first array it sees,
        so the step must see the *whole* batch, not a chunk — otherwise
        the frozen scale (and every later result) would depend on
        ``chunk_bytes``, breaking the reference backend's exactness."""
        return any(
            isinstance(v, dict) and "dynamic_bits" in v and "scale" not in v
            for v in step.attrs.values()
        )

    @staticmethod
    def _materialize(part: np.ndarray, arena) -> np.ndarray:
        """A chunk result that must outlive its lane's scratch buffers."""
        if arena is not None and arena.owns(part):
            return part.copy()
        return part

    def _run_split(
        self,
        step: Step,
        args: Tuple[np.ndarray, ...],
        n: int,
        chunk: int,
        threads: int,
        arena,
        step_index: int,
        out_view: Optional[np.ndarray],
        tracer: Optional["obs_trace.TraceBuffer"],
        parent_id: Optional[str],
    ) -> np.ndarray:
        """Execute one row-independent step in batch chunks of ``chunk``,
        fanned out over up to ``threads`` worker lanes.

        Every chunkable kernel computes each batch row independently
        (GEMM rows, elementwise ops), so chunking preserves per-sample
        results — bit-exactly for the reference kernels, and to float
        tolerance for the fast backend's fused GEMMs (BLAS may block a
        different M differently at the last ulp).  The same property
        makes serving-time dynamic micro-batching — and the thread
        scheduler riding the same split — transparent.  For Winograd
        steps a batch chunk is exactly a block of input tiles, so the
        lanes partition the tile GEMMs.
        """
        bounds = [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]
        lanes = min(threads, len(bounds)) if threads > 1 else 1
        parts: List[Optional[np.ndarray]] = [None] * len(bounds)
        span_name = step.label or step.op

        def work(lane: int) -> None:
            for index in range(lane, len(bounds), lanes):
                lo, hi = bounds[index]
                sub = tuple(a[lo:hi] for a in args)
                out = out_view[lo:hi] if out_view is not None else None
                t0 = obs_trace.now_ns() if tracer is not None else 0
                prev = memplan.bind_step(arena, step_index, lane, out)
                try:
                    part = step.fn(sub, step.attrs)
                finally:
                    memplan.unbind_step(prev)
                if tracer is not None:
                    tracer.record(
                        f"{span_name}[{lo}:{hi}]",
                        "kernel",
                        t0,
                        attrs={
                            "step": step_index,
                            "op": step.op,
                            "chunk_index": index,
                            "rows": [lo, hi],
                        },
                        parent_id=parent_id,
                        lane=lane,
                    )
                if out is not None and part is not out:
                    if out.shape == part.shape:
                        out[...] = part
                    else:  # planned shape diverged: fall back to collect
                        parts[index] = self._materialize(part, arena)
                elif out is None:
                    parts[index] = self._materialize(part, arena)

        run_tasks([(lambda lane=lane: work(lane)) for lane in range(lanes)], lanes)
        if out_view is not None:
            if all(p is None for p in parts):
                return out_view
            # Mixed: some chunks diverged from the planned shape (their
            # results are in `parts`), the rest landed in out_view — the
            # planned buffer cannot hold the true result, so assemble a
            # fresh one from both sources.
            merged = [
                part if part is not None else out_view[lo:hi]
                for (lo, hi), part in zip(bounds, parts)
            ]
            return np.concatenate(merged, axis=0)
        return np.concatenate(parts, axis=0)

    def run(
        self,
        x: np.ndarray,
        threads: Optional[int] = None,
        trace: Optional["obs_trace.TraceBuffer"] = None,
    ) -> np.ndarray:
        """Execute the plan on one input batch (NCHW ``np.ndarray``).

        ``threads`` overrides the plan/`REPRO_THREADS` default for this
        call; 0 means "all cores".  ``trace`` records one span per step
        into the given :class:`repro.obs.TraceBuffer` (``None`` falls
        back to the ambient ``REPRO_TRACE`` tracer; tracing never changes
        results — both paths execute the identical step schedule).
        """
        tracer = trace if trace is not None else obs_trace.active_tracer()
        return self._execute(x, threads, tracer)

    def _step_chunk(
        self, step: Step, args: Tuple[np.ndarray, ...], n: int, nthreads: int
    ) -> int:
        """The batch chunk one step executes in (``n`` = unsplit).

        Row-independent steps whose inputs exceed ``chunk_bytes`` shrink
        to the largest sub-batch that fits; steps worth fanning out are
        capped at one chunk per thread.  On ``reference`` only the
        split-safe ops may split (see ``_SPLIT_SAFE_OPS``)."""
        if (
            n <= 1
            or step.op not in _CHUNKABLE_OPS
            or any(a.shape[0] != n for a in args)
            or self._has_cold_observer(step)
            or (self.backend == "reference" and step.op not in _SPLIT_SAFE_OPS)
        ):
            return n
        in_bytes = sum(a.nbytes for a in args)
        chunk = n
        if self.chunk_bytes and in_bytes > self.chunk_bytes:
            chunk = max(1, n * self.chunk_bytes // in_bytes)
        if nthreads > 1 and in_bytes >= MIN_PARALLEL_BYTES:
            chunk = min(chunk, -(-n // nthreads))
        return chunk

    def _execute(
        self,
        x: np.ndarray,
        threads: Optional[int],
        tracer: Optional["obs_trace.TraceBuffer"],
    ) -> np.ndarray:
        """The executor loop.  With a ``tracer`` it records one ``kernel``
        span per step, per-chunk child spans under the thread scheduler,
        and a ``plan_run`` root span; with ``None`` the only extra work
        per step is two ``is None`` checks (``repro bench engine`` times
        the tracing-disabled :meth:`run` against this loop for the
        ``trace_overhead`` gate)."""
        x = np.ascontiguousarray(np.asarray(x, dtype=np.float32))
        n = x.shape[0]
        nthreads = resolve_threads(self.threads if threads is None else threads)
        pool = self._memory(x.shape[1:])
        arena = pool.checkout() if pool is not None else None
        root_id = step_span_id = None
        if tracer is not None:
            root_id = obs_trace.new_span_id()
            t_run = obs_trace.now_ns()
        try:
            if arena is not None:
                arena.begin_run(n)
            regs: List[Optional[np.ndarray]] = [None] * self.num_regs
            regs[self.input_reg] = x
            for step_index, step in enumerate(self.steps):
                args = tuple(regs[i] for i in step.inputs)
                chunk = self._step_chunk(step, args, n, nthreads)
                out_view = arena.reg_view(step.output) if arena is not None else None
                if tracer is not None:
                    step_span_id = obs_trace.new_span_id()
                    t_step = obs_trace.now_ns()
                if chunk < n:
                    regs[step.output] = self._run_split(
                        step, args, n, chunk, nthreads, arena, step_index,
                        out_view, tracer, step_span_id,
                    )
                else:
                    prev = memplan.bind_step(arena, step_index, 0, out_view)
                    try:
                        regs[step.output] = step.fn(args, step.attrs)
                    finally:
                        memplan.unbind_step(prev)
                if tracer is not None:
                    n_chunks = -(-n // chunk) if chunk < n else 1
                    wino = step.op == "winograd_conv2d"
                    if step.domain == "int8":
                        domain = "int8-wino" if wino else "int8"
                    else:
                        domain = "winograd" if wino else "fp32"
                    tracer.record(
                        step.label or step.op,
                        "kernel",
                        t_step,
                        attrs={
                            "step": step_index,
                            "op": step.op,
                            "backend": self.backend,
                            "domain": domain,
                            "batch": n,
                            "chunk": chunk,
                            "chunks": n_chunks,
                            "lanes": min(nthreads, n_chunks) if nthreads > 1 else 1,
                            "out_bytes": int(regs[step.output].nbytes),
                            "slot_bytes": (
                                int(out_view.nbytes) if out_view is not None else None
                            ),
                        },
                        span_id=step_span_id,
                        parent_id=root_id,
                    )
                for reg in step.frees:
                    if reg != step.output:
                        regs[reg] = None
            out = regs[self.output_reg]
            assert out is not None, "plan produced no output"
            if arena is not None and arena.owns(out):
                # The caller keeps the result; arena buffers go back to
                # the pool and will be overwritten by the next run.
                out = out.copy()
            return out
        finally:
            if tracer is not None:
                tracer.record(
                    "plan_run",
                    "engine",
                    t_run,
                    attrs={
                        "backend": self.backend,
                        "source": self.source,
                        "batch": n,
                        "steps": len(self.steps),
                        "threads": nthreads,
                    },
                    span_id=root_id,
                )
            if arena is not None:
                pool.checkin(arena)

    def run_many(
        self,
        inputs: Sequence[np.ndarray],
        threads: Optional[int] = None,
        stack: bool = True,
    ) -> List[np.ndarray]:
        """Run several same-shape inputs, as one fused batch or concurrently.

        ``stack=True`` (default) stacks along the batch axis and executes
        once, so the filter transforms, plan dispatch, and tile
        transforms are amortised over the whole group — the step
        scheduler then fans the fused batch out across cores.
        ``stack=False`` instead executes each input as its own ``run``
        on the worker pool (each with its own arena checkout): the shape
        concurrent server traffic takes.
        """
        if not inputs:
            return []
        arrays = [np.asarray(a, dtype=np.float32) for a in inputs]
        if any(a.shape != arrays[0].shape for a in arrays):
            raise ValueError("run_many requires equal input shapes")
        if not stack:
            nthreads = resolve_threads(self.threads if threads is None else threads)
            results: List[Optional[np.ndarray]] = [None] * len(arrays)

            def one(index: int) -> None:
                results[index] = self.run(arrays[index], threads=1)

            run_tasks(
                [(lambda i=i: one(i)) for i in range(len(arrays))],
                min(nthreads, len(arrays)),
            )
            return list(results)  # type: ignore[return-value]
        sizes = [a.shape[0] for a in arrays]
        out = self.run(np.concatenate(arrays, axis=0), threads=threads)
        splits = np.cumsum(sizes)[:-1]
        return [np.ascontiguousarray(part) for part in np.split(out, splits, axis=0)]

    def __call__(self, x) -> np.ndarray:
        data = x.data if hasattr(x, "data") else x
        return self.run(data)

    # -- introspection -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.steps)

    def ops_used(self) -> Tuple[str, ...]:
        return tuple(sorted({s.op for s in self.steps}))

    def int8_report(self) -> Dict[str, Any]:
        """Counts of native-int8 steps and integer-code handoffs (the
        compile-time fusion the ``int8`` backend performed), and the
        indices of the steps running on per-tap transform-domain grids
        (see :func:`repro.engine.int8.enable_per_tap`)."""
        native = [
            (i, s.attrs.get("i8", {}))
            for i, s in enumerate(self.steps)
            if s.domain == "int8"
        ]
        return {
            "native_int8_steps": len(native),
            "int_handoffs": sum(1 for _, i8 in native if i8.get("emit_q") is not None),
            "absorbed_affines": sum(1 for _, i8 in native if i8.get("post") is not None),
            "per_tap_steps": [i for i, i8 in native if i8.get("per_tap")],
        }

    def residency_report(self) -> List[Dict[str, Any]]:
        """Always ``[]``: no step hands a transform-domain tap tensor to
        the next, every Winograd step reads and writes spatial registers.
        The method stays only because the benchmark's per-layer breakdown
        (``e2ebench/layers.py``) reports its length."""
        return []

    def memory_report(self, batch: Optional[int] = None) -> Dict[str, Any]:
        """The memory planner's static layout plus runtime arena counters.

        Static (per planned input shape): registers, arena slots,
        ``buffers_reused`` (registers sharing a slot thanks to disjoint
        liveness) and peak arena bytes.  Runtime (aggregated over the
        plan's arena pools): arenas built, resident bytes, and
        ``steady_state_allocations`` — arena buffer allocations during
        the *most recent* run, which drops to zero once warm (the
        zero-allocation contract) — next to ``allocations_eliminated``,
        the number of buffer requests that hit an existing workspace.
        """
        with self._mem_lock:
            pools = dict(self._mem_pools)
        report: Dict[str, Any] = {
            "planning": self.planning,
            "registers": self.num_regs,
            "planned_shapes": [],
            "arenas_built": 0,
            "arena_bytes": 0,
            "scratch_bytes": 0,
            "steady_state_allocations": 0,
            "allocations_eliminated": 0,
            "shape_misses": 0,
        }
        for key, pool in sorted(pools.items(), key=lambda kv: str(kv[0])):
            entry: Dict[str, Any] = {"sample_shape": list(key)}
            if pool is None:
                entry["planned"] = False
                report["planned_shapes"].append(entry)
                continue
            entry["planned"] = True
            entry.update(pool.layout.summary())
            if batch is not None:
                entry["arena_bytes_at_batch"] = (
                    pool.layout.bytes_per_sample * int(batch)
                )
            stats = pool.stats()
            entry["arenas_built"] = stats["arenas_built"]
            report["planned_shapes"].append(entry)
            report["arenas_built"] += stats["arenas_built"]
            report["arena_bytes"] += stats["arena_bytes"]
            report["scratch_bytes"] += stats["scratch_bytes"]
            report["steady_state_allocations"] += stats["last_run_allocs"]
            report["allocations_eliminated"] += stats["last_run_reuse_hits"]
            report["shape_misses"] += stats["shape_misses"]
        return report

    def describe(self) -> List[str]:
        """Human-readable step listing (used by ``repro infer --describe``)."""
        lines = [f"CompiledPlan({self.source}, backend={self.backend}, {len(self.steps)} steps)"]
        for i, step in enumerate(self.steps):
            tag = " +relu" if step.attrs.get("fuse_relu") else ""
            if step.domain != "float":
                per_tap = step.attrs.get("i8", {}).get("per_tap")
                tag += f" <{step.domain}{' per-tap' if per_tap else ''}>"
            label = f" [{step.label}]" if step.label else ""
            ins = ",".join(f"r{r}" for r in step.inputs)
            lines.append(f"  {i:3d}: {step.op}{tag}{label} ({ins}) -> r{step.output}")
        with self._mem_lock:
            pools = [p for p in self._mem_pools.values() if p is not None]
        for pool in pools:
            s = pool.layout.summary()
            lines.append(
                f"  memory: {s['planned_registers']} registers in {s['slots']} "
                f"slots ({s['buffers_reused']} reused), "
                f"{s['arena_bytes_per_sample']} arena bytes/sample"
            )
        return lines

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CompiledPlan(source={self.source!r}, backend={self.backend!r}, "
            f"steps={len(self.steps)})"
        )
