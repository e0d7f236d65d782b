"""The execution plan IR and its zero-allocation executor.

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
* **lanes** — with ``threads > 1`` a run cuts its batch once into
  contiguous row ranges and runs the whole step sequence on each range
  on the shared worker pool, every lane with its own arena, joined once.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine import memplan
from repro.engine.pool import resolve_threads, run_tasks
from repro.obs import trace as obs_trace

#: Fewest batch rows one lane runs.  A second lane costs an arena
#: checkout, a full pass of per-step dispatch and one join; measured as
#: paired ratios against serial on ``resnet18-w0.25-F4`` (2-vCPU x86 host,
#: one BLAS thread), two lanes lose at batch 2 (0.63x int8, 0.86x fp32),
#: split at batch 4 (0.90x / 1.23x) and win from batch 6 (1.17x / 1.35x).
MIN_LANE_ROWS = 3


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
    > 1) caps the lanes a run splits its batch into; ``planning``
    (default on) controls the arena executor.  Both default to the exact
    serial semantics.
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
    def _lane_count(self, n: int, threads: int) -> int:
        """How many lanes a run of ``n`` rows splits into (1 = serial).

        ``reference`` never splits: its GEMMs' last ulp may depend on the
        batch extent BLAS sees, and it is the bit-exactness oracle."""
        if threads <= 1 or n < 2 * MIN_LANE_ROWS or self.backend == "reference":
            return 1
        return min(threads, n // MIN_LANE_ROWS)

    def run(
        self,
        x: np.ndarray,
        threads: Optional[int] = None,
        trace: Optional["obs_trace.TraceBuffer"] = None,
    ) -> np.ndarray:
        """Execute the plan on one input batch (NCHW ``np.ndarray``).

        ``threads`` overrides the plan/`REPRO_THREADS` default for this
        call; 0 means "all cores".  With more than one thread the batch
        is cut once into up to ``threads`` contiguous row ranges of at
        least :data:`MIN_LANE_ROWS` rows, each run through every step as
        a lane on the worker pool, and the lane outputs are concatenated.
        ``trace`` records a ``plan_run`` root and one span per step and
        lane into the given :class:`repro.obs.TraceBuffer` (``None``
        falls back to the ambient ``REPRO_TRACE`` tracer; tracing never
        changes results).
        """
        tracer = trace if trace is not None else obs_trace.active_tracer()
        x = np.ascontiguousarray(np.asarray(x, dtype=np.float32))
        n = x.shape[0]
        nthreads = resolve_threads(self.threads if threads is None else threads)
        lanes = self._lane_count(n, nthreads)
        root_id = None
        if tracer is not None:
            root_id = obs_trace.new_span_id()
            t_run = obs_trace.now_ns()
        try:
            return self._execute(x, lanes, tracer, root_id)
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
                        "lanes": lanes,
                    },
                    span_id=root_id,
                )

    def _execute(
        self,
        x: np.ndarray,
        lanes: int = 1,
        tracer: Optional["obs_trace.TraceBuffer"] = None,
        parent_id: Optional[str] = None,
    ) -> np.ndarray:
        """Run ``x`` (a contiguous float32 batch) as ``lanes`` lanes, with
        every lane's arena taken in one checkout before the lanes start
        (``repro bench engine`` times the tracing-disabled :meth:`run`
        against this method for the ``trace_overhead`` gate)."""
        n = x.shape[0]
        pool = self._memory(x.shape[1:])
        arenas = pool.checkout(lanes) if pool is not None else [None] * lanes
        outs: List[Optional[np.ndarray]] = [None] * lanes

        def lane(i: int) -> None:
            lo, hi = i * n // lanes, (i + 1) * n // lanes
            outs[i] = self._run_lane(x[lo:hi], arenas[i], tracer, parent_id, i, lo)

        try:
            run_tasks([partial(lane, i) for i in range(lanes)], lanes)
            if lanes > 1:
                return np.concatenate(outs, axis=0)
            # The caller keeps the result; arena buffers go back to the
            # pool and will be overwritten by the next run.
            owned = arenas[0] is not None and arenas[0].owns(outs[0])
            return outs[0].copy() if owned else outs[0]
        finally:
            if pool is not None:
                pool.checkin(arenas)

    def _run_lane(
        self,
        x: np.ndarray,
        arena: Optional[memplan.Arena],
        tracer: Optional["obs_trace.TraceBuffer"] = None,
        parent_id: Optional[str] = None,
        lane: int = 0,
        lo: int = 0,
    ) -> np.ndarray:
        """The executor loop over rows ``lo:lo + len(x)`` of the run's
        batch, on ``arena`` (``None``: unplanned, every step bound on
        every call).  The first run of a batch size in an arena binds
        every step and the arena keeps the runners (unless the binding
        had to grow the transient pool); later runs of that size only
        replay them.  A binding checks every step's output against the
        pool (:class:`~repro.engine.memplan.ScratchEscapeError`).
        With a ``tracer`` it records one
        ``kernel`` span per step under ``parent_id``; lanes after the
        first tag theirs with ``lane``, ``rows`` and ``chunk_index`` so
        step-level consumers count each step once."""
        n = x.shape[0]
        stored = arena.program(n) if arena is not None else None
        program: Optional[list] = [] if stored is None else stored
        regs: List[Optional[np.ndarray]] = [None] * self.num_regs
        regs[self.input_reg] = x
        for step_index, step in enumerate(self.steps):
            args = [regs[i] for i in step.inputs]
            if tracer is not None:
                t_step = obs_trace.now_ns()
            if stored is not None:
                regs[step.output] = program[step_index](*args)
            else:
                out_view = arena.reg_view(step.output, n) if arena is not None else None
                with memplan.bind_step(arena, step_index, out_view):
                    run = step.fn(args, step.attrs)
                regs[step.output] = run(*args)
                if arena is not None:
                    arena.check_output(regs[step.output], step_index, step.op)
                    if arena.pool_grew:
                        # The runners bound so far hold the outgrown
                        # pool: drop them now, not at the end of the run.
                        program = None
                    elif program is not None:
                        program.append(run)
            if tracer is not None:
                wino = step.op == "winograd_conv2d"
                if step.domain == "int8":
                    domain = "int8-wino" if wino else "int8"
                else:
                    domain = "winograd" if wino else "fp32"
                attrs = {
                    "step": step_index,
                    "op": step.op,
                    "backend": self.backend,
                    "domain": domain,
                    "batch": n,
                    "out_bytes": int(regs[step.output].nbytes),
                    "slot_bytes": arena and arena.layout.reg_bytes(step.output, n),
                }
                if lane:
                    attrs.update(lane=lane, rows=[lo, lo + n], chunk_index=lane)
                tracer.record(
                    step.label or step.op,
                    "kernel",
                    t_step,
                    attrs=attrs,
                    parent_id=parent_id,
                    lane=lane,
                )
            for reg in step.frees:
                if reg != step.output:
                    regs[reg] = None
        if stored is None and arena is not None and program is not None:
            arena.keep(n, program)
        out = regs[self.output_reg]
        assert out is not None, "plan produced no output"
        return out

    def run_many(
        self, inputs: Sequence[np.ndarray], threads: Optional[int] = None
    ) -> List[np.ndarray]:
        """Run several same-shape inputs as one fused batch.

        The inputs are stacked along the batch axis and executed once, so
        the filter transforms, plan dispatch, and tile transforms are
        amortised over the whole group (and lanes split the fused batch).
        """
        if not inputs:
            return []
        arrays = [np.asarray(a, dtype=np.float32) for a in inputs]
        if any(a.shape != arrays[0].shape for a in arrays):
            raise ValueError("run_many requires equal input shapes")
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
        """Counts of native-int8 steps, integer-code handoffs and
        absorbed BatchNorm affines (the compile-time fusion the ``int8``
        backend performed)."""
        native = [s.attrs.get("i8", {}) for s in self.steps if s.domain == "int8"]
        return {
            "native_int8_steps": len(native),
            "int_handoffs": sum(1 for i8 in native if i8.get("emit_q") is not None),
            "absorbed_affines": sum(1 for i8 in native if i8.get("post") is not None),
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
        plan's arena pools): arenas built, resident ``arena_bytes`` split
        into ``register_bytes`` (slots), ``persistent_scratch_bytes``
        and ``transient_bytes`` (the step-shared pools), and
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
            "register_bytes": 0,
            "persistent_scratch_bytes": 0,
            "transient_bytes": 0,
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
            for key in ("arena_bytes", "register_bytes",
                        "persistent_scratch_bytes", "transient_bytes"):
                report[key] += stats[key]
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
                tag += f" <{step.domain}>"
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
