"""The compile-time memory planner: register shapes → one reusable arena.

Steady-state inference through a compiled plan used to allocate a fresh
ndarray for every step output and every kernel temporary.  The planner
removes that:

* **Shape/dtype inference** derives every register's shape (batch axis
  symbolic — all lowered ops carry the batch on axis 0, so per-sample
  shapes are enough) from the step attributes alone, with no data.
  Plans containing an op with no shape rule (a hand-built or
  custom-registered op) keep the legacy allocate-per-step executor.
* **Liveness → slot assignment** extends the executor's existing
  ``frees`` analysis into a static buffer-reuse plan: registers whose
  live ranges are disjoint share one arena slot (best-fit over freed
  capacities).  A step's output never shares a slot with its own inputs,
  so no kernel can alias itself; ops that *return* their input
  (``flatten``'s reshape view, ``record_hw``) are alias-classed with it
  so the shared memory is freed only when both die.
* **The arena** materialises the slots as flat float32 buffers sized for
  the actual batch (capacity-based: a bigger batch grows them once) plus
  a step-keyed scratch space the kernels route their temporaries through
  (``take_scratch``) — GEMM row buffers, padded inputs, Winograd tile
  and transform-domain intermediates, quantization code buffers.  After
  warm-up every request hits an existing buffer: zero steady-state
  arena allocations.

Arenas are checked out per ``run`` from a small pool, so concurrent
executions of one shared plan (the inference server does this from its
worker pool) never touch the same buffers.

Thread-safety contract of the scratch space: keys are ``(step, tag,
lane)``.  Serial execution uses lane 0; the parallel scheduler gives
each worker lane its own key set and processes its chunks sequentially,
so a scratch buffer is never written by two threads at once and a chunk
result that *views* scratch is copied into the output register before
the lane moves on.
"""

from __future__ import annotations

import os
import threading
import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

#: Ops whose kernel may return its input array (or a view of it): the
#: output register aliases the input register's memory, so they must
#: share a slot lifetime.
ALIAS_OPS = frozenset({"flatten", "record_hw"})

_ITEMSIZE = 4  # every register is float32


def _prod(shape) -> int:
    out = 1
    for s in shape:
        out *= int(s)
    return out


# ---------------------------------------------------------------------------
# Shape inference (per-sample: batch axis fixed at 1)
# ---------------------------------------------------------------------------


def _pool_hw(h: int, w: int, kernel, stride) -> Tuple[int, int]:
    kh, kw = kernel
    sh, sw = stride
    return (h - kh) // sh + 1, (w - kw) // sw + 1


def infer_step_shape(step, in_shapes: List[Optional[tuple]]) -> Optional[tuple]:
    """Output shape of one step given its input shapes (batch=1), or
    ``None`` when the op has no rule (or an input is unknown)."""
    if any(s is None for s in in_shapes):
        return None
    a = step.attrs
    op = step.op
    s0 = in_shapes[0] if in_shapes else None
    if op in ("relu", "affine", "record_hw", "add"):
        return s0
    if op == "flatten":
        return (s0[0], _prod(s0[1:]))
    if op == "concat":
        axis = a.get("axis", 1)
        out = list(s0)
        out[axis] = sum(s[axis] for s in in_shapes)
        return tuple(out)
    if op in ("max_pool", "avg_pool"):
        n, c, h, w = s0
        nh, nw = _pool_hw(h, w, a["kernel"], a["stride"])
        return (n, c, nh, nw)
    if op == "global_avg_pool":
        return (s0[0], s0[1])
    if op == "linear":
        return (s0[0], a["weight"].shape[0])
    if op == "conv2d":
        n, c, h, w = s0
        k, _, kh, kw = a["weight"].shape
        sh, sw = a["stride"]
        ph, pw = a["padding"]
        return (n, k, (h + 2 * ph - kh) // sh + 1, (w + 2 * pw - kw) // sw + 1)
    if op == "winograd_conv2d":
        n, _, h, w = s0
        r, pad = a["r"], a["pad"]
        oh, ow = h + 2 * pad - r + 1, w + 2 * pad - r + 1
        if oh <= 0 or ow <= 0:
            from repro.engine.kernels import WinogradShapeError

            raise WinogradShapeError(
                f"winograd_conv2d output extent {oh}x{ow} is non-positive "
                f"for input {h}x{w} (r={r}, pad={pad}); the input is smaller "
                f"than the kernel's receptive field"
            )
        return (n, a["out_channels"], oh, ow)
    return None


# ---------------------------------------------------------------------------
# Liveness → slot assignment
# ---------------------------------------------------------------------------


@dataclass
class MemoryLayout:
    """The static plan: which register lives in which arena slot."""

    #: per-slot capacity in float32 elements *per sample*
    slot_elems: List[int]
    #: register -> slot index (only registers with inferred shapes)
    reg_slot: Dict[int, int]
    #: register -> per-sample tail shape (shape without the batch axis)
    reg_tail: Dict[int, tuple]
    planned_registers: int = 0
    buffers_reused: int = 0

    @property
    def bytes_per_sample(self) -> int:
        return sum(self.slot_elems) * _ITEMSIZE

    def summary(self) -> dict:
        return {
            "planned_registers": self.planned_registers,
            "slots": len(self.slot_elems),
            "buffers_reused": self.buffers_reused,
            "arena_bytes_per_sample": self.bytes_per_sample,
        }


def plan_layout(steps, input_reg: int, output_reg: int, sample_shape) -> Optional[MemoryLayout]:
    """Build the slot assignment for one per-sample input shape.

    Returns ``None`` when any register's shape cannot be inferred — the
    executor then falls back to allocate-per-step.
    """
    shapes: Dict[int, Optional[tuple]] = {input_reg: (1,) + tuple(sample_shape)}
    for step in steps:
        ins = [shapes.get(r) for r in step.inputs]
        shapes[step.output] = infer_step_shape(step, ins)
    if any(shapes.get(step.output) is None for step in steps):
        return None

    # Alias classes: an op returning its input shares that memory.
    parent: Dict[int, int] = {}

    def find(reg: int) -> int:
        while reg in parent:
            reg = parent[reg]
        return reg

    for step in steps:
        if step.op in ALIAS_OPS:
            parent[step.output] = find(step.inputs[0])

    last_use: Dict[int, int] = {}
    for i, step in enumerate(steps):
        for reg in step.inputs:
            last_use[find(reg)] = i
        last_use.setdefault(find(step.output), i)
    out_root = find(output_reg)
    last_use[out_root] = len(steps)

    slot_elems: List[int] = []
    free: set = set()
    live: Dict[int, int] = {}
    record: Dict[int, int] = {}
    for i, step in enumerate(steps):
        root = find(step.output)
        if root != input_reg and root not in record:
            need = _prod(shapes[step.output][1:])
            fitting = [s for s in free if slot_elems[s] >= need]
            if fitting:
                slot = min(fitting, key=lambda s: slot_elems[s])
                free.discard(slot)
            elif free:
                slot = max(free, key=lambda s: slot_elems[s])
                free.discard(slot)
                slot_elems[slot] = need  # grow the largest reclaimed slot
            else:
                slot = len(slot_elems)
                slot_elems.append(need)
            live[root] = slot
            record[root] = slot
        for reg in set(step.inputs) | {step.output}:
            root = find(reg)
            if root != out_root and last_use.get(root) == i:
                slot = live.pop(root, None)
                if slot is not None:
                    free.add(slot)

    reg_slot: Dict[int, int] = {}
    reg_tail: Dict[int, tuple] = {}
    for step in steps:
        reg = step.output
        root = find(reg)
        if root in record:
            reg_slot[reg] = record[root]
            reg_tail[reg] = tuple(shapes[reg][1:])
    return MemoryLayout(
        slot_elems=slot_elems,
        reg_slot=reg_slot,
        reg_tail=reg_tail,
        planned_registers=len(reg_slot),
        buffers_reused=len(record) - len(slot_elems),
    )


# ---------------------------------------------------------------------------
# The arena: slot buffers + step-keyed scratch
# ---------------------------------------------------------------------------


class Arena:
    """One run's worth of workspaces (checked out per concurrent ``run``)."""

    def __init__(self, layout: MemoryLayout):
        self.layout = layout
        self._slots: List[Optional[np.ndarray]] = [None] * len(layout.slot_elems)
        self._scratch: Dict[tuple, np.ndarray] = {}
        self._buf_ids: set = set()
        self._regs: Dict[int, np.ndarray] = {}
        # Counter lock only: buffers themselves are race-free by keying
        # (scratch keys are lane-disjoint, slots are sized before lanes
        # start), but the counters are += from concurrent lanes.
        self._stats_lock = threading.Lock()
        self.alloc_events = 0  # lifetime buffer allocations/growths
        self.last_run_allocs = 0
        self.last_run_hits = 0
        self.shape_misses = 0

    # -- bookkeeping --------------------------------------------------------
    def _note_alloc(self) -> None:
        with self._stats_lock:
            self.alloc_events += 1
            self.last_run_allocs += 1

    def note_hit(self) -> None:
        with self._stats_lock:
            self.last_run_hits += 1

    def note_shape_miss(self) -> None:
        with self._stats_lock:
            self.shape_misses += 1

    def begin_run(self, n: int) -> None:
        """Size the register views for batch ``n`` (growing slots once)."""
        self.last_run_allocs = 0
        self.last_run_hits = 0
        layout = self.layout
        for slot, elems in enumerate(layout.slot_elems):
            need = n * elems
            buf = self._slots[slot]
            if buf is None or buf.size < need:
                if buf is not None:
                    self._buf_ids.discard(id(buf))
                buf = np.empty(need, dtype=np.float32)
                self._slots[slot] = buf
                self._buf_ids.add(id(buf))
                self._note_alloc()
        regs = {}
        for reg, slot in layout.reg_slot.items():
            tail = layout.reg_tail[reg]
            count = n * _prod(tail)
            regs[reg] = self._slots[slot][:count].reshape((n,) + tail)
        self._regs = regs

    def reg_view(self, reg: int) -> Optional[np.ndarray]:
        return self._regs.get(reg)

    def scratch(self, key: tuple, shape, dtype, zero: bool = False) -> np.ndarray:
        """A per-(step, tag, lane) workspace of at least ``shape``.

        Capacity-based: the flat backing buffer only grows.  ``zero``
        zero-fills on (re)allocation only — safe for the padded-input
        buffers because a step's pad borders sit at fixed per-sample
        offsets, and kernels fully overwrite the interior every call.
        """
        need = _prod(shape)
        buf = self._scratch.get(key)
        if buf is None or buf.dtype != np.dtype(dtype) or buf.size < need:
            if buf is not None:
                self._buf_ids.discard(id(buf))
            buf = np.zeros(need, dtype=dtype) if zero else np.empty(need, dtype=dtype)
            self._scratch[key] = buf
            self._buf_ids.add(id(buf))
            self._note_alloc()
        else:
            self.note_hit()
        return buf[:need].reshape(shape)

    def owns(self, arr) -> bool:
        """True when ``arr``'s memory ultimately belongs to this arena."""
        base = arr
        while isinstance(base, np.ndarray) and base.base is not None:
            base = base.base
        return id(base) in self._buf_ids

    @property
    def nbytes(self) -> int:
        slots = sum(b.nbytes for b in self._slots if b is not None)
        return slots + sum(b.nbytes for b in self._scratch.values())

    @property
    def scratch_nbytes(self) -> int:
        return sum(b.nbytes for b in self._scratch.values())


#: Every live ArenaPool, so the after-fork guard below can reset them.
_ALL_POOLS: "weakref.WeakSet[ArenaPool]" = weakref.WeakSet()


def _reset_pools_after_fork() -> None:
    """Fork-safety guard: a forked child starts with **empty** pools.

    At fork time the parent may hold arenas checked out in other threads
    (the inference server's worker pool does), and the child's copies of
    those arenas — and of the idle list — share no synchronisation with
    the parent's ongoing runs.  Handing any inherited arena out in the
    child would couple it to parent-side bookkeeping frozen mid-flight
    (checkout counters, ``_retained`` membership, possibly a lock held
    at fork).  Dropping everything is cheap (buffers are rebuilt on
    first use) and makes "a forked child never inherits a checked-out
    arena slot" a property of the pool, not of caller discipline.
    """
    for pool in list(_ALL_POOLS):
        pool._reset_after_fork()


if hasattr(os, "register_at_fork"):  # POSIX only
    os.register_at_fork(after_in_child=_reset_pools_after_fork)


class ArenaPool:
    """Checkout/checkin of arenas for concurrent runs of one plan."""

    #: Arenas kept around for reuse; extra concurrent checkouts beyond
    #: this build fresh arenas that are dropped on checkin.
    MAX_POOLED = 32

    def __init__(self, layout: MemoryLayout):
        self.layout = layout
        self._lock = threading.Lock()
        self._idle: List[Arena] = []
        self._retained: List[Arena] = []  # idle + checked-out (see checkin)
        self.arenas_built = 0
        self.alloc_events = 0
        self.shape_misses = 0
        # Counters of the most recently *finished* run (recorded at
        # checkin, so a cold arena parked by a concurrency burst cannot
        # pin the steady-state numbers forever).
        self.last_run_allocs = 0
        self.last_run_hits = 0
        _ALL_POOLS.add(self)

    def _reset_after_fork(self) -> None:
        # Replace the lock outright: the parent's lock may have been
        # held by a thread that does not exist in the child.
        self._lock = threading.Lock()
        self._idle = []
        self._retained = []
        self.arenas_built = 0
        self.alloc_events = 0
        self.shape_misses = 0
        self.last_run_allocs = 0
        self.last_run_hits = 0

    def checkout(self) -> Arena:
        with self._lock:
            if self._idle:
                return self._idle.pop()
            arena = Arena(self.layout)
            self._retained.append(arena)
            self.arenas_built += 1
            return arena

    def checkin(self, arena: Arena) -> None:
        with self._lock:
            if arena not in self._retained:
                # A post-fork orphan (checked out before the fork reset
                # emptied the pool) or a burst-overflow arena: record
                # nothing and let its buffers die with the run.
                return
            self.last_run_allocs = arena.last_run_allocs
            self.last_run_hits = arena.last_run_hits
            self.alloc_events += arena.last_run_allocs
            self.shape_misses += arena.shape_misses
            arena.shape_misses = 0
            if len(self._idle) < self.MAX_POOLED:
                self._idle.append(arena)
            else:
                # Burst overflow: drop the arena entirely so its buffers
                # are reclaimed once the run's references die, instead of
                # keeping gigabytes resident that can never be reused.
                try:
                    self._retained.remove(arena)
                except ValueError:  # pragma: no cover — defensive
                    pass

    def stats(self) -> dict:
        with self._lock:
            arenas = list(self._retained)
            return {
                "arenas_built": self.arenas_built,
                "arena_bytes": sum(a.nbytes for a in arenas),
                "scratch_bytes": sum(a.scratch_nbytes for a in arenas),
                "alloc_events": self.alloc_events,
                "last_run_allocs": self.last_run_allocs,
                "last_run_reuse_hits": self.last_run_hits,
                "shape_misses": self.shape_misses,
            }


# ---------------------------------------------------------------------------
# The workspace context the kernels see
# ---------------------------------------------------------------------------


class _Scope:
    __slots__ = ("arena", "step", "lane", "out")

    def __init__(self, arena, step, lane, out):
        self.arena = arena
        self.step = step
        self.lane = lane
        self.out = out


_ws = threading.local()


def bind_step(arena: Optional[Arena], step: int, lane: int, out) -> Optional[_Scope]:
    """Enter a step scope (returns the previous scope for restoration)."""
    prev = getattr(_ws, "scope", None)
    _ws.scope = _Scope(arena, step, lane, out) if arena is not None else None
    return prev


def unbind_step(prev: Optional[_Scope]) -> None:
    _ws.scope = prev


def take_out(shape, dtype=np.float32) -> Optional[np.ndarray]:
    """The running step's planned output buffer, or ``None`` (the kernel
    then allocates — exactly NumPy's ``out=None`` behaviour)."""
    scope = getattr(_ws, "scope", None)
    if scope is None or scope.out is None:
        return None
    out = scope.out
    if out.shape == tuple(shape) and out.dtype == np.dtype(dtype):
        scope.arena.note_hit()
        return out
    scope.arena.note_shape_miss()
    return None


def take_scratch(tag: str, shape, dtype=np.float32, zero: bool = False) -> np.ndarray:
    """A kernel temporary: arena-backed inside a planned run, a fresh
    array (``np.zeros``/``np.empty``) everywhere else."""
    scope = getattr(_ws, "scope", None)
    if scope is None:
        return np.zeros(shape, dtype=dtype) if zero else np.empty(shape, dtype=dtype)
    return scope.arena.scratch((scope.step, tag, scope.lane), shape, dtype, zero=zero)
