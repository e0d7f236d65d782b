"""The compile-time memory planner: register shapes → one reusable arena.

Steady-state inference through a compiled plan used to allocate a fresh
ndarray for every step output and every kernel temporary.  The planner
removes that:

* **Shape/dtype inference** derives every register's shape (batch axis
  symbolic — all lowered ops carry the batch on axis 0, so per-sample
  shapes are enough) from the step attributes alone, with no data.
  Shapes are logical NCHW; the register views of channels-last steps
  (``attrs["layout"] == "nhwc"``, see :mod:`repro.engine.int8`) are
  permuted to ``(n, h, w, c)``.
  Plans containing an op with no shape rule (a hand-built or
  custom-registered op) keep the legacy allocate-per-step executor.
* **Liveness → slot assignment** extends the executor's existing
  ``frees`` analysis into a static buffer-reuse plan: registers whose
  live ranges are disjoint share one arena slot (best-fit over freed
  capacities).  A step's output never shares a slot with its own inputs,
  so no kernel can alias itself; an op that *returns* its input
  (``flatten``'s reshape view) is alias-classed with it so the shared
  memory is freed only when both die.
* **The arena** materialises the slots as flat float32 buffers sized for
  the actual batch (capacity-based: a bigger batch grows them once) plus
  the scratch the kernels route their temporaries through
  (``take_scratch``), in two lifetimes.  *Transient* scratch — GEMM row
  buffers, Winograd tile and transform-domain intermediates,
  quantization code buffers — is dead once its step returns, so every
  step carves its transient buffers from offset 0 of one flat,
  64-byte-aligned pool per arena, sized by the largest step's need at
  the arena's largest batch.  *Persistent* scratch outlives its step:
  zero-bordered padded inputs (shared by every step of one padding
  geometry, so the borders stay zero) and an output whose layout
  differs from its register.  After warm-up every request hits an
  existing buffer: zero steady-state arena allocations.
* **Bound programs**: the executor binds every step once per arena and
  batch size (its kernel takes its buffers through :func:`take_out` and
  :func:`take_scratch` and returns a runner); the arena keeps the
  runners for later runs of that size, and drops them all whenever it
  allocates or grows a buffer, so no runner outlives what it binds.
  Transient need is linear in the batch: a binding records each step's
  transient bytes per sample, and a run sizes the pool for its batch
  from them up front, alongside the slots.  A binding that still had to
  grow the pool (the plan's first) drops its runners as it goes and
  keeps no program.

A ``run`` checks one arena per lane out of a small pool in one go, so
concurrent executions of one shared plan (lanes of one split run, or the
inference server's worker pool) never touch the same buffers.  One arena
serves one lane, which runs its steps in order, so a step's transient
views may alias every other step's: the pool is only ever written by
the step running.  What a step hands on lives in a register (or
persistent scratch), never in the pool; the executor checks this on
every binding (:class:`ScratchEscapeError`).
"""

from __future__ import annotations

import os
import threading
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.engine.int8 import NHWC

#: Ops whose kernel may return its input array (or a view of it): the
#: output register aliases the input register's memory, so they must
#: share a slot lifetime.
ALIAS_OPS = frozenset({"flatten"})

_ITEMSIZE = 4  # every register is float32
_ALIGN = 64  # byte alignment of every transient buffer (a cache line)


def _prod(shape) -> int:
    out = 1
    for s in shape:
        out *= int(s)
    return out


def _aligned(nbytes: int) -> int:
    return -(-nbytes // _ALIGN) * _ALIGN


# ---------------------------------------------------------------------------
# Shape inference (per-sample: batch axis fixed at 1)
# ---------------------------------------------------------------------------


def _pool_hw(h: int, w: int, kernel, stride) -> Tuple[int, int]:
    kh, kw = kernel
    sh, sw = stride
    return (h - kh) // sh + 1, (w - kw) // sw + 1


def infer_step_shape(step, in_shapes: List[Optional[tuple]]) -> Optional[tuple]:
    """Output shape of one step given its input shapes (batch=1), or
    ``None`` when the op has no rule (or an input is unknown).

    Shapes are logical NCHW whatever the step's layout; the arena
    permutes the views of channels-last registers (see
    :func:`plan_layout`)."""
    if any(s is None for s in in_shapes):
        return None
    a = step.attrs
    op = step.op
    s0 = in_shapes[0] if in_shapes else None
    if op in ("relu", "affine", "add", "transpose"):
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
    #: register -> per-sample tail shape of its arena view (shape without
    #: the batch axis; ``(h, w, c)`` for a channels-last register)
    reg_tail: Dict[int, tuple]
    planned_registers: int = 0
    buffers_reused: int = 0
    #: step -> per-sample bytes of each transient buffer it takes, in
    #: order; learned when an arena binds the step, shared by every arena
    #: of the pool (each lane writes whole entries; equal for linear
    #: buffers whatever the lane's batch)
    transient: List[Tuple[int, ...]] = field(default_factory=list)

    @property
    def bytes_per_sample(self) -> int:
        return sum(self.slot_elems) * _ITEMSIZE

    def transient_bytes(self, n: int) -> int:
        """Pool bytes the largest step's transient buffers need at batch
        ``n`` (each rounded up to :data:`_ALIGN`), from the steps bound
        so far."""
        return max(
            (sum(_aligned(b * n) for b in bs) for bs in self.transient), default=0
        )

    def reg_bytes(self, reg: int, n: int) -> Optional[int]:
        """Bytes of register ``reg``'s arena view at batch ``n``."""
        tail = self.reg_tail.get(reg)
        return None if tail is None else n * _prod(tail) * _ITEMSIZE

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
            tail = tuple(shapes[reg][1:])
            if step.attrs.get("layout") == NHWC and len(tail) == 3:
                tail = tail[1:] + tail[:1]  # (c, h, w) -> (h, w, c)
            reg_tail[reg] = tail
    return MemoryLayout(
        slot_elems=slot_elems,
        reg_slot=reg_slot,
        reg_tail=reg_tail,
        planned_registers=len(reg_slot),
        buffers_reused=len(record) - len(slot_elems),
        transient=[()] * len(steps),
    )


# ---------------------------------------------------------------------------
# The arena: slot buffers, persistent scratch and the transient pool
# ---------------------------------------------------------------------------


class ScratchEscapeError(RuntimeError):
    """A step returned a view of its arena's transient pool, which the
    next step overwrites: a kernel must return its planned output
    (:func:`take_out`) or persistent scratch."""


class Arena:
    """One lane's worth of workspaces (checked out per lane of a ``run``)."""

    def __init__(self, layout: MemoryLayout):
        self.layout = layout
        self._slots: List[Optional[np.ndarray]] = [None] * len(layout.slot_elems)
        self._scratch: Dict[tuple, np.ndarray] = {}  # persistent scratch
        self._pool: Optional[np.ndarray] = None  # owns the transient pool
        self._pool_view = np.empty(0, dtype=np.uint8)  # its aligned bytes
        self._buf_ids: set = set()
        # batch size -> (runners, buffer requests their binding made)
        self._programs: Dict[int, tuple] = {}
        self._n = 1  # batch of the running binding
        self._slot_allocs = 0  # slot/pool growths at the start of it
        self._carve = 0  # next free pool offset of the binding step
        self._step_bytes: List[int] = []  # its transient bytes per sample
        # No locks: one lane owns the arena for a whole run, and the pool
        # reads the counters at checkin, under its own lock.
        self.alloc_events = 0  # lifetime buffer allocations/growths
        self.last_run_allocs = 0
        self.last_run_hits = 0
        self.shape_misses = 0
        self.pool_grew = False  # the running binding grew the pool

    # -- bookkeeping --------------------------------------------------------
    def _note_alloc(self) -> None:
        self.alloc_events += 1
        self.last_run_allocs += 1
        # A stored program may hold views of the buffer just replaced.
        self._programs.clear()

    def _replace(self, old: Optional[np.ndarray], new: np.ndarray) -> np.ndarray:
        if old is not None:
            self._buf_ids.discard(id(old))
        self._buf_ids.add(id(new))
        self._note_alloc()
        return new

    def _grow_pool(self, nbytes: int) -> None:
        raw = self._replace(self._pool, np.empty(nbytes + _ALIGN, dtype=np.uint8))
        shift = -raw.ctypes.data % _ALIGN
        self._pool, self._pool_view = raw, raw[shift : shift + nbytes]

    def program(self, n: int) -> Optional[list]:
        """The runners stored for batch ``n``, or ``None`` (after
        :meth:`begin_run`) when the run must bind its steps.  A replay
        credits the buffer requests its binding made as hits, so
        ``last_run_hits`` reads the same either way."""
        entry = self._programs.get(n)
        if entry is None:
            self.begin_run(n)
            return None
        self.last_run_allocs = 0
        self.last_run_hits = entry[1]
        return entry[0]

    def begin_run(self, n: int) -> None:
        """Start a binding run of batch ``n``: grow the slots, and the
        transient pool to what the steps bound so far need at ``n``."""
        self.last_run_allocs = 0
        self.last_run_hits = 0
        for slot, elems in enumerate(self.layout.slot_elems):
            need = n * elems
            buf = self._slots[slot]
            if buf is None or buf.size < need:
                self._slots[slot] = self._replace(buf, np.empty(need, dtype=np.float32))
        need = self.layout.transient_bytes(n)
        if need > self._pool_view.size:
            self._grow_pool(need)
        self._n = n
        self._slot_allocs = self.last_run_allocs
        self.pool_grew = False

    def begin_step(self) -> None:
        """Start binding a step: its transient buffers carve the pool
        from offset 0."""
        self._carve = 0
        self._step_bytes = []

    def end_step(self, step: int) -> None:
        """Record what step ``step`` took, as one whole entry (a lane
        sizing its pool concurrently reads an old or a new record, never
        a partial one)."""
        self.layout.transient[step] = tuple(self._step_bytes)

    def keep(self, n: int, runners: list) -> None:
        """Store the runners a binding run of batch ``n`` built, until
        the next (re)allocation (see :meth:`_note_alloc`)."""
        requests = self.last_run_hits + self.last_run_allocs - self._slot_allocs
        self._programs[n] = (runners, requests)

    def check_output(self, out: np.ndarray, step: int, op: str) -> None:
        """Raise :class:`ScratchEscapeError` when the output step ``step``
        just returned lies in the pool (called on binding; a pool this
        step outgrew is never written again)."""
        if np.may_share_memory(out, self._pool_view):
            raise ScratchEscapeError(
                f"step {step} ({op}) returned a view of its transient scratch"
            )

    def reg_view(self, reg: int, n: int) -> Optional[np.ndarray]:
        """Register ``reg``'s planned view at batch ``n``, if it has one."""
        slot = self.layout.reg_slot.get(reg)
        if slot is None:
            return None
        tail = self.layout.reg_tail[reg]
        return self._slots[slot][: n * _prod(tail)].reshape((n,) + tail)

    def transient(self, shape, dtype) -> np.ndarray:
        """The binding step's next transient buffer of ``shape``: the
        pool bytes after its previous ones (64-byte aligned).  A pool too
        small for the step grows here, to exactly what the step has taken
        so far; earlier views keep the old pool alive only as long as
        their runners."""
        dtype = np.dtype(dtype)
        nbytes = _prod(shape) * dtype.itemsize
        start = self._carve
        self._carve = start + _aligned(nbytes)
        self._step_bytes.append(-(-nbytes // self._n))
        if self._carve > self._pool_view.size:
            self._grow_pool(self._carve)
            self.pool_grew = True
        else:
            self.last_run_hits += 1
        return self._pool_view[start : start + nbytes].view(dtype).reshape(shape)

    def scratch(self, key: tuple, shape, dtype, zero: bool = False) -> np.ndarray:
        """A persistent workspace of at least ``shape`` under ``key``.

        Capacity-based: the flat backing buffer only grows.  ``zero``
        zero-fills on (re)allocation only — safe for the padded-input
        buffers because their pad borders sit at fixed per-sample
        offsets, and every user fully overwrites the same interior on
        every call (the key names that geometry; see
        :func:`take_scratch`).
        """
        need = _prod(shape)
        buf = self._scratch.get(key)
        if buf is None or buf.dtype != np.dtype(dtype) or buf.size < need:
            new = np.zeros(need, dtype=dtype) if zero else np.empty(need, dtype=dtype)
            buf = self._scratch[key] = self._replace(buf, new)
        else:
            self.last_run_hits += 1
        return buf[:need].reshape(shape)

    def owns(self, arr) -> bool:
        """True when ``arr``'s memory ultimately belongs to this arena."""
        base = arr
        while isinstance(base, np.ndarray) and base.base is not None:
            base = base.base
        return id(base) in self._buf_ids

    @property
    def register_nbytes(self) -> int:
        return sum(b.nbytes for b in self._slots if b is not None)

    @property
    def persistent_nbytes(self) -> int:
        return sum(b.nbytes for b in self._scratch.values())

    @property
    def transient_nbytes(self) -> int:
        return 0 if self._pool is None else self._pool.nbytes

    @property
    def nbytes(self) -> int:
        return self.register_nbytes + self.persistent_nbytes + self.transient_nbytes


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

    def checkout(self, count: int) -> List[Arena]:
        """``count`` arenas (idle ones first) under one lock hold: the
        lanes of one run never share an arena, however they overlap."""
        with self._lock:
            arenas = [self._idle.pop() for _ in range(min(count, len(self._idle)))]
            while len(arenas) < count:
                arena = Arena(self.layout)
                self._retained.append(arena)
                self.arenas_built += 1
                arenas.append(arena)
            return arenas

    def checkin(self, arenas: List[Arena]) -> None:
        """Return one run's arenas; the run's counters are their sums."""
        with self._lock:
            # A post-fork orphan (checked out before the fork reset
            # emptied the pool) or a burst-overflow arena records
            # nothing; its buffers die with the run.
            arenas = [a for a in arenas if a in self._retained]
            if not arenas:
                return
            self.last_run_allocs = sum(a.last_run_allocs for a in arenas)
            self.last_run_hits = sum(a.last_run_hits for a in arenas)
            self.alloc_events += self.last_run_allocs
            for arena in arenas:
                self.shape_misses += arena.shape_misses
                arena.shape_misses = 0
                if len(self._idle) < self.MAX_POOLED:
                    self._idle.append(arena)
                else:
                    # Burst overflow: drop the arena entirely so its
                    # buffers are reclaimed once the run's references
                    # die, instead of keeping gigabytes resident that
                    # can never be reused.
                    self._retained.remove(arena)

    def stats(self) -> dict:
        with self._lock:
            arenas = list(self._retained)
            return {
                "arenas_built": self.arenas_built,
                "arena_bytes": sum(a.nbytes for a in arenas),
                "register_bytes": sum(a.register_nbytes for a in arenas),
                "persistent_scratch_bytes": sum(a.persistent_nbytes for a in arenas),
                "transient_bytes": sum(a.transient_nbytes for a in arenas),
                "alloc_events": self.alloc_events,
                "last_run_allocs": self.last_run_allocs,
                "last_run_reuse_hits": self.last_run_hits,
                "shape_misses": self.shape_misses,
            }


# ---------------------------------------------------------------------------
# The workspace context the kernels see
# ---------------------------------------------------------------------------


_ws = threading.local()  # .scope: (arena, step, planned output) or None


@contextmanager
def bind_step(arena: Optional[Arena], step: int, out):
    """The scope in which step ``step`` binds its buffers."""
    prev = getattr(_ws, "scope", None)
    _ws.scope = (arena, step, out) if arena is not None else None
    if arena is not None:
        arena.begin_step()
    try:
        yield
    finally:
        _ws.scope = prev
        if arena is not None:
            arena.end_step(step)


def take_out(shape, dtype=np.float32) -> np.ndarray:
    """The binding step's planned output register, else (unplanned, or
    a shape miss) persistent ``"out"`` scratch, which its runner keeps.
    Both are C order, so a downstream reduction sums in one order planned
    or not (NumPy's ``out=None`` would follow the input's layout).  A
    runner returns this buffer (or a view of it) as the step's output."""
    scope = getattr(_ws, "scope", None)
    if scope is not None and scope[2] is not None:
        arena, _, out = scope
        if out.shape == tuple(shape) and out.dtype == np.dtype(dtype):
            arena.last_run_hits += 1
            return out
        arena.shape_misses += 1
    return take_scratch("out", shape, dtype, persistent=True)


def take_scratch(
    tag: str, shape, dtype=np.float32, zero: bool = False, persistent: bool = False
) -> np.ndarray:
    """A kernel buffer: arena-backed inside a planned run, a fresh array
    (``np.zeros``/``np.empty``) everywhere else.

    By default the buffer is *transient*: carved from the arena's pool,
    which the next step overwrites, so it may hold neither the step's
    output nor anything a later run reads back.  ``persistent`` gives
    step-keyed scratch that outlives the step (an output whose layout
    differs from its register).  ``zero`` (persistent too) zero-fills on
    allocation only, for a padded input whose users write only its
    interior: every step taking ``tag`` with the same per-sample shape
    and dtype shares the buffer, so ``tag`` must name the interior's
    offsets and extent."""
    scope = getattr(_ws, "scope", None)
    if scope is None:
        return np.zeros(shape, dtype=dtype) if zero else np.empty(shape, dtype=dtype)
    arena, step, _ = scope
    if zero:
        key = (tag, tuple(shape[1:]), np.dtype(dtype).str)
        return arena.scratch(key, shape, dtype, zero=True)
    if persistent:
        return arena.scratch((step, tag), shape, dtype)
    return arena.transient(shape, dtype)
