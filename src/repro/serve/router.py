"""Front-end side of multi-process sharded serving (ISSUE 5).

:class:`WorkerRouter` owns ``N`` forked worker processes (see
:mod:`repro.serve.workers`) and routes each dispatched batch to one of
them over the shared-memory slot ring:

* **Per-model affinity** — every model is consistently placed on
  ``replicas`` of the ``N`` workers (rendezvous hashing over
  ``(model, worker)``), so each model's plans compile in at most
  ``replicas`` processes instead of all of them; among its replicas a
  batch goes to the worker with the shallowest queue.
* **Health + respawn** — a background monitor notices dead workers and
  respawns them (fresh process, fresh plan cache); ``worker_restarts``
  is counted per respawn and exposed on ``/metrics``.
* **In-flight retry** — a batch that was queued on (or being executed
  by) a worker that died is transparently re-submitted to a respawned
  worker.  Plan execution is pure (arenas are per-run, observers are
  frozen at compile time), so the retried batch is bit-identical to
  what the lost worker would have produced.

Failure mapping: a worker *execution* error (the model raised) is
:class:`WorkerError` — deterministic, never retried, surfaced as
HTTP 500.  A worker *death* is :class:`WorkerDied` — retried up to
``max_retries`` times before giving up.  A damaged response payload
(checksum mismatch over the shm/pipe transport) is
:class:`TransportCorrupt`, a ``WorkerDied`` subclass retried the same
way but *without* killing the worker — the plan run was fine, only the
payload in flight was not.

Watchdog (ISSUE 8): two independent mechanisms bound how long a wedged
worker can hold traffic.  The monitor's ``probe_hang`` ages an
outstanding ping and kills workers silent past ``hang_timeout``
(catches SIGSTOP/livelock with *no* traffic in flight); each dispatch
additionally bounds its own reply wait with ``reply_timeout`` — a
worker that swallowed a batch without answering is killed and the batch
retried, so no request ever hangs indefinitely.  Both kill paths are
counted (``watchdog_kills``) and exposed via ``stats()`` / ``/metrics``.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import threading
import time
import zlib
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.trace import Span, new_span_id, now_ns
from repro.serve.workers import (
    DEFAULT_SLOTS,
    required_slot_bytes,
    slot_view,
    spawn_worker,
)


class WorkerError(RuntimeError):
    """Plan execution failed inside a worker (deterministic — not retried)."""


class WorkerDied(RuntimeError):
    """The worker process vanished with this request in flight."""


class TransportCorrupt(WorkerDied):
    """Response payload failed its checksum crossing shm/pipe transport.

    Subclasses :class:`WorkerDied` so the router's retry loop picks it
    up, but the retry path leaves the worker alive: plan execution is
    deterministic, so re-running the batch reproduces the true bytes.
    """


class _Waiter:
    __slots__ = ("event", "kind", "payload")

    def __init__(self):
        self.event = threading.Event()
        self.kind = None  # "ok" | "err" | "pong" | "died"
        self.payload = None


class _WorkerHandle:
    """Parent-side view of one worker process: pipe, shm ring, pending map."""

    def __init__(
        self,
        worker_id: int,
        spec_names: Sequence[str],
        plans: Optional[dict],
        slot_bytes: int,
        num_slots: int,
        threads: Optional[int],
        ctx,
        artifacts: Optional[Dict[str, str]] = None,
        reply_timeout: float = 120.0,
        chaos: Optional[str] = None,
        chaos_generation: int = 0,
    ):
        self.worker_id = worker_id
        self.spec_names = list(spec_names)
        self.slot_bytes = slot_bytes
        self.num_slots = num_slots
        #: Hard bound on one batch's reply wait: a worker that ate the
        #: message without answering (hang after recv, dropped reply) is
        #: killed and the batch retried.  Must exceed the slowest
        #: honest batch; chaos tests shrink it to keep suites fast.
        self.reply_timeout = reply_timeout
        #: Router-installed callback counting watchdog kills (reply
        #: timeouts here, hang-probe kills in the monitor).
        self.on_watchdog_kill = None
        self.shm, self.conn, self.process = spawn_worker(
            ctx, worker_id, spec_names, plans, slot_bytes, num_slots, threads,
            artifacts, chaos, chaos_generation,
        )
        self._send_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._pending: Dict[int, _Waiter] = {}
        self._req_counter = 0
        self._slots: List[int] = list(range(num_slots))
        self._slot_cv = threading.Condition()
        self._dead = False
        self._reader: Optional[threading.Thread] = None
        self.last_stats: dict = {}
        #: (waiter, sent_at) of the monitor's outstanding hang probe.
        self._hang_probe = None

    # -- lifecycle ----------------------------------------------------------
    def wait_ready(self, timeout: float) -> None:
        if not self.conn.poll(timeout):
            self.close(terminate=True)
            raise RuntimeError(
                f"worker {self.worker_id} did not become ready in {timeout:g}s"
            )
        msg = self.conn.recv()
        if msg[0] == "fail":
            self.close(terminate=True)
            raise RuntimeError(f"worker {self.worker_id} failed to load: {msg[2]}")
        assert msg[0] == "ready", msg
        self._reader = threading.Thread(
            target=self._read_loop, daemon=True,
            name=f"serve-worker-reader-{self.worker_id}",
        )
        self._reader.start()

    def alive(self) -> bool:
        return not self._dead and self.process.is_alive()

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    def inflight(self) -> int:
        with self._state_lock:
            return len(self._pending)

    @property
    def shm_bytes(self) -> int:
        return self.slot_bytes * self.num_slots

    def close(self, terminate: bool = False) -> None:
        """Tear down pipe/process/ring (idempotent)."""
        self._mark_dead()
        try:
            if not terminate and self.process.is_alive():
                with self._send_lock:
                    self.conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=5)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5)
        try:
            self.conn.close()
        except OSError:
            pass
        try:
            # BufferError: a dispatch thread may still hold a transient
            # numpy view over the ring (the worker died under it); the
            # anonymous mapping then lives until that view is dropped.
            self.shm.close()
        except (BufferError, OSError):
            pass

    # -- reader -------------------------------------------------------------
    def _read_loop(self) -> None:
        while True:
            try:
                msg = self.conn.recv()
            except (EOFError, OSError):
                break
            kind = msg[0]
            req_id = msg[1]
            with self._state_lock:
                waiter = self._pending.pop(req_id, None)
            if waiter is None:
                continue  # request already abandoned
            waiter.kind = kind
            waiter.payload = msg[2:]
            waiter.event.set()
        self._mark_dead()

    def _mark_dead(self) -> None:
        with self._state_lock:
            if self._dead:
                return
            self._dead = True
            pending, self._pending = self._pending, {}
        for waiter in pending.values():
            waiter.kind = "died"
            waiter.event.set()

    # -- slot ring ----------------------------------------------------------
    def _claim_slot(self, timeout: float) -> int:
        with self._slot_cv:
            deadline = time.monotonic() + timeout
            while not self._slots:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self._dead:
                    raise WorkerDied(
                        f"worker {self.worker_id}: no free shm slot"
                    ) if self._dead else WorkerError(
                        f"worker {self.worker_id}: shm ring exhausted "
                        f"({self.num_slots} slots) for {timeout:g}s"
                    )
                self._slot_cv.wait(remaining)
            return self._slots.pop()

    def _release_slot(self, slot: int) -> None:
        with self._slot_cv:
            self._slots.append(slot)
            self._slot_cv.notify()

    # -- requests -----------------------------------------------------------
    def _post(self, kind: str, *args) -> Tuple[int, _Waiter]:
        """Send ``(kind, req_id, *args)`` under a fresh request id and
        register the waiter its reply will wake."""
        waiter = _Waiter()
        with self._state_lock:
            if self._dead:
                raise WorkerDied(f"worker {self.worker_id} is down")
            self._req_counter += 1
            req_id = self._req_counter
            self._pending[req_id] = waiter
        try:
            with self._send_lock:
                self.conn.send((kind, req_id, *args))
        except (BrokenPipeError, OSError):
            self._mark_dead()
            raise WorkerDied(f"worker {self.worker_id} pipe closed") from None
        return req_id, waiter

    def run(
        self,
        model: str,
        x: np.ndarray,
        threads: Optional[int] = None,
        slot_timeout: float = 120.0,
        trace_into=None,
    ) -> np.ndarray:
        """Execute one batch on this worker; raises WorkerDied/WorkerError.

        ``trace_into`` (a :class:`~repro.obs.trace.TraceBuffer`) records
        the transport spans — ``shm_write``, ``worker_roundtrip``,
        ``shm_read`` — and collects the worker's engine spans returned
        over the pipe, re-parented under the roundtrip span.  The
        roundtrip is the only *parentless* span this method emits, so
        callers (the batcher) can hang the whole subtree off their own
        exec span by re-parenting roots.
        """
        x = np.ascontiguousarray(np.asarray(x, dtype=np.float32))
        traced = trace_into is not None
        rt_id = new_span_id() if traced else None
        t_start = now_ns() if traced else 0
        slot = self._claim_slot(slot_timeout)
        try:
            inline = None
            t_write = now_ns() if traced else 0
            if x.nbytes <= self.slot_bytes:
                slot_view(self.shm, slot, self.slot_bytes, x.shape)[...] = x
            else:  # counted fallback: tensor too big for the ring slot
                inline = x.tobytes()
            if traced:
                trace_into.record(
                    "shm_write", "transport", t_write,
                    attrs={"bytes": x.nbytes, "slot": slot,
                           "inline": inline is not None},
                    parent_id=rt_id, proc="frontend",
                )
            req_id, waiter = self._post(
                "run", model, slot, x.shape, threads, inline, traced
            )
            if not waiter.event.wait(self.reply_timeout):
                # The worker accepted the batch and went silent — hung
                # after recv, or the reply was dropped.  The message is
                # unrecoverable in this process (re-sending would double
                # execute on a worker that merely stalled), so kill it:
                # the reader's EOF fails the other pending waiters and
                # the router's retry path re-runs this batch elsewhere,
                # bit-identically.
                with self._state_lock:
                    self._pending.pop(req_id, None)
                if self.on_watchdog_kill is not None:
                    self.on_watchdog_kill("reply_timeout")
                try:
                    self.process.kill()
                except OSError:
                    pass
                if traced:
                    trace_into.record(
                        "worker_roundtrip", "transport", t_start,
                        attrs={"worker": self.worker_id, "model": model,
                               "error": "reply_timeout"},
                        span_id=rt_id, proc="frontend",
                    )
                raise WorkerDied(
                    f"worker {self.worker_id}: no reply in "
                    f"{self.reply_timeout:g}s, presumed wedged (killed)"
                )
            if waiter.kind == "ok":
                out_slot, out_shape, run_ms, out_inline, spans, crc = (
                    waiter.payload
                )
                t_read = now_ns() if traced else 0
                if out_inline is not None:
                    out = np.frombuffer(
                        out_inline, dtype=np.float32
                    ).reshape(out_shape).copy()
                else:
                    # Copy out before the slot is released for reuse.
                    out = slot_view(
                        self.shm, out_slot, self.slot_bytes, out_shape
                    ).copy()
                if zlib.crc32(out.tobytes()) != crc:
                    raise TransportCorrupt(
                        f"worker {self.worker_id}: response checksum "
                        f"mismatch for {model!r} batch {tuple(out_shape)}"
                    )
                if traced:
                    trace_into.record(
                        "shm_read", "transport", t_read,
                        attrs={"bytes": out.nbytes, "slot": out_slot,
                               "inline": out_inline is not None},
                        parent_id=rt_id, proc="frontend",
                    )
                    for d in spans or ():
                        span = Span.from_dict(d)
                        if span.parent_id is None:
                            span.parent_id = rt_id
                        trace_into.add(span)
                    trace_into.record(
                        "worker_roundtrip", "transport", t_start,
                        attrs={"worker": self.worker_id, "model": model,
                               "run_ms": round(run_ms, 3)},
                        span_id=rt_id, proc="frontend",
                    )
                return out
            if traced:
                # Close the roundtrip even on failure so the shm_write
                # child never dangles as an orphan in the buffer.
                trace_into.record(
                    "worker_roundtrip", "transport", t_start,
                    attrs={"worker": self.worker_id, "model": model,
                           "error": waiter.kind or "died"},
                    span_id=rt_id, proc="frontend",
                )
            if waiter.kind == "err":
                _slot, message = waiter.payload
                raise WorkerError(
                    f"worker {self.worker_id}: plan execution failed: {message}"
                )
            raise WorkerDied(f"worker {self.worker_id} died mid-batch")
        finally:
            self._release_slot(slot)

    def load_model(self, key: str, artifact: str, timeout: float = 60.0) -> float:
        """Tell this worker to mmap ``artifact`` under plan key ``key``.

        Returns the worker-side load time in ms; raises
        :class:`WorkerError` when the worker rejected the artifact and
        :class:`WorkerDied` on a lost worker.
        """
        req_id, waiter = self._post("load", key, artifact)
        if not waiter.event.wait(timeout):
            with self._state_lock:
                self._pending.pop(req_id, None)
            raise WorkerError(
                f"worker {self.worker_id}: load of {key!r} timed out"
            )
        if waiter.kind == "loaded":
            ms, err = waiter.payload
            if err is not None:
                raise WorkerError(
                    f"worker {self.worker_id}: failed to load {key!r}: {err}"
                )
            if key not in self.spec_names:
                self.spec_names.append(key)
            return ms
        raise WorkerDied(f"worker {self.worker_id} died during load")

    def unload_model(self, key: str, timeout: float = 10.0) -> None:
        """Drop a drained plan key on this worker (best effort)."""
        self._post("unload", key)[1].event.wait(timeout)
        if key in self.spec_names:
            self.spec_names.remove(key)

    def probe_hang(self) -> float:
        """Non-blocking liveness probe (monitor thread only).

        Keeps one ping outstanding; returns how long the current one has
        gone unanswered (0 when the worker is keeping up).  A worker that
        is alive but wedged — SIGSTOP, uninterruptible syscall, livelock
        — answers nothing, so this age growing past the router's
        ``hang_timeout`` is the signal to kill and respawn it.  The
        worker answers pings in arrival order between batches, so the
        age stays below the longest single batch on a healthy worker.
        """
        probe = self._hang_probe
        if probe is not None:
            waiter, sent_at = probe
            if not waiter.event.is_set():
                return time.monotonic() - sent_at
            if waiter.kind == "pong":
                (self.last_stats,) = waiter.payload
            self._hang_probe = None
        waiter = self._post("ping")[1]
        self._hang_probe = (waiter, time.monotonic())
        return 0.0

    def ping(self, timeout: float = 5.0) -> Optional[dict]:
        """Round-trip a stats snapshot (None on timeout)."""
        if not self.alive():
            raise WorkerDied(f"worker {self.worker_id} is down")
        req_id, waiter = self._post("ping")
        if not waiter.event.wait(timeout):
            with self._state_lock:
                self._pending.pop(req_id, None)
            return None
        if waiter.kind == "pong":
            (stats,) = waiter.payload
            self.last_stats = stats
            return stats
        raise WorkerDied(f"worker {self.worker_id} died during ping")


class WorkerRouter:
    """The worker pool: affinity routing, health checks, respawn + retry."""

    def __init__(
        self,
        model_names: Sequence[str],
        sample_shapes: Sequence[tuple],
        workers: int,
        replicas: Optional[int] = None,
        max_batch_size: int = 8,
        num_slots: int = DEFAULT_SLOTS,
        slot_bytes: Optional[int] = None,
        threads: Optional[int] = None,
        plans: Optional[dict] = None,
        health_interval: Optional[float] = 2.0,
        hang_timeout: float = 60.0,
        max_retries: int = 2,
        ready_timeout: float = 300.0,
        artifacts: Optional[Dict[str, str]] = None,
        reply_timeout: float = 120.0,
        chaos: Optional[str] = None,
    ):
        # ``health_interval=None`` disables the monitor entirely — and
        # with it both dead-worker respawn-without-traffic AND the
        # hang_timeout detection below; only the submit retry path then
        # recovers workers, and a wedged-but-alive worker can hold its
        # dispatch thread indefinitely.  Meant for tests that need
        # deterministic respawn accounting, not for serving.
        if workers < 1:
            raise ValueError("WorkerRouter needs workers >= 1")
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX
            raise RuntimeError(
                "multi-process serving requires the fork start method "
                "(POSIX); run with workers=0 on this platform"
            ) from exc
        self.workers = workers
        self.replicas = max(1, min(workers, replicas if replicas else 2))
        #: Per-model replica-count overrides (the autoscaler's lever);
        #: models absent here use the pool-wide ``replicas`` default.
        self._replica_overrides: Dict[str, int] = {}
        self.model_names = list(model_names)
        self.threads = threads
        self.num_slots = num_slots
        self.slot_bytes = slot_bytes or required_slot_bytes(
            sample_shapes, max_batch_size
        )
        self.max_retries = max_retries
        self.ready_timeout = ready_timeout
        self.health_interval = health_interval
        self.reply_timeout = reply_timeout
        #: Chaos spec string (:mod:`repro.chaos`); validated here so a
        #: typo fails at construction, not silently inside workers.
        self.chaos = chaos
        if chaos:
            from repro.chaos import parse_chaos_spec

            parse_chaos_spec(chaos)
        #: A worker that answers no ping for this long while claiming to
        #: be alive is treated as hung and killed.  Must comfortably
        #: exceed the longest single batch (pings are answered between
        #: batches).
        self.hang_timeout = hang_timeout
        self._plans = plans
        #: Plan key → ``.rpln`` artifact path.  Keys listed here boot in
        #: workers by mmapping the artifact instead of compiling — and a
        #: respawned worker re-mmaps them, so blue/green versions
        #: (``name#version`` keys, unparseable as specs) survive worker
        #: deaths.
        self.artifacts: Dict[str, str] = dict(artifacts or {})
        self._lock = threading.Lock()
        #: Last fully populated stats() entry per worker slot, served
        #: (tagged ``stale: true``) when the live worker is gone.
        self._last_per_worker: Dict[int, dict] = {}
        self._handles: List[Optional[_WorkerHandle]] = [None] * workers
        self._restarts = [0] * workers
        self._watchdog_kills = 0
        self._retries = 0
        self._corrupt_responses = 0
        self._rotor = 0
        self._stop = threading.Event()
        self._monitor: Optional[threading.Thread] = None
        self._started = False

    # -- placement ----------------------------------------------------------
    def replicas_for(self, model: str) -> int:
        """Effective replica count for one model (override or default)."""
        with self._lock:
            return self._replica_overrides.get(model, self.replicas)

    def assigned_workers(self, model: str) -> List[int]:
        """Rendezvous hashing: stable per-model worker subset.

        The ranking is a pure function of ``(model, worker)``, so
        changing a model's replica count only grows or shrinks the
        *prefix* taken from it: scale-up adds workers without moving any
        existing replica, scale-down retires exactly the lowest-ranked
        ones — no traffic on a surviving replica ever re-shuffles.
        """
        ranked = sorted(
            range(self.workers),
            key=lambda w: hashlib.sha1(f"{model}|{w}".encode()).hexdigest(),
        )
        return ranked[: self.replicas_for(model)]

    def set_replicas(self, model: str, count: int) -> List[int]:
        """Resize one model's replica set (the autoscaler's actuator).

        Scale-up broadcasts artifact-backed plan keys to the newly
        assigned workers *before* the override lands, so the first
        batch after the resize never waits on a load (spec-named models
        boot on demand in the worker instead).  Scale-down simply
        shrinks the rendezvous prefix: retired workers stop receiving
        new batches but finish what they already hold — nothing
        in-flight is dropped — and keep the plan warm so a re-expansion
        is instant.  Returns the new assignment.
        """
        count = max(1, min(self.workers, int(count)))
        before = set(self.assigned_workers(model))
        ranked = sorted(
            range(self.workers),
            key=lambda w: hashlib.sha1(f"{model}|{w}".encode()).hexdigest(),
        )
        added = [w for w in ranked[:count] if w not in before]
        with self._lock:
            artifact = self.artifacts.get(model)
        if artifact is not None and added and self._started:
            # Load *before* the override lands: a worker must never be
            # routable for a key it cannot serve (versioned keys cannot
            # compile on demand).  Any refusal aborts the whole resize.
            for worker_id in added:
                handle = self._handle_for(worker_id, timeout=60.0)
                handle.load_model(model, artifact, timeout=60.0)
        with self._lock:
            self._replica_overrides[model] = count
        return self.assigned_workers(model)

    def _names_for(self, worker_id: int) -> List[str]:
        return [
            name for name in self.model_names
            if worker_id in self.assigned_workers(name)
        ]

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> "WorkerRouter":
        if self._started:
            return self
        handles = []
        try:
            for worker_id in range(self.workers):
                handles.append(self._spawn(worker_id))
            # Workers warm their plans concurrently; wait for each in turn.
            for handle in handles:
                handle.wait_ready(self.ready_timeout)
        except BaseException:
            # wait_ready closes the failing handle itself; the siblings
            # (already forked, each holding a slot ring) must not linger.
            for handle in handles:
                handle.close(terminate=True)
            raise
        with self._lock:
            self._handles = handles
        self._started = True
        if self.health_interval:
            self._monitor = threading.Thread(
                target=self._monitor_loop, daemon=True, name="serve-worker-monitor"
            )
            self._monitor.start()
        return self

    def _spawn(self, worker_id: int) -> _WorkerHandle:
        with self._lock:
            artifacts = dict(self.artifacts)
            generation = self._restarts[worker_id]
        handle = _WorkerHandle(
            worker_id,
            self._names_for(worker_id),
            self._plans,
            self.slot_bytes,
            self.num_slots,
            self.threads,
            self._ctx,
            artifacts=artifacts,
            reply_timeout=self.reply_timeout,
            chaos=self.chaos,
            chaos_generation=generation,
        )
        handle.on_watchdog_kill = self._note_watchdog_kill
        return handle

    def _note_watchdog_kill(self, reason: str) -> None:
        with self._lock:
            self._watchdog_kills += 1

    def stop(self) -> None:
        self._stop.set()
        if self._monitor is not None:
            self._monitor.join(timeout=10)
            self._monitor = None
        with self._lock:
            handles, self._handles = self._handles, [None] * self.workers
        for handle in handles:
            if handle is not None:
                handle.close()
        self._started = False

    # -- health -------------------------------------------------------------
    def _monitor_loop(self) -> None:
        while not self._stop.wait(self.health_interval):
            with self._lock:
                snapshot = list(enumerate(self._handles))
            for worker_id, handle in snapshot:
                if handle is None:
                    continue
                try:
                    if handle.alive():
                        # Hang detection: alive but unresponsive past
                        # the timeout → kill; the reader notices the
                        # EOF, fails its pending batches (they retry on
                        # a replica) and the next branch respawns it.
                        try:
                            if handle.probe_hang() > self.hang_timeout:
                                self._note_watchdog_kill("hang_probe")
                                handle.process.kill()
                        except WorkerDied:
                            pass
                    if not handle.alive():
                        self._respawn(handle)
                except Exception:  # noqa: BLE001 — keep monitoring
                    # A failed respawn (slow compile past the ready
                    # timeout, transient OOM, shm exhaustion) must not
                    # kill the monitor: the dead marker stays in place
                    # and the next tick — or the submit retry path —
                    # tries again.
                    pass

    def _respawn(self, dead: _WorkerHandle) -> None:
        """Replace ``dead`` with a fresh process (idempotent per handle)."""
        worker_id = dead.worker_id
        with self._lock:
            if self._handles[worker_id] is not dead:
                return  # someone else already respawned it
            # Mark the slot as in-transition so concurrent respawns wait.
            self._handles[worker_id] = None
        dead.close(terminate=True)
        try:
            fresh = self._spawn(worker_id)
            fresh.wait_ready(self.ready_timeout)
        except BaseException:
            # Restore the dead marker on *any* failure (fork/shm errors
            # included, not just a missed ready) so the slot is never
            # orphaned as None: the monitor's alive() check and the
            # submit retry path both keep trying against the marker.
            with self._lock:
                self._handles[worker_id] = dead
            raise
        with self._lock:
            self._handles[worker_id] = fresh
            self._restarts[worker_id] += 1

    def _respawn_quietly(self, dead: _WorkerHandle) -> None:
        try:
            self._respawn(dead)
        except Exception:  # noqa: BLE001 — the monitor keeps retrying
            pass

    def _handle_for(self, worker_id: int, timeout: float = 60.0) -> _WorkerHandle:
        deadline = time.monotonic() + timeout
        while True:
            with self._lock:
                handle = self._handles[worker_id]
            if handle is not None:
                return handle
            if time.monotonic() > deadline:
                raise WorkerError(f"worker {worker_id} unavailable")
            time.sleep(0.01)  # a respawn is in flight

    # -- routing ------------------------------------------------------------
    def _pick(self, model: str) -> _WorkerHandle:
        """Shallowest-queue live replica; blocks only when none is up.

        Replicas mid-respawn (``None`` slots) are skipped while a live
        sibling exists, so one worker death never stalls traffic that a
        healthy replica could absorb.
        """
        candidates = self.assigned_workers(model)
        with self._lock:
            self._rotor += 1
            rotor = self._rotor
            handles = [self._handles[w] for w in candidates]
        live = [h for h in handles if h is not None and h.alive()]
        if not live:
            # Nothing healthy: wait for a respawn to land on the first
            # replica (the monitor / background respawns keep trying).
            live = [self._handle_for(candidates[0])]
        depth = min(h.inflight() for h in live)
        shallowest = [h for h in live if h.inflight() == depth]
        return shallowest[rotor % len(shallowest)]

    def submit(
        self,
        model: str,
        x: np.ndarray,
        threads: Optional[int] = None,
        trace_into=None,
    ) -> np.ndarray:
        """Route one batch; retries on worker death, never on model error.

        A death triggers the respawn on a *background* thread: the retry
        fails over to a live replica immediately instead of absorbing
        the fork + recompile latency inline (only when no replica is
        left does ``_pick`` wait for the respawn)."""
        if not self._started:
            raise RuntimeError("WorkerRouter not started")
        x = np.ascontiguousarray(np.asarray(x, dtype=np.float32))
        last: Optional[BaseException] = None
        for attempt in range(self.max_retries + 1):
            if attempt and last is not None:
                time.sleep(0.05 * attempt)  # brief backoff between losses
            handle = self._pick(model)
            try:
                return handle.run(
                    model, x, threads=threads, trace_into=trace_into
                )
            except TransportCorrupt as exc:
                # The worker is fine — only the payload in flight was
                # damaged.  Retry without killing anything.
                last = exc
                with self._lock:
                    self._corrupt_responses += 1
                    self._retries += 1
            except WorkerDied as exc:
                last = exc
                with self._lock:
                    self._retries += 1
                threading.Thread(
                    target=self._respawn_quietly, args=(handle,), daemon=True,
                    name=f"serve-worker-respawn-{handle.worker_id}",
                ).start()
        raise WorkerError(
            f"model {model!r}: batch lost to dying workers "
            f"{self.max_retries + 1} times: {last}"
        )

    # -- blue/green deploys -------------------------------------------------
    def load_model(
        self, key: str, artifact: str, timeout: float = 60.0
    ) -> Dict[int, float]:
        """Broadcast a ``("load", key, artifact)`` to ``key``'s replicas.

        Every assigned live worker mmaps the artifact before this
        returns, so the first request after cutover never waits on a
        lazy load.  The (key, artifact) pair is also recorded so
        respawned workers re-mmap it.  Returns worker_id → load ms.
        Raises :class:`WorkerError` if *any* replica rejects the
        artifact — the deploy must not proceed on a half-loaded pool.
        """
        if not self._started:
            raise RuntimeError("WorkerRouter not started")
        with self._lock:
            self.artifacts[key] = artifact
            if key not in self.model_names:
                self.model_names.append(key)
        try:
            times: Dict[int, float] = {}
            for worker_id in self.assigned_workers(key):
                handle = self._handle_for(worker_id, timeout=timeout)
                times[worker_id] = handle.load_model(key, artifact, timeout)
            return times
        except BaseException:
            with self._lock:
                self.artifacts.pop(key, None)
                if key in self.model_names:
                    self.model_names.remove(key)
            raise

    def unload_model(self, key: str) -> None:
        """Retire a drained plan key everywhere (best effort)."""
        with self._lock:
            self.artifacts.pop(key, None)
            if key in self.model_names:
                self.model_names.remove(key)
            handles = [h for h in self._handles if h is not None]
        for handle in handles:
            if key in handle.spec_names and handle.alive():
                try:
                    handle.unload_model(key)
                except (WorkerDied, WorkerError):
                    pass

    def respawning(self) -> bool:
        """True while any worker slot is down or mid-respawn — the
        ``/healthz`` "worker respawning" degradation signal."""
        if not self._started:
            return False
        with self._lock:
            handles = list(self._handles)
        return any(h is None or not h.alive() for h in handles)

    # -- metrics ------------------------------------------------------------
    def restarts_total(self) -> int:
        with self._lock:
            return sum(self._restarts)

    def stats(self, refresh: bool = True, ping_timeout: float = 2.0) -> dict:
        with self._lock:
            handles = list(self._handles)
            restarts = list(self._restarts)
            watchdog_kills = self._watchdog_kills
            retries = self._retries
            corrupt = self._corrupt_responses
            overrides = dict(self._replica_overrides)
        per_worker = []
        cache_totals = {"size": 0, "hits": 0, "misses": 0}
        for worker_id, handle in enumerate(handles):
            if handle is None:
                # Mid-respawn: serve the last-known entry (tagged stale)
                # instead of omitting the worker — a scrape racing a
                # crash still sees every slot, with honest freshness.
                entry = dict(self._last_per_worker.get(worker_id, {}))
                entry.update(
                    worker=worker_id, alive=False, respawning=True,
                    stale=True, restarts=restarts[worker_id],
                )
                per_worker.append(entry)
                continue
            if refresh and handle.alive():
                try:
                    handle.ping(timeout=ping_timeout)
                except WorkerDied:
                    pass
            stats = handle.last_stats
            alive = handle.alive()
            entry = {
                "worker": worker_id,
                "pid": handle.pid,
                "alive": alive,
                # A worker that died mid-scrape reports its last-known
                # counters rather than erroring; ``stale`` marks them.
                "stale": not alive,
                "queue_depth": handle.inflight(),
                "restarts": restarts[worker_id],
                "shm_bytes": handle.shm_bytes,
                "models": handle.spec_names,
            }
            for key in ("requests_total", "errors_total",
                        "inline_requests", "inline_responses",
                        "rss_peak_mb"):
                if key in stats:
                    entry[key] = stats[key]
            if "plan_cache" in stats:
                entry["plan_cache"] = stats["plan_cache"]
                for key in cache_totals:
                    cache_totals[key] += stats["plan_cache"].get(key, 0)
            if "plan_memory" in stats:
                entry["plan_memory"] = stats["plan_memory"]
            if alive:
                self._last_per_worker[worker_id] = dict(entry)
            per_worker.append(entry)
        lookups = cache_totals["hits"] + cache_totals["misses"]
        return {
            "count": self.workers,
            "replicas": self.replicas,
            "replica_overrides": overrides,
            "worker_restarts": sum(restarts),
            "watchdog_kills": watchdog_kills,
            "retries_total": retries,
            "corrupt_responses_total": corrupt,
            "chaos": self.chaos,
            "shm_bytes_total": sum(
                h.shm_bytes for h in handles if h is not None
            ),
            "queue_depth_total": sum(
                h.inflight() for h in handles if h is not None
            ),
            "assignments": {
                name: self.assigned_workers(name) for name in self.model_names
            },
            "plan_cache": dict(
                cache_totals,
                hit_rate=cache_totals["hits"] / lookups if lookups else 0.0,
            ),
            "per_worker": per_worker,
        }


class WorkerPlanProxy:
    """Duck-typed stand-in for ``CompiledPlan`` that executes remotely.

    The :class:`~repro.serve.batcher.DynamicBatcher` only calls
    ``plan.run(batch, threads=, trace=)`` from its executor thread; this proxy
    forwards that call to the router (which blocks until a worker
    answers), so the whole batching/deadline/backpressure layer works
    unchanged on top of process workers.
    """

    def __init__(self, router: WorkerRouter, model: str):
        self.router = router
        self.model = model

    def run(
        self,
        x: np.ndarray,
        threads: Optional[int] = None,
        trace=None,
    ) -> np.ndarray:
        return self.router.submit(
            self.model, x, threads=threads, trace_into=trace
        )
