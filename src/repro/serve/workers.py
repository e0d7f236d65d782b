"""Worker-process side of multi-process sharded serving (ISSUE 5).

A worker is a **forked** child process that owns its entire inference
stack: its own :class:`~repro.serve.registry.ModelRegistry`, its own
:class:`~repro.engine.cache.PlanCache`, and its own arena pools (the
fork-safety guards in :mod:`repro.engine.memplan` / :mod:`repro.engine.pool`
guarantee it inherits neither parent arenas nor the parent's thread
pool).  The GIL therefore stops mattering across workers: tile
transforms, requant and pooling steps run truly in parallel with the
front-end's HTTP handling and with every other worker.

Transport — the shared-memory slot ring
---------------------------------------

Request/response tensors never travel through the control pipe.  Each
worker owns one anonymous shared mapping (``mmap.mmap(-1, size)``:
``MAP_SHARED | MAP_ANONYMOUS``) carved into ``num_slots`` fixed-size
slots (a ring: the parent claims a free slot, the response releases
it).  One request uses **one** slot for both directions:

* the front-end writes the stacked batch into the slot and sends only a
  tiny header (``req_id``, model name, slot index, shape) over the pipe;
* the worker maps an ``np.ndarray`` view straight onto the slot and
  hands that view to ``CompiledPlan.run`` — the engine reads its input
  directly out of shared memory (b64/JSON decode stays in the
  front-end, exactly as for in-process serving);
* the worker writes the output back into the same slot (the input has
  been consumed by then) and answers with the output shape; the
  front-end views + copies it out and releases the slot.

So tensor bytes are never pickled and never cross the pipe: the only
whole-tensor passes are the unavoidable write into and read out of the
ring.  A tensor that does not fit its slot (mis-sized policy,
giant output) falls back to inline pickled bytes over the pipe and is
*counted* (``inline_requests`` / ``inline_responses`` in the worker
stats) so the degradation is visible in ``/metrics``, not silent.

The mapping is created by the parent just before the fork and
**inherited through fork** — it has no name, so nothing attaches to it
by name, no resource tracker process is started to clean it up, and
nothing is ever created in ``/dev/shm``.  The kernel frees a ring when
the last process mapping it unmaps it or exits, so a crashed or
``SIGKILL``-ed serving tree leaks nothing.

Protocol (pipe messages, parent → worker)::

    ("run",  req_id, model, slot, shape, threads, inline|None, trace)
    ("ping", req_id)
    ("load", req_id, key, artifact_path)      mmap a compiled-plan artifact
    ("unload", req_id, key)                   retire a served plan key
    ("stop",)

worker → parent::

    ("ready", worker_id)                      once, after models loaded
    ("ok",   req_id, slot, out_shape, run_ms, inline|None, spans|None, crc32)
    ("err",  req_id, slot, message)           execution failed (→ HTTP 500)
    ("pong", req_id, stats)
    ("loaded", req_id, ms|None, err|None)     answer to "load"/"unload"

``crc32`` is ``zlib.crc32`` of the response tensor bytes, computed by
the worker *before* the payload crosses the transport.  The front-end
recomputes it after copy-out; a mismatch means the shm slot or pipe
payload was damaged in flight and the batch is retried (the plan run
itself is pure, so a retry is bit-identical) — see
:class:`repro.serve.router.TransportCorrupt`.

Chaos (ISSUE 8): ``worker_main`` optionally takes a chaos spec string
(:mod:`repro.chaos`).  Faults are injected at the protocol boundaries —
boot stall before ``ready``, crash/hang before executing a batch, reply
delay/drop/corruption after executing it — never inside the engine, so
every injected fault exercises exactly the recovery path a real
infrastructure failure would.

``trace`` (observability, ISSUE 7) asks the worker to run the plan with
a local span buffer; the ``ok`` reply then carries the per-step engine
spans as plain dicts (``Span.to_dict``) tagged ``proc="worker-<id>"`` —
span timestamps are ``monotonic_ns`` so parent and worker spans share
one clock axis.  Untraced runs send ``trace=False`` and ``spans=None``:
the extra tuple fields cost nothing on the hot path.

Artifact-backed serving (ISSUE 6): when the parent passes an
``artifacts`` map (plan key → ``.rpln`` path), the worker boots those
keys by **mmapping** the compiled-plan artifact
(:func:`repro.engine.artifact.load_plan`) instead of compiling — the
weight pages are shared copy-on-write across every worker mapping the
same file, and cold start drops from seconds (build + calibrate +
compile + warm) to milliseconds.  Blue/green cutover sends ``"load"``
with a *versioned* key (``name#version``) so the old plan keeps serving
under its own key until the router drains it.
"""

from __future__ import annotations

import mmap
import os
import signal
import time
import zlib
from typing import Dict, List, Optional, Sequence

import numpy as np

#: Default number of ring slots per worker: enough for the batcher to
#: pipeline a couple of batches into a worker while one executes.
DEFAULT_SLOTS = 4


def slot_view(shm, slot: int, slot_bytes: int, shape, dtype=np.float32) -> np.ndarray:
    """An ndarray view onto one ring slot (no copy)."""
    return np.ndarray(tuple(shape), dtype=dtype, buffer=shm,
                      offset=slot * slot_bytes)


def worker_main(
    worker_id: int,
    conn,
    shm,
    slot_bytes: int,
    num_slots: int,
    spec_names: Sequence[str],
    plans: Optional[Dict[str, object]],
    threads: Optional[int],
    artifacts: Optional[Dict[str, str]] = None,
    chaos: Optional[str] = None,
    chaos_generation: int = 0,
) -> None:
    """Entry point of one worker process (called in the forked child).

    ``spec_names`` are the canonical model names this worker serves
    (its affinity slice — *not* every model the server loaded); each is
    built and compiled here, in this process, against this worker's own
    plan cache.  ``plans`` instead carries pre-built plan objects for
    the probe's plan-mode (inherited through fork, no registry needed).
    ``artifacts`` maps plan keys to ``.rpln`` paths — those keys boot by
    mmapping the artifact (no compiler in the loop; see
    docs/operations.md 'Compile-then-deploy').

    ``chaos`` is a fault-injection spec string (:mod:`repro.chaos`);
    ``chaos_generation`` is this worker slot's respawn count, mixed into
    the injector scope so a respawned worker draws a fresh — still
    deterministic — fault sequence instead of re-hitting the exact
    fault that killed its predecessor.
    """
    # The parent handles SIGINT; a ^C must not kill workers before the
    # router gets to drain and stop them in order.
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    injector = None
    error_storm_until = 0.0
    if chaos:
        import threading

        from repro.chaos import ChaosInjector, parse_chaos_spec

        injector = ChaosInjector(
            parse_chaos_spec(chaos),
            scope=f"worker-{worker_id}/gen-{chaos_generation}",
        )
        if injector.roll("worker_slow_start"):
            time.sleep(injector.duration_s("worker_slow_start"))
        if injector.roll("crash_storm"):
            # Crash *wave*: this generation boots healthy, serves for
            # the window, then dies.  Each respawned generation re-rolls
            # (fresh scope), so a high probability sustains rolling
            # crashes across the pool — the autoscaler/journal drill.
            timer = threading.Timer(
                injector.duration_s("crash_storm"), os._exit, args=(23,)
            )
            timer.daemon = True
            timer.start()

    from repro.engine.artifact import load_plan
    from repro.engine.cache import PlanCache
    from repro.serve.metrics import peak_rss_mb
    from repro.serve.registry import ModelRegistry

    cache = PlanCache()
    registry = ModelRegistry(cache=cache)
    artifacts = dict(artifacts or {})
    served: Dict[str, object] = {}

    def boot(name: str):
        if name in artifacts:
            # The front-end's load_artifact_served verified the hash;
            # workers map without rehashing so respawn stays fast.
            return load_plan(artifacts[name], verify=False)
        return registry.load(name).plan

    try:
        if plans:
            served.update(plans)
        for name in spec_names:
            if name not in served:
                served[name] = boot(name)
    except BaseException as exc:  # noqa: BLE001 — surfaced to the parent
        try:
            conn.send(("fail", worker_id, f"{type(exc).__name__}: {exc}"))
        finally:
            conn.close()
        return

    stats = {
        "requests_total": 0,
        "errors_total": 0,
        "inline_requests": 0,
        "inline_responses": 0,
    }
    conn.send(("ready", worker_id))

    def snapshot() -> dict:
        snap = dict(stats)
        snap.update(
            pid=os.getpid(),
            models=sorted(served),
            plan_cache=cache.stats(),
            plan_memory=cache.memory_stats(),
            rss_peak_mb=peak_rss_mb(),
        )
        return snap

    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break  # parent died or closed: exit quietly
        kind = msg[0]
        if kind == "stop":
            break
        if kind == "ping":
            conn.send(("pong", msg[1], snapshot()))
            continue
        if kind == "load":
            # ("load", req_id, key, artifact_path): mmap a new plan
            # version under ``key`` (blue/green deploy broadcast).
            _, req_id, key, artifact_path = msg
            try:
                t0 = time.perf_counter()
                artifacts[key] = artifact_path
                served[key] = load_plan(artifact_path, verify=False)
                conn.send(
                    ("loaded", req_id, (time.perf_counter() - t0) * 1e3, None)
                )
            except BaseException as exc:  # noqa: BLE001 — parent decides
                artifacts.pop(key, None)
                conn.send(
                    ("loaded", req_id, None, f"{type(exc).__name__}: {exc}")
                )
            continue
        if kind == "unload":
            # ("unload", req_id, key): drop a drained plan version; the
            # mmap closes when the last reference dies.
            _, req_id, key = msg
            served.pop(key, None)
            artifacts.pop(key, None)
            conn.send(("loaded", req_id, 0.0, None))
            continue
        # ("run", req_id, model, slot, shape, threads, inline, trace)
        _, req_id, model, slot, shape, req_threads, inline, want_trace = msg
        if injector is not None:
            # Pre-execution faults: the batch is *lost*, not half-run —
            # the parent's reply timeout / reader EOF turns either into
            # WorkerDied and the router retries it bit-identically.
            if injector.roll("worker_crash"):
                os._exit(17)
            if injector.roll("worker_hang"):
                while True:  # livelock: alive, answering nothing —
                    time.sleep(60)  # only the watchdog gets us out
            # error_storm: a *deterministic* model-error burst — the
            # worker answers with a typed ("err", ...) (→ HTTP 500,
            # never retried, worker stays alive) for the whole window.
            # Consecutive 500s are exactly what trips the circuit
            # breaker (repro.serve.selfheal.CircuitBreaker).
            if time.monotonic() < error_storm_until or injector.roll(
                "error_storm"
            ):
                if time.monotonic() >= error_storm_until:
                    error_storm_until = (
                        time.monotonic() + injector.duration_s("error_storm")
                    )
                stats["errors_total"] += 1
                conn.send(
                    ("err", req_id, slot,
                     "chaos error_storm: injected deterministic model error")
                )
                continue
        try:
            plan = served.get(model)
            if plan is None:
                # Late affinity change (a model loaded after spawn):
                # compile — or mmap — on demand in this worker.
                plan = served[model] = boot(model)
            if inline is not None:
                stats["inline_requests"] += 1
                x = np.frombuffer(inline, dtype=np.float32).reshape(shape)
            else:
                x = slot_view(shm, slot, slot_bytes, shape)
            buf = None
            exec_id = None
            t0_ns = 0
            if want_trace:
                from repro.obs.trace import TraceBuffer, new_span_id, now_ns

                buf = TraceBuffer(capacity=8192)
                exec_id = new_span_id()
                t0_ns = now_ns()
            t0 = time.perf_counter()
            out = plan.run(
                x,
                threads=req_threads if req_threads is not None else threads,
                trace=buf,
            )
            run_ms = (time.perf_counter() - t0) * 1e3
            spans_payload = None
            if buf is not None:
                proc = f"worker-{worker_id}"
                # Engine roots (plan_run) nest under this worker_exec span.
                for span in buf.snapshot():
                    if span.parent_id is None:
                        span.parent_id = exec_id
                buf.record(
                    "worker_exec",
                    "worker",
                    t0_ns,
                    attrs={"model": model, "run_ms": round(run_ms, 3)},
                    span_id=exec_id,
                    proc=proc,
                )
                spans_payload = []
                for span in buf.snapshot():
                    d = span.to_dict()
                    if not d.get("proc"):
                        d["proc"] = proc
                    spans_payload.append(d)
            out = np.ascontiguousarray(out, dtype=np.float32)
            stats["requests_total"] += 1
            out_bytes = out.tobytes()
            # Checksum over the *true* output, before any transport (or
            # injected corruption) can touch the payload.
            crc = zlib.crc32(out_bytes)
            if injector is not None:
                if injector.roll("shm_delay"):
                    time.sleep(injector.duration_s("shm_delay"))
                if injector.roll("pipe_drop"):
                    # Executed, never answered: the parent's reply
                    # timeout converts this into WorkerDied + retry.
                    continue
            corrupt = injector is not None and injector.roll("corrupt_response")
            inline = None
            if out.nbytes <= slot_bytes:
                # The input has been fully consumed: reuse the slot for
                # the response (zero-copy back to the front-end).
                view = slot_view(shm, slot, slot_bytes, out.shape)
                view[...] = out
                if corrupt and out.nbytes:
                    flat = view.reshape(-1).view(np.uint8)
                    flat[injector.pick_index(flat.size)] ^= 0xFF
            else:
                stats["inline_responses"] += 1
                inline = out_bytes
                if corrupt and inline:
                    damaged = bytearray(inline)
                    damaged[injector.pick_index(len(damaged))] ^= 0xFF
                    inline = bytes(damaged)
            conn.send(("ok", req_id, slot, out.shape, run_ms, inline,
                       spans_payload, crc))
        except BaseException as exc:  # noqa: BLE001 — batch fails, worker lives
            stats["errors_total"] += 1
            try:
                conn.send(("err", req_id, slot, f"{type(exc).__name__}: {exc}"))
            except (BrokenPipeError, OSError):
                break
    conn.close()


def required_slot_bytes(sample_shapes: Sequence[tuple], max_batch_size: int) -> int:
    """Slot capacity covering the largest stacked request batch.

    Outputs (logits) are far smaller than inputs for every served
    architecture, so sizing by the input side covers both directions;
    anything bigger falls back to inline transport and is counted.
    """
    per_sample = max(
        (int(np.prod(shape)) for shape in sample_shapes), default=0
    )
    return max(64 * 1024, 4 * per_sample * max(1, max_batch_size))


def spawn_worker(
    ctx,
    worker_id: int,
    spec_names: Sequence[str],
    plans: Optional[Dict[str, object]],
    slot_bytes: int,
    num_slots: int,
    threads: Optional[int],
    artifacts: Optional[Dict[str, str]] = None,
    chaos: Optional[str] = None,
    chaos_generation: int = 0,
):
    """Create (ring, parent_conn, process) for one worker; fork-only.

    Returns before the worker is ready — the caller waits for the
    ``("ready", ...)`` message (see ``_WorkerHandle.start``).
    """
    shm = mmap.mmap(-1, slot_bytes * num_slots)
    parent_conn, child_conn = ctx.Pipe(duplex=True)
    process = ctx.Process(
        target=worker_main,
        args=(worker_id, child_conn, shm, slot_bytes, num_slots,
              list(spec_names), plans, threads, artifacts, chaos,
              chaos_generation),
        daemon=True,
        name=f"repro-serve-worker-{worker_id}",
    )
    process.start()
    child_conn.close()
    return shm, parent_conn, process
