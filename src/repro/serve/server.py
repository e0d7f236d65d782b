"""Asyncio HTTP/1.1 inference server over compiled Winograd plans.

Stdlib only (``asyncio`` + ``json``): keep-alive connections framed by
:mod:`repro.serve.http`, the routes below, one
:class:`~repro.serve.batcher.DynamicBatcher` per served model, and one
shared worker :class:`ThreadPoolExecutor` that runs plan execution off
the event loop.

Routes::

    POST /predict   {"model": name, "input": [C][H][W], "deadline_ms"?: f}
                    → {"model", "output", "batch_size", "queue_ms", "run_ms"}
                    (or "inputs": [sample, ...] → "outputs" + "meta")
    GET  /models    loaded variants with spec + plan metadata
    GET  /healthz   {"status": "ok", "models": [...], "uptime_s": ...}
    GET  /metrics   throughput, p50/p95/p99 latency, batch-size histogram,
                    plan-cache hit rate (see README "Serving"); with
                    ``Accept: text/plain`` the Prometheus exposition
                    instead (docs/observability.md)
    GET  /trace     the span ring buffer as Chrome trace-event JSON
                    (``?request_id=``, ``?format=chrome|spans``)

Every request gets an id at ingress (``X-Request-Id`` respected or
generated, echoed on the response); ``/predict`` requests are sampled
into end-to-end traces at ``trace_rate``.

Failure mapping: bad request → 400, unknown model/route → 404, queue
saturated → 429 (with ``Retry-After``), non-finite output on the JSON
encoding → 422, kernel failure → 500, deadline expired in queue → 504.
Framing faults close the connection: body over 32 MiB → 413, request
line over 64 KiB → 414, header block over 64 KiB → 431,
``Transfer-Encoding`` → 501 (see :mod:`repro.serve.http`).
"""

from __future__ import annotations

import asyncio
import base64
import binascii
import json
import os
import threading
import urllib.parse
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional

import numpy as np

from repro.engine.cache import PlanCache, plan_cache
from repro.obs import trace as obs_trace
from repro.obs.export import to_chrome_trace
from repro.serve.admission import (
    AdmissionController,
    AdmissionPolicy,
    RequestShed,
    resolve_priority,
)
from repro.serve.batcher import (
    BatcherStopped,
    BatchPolicy,
    DeadlineExceeded,
    DynamicBatcher,
    ExecutionFailed,
    QueueSaturated,
)
from repro.serve.http import (
    HttpError,
    RawResponse,
    Request,
    linger,
    read_request,
    write_response,
)
from repro.serve.metrics import ServerMetrics
from repro.serve.prom import PROM_CONTENT_TYPE, render_prometheus, wants_prometheus
from repro.serve.autoscale import ModelSignals
from repro.serve.registry import ModelRegistry, ServedModel
from repro.serve.selfheal import (
    CIRCUIT_CLOSED,
    JournalState,
    SelfHealController,
    SelfHealPolicy,
    StateJournal,
    validate_topology,
)

def default_executor_threads() -> int:
    return max(2, min(8, os.cpu_count() or 2))


#: Batcher failure → (status, Retry-After) of the client's refusal.
_BATCH_REFUSALS = {
    QueueSaturated: (429, 0.05),
    DeadlineExceeded: (504, None),
    ExecutionFailed: (500, None),
}


def _result_meta(result) -> dict:
    return {"batch_size": result.batch_size, "queue_ms": result.queue_ms,
            "run_ms": result.run_ms}


def _parse_json_object(body: bytes) -> dict:
    """A request body as a JSON object (an empty body reads as ``{}``)."""
    try:
        doc = json.loads(body.decode() or "{}")
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise HttpError(400, f"invalid JSON body: {exc}")
    if not isinstance(doc, dict):
        raise HttpError(400, "body must be a JSON object")
    return doc


class InferenceServer:
    """The serving frontend: registry + batchers + HTTP listener.

    ``workers`` selects the execution substrate:

    * ``workers=0`` (default) — **in-process** serving, the exact
      pre-ISSUE-5 path: batches execute on this process's executor
      threads against the registry's compiled plans.  All existing
      bit-identity guarantees are pinned on this mode.
    * ``workers=N>0`` — **multi-process sharded** serving: a
      :class:`~repro.serve.router.WorkerRouter` forks ``N`` worker
      processes, each owning its plan cache and arena pools, and every
      dispatched batch travels over the shared-memory slot ring.  Each
      model is placed on ``worker_replicas`` workers (consistent
      rendezvous placement), dead workers are respawned and in-flight
      batches retried.  The registry may then be *lazy* (specs only, no
      front-end compilation).
    """

    def __init__(
        self,
        registry: ModelRegistry,
        policy: Optional[BatchPolicy] = None,
        host: str = "127.0.0.1",
        port: int = 8100,
        workers: int = 0,
        metrics: Optional[ServerMetrics] = None,
        cache: Optional[PlanCache] = None,
        threads: Optional[int] = None,
        executor_threads: Optional[int] = None,
        worker_replicas: Optional[int] = None,
        worker_health_interval: Optional[float] = 2.0,
        trace_rate: Optional[float] = None,
        trace_buffer: Optional["obs_trace.TraceBuffer"] = None,
        admission: Optional[AdmissionPolicy] = None,
        chaos: Optional[str] = None,
        worker_reply_timeout: float = 120.0,
        selfheal: Optional[SelfHealPolicy] = None,
        state_dir: Optional[str] = None,
    ):
        self.registry = registry
        self.policy = policy or BatchPolicy()
        self.host = host
        self.port = port  # updated to the bound port after start()
        self.workers = int(workers or 0)
        self.worker_replicas = worker_replicas
        self.worker_health_interval = worker_health_interval
        # Boot-time topology validation (ISSUE 9 satellite): raise the
        # typed ServeConfigError here, before any socket or fork.
        validate_topology(
            workers=self.workers,
            worker_replicas=worker_replicas or 0,
            state_dir=state_dir,
            selfheal=selfheal,
            registry=registry,
        )
        #: Self-healing control plane (docs/operations.md 'Self-healing
        #: & autoscaling runbook'): circuit breakers always run when a
        #: policy is given; the autoscaler and brownout ladder activate
        #: per the policy's fields.
        self.selfheal_policy = selfheal
        self._selfheal: Optional[SelfHealController] = (
            SelfHealController(selfheal) if selfheal is not None else None
        )
        self._selfheal_task: Optional[asyncio.Task] = None
        #: Crash-consistent decision journal (``--state-dir``).
        self._journal: Optional[StateJournal] = (
            StateJournal(state_dir) if state_dir else None
        )
        #: What journal replay recovered at boot (surfaced on /models).
        self.journal_replay: Optional[dict] = None
        #: model → ladder variant currently serving it (absent = own).
        self._active_variant: Dict[str, str] = {}
        #: Ingress gate: priority watermarks + per-tenant token buckets
        #: (docs/operations.md 'Overload & incident runbook').
        self.admission = AdmissionController(admission)
        #: Chaos spec forwarded to workers (``--chaos`` / REPRO_CHAOS).
        self.chaos = chaos
        self.worker_reply_timeout = worker_reply_timeout
        #: SIGTERM graceful drain: set by :meth:`drain` — intake answers
        #: 503 and connections close after their in-flight response.
        self._draining = False
        self.metrics = metrics or ServerMetrics()
        self.cache = cache if cache is not None else plan_cache
        #: Engine threads per dispatched batch (``repro serve --threads``,
        #: default the REPRO_THREADS environment setting): batches split
        #: into lanes on the shared engine pool, so cores are used even
        #: when one model carries all the traffic.
        #: With process workers this is forwarded to each worker's runs.
        self.threads = threads
        #: Threads that push batches off the event loop.  In worker mode
        #: each of these blocks on a worker round-trip, so the pool must
        #: cover every in-flight batch across all models.
        self.executor_threads = executor_threads
        self._batchers: Dict[str, DynamicBatcher] = {}
        self._executor: Optional[ThreadPoolExecutor] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._router = None  # WorkerRouter when workers > 0
        #: Per-model health-watch tasks (blue/green auto-rollback).
        self._watch_tasks: Dict[str, asyncio.Task] = {}
        #: Deploy/rollback history surfaced on ``/models`` (bounded).
        self.deploy_events: list = []
        #: Fraction of /predict requests recorded as end-to-end traces
        #: (``repro serve --trace-rate``; ``REPRO_TRACE=1`` defaults it
        #: to 1.0).  Sampling is counter-based — deterministic, no RNG —
        #: and 0.0 keeps the request path span-free.
        if trace_rate is None:
            trace_rate = 1.0 if obs_trace.env_enabled() else 0.0
        self.trace_rate = max(0.0, min(1.0, float(trace_rate)))
        #: Span sink shared by the batchers, the worker router, and the
        #: ``/trace`` endpoint.  Always present (an untraced server just
        #: never writes to it), so ``/trace`` has one code path.
        self.trace_buffer = (
            trace_buffer if trace_buffer is not None else obs_trace.TraceBuffer()
        )
        self._trace_counter = 0  # touched only on the event loop

    # -- lifecycle ----------------------------------------------------------
    async def start(self) -> None:
        if self._server is not None:
            return
        # Journal replay happens before the worker pool forks: deploys
        # recovered here land in registry.artifact_paths(), so workers
        # boot straight into the pre-crash artifacts.
        replay_state: Optional[JournalState] = None
        if self._journal is not None:
            replay_state = self._apply_journal_preboot()
        if self.workers > 0 and self._router is None:
            from repro.serve.router import WorkerRouter

            router = WorkerRouter(
                model_names=self.registry.names(),
                sample_shapes=[
                    self.registry.get(name).sample_shape
                    for name in self.registry.names()
                ],
                workers=self.workers,
                replicas=self.worker_replicas,
                max_batch_size=self.policy.max_batch_size,
                threads=self.threads,
                health_interval=self.worker_health_interval,
                artifacts=self.registry.artifact_paths(),
                reply_timeout=self.worker_reply_timeout,
                chaos=self.chaos,
            )
            # Fork before serving traffic: the child must not inherit
            # live connections or a mid-flight event loop.
            self._router = await asyncio.get_running_loop().run_in_executor(
                None, router.start
            )
        try:
            if self.executor_threads:
                pool_size = self.executor_threads
            elif self.workers > 0:
                # Must cover every admissible in-flight batch across all
                # models (each batcher admits replicas+1), plus one
                # thread for the /metrics worker-stats round trip.
                per_model = self._router.replicas + 1
                pool_size = max(
                    4, len(self.registry.names()) * per_model + 1
                )
            else:
                pool_size = default_executor_threads()
            self._executor = ThreadPoolExecutor(
                max_workers=pool_size, thread_name_prefix="serve-dispatch"
            )
            for name in self.registry.names():
                await self._ensure_batcher(name)
            if replay_state is not None:
                # Ladder rungs and replica overrides need live batchers
                # and a live router; apply them before the socket opens
                # so the first request already sees the recovered state.
                await self._apply_journal_postboot(replay_state)
            self._server = await asyncio.start_server(
                self._handle_connection, self.host, self.port
            )
            self.port = self._server.sockets[0].getsockname()[1]
            if self._selfheal is not None:
                self._selfheal_task = asyncio.get_running_loop().create_task(
                    self._selfheal_loop()
                )
        except BaseException:
            # A failed bind (or batcher bring-up) must not leak the
            # already-forked worker pool and its slot rings.
            await self.stop()
            raise

    async def stop(self) -> None:
        if self._selfheal_task is not None:
            task, self._selfheal_task = self._selfheal_task, None
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in self._watch_tasks.values():
            task.cancel()
        self._watch_tasks.clear()
        for batcher in self._batchers.values():
            await batcher.stop()
        self._batchers.clear()
        if self._executor is not None:
            self._executor.shutdown(wait=False)
            self._executor = None
        if self._router is not None:
            router, self._router = self._router, None
            await asyncio.get_running_loop().run_in_executor(None, router.stop)
        if self._journal is not None:
            self._journal.close()

    async def drain(self, timeout: float = 30.0) -> bool:
        """Graceful drain (the SIGTERM path): stop intake, let every
        in-flight batch finish.

        From the instant this is called, ``/predict`` answers 503 with
        ``Retry-After`` (typed ``"draining"`` reason), keep-alive
        connections close after their current response, and ``/healthz``
        reports ``degraded (draining)``.  Returns ``True`` once every
        batcher's outstanding count reached zero (no accepted request
        was dropped); ``False`` if ``timeout`` expired first.  The
        server keeps answering health/metrics/trace reads throughout —
        the operator can watch the drain — and the caller then runs
        :meth:`stop` (docs/operations.md 'Overload & incident runbook').
        """
        self._draining = True
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while sum(b.outstanding() for b in self._batchers.values()):
            if loop.time() >= deadline:
                return False
            await asyncio.sleep(0.02)
        return True

    @property
    def draining(self) -> bool:
        return self._draining

    async def serve_forever(self) -> None:
        await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    def _plan_for(
        self, name: str, served: ServedModel, route_key: Optional[str] = None
    ):
        """What executes ``served``: in process, its compiled plan; in
        worker mode, a proxy routed on the deployment's ``worker_key``
        (``name#version`` for blue/green deploys, so two versions run
        side by side while the old one drains).  ``route_key`` overrides
        the routing target — the brownout ladder serves ``name``'s
        traffic through a fallback variant's plans while keeping the
        model's own metrics stream."""
        if self._router is not None:
            from repro.serve.router import WorkerPlanProxy

            key = route_key or served.worker_key or name
            return WorkerPlanProxy(self._router, key)
        if served.plan is None:
            raise HttpError(
                500,
                f"model {name!r} was loaded lazily but the server "
                "runs in-process (workers=0)",
            )
        return served.plan

    async def _new_batcher(
        self,
        name: str,
        served: ServedModel,
        route_key: Optional[str] = None,
    ) -> DynamicBatcher:
        """Build + start a batcher for one deployment of ``name``
        (``route_key`` as in :meth:`_plan_for`)."""
        plan = self._plan_for(name, served, route_key)
        if self._router is not None:
            # Process workers execute truly in parallel (no GIL), so
            # keep one batch in flight per replica plus one coalescing.
            max_inflight = self._router.replicas_for(plan.model) + 1
        else:
            # Concurrent batches only pay off with real parallelism:
            # on a single-core host one full batch beats two
            # interleaved half-batches (cache + fixed costs) — and
            # admission must never exceed the dispatch pool actually
            # configured, or half-batches just queue on its threads.
            max_inflight = max(
                1,
                min(
                    self.executor_threads or default_executor_threads(),
                    os.cpu_count() or 1,
                ),
            )
        batcher = DynamicBatcher(
            plan,
            policy=self.policy,
            executor=self._executor,
            metrics=self.metrics.for_model(name),
            name=name,
            max_inflight=max_inflight,
            threads=self.threads,
            tracer=self.trace_buffer,
        )
        await batcher.start()
        return batcher

    async def _ensure_batcher(self, name: str) -> DynamicBatcher:
        batcher = self._batchers.get(name)
        if batcher is None:
            served = self.registry.get(name)
            batcher = await self._new_batcher(name, served)
            self._batchers[name] = batcher
        return batcher

    async def _cut_over(
        self,
        name: str,
        served: ServedModel,
        route_key: Optional[str] = None,
        drain_timeout: float = 60.0,
    ) -> bool:
        """The one zero-drop swap behind deploys, rollbacks and brownout
        steps: swap the batcher pointer first (new requests go to
        ``served``), then drain the old batcher (it answers everything it
        already accepted).  Returns whether the drain reached zero."""
        old_batcher = self._batchers.get(name)
        self._batchers[name] = await self._new_batcher(name, served, route_key)
        if old_batcher is None:
            return True
        return await old_batcher.drain_and_stop(timeout=drain_timeout)

    # -- self-healing control plane -----------------------------------------
    def _journal_append(self, record: dict) -> None:
        if self._journal is None:
            return
        try:
            self._journal.append(record)
        except OSError:
            # A full or read-only state dir must not take serving down
            # with it — the journal degrades, the data plane does not.
            pass

    def _route_key_for(self, name: str) -> str:
        """The worker-pool key currently serving ``name``'s traffic: its
        active ladder variant's deployment, or its own."""
        target = self._active_variant.get(name, name)
        if target not in self.registry:
            return target
        return self.registry.get(target).worker_key or target

    def _apply_journal_preboot(self) -> JournalState:
        """Replay the journal before the worker pool forks.

        Re-installs every journaled deploy into the registry so
        ``registry.artifact_paths()`` hands the router the pre-crash
        artifacts — after a ``kill -9`` the restarted server recovers
        every model at its deployed content hash with zero manual
        re-deploys.  A deploy whose artifact vanished is dropped from
        the recovered state (and reported on ``/metrics``), never
        fatal: the boot flags' models still serve.
        """
        from repro.serve.registry import load_artifact_served

        records = self._journal.replay()
        state = JournalState.from_records(records)
        restored: List[str] = []
        skipped: List[str] = []
        for model, deploy in sorted(state.deploys.items()):
            artifact = deploy.get("artifact")
            version = deploy.get("version")
            active = self.registry.get(model) if model in self.registry else None
            if active is not None and active.version == version:
                # The boot flags already loaded this exact deployment;
                # re-installing would re-version it (install() refuses
                # version collisions) and break content-hash recovery.
                restored.append(model)
                continue
            try:
                served = load_artifact_served(artifact, lazy=self.workers > 0)
            except Exception:  # vanished, unreadable or unnamed artifact
                skipped.append(model)
                state.deploys.pop(model, None)
                continue
            self.registry.install(served)
            restored.append(model)
        self.journal_replay = {
            "records": len(records),
            "torn_records": self._journal.torn_records,
            "deploys_restored": restored,
            "deploys_skipped": skipped,
            "replicas": dict(state.replicas),
            "ladders": {m: dict(r) for m, r in state.ladders.items()},
        }
        return state

    async def _apply_journal_postboot(self, state: JournalState) -> None:
        """Re-apply ladder rungs and replica counts once batchers and the
        worker pool exist, then compact the journal to the state that
        actually took effect (replaying a replay stays O(models)).

        Ladders first: a journaled replica count applies to whatever
        variant is serving the model, so the rung must be restored
        before the scale."""
        applied = JournalState(deploys=dict(state.deploys))
        for model, rung in sorted(state.ladders.items()):
            ladder = self._selfheal.ladder(model) if self._selfheal else None
            if ladder is None:
                continue
            try:
                position = int(rung.get("position", 0))
            except (TypeError, ValueError):
                continue
            if position <= 0:
                continue
            try:
                await self._activate_variant(
                    model, position, reason="journal replay", journal=False
                )
            except (KeyError, HttpError):
                continue
            applied.ladders[model] = {
                "position": ladder.position,
                "variant": ladder.variant,
            }
        if self._router is not None:
            for model, count in sorted(state.replicas.items()):
                try:
                    await self.set_model_replicas(
                        model, count, reason="journal replay", journal=False
                    )
                except (KeyError, HttpError):
                    continue
                applied.replicas[model] = self._router.replicas_for(
                    self._route_key_for(model)
                )
        if self._journal is not None:
            self._journal.compact(applied.to_records())

    async def set_model_replicas(
        self,
        name: str,
        count: int,
        reason: str = "autoscale",
        journal: bool = True,
    ) -> dict:
        """Resize one model's worker-replica set without dropping a
        single in-flight batch (worker mode only).

        Rendezvous placement makes replica sets prefix-stable: growing
        loads the plan on the newly ranked workers *before* they become
        routable; shrinking just stops routing to the tail — batches
        already dispatched to a retired replica still complete.
        """
        if self._router is None:
            raise HttpError(
                409, "replica scaling requires worker mode (--workers N)"
            )
        route_key = self._route_key_for(name)
        before = self._router.replicas_for(route_key)
        assigned = await self._off_loop(
            self._router.set_replicas, route_key, count
        )
        after = self._router.replicas_for(route_key)
        batcher = self._batchers.get(name)
        if batcher is not None:
            # Admission tracks capacity: one batch in flight per
            # replica plus one coalescing, resized live.
            batcher.resize_inflight(after + 1)
        event = {
            "action": "scale",
            "model": name,
            "route_key": route_key,
            "from_replicas": before,
            "to_replicas": after,
            "assigned_workers": assigned,
            "reason": reason,
        }
        self._record_event(event)
        if journal:
            self._journal_append(
                {"event": "scale", "model": name, "replicas": after}
            )
        return event

    async def _activate_variant(
        self,
        name: str,
        position: int,
        reason: str = "",
        journal: bool = True,
    ) -> dict:
        """Serve ``name``'s traffic from ladder rung ``position`` — the
        same atomic batcher swap as a blue/green cutover, so no accepted
        request is dropped while quality steps down (or back up)."""
        if self._selfheal is None:
            raise HttpError(409, "no self-heal policy configured")
        ladder = self._selfheal.ladder(name)
        if ladder is None:
            raise HttpError(409, f"model {name!r} has no brownout ladder")
        ladder.set_position(position)
        variant = ladder.variant
        vserved = self.registry.get(variant)  # presence validated at boot
        prev_variant = self._active_variant.get(name, name)
        drained = await self._cut_over(
            name, vserved, route_key=vserved.worker_key or variant
        )
        if variant == name:
            self._active_variant.pop(name, None)
        else:
            self._active_variant[name] = variant
        event = {
            "action": "brownout",
            "model": name,
            "position": ladder.position,
            "variant": variant,
            "previous_variant": prev_variant,
            "drained": drained,
            "reason": reason,
        }
        self._record_event(event)
        if journal:
            self._journal_append(
                {
                    "event": "ladder",
                    "model": name,
                    "position": ladder.position,
                    "variant": variant,
                }
            )
        return event

    def _collect_signals(self) -> Dict[str, ModelSignals]:
        """One control tick's observations, straight off the live
        batchers/metrics — cumulative counters; the controller diffs."""
        fallback_variants = set()
        for ladder in self._selfheal.ladders().values():
            fallback_variants.update(ladder.chain[1:])
        signals: Dict[str, ModelSignals] = {}
        for name in self.registry.names():
            if name in fallback_variants:
                # Fallback rungs are scaled/degraded through their
                # parent model, never independently.
                continue
            metrics = self.metrics.for_model(name)
            batcher = self._batchers.get(name)
            replicas = 1
            if self._router is not None:
                replicas = self._router.replicas_for(self._route_key_for(name))
            signals[name] = ModelSignals(
                queue_fill=batcher.queue_fill() if batcher is not None else 0.0,
                shed_total=metrics.shed_total,
                deadline_exceeded_total=metrics.deadline_exceeded_total,
                errors_total=metrics.errors_total,
                replicas=replicas,
            )
        return signals

    async def _selfheal_tick(self) -> List[dict]:
        """Collect signals, tick the controller, apply its actions."""
        actions = self._selfheal.tick(self._collect_signals())
        applied = []
        for action in actions:
            try:
                if action.kind == "probe":
                    await self._probe_circuit(action.model)
                elif action.kind == "scale" and self._router is not None:
                    applied.append(
                        await self.set_model_replicas(
                            action.model, action.value, reason=action.reason
                        )
                    )
                elif action.kind == "ladder":
                    applied.append(
                        await self._activate_variant(
                            action.model, action.value, reason=action.reason
                        )
                    )
            except HttpError:
                continue
        return applied

    async def _selfheal_loop(self) -> None:
        """The healer itself: tick every ``interval_s`` until cancelled.
        It must never kill the server it heals — every tick failure is
        swallowed (the next tick retries from fresh signals)."""
        interval = max(0.01, self._selfheal.policy.interval_s)
        while True:
            await asyncio.sleep(interval)
            if self._draining:
                continue
            try:
                await self._selfheal_tick()
            except Exception:  # CancelledError is not an Exception
                continue

    async def _probe_circuit(self, name: str) -> None:
        """Half-open probe: one operator-invisible sample through the
        model (its active ladder variant).  Pass → circuit closes and
        clients flow again; fail → re-open for another hold-off."""
        breaker = self._selfheal.circuit(name)
        if not breaker.ready_for_probe():
            return
        breaker.begin_probe()
        target = self._active_variant.get(name, name)
        try:
            await self._probe_served(target, self.registry.get(target))
            ok = True
        except Exception:
            ok = False
        breaker.probe_result(ok)
        self._record_event({"action": "circuit_probe", "model": name, "ok": ok})

    # -- blue/green deploys -------------------------------------------------
    async def _off_loop(self, fn, *args):
        """Run a blocking call (a worker round trip, a plan run) on the
        dispatch pool instead of the event loop."""
        return await asyncio.get_running_loop().run_in_executor(
            self._executor, fn, *args
        )

    def _record_event(self, event: dict) -> None:
        self.deploy_events.append(event)
        del self.deploy_events[:-20]  # keep the last 20

    async def _probe_served(self, name: str, served: ServedModel) -> float:
        """Run one deterministic sample through the new deployment before
        any traffic reaches it (dead-on-arrival artifacts fail here, not
        on client requests).  Returns the probe latency in ms."""
        x = np.zeros((1,) + tuple(served.sample_shape), dtype=np.float32)
        plan = self._plan_for(name, served)
        loop = asyncio.get_running_loop()
        t0 = loop.time()
        await self._off_loop(plan.run, x)
        return (loop.time() - t0) * 1e3

    async def deploy_served(
        self,
        served: ServedModel,
        watch_s: float = 0.0,
        probe: bool = True,
        drain_timeout: float = 60.0,
    ) -> dict:
        """Blue/green cutover to a new deployment of ``served.name``.

        Sequence (docs/operations.md 'Blue/green deploys and rollback'):
        load into the worker pool (worker mode), probe one sample
        through the new plan, atomically swap the active batcher (new
        requests land on the new version from that point on), drain the
        old batcher to zero outstanding requests, then watch
        ``errors_total`` for ``watch_s`` seconds and auto-rollback on
        any execution-error regression.  No request is dropped at any
        point: the old version answers everything it accepted.
        """
        name = served.name
        evicted = self.registry.previous(name)
        had_active = name in self.registry
        old = self.registry.install(served)  # assigns the final version
        load_ms = None
        try:
            if self._router is not None:
                if not served.artifact:
                    raise HttpError(
                        400,
                        "worker-mode deploys need a plan artifact "
                        "(repro compile; docs/operations.md "
                        "'Compile-then-deploy')",
                    )
                served.worker_key = f"{name}#{served.version}"
                load_times = await self._off_loop(
                    self._router.load_model, served.worker_key, served.artifact
                )
                load_ms = max(load_times.values()) if load_times else 0.0
            elif served.plan is None:
                raise HttpError(
                    400, f"model {name!r}: in-process deploys need a plan"
                )
            probe_ms = await self._probe_served(name, served) if probe else None
        except BaseException as exc:
            # Undo the install — the old deployment never stopped serving.
            if had_active:
                self.registry.rollback(name)
            else:
                self.registry.remove(name)
            if isinstance(exc, HttpError):
                raise
            raise HttpError(
                500, f"model {name!r}: deploy rejected at probe: {exc}"
            ) from exc

        drained = await self._cut_over(name, served, drain_timeout=drain_timeout)
        if (
            self._router is not None
            and evicted is not None
            and evicted.worker_key
            and evicted.worker_key != served.worker_key
        ):
            # The deployment that just fell out of the one-deep rollback
            # history has no path back into service — retire its worker
            # plans.
            await self._off_loop(self._router.unload_model, evicted.worker_key)
        watching = bool(watch_s and watch_s > 0 and old is not None)
        if watching:
            prior = self._watch_tasks.pop(name, None)
            if prior is not None:
                prior.cancel()
            self._watch_tasks[name] = asyncio.get_running_loop().create_task(
                self._health_watch(name, served.version, watch_s)
            )
        event = {
            "action": "deploy",
            "model": name,
            "version": served.version,
            "previous_version": old.version if old is not None else None,
            "artifact": served.artifact,
            "drained": drained,
            "load_ms": load_ms,
            "probe_ms": probe_ms,
            "watch_s": watch_s if watching else None,
        }
        self._record_event(event)
        self._journal_deployment(served)
        return event

    async def rollback_model(self, name: str, reason: str = "requested") -> dict:
        """Swap ``name`` back to its previous deployment (same zero-drop
        cutover as a deploy, in reverse)."""
        previous = self.registry.previous(name)
        if previous is None:
            raise HttpError(
                409, f"model {name!r} has no previous version to roll back to"
            )
        watch = self._watch_tasks.pop(name, None)
        if watch is not None and watch is not asyncio.current_task():
            # (The health watch itself calls in here on a regression —
            # cancelling the current task would abort the rollback at
            # its next await.)
            watch.cancel()
        regressed = self.registry.get(name)
        self.registry.rollback(name)
        drained = await self._cut_over(name, previous)
        event = {
            "action": "rollback",
            "model": name,
            "version": previous.version,
            "previous_version": regressed.version,
            "reason": reason,
            "drained": drained,
        }
        self._record_event(event)
        self._journal_deployment(previous)
        return event

    def _journal_deployment(self, served: ServedModel) -> None:
        """Journal the deployment now serving ``served.name``.  Only
        artifact-backed deployments are journaled — a restarted process
        can re-install those from disk; an in-process one (a rollback
        onto the boot deployment) clears the entry, since the boot
        flags alone reproduce it."""
        if served.artifact:
            self._journal_append(
                {
                    "event": "deploy",
                    "model": served.name,
                    "artifact": served.artifact,
                    "version": served.version,
                }
            )
        else:
            self._journal_append({"event": "remove", "model": served.name})

    async def _health_watch(
        self, name: str, version: str, watch_s: float
    ) -> None:
        """Post-cutover watchdog: any ``errors_total`` growth (kernel /
        worker execution failures — rejections and deadline misses are
        load signals, not health) within ``watch_s`` of the cutover
        rolls the model back automatically."""
        metrics = self.metrics.for_model(name)
        baseline = metrics.errors_total
        loop = asyncio.get_running_loop()
        deadline = loop.time() + watch_s
        try:
            while loop.time() < deadline:
                await asyncio.sleep(min(0.05, watch_s))
                if self.registry.get(name).version != version:
                    return  # re-deployed or manually rolled back under us
                if metrics.errors_total > baseline:
                    await self.rollback_model(
                        name,
                        reason=(
                            f"health regression: +"
                            f"{metrics.errors_total - baseline} execution "
                            f"errors within {watch_s:g}s of cutover"
                        ),
                    )
                    return
        finally:
            task = self._watch_tasks.get(name)
            if task is asyncio.current_task():
                self._watch_tasks.pop(name, None)

    # -- connections ------------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        """Keep-alive loop: read → :meth:`_route` → write, one reply path
        for routes and framing faults alike (``repro.serve.http``)."""
        try:
            while True:
                request = None
                status, retry_after = 200, None
                try:
                    request = await read_request(reader)
                    if request is None:
                        break
                    request_id = request.request_id
                    payload = await self._route(request)
                except HttpError as exc:
                    status, retry_after = exc.status, exc.retry_after
                    payload = exc.payload()
                    if request is None:  # framing fault
                        request_id = exc.request_id
                # A framing fault leaves the stream unsynchronised, and a
                # draining server closes every connection after its
                # in-flight response: clients reconnect, see the refusal,
                # and back off to another replica.
                close = (
                    request is None or not request.keep_alive or self._draining
                )
                extra = [f"X-Request-Id: {request_id}"]
                if isinstance(payload, dict) and "served_variant" in payload:
                    extra.append(
                        f"X-Served-Variant: {payload['served_variant']}"
                    )
                await write_response(
                    writer, status, payload, close=close,
                    retry_after=retry_after, extra_headers=extra,
                )
                if request is None:
                    await linger(reader, writer)
                if close:
                    break
        except (
            asyncio.IncompleteReadError,
            asyncio.CancelledError,  # loop teardown with the connection open
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (
                # Loop teardown cancels handler tasks mid-close; swallowing
                # here lets the task finish clean instead of logging one
                # "Exception in callback" per open keep-alive connection.
                asyncio.CancelledError,
                ConnectionResetError,
                BrokenPipeError,
            ):
                pass

    # -- routing ------------------------------------------------------------
    async def _route(self, request: Request):
        method, path = request.method, request.path
        if path == "/predict":
            if method != "POST":
                raise HttpError(405, "/predict requires POST")
            return await self._predict(request)
        if path == "/models" and method == "POST":
            return await self._models_post(request.body)
        if method not in ("GET", "HEAD"):
            raise HttpError(405, f"{path} requires GET")
        if path == "/healthz":
            # Three-state health: "ok", "degraded" (+ machine-readable
            # reasons — still serving, but an operator should look), and
            # the implicit third state of not answering at all.
            reasons = []
            if self._draining:
                reasons.append("draining")
            if self.admission.shedding_recently():
                reasons.append("shedding")
            if self._router is not None and self._router.respawning():
                reasons.append("worker respawning")
            if self._selfheal is not None:
                heal = self._selfheal.snapshot()
                for model, circuit in sorted(heal["circuits"].items()):
                    if circuit["state"] != CIRCUIT_CLOSED:
                        reasons.append(
                            f"circuit {circuit['state']}: {model}"
                        )
                for model, ladder in sorted(heal["ladders"].items()):
                    if ladder["position"] > 0:
                        reasons.append(
                            f"brownout: {model} serving {ladder['variant']}"
                        )
            return {
                "status": "degraded" if reasons else "ok",
                "reasons": reasons,
                "models": self.registry.names(),
                "uptime_s": self.metrics.uptime_s(),
            }
        if path == "/models":
            return {
                "models": self.registry.describe(),
                "policy": self.policy.to_dict(),
                "deploy_events": list(self.deploy_events),
                "selfheal": (
                    self.selfheal_policy.to_dict()
                    if self.selfheal_policy is not None
                    else None
                ),
                "journal_replay": self.journal_replay,
            }
        if path == "/trace":
            return self._trace_endpoint(request.query)
        if path == "/metrics":
            if wants_prometheus(request.headers.get("accept")):
                # Pool counters plus each worker's last-known stats (the
                # health monitor's pings keep them fresh): no round trip.
                worker_info = None
                if self._router is not None:
                    worker_info = self._router.stats(refresh=False)
                text = render_prometheus(
                    self.metrics, trace_info=self._trace_info(),
                    worker_info=worker_info,
                    selfheal_info=self._selfheal_info(),
                )
                return RawResponse(text.encode("utf-8"), PROM_CONTENT_TYPE)
            snap = self.metrics.snapshot(plan_cache_stats=self.cache.stats())
            snap["policy"] = self.policy.to_dict()
            snap["workers"] = self.workers
            snap["engine_threads"] = self.threads
            snap["plan_memory"] = self.cache.memory_stats()
            snap["trace"] = self._trace_info()
            snap["admission"] = self.admission.snapshot()
            snap["draining"] = self._draining
            selfheal_info = self._selfheal_info()
            if selfheal_info is not None:
                snap["selfheal"] = selfheal_info
            if self._journal is not None:
                snap["journal"] = self._journal.snapshot()
            if self.journal_replay is not None:
                snap["journal_replay"] = self.journal_replay
            if self._router is not None:
                # Per-worker queue depth / restarts / shm bytes, plus the
                # workers' own plan-cache and arena stats (each worker
                # owns its cache — the front-end one above stays cold in
                # worker mode).  The stats ping blocks on worker round
                # trips, so it runs off the event loop.
                snap["worker_pool"] = await self._off_loop(self._router.stats)
            return snap
        raise HttpError(404, f"no route {path!r}")

    def _selfheal_info(self) -> Optional[dict]:
        """The controller snapshot plus live replica counts and the
        active ladder variants — what /metrics (JSON and Prometheus)
        exposes for the runbook's dashboards."""
        if self._selfheal is None:
            return None
        info = self._selfheal.snapshot()
        info["active_variants"] = dict(self._active_variant)
        if self._router is not None:
            info["replicas"] = {
                name: self._router.replicas_for(self._route_key_for(name))
                for name in self.registry.names()
            }
        return info

    # -- tracing ------------------------------------------------------------
    def _trace_info(self) -> dict:
        return {
            "rate": self.trace_rate,
            "buffer_spans": len(self.trace_buffer),
            "buffer_capacity": self.trace_buffer.capacity,
            "dropped": self.trace_buffer.dropped,
        }

    def _trace_endpoint(self, query: str) -> dict:
        """``GET /trace`` — the span buffer as Chrome trace-event JSON
        (Perfetto-loadable; the default) or raw span dicts
        (``?format=spans``, what ``repro loadgen --dump-slowest`` uses to
        rebuild span trees).  ``?request_id=<id>`` narrows to one
        request's spans plus their descendants."""
        params = urllib.parse.parse_qs(query)
        spans = self.trace_buffer.snapshot()
        rid = params.get("request_id", [None])[0]
        if rid:
            spans = obs_trace.filter_request(spans, rid)
        fmt = params.get("format", ["chrome"])[0]
        if fmt == "spans":
            return {
                "spans": [s.to_dict() for s in spans],
                "dropped": self.trace_buffer.dropped,
                "trace_rate": self.trace_rate,
            }
        if fmt != "chrome":
            raise HttpError(400, f"unknown format {fmt!r} (chrome or spans)")
        return to_chrome_trace(spans, default_proc="frontend")

    def _sample_trace(self) -> bool:
        """Deterministic counter-based sampling at ``trace_rate`` (no RNG:
        a rate of 1/N traces exactly every Nth /predict request)."""
        rate = self.trace_rate
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        self._trace_counter += 1
        period = max(1, round(1.0 / rate))
        return self._trace_counter % period == 1

    async def _models_post(self, body: bytes) -> dict:
        """``POST /models`` — blue/green deploy or rollback.

        Deploy:   ``{"artifact": path, "watch_s"?: s, "probe"?: bool}``
        Rollback: ``{"action": "rollback", "model": name}``

        See docs/operations.md 'Blue/green deploys and rollback'.
        """
        request = _parse_json_object(body)
        action = request.get("action", "deploy")
        if action == "rollback":
            name = request.get("model")
            if not name:
                raise HttpError(400, "rollback requires 'model'")
            if name not in self.registry:
                raise HttpError(404, f"unknown model {name!r}")
            return await self.rollback_model(name)
        if action != "deploy":
            raise HttpError(
                400, f"unknown action {action!r} (deploy or rollback)"
            )
        artifact = request.get("artifact")
        if not artifact or not isinstance(artifact, str):
            raise HttpError(400, "deploy requires an 'artifact' path")
        watch_s = request.get("watch_s", 0.0)
        if not isinstance(watch_s, (int, float)) or watch_s < 0:
            raise HttpError(400, "'watch_s' must be a non-negative number")
        probe = request.get("probe", True)
        from repro.engine.artifact import ArtifactError
        from repro.serve.registry import load_artifact_served

        try:
            # Off the loop: the content-hash check reads the whole file.
            served = await self._off_loop(
                load_artifact_served, artifact, self._router is not None
            )
        except FileNotFoundError:
            raise HttpError(404, f"no artifact at {artifact!r}")
        except ArtifactError as exc:
            raise HttpError(400, f"bad artifact {artifact!r}: {exc}")
        return await self.deploy_served(
            served, watch_s=float(watch_s), probe=bool(probe)
        )

    @staticmethod
    def _decode_b64(sample, served) -> np.ndarray:
        """Decode one ``encoding: "b64"`` sample — zero-copy past decode.

        The wire form is base64 of raw little-endian float32 bytes in C
        order, shaped like the model's sample.  ``np.frombuffer`` views
        the decoded bytes directly and the reshape (plus the batch-axis
        expansion in ``validate_input``) stays a view, so the only
        full-tensor pass between the socket and the engine's input
        register is the unavoidable base64 decode itself.
        """
        if not isinstance(sample, str):
            raise HttpError(400, "b64 encoding expects base64 strings")
        try:
            raw = base64.b64decode(sample, validate=True)
        except (binascii.Error, ValueError) as exc:
            raise HttpError(400, f"invalid base64 sample: {exc}")
        expected = int(np.prod(served.sample_shape)) * 4
        if len(raw) != expected:
            raise HttpError(
                400,
                f"b64 sample has {len(raw)} bytes; model {served.name!r} "
                f"expects {expected} (float32 {served.sample_shape})",
            )
        return np.frombuffer(raw, dtype="<f4").reshape(served.sample_shape)

    @staticmethod
    def _encode_output(output: np.ndarray, encoding: str):
        """One request's output slice → wire form.

        ``b64`` requests get their outputs back as base64 float32 too:
        the encode is two bulk passes (tobytes + b64) instead of
        ``tolist()``'s per-element float formatting, and the round trip
        is bit-exact by construction rather than via decimal repr.
        """
        if encoding == "b64":
            return base64.b64encode(
                np.ascontiguousarray(output, dtype="<f4").tobytes()
            ).decode("ascii")
        return output.tolist()

    async def _predict(self, request: Request) -> dict:
        """Sampling wrapper: when this request is traced, wrap the whole
        handler in a root ``request`` span every downstream span (queue
        wait, batch, shm transport, worker kernel steps) hangs off."""
        if not self._sample_trace():
            return await self._predict_inner(request, None)
        root_id = obs_trace.new_span_id()
        t0 = obs_trace.now_ns()
        status = 200
        model = None
        try:
            response = await self._predict_inner(request, root_id)
            model = response.get("model")
            return response
        except HttpError as exc:
            status = exc.status
            raise
        finally:
            self.trace_buffer.record(
                "request",
                "serve",
                t0,
                attrs={"path": "/predict", "status": status, "model": model},
                span_id=root_id,
                request_id=request.request_id,
                proc="frontend",
            )

    async def _predict_inner(
        self, http_request: Request, trace_parent: Optional[str]
    ) -> dict:
        headers, request_id = http_request.headers, http_request.request_id
        if self._draining:
            # Typed drain refusal: nothing new is accepted, clients are
            # told to come back elsewhere (or later).
            raise HttpError(
                503, "server draining: not accepting new requests",
                retry_after=1.0,
            )
        request = _parse_json_object(http_request.body)
        names = self.registry.names()
        name = request.get("model")
        if name is None:
            if len(names) != 1:
                raise HttpError(
                    400, f"'model' is required when {len(names)} models are loaded"
                )
            name = names[0]
        try:
            served = self.registry.get(name)
        except KeyError as exc:
            raise HttpError(404, str(exc))
        if self._selfheal is not None:
            # Circuit gate: an open (or half-open) circuit fails fast
            # before any decode/queue work — clients see a typed 503
            # with Retry-After and never pile onto a broken model.
            allowed, retry_after = self._selfheal.allow(name)
            if not allowed:
                raise HttpError(
                    503,
                    f"model {name!r}: circuit open, failing fast "
                    "(docs/operations.md 'Self-healing & autoscaling "
                    "runbook')",
                    retry_after=retry_after,
                    reason="circuit_open",
                )
        deadline_ms = request.get("deadline_ms")
        if deadline_ms is not None and not isinstance(deadline_ms, (int, float)):
            raise HttpError(400, "'deadline_ms' must be a number")
        encoding = request.get("encoding", "json")
        if encoding not in ("json", "b64"):
            raise HttpError(400, f"unknown encoding {encoding!r} (json or b64)")
        # Admission control (ISSUE 8): priority class from the body or
        # the X-Priority header, tenant likewise; the gate runs before
        # any decode work so a shed request costs nearly nothing.
        try:
            priority = resolve_priority(
                request.get("priority") or headers.get("x-priority")
            )
        except ValueError as exc:
            raise HttpError(400, str(exc))
        tenant = request.get("tenant") or headers.get("x-tenant") or None
        if tenant is not None and not isinstance(tenant, str):
            raise HttpError(400, "'tenant' must be a string")
        gate = self._batchers.get(name)
        try:
            level = self.admission.admit(
                priority,
                gate.queue_fill() if gate is not None else 0.0,
                tenant,
            )
        except RequestShed as exc:
            self.metrics.for_model(name).on_shed()
            raise HttpError(
                429, f"request shed: {exc.reason}",
                retry_after=exc.retry_after,
            )

        if "inputs" in request:
            raw_samples = request["inputs"]
            if not isinstance(raw_samples, list) or not raw_samples:
                raise HttpError(400, "'inputs' must be a non-empty list of samples")
            single = False
        elif "input" in request:
            raw_samples = [request["input"]]
            single = True
        else:
            raise HttpError(400, "missing 'input' (one sample) or 'inputs' (list)")

        try:
            if encoding == "b64":
                raw_samples = [self._decode_b64(s, served) for s in raw_samples]
            samples = [served.validate_input(s) for s in raw_samples]
        except (ValueError, TypeError) as exc:
            raise HttpError(400, str(exc))

        # Blue/green cutover can race this handler: it may look up the old
        # batcher right before the deploy swaps the pointer and drains it.
        # Submission (or an in-flight request at a drain timeout) then
        # fails with BatcherStopped — refresh the lookup and retry against
        # the freshly installed batcher, so clients never observe the
        # swap (docs/operations.md 'Blue/green deploys and rollback').
        submit_kwargs = dict(
            deadline_ms=deadline_ms, request_id=request_id,
            trace_parent=trace_parent, priority=level,
        )
        for attempt in range(5):
            batcher = await self._ensure_batcher(name)
            tasks = []
            try:
                if len(samples) == 1:  # hot path: no gather/task machinery
                    results = [await batcher.submit(samples[0], **submit_kwargs)]
                else:
                    tasks = [
                        asyncio.ensure_future(batcher.submit(s, **submit_kwargs))
                        for s in samples
                    ]
                    results = await asyncio.gather(*tasks)
                break
            except (
                BatcherStopped, QueueSaturated, DeadlineExceeded, ExecutionFailed
            ) as exc:
                # Cancel a failed multi-sample request's siblings: a
                # cancelled future is skipped at batch dispatch, so they
                # neither burn engine time nor inflate the metrics after
                # the client has already received the error.
                for task in tasks:
                    task.cancel()
                if isinstance(exc, BatcherStopped):
                    await asyncio.sleep(0.01)
                    continue
                if isinstance(exc, ExecutionFailed) and self._selfheal is not None:
                    # Deterministic model failure — the only signal that
                    # trips the circuit (sheds/deadlines are load, not
                    # health).
                    self._selfheal.record_error(name)
                status, retry_after = _BATCH_REFUSALS[type(exc)]
                raise HttpError(status, str(exc), retry_after=retry_after)
        else:
            raise HttpError(
                503,
                f"model {name!r}: deployment cutover in progress",
                retry_after=0.1,
            )
        if self._selfheal is not None:
            self._selfheal.record_success(name)
        if encoding == "json" and not all(
            np.isfinite(r.output[0]).all() for r in results
        ):
            # JSON has no NaN/Infinity.  The model ran fine (the circuit
            # saw a success above); the input drove it out of range, so
            # refuse with a typed error rather than send an invalid body.
            # b64 replies carry the raw float32 bits and are unaffected.
            raise HttpError(
                422,
                f"model {name!r} produced non-finite outputs, which JSON "
                "cannot encode; request encoding 'b64' for raw float32",
                reason="non_finite_output",
            )

        if single:
            response = {
                "model": name,
                "output": self._encode_output(results[0].output[0], encoding),
                **_result_meta(results[0]),
            }
        else:
            response = {
                "model": name,
                "outputs": [
                    self._encode_output(r.output[0], encoding) for r in results
                ],
                "meta": [_result_meta(r) for r in results],
            }
        if encoding == "b64":
            response["encoding"] = "b64"
            response["output_shape"] = list(results[0].output[0].shape)
        if self._selfheal is not None and self._selfheal.ladder(name) is not None:
            # Brownout transparency: laddered models always say which
            # rung answered (lifted into the X-Served-Variant header).
            response["served_variant"] = self._active_variant.get(name, name)
        response["request_id"] = request_id
        return response


# ---------------------------------------------------------------------------
# Background runner (tests, benchmarks, examples)
# ---------------------------------------------------------------------------


class ServerHandle:
    """A server running on a daemon thread with its own event loop."""

    def __init__(self, server: InferenceServer):
        self.server = server
        self._ready = threading.Event()
        self._failure: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    @property
    def base_url(self) -> str:
        return f"http://{self.server.host}:{self.server.port}"

    def start(self, timeout: float = 30.0) -> "ServerHandle":
        if not self._thread.is_alive() and not self._ready.is_set():
            self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("server did not become ready in time")
        if self._failure is not None:
            raise RuntimeError("server failed to start") from self._failure
        return self

    def _run(self) -> None:
        async def main():
            self._stop_event = asyncio.Event()
            try:
                await self.server.start()
            except BaseException as exc:
                self._failure = exc
                self._ready.set()
                return
            self._loop = asyncio.get_running_loop()
            self._ready.set()
            try:
                await self._stop_event.wait()
            finally:
                await self.server.stop()

        asyncio.run(main())

    def drain(self, timeout: float = 30.0) -> bool:
        """Run the server's graceful drain from the caller's thread."""
        if self._loop is None:
            return True
        future = asyncio.run_coroutine_threadsafe(
            self.server.drain(timeout), self._loop
        )
        return future.result(timeout + 5.0)

    def stop(self, timeout: float = 10.0) -> None:
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout)

    def __enter__(self) -> "ServerHandle":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_in_background(
    registry: ModelRegistry, port: int = 0, **server_kwargs
) -> ServerHandle:
    """Start an :class:`InferenceServer` on a daemon thread (ephemeral port
    by default) and block until it accepts connections.  Every keyword
    is forwarded to :class:`InferenceServer` (``workers``, ``selfheal``,
    ``state_dir``, ...)."""
    server = InferenceServer(registry, port=port, **server_kwargs)
    return ServerHandle(server).start(timeout=300.0)
