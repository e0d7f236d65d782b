"""The dynamic micro-batcher: concurrent requests → engine batches.

One :class:`DynamicBatcher` runs per served model.  Requests arrive as
single samples ``(1, C, H, W)`` on a bounded asyncio queue; a collector
coroutine pulls the first request and everything already queued behind
it, then keeps absorbing more until either ``max_batch_size`` is reached
or ``max_wait_ms`` has elapsed, stacks the group into one array, and
executes the compiled plan **once** on a worker thread (NumPy kernels
release the GIL inside BLAS, so plan execution off the event loop gives
real parallelism).  Per-sample outputs are then sliced back to each
request's future.  Every engine kernel is row-independent along the
batch axis, so coalescing is invisible to the caller: bit-exactly on the
``reference`` backend (fixed-size per-tile kernels), and to float
tolerance on ``fast`` (large fused GEMMs, whose BLAS blocking — and
hence last-ulp rounding — can vary with batch shape).

The window is only worth waiting when batch-mates are coming.
:meth:`DynamicBatcher.submit` records the gaps between the last
:data:`GAP_HISTORY` arrivals; when their median and the latest gap both
exceed ``max_wait_ms`` no co-rider is due within the window, so the
collector dispatches what it already holds at once
(``close_reason="sparse"``).  A quiet server thus answers a lone request
without paying the window, while a closed-loop wave or an overload
backlog, whose gaps are tiny, coalesces as before.  A burst after quiet
traffic sends its first request alone, and the rest, each arriving
inside the window of its predecessor, wait for one another.  With no
gap history yet the collector waits, so a first burst coalesces whole.
``max_wait_ms`` keeps its meaning: the longest a request may wait for
co-riders.

Failure policy:

* queue full → :class:`QueueSaturated` (the server maps it to HTTP 429);
* request older than its deadline at formation or dispatch time → never
  executed, :class:`DeadlineExceeded` (HTTP 504);
* kernel failure → the whole batch gets :class:`ExecutionFailed` (HTTP 500).

Overload behaviour (ISSUE 8): the queue is a **priority queue** — the
admission layer (:mod:`repro.serve.admission`) tags each request with a
priority level and under backlog the collector forms batches from the
most important traffic first.  Batch formation is **deadline-aware**:

* a request already past its deadline when the collector picks it up is
  expelled *at formation* — typed 504, never stacked, never executed
  (the batch span's ``request_ids`` attr lists only executed members,
  which is what the overload benchmark's never-executed assertion
  checks against);
* the collector tracks an EWMA of recent batch run times and closes a
  forming batch early (``close_reason="deadline_risk"``) as soon as
  waiting any longer would push its tightest member past its deadline —
  a tight-deadline request is never coalesced behind a wait it cannot
  afford.

``stop()`` answers every request it does not run: queued ones, and ones
the collector already holds in a forming batch or in a formed batch
waiting for an execution slot, fail with :class:`BatcherStopped`.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import statistics
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import List, Optional

import numpy as np

from repro.obs import trace as obs_trace
from repro.serve.metrics import ModelMetrics

#: Inter-arrival gaps the sparse-traffic rule takes its median over.
GAP_HISTORY = 8


class QueueSaturated(RuntimeError):
    """The model's request queue is full (backpressure — retry later)."""


class BatcherStopped(RuntimeError):
    """Submission raced a batcher that has stopped (blue/green cutover
    drained it between lookup and submit), or the batcher stopped before
    running an accepted request.  The server retries against the freshly
    installed batcher, so clients never observe it."""


class DeadlineExceeded(RuntimeError):
    """The request expired in the queue before a batch picked it up."""


class ExecutionFailed(RuntimeError):
    """Plan execution raised; carries the original error message."""


@dataclass(frozen=True)
class BatchPolicy:
    """Coalescing policy knobs.

    ``max_batch_size=1`` degenerates to batch-1 serving (the loadgen
    baseline); ``max_wait_ms`` bounds the latency cost a request can pay
    waiting for co-riders, and is waited only while recent arrivals come
    closer together than it (see the module docstring).
    """

    max_batch_size: int = 8
    max_wait_ms: float = 2.0
    max_queue: int = 128
    default_deadline_ms: float = 2000.0

    def __post_init__(self):
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class BatchedResult:
    """What a request's future resolves to."""

    output: np.ndarray  # (1, ...) — this request's slice of the batch output
    batch_size: int
    queue_ms: float
    run_ms: float


class _Pending:
    __slots__ = (
        "x",
        "future",
        "deadline",
        "t_enqueue",
        "request_id",
        "trace_parent",
        "t_enqueue_ns",
        "priority",
    )

    def __init__(
        self, x, future, deadline, t_enqueue, request_id=None, trace_parent=None,
        priority=1,
    ):
        self.x = x
        self.future = future
        self.deadline = deadline  # absolute time.monotonic(), or None
        self.t_enqueue = t_enqueue
        self.request_id = request_id  # ingress id (X-Request-Id)
        self.priority = priority  # admission level; lower = more important
        #: Span id of the request's ingress root span when this request
        #: was sampled for tracing; ``None`` means untraced.
        self.trace_parent = trace_parent
        self.t_enqueue_ns = (
            obs_trace.now_ns() if trace_parent is not None else 0
        )


class DynamicBatcher:
    """Coalesces submitted samples into engine batches for one plan."""

    def __init__(
        self,
        plan,
        policy: Optional[BatchPolicy] = None,
        executor: Optional[ThreadPoolExecutor] = None,
        metrics: Optional[ModelMetrics] = None,
        name: str = "",
        max_inflight: int = 2,
        threads: Optional[int] = None,
        tracer: Optional["obs_trace.TraceBuffer"] = None,
    ):
        self.plan = plan
        self.policy = policy or BatchPolicy()
        self.metrics = metrics or ModelMetrics()
        self.name = name
        self.max_inflight = max(1, max_inflight)
        #: Server-shared span sink; spans are recorded only for batches
        #: that contain at least one sampled request, so an untraced
        #: deployment takes a single truthiness check per batch.
        self.tracer = tracer
        #: Engine threads per coalesced batch: a dispatched batch splits
        #: into lanes on the engine worker pool, so one big batch
        #: exploits the cores that batch-level pipelining (max_inflight)
        #: alone would leave idle.  ``None`` keeps the plan/REPRO_THREADS
        #: default.
        self.threads = threads
        self._executor = executor
        self._owns_executor = executor is None
        self._queue: Optional[asyncio.PriorityQueue] = None
        #: FIFO tiebreak within a priority level (and keeps the queue
        #: from ever comparing two _Pending objects).
        self._seq = itertools.count()
        #: EWMA of recent batch run times (ms) — the collector's estimate
        #: of what dispatching *now* would cost, for deadline-risk closes.
        self._run_est_ms: Optional[float] = None
        #: The last GAP_HISTORY inter-arrival gaps (s) and the latest
        #: arrival, both event-loop only: the sparse-traffic rule.
        self._gaps: deque = deque(maxlen=GAP_HISTORY)
        self._last_arrival: Optional[float] = None
        self._task: Optional[asyncio.Task] = None
        self._inflight: Optional[asyncio.Semaphore] = None
        self._pending_runs: set = set()
        #: Background permit-retirement tasks from a downward
        #: :meth:`resize_inflight`; cancelled at stop().
        self._retire_tasks: set = set()
        self._stopped = False
        #: Requests accepted but not yet resolved (queued, collected, or
        #: executing).  Maintained via future done-callbacks on the event
        #: loop, so reaching 0 means every accepted request has been
        #: answered — the drain condition for blue/green cutover.
        self._outstanding = 0

    # -- lifecycle ----------------------------------------------------------
    async def start(self) -> None:
        if self._task is not None:
            return
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=2, thread_name_prefix=f"serve-{self.name or 'model'}"
            )
        self._queue = asyncio.PriorityQueue(maxsize=self.policy.max_queue)
        self._inflight = asyncio.Semaphore(self.max_inflight)
        self._task = asyncio.get_running_loop().create_task(self._collector())

    def resize_inflight(self, new_max: int) -> None:
        """Retarget the concurrent-batch cap without a batcher swap —
        the autoscaler's companion lever (replicas + 1 pipelined
        batches in worker mode).  Growing releases permits immediately;
        shrinking retires permits as running batches return them, so
        nothing in flight is interrupted.  Event-loop only.
        """
        new_max = max(1, int(new_max))
        delta = new_max - self.max_inflight
        self.max_inflight = new_max
        if self._inflight is None or delta == 0:
            return
        if delta > 0:
            for _ in range(delta):
                self._inflight.release()
            return
        loop = asyncio.get_running_loop()
        for _ in range(-delta):
            task = loop.create_task(self._inflight.acquire())
            self._retire_tasks.add(task)
            task.add_done_callback(self._retire_tasks.discard)

    async def stop(self) -> None:
        self._stopped = True
        for task in list(self._retire_tasks):
            task.cancel()
        if self._task is None:
            return
        task, self._task = self._task, None
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            pass
        if self._pending_runs:  # let in-flight batches finish delivering
            await asyncio.gather(*self._pending_runs, return_exceptions=True)
        # Fail anything still queued so no submitter hangs forever.
        while self._queue is not None and not self._queue.empty():
            _, _, pending = self._queue.get_nowait()
            if not pending.future.done():
                pending.future.set_exception(BatcherStopped("batcher stopped"))
        if self._owns_executor and self._executor is not None:
            self._executor.shutdown(wait=False)
            self._executor = None

    async def drain_and_stop(self, timeout: float = 60.0) -> bool:
        """Let every accepted request finish, then stop — the blue/green
        retirement path (docs/operations.md 'Blue/green deploys and
        rollback'): the server first swaps the active-batcher pointer so
        no new requests arrive here, then drains this one, so cutover
        drops nothing.

        Returns ``True`` when the batcher emptied within ``timeout``
        (``False`` means stop() fired with requests still unresolved —
        they fail with :class:`BatcherStopped` rather than hanging).
        """
        deadline = time.monotonic() + timeout
        grace = 0
        while time.monotonic() < deadline:
            if self._outstanding > 0:
                grace = 0
            else:
                # A handler scheduled before the pointer swap may hold a
                # reference and submit after we observe 0 — linger a few
                # loop iterations before declaring the queue dry.
                grace += 1
                if grace >= 5:
                    break
            await asyncio.sleep(0.01)
        drained = self._outstanding == 0
        await self.stop()
        return drained

    @property
    def running(self) -> bool:
        return self._task is not None

    def outstanding(self) -> int:
        """Accepted-but-unresolved requests (0 = fully drained)."""
        return self._outstanding

    def qsize(self) -> int:
        return self._queue.qsize() if self._queue is not None else 0

    def queue_fill(self) -> float:
        """Current queue fill fraction — the admission layer's input."""
        return self.qsize() / max(1, self.policy.max_queue)

    # -- submission ---------------------------------------------------------
    async def submit(
        self,
        x: np.ndarray,
        deadline_ms: Optional[float] = None,
        request_id: Optional[str] = None,
        trace_parent: Optional[str] = None,
        priority: Optional[int] = None,
    ) -> BatchedResult:
        """Queue one ``(1, C, H, W)`` sample; resolves when its batch ran.

        ``deadline_ms`` counts from submission; ``None`` uses the policy
        default and any value <= 0 disables the deadline.
        ``request_id`` is the ingress id (flows into latency exemplars);
        ``trace_parent`` — the request's root span id — marks the request
        as sampled for tracing.  ``priority`` is the admission level
        (lower = more important; default ``standard``): under backlog the
        collector serves lower levels first, FIFO within a level.
        """
        if self._stopped:
            raise BatcherStopped(f"model {self.name!r}: batcher stopped")
        if self._queue is None:
            raise RuntimeError("batcher not started")
        now = time.monotonic()
        if deadline_ms is None:
            deadline_ms = self.policy.default_deadline_ms
        deadline = now + deadline_ms / 1e3 if deadline_ms and deadline_ms > 0 else None
        future = asyncio.get_running_loop().create_future()
        level = 1 if priority is None else int(priority)
        pending = _Pending(
            x, future, deadline, now, request_id, trace_parent, priority=level
        )
        try:
            self._queue.put_nowait((level, next(self._seq), pending))
        except asyncio.QueueFull:
            self.metrics.on_reject()
            raise QueueSaturated(
                f"model {self.name!r}: queue full "
                f"({self.policy.max_queue} requests waiting)"
            ) from None
        if self._last_arrival is not None:
            self._gaps.append(now - self._last_arrival)
        self._last_arrival = now
        self._outstanding += 1
        future.add_done_callback(self._on_request_done)
        self.metrics.on_enqueue()
        return await future

    def _on_request_done(self, _future) -> None:
        self._outstanding -= 1

    # -- collector loop -----------------------------------------------------
    def _expel_if_expired(self, pending: _Pending) -> Optional[_Pending]:
        """Formation-time deadline gate: a request already past its
        deadline is expelled with a typed 504 *before* it is stacked —
        it never occupies a batch slot and never executes."""
        if pending.future.done():  # client gave up / was cancelled
            return None
        now = time.monotonic()
        if pending.deadline is not None and now > pending.deadline:
            self.metrics.on_deadline_exceeded()
            pending.future.set_exception(
                DeadlineExceeded(
                    f"model {self.name!r}: expired at batch formation "
                    f"after {(now - pending.t_enqueue) * 1e3:.1f} ms in queue"
                )
            )
            return None
        return pending

    def _deadline_slack_s(self, batch: List[_Pending], now: float) -> Optional[float]:
        """Seconds the forming batch can still wait before its tightest
        member would miss its deadline, given the EWMA run estimate.
        ``None`` = unconstrained (no deadlines, or no estimate yet)."""
        if self._run_est_ms is None:
            return None
        est_s = self._run_est_ms / 1e3
        slack = None
        for pending in batch:
            if pending.deadline is None:
                continue
            s = pending.deadline - est_s - now
            slack = s if slack is None else min(slack, s)
        return slack

    def _sparse(self, budget_s: float) -> bool:
        """No co-rider is due within the window: the median of the
        recent inter-arrival gaps exceeds it, and so does the latest
        gap (a latest gap inside the window means a burst is under way,
        so its next member is waited for).  ``False`` without gap
        history, so a first burst still coalesces."""
        return (
            budget_s > 0
            and bool(self._gaps)
            and self._gaps[-1] > budget_s
            and statistics.median(self._gaps) > budget_s
        )

    async def _collect_batch(self, batch: List[_Pending]) -> str:
        """First request blocks; then absorb into ``batch`` until full or
        the wait expires.  Returns the close reason: ``"size"`` (hit
        max_batch_size), ``"deadline"`` (the max_wait_ms budget ran out),
        ``"deadline_risk"`` (waiting longer would push a member past its
        deadline), ``"drain"`` (nothing left to coalesce under a
        zero-wait policy) or ``"sparse"`` (nothing left queued and
        arrivals too sparse for a co-rider to be due within the
        window).  ``batch`` is the caller's, so it can answer the held
        requests if this coroutine is cancelled."""
        while not batch:
            _, _, pending = await self._queue.get()
            pending = self._expel_if_expired(pending)
            if pending is not None:
                batch.append(pending)
        budget_s = self.policy.max_wait_ms / 1e3
        sparse = self._sparse(budget_s)
        start = time.monotonic()
        reason = "size"
        while len(batch) < self.policy.max_batch_size:
            # Greedily drain whatever is already queued — free coalescing
            # even with max_wait_ms=0.
            try:
                _, _, pending = self._queue.get_nowait()
                pending = self._expel_if_expired(pending)
                if pending is not None:
                    batch.append(pending)
                continue
            except asyncio.QueueEmpty:
                pass
            if sparse:
                reason = "sparse"
                break
            now = time.monotonic()
            wait = budget_s - (now - start)
            risk = False
            slack = self._deadline_slack_s(batch, now)
            if slack is not None and slack < wait:
                # A member cannot afford the full coalescing wait:
                # shrink the window so it dispatches in time.
                wait = slack
                risk = True
            if wait <= 0:
                reason = (
                    "deadline_risk" if risk
                    else ("drain" if budget_s <= 0 else "deadline")
                )
                break
            try:
                _, _, pending = await asyncio.wait_for(
                    self._queue.get(), timeout=wait
                )
            except asyncio.TimeoutError:
                reason = "deadline_risk" if risk else "deadline"
                break
            pending = self._expel_if_expired(pending)
            if pending is not None:
                batch.append(pending)
        return reason

    async def _collector(self) -> None:
        """Collect batches and dispatch them; up to ``max_inflight``
        batches execute concurrently on the worker pool (pipelining: the
        next batch coalesces while the previous one runs — on multi-core
        hosts batches also overlap inside the executor)."""
        loop = asyncio.get_running_loop()
        try:
            while True:
                batch: List[_Pending] = []
                close_reason = await self._collect_batch(batch)
                await self._inflight.acquire()
                task = loop.create_task(self._execute(batch, close_reason))
                self._pending_runs.add(task)
                task.add_done_callback(self._pending_runs.discard)
        except asyncio.CancelledError:
            # stop(): the requests popped off the queue but not yet
            # handed to _execute would otherwise never be answered.
            for pending in batch:
                if not pending.future.done():
                    pending.future.set_exception(BatcherStopped("batcher stopped"))
            raise

    async def _execute(self, batch: List[_Pending], close_reason: str = "size") -> None:
        """Run one coalesced batch and distribute per-request slices.

        Deadlines are judged here — actual dispatch time, i.e. after any
        wait for an in-flight execution slot — so a request that aged out
        while earlier batches ran is rejected without ever executing.
        """
        loop = asyncio.get_running_loop()
        try:
            t_dispatch = time.monotonic()
            t_dispatch_ns = obs_trace.now_ns()
            live: List[_Pending] = []
            for pending in batch:
                if pending.future.done():  # client gave up / was cancelled
                    continue
                if pending.deadline is not None and t_dispatch > pending.deadline:
                    self.metrics.on_deadline_exceeded()
                    pending.future.set_exception(
                        DeadlineExceeded(
                            f"model {self.name!r}: request waited "
                            f"{(t_dispatch - pending.t_enqueue) * 1e3:.1f} ms, "
                            "past its deadline"
                        )
                    )
                    continue
                live.append(pending)
            if not live:
                return
            stacked = (
                live[0].x
                if len(live) == 1
                else np.concatenate([p.x for p in live], axis=0)
            )
            traced = (
                [p for p in live if p.trace_parent is not None]
                if self.tracer is not None
                else []
            )
            local_spans = obs_trace.TraceBuffer(8192) if traced else None
            try:
                run = functools.partial(
                    self.plan.run, stacked, threads=self.threads, trace=local_spans
                )
                out = await loop.run_in_executor(self._executor, run)
            except BaseException as exc:  # kernel failure / teardown cancel:
                # fail the whole batch so no submitter is left hanging.
                self.metrics.on_error(len(live))
                failure = (
                    BatcherStopped("batcher stopped")
                    if isinstance(exc, asyncio.CancelledError)
                    else ExecutionFailed(f"plan execution failed: {exc}")
                )
                for pending in live:
                    if not pending.future.done():
                        pending.future.set_exception(failure)
                return
        finally:
            self._inflight.release()
        t_done = time.monotonic()
        t_done_ns = obs_trace.now_ns()
        run_ms = (t_done - t_dispatch) * 1e3
        # EWMA run-time estimate for deadline-risk batch closes.  The
        # smoothing is deliberately heavy (0.8) so one slow outlier does
        # not collapse every forming batch to size 1.
        self._run_est_ms = (
            run_ms if self._run_est_ms is None
            else 0.8 * self._run_est_ms + 0.2 * run_ms
        )
        self.metrics.on_batch(len(live), run_ms)
        if traced:
            self._record_batch_spans(
                live, traced, local_spans, close_reason,
                t_dispatch_ns, t_done_ns, run_ms,
            )
        offset = 0
        for pending in live:
            n = pending.x.shape[0]
            result = BatchedResult(
                output=out[offset : offset + n],
                batch_size=len(live),
                queue_ms=(t_dispatch - pending.t_enqueue) * 1e3,
                run_ms=run_ms,
            )
            offset += n
            if not pending.future.done():
                pending.future.set_result(result)
            self.metrics.on_response(
                latency_ms=(t_done - pending.t_enqueue) * 1e3,
                queue_ms=result.queue_ms,
                request_id=pending.request_id,
            )

    def _record_batch_spans(
        self,
        live: List[_Pending],
        traced: List[_Pending],
        local_spans: Optional["obs_trace.TraceBuffer"],
        close_reason: str,
        t_dispatch_ns: int,
        t_done_ns: int,
        run_ms: float,
    ) -> None:
        """Emit the serving-layer spans for one traced batch: per-request
        queue-wait, the batch-formation span (who coalesced, why it
        closed), the execution span, and the engine/transport spans the
        plan recorded — re-parented under the execution span so the whole
        timeline hangs together."""
        tracer = self.tracer
        request_ids = [p.request_id for p in live if p.request_id is not None]
        batch_id = obs_trace.new_span_id()
        exec_id = obs_trace.new_span_id()
        for p in traced:
            tracer.add(
                obs_trace.Span(
                    "queue_wait",
                    "serve",
                    p.t_enqueue_ns,
                    max(0, t_dispatch_ns - p.t_enqueue_ns),
                    attrs={"model": self.name},
                    parent_id=p.trace_parent,
                    request_id=p.request_id,
                    proc="frontend",
                )
            )
        t_formed = min(p.t_enqueue_ns for p in traced)
        tracer.add(
            obs_trace.Span(
                "batch",
                "serve",
                t_formed,
                max(0, t_done_ns - t_formed),
                attrs={
                    "model": self.name,
                    "size": len(live),
                    "close_reason": close_reason,
                    "request_ids": request_ids,
                },
                span_id=batch_id,
                proc="frontend",
            )
        )
        tracer.add(
            obs_trace.Span(
                "batch_exec",
                "serve",
                t_dispatch_ns,
                max(0, t_done_ns - t_dispatch_ns),
                attrs={"model": self.name, "run_ms": run_ms},
                span_id=exec_id,
                parent_id=batch_id,
                proc="frontend",
            )
        )
        if local_spans is not None:
            for span in local_spans.snapshot():
                if span.parent_id is None:
                    span.parent_id = exec_id
                tracer.add(span)
                # Step-level kernel spans feed the sampled per-step
                # histograms on /metrics; the step index disambiguates
                # layers that share a kernel label (three `linear`s).
                if span.cat == "kernel" and "chunk_index" not in span.attrs:
                    label = f"{span.attrs.get('step', '?')}:{span.name}"
                    self.metrics.observe_step(label, span.dur_ns / 1e6)
