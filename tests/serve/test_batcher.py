"""DynamicBatcher: coalescing, policy limits, deadlines, backpressure.

These tests drive the batcher directly on a private event loop with stub
plans (no HTTP, no compilation), so each scenario controls timing
precisely.
"""

import asyncio
import random
import time
import types

import numpy as np
import pytest

from repro.obs.trace import TraceBuffer
from repro.serve import batcher as batcher_mod
from repro.serve.batcher import (
    BatchedResult,
    BatcherStopped,
    BatchPolicy,
    DeadlineExceeded,
    DynamicBatcher,
    ExecutionFailed,
    QueueSaturated,
)


class EchoPlan:
    """Returns its input; records the batch sizes it saw."""

    def __init__(self, delay_s: float = 0.0):
        self.delay_s = delay_s
        self.batch_sizes = []

    def run(self, x, threads=None, trace=None):
        self.batch_sizes.append(x.shape[0])
        if self.delay_s:
            time.sleep(self.delay_s)
        return np.asarray(x) * 2.0


class FailingPlan:
    def run(self, x, threads=None, trace=None):
        raise RuntimeError("kaboom")


def sample(value: float) -> np.ndarray:
    return np.full((1, 2, 2, 2), value, dtype=np.float32)


def run_async(coro):
    return asyncio.run(coro)


class TestCoalescing:
    def test_concurrent_submissions_share_one_batch(self):
        async def scenario():
            plan = EchoPlan(delay_s=0.01)
            batcher = DynamicBatcher(
                plan, BatchPolicy(max_batch_size=8, max_wait_ms=50, max_queue=64)
            )
            await batcher.start()
            try:
                results = await asyncio.gather(
                    *(batcher.submit(sample(i)) for i in range(8))
                )
            finally:
                await batcher.stop()
            return plan, results

        plan, results = run_async(scenario())
        assert 8 in plan.batch_sizes
        assert all(r.batch_size == 8 for r in results)
        # Each request got exactly its own slice, in order.
        for i, r in enumerate(results):
            np.testing.assert_array_equal(r.output, sample(i) * 2.0)
        hist = {
            int(k): v
            for k, v in (
                (size, plan.batch_sizes.count(size)) for size in set(plan.batch_sizes)
            )
        }
        assert hist.get(8) == 1

    def test_max_batch_size_is_honoured(self):
        async def scenario():
            plan = EchoPlan(delay_s=0.005)
            batcher = DynamicBatcher(
                plan,
                BatchPolicy(max_batch_size=4, max_wait_ms=50, max_queue=64),
                max_inflight=1,
            )
            await batcher.start()
            try:
                await asyncio.gather(*(batcher.submit(sample(i)) for i in range(10)))
            finally:
                await batcher.stop()
            return plan

        plan = run_async(scenario())
        assert max(plan.batch_sizes) <= 4
        assert sum(plan.batch_sizes) == 10

    def test_single_request_runs_alone_after_wait(self):
        async def scenario():
            plan = EchoPlan()
            batcher = DynamicBatcher(
                plan, BatchPolicy(max_batch_size=8, max_wait_ms=1, max_queue=8)
            )
            await batcher.start()
            try:
                result = await batcher.submit(sample(3.0))
            finally:
                await batcher.stop()
            return result

        result = run_async(scenario())
        assert result.batch_size == 1
        np.testing.assert_array_equal(result.output, sample(3.0) * 2.0)

    def test_metrics_batch_histogram(self):
        async def scenario():
            plan = EchoPlan(delay_s=0.01)
            batcher = DynamicBatcher(
                plan, BatchPolicy(max_batch_size=8, max_wait_ms=50, max_queue=64)
            )
            await batcher.start()
            try:
                await asyncio.gather(*(batcher.submit(sample(i)) for i in range(8)))
            finally:
                await batcher.stop()
            return batcher.metrics.snapshot()

        snap = run_async(scenario())
        assert snap["requests_total"] == 8
        assert snap["responses_total"] == 8
        assert snap["batch_size_hist"].get("8") == 1
        assert snap["mean_batch_size"] == 8.0
        assert snap["latency"]["count"] == 8


class TestSparseArrivals:
    def test_lone_request_skips_window_after_sparse_arrivals(self, monkeypatch):
        # The batcher's clock runs a second ahead between submissions, so
        # the arrivals are sparse without the test sleeping through them.
        offset = [0.0]
        monkeypatch.setattr(
            batcher_mod,
            "time",
            types.SimpleNamespace(monotonic=lambda: time.monotonic() + offset[0]),
        )

        async def scenario():
            tracer = TraceBuffer(256)
            batcher = DynamicBatcher(
                EchoPlan(),
                BatchPolicy(max_batch_size=8, max_wait_ms=500, max_queue=8),
                tracer=tracer,
            )
            await batcher.start()
            results = []
            try:
                for i in range(4):
                    results.append(
                        await batcher.submit(sample(i), trace_parent=f"root-{i}")
                    )
                    offset[0] += 1.0
            finally:
                await batcher.stop()
            reasons = [
                s.attrs["close_reason"] for s in tracer.snapshot() if s.name == "batch"
            ]
            return results, reasons

        results, reasons = run_async(scenario())
        # No gap history yet: the first request waits out the window.
        assert results[0].queue_ms >= 400
        assert reasons[0] == "deadline"
        for r in results[1:]:
            assert r.batch_size == 1
            assert r.queue_ms < 50
        assert reasons[1:] == ["sparse"] * 3

    def test_burst_after_sparse_arrivals_coalesces_its_rest(self, monkeypatch):
        # Sparse history (clock a second ahead between submissions), then
        # a burst of three: its first member leaves alone, and the second
        # must wait for the third instead of leaving alone too.
        offset = [0.0]
        monkeypatch.setattr(
            batcher_mod,
            "time",
            types.SimpleNamespace(monotonic=lambda: time.monotonic() + offset[0]),
        )

        async def scenario():
            tracer = TraceBuffer(256)
            batcher = DynamicBatcher(
                EchoPlan(),
                BatchPolicy(max_batch_size=2, max_wait_ms=500, max_queue=8),
                tracer=tracer,
            )
            await batcher.start()
            try:
                for i in range(3):
                    await batcher.submit(sample(i), trace_parent=f"quiet-{i}")
                    offset[0] += 1.0
                first = await batcher.submit(sample(3), trace_parent="burst-0")
                second = asyncio.ensure_future(
                    batcher.submit(sample(4), trace_parent="burst-1")
                )
                await asyncio.sleep(0.02)
                third = await batcher.submit(sample(5), trace_parent="burst-2")
                second = await second
            finally:
                await batcher.stop()
            reasons = [
                s.attrs["close_reason"] for s in tracer.snapshot() if s.name == "batch"
            ]
            return first, second, third, reasons

        first, second, third, reasons = run_async(scenario())
        assert first.batch_size == 1 and first.queue_ms < 50
        assert second.batch_size == third.batch_size == 2
        assert reasons[-2:] == ["sparse", "size"]

    def test_closed_loop_wave_keeps_coalescing(self):
        # Eight closed-loop clients with a little think time: arrivals
        # within a wave are spread over a few ms, well inside the window,
        # so the median gap must keep the batcher waiting for the wave.
        rng = random.Random(0)

        async def client(batcher, c, rounds):
            for _ in range(rounds):
                await asyncio.sleep(rng.uniform(0.0, 0.005))
                await batcher.submit(sample(c))

        async def scenario():
            batcher = DynamicBatcher(
                EchoPlan(delay_s=0.002),
                BatchPolicy(max_batch_size=8, max_wait_ms=50, max_queue=64),
            )
            await batcher.start()
            try:
                await asyncio.gather(*(client(batcher, c, 6) for c in range(8)))
            finally:
                await batcher.stop()
            return batcher.metrics.snapshot()

        snap = run_async(scenario())
        assert snap["responses_total"] == 48
        assert snap["mean_batch_size"] >= 4

    def test_zero_wait_policy_still_drains(self):
        async def scenario():
            tracer = TraceBuffer(64)
            batcher = DynamicBatcher(
                EchoPlan(),
                BatchPolicy(max_batch_size=8, max_wait_ms=0, max_queue=8),
                tracer=tracer,
            )
            await batcher.start()
            try:
                for i in range(3):
                    await batcher.submit(sample(i), trace_parent=f"root-{i}")
                    await asyncio.sleep(0.01)
            finally:
                await batcher.stop()
            return [s.attrs["close_reason"] for s in tracer.snapshot() if s.name == "batch"]

        assert run_async(scenario()) == ["drain"] * 3


class TestStop:
    @pytest.mark.parametrize(
        "policy, submits",
        [
            # One batch runs, one formed batch waits for the only
            # execution slot, one request is still queued.
            (BatchPolicy(max_batch_size=1, max_wait_ms=0, max_queue=8), 3),
            # A lone request sits in a forming batch, inside the window.
            (BatchPolicy(max_batch_size=8, max_wait_ms=500, max_queue=8), 1),
        ],
        ids=["formed-awaiting-slot", "forming"],
    )
    def test_stop_answers_every_held_request(self, policy, submits):
        async def scenario():
            batcher = DynamicBatcher(EchoPlan(delay_s=0.2), policy, max_inflight=1)
            await batcher.start()
            futures = [
                asyncio.ensure_future(batcher.submit(sample(i))) for i in range(submits)
            ]
            await asyncio.sleep(0.05)
            await batcher.stop()
            _, pending = await asyncio.wait(futures, timeout=2.0)
            for f in pending:
                f.cancel()
            return [f.exception() or f.result() for f in futures if f not in pending]

        outcomes = run_async(scenario())
        assert len(outcomes) == submits, "a request was never answered after stop()"
        if submits == 3:
            assert isinstance(outcomes[0], BatchedResult)
            rest = outcomes[1:]
        else:
            rest = outcomes
        assert all(isinstance(o, BatcherStopped) for o in rest)


class TestFailureModes:
    def test_backpressure_raises_queue_saturated(self):
        async def scenario():
            plan = EchoPlan(delay_s=0.05)
            batcher = DynamicBatcher(
                plan,
                BatchPolicy(max_batch_size=1, max_wait_ms=0, max_queue=2),
                max_inflight=1,
            )
            await batcher.start()
            rejected = 0
            tasks = []
            try:
                for i in range(12):
                    try:
                        tasks.append(
                            asyncio.ensure_future(batcher.submit(sample(i)))
                        )
                        await asyncio.sleep(0)  # let the queue fill
                    except QueueSaturated:
                        rejected += 1
                results = await asyncio.gather(*tasks, return_exceptions=True)
            finally:
                await batcher.stop()
            rejected += sum(isinstance(r, QueueSaturated) for r in results)
            return rejected, batcher.metrics.snapshot()

        rejected, snap = run_async(scenario())
        assert rejected > 0
        assert snap["rejected_total"] == rejected

    def test_expired_request_never_executes(self):
        async def scenario():
            plan = EchoPlan(delay_s=0.08)
            batcher = DynamicBatcher(
                plan,
                BatchPolicy(max_batch_size=1, max_wait_ms=0, max_queue=16),
                max_inflight=1,
            )
            await batcher.start()
            try:
                first = asyncio.ensure_future(batcher.submit(sample(0)))
                await asyncio.sleep(0.005)  # first is now running (80 ms)
                # The second request can only dispatch after ~80 ms, far
                # past its 20 ms deadline: it must fail without running.
                with pytest.raises(DeadlineExceeded):
                    await batcher.submit(sample(1), deadline_ms=20)
                await first
            finally:
                await batcher.stop()
            return plan, batcher.metrics.snapshot()

        plan, snap = run_async(scenario())
        assert sum(plan.batch_sizes) == 1  # the expired sample never ran
        assert snap["deadline_exceeded_total"] == 1

    def test_kernel_failure_maps_to_execution_failed(self):
        async def scenario():
            batcher = DynamicBatcher(
                FailingPlan(), BatchPolicy(max_batch_size=4, max_wait_ms=1)
            )
            await batcher.start()
            try:
                with pytest.raises(ExecutionFailed, match="kaboom"):
                    await batcher.submit(sample(0))
            finally:
                await batcher.stop()
            return batcher.metrics.snapshot()

        snap = run_async(scenario())
        assert snap["errors_total"] == 1

    def test_submit_before_start_raises(self):
        async def scenario():
            batcher = DynamicBatcher(EchoPlan())
            with pytest.raises(RuntimeError, match="not started"):
                await batcher.submit(sample(0))

        run_async(scenario())

    def test_zero_deadline_disables_expiry(self):
        async def scenario():
            plan = EchoPlan(delay_s=0.03)
            batcher = DynamicBatcher(
                plan,
                BatchPolicy(
                    max_batch_size=1, max_wait_ms=0, max_queue=16,
                    default_deadline_ms=0,
                ),
                max_inflight=1,
            )
            await batcher.start()
            try:
                results = await asyncio.gather(
                    *(batcher.submit(sample(i)) for i in range(3))
                )
            finally:
                await batcher.stop()
            return results

        results = run_async(scenario())
        assert len(results) == 3


class TestPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch_size": 0},
            {"max_wait_ms": -1},
            {"max_queue": 0},
        ],
    )
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(ValueError):
            BatchPolicy(**kwargs)

    def test_policy_to_dict(self):
        policy = BatchPolicy(max_batch_size=4, max_wait_ms=2.5)
        assert policy.to_dict()["max_batch_size"] == 4
        assert policy.to_dict()["max_wait_ms"] == 2.5
