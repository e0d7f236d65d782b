"""Served-latency probe (the wiNAS hookup is tested in tests/nas)."""

import numpy as np

from repro.serve.batcher import BatchPolicy
from repro.serve.probe import served_latency_ms


class SleepyPlan:
    def __init__(self, delay_s: float):
        self.delay_s = delay_s
        self.calls = 0

    def run(self, x, threads=None, trace=None):
        import time

        self.calls += 1
        time.sleep(self.delay_s)
        return np.zeros((x.shape[0], 2), dtype=np.float32)


def test_served_latency_reflects_plan_cost():
    x = np.zeros((1, 2, 4, 4), dtype=np.float32)
    slow = served_latency_ms(SleepyPlan(0.02), x, concurrency=2, requests_per_client=2)
    fast = served_latency_ms(SleepyPlan(0.0), x, concurrency=2, requests_per_client=2)
    assert slow > fast
    assert slow >= 20.0  # at least one 20 ms run per request batch

    # Batching amortises the sleep across concurrent clients: mean
    # per-request latency stays near one run, not concurrency × run.
    assert slow < 4 * 20.0 * 2


def test_probe_batches_concurrent_clients():
    plan = SleepyPlan(0.005)
    x = np.zeros((1, 2, 4, 4), dtype=np.float32)
    served_latency_ms(plan, x, concurrency=8, requests_per_client=2)
    # 1 warmup + 16 requests; coalescing means far fewer than 17 runs.
    assert plan.calls < 17


def test_probe_policy_override():
    plan = SleepyPlan(0.0)
    x = np.zeros((1, 2, 4, 4), dtype=np.float32)
    policy = BatchPolicy(max_batch_size=1, max_wait_ms=0, max_queue=64)
    served_latency_ms(plan, x, concurrency=4, requests_per_client=1, policy=policy)
    assert plan.calls == 5  # warmup + one run per request: no batching
