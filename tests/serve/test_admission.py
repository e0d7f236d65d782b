"""Admission control (ISSUE 8): priority classes, watermark shedding,
per-tenant token buckets — plus the batcher behaviours admission levels
drive (priority ordering, formation-time expiry expulsion).

The controller takes an injectable clock, so every rate/recency rule is
tested against virtual time; the server-level tests then verify the
HTTP surface (429 + ``Retry-After``, priority via body or ``X-Priority``
header, 400 on a typo'd class).
"""

import asyncio
import time

import numpy as np
import pytest

from repro.serve.admission import (
    AdmissionController,
    AdmissionPolicy,
    DEFAULT_WATERMARKS,
    PRIORITY_LEVELS,
    RequestShed,
    TokenBucket,
    resolve_priority,
)
from repro.serve.batcher import BatchPolicy, DeadlineExceeded, DynamicBatcher
from repro.serve import ModelRegistry, ServeClient, ServeError, start_in_background

MODEL = "lenet-F2-fp32@reference"


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, s):
        self.now += s


class TestResolvePriority:
    def test_default_and_normalisation(self):
        assert resolve_priority(None) == "standard"
        assert resolve_priority("") == "standard"
        assert resolve_priority(" Interactive ") == "interactive"
        assert resolve_priority("BATCH") == "batch"

    def test_unknown_class_raises(self):
        with pytest.raises(ValueError, match="unknown priority"):
            resolve_priority("interactve")

    def test_levels_order_importance(self):
        assert (
            PRIORITY_LEVELS["interactive"]
            < PRIORITY_LEVELS["standard"]
            < PRIORITY_LEVELS["batch"]
        )


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=2.0, burst=3.0, now=0.0)
        assert all(bucket.take(0.0)[0] for _ in range(3))  # burst
        ok, retry_after = bucket.take(0.0)
        assert not ok and retry_after == pytest.approx(0.5)  # 1 token / 2 rps
        ok, _ = bucket.take(0.5)  # refilled exactly one token
        assert ok

    def test_tokens_cap_at_burst(self):
        bucket = TokenBucket(rate=100.0, burst=2.0, now=0.0)
        bucket.take(0.0)
        assert bucket.take(10.0)[0] and bucket.take(10.0)[0]
        assert not bucket.take(10.0)[0]  # idle decade never banked > burst


class TestWatermarks:
    def test_shed_order_is_batch_then_standard_then_interactive(self):
        ctrl = AdmissionController(clock=FakeClock())
        for fill, shed_classes in [
            (0.60, {"batch"}),
            (0.80, {"batch", "standard"}),
            (0.96, {"batch", "standard", "interactive"}),
        ]:
            for priority in PRIORITY_LEVELS:
                if priority in shed_classes:
                    with pytest.raises(RequestShed):
                        ctrl.admit(priority, queue_fill=fill)
                else:
                    assert ctrl.admit(priority, fill) == PRIORITY_LEVELS[priority]

    def test_empty_queue_admits_everything(self):
        ctrl = AdmissionController(clock=FakeClock())
        for priority in PRIORITY_LEVELS:
            assert ctrl.admit(priority, queue_fill=0.0) == PRIORITY_LEVELS[priority]

    def test_retry_after_grows_with_overshoot(self):
        ctrl = AdmissionController(clock=FakeClock())
        sheds = []
        for fill in (0.55, 0.75, 0.95):
            with pytest.raises(RequestShed) as info:
                ctrl.admit("batch", queue_fill=fill)
            sheds.append(info.value.retry_after)
        assert sheds == sorted(sheds) and sheds[0] < sheds[-1]

    def test_shedding_recently_expires(self):
        clock = FakeClock()
        ctrl = AdmissionController(clock=clock)
        assert not ctrl.shedding_recently()
        with pytest.raises(RequestShed):
            ctrl.admit("batch", queue_fill=0.9)
        assert ctrl.shedding_recently()
        clock.advance(AdmissionController.SHED_RECENT_S + 0.1)
        assert not ctrl.shedding_recently()


class TestTenantBuckets:
    def test_noisy_tenant_shed_quiet_tenant_unaffected(self):
        clock = FakeClock()
        ctrl = AdmissionController(
            AdmissionPolicy(tenant_rate=1.0, tenant_burst=2.0), clock=clock
        )
        ctrl.admit("standard", 0.0, tenant="noisy")
        ctrl.admit("standard", 0.0, tenant="noisy")
        with pytest.raises(RequestShed) as info:
            ctrl.admit("standard", 0.0, tenant="noisy")
        assert info.value.tenant == "noisy"
        assert info.value.retry_after == pytest.approx(1.0)
        # The other tenant's bucket is untouched.
        assert ctrl.admit("standard", 0.0, tenant="quiet") == 1
        # And the noisy one recovers once its bucket refills.
        clock.advance(1.0)
        assert ctrl.admit("standard", 0.0, tenant="noisy") == 1

    def test_rate_zero_disables_buckets(self):
        ctrl = AdmissionController(AdmissionPolicy(tenant_rate=0.0))
        for _ in range(50):
            assert ctrl.admit("standard", 0.0, tenant="anyone") == 1

    def test_untagged_requests_skip_buckets(self):
        ctrl = AdmissionController(AdmissionPolicy(tenant_rate=1.0))
        for _ in range(10):
            ctrl.admit("standard", 0.0, tenant=None)

    def test_snapshot_counts(self):
        ctrl = AdmissionController(
            AdmissionPolicy(tenant_rate=1.0, tenant_burst=1.0),
            clock=FakeClock(),
        )
        ctrl.admit("standard", 0.0, tenant="a")
        with pytest.raises(RequestShed):
            ctrl.admit("standard", 0.0, tenant="a")
        snap = ctrl.snapshot()
        assert snap["admitted_total"] == 1
        assert snap["shed_total"] == 1
        assert snap["tenants_tracked"] == 1
        assert sum(snap["shed_by_reason"].values()) == 1


class TestPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tenant_rate": -1.0},
            {"tenant_burst": 0.0},
            {"shed_watermarks": {"vip": 0.5}},
        ],
    )
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(ValueError):
            AdmissionPolicy(**kwargs)

    def test_defaults_round_trip(self):
        d = AdmissionPolicy().to_dict()
        assert d["shed_watermarks"] == DEFAULT_WATERMARKS


class SlowPlan:
    def __init__(self, delay_s):
        self.delay_s = delay_s
        self.executed = []

    def run(self, x, threads=None, trace=None):
        time.sleep(self.delay_s)
        self.executed.append(x.shape[0])
        return np.asarray(x)


def sample(value):
    return np.full((1, 2, 2, 2), value, dtype=np.float32)


class TestBatcherPriorityAndExpulsion:
    def test_higher_priority_jumps_the_queue(self):
        """Under backlog, a later-submitted interactive request must be
        picked from the priority queue before earlier-submitted batch
        traffic.  (The collector pre-collects exactly one batch while the
        previous executes, so the first batch-class request is already
        formed and cannot be overtaken — the contest is for the queue.)"""

        async def scenario():
            plan = SlowPlan(0.05)
            batcher = DynamicBatcher(
                plan,
                BatchPolicy(max_batch_size=1, max_wait_ms=0, max_queue=64),
                max_inflight=1,
            )
            order = []
            await batcher.start()
            try:
                first = asyncio.ensure_future(batcher.submit(sample(0)))
                await asyncio.sleep(0.01)  # first batch is now executing

                async def tagged(value, priority, tag):
                    await batcher.submit(sample(value), priority=priority)
                    order.append(tag)

                tasks = [
                    asyncio.ensure_future(tagged(1, 2, "batch-1")),
                    asyncio.ensure_future(tagged(2, 2, "batch-2")),
                ]
                await asyncio.sleep(0.01)  # enqueue before the interactive one
                tasks.append(
                    asyncio.ensure_future(tagged(3, 0, "interactive"))
                )
                await asyncio.gather(first, *tasks)
            finally:
                await batcher.stop()
            return order

        order = asyncio.run(scenario())
        assert order.index("interactive") < order.index("batch-2"), order

    def test_expired_request_expelled_at_formation_never_executed(self):
        """A request that ages past its deadline while still *queued*
        must get a typed 504 at batch formation — and the plan must
        never see it.  A decoy keeps the collector's pre-collected slot
        busy so the doomed request genuinely expires in the queue."""

        async def scenario():
            plan = SlowPlan(0.08)
            batcher = DynamicBatcher(
                plan,
                BatchPolicy(max_batch_size=1, max_wait_ms=0, max_queue=64),
                max_inflight=1,
            )
            await batcher.start()
            try:
                blocker = asyncio.ensure_future(batcher.submit(sample(0)))
                await asyncio.sleep(0.01)
                decoy = asyncio.ensure_future(batcher.submit(sample(1)))
                await asyncio.sleep(0.005)
                doomed = asyncio.ensure_future(
                    batcher.submit(sample(2), deadline_ms=20.0)
                )
                with pytest.raises(DeadlineExceeded, match="batch formation"):
                    await doomed
                await asyncio.gather(blocker, decoy)
                executed_batches = len(plan.executed)
            finally:
                await batcher.stop()
            return executed_batches

        # Only blocker + decoy ran; the expired request was expelled.
        assert asyncio.run(scenario()) == 2


@pytest.fixture(scope="module")
def tenant_limited_server():
    registry = ModelRegistry()
    registry.load(MODEL)
    with start_in_background(
        registry,
        policy=BatchPolicy(max_batch_size=8, max_queue=64),
        admission=AdmissionPolicy(tenant_rate=0.5, tenant_burst=2.0),
    ) as handle:
        yield handle


class TestServerAdmission:
    def test_tenant_429_with_retry_after(self, tenant_limited_server):
        x = np.zeros((1, 28, 28), dtype=np.float32)
        with ServeClient(tenant_limited_server.base_url) as client:
            client.predict(x, model=MODEL, tenant="t1")
            client.predict(x, model=MODEL, tenant="t1")
            with pytest.raises(ServeError) as info:
                client.predict(x, model=MODEL, tenant="t1")
            assert info.value.status == 429
            assert info.value.retry_after is not None
            assert info.value.retry_after > 0
            # Another tenant is not collateral damage.
            client.predict(x, model=MODEL, tenant="t2")
            # Shed visibility: admission snapshot + per-model counter.
            metrics = client.metrics()
            assert metrics["admission"]["shed_total"] >= 1
            model_counters = metrics["models"][MODEL]
            assert model_counters["shed_total"] >= 1
            health = client.healthz()
            assert health["status"] == "degraded"
            assert any("shed" in r for r in health["reasons"])

    def test_priority_header_and_typo_400(self, tenant_limited_server):
        x = np.zeros((1, 28, 28), dtype=np.float32)
        with ServeClient(tenant_limited_server.base_url) as client:
            out = client.predict_raw(x, model=MODEL, priority="interactive")
            assert "output" in out
            # Header spelling works too (body wins only when both set).
            client.request(
                "POST", "/predict",
                {"model": MODEL, "input": x.tolist()},
                headers={"X-Priority": "batch"},
            )
            with pytest.raises(ServeError) as info:
                client.predict_raw(x, model=MODEL, priority="urgentest")
            assert info.value.status == 400
            assert "unknown priority" in info.value.message
