"""PlanCache contract under the serving workload.

The inference server hits one shared cache from a thread pool, so the
cache must be safe under concurrent get/put/evict (satellite of ISSUE 2),
keep strict LRU recency order, expose ``stats()`` for ``/metrics``, and —
because plans freeze parameters — a *content* mutation of any kind
(weight, BN running statistic, quantizer observer range) must change the
signature so the stale plan is never served again.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.engine import PlanCache, get_cached_plan
from repro.engine.cache import model_signature
from repro.models.common import ConvSpec
from repro.models.lenet import lenet
from repro.quant import ensure_calibrated
from repro.quant.qconfig import int8


def _quant_model():
    model = lenet(spec=ConvSpec("F2", int8()))
    model.eval()
    x = np.random.default_rng(0).standard_normal((1, 1, 28, 28)).astype(np.float32)
    ensure_calibrated(model, x)
    return model


class TestThreadSafety:
    def test_hammered_cache_stays_consistent(self):
        """N threads × put/get/len/keys on a tiny LRU: no lost updates,
        no over-capacity states, counters add up."""
        cache = PlanCache(maxsize=8)
        n_threads, ops = 8, 400
        start = threading.Barrier(n_threads)
        sizes = []

        def hammer(seed: int) -> int:
            rng = np.random.default_rng(seed)
            gets = 0
            start.wait()
            for i in range(ops):
                key = (int(rng.integers(0, 16)),)
                if rng.random() < 0.5:
                    cache.put(key, f"plan-{seed}-{i}")
                else:
                    cache.get(key)
                    gets += 1
                sizes.append(len(cache))
                cache.keys()
            return gets

        with ThreadPoolExecutor(n_threads) as pool:
            futures = [pool.submit(hammer, seed) for seed in range(n_threads)]
            total_gets = sum(f.result() for f in futures)  # surfaces races

        assert len(cache) <= 8
        assert max(sizes) <= 8
        stats = cache.stats()
        # Every get() incremented exactly one of the two counters.
        assert stats["hits"] + stats["misses"] == total_gets

    def test_concurrent_get_cached_plan_single_model(self):
        """Many threads fetching the same (model, shape) key never break
        the cache; all callers get a working plan."""
        cache = PlanCache()
        model = _quant_model()
        x = np.zeros((1, 1, 28, 28), dtype=np.float32)
        get_cached_plan(model, x.shape, cache=cache)  # every fetch below hits

        def fetch(_):
            plan = get_cached_plan(model, x.shape, cache=cache)
            return plan.run(x).shape

        with ThreadPoolExecutor(8) as pool:
            shapes = list(pool.map(fetch, range(32)))
        assert shapes == [(1, 10)] * 32
        assert len(cache) == 1
        assert cache.stats()["hits"] >= 32


class TestSignatureInvalidation:
    shape = (1, 1, 28, 28)

    def test_weight_mutation_recompiles(self):
        cache = PlanCache()
        model = _quant_model()
        stale = get_cached_plan(model, self.shape, cache=cache)
        model.conv1.weight.data += np.float32(0.25)
        fresh = get_cached_plan(model, self.shape, cache=cache)
        assert fresh is not stale
        assert len(cache) == 2

    def test_bn_buffer_mutation_recompiles(self):
        cache = PlanCache()
        model = _quant_model()
        assert model.bn1 is not None
        stale = get_cached_plan(model, self.shape, cache=cache)
        model.bn1.running_var.data *= np.float32(2.0)
        fresh = get_cached_plan(model, self.shape, cache=cache)
        assert fresh is not stale

    def test_observer_range_mutation_recompiles(self):
        """Re-calibrating a quantizer (observer buffers move) must
        invalidate: the frozen scale inside the old plan is stale."""
        cache = PlanCache()
        model = _quant_model()
        stale = get_cached_plan(model, self.shape, cache=cache)
        quantizer = model.conv1.q_weight
        assert bool(quantizer.initialized.data[0])  # calibrated
        quantizer.running_max_abs.data *= 3.0
        fresh = get_cached_plan(model, self.shape, cache=cache)
        assert fresh is not stale

    def test_signature_sensitive_to_each_tensor_class(self):
        model = _quant_model()
        base = model_signature(model)
        model.fc3.linear.bias.data += 1.0
        after_param = model_signature(model)
        model.bn2.running_mean.data += 1.0
        after_bn = model_signature(model)
        model.conv2.q_weight.running_max_abs.data += 1.0
        after_observer = model_signature(model)
        assert len({base, after_param, after_bn, after_observer}) == 4


class TestLruOrder:
    def test_get_refreshes_recency(self):
        """Eviction follows *recency*, not insertion: touching the oldest
        entry protects it and the middle entry is evicted instead."""
        cache = PlanCache(maxsize=2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        assert cache.get(("a",)) == 1  # refresh "a"
        cache.put(("c",), 3)  # evicts "b", not "a"
        assert cache.keys() == [("a",), ("c",)]
        assert cache.get(("b",)) is None
        assert cache.get(("a",)) == 1

    def test_put_existing_key_refreshes(self):
        cache = PlanCache(maxsize=2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        cache.put(("a",), 10)  # overwrite refreshes recency too
        cache.put(("c",), 3)
        assert cache.keys() == [("a",), ("c",)]
        assert cache.get(("a",)) == 10

    def test_stats_shape(self):
        cache = PlanCache(maxsize=4)
        cache.put(("k",), 1)
        cache.get(("k",))
        cache.get(("missing",))
        stats = cache.stats()
        assert stats == {
            "size": 1,
            "maxsize": 4,
            "hits": 1,
            "misses": 1,
            "hit_rate": 0.5,
        }

    def test_maxsize_validation(self):
        with pytest.raises(ValueError):
            PlanCache(maxsize=0)
