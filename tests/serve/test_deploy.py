"""Blue/green deploy + rollback tests (docs/operations.md).

Three layers:

* registry semantics — :meth:`ModelRegistry.install` / ``rollback`` /
  ``artifact_paths`` (versioning, one-deep history, reversibility);
* in-process cutover — stub plans injected through the server's
  ``deploy_served`` API: atomic batcher swap, drain-to-zero, health-watch
  auto-rollback on execution-error regressions;
* the full HTTP + worker-process path — boot ``--workers 2`` from a
  compiled artifact, hot-swap to a second artifact mid-load via
  ``POST /models``, assert **zero** failed requests, then roll back.
"""

import asyncio
import json
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.engine import PlanCache
from repro.serve import (
    BatchPolicy,
    ModelRegistry,
    ServeClient,
    start_in_background,
)
from repro.serve.registry import ModelSpec, ServedModel, compile_served

NAME = "lenet-F2-fp32"


def _stub_served(value: float, version: str = "", fail: bool = False):
    class StubPlan:
        backend = "fast"

        def run(self, x, threads=None, trace=None):
            if fail:
                raise RuntimeError("injected regression")
            return np.full((x.shape[0], 4), value, dtype=np.float32)

    return ServedModel(
        spec=ModelSpec.parse(NAME),
        plan=StubPlan(),
        sample_shape=(1, 28, 28),
        version=version,
    )


def _call(handle, coro):
    """Run a server coroutine on the background server's event loop."""
    return asyncio.run_coroutine_threadsafe(coro, handle._loop).result(30)


def _post(url, payload):
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode(), method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req) as resp:
        return json.loads(resp.read())


class TestRegistrySemantics:
    def test_install_assigns_versions_and_keeps_previous(self):
        registry = ModelRegistry(cache=PlanCache())
        first = registry.add(_stub_served(1.0, version="v1"))
        old = registry.install(_stub_served(2.0))
        assert old is first
        assert registry.get(NAME).version == "v2"
        assert registry.previous(NAME) is first

    def test_version_collision_gets_fresh_counter(self):
        registry = ModelRegistry(cache=PlanCache())
        registry.add(_stub_served(1.0, version="abc"))
        registry.install(_stub_served(2.0, version="abc"))
        assert registry.get(NAME).version != "abc"

    def test_rollback_swaps_and_is_reversible(self):
        registry = ModelRegistry(cache=PlanCache())
        registry.add(_stub_served(1.0, version="v1"))
        registry.install(_stub_served(2.0, version="v2"))
        assert registry.rollback(NAME).version == "v1"
        assert registry.get(NAME).version == "v1"
        assert registry.previous(NAME).version == "v2"
        registry.rollback(NAME)  # roll forward again
        assert registry.get(NAME).version == "v2"

    def test_rollback_without_history_raises(self):
        registry = ModelRegistry(cache=PlanCache())
        registry.add(_stub_served(1.0))
        with pytest.raises(KeyError):
            registry.rollback(NAME)

    def test_artifact_paths_lists_only_artifact_backed(self):
        registry = ModelRegistry(cache=PlanCache())
        registry.add(_stub_served(1.0))
        assert registry.artifact_paths() == {}
        served = _stub_served(2.0)
        served.artifact = "/tmp/x.rpln"
        registry.install(served)
        assert registry.artifact_paths() == {NAME: "/tmp/x.rpln"}


class TestInProcessCutover:
    def _server(self):
        registry = ModelRegistry(cache=PlanCache())
        registry.add(_stub_served(1.0, version="v1"))
        handle = start_in_background(
            registry,
            policy=BatchPolicy(max_batch_size=4, max_wait_ms=0.5),
            executor_threads=2,
        )
        return registry, handle

    def test_deploy_swaps_outputs_atomically(self):
        registry, handle = self._server()
        try:
            x = np.zeros((1, 28, 28), dtype=np.float32)
            with ServeClient(handle.base_url) as client:
                assert client.predict(x)[0] == 1.0
                event = _call(
                    handle, handle.server.deploy_served(_stub_served(2.0))
                )
                assert event["drained"] is True
                assert event["previous_version"] == "v1"
                assert client.predict(x)[0] == 2.0
                assert registry.get(NAME).version == event["version"]
        finally:
            handle.stop()

    def test_deploy_probe_rejects_broken_plan(self):
        registry, handle = self._server()
        try:
            with pytest.raises(Exception, match="probe"):
                _call(
                    handle,
                    handle.server.deploy_served(_stub_served(9.0, fail=True)),
                )
            # The old deployment never stopped serving.
            assert registry.get(NAME).version == "v1"
            x = np.zeros((1, 28, 28), dtype=np.float32)
            with ServeClient(handle.base_url) as client:
                assert client.predict(x)[0] == 1.0
        finally:
            handle.stop()

    def test_health_regression_rolls_back_automatically(self):
        registry, handle = self._server()
        try:
            x = np.zeros((1, 28, 28), dtype=np.float32)
            event = _call(
                handle,
                handle.server.deploy_served(
                    _stub_served(2.0, fail=True), watch_s=2.0, probe=False
                ),
            )
            assert event["watch_s"] == 2.0
            with ServeClient(handle.base_url) as client:
                with pytest.raises(Exception):
                    client.predict(x)  # the injected regression → HTTP 500
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    if any(
                        e["action"] == "rollback"
                        for e in handle.server.deploy_events
                    ):
                        break
                    time.sleep(0.05)
                assert registry.get(NAME).version == "v1", (
                    "health watch should have rolled back"
                )
                assert client.predict(x)[0] == 1.0
            last = handle.server.deploy_events[-1]
            assert last["action"] == "rollback"
            assert "health regression" in last["reason"]
        finally:
            handle.stop()

    def test_http_rollback_without_history_is_409(self):
        registry, handle = self._server()
        try:
            with pytest.raises(urllib.error.HTTPError) as info:
                _post(
                    handle.base_url + "/models",
                    {"action": "rollback", "model": NAME},
                )
            assert info.value.code == 409
        finally:
            handle.stop()

    def test_http_deploy_missing_artifact_is_404(self):
        registry, handle = self._server()
        try:
            with pytest.raises(urllib.error.HTTPError) as info:
                _post(
                    handle.base_url + "/models",
                    {"artifact": "/nonexistent/path.rpln"},
                )
            assert info.value.code == 404
        finally:
            handle.stop()


@pytest.mark.slow
class TestWorkerModeHotSwap:
    def test_artifact_boot_and_hot_swap_zero_drops(self, tmp_path):
        from repro.engine.artifact import save_plan

        spec = ModelSpec.parse("lenet-F2-fp32@reference")
        paths = []
        for seed in (0, 7):
            served = compile_served(
                ModelSpec(
                    architecture="lenet", algorithm="F2",
                    precision="fp32", backend="reference", seed=seed,
                ),
                cache=PlanCache(),
            )
            path = str(tmp_path / f"lenet_s{seed}.rpln")
            save_plan(
                served.plan, path, input_shape=(1, 1, 28, 28),
                extra={"model": spec.name, "seed": seed},
            )
            paths.append(path)

        registry = ModelRegistry(lazy=True)
        served = registry.load(paths[0])
        assert served.artifact == paths[0]
        handle = start_in_background(
            registry,
            policy=BatchPolicy(max_batch_size=8, max_wait_ms=1.0),
            workers=2,
        )
        failures, ok = [], [0]
        stop = threading.Event()
        rng = np.random.default_rng(0)
        samples = rng.standard_normal((4, 1, 28, 28)).astype(np.float32)

        def hammer(i):
            with ServeClient(handle.base_url) as client:
                while not stop.is_set():
                    try:
                        client.predict(samples[i % 4], model=served.name)
                        ok[0] += 1
                    except Exception as exc:  # noqa: BLE001
                        failures.append(repr(exc))

        threads = [
            threading.Thread(target=hammer, args=(i,)) for i in range(3)
        ]
        try:
            for t in threads:
                t.start()
            time.sleep(0.3)
            event = _post(
                handle.base_url + "/models",
                {"artifact": paths[1], "watch_s": 0.3},
            )
            assert event["drained"] is True
            assert event["version"] != event["previous_version"]
            time.sleep(0.5)
            rb = _post(
                handle.base_url + "/models",
                {"action": "rollback", "model": served.name},
            )
            assert rb["version"] == event["previous_version"]
            time.sleep(0.3)
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=10)
            handle.stop()
        assert ok[0] > 20
        assert failures == [], failures[:5]
