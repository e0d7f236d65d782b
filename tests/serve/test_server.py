"""End-to-end HTTP serving tests over a live asyncio server.

One module-scoped server (LeNet F2 int8, both backends) backs the happy
paths; failure-mode tests spin dedicated servers with stub models so
saturation and kernel failures are deterministic.  The concurrency test
doubles as the CI smoke contract: N parallel clients, responses
bit-identical to direct ``CompiledPlan.run``, every response within its
deadline.
"""

import base64
import json
import logging
import socket
import threading
import time
import urllib.parse

import numpy as np
import pytest

from repro.engine import PlanCache
from repro.serve import (
    BatchPolicy,
    ModelRegistry,
    ServeClient,
    ServeError,
    start_in_background,
    wait_until_ready,
)
from repro.serve.registry import ModelSpec, ServedModel

MODEL = "lenet-F2-int8"
REF_MODEL = "lenet-F2-int8@reference"


@pytest.fixture(scope="module")
def server():
    registry = ModelRegistry(cache=PlanCache())
    registry.load(MODEL)
    registry.load(REF_MODEL)
    handle = start_in_background(
        registry,
        policy=BatchPolicy(max_batch_size=8, max_wait_ms=2.0, max_queue=64),
        executor_threads=2,
    )
    try:
        wait_until_ready(handle.base_url)
        yield handle, registry
    finally:
        handle.stop()


@pytest.fixture
def client(server):
    handle, _ = server
    with ServeClient(handle.base_url) as c:
        yield c


def _samples(n):
    return np.random.default_rng(3).standard_normal((n, 1, 28, 28)).astype(
        np.float32
    )


class TestEndpoints:
    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert MODEL in health["models"]

    def test_models_lists_specs_and_policy(self, client):
        info = client.models()
        names = {m["name"] for m in info["models"]}
        assert {MODEL, REF_MODEL} <= names
        entry = next(m for m in info["models"] if m["name"] == MODEL)
        assert entry["sample_shape"] == [1, 28, 28]
        assert entry["plan_steps"] > 0
        assert info["policy"]["max_batch_size"] == 8

    def test_metrics_shape(self, client):
        client.predict(_samples(1)[0], model=MODEL)
        metrics = client.metrics()
        assert metrics["uptime_s"] > 0
        assert "plan_cache" in metrics and "hit_rate" in metrics["plan_cache"]
        model_metrics = metrics["models"][MODEL]
        for key in (
            "requests_total",
            "responses_total",
            "rejected_total",
            "deadline_exceeded_total",
            "batches_total",
            "batch_size_hist",
            "latency",
            "queue",
            "run",
        ):
            assert key in model_metrics
        assert model_metrics["responses_total"] >= 1
        assert model_metrics["latency"]["p99_ms"] >= model_metrics["latency"]["p50_ms"]

    def test_unknown_route_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_unknown_model_404(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.predict_raw(_samples(1)[0], model="resnet18-w0.25-F4-int8")
        assert excinfo.value.status == 404

    @pytest.mark.parametrize(
        "payload",
        [
            {"model": MODEL},  # no input
            {"model": MODEL, "input": [[1.0, 2.0]]},  # wrong shape
            {"model": MODEL, "inputs": []},  # empty batch
            {"model": MODEL, "input": "zzz", "encoding": "b64"},  # bad b64
            {"model": MODEL, "input": [[0.0]], "encoding": "nope"},
        ],
    )
    def test_bad_requests_400(self, client, payload):
        with pytest.raises(ServeError) as excinfo:
            client.request("POST", "/predict", payload)
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("value", ["abc", "-5", "+5", "1_0", "\u0665"])
    def test_bad_content_length_is_typed_400_and_closes(self, server, value):
        handle, _ = server
        host, port = urllib.parse.urlsplit(handle.base_url).netloc.split(":")
        request = (
            "POST /predict HTTP/1.1\r\nHost: test\r\n"
            f"X-Request-Id: bad-length\r\nContent-Length: {value}\r\n\r\n"
        )
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            sock.sendall(request.encode("utf-8"))
            # Read to EOF: the server must reply and then close.
            raw = b"".join(iter(lambda: sock.recv(4096), b""))
        head, _, body = raw.partition(b"\r\n\r\n")
        lines = head.decode("latin1").split("\r\n")
        assert lines[0] == "HTTP/1.1 400 Bad Request"
        assert "X-Request-Id: bad-length" in lines
        assert "Connection: close" in lines
        doc = json.loads(body)
        assert doc["status"] == 400 and "Content-Length" in doc["error"]
        with ServeClient(handle.base_url) as client:  # still serving
            assert client.healthz()["status"] == "ok"

    @pytest.mark.parametrize(
        "raw, status",
        [
            (b"GARBAGE\r\n\r\n", 400),
            (b"POST /predict HTTP/1.1\r\nX-Request-Id: framing\r\n"
             b"Content-Length: 1e3\r\n\r\n", 400),
            (b"POST /predict HTTP/1.1\r\nX-Request-Id: framing\r\n"
             b"Content-Length: 33554433\r\n\r\n", 413),
            (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", 414),
            (b"GET /" + b"a" * 300_000 + b" HTTP/1.1\r\n\r\n", 414),
            (b"GET /healthz HTTP/1.1\r\nX-Request-Id: framing\r\nX-Big: "
             + b"a" * 70_000 + b"\r\n\r\n", 431),
            (b"GET /healthz HTTP/1.1\r\nX-Request-Id: framing\r\n"
             + b"".join(b"X-H%04d: %s\r\n" % (i, b"v" * 32) for i in range(2000))
             + b"\r\n", 431),
            (b"POST /predict HTTP/1.1\r\nX-Request-Id: framing\r\n"
             b"Transfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n", 501),
        ],
        ids=["request-line", "content-length", "body-size", "line-size",
             "line-size-unread", "header-line", "header-block", "chunked"],
    )
    def test_framing_fault_is_typed_and_closes(self, server, caplog, raw, status):
        """Every framing fault gets exactly one typed reply that echoes
        (or mints) the request id and closes; the server keeps serving
        and asyncio logs no unhandled exception."""
        handle, _ = server
        host, port = urllib.parse.urlsplit(handle.base_url).netloc.split(":")
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with socket.create_connection((host, int(port)), timeout=10) as sock:
                sock.sendall(raw)
                raw_reply = b"".join(iter(lambda: sock.recv(65536), b""))
            with ServeClient(handle.base_url) as client:  # still serving
                assert client.healthz()["status"] == "ok"
        assert raw_reply.count(b"HTTP/1.1 ") == 1  # one reply, then close
        head, _, body = raw_reply.partition(b"\r\n\r\n")
        lines = head.decode("latin1").split("\r\n")
        assert lines[0].startswith(f"HTTP/1.1 {status} ")
        assert "Connection: close" in lines
        request_id = next(
            line.split(": ", 1)[1] for line in lines
            if line.startswith("X-Request-Id: ")
        )
        if b"X-Request-Id: framing" in raw[:200]:
            assert request_id == "framing"
        doc = json.loads(body)
        assert doc["status"] == status and doc["error"]
        assert not [r for r in caplog.records if r.name == "asyncio"]

    def test_model_optional_when_ambiguous_is_400(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.request("POST", "/predict", {"input": _samples(1)[0].tolist()})
        assert excinfo.value.status == 400  # two models are loaded


class TestPredictions:
    def test_single_predict_matches_plan_bitwise(self, server, client):
        _, registry = server
        x = _samples(1)[0]
        for name in (MODEL, REF_MODEL):
            out = client.predict(x, model=name)
            expected = registry.get(name).plan.run(x[None])[0]
            np.testing.assert_array_equal(out, expected)

    def test_b64_encoding_matches_json(self, client):
        """Bit-identity of the zero-copy b64 path against the JSON path,
        in both directions: the request decodes to the same engine input
        and the b64 *response* decodes to the same float32 output."""
        x = _samples(1)[0]
        json_out = client.predict(x, model=MODEL, encoding="json")
        b64_out = client.predict(x, model=MODEL, encoding="b64")
        np.testing.assert_array_equal(json_out, b64_out)

    def test_b64_response_carries_raw_float32(self, client):
        import base64

        x = _samples(1)[0]
        raw = client.predict_raw(x, model=MODEL, encoding="b64")
        assert raw["encoding"] == "b64"
        decoded = np.frombuffer(
            base64.b64decode(raw["output"]), dtype="<f4"
        ).reshape(raw["output_shape"])
        json_out = client.predict(x, model=MODEL, encoding="json")
        np.testing.assert_array_equal(decoded, json_out)

    def test_b64_multi_sample_matches_json(self, server, client):
        _, registry = server
        xs = _samples(4)
        json_outs, _ = client.predict_many(list(xs), model=REF_MODEL)
        b64_outs, _ = client.predict_many(list(xs), model=REF_MODEL, encoding="b64")
        plan = registry.get(REF_MODEL).plan
        for x, j, b in zip(xs, json_outs, b64_outs):
            np.testing.assert_array_equal(j, b)
            np.testing.assert_array_equal(b, plan.run(x[None])[0])

    def test_b64_request_path_is_zero_copy(self, server):
        """The decoded wire bytes flow into the batcher without a copy:
        frombuffer → reshape → validate_input all stay views."""
        from repro.serve.server import InferenceServer

        _, registry = server
        served = registry.get(MODEL)
        x = _samples(1)[0]
        wire = ServeClient.encode_sample(x, "b64")
        decoded = InferenceServer._decode_b64(wire, served)
        validated = served.validate_input(decoded)
        assert np.shares_memory(decoded, validated)
        np.testing.assert_array_equal(validated[0], x)

    def test_multi_sample_request(self, server, client):
        # Reference backend: per-sample results are exact regardless of
        # how the server coalesced the five samples.
        _, registry = server
        xs = _samples(5)
        outputs, meta = client.predict_many(list(xs), model=REF_MODEL)
        plan = registry.get(REF_MODEL).plan
        assert len(outputs) == 5 and len(meta) == 5
        for x, out in zip(xs, outputs):
            np.testing.assert_array_equal(out, plan.run(x[None])[0])
        assert all(m["batch_size"] >= 1 for m in meta)

    def test_threaded_server_bit_identical_reference(self):
        """A server running with engine threads per batch must answer
        exactly like direct serial plan.run on the reference backend —
        the scheduler's bit-identity contract carried over HTTP."""
        registry = ModelRegistry(cache=PlanCache())
        registry.load(REF_MODEL)
        handle = start_in_background(
            registry,
            policy=BatchPolicy(max_batch_size=8, max_wait_ms=2.0),
            executor_threads=2,
            threads=2,
        )
        try:
            wait_until_ready(handle.base_url)
            plan = registry.get(REF_MODEL).plan
            with ServeClient(handle.base_url) as c:
                metrics = c.metrics()
                assert metrics["engine_threads"] == 2
                assert "plan_memory" in metrics
                for x in _samples(3):
                    out = c.predict(x, model=REF_MODEL, encoding="b64")
                    np.testing.assert_array_equal(out, plan.run(x[None])[0])
        finally:
            handle.stop()

    def test_concurrent_clients_identical_and_within_deadline(self, server):
        """The CI smoke contract: 16 threads × 4 requests, bit-identical
        to direct plan.run on both backends, p99 within the deadline."""
        handle, registry = server
        xs = _samples(8)
        deadline_ms = 5000.0
        errors, latencies = [], []
        lock = threading.Lock()

        def worker(worker_id: int):
            # Bit-identity under arbitrary coalescing is the reference
            # backend's contract (fast-backend GEMM blocking can round
            # differently per batch shape), so all workers pin it.
            name = REF_MODEL
            plan = registry.get(name).plan
            try:
                with ServeClient(handle.base_url) as c:
                    for j in range(4):
                        x = xs[(worker_id + j) % len(xs)]
                        t0 = time.perf_counter()
                        out = c.predict(x, model=name, deadline_ms=deadline_ms)
                        dt_ms = (time.perf_counter() - t0) * 1e3
                        expected = plan.run(x[None])[0]
                        if not np.array_equal(out, expected):
                            raise AssertionError(f"mismatch on {name}")
                        with lock:
                            latencies.append(dt_ms)
            except Exception as exc:  # noqa: BLE001 — reported below
                with lock:
                    errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors
        assert len(latencies) == 64
        p99 = float(np.percentile(latencies, 99))
        assert p99 < deadline_ms

    def test_responses_report_batching_metadata(self, client):
        response = client.predict_raw(_samples(1)[0], model=MODEL)
        assert response["batch_size"] >= 1
        assert response["queue_ms"] >= 0
        assert response["run_ms"] > 0


def _predict_concurrently(base_url, model, requests, encoding="json"):
    """Send ``requests`` (``{key: (sample, request_id)}``) at once, one
    client each; returns ``{key: reply or ServeError}`` plus each
    client's response headers under ``key + "_headers"``."""
    barrier = threading.Barrier(len(requests))
    results = {}

    def send(key, x, request_id):
        with ServeClient(base_url) as c:
            barrier.wait()
            try:
                results[key] = c.predict_raw(
                    x, model=model, encoding=encoding, request_id=request_id
                )
            except ServeError as exc:
                results[key] = exc
            results[key + "_headers"] = c.last_response_headers

    threads = [
        threading.Thread(target=send, args=(key, x, rid))
        for key, (x, rid) in requests.items()
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return results


class TestNonFiniteInputs:
    """NaN/±Inf samples get a typed 400 before batching, so a finite
    batch-mate sent alongside keeps its bits."""

    @pytest.mark.parametrize(
        "encoding,bad_value",
        [("json", np.nan), ("b64", np.nan), ("json", -np.inf), ("b64", np.inf)],
    )
    def test_non_finite_is_400_and_batch_mate_bitwise(self, server, encoding, bad_value):
        handle, registry = server
        good, bad = _samples(2)
        bad[0, 3, 5] = bad_value
        expected = registry.get(REF_MODEL).plan.run(good[None])[0]
        rid = f"nonfinite-{encoding}-{bad_value}"
        results = _predict_concurrently(
            handle.base_url, REF_MODEL, {"bad": (bad, rid), "good": (good, None)},
            encoding=encoding,
        )

        error = results["bad"]
        assert isinstance(error, ServeError) and error.status == 400
        assert "non-finite" in error.message
        assert results["bad_headers"]["x-request-id"] == rid
        good_out = results["good"]["output"]
        if encoding == "b64":
            good_out = np.frombuffer(base64.b64decode(good_out), dtype="<f4")
        np.testing.assert_array_equal(
            np.asarray(good_out, dtype=np.float32).reshape(expected.shape), expected
        )


class TestNonFiniteOutputs:
    """Finite but huge inputs drive the fp32 plan to NaN outputs.  JSON
    cannot encode them, so the JSON path answers a typed 422 (not a
    model fault: the circuit stays closed); b64 keeps the raw bits.

    The batcher waits for a pair, so the concurrent requests share one
    batch.  The finite batch-mate is compared against ``plan.run`` of
    that same two-row batch: an fp32 ``linear`` step's bits depend on
    the batch size (BLAS picks a different product for one row), though
    never on the other row's values.
    """

    NAME = "lenet-F2-fp32@reference"

    @pytest.fixture(scope="class")
    def nan_server(self):
        from repro.serve import SelfHealPolicy

        registry = ModelRegistry(cache=PlanCache())
        registry.load(self.NAME)
        # threshold 1: a single error recorded against the model opens it.
        policy = SelfHealPolicy(circuit_threshold=1, circuit_open_s=30.0)
        handle = start_in_background(
            registry,
            policy=BatchPolicy(max_batch_size=2, max_wait_ms=1000.0, max_queue=64),
            executor_threads=2,
            selfheal=policy,
        )
        try:
            wait_until_ready(handle.base_url)
            yield handle, registry
        finally:
            handle.stop()

    def test_json_non_finite_output_is_422_and_batch_mate_bitwise(self, nan_server):
        handle, registry = nan_server
        plan = registry.get(self.NAME).plan
        good, huge = _samples(2)
        huge[...] = 3e38
        with np.errstate(all="ignore"):
            assert not np.isfinite(plan.run(huge[None])).all()
            expected = plan.run(np.stack([huge, good]))[1]
        rid = "nonfinite-output"
        results = _predict_concurrently(
            handle.base_url, self.NAME, {"huge": (huge, rid), "good": (good, None)}
        )

        error = results["huge"]
        assert isinstance(error, ServeError) and error.status == 422
        assert error.reason == "non_finite_output"
        assert "non-finite" in error.message
        assert results["huge_headers"]["x-request-id"] == rid
        assert results["good"]["batch_size"] == 2
        good_out = np.asarray(results["good"]["output"], dtype=np.float32)
        np.testing.assert_array_equal(good_out.reshape(expected.shape), expected)

        with ServeClient(handle.base_url) as c:
            circuit = c.metrics()["selfheal"]["circuits"][self.NAME]
            assert circuit["state"] == "closed"
            assert circuit["opens_total"] == 0
            c.predict_raw(good, model=self.NAME)  # still served

    def test_b64_non_finite_output_keeps_raw_bits(self, nan_server):
        handle, registry = nan_server
        huge = np.full((1, 28, 28), 3e38, dtype=np.float32)
        with np.errstate(all="ignore"):
            expected = registry.get(self.NAME).plan.run(huge[None])[0]
        with ServeClient(handle.base_url) as c:
            response = c.predict_raw(huge, model=self.NAME, encoding="b64")
        got = np.frombuffer(base64.b64decode(response["output"]), dtype="<f4")
        assert got.tobytes() == np.ascontiguousarray(expected, dtype="<f4").tobytes()


class TestFailureModes:
    def _stub_registry(self, delay_s: float):
        class SlowPlan:
            backend = "fast"

            def run(self, x, threads=None, trace=None):
                time.sleep(delay_s)
                return np.zeros((x.shape[0], 4), dtype=np.float32)

        registry = ModelRegistry(cache=PlanCache())
        registry.add(
            ServedModel(
                spec=ModelSpec.parse("lenet-F2-fp32"),
                plan=SlowPlan(),
                sample_shape=(1, 28, 28),
            )
        )
        return registry

    def test_saturated_queue_returns_429_with_retry_after(self):
        registry = self._stub_registry(delay_s=0.2)
        with start_in_background(
            registry,
            policy=BatchPolicy(max_batch_size=1, max_wait_ms=0, max_queue=1),
            executor_threads=1,
        ) as handle:
            statuses, lock = [], threading.Lock()
            x = np.zeros((1, 28, 28), dtype=np.float32)

            def fire():
                try:
                    with ServeClient(handle.base_url) as c:
                        c.predict(x)
                except ServeError as exc:
                    with lock:
                        statuses.append(exc.status)

            threads = [threading.Thread(target=fire) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert 429 in statuses
            with ServeClient(handle.base_url) as c:
                assert c.metrics()["models"]["lenet-F2-fp32"]["rejected_total"] > 0

    def test_expired_deadline_returns_504(self):
        registry = self._stub_registry(delay_s=0.15)
        with start_in_background(
            registry,
            policy=BatchPolicy(max_batch_size=1, max_wait_ms=0, max_queue=16),
            executor_threads=1,
        ) as handle:
            x = np.zeros((1, 28, 28), dtype=np.float32)
            statuses, lock = [], threading.Lock()

            def fire():
                try:
                    with ServeClient(handle.base_url) as c:
                        c.predict(x, deadline_ms=50)
                except ServeError as exc:
                    with lock:
                        statuses.append(exc.status)

            # First request occupies the worker ~150 ms; followers with
            # 50 ms deadlines expire in the queue.
            threads = [threading.Thread(target=fire) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert 504 in statuses

    def test_kernel_failure_returns_500(self):
        class BrokenPlan:
            backend = "fast"

            def run(self, x, threads=None, trace=None):
                raise ValueError("bad kernel")

        registry = ModelRegistry(cache=PlanCache())
        registry.add(
            ServedModel(
                spec=ModelSpec.parse("lenet-F2-fp32"),
                plan=BrokenPlan(),
                sample_shape=(1, 28, 28),
            )
        )
        with start_in_background(registry, executor_threads=1) as handle:
            with ServeClient(handle.base_url) as c:
                with pytest.raises(ServeError) as excinfo:
                    c.predict(np.zeros((1, 28, 28), dtype=np.float32))
                assert excinfo.value.status == 500
