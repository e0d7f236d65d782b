"""Request-scoped tracing across the serving stack (ISSUE 7).

Covers the ingress request-id contract (respect / generate / echo), the
``/metrics`` content negotiation (JSON default preserved, explicit
Content-Type on both representations), request ids surviving batcher
coalescing, the ``/trace`` endpoint's span and Chrome formats, and the
``--workers 2`` shared-memory path carrying per-step engine spans back
to the front-end buffer.
"""

import sys
import threading

import numpy as np
import pytest

from repro.obs.export import validate_chrome_trace
from repro.obs.trace import Span, filter_request, validate_span_tree
from repro.serve import (
    BatchPolicy,
    ModelRegistry,
    ServeClient,
    start_in_background,
    wait_until_ready,
)
from repro.serve.prom import PROM_CONTENT_TYPE

MODEL = "lenet-F2-fp32"


def _serve_traced():
    registry = ModelRegistry()
    registry.load(MODEL)
    handle = start_in_background(
        registry,
        policy=BatchPolicy(max_batch_size=4, max_wait_ms=4.0),
        executor_threads=2,
        trace_rate=1.0,
    )
    try:
        wait_until_ready(handle.base_url)
        yield handle
    finally:
        handle.stop()


traced_server = pytest.fixture(scope="module")(_serve_traced)
#: A server no request has reached yet: its batcher has no gap history,
#: so it waits out the window for a burst's co-riders (after sparse
#: traffic a burst's first request leaves alone).
fresh_traced_server = pytest.fixture(_serve_traced)


@pytest.fixture
def client(traced_server):
    with ServeClient(traced_server.base_url) as c:
        yield c


def _sample(seed=0):
    return np.random.default_rng(seed).standard_normal(
        (1, 28, 28)
    ).astype(np.float32)


def _fetch_spans(client, request_id=None):
    doc = client.trace(request_id=request_id, format="spans")
    return [Span.from_dict(d) for d in doc["spans"]]


class TestRequestIds:
    def test_client_request_id_is_respected_and_echoed(self, client):
        response = client.predict_raw(_sample(), model=MODEL,
                                      request_id="my-id-1")
        assert response["request_id"] == "my-id-1"
        assert client.last_response_headers["x-request-id"] == "my-id-1"

    def test_request_id_generated_when_absent(self, client):
        client.predict_raw(_sample(), model=MODEL)
        generated = client.last_response_headers["x-request-id"]
        assert generated.startswith("r-") and len(generated) > 4

    def test_error_responses_carry_the_id_too(self, client):
        from repro.serve.client import ServeError

        with pytest.raises(ServeError):
            client.request("POST", "/predict", {"input": "nonsense"},
                           headers={"X-Request-Id": "bad-req"})
        assert client.last_response_headers["x-request-id"] == "bad-req"


class TestMetricsNegotiation:
    def test_json_default_preserved_with_explicit_content_type(self, client):
        metrics = client.metrics()
        content_type = client.last_response_headers["content-type"]
        assert content_type.startswith("application/json")
        assert "models" in metrics
        assert "trace" in metrics  # additive key, JSON shape kept
        assert metrics["trace"]["rate"] == 1.0

    def test_accept_text_plain_returns_prometheus(self, client):
        client.predict_raw(_sample(), model=MODEL, request_id="prom-ex-1")
        text = client.metrics_text()
        assert client.last_response_headers["content-type"] == (
            PROM_CONTENT_TYPE
        )
        assert "# TYPE repro_request_latency_ms histogram" in text
        assert f'model="{MODEL}"' in text
        # exemplar request-ids ride on latency buckets
        assert 'request_id="' in text

    def test_json_listed_first_wins_negotiation(self, client):
        client.request(
            "GET", "/metrics",
            headers={"Accept": "application/json, text/plain"},
        )
        assert client.last_response_headers["content-type"].startswith(
            "application/json"
        )

    def test_per_step_histograms_appear_when_traced(self, client):
        client.predict_raw(_sample(), model=MODEL)
        text = client.metrics_text()
        assert "repro_step_latency_ms_bucket" in text


class TestTraceEndpoint:
    def test_spans_format_and_tree_well_formed(self, client):
        client.predict_raw(_sample(), model=MODEL, request_id="tree-1")
        spans = _fetch_spans(client)
        assert spans
        assert validate_span_tree(spans, slack_ns=5_000_000) == []
        names = {s.name for s in spans}
        assert {"request", "queue_wait", "batch", "batch_exec",
                "plan_run"} <= names

    def test_request_filter_returns_one_complete_tree(self, client):
        client.predict_raw(_sample(), model=MODEL, request_id="tree-2")
        spans = _fetch_spans(client, request_id="tree-2")
        assert spans
        assert all(
            s.request_id == "tree-2"
            or "tree-2" in (s.attrs.get("request_ids") or ())
            or s.parent_id is not None
            for s in spans
        )
        kernel = [s for s in spans if s.cat == "kernel"]
        assert kernel, "per-step engine spans must be reachable by request id"

    def test_chrome_format_schema_validates(self, client):
        client.predict_raw(_sample(), model=MODEL)
        doc = client.trace(format="chrome")
        assert validate_chrome_trace(doc) == []

    def test_unknown_format_is_400(self, client):
        from repro.serve.client import ServeError

        with pytest.raises(ServeError) as info:
            client.trace(format="nonsense")
        assert info.value.status == 400

    def test_request_id_survives_batch_coalescing(self, fresh_traced_server):
        barrier = threading.Barrier(3)
        ids = ["co-a", "co-b", "co-c"]

        def fire(rid):
            with ServeClient(fresh_traced_server.base_url) as c:
                c.connect()
                barrier.wait()
                c.predict_raw(_sample(), model=MODEL, request_id=rid)

        threads = [threading.Thread(target=fire, args=(rid,)) for rid in ids]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        with ServeClient(fresh_traced_server.base_url) as c:
            spans = _fetch_spans(c)
        batches = [s for s in spans if s.name == "batch"]
        coalesced = [b for b in batches
                     if len(set(ids) & set(b.attrs["request_ids"])) >= 2]
        assert coalesced, (
            "3 simultaneous requests against max_wait_ms=4 must coalesce"
        )
        for rid in ids:
            sub = filter_request(spans, rid)
            assert any(s.name == "request" for s in sub)
            assert any(s.name == "queue_wait" for s in sub)


@pytest.mark.skipif(
    not sys.platform.startswith("linux") and sys.platform != "darwin",
    reason="fork-based workers are POSIX-only",
)
class TestWorkersTraced:
    def test_workers2_trace_covers_transport_and_worker_kernels(self):
        registry = ModelRegistry(lazy=True)
        registry.load(MODEL)
        handle = start_in_background(
            registry,
            policy=BatchPolicy(max_batch_size=4, max_wait_ms=4.0),
            workers=2,
            worker_replicas=2,
            trace_rate=1.0,
        )
        try:
            wait_until_ready(handle.base_url)
            with ServeClient(handle.base_url) as c:
                for i in range(3):
                    c.predict_raw(_sample(i), model=MODEL,
                                  request_id=f"w-{i}")
                spans = _fetch_spans(c)
                doc = c.trace(format="chrome")
        finally:
            handle.stop()
        assert validate_span_tree(spans, slack_ns=5_000_000) == []
        assert validate_chrome_trace(doc) == []
        procs = {s.proc for s in spans if s.proc}
        assert any(p.startswith("worker-") for p in procs)
        names = {s.name for s in spans}
        assert {"shm_write", "worker_roundtrip", "shm_read",
                "worker_exec", "plan_run"} <= names
        sub = filter_request(spans, "w-0")
        sub_names = {s.name for s in sub}
        assert {"request", "queue_wait", "worker_roundtrip",
                "plan_run"} <= sub_names
        assert any(s.cat == "kernel"
                   and (s.proc or "").startswith("worker-") for s in sub)
