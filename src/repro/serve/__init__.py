"""Dynamic-batching inference serving over compiled Winograd plans.

The serving stack, bottom to top:

* :mod:`repro.serve.registry` — named model variants (architecture ×
  width × F(m, r) × precision × backend) compiled through the shared
  LRU plan cache;
* :mod:`repro.serve.batcher` — per-model dynamic micro-batcher with a
  max-batch-size / max-wait-ms policy, per-request deadlines and bounded-
  queue backpressure;
* :mod:`repro.serve.metrics` — throughput, latency percentiles and
  batch-size histograms behind ``/metrics``;
* :mod:`repro.serve.http` — the HTTP/1.1 wire format: request framing,
  typed framing errors and the one response writer;
* :mod:`repro.serve.server` — the asyncio HTTP frontend (``/predict``,
  ``/models``, ``/healthz``, ``/metrics``), stdlib only;
* :mod:`repro.serve.workers` / :mod:`repro.serve.router` — multi-process
  sharded serving: forked worker processes (own plan cache + arenas per
  worker) fed over anonymous fork-shared slot rings, with
  per-model placement, health-checked respawn and in-flight batch retry
  (``repro serve --workers N``; ``workers=0`` keeps the exact
  in-process path);
* :mod:`repro.serve.admission` — ingress admission control: priority
  classes (``interactive``/``standard``/``batch``), watermark shedding
  and per-tenant token buckets (HTTP 429 + ``Retry-After``);
* :mod:`repro.serve.client` / :mod:`repro.serve.loadgen` — client (typed
  timeouts, optional retry policy with backoff + budget) and the closed-
  and open-loop load generators (``repro loadgen``, ``BENCH_serve.json``);
* :mod:`repro.serve.probe` — served-latency measurement for WiNAS's
  ``latency_source="served"``;
* :mod:`repro.serve.selfheal` / :mod:`repro.serve.autoscale` — the
  self-healing control plane: per-model circuit breakers (typed 503 +
  ``Retry-After``), a hysteresis replica autoscaler, the brownout
  ladder (``--ladder model=fallback``), and the crash-consistent state
  journal (``--state-dir``) replayed on boot
  (docs/operations.md 'Self-healing & autoscaling runbook').

Fault injection for the resilience test suite lives in
:mod:`repro.chaos` (``repro serve --chaos`` / ``REPRO_CHAOS``).

Quickstart::

    from repro.serve import ModelRegistry, InferenceServer, BatchPolicy

    registry = ModelRegistry()
    registry.load("resnet18-w0.25-F4-int8")
    server = InferenceServer(registry, policy=BatchPolicy(max_batch_size=16))
    # asyncio.run(server.serve_forever()), or: repro serve --model ...
"""

from repro.serve.admission import (
    AdmissionController,
    AdmissionPolicy,
    RequestShed,
    TokenBucket,
    resolve_priority,
)
from repro.serve.batcher import (
    BatchedResult,
    BatcherStopped,
    BatchPolicy,
    DeadlineExceeded,
    DynamicBatcher,
    ExecutionFailed,
    QueueSaturated,
)
from repro.serve.autoscale import (
    AutoscalePolicy,
    ModelSignals,
    ReplicaAutoscaler,
    ScaleDecision,
)
from repro.serve.client import (
    RetryPolicy,
    ServeCircuitOpen,
    ServeClient,
    ServeClientError,
    ServeConnectionError,
    ServeError,
    ServeTimeout,
    wait_until_ready,
)
from repro.serve.loadgen import (
    benchmark_serving,
    check_bit_identity,
    measure_overload_goodput,
    measure_selfheal_goodput,
    poisson_arrivals,
    run_load,
    run_open_loop,
)
from repro.serve.metrics import LatencyWindow, ModelMetrics, ServerMetrics
from repro.serve.probe import served_latency_ms
from repro.serve.registry import (
    ModelRegistry,
    ModelSpec,
    ServedModel,
    build_model,
    compile_served,
    load_artifact_served,
)
from repro.serve.router import (
    WorkerDied,
    WorkerError,
    WorkerPlanProxy,
    WorkerRouter,
)
from repro.serve.selfheal import (
    BrownoutLadder,
    CircuitBreaker,
    JournalState,
    SelfHealController,
    SelfHealPolicy,
    ServeConfigError,
    StateJournal,
    parse_ladder_spec,
    validate_topology,
)
from repro.serve.server import InferenceServer, ServerHandle, start_in_background

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "AutoscalePolicy",
    "BatchPolicy",
    "BatchedResult",
    "BatcherStopped",
    "BrownoutLadder",
    "CircuitBreaker",
    "DeadlineExceeded",
    "DynamicBatcher",
    "ExecutionFailed",
    "InferenceServer",
    "JournalState",
    "LatencyWindow",
    "ModelMetrics",
    "ModelRegistry",
    "ModelSignals",
    "ModelSpec",
    "QueueSaturated",
    "ReplicaAutoscaler",
    "RequestShed",
    "RetryPolicy",
    "ScaleDecision",
    "SelfHealController",
    "SelfHealPolicy",
    "ServeCircuitOpen",
    "ServeClient",
    "ServeClientError",
    "ServeConfigError",
    "ServeConnectionError",
    "ServeError",
    "ServeTimeout",
    "ServedModel",
    "ServerHandle",
    "ServerMetrics",
    "StateJournal",
    "TokenBucket",
    "WorkerDied",
    "WorkerError",
    "WorkerPlanProxy",
    "WorkerRouter",
    "benchmark_serving",
    "build_model",
    "check_bit_identity",
    "compile_served",
    "load_artifact_served",
    "measure_overload_goodput",
    "measure_selfheal_goodput",
    "parse_ladder_spec",
    "poisson_arrivals",
    "resolve_priority",
    "run_load",
    "run_open_loop",
    "served_latency_ms",
    "start_in_background",
    "validate_topology",
    "wait_until_ready",
]
