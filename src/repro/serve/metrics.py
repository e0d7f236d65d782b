"""Serving metrics: counters, latency percentiles, batch-size histogram.

Everything here is updated from the batcher loop and the worker pool and
read from the ``/metrics`` handler, so every structure takes a lock.
Latencies go into a fixed-size ring (:class:`LatencyWindow`): percentiles
are computed over the most recent ``capacity`` observations, which keeps
``/metrics`` O(window) regardless of server uptime.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Dict, List, Optional

import numpy as np

#: Cumulative-histogram bucket upper bounds (ms) for request latency —
#: fixed at import so Prometheus series are stable across restarts.
LATENCY_BUCKETS_MS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0)

#: Bucket bounds (ms) for per-step kernel histograms (sampled at the
#: server's trace rate; steps are short, so the grid is finer).
STEP_BUCKETS_MS = (0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0)

#: Bound on distinct per-step series one model may create (defensive —
#: step labels come from the compiler, but a runaway plan should degrade
#: to a dropped series, not an unbounded /metrics page).
MAX_STEP_SERIES = 512

#: ``ModelMetrics`` lifetime counters, in JSON and exposition order.
COUNTERS = (
    "requests_total", "responses_total", "rejected_total", "shed_total",
    "deadline_exceeded_total", "errors_total", "batches_total",
    "batched_samples_total",
)


def peak_rss_mb() -> Optional[float]:
    """This process's peak resident set (``ru_maxrss``) in MB, or None
    where :mod:`resource` is missing.  Each serving process reports its
    own, so the whole tree's memory is visible without reading /proc."""
    try:
        import resource
    except ImportError:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)


class LatencyWindow:
    """Ring buffer of the last ``capacity`` latency observations (ms)."""

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._buf = np.zeros(capacity, dtype=np.float64)
        self._count = 0  # total observations ever
        self._lock = threading.Lock()

    def observe(self, value_ms: float) -> None:
        with self._lock:
            self._buf[self._count % self.capacity] = value_ms
            self._count += 1

    def __len__(self) -> int:
        with self._lock:
            return min(self._count, self.capacity)

    def values(self) -> np.ndarray:
        with self._lock:
            n = min(self._count, self.capacity)
            return self._buf[:n].copy()

    def summary(self) -> dict:
        values = self.values()
        if values.size == 0:
            return {"count": 0}
        p50, p95, p99 = np.percentile(values, [50, 95, 99])
        return {
            "count": int(values.size),
            "mean_ms": float(values.mean()),
            "p50_ms": float(p50),
            "p95_ms": float(p95),
            "p99_ms": float(p99),
            "max_ms": float(values.max()),
        }


class ModelMetrics:
    """Per-model serving counters + latency windows."""

    def __init__(self, window: int = 4096):
        self._lock = threading.Lock()
        self.requests_total = 0  # accepted into the queue
        self.responses_total = 0  # completed successfully
        self.rejected_total = 0  # backpressure (429)
        self.shed_total = 0  # admission-control sheds (429, pre-queue)
        self.deadline_exceeded_total = 0  # expired before execution (504)
        self.errors_total = 0  # kernel / internal failures (500)
        self.batches_total = 0
        self.batched_samples_total = 0
        self.batch_size_hist: Dict[int, int] = {}
        self.latency = LatencyWindow(window)  # end-to-end, enqueue → reply
        self.queue = LatencyWindow(window)  # enqueue → batch dispatch
        self.run = LatencyWindow(window)  # plan execution per batch
        # Lifetime cumulative histogram of end-to-end latency (Prometheus
        # exposition); bucket i counts observations <= LATENCY_BUCKETS_MS[i],
        # the final slot is +Inf.  ``latency_exemplars`` keeps the most
        # recent request id that landed in each bucket so a scraped p99
        # spike can be joined back to its /trace timeline.
        self.latency_bucket_counts = [0] * (len(LATENCY_BUCKETS_MS) + 1)
        self.latency_sum_ms = 0.0
        self.latency_count = 0
        self.latency_exemplars: Dict[int, tuple] = {}  # bucket idx -> (request_id, ms)
        # Per-step kernel histograms: label -> [count, sum_ms, buckets[]].
        self.steps: Dict[str, list] = {}

    # -- writers ------------------------------------------------------------
    def on_enqueue(self) -> None:
        with self._lock:
            self.requests_total += 1

    def on_reject(self) -> None:
        with self._lock:
            self.rejected_total += 1

    def on_shed(self) -> None:
        """Admission control refused the request before it touched the
        queue (watermark or tenant bucket — HTTP 429).  Counted into
        ``rejected_total`` as well: that counter remains "every 429 this
        model answered", with ``shed_total`` the admission subset."""
        with self._lock:
            self.shed_total += 1
            self.rejected_total += 1

    def on_deadline_exceeded(self, n: int = 1) -> None:
        with self._lock:
            self.deadline_exceeded_total += n

    def on_error(self, n: int = 1) -> None:
        with self._lock:
            self.errors_total += n

    def on_batch(self, size: int, run_ms: float) -> None:
        with self._lock:
            self.batches_total += 1
            self.batched_samples_total += size
            self.batch_size_hist[size] = self.batch_size_hist.get(size, 0) + 1
        self.run.observe(run_ms)

    def on_response(
        self,
        latency_ms: float,
        queue_ms: float,
        request_id: Optional[str] = None,
    ) -> None:
        bucket = 0
        while (
            bucket < len(LATENCY_BUCKETS_MS)
            and latency_ms > LATENCY_BUCKETS_MS[bucket]
        ):
            bucket += 1
        with self._lock:
            self.responses_total += 1
            self.latency_bucket_counts[bucket] += 1
            self.latency_sum_ms += latency_ms
            self.latency_count += 1
            if request_id is not None:
                self.latency_exemplars[bucket] = (request_id, latency_ms)
        self.latency.observe(latency_ms)
        self.queue.observe(queue_ms)

    def observe_step(self, label: str, ms: float) -> None:
        """One sampled per-step kernel latency (fed by traced batches at
        the server's trace rate)."""
        with self._lock:
            entry = self.steps.get(label)
            if entry is None:
                if len(self.steps) >= MAX_STEP_SERIES:
                    return
                entry = self.steps[label] = [
                    0,
                    0.0,
                    [0] * (len(STEP_BUCKETS_MS) + 1),
                ]
            entry[0] += 1
            entry[1] += ms
            bucket = 0
            while bucket < len(STEP_BUCKETS_MS) and ms > STEP_BUCKETS_MS[bucket]:
                bucket += 1
            entry[2][bucket] += 1

    # -- readers ------------------------------------------------------------
    def mean_batch_size(self) -> float:
        with self._lock:
            if self.batches_total == 0:
                return 0.0
            return self.batched_samples_total / self.batches_total

    def snapshot(self) -> dict:
        with self._lock:
            counters = {name: getattr(self, name) for name in COUNTERS}
            counters["batch_size_hist"] = {
                str(k): v for k, v in sorted(self.batch_size_hist.items())
            }
        counters["mean_batch_size"] = (
            counters["batched_samples_total"] / counters["batches_total"]
            if counters["batches_total"]
            else 0.0
        )
        counters["latency"] = self.latency.summary()
        counters["queue"] = self.queue.summary()
        counters["run"] = self.run.summary()
        with self._lock:
            counters["steps"] = {
                label: {
                    "count": entry[0],
                    "mean_ms": entry[1] / entry[0] if entry[0] else 0.0,
                }
                for label, entry in sorted(self.steps.items())
            }
        return counters

    def prom_data(self) -> dict:
        """The lifetime-histogram state the Prometheus renderer needs
        (bucket counts, sums, exemplars, per-step histograms) — not part
        of the JSON snapshot, which stays window-based summaries."""
        with self._lock:
            return {
                "counters": {name: getattr(self, name) for name in COUNTERS},
                "latency_buckets": list(self.latency_bucket_counts),
                "latency_sum_ms": self.latency_sum_ms,
                "latency_count": self.latency_count,
                "exemplars": dict(self.latency_exemplars),
                "steps": {
                    label: (entry[0], entry[1], list(entry[2]))
                    for label, entry in self.steps.items()
                },
            }


class ServerMetrics:
    """Whole-server view: per-model metrics + uptime + plan-cache stats."""

    def __init__(self, window: int = 4096):
        self._lock = threading.Lock()
        self._window = window
        self._models: Dict[str, ModelMetrics] = {}
        self.started = time.monotonic()

    def for_model(self, name: str) -> ModelMetrics:
        with self._lock:
            metrics = self._models.get(name)
            if metrics is None:
                metrics = self._models[name] = ModelMetrics(self._window)
            return metrics

    def model_names(self) -> List[str]:
        with self._lock:
            return list(self._models)

    def uptime_s(self) -> float:
        return time.monotonic() - self.started

    def snapshot(self, plan_cache_stats: Optional[dict] = None) -> dict:
        uptime = self.uptime_s()
        with self._lock:
            models = {name: m.snapshot() for name, m in self._models.items()}
        responses = sum(m["responses_total"] for m in models.values())
        requests = sum(m["requests_total"] for m in models.values())
        snap = {
            "uptime_s": uptime,
            "requests_total": requests,
            "responses_total": responses,
            "throughput_rps": responses / uptime if uptime > 0 else 0.0,
            "rss_peak_mb": peak_rss_mb(),
            "models": models,
        }
        if plan_cache_stats is not None:
            snap["plan_cache"] = plan_cache_stats
        return snap
