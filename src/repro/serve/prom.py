"""Prometheus text exposition for ``/metrics``.

``GET /metrics`` stays JSON by default; with ``Accept: text/plain`` (or
``application/openmetrics-text``) the server renders this exposition
instead.  Counters and lifetime latency histograms come from
:meth:`ModelMetrics.prom_data`; latency buckets carry OpenMetrics-style
exemplars (``# {request_id="..."} value``) so a scraped p99 spike can be
joined to its request timeline via ``GET /trace?request_id=...``.  The
per-step series only grow when tracing samples batches (the server's
``trace_rate``), so an untraced deployment pays nothing for them.

See docs/observability.md ("Prometheus exposition") for the full series
list and the exemplar caveat (exemplars follow the OpenMetrics syntax;
strict ``version=0.0.4`` parsers that reject them should scrape with an
OpenMetrics accept header or strip trailing ``#`` comments).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.serve.metrics import (
    LATENCY_BUCKETS_MS,
    STEP_BUCKETS_MS,
    ServerMetrics,
    peak_rss_mb,
)

PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _escape(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _fmt(value: float) -> str:
    # Prometheus floats: integral values print without the trailing .0
    if float(value) == int(value):
        return str(int(value))
    return repr(float(value))


def wants_prometheus(accept_header: Optional[str]) -> bool:
    """Content negotiation for /metrics: JSON unless the client asks for
    a text exposition explicitly (``text/plain`` or OpenMetrics)."""
    if not accept_header:
        return False
    accept = accept_header.lower()
    if "application/openmetrics-text" in accept:
        return True
    text_pos = accept.find("text/plain")
    if text_pos == -1:
        return False
    # An explicit JSON preference listed first wins.
    json_pos = accept.find("application/json")
    return json_pos == -1 or text_pos < json_pos


def render_prometheus(
    metrics: ServerMetrics,
    trace_info: Optional[Dict] = None,
    worker_info: Optional[Dict] = None,
    selfheal_info: Optional[Dict] = None,
) -> str:
    """Render the whole-server exposition document.

    ``worker_info`` (only with ``--workers``) is the router's
    :meth:`~repro.serve.router.WorkerRouter.stats`: pool-level
    resilience counters (respawns, watchdog kills, batch retries,
    corrupt-transport detections) and each worker's peak RSS.
    ``selfheal_info`` is :meth:`SelfHealController.snapshot` — circuit
    states, ladder rungs, autoscale decisions (docs/operations.md
    'Self-healing & autoscaling runbook').
    """
    lines: List[str] = []

    def head(name: str, kind: str, help_text: str) -> None:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")

    head("repro_uptime_seconds", "gauge", "Seconds since server start.")
    lines.append(f"repro_uptime_seconds {_fmt(metrics.uptime_s())}")
    rss = peak_rss_mb()
    if rss is not None:
        head(
            "repro_rss_peak_mb",
            "gauge",
            "Peak resident set of the server (front-end) process, MB.",
        )
        lines.append(f"repro_rss_peak_mb {_fmt(round(rss, 3))}")

    if selfheal_info:
        from repro.serve.selfheal import CIRCUIT_STATE_CODE

        circuits = selfheal_info.get("circuits") or {}
        if circuits:
            head(
                "repro_circuit_state",
                "gauge",
                "Circuit-breaker state per model (0=closed, 1=half_open, "
                "2=open).",
            )
            for model, circuit in sorted(circuits.items()):
                code = CIRCUIT_STATE_CODE.get(circuit.get("state"), 0)
                lines.append(
                    f'repro_circuit_state{{model="{_escape(model)}"}} {code}'
                )
            head(
                "repro_circuit_opens_total",
                "counter",
                "Times each model's circuit opened.",
            )
            for model, circuit in sorted(circuits.items()):
                lines.append(
                    f'repro_circuit_opens_total{{model="{_escape(model)}"}} '
                    f"{_fmt(circuit.get('opens_total', 0))}"
                )
        ladders = selfheal_info.get("ladders") or {}
        if ladders:
            head(
                "repro_brownout_position",
                "gauge",
                "Brownout ladder rung per model (0 = full quality).",
            )
            for model, ladder in sorted(ladders.items()):
                lines.append(
                    f'repro_brownout_position{{model="{_escape(model)}"}} '
                    f"{_fmt(ladder.get('position', 0))}"
                )
        autoscale = selfheal_info.get("autoscale")
        if autoscale:
            head(
                "repro_autoscale_decisions_total",
                "counter",
                "Replica scale decisions applied by the autoscaler.",
            )
            lines.append(
                "repro_autoscale_decisions_total "
                f"{_fmt(autoscale.get('decisions_total', 0))}"
            )
            head(
                "repro_autoscale_flap_freezes_total",
                "counter",
                "Flap-suppression freezes entered by the autoscaler.",
            )
            lines.append(
                "repro_autoscale_flap_freezes_total "
                f"{_fmt(autoscale.get('flap_freezes_total', 0))}"
            )
        replicas = selfheal_info.get("replicas") or {}
        if replicas:
            head(
                "repro_model_replicas",
                "gauge",
                "Worker replicas currently serving each model.",
            )
            for model, count in sorted(replicas.items()):
                lines.append(
                    f'repro_model_replicas{{model="{_escape(model)}"}} '
                    f"{_fmt(count)}"
                )

    if worker_info:
        pool_help = {
            "worker_restarts": (
                "repro_worker_restarts_total",
                "Worker processes respawned after death.",
            ),
            "watchdog_kills": (
                "repro_watchdog_kills_total",
                "Workers killed by the watchdog (hang probe or reply "
                "timeout).",
            ),
            "retries_total": (
                "repro_worker_retries_total",
                "Batches re-submitted after a worker death or corrupt "
                "response.",
            ),
            "corrupt_responses_total": (
                "repro_corrupt_responses_total",
                "Responses that failed their transport checksum.",
            ),
        }
        for key, (series, help_text) in pool_help.items():
            if key in worker_info:
                head(series, "counter", help_text)
                lines.append(f"{series} {_fmt(worker_info[key])}")
        rss_rows = [
            (entry["worker"], entry["rss_peak_mb"])
            for entry in worker_info.get("per_worker", ())
            if entry.get("rss_peak_mb") is not None
        ]
        if rss_rows:
            head(
                "repro_worker_rss_peak_mb",
                "gauge",
                "Peak resident set of each worker process, MB (last "
                "health ping).",
            )
            for worker_id, mb in rss_rows:
                lines.append(
                    f'repro_worker_rss_peak_mb{{worker="{worker_id}"}} '
                    f"{_fmt(round(mb, 3))}"
                )

    if trace_info:
        head(
            "repro_trace_buffer_spans",
            "gauge",
            "Spans currently held by the trace ring buffer.",
        )
        lines.append(
            f"repro_trace_buffer_spans {_fmt(trace_info.get('buffer_spans', 0))}"
        )
        head(
            "repro_trace_sample_rate",
            "gauge",
            "Fraction of /predict requests recorded as traces.",
        )
        lines.append(
            f"repro_trace_sample_rate {_fmt(trace_info.get('rate', 0.0))}"
        )

    counter_help = {
        "requests_total": "Requests accepted into the queue.",
        "responses_total": "Requests answered successfully.",
        "rejected_total": "Backpressure rejections (HTTP 429).",
        "shed_total": "Admission-control sheds before the queue (HTTP 429).",
        "deadline_exceeded_total": "Deadline expiries (HTTP 504).",
        "errors_total": "Execution failures (HTTP 500).",
        "batches_total": "Coalesced engine batches executed.",
        "batched_samples_total": "Samples executed across all batches.",
    }

    names = sorted(metrics.model_names())
    data = {name: metrics.for_model(name).prom_data() for name in names}

    for counter, help_text in counter_help.items():
        head(f"repro_{counter}", "counter", help_text)
        for name in names:
            lines.append(
                f'repro_{counter}{{model="{_escape(name)}"}} '
                f"{_fmt(data[name]['counters'][counter])}"
            )

    head(
        "repro_request_latency_ms",
        "histogram",
        "End-to-end request latency (enqueue to reply), milliseconds; "
        "buckets carry request-id exemplars.",
    )
    for name in names:
        d = data[name]
        cumulative = 0
        for i, le in enumerate(list(LATENCY_BUCKETS_MS) + ["+Inf"]):
            cumulative += d["latency_buckets"][i]
            le_txt = "+Inf" if le == "+Inf" else _fmt(le)
            line = (
                f"repro_request_latency_ms_bucket"
                f'{{model="{_escape(name)}",le="{le_txt}"}} {cumulative}'
            )
            exemplar = d["exemplars"].get(i)
            if exemplar is not None:
                rid, value = exemplar
                line += (
                    f' # {{request_id="{_escape(str(rid))}"}} '
                    f"{_fmt(round(value, 3))}"
                )
            lines.append(line)
        lines.append(
            f'repro_request_latency_ms_sum{{model="{_escape(name)}"}} '
            f"{_fmt(round(d['latency_sum_ms'], 3))}"
        )
        lines.append(
            f'repro_request_latency_ms_count{{model="{_escape(name)}"}} '
            f"{d['latency_count']}"
        )

    any_steps = any(d["steps"] for d in data.values())
    if any_steps:
        head(
            "repro_step_latency_ms",
            "histogram",
            "Per-plan-step kernel latency from traced batches, "
            "milliseconds (sampled at the trace rate).",
        )
        for name in names:
            for label, (count, sum_ms, buckets) in sorted(
                data[name]["steps"].items()
            ):
                base = (
                    f'model="{_escape(name)}",step="{_escape(label)}"'
                )
                cumulative = 0
                for i, le in enumerate(list(STEP_BUCKETS_MS) + ["+Inf"]):
                    cumulative += buckets[i]
                    le_txt = "+Inf" if le == "+Inf" else _fmt(le)
                    lines.append(
                        f"repro_step_latency_ms_bucket{{{base},"
                        f'le="{le_txt}"}} {cumulative}'
                    )
                lines.append(
                    f"repro_step_latency_ms_sum{{{base}}} "
                    f"{_fmt(round(sum_ms, 3))}"
                )
                lines.append(
                    f"repro_step_latency_ms_count{{{base}}} {count}"
                )

    return "\n".join(lines) + "\n"
