"""Load generators (closed- and open-loop) + the serving benchmarks.

:func:`run_load` drives a running server with ``concurrency`` closed-loop
worker threads (each with its own keep-alive connection) and reports
client-side latency percentiles plus server-side batch statistics (taken
as a ``/metrics`` delta, so only this run's batches are counted).

:func:`run_open_loop` instead fires requests on a seeded Poisson arrival
process at a fixed offered rate — arrivals don't wait for responses, so
an overloaded server *stays* offered-overloaded instead of being
throttled by its own latency (the closed-loop coordination artifact).
That is the honest way to measure shedding: :func:`measure_overload_goodput`
runs it at 2× measured capacity and reports *goodput* (on-time successes
per second), the ``overload_goodput`` entry in ``BENCH_serve.json``.

:func:`benchmark_serving` is the self-contained sweep behind
``benchmarks/bench_serve_throughput.py`` and ``repro loadgen --sweep``:
it starts an in-process server per batching policy, sweeps concurrency,
verifies bit-identity of served outputs against direct
``CompiledPlan.run`` on the reference backend, and writes
``BENCH_serve.json``.
"""

from __future__ import annotations

import json
import queue
import random
import threading
import time
import uuid
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.serve.batcher import BatchPolicy
from repro.serve.client import ServeClient, ServeError
from repro.serve.registry import ModelRegistry, ModelSpec
from repro.serve.server import start_in_background

#: The two policies the benchmark compares: batch-1 serving (the control)
#: vs dynamic micro-batching.
POLICIES: Dict[str, BatchPolicy] = {
    "batch1": BatchPolicy(
        max_batch_size=1, max_wait_ms=0.0, max_queue=512, default_deadline_ms=30000
    ),
    "dynamic": BatchPolicy(
        max_batch_size=64, max_wait_ms=8.0, max_queue=512, default_deadline_ms=30000
    ),
}


def _model_metrics(client: ServeClient, model: str) -> dict:
    return client.metrics()["models"].get(model, {})


def _wire_payloads(samples, encoding: str) -> Tuple[list, dict]:
    """Every sample pre-encoded for the wire, plus the body's encoding
    field (absent for JSON)."""
    samples = np.asarray(samples, dtype=np.float32)
    payloads = [ServeClient.encode_sample(x, encoding) for x in samples]
    return payloads, ({} if encoding == "json" else {"encoding": encoding})


def _save_artifact(spec: ModelSpec, plan, path: str) -> None:
    from repro.engine.artifact import save_plan

    save_plan(
        plan, path, input_shape=(1,) + spec.sample_shape,
        extra={"model": spec.name, "seed": spec.seed},
    )


def _send_predict(client: ServeClient, payload: dict, request_id: str):
    """POST one ``/predict``; the outcome is 200, the typed HTTP status,
    or ``"transport"`` (timeout / reset / refused — the client reconnects
    on its next request, so a load run accounts for every request)."""
    try:
        client.request(
            "POST", "/predict", payload, headers={"X-Request-Id": request_id}
        )
        return 200
    except ServeError as exc:
        return exc.status
    except Exception:  # noqa: BLE001 — any transport failure is counted
        return "transport"


def _best_of_trials(
    base_url: str, model: str, samples, concurrency: int,
    total_requests: int, trials: int,
) -> dict:
    """Best-throughput trial of ``run_load`` (wall-clock interference on
    a shared host only ever lowers closed-loop throughput, so the best
    trial is the least-interfered estimate) — the one measurement rule
    every number in the serving report comes from."""
    return max(
        (
            run_load(
                base_url, model, samples,
                concurrency=concurrency, total_requests=total_requests,
            )
            for _ in range(max(1, trials))
        ),
        key=lambda s: s["throughput_rps"],
    )


def run_load(
    base_url: str,
    model: str,
    samples: np.ndarray,
    concurrency: int = 16,
    total_requests: int = 256,
    deadline_ms: Optional[float] = None,
    warmup_requests: int = 8,
    timeout: float = 120.0,
    encoding: str = "b64",
    preconnect: bool = True,
) -> dict:
    """Closed-loop load: ``concurrency`` workers, ``total_requests`` total.

    ``samples`` is ``(N, C, H, W)``; workers cycle through it.  Payloads
    default to the ``b64`` wire encoding so the generator measures the
    serving stack rather than JSON float formatting.  Returns a stats
    dict (throughput, latency percentiles, error counts, and the
    server-side batch-size profile observed during the run).

    Each worker thread establishes its keep-alive connection *before*
    the start barrier (``preconnect``), so the first timed request
    measures request → full-body-read like every later one instead of
    folding TCP connection setup into its latency — on a cold
    accept-queue that inflates p99 by the whole connect cost.
    (``preconnect=False`` reproduces the old, inflated timing; it exists
    for the regression test.)

    Every request carries a generated ``X-Request-Id`` (``lg-…``), and
    the returned stats include ``slowest`` — the worst-latency
    ``(request_id, latency_ms)`` pairs — so a traced server's span trees
    for exactly those requests can be pulled afterwards
    (:func:`dump_slowest`, ``repro loadgen --dump-slowest N``).
    """
    if concurrency < 1 or total_requests < 1:
        raise ValueError("concurrency and total_requests must be >= 1")
    payloads, extra = _wire_payloads(samples, encoding)

    with ServeClient(base_url, timeout=timeout) as probe:
        for i in range(warmup_requests):
            probe.request(
                "POST",
                "/predict",
                {"model": model, "input": payloads[i % len(payloads)], **extra},
            )
        before = _model_metrics(probe, model)

    latencies: List[List[float]] = [[] for _ in range(concurrency)]
    request_log: List[List[Tuple[str, float]]] = [[] for _ in range(concurrency)]
    status_counts: Dict[int, int] = {}
    counts_lock = threading.Lock()
    barrier = threading.Barrier(concurrency + 1)
    shares = [
        total_requests // concurrency + (1 if i < total_requests % concurrency else 0)
        for i in range(concurrency)
    ]

    def worker(index: int) -> None:
        with ServeClient(base_url, timeout=timeout) as client:
            if preconnect:
                try:
                    client.connect()
                except OSError:
                    pass  # the timed path will retry (and count) it
            barrier.wait()
            for j in range(shares[index]):
                payload = {
                    "model": model,
                    "input": payloads[(index + j * concurrency) % len(payloads)],
                    **extra,
                }
                if deadline_ms is not None:
                    payload["deadline_ms"] = deadline_ms
                rid = f"lg-{uuid.uuid4().hex[:12]}"
                start = time.perf_counter()
                status = _send_predict(client, payload, rid)
                if status != 200:
                    with counts_lock:
                        status_counts[status] = status_counts.get(status, 0) + 1
                    continue
                latency_ms = (time.perf_counter() - start) * 1e3
                latencies[index].append(latency_ms)
                request_log[index].append((rid, latency_ms))

    threads = [
        threading.Thread(target=worker, args=(i,), daemon=True)
        for i in range(concurrency)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    t0 = time.perf_counter()
    for thread in threads:
        thread.join()
    duration_s = time.perf_counter() - t0

    with ServeClient(base_url, timeout=timeout) as probe:
        after = _model_metrics(probe, model)

    flat = np.asarray([ms for per in latencies for ms in per], dtype=np.float64)
    completed = int(flat.size)
    stats = {
        "concurrency": concurrency,
        "total_requests": total_requests,
        "completed": completed,
        "failed_by_status": {
            str(k): v
            for k, v in sorted(status_counts.items(), key=lambda kv: str(kv[0]))
        },
        "duration_s": duration_s,
        "throughput_rps": completed / duration_s if duration_s > 0 else 0.0,
    }
    if completed:
        p50, p95, p99 = np.percentile(flat, [50, 95, 99])
        stats.update(
            mean_ms=float(flat.mean()),
            p50_ms=float(p50),
            p95_ms=float(p95),
            p99_ms=float(p99),
            max_ms=float(flat.max()),
        )
    batches = after.get("batches_total", 0) - before.get("batches_total", 0)
    batched = after.get("batched_samples_total", 0) - before.get(
        "batched_samples_total", 0
    )
    stats["batches"] = batches
    stats["mean_batch_size"] = batched / batches if batches else 0.0
    all_requests = [pair for per in request_log for pair in per]
    all_requests.sort(key=lambda pair: pair[1], reverse=True)
    stats["slowest"] = [
        {"request_id": rid, "latency_ms": ms}
        for rid, ms in all_requests[:16]
    ]
    return stats


def poisson_arrivals(
    rate_rps: float, duration_s: float, seed: int = 0
) -> List[float]:
    """Arrival offsets (seconds) of a Poisson process: seeded exponential
    inter-arrival gaps at ``rate_rps``, truncated at ``duration_s``.

    Pure and deterministic — the schedule a given ``(rate, duration,
    seed)`` produces is identical everywhere, so open-loop runs are
    replayable."""
    if rate_rps <= 0:
        raise ValueError("rate_rps must be > 0")
    if duration_s <= 0:
        raise ValueError("duration_s must be > 0")
    rng = random.Random(seed)
    out: List[float] = []
    t = rng.expovariate(rate_rps)
    while t < duration_s:
        out.append(t)
        t += rng.expovariate(rate_rps)
    return out


#: Default traffic mix for :func:`run_open_loop`: one standard class,
#: no deadline — callers override with an explicit mix.
_DEFAULT_CLASSES = ({"name": "standard", "priority": "standard", "weight": 1.0},)


def run_open_loop(
    base_url: str,
    model: str,
    samples: np.ndarray,
    rate_rps: float,
    duration_s: float,
    classes: Optional[Sequence[dict]] = None,
    seed: int = 0,
    encoding: str = "b64",
    timeout: float = 30.0,
    client_threads: int = 32,
    collect_request_ids: bool = False,
) -> dict:
    """Open-loop load: requests fire on a seeded Poisson schedule.

    Each arrival draws a traffic *class* — ``{"name", "priority",
    "deadline_ms", "weight", "tenant"}`` (all but ``name`` optional) —
    by weight from the same seed, so a run is fully replayable.  A pool
    of ``client_threads`` sender threads (each with its own keep-alive
    connection) drains the schedule; because senders never wait for a
    response before the *next arrival is due*, an overloaded server
    keeps receiving the offered rate.

    Every request's outcome is recorded — 2xx, typed HTTP status, or
    ``transport`` — so ``sent == accounted`` detects silent drops.
    *Goodput* counts only 2xx responses that beat their class deadline
    (classes without one count every 2xx).  With
    ``collect_request_ids``, per-outcome request-id lists come back too
    (how the overload gate joins 504s against executed batch spans).
    """
    class_list = [dict(c) for c in (classes or _DEFAULT_CLASSES)]
    for c in class_list:
        c.setdefault("priority", "standard")
        c.setdefault("deadline_ms", None)
        c.setdefault("weight", 1.0)
        c.setdefault("tenant", None)
    arrivals = poisson_arrivals(rate_rps, duration_s, seed=seed)
    rng = random.Random(seed ^ 0x9E3779B9)
    assigned = rng.choices(
        range(len(class_list)),
        weights=[c["weight"] for c in class_list],
        k=len(arrivals),
    )

    payloads, extra = _wire_payloads(samples, encoding)

    jobs: "queue.Queue" = queue.Queue()
    records: List[Tuple[int, object, float, str]] = []  # (class, status, ms, rid)
    records_lock = threading.Lock()

    def sender() -> None:
        with ServeClient(base_url, timeout=timeout) as client:
            try:
                client.connect()
            except Exception:  # noqa: BLE001 — the timed path will retry
                pass
            while True:
                job = jobs.get()
                if job is None:
                    return
                index, cls_index = job
                cls = class_list[cls_index]
                payload = {
                    "model": model,
                    "input": payloads[index % len(payloads)],
                    "priority": cls["priority"],
                    **extra,
                }
                if cls["deadline_ms"] is not None:
                    payload["deadline_ms"] = cls["deadline_ms"]
                if cls["tenant"] is not None:
                    payload["tenant"] = cls["tenant"]
                rid = f"ol-{index:06d}-{uuid.uuid4().hex[:8]}"
                t0 = time.perf_counter()
                status = _send_predict(client, payload, rid)
                latency_ms = (time.perf_counter() - t0) * 1e3
                with records_lock:
                    records.append((cls_index, status, latency_ms, rid))

    n_threads = max(1, min(client_threads, len(arrivals) or 1))
    threads = [
        threading.Thread(target=sender, daemon=True) for _ in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    t_start = time.perf_counter()
    for index, (t_due, cls_index) in enumerate(zip(arrivals, assigned)):
        lag = t_due - (time.perf_counter() - t_start)
        if lag > 0:
            time.sleep(lag)
        jobs.put((index, cls_index))
    for _ in threads:
        jobs.put(None)
    for thread in threads:
        thread.join()
    elapsed_s = time.perf_counter() - t_start

    by_status: Dict[str, int] = {}
    per_class: Dict[str, dict] = {}
    rids_by_outcome: Dict[str, List[str]] = {}
    goodput = 0
    for name in [c["name"] for c in class_list]:
        per_class[name] = {
            "sent": 0, "ok": 0, "within_deadline": 0, "latencies": []
        }
    for cls_index, status, latency_ms, rid in records:
        cls = class_list[cls_index]
        key = str(status)
        by_status[key] = by_status.get(key, 0) + 1
        if collect_request_ids:
            rids_by_outcome.setdefault(key, []).append(rid)
        entry = per_class[cls["name"]]
        entry["sent"] += 1
        if status == 200:
            entry["ok"] += 1
            entry["latencies"].append(latency_ms)
            deadline = cls["deadline_ms"]
            if deadline is None or latency_ms <= deadline:
                entry["within_deadline"] += 1
                goodput += 1

    for name, entry in per_class.items():
        lat = np.asarray(entry.pop("latencies"), dtype=np.float64)
        if lat.size:
            p50, p99 = np.percentile(lat, [50, 99])
            entry["p50_ms"] = float(p50)
            entry["p99_ms"] = float(p99)

    accounted = len(records)
    stats = {
        "rate_rps": rate_rps,
        "duration_s": duration_s,
        "elapsed_s": elapsed_s,
        "seed": seed,
        "sent": len(arrivals),
        "accounted": accounted,
        "unaccounted": len(arrivals) - accounted,
        "by_status": dict(sorted(by_status.items())),
        "classes": per_class,
        "goodput": goodput,
        "goodput_rps": goodput / elapsed_s if elapsed_s > 0 else 0.0,
        "goodput_ratio": goodput / len(arrivals) if arrivals else 0.0,
    }
    if collect_request_ids:
        stats["request_ids"] = rids_by_outcome
    return stats


def _executed_request_ids(base_url: str, timeout: float = 30.0) -> set:
    """Request ids that reached execution, read from the server's span
    buffer: every ``batch`` span lists its *executed* members in the
    ``request_ids`` attr (expelled-at-formation requests never appear)."""
    with ServeClient(base_url, timeout=timeout) as client:
        doc = client.trace(format="spans")
    executed = set()
    for span in doc.get("spans", []):
        if span.get("name") == "batch":
            executed.update(span.get("attrs", {}).get("request_ids") or [])
    return executed


def _overload_classes(tight_deadline_ms: float) -> List[dict]:
    """The overload drills' traffic mix: 25 % ``interactive`` on a tight
    deadline, 75 % ``batch`` on the server default deadline."""
    return [
        {"name": "tight", "priority": "interactive",
         "deadline_ms": tight_deadline_ms, "weight": 0.25},
        {"name": "loose", "priority": "batch", "weight": 0.75},
    ]


def _open_loop_leg(base_url: str, model: str, samples: np.ndarray, **kwargs) -> dict:
    """:func:`run_open_loop` plus the overload honesty join: the run's
    stats with ``request_ids`` replaced by ``expired_executed``, the
    number of 504'd request ids that still appear in an executed batch
    span (must be 0).  The server must trace at rate 1.0."""
    stats = run_open_loop(
        base_url, model, samples, collect_request_ids=True, **kwargs
    )
    executed = _executed_request_ids(base_url)
    expired = set(stats.pop("request_ids").get("504", []))
    stats["expired_executed"] = len(expired & executed)
    return stats


def measure_overload_goodput(
    model_name: str,
    workers: int = 0,
    quick: bool = False,
    verbose: bool = True,
    seed: int = 0,
) -> dict:
    """The overload-honesty benchmark (ISSUE 8): offered load at 2×
    measured capacity must shed *predictably*.

    Three steps against one in-process (or ``workers``-sharded) server
    traced at rate 1.0:

    1. closed-loop capacity measurement (``capacity_rps``, p50);
    2. open-loop Poisson traffic at ``2 × capacity_rps`` with a 25 %
       ``interactive`` slice on a tight deadline (``max(30 ms, 5×p50)``)
       and a 75 % ``batch`` slice on the server default deadline;
    3. the honesty checks — every request accounted (no silent drops),
       and **no expired request executed**: the 504s' request ids must
       be disjoint from the ids inside executed ``batch`` spans.

    The returned entry is gated by ``benchmarks/check_bench_regression.py``
    (``overload_goodput``).
    """
    spec = ModelSpec.parse(model_name)
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal((32,) + spec.sample_shape).astype(np.float32)
    registry = ModelRegistry(lazy=workers > 0)
    served = registry.load(spec)

    capacity_requests = 96 if quick else 256
    duration_s = 1.5 if quick else 4.0

    with start_in_background(
        registry,
        policy=POLICIES["dynamic"],
        workers=workers,
        worker_replicas=workers or None,
        trace_rate=1.0,
    ) as handle:
        capacity = _best_of_trials(
            handle.base_url, served.name, samples,
            concurrency=16, total_requests=capacity_requests,
            trials=1 if quick else 2,
        )
        capacity_rps = capacity["throughput_rps"]
        tight_deadline_ms = max(30.0, 5.0 * capacity.get("p50_ms", 6.0))
        offered_rps = 2.0 * capacity_rps
        classes = _overload_classes(tight_deadline_ms)
        open_stats = _open_loop_leg(
            handle.base_url, served.name, samples,
            rate_rps=offered_rps, duration_s=duration_s,
            classes=classes, seed=seed, client_threads=48,
        )

    tight = open_stats["classes"]["tight"]
    entry = {
        "model": served.name,
        "workers": workers,
        "quick": bool(quick),
        "seed": seed,
        "capacity_rps": capacity_rps,
        "offered_rps": offered_rps,
        "duration_s": duration_s,
        "sent": open_stats["sent"],
        "goodput_rps": open_stats["goodput_rps"],
        "goodput_ratio": open_stats["goodput_ratio"],
        "sheds_429": open_stats["by_status"].get("429", 0),
        "expired_504": open_stats["by_status"].get("504", 0),
        "expired_executed": open_stats["expired_executed"],
        "unaccounted": open_stats["unaccounted"],
        "tight": {
            "deadline_ms": tight_deadline_ms,
            "sent": tight["sent"],
            "ok": tight["ok"],
            "within_deadline": tight["within_deadline"],
            "p99_ms": tight.get("p99_ms"),
        },
        "by_status": open_stats["by_status"],
    }
    if verbose:
        print(
            f"overload 2x: capacity {capacity_rps:.0f} rps, offered "
            f"{offered_rps:.0f} rps -> goodput {entry['goodput_rps']:.0f} rps "
            f"({entry['goodput_ratio']:.0%} of sent); 429s "
            f"{entry['sheds_429']}, 504s {entry['expired_504']} "
            f"(executed-after-expiry {entry['expired_executed']}, "
            f"unaccounted {entry['unaccounted']})"
        )
    return entry


def dump_slowest(
    base_url: str,
    stats: dict,
    n: int,
    out_path: str,
    timeout: float = 30.0,
) -> dict:
    """Write the span trees of a load run's worst-``n`` requests.

    For each of the top-``n`` entries in ``stats["slowest"]``, fetch
    ``GET /trace?request_id=…&format=spans`` from the (still-running)
    server and nest the spans with
    :func:`repro.obs.trace.build_span_trees`.  A request whose spans
    were never sampled (server ``trace_rate`` < 1) or already evicted
    from the ring dumps with an empty tree rather than failing the run.
    """
    from repro.obs.trace import Span, build_span_trees

    worst = (stats.get("slowest") or [])[: max(0, n)]
    entries = []
    with ServeClient(base_url, timeout=timeout) as client:
        for item in worst:
            rid = item["request_id"]
            try:
                doc = client.trace(request_id=rid, format="spans")
                spans = [Span.from_dict(d) for d in doc.get("spans", [])]
                entry = {
                    "request_id": rid,
                    "latency_ms": item["latency_ms"],
                    "span_count": len(spans),
                    "tree": build_span_trees(spans),
                }
            except ServeError as exc:
                entry = {
                    "request_id": rid,
                    "latency_ms": item["latency_ms"],
                    "error": str(exc),
                }
            entries.append(entry)
    payload = {"requested": n, "slowest": entries}
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return payload


def check_bit_identity(
    base_url: str, model: str, served_plan, samples: np.ndarray, concurrency: int = 8
) -> bool:
    """Fire samples concurrently; assert each equals direct ``plan.run``."""
    samples = np.asarray(samples, dtype=np.float32)
    expected = [served_plan.run(samples[i : i + 1]) for i in range(samples.shape[0])]
    got: List[Optional[np.ndarray]] = [None] * samples.shape[0]

    def worker(indices: Sequence[int]) -> None:
        with ServeClient(base_url) as client:
            for i in indices:
                got[i] = client.predict(samples[i], model=model, encoding="b64")[None]

    threads = [
        threading.Thread(
            target=worker, args=(range(k, samples.shape[0], concurrency),), daemon=True
        )
        for k in range(concurrency)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return all(
        g is not None and np.array_equal(g, e) for g, e in zip(got, expected)
    )


def measure_artifact_cold_start(
    model_name: str,
    workers: int = 2,
    verbose: bool = True,
) -> dict:
    """AOT-artifact leg of the serving benchmark (ISSUE 6).

    Measures, for one variant:

    * ``compile_ms`` — build + calibrate + compile + warm from scratch
      against a **fresh** plan cache (the honest pre-artifact worker
      boot cost);
    * ``load_ms`` — :func:`repro.engine.artifact.load_plan` on the saved
      artifact (mmap + kernel re-resolution) with ``verify=False``, the
      worker boot path: the content hash is checked once at deploy time
      by the parent, not by every booting worker;
    * ``speedup`` — compile_ms / load_ms (the gated cold-start claim);
    * ``workers_boot_ms`` — wall-clock for a ``--workers N`` server to
      become ready when every worker boots by mmapping the artifact;
    * ``hot_swap`` — a blue/green deploy of a second artifact **while**
      closed-loop clients hammer the server: ``requests_failed`` must be
      0 (zero-drop cutover; docs/operations.md 'Blue/green deploys and
      rollback').
    """
    import os
    import shutil
    import tempfile

    from repro.engine.artifact import load_plan
    from repro.engine.cache import PlanCache
    from repro.serve.registry import compile_served

    spec = ModelSpec.parse(model_name)
    tmpdir = tempfile.mkdtemp(prefix="repro-artifact-bench-")
    try:
        path = os.path.join(tmpdir, spec.name + ".rpln")
        # Best of 3 for both legs: scheduler interference on a shared
        # host only ever *slows* a timing, so the minimum is the least-
        # interfered estimate of each cost (same rationale as
        # _best_of_trials).
        compile_ms = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            served = compile_served(spec, cache=PlanCache())
            compile_ms = min(compile_ms, (time.perf_counter() - t0) * 1e3)
        _save_artifact(spec, served.plan, path)
        load_ms = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            loaded = load_plan(path, verify=False)
            load_ms = min(load_ms, (time.perf_counter() - t0) * 1e3)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4,) + spec.sample_shape).astype(np.float32)
        bit_identical = bool(np.array_equal(loaded.run(x), served.plan.run(x)))

        # Worker-pool cold start: every worker mmaps instead of compiling.
        registry = ModelRegistry(lazy=True)
        registry.load(path)
        t0 = time.perf_counter()
        handle = start_in_background(
            registry, policy=POLICIES["dynamic"], workers=workers,
            worker_replicas=workers,
        )
        workers_boot_ms = (time.perf_counter() - t0) * 1e3

        # Blue/green hot-swap under load: zero dropped requests.
        path2 = os.path.join(tmpdir, spec.name + ".v2.rpln")
        shutil.copy(path, path2)  # same plan, new deployment
        ok, failures = [0], []
        stop = threading.Event()

        def hammer(index: int) -> None:
            with ServeClient(handle.base_url) as client:
                while not stop.is_set():
                    try:
                        client.predict(
                            x[index % 4], model=spec.name, encoding="b64"
                        )
                        ok[0] += 1
                    except Exception as exc:  # noqa: BLE001 — counted
                        failures.append(repr(exc))

        hammers = [
            threading.Thread(target=hammer, args=(i,), daemon=True)
            for i in range(4)
        ]
        try:
            for thread in hammers:
                thread.start()
            time.sleep(0.4)
            with ServeClient(handle.base_url, timeout=120.0) as client:
                deploy = client.request(
                    "POST", "/models", {"artifact": path2, "watch_s": 0.3}
                )
            time.sleep(0.6)  # traffic through the watch window
        finally:
            stop.set()
            for thread in hammers:
                thread.join(timeout=10)
            handle.stop()
        result = {
            "model": spec.name,
            "compile_ms": compile_ms,
            "load_ms": load_ms,
            "speedup": compile_ms / load_ms if load_ms > 0 else None,
            "bit_identical": bit_identical,
            "workers": workers,
            "workers_boot_ms": workers_boot_ms,
            "artifact_bytes": os.path.getsize(path),
            "hot_swap": {
                "deployed_version": deploy["version"],
                "previous_version": deploy["previous_version"],
                "drained": deploy["drained"],
                "requests_ok": ok[0],
                "requests_failed": len(failures),
            },
        }
        if verbose:
            print(
                f"artifact cold start: compile {compile_ms:.0f} ms vs "
                f"mmap load {load_ms:.1f} ms ({result['speedup']:.0f}x); "
                f"workers={workers} boot {workers_boot_ms:.0f} ms; "
                f"hot-swap ok={ok[0]} failed={len(failures)}"
            )
        return result
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def _spawn_serve_cli(flags: Sequence[str], timeout: float = 240.0):
    """Launch ``repro serve`` in its own process group and block until the
    ``serving on http://...`` banner prints; return ``(proc, base_url)``.

    A subprocess — not :func:`start_in_background` — is what makes the
    kill -9 recovery drill honest: SIGKILL to the whole group takes down
    the front-end *and* its workers with no chance to drain, flush, or
    run any Python cleanup, exactly like a host dying mid-flight.
    """
    import re
    import subprocess
    import sys

    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", *flags],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
    )
    ready = threading.Event()
    box: dict = {"log": []}

    def drain() -> None:
        for line in proc.stdout:  # type: ignore[union-attr]
            box["log"].append(line)
            match = re.search(r"serving on (http://[\d.]+:\d+)", line)
            if match and "url" not in box:
                box["url"] = match.group(1)
                ready.set()
        ready.set()  # EOF without a banner: the process died at boot

    threading.Thread(target=drain, daemon=True).start()
    ready.wait(timeout)
    if "url" not in box:
        _kill_serve_group(proc)
        log = "".join(box["log"])[-2000:]
        raise RuntimeError(f"serve subprocess never became ready:\n{log}")
    return proc, box["url"]


def _kill_serve_group(proc, sig=None) -> None:
    """Signal a ``_spawn_serve_cli`` process group and reap it (SIGKILL by
    default; escalates if a gentler signal doesn't exit within 15 s)."""
    import os
    import signal
    import subprocess

    if sig is None:
        sig = signal.SIGKILL
    try:
        os.killpg(os.getpgid(proc.pid), sig)
    except (ProcessLookupError, PermissionError):
        return
    try:
        proc.wait(timeout=15)
    except subprocess.TimeoutExpired:
        try:
            os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        proc.wait(timeout=5)


def _crash_recovery_drill(
    artifact_v1: str,
    artifact_v2: str,
    model: str,
    state_dir: str,
    workers: int,
    sample: np.ndarray,
    verbose: bool,
) -> dict:
    """Kill -9 a ``--state-dir`` server mid-flight; restart must recover.

    Boots the CLI server on artifact v1, hot-deploys artifact v2 (a
    different content hash) over HTTP so the deploy exists *only* in the
    journal, SIGKILLs the whole process group, then restarts with the
    same flags.  Recovery means zero manual re-deploys: every model
    comes back at its pre-kill content-hash version and the recovered
    server's predictions are bit-identical to the pre-kill ones.
    """
    import signal

    flags = [
        "--model", artifact_v1,
        "--workers", str(workers),
        "--worker-replicas", "1",
        "--port", "0",
        "--state-dir", state_dir,
        "--autoscale",
        "--autoscale-max", str(workers),
    ]
    proc, url = _spawn_serve_cli(flags)
    try:
        with ServeClient(url, timeout=120.0) as client:
            deploy = client.request(
                "POST", "/models", {"artifact": artifact_v2, "watch_s": 0.2}
            )
            before = {
                info["name"]: info["version"]
                for info in client.models()["models"]
            }
            reference = client.predict(sample, model=model, encoding="b64")
    finally:
        _kill_serve_group(proc)  # SIGKILL: no drain, no journal flush

    proc2, url2 = _spawn_serve_cli(flags)
    try:
        with ServeClient(url2) as client:
            doc = client.models()
            after = {
                info["name"]: info["version"] for info in doc["models"]
            }
            replay = doc.get("journal_replay") or {}
            recovered = client.predict(sample, model=model, encoding="b64")
    finally:
        _kill_serve_group(proc2, signal.SIGTERM)

    versions_match = all(
        after.get(name) == version for name, version in before.items()
    )
    response_identical = bool(np.array_equal(reference, recovered))
    entry = {
        "deployed_version": deploy["version"],
        "models_before": before,
        "models_after": after,
        "versions_match": versions_match,
        "response_identical": response_identical,
        "journal_records_replayed": replay.get("records", 0),
        "deploys_restored": list(replay.get("deploys_restored") or []),
        "recovered": bool(
            versions_match
            and response_identical
            and after.get(model) == deploy["version"]
        ),
    }
    if verbose:
        print(
            f"kill -9 recovery: deployed {deploy['version']}; restart "
            f"replayed {entry['journal_records_replayed']} records, "
            f"restored {len(entry['deploys_restored'])} deploys; "
            f"versions_match={versions_match} "
            f"bit_identical={response_identical}"
        )
    return entry


def measure_selfheal_goodput(
    model_name: str = "resnet18-w0.25-F4-int8",
    workers: int = 2,
    quick: bool = False,
    verbose: bool = True,
    seed: int = 0,
) -> dict:
    """The self-healing benchmark (ISSUE 9): under the same crash-storm
    chaos and the same overload schedule, an autoscaler+brownout server
    must sustain strictly higher goodput than a static single-replica
    baseline — and a kill -9 must be survivable from ``--state-dir``.

    Four steps:

    1. closed-loop capacity of the *static* topology (1 replica on a
       ``workers``-process pool, no chaos) — the shared denominator;
    2. static leg: open-loop Poisson at ``3 × capacity`` against a
       64-deep queue with ``crash_storm`` chaos, replicas pinned at 1;
    3. selfheal leg: the *same* offered schedule and chaos seed, but the
       control loop may scale 1..``workers`` replicas and step the
       brownout ladder down to the native ``@int8`` rung under sustained
       pressure (journaling every decision to ``--state-dir``);
    4. the kill -9 recovery drill (:func:`_crash_recovery_drill`).

    Both legs run traced at rate 1.0 so the overload honesty checks
    apply: every request accounted, and no expired request executed.
    The returned entry is gated by
    ``benchmarks/check_bench_regression.py`` (``selfheal_goodput``).
    """
    import dataclasses
    import os
    import shutil
    import tempfile

    from repro.engine.cache import PlanCache
    from repro.serve.autoscale import AutoscalePolicy
    from repro.serve.registry import compile_served
    from repro.serve.selfheal import SelfHealPolicy

    base = model_name.split("@")[0]
    spec = ModelSpec.parse(base)
    fallback = base + "@int8"
    workers = max(2, int(workers))
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal((32,) + spec.sample_shape).astype(np.float32)
    duration_s = 1.5 if quick else 4.0
    chaos_spec = f"seed={seed + 7},crash_storm=0.4:500"

    tmpdir = tempfile.mkdtemp(prefix="repro-selfheal-bench-")
    try:
        # Two artifacts of the same model with *different* weights (the
        # seed changes them), so the recovery drill's runtime deploy has
        # a distinct content hash the journal must bring back exactly.
        served = compile_served(spec, cache=PlanCache())
        artifact_v1 = os.path.join(tmpdir, spec.name + ".rpln")
        _save_artifact(spec, served.plan, artifact_v1)
        respec = dataclasses.replace(spec, seed=spec.seed + 1)
        served2 = compile_served(respec, cache=PlanCache())
        artifact_v2 = os.path.join(tmpdir, spec.name + ".v2.rpln")
        _save_artifact(respec, served2.plan, artifact_v2)

        # -- step 1: static-topology capacity, no chaos -------------------
        registry = ModelRegistry(lazy=True)
        registry.load(artifact_v1)
        with start_in_background(
            registry, policy=POLICIES["dynamic"], workers=workers,
            worker_replicas=1,
        ) as handle:
            capacity = _best_of_trials(
                handle.base_url, spec.name, samples,
                concurrency=16, total_requests=96 if quick else 256,
                trials=1 if quick else 2,
            )
        capacity_rps = capacity["throughput_rps"]
        # 3x one replica's capacity against a deliberately small queue:
        # the static leg *must* saturate (its only release valves are 64
        # queue slots, sheds, and deadline expiries), while the selfheal
        # leg can still absorb more by scaling 1 -> ``workers`` replicas
        # and stepping down to the int8 rung.  The bounded queue is
        # what turns overload into a goodput difference instead of
        # silent buffering — and the load generator must run *more*
        # client threads than there are queue slots, or client-side
        # concurrency caps the queue depth below the shed point and
        # both legs look identical.
        offered_rps = 3.0 * capacity_rps
        leg_policy = BatchPolicy(
            max_batch_size=64, max_wait_ms=8.0, max_queue=64,
            default_deadline_ms=1500,
        )
        tight_deadline_ms = max(50.0, 5.0 * capacity.get("p50_ms", 6.0))
        classes = _overload_classes(tight_deadline_ms)

        def run_leg(selfheal=None, state_dir=None) -> Tuple[dict, Optional[dict]]:
            reg = ModelRegistry(lazy=True)
            reg.load(artifact_v1)
            if selfheal is not None:
                # The ladder's rung must be servable the instant a
                # brownout steps down (same rule the CLI enforces).
                reg.load(fallback)
            with start_in_background(
                reg, policy=leg_policy, workers=workers,
                worker_replicas=1, trace_rate=1.0, chaos=chaos_spec,
                selfheal=selfheal, state_dir=state_dir,
            ) as handle:
                stats = _open_loop_leg(
                    handle.base_url, spec.name, samples,
                    rate_rps=offered_rps, duration_s=duration_s,
                    classes=classes, seed=seed, client_threads=160,
                )
                heal_info = None
                if selfheal is not None:
                    with ServeClient(handle.base_url) as client:
                        heal_info = client.metrics().get("selfheal")
            leg = {
                "sent": stats["sent"],
                "goodput_rps": stats["goodput_rps"],
                "goodput_ratio": stats["goodput_ratio"],
                "by_status": stats["by_status"],
                "unaccounted": stats["unaccounted"],
                "expired_executed": stats["expired_executed"],
            }
            return leg, heal_info

        # -- step 2: static baseline under crash-storm chaos --------------
        static_leg, _ = run_leg()
        if verbose:
            print(
                f"selfheal static leg: offered {offered_rps:.0f} rps under "
                f"{chaos_spec} -> goodput {static_leg['goodput_rps']:.0f} rps "
                f"({static_leg['goodput_ratio']:.0%} of sent)"
            )

        # -- step 3: the self-healing server, same schedule + chaos -------
        autoscale = AutoscalePolicy(
            min_replicas=1,
            max_replicas=workers,
            up_queue_fill=0.2,
            down_queue_fill=0.02,
            up_cooldown_s=0.3,
            down_cooldown_s=30.0,
            down_stable_ticks=10,
        )
        heal_policy = SelfHealPolicy(
            autoscale=autoscale,
            ladders={spec.name: [fallback]},
            interval_s=0.05,
            ladder_down_after_ticks=8,
            ladder_up_after_ticks=200,
            ladder_step_cooldown_s=2.0,
        )
        selfheal_leg, heal_info = run_leg(
            selfheal=heal_policy, state_dir=os.path.join(tmpdir, "journal")
        )
        heal_info = heal_info or {}
        autoscale_info = heal_info.get("autoscale") or {}
        ladder_info = (heal_info.get("ladders") or {}).get(spec.name) or {}
        replicas_info = heal_info.get("replicas") or {}
        if verbose:
            print(
                f"selfheal leg: goodput {selfheal_leg['goodput_rps']:.0f} rps "
                f"({selfheal_leg['goodput_ratio']:.0%} of sent); "
                f"scale decisions {autoscale_info.get('decisions_total', 0)}, "
                f"final replicas {replicas_info}, brownout steps "
                f"{ladder_info.get('steps_down_total', 0)} down / "
                f"{ladder_info.get('steps_up_total', 0)} up"
            )

        # -- step 4: kill -9 + restart from --state-dir -------------------
        recovery = _crash_recovery_drill(
            artifact_v1, artifact_v2, spec.name,
            os.path.join(tmpdir, "state"), workers, samples[0], verbose,
        )

        entry = {
            "model": spec.name,
            "fallback": fallback,
            "workers": workers,
            "quick": bool(quick),
            "seed": seed,
            "chaos": chaos_spec,
            "capacity_rps": capacity_rps,
            "offered_rps": offered_rps,
            "duration_s": duration_s,
            "tight_deadline_ms": tight_deadline_ms,
            "static": static_leg,
            "selfheal": selfheal_leg,
            "goodput_improvement": (
                selfheal_leg["goodput_rps"] / static_leg["goodput_rps"]
                if static_leg["goodput_rps"] > 0
                else None
            ),
            "autoscale": {
                "decisions_total": autoscale_info.get("decisions_total", 0),
                "flap_freezes_total": autoscale_info.get(
                    "flap_freezes_total", 0
                ),
                "final_replicas": replicas_info,
            },
            "brownout": {
                "steps_down_total": ladder_info.get("steps_down_total", 0),
                "steps_up_total": ladder_info.get("steps_up_total", 0),
                "final_position": ladder_info.get("position", 0),
            },
            "recovery": recovery,
        }
        if verbose:
            improvement = entry["goodput_improvement"]
            pretty = f"{improvement:.2f}x" if improvement else "n/a"
            print(
                f"selfheal goodput: {pretty} over static baseline; "
                f"recovered={recovery['recovered']}"
            )
        return entry
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def benchmark_serving(
    model_name: str = "resnet18-w0.25-F4-int8@int8",
    concurrencies: Sequence[int] = (1, 4, 16, 32, 64),
    requests_per_level: int = 384,
    workers: int = 0,
    executor_threads: int = 4,
    workers_scale: int = 2,
    out_path: Optional[str] = None,
    quick: bool = False,
    verbose: bool = True,
    trials: int = 2,
) -> dict:
    """Sweep concurrency × batching policy; write ``BENCH_serve.json``.

    The correctness gate runs first: a reference-backend variant of the
    same model is served — in-process *and* behind ``workers_scale``
    process workers — and its concurrent responses must be bit-identical
    to direct ``CompiledPlan.run`` before any throughput is measured.

    ``workers`` is the process-worker count of the swept servers (0 =
    in-process, the baseline configuration the committed numbers track);
    ``workers_scale`` additionally measures multi-process sharding at
    the top concurrency and records a ``workers_scaling`` entry (with
    the host's ``cpu_count``, so the regression guard can skip the
    speedup expectation on small hosts).

    Each (policy, concurrency) cell is measured ``trials`` times and the
    highest-throughput trial is kept: wall-clock interference on a shared
    host only ever *lowers* closed-loop throughput, so the best trial is
    the least-interfered estimate of what the configuration sustains.
    """
    if quick:
        concurrencies = tuple(c for c in concurrencies if c <= 16) or (1, 16)
        requests_per_level = min(requests_per_level, 96)
        trials = 1

    spec = ModelSpec.parse(model_name)
    rng = np.random.default_rng(0)
    samples = rng.standard_normal((32,) + spec.sample_shape).astype(np.float32)

    # -- correctness gate (reference backend) -------------------------------
    ref_spec = ModelSpec.parse(model_name.split("@")[0] + "@reference")
    ref_registry = ModelRegistry()
    ref_served = ref_registry.load(ref_spec)
    with start_in_background(
        ref_registry, policy=POLICIES["dynamic"], executor_threads=executor_threads
    ) as handle:
        bit_identical = check_bit_identity(
            handle.base_url, ref_served.name, ref_served.plan, samples[:16]
        )
    if verbose:
        print(f"bit-identity vs direct plan.run (reference backend): {bit_identical}")

    bit_identical_workers = None
    if workers_scale and workers_scale > 0:
        # The ISSUE 5 gate: responses from a sharded server must equal
        # the in-process (workers=0) reference responses bit for bit —
        # the workers compile the same seeded spec, so the compare is
        # against the same direct plan.run oracle.
        worker_registry = ModelRegistry(lazy=True)
        worker_registry.load(ref_spec)
        with start_in_background(
            worker_registry,
            policy=POLICIES["dynamic"],
            workers=workers_scale,
            worker_replicas=workers_scale,
        ) as handle:
            bit_identical_workers = check_bit_identity(
                handle.base_url, ref_served.name, ref_served.plan, samples[:16]
            )
        if verbose:
            print(
                f"bit-identity with workers={workers_scale} vs direct "
                f"plan.run: {bit_identical_workers}"
            )

    # -- throughput sweep ---------------------------------------------------
    results: Dict[str, dict] = {}
    for policy_name, policy in POLICIES.items():
        registry = ModelRegistry(lazy=workers > 0)
        served = registry.load(spec)
        sweep = []
        with start_in_background(
            registry, policy=policy, workers=workers,
            executor_threads=executor_threads,
        ) as handle:
            for concurrency in concurrencies:
                stats = _best_of_trials(
                    handle.base_url, served.name, samples, concurrency,
                    max(requests_per_level, concurrency * 4), trials,
                )
                sweep.append(stats)
                if verbose:
                    print(
                        f"{policy_name:8s} c={concurrency:3d}: "
                        f"{stats['throughput_rps']:8.1f} req/s  "
                        f"p50 {stats.get('p50_ms', float('nan')):7.2f} ms  "
                        f"p99 {stats.get('p99_ms', float('nan')):7.2f} ms  "
                        f"mean batch {stats['mean_batch_size']:.2f}"
                    )
        results[policy_name] = {"policy": policy.to_dict(), "sweep": sweep}

    speedups = {}
    for i, concurrency in enumerate(concurrencies):
        base = results["batch1"]["sweep"][i]["throughput_rps"]
        dyn = results["dynamic"]["sweep"][i]["throughput_rps"]
        speedups[str(concurrency)] = dyn / base if base > 0 else float("inf")
    if verbose:
        pretty = ", ".join(f"c={c}: {s:.2f}x" for c, s in speedups.items())
        print(f"dynamic over batch1 throughput: {pretty}")

    # -- multi-process workers scaling --------------------------------------
    workers_scaling = None
    if workers_scale and workers_scale > 0:
        import os as _os

        top = concurrencies[-1]
        if workers == 0:
            single_rps = results["dynamic"]["sweep"][-1]["throughput_rps"]
        else:
            # The main sweep ran with process workers, so its rate is NOT
            # a single-process denominator — measure one explicitly.
            registry0 = ModelRegistry()
            served0 = registry0.load(spec)
            with start_in_background(
                registry0, policy=POLICIES["dynamic"],
                executor_threads=executor_threads,
            ) as handle:
                base_stats = _best_of_trials(
                    handle.base_url, served0.name, samples, top,
                    max(requests_per_level, top * 4), trials,
                )
            single_rps = base_stats["throughput_rps"]
        registry = ModelRegistry(lazy=True)
        served_w = registry.load(spec)
        with start_in_background(
            registry,
            policy=POLICIES["dynamic"],
            workers=workers_scale,
            worker_replicas=workers_scale,
        ) as handle:
            stats = _best_of_trials(
                handle.base_url, served_w.name, samples, top,
                max(requests_per_level, top * 4), trials,
            )
        workers_scaling = {
            "workers": workers_scale,
            "cpu_count": _os.cpu_count() or 1,
            "concurrency": top,
            "quick": bool(quick),
            "throughput_rps": stats["throughput_rps"],
            "single_process_rps": single_rps,
            "speedup": stats["throughput_rps"] / single_rps if single_rps else None,
            "p99_ms": stats.get("p99_ms"),
        }
        if verbose:
            speedup = workers_scaling["speedup"]
            pretty = f"{speedup:.2f}x" if speedup is not None else "n/a"
            print(
                f"workers={workers_scale} c={top}: "
                f"{stats['throughput_rps']:8.1f} req/s "
                f"({pretty} over single process, "
                f"{workers_scaling['cpu_count']} cores)"
            )

    # -- AOT artifact cold start + blue/green hot-swap ----------------------
    artifact_cold_start = measure_artifact_cold_start(
        model_name, workers=max(workers_scale, 1), verbose=verbose
    )

    # -- overload honesty: goodput at 2x capacity ---------------------------
    overload_goodput = measure_overload_goodput(
        model_name, workers=workers, quick=quick, verbose=verbose
    )

    # -- self-healing: goodput under crash-storm chaos + kill -9 recovery ---
    selfheal_goodput = measure_selfheal_goodput(
        model_name, workers=max(workers_scale, 2), quick=quick, verbose=verbose
    )

    report = {
        "model": served.name,
        "workers": workers,
        "executor_threads": executor_threads,
        "requests_per_level": requests_per_level,
        "quick": bool(quick),
        "bit_identical_reference": bit_identical,
        "bit_identical_workers": bit_identical_workers,
        "policies": results,
        "speedup_dynamic_over_batch1": speedups,
        "workers_scaling": workers_scaling,
        "artifact_cold_start": artifact_cold_start,
        "overload_goodput": overload_goodput,
        "selfheal_goodput": selfheal_goodput,
    }
    if out_path:
        with open(out_path, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        if verbose:
            print(f"report written to {out_path}")
    return report
