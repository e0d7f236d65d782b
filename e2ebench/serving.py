"""``serve-int8``: ``repro compile`` + ``repro serve`` driven over HTTP.

Set-up (timed :data:`SETUP_REPS` times, before and after the measured
phases, median reported) runs
``repro compile`` to write an ``.rpln`` artifact, boots ``repro serve``
on it as a subprocess (one worker process, one engine thread, CLI
batching defaults) and ends when the first ``/predict`` answers.  The
load generator runs in this process with :data:`SENDERS` threads, each
owning one keep-alive connection:

* ``light``    open loop at 25 requests/s;
* ``heavy``    open loop at 60 requests/s;
* ``saturate`` closed loop over the same connections (capacity).

The rates are fixed here and never derived from a run.  Every response
must be bitwise equal to this process's own int8 plan run on the same
sample at batch 1.
"""

from __future__ import annotations

import base64
import json
import os
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

import numpy as np

import loadgen
from common import (
    LATENCY_LIMIT_MS,
    LATENCY_Q,
    ROOT,
    log,
    median,
    metric,
    nproc,
    peak_rss_mb,
    percentile,
    quantiles_note,
    scratch_dir,
    tail_note,
)
from layers import (
    RECONCILE_LIMIT_PCT,
    breakdown_table,
    engine_breakdown,
    engine_metrics,
    plan_metrics,
    step_work,
)

SPEC = "resnet18-w0.25-F4-int8@int8"
#: Open-loop arrival rates (requests/s), fixed: never derived from a run.
RATES = {"light": 25.0, "heavy": 60.0}
SENDERS = 2  # sender threads = connections, in every phase
#: Share of --seconds per phase.
SHARES = {"light": 10 / 36, "heavy": 17 / 36, "saturate": 9 / 36}
#: The phases run in this many rounds of light → heavy → saturate, so
#: each sees the host's slow and fast spells in about the same mix.
CYCLES = 3
#: The saturate phase runs in closed-loop slices of about this length and
#: reports the median slice rate: the two connections lock into batching
#: together (~88 replies/s) or staggering (~112/s) for a second or more
#: at a time, so a few long slices would report the mix of modes by chance.
SATURATE_SLICE_S = 0.5
#: The light-phase tail reported by a traced run (25 samples beyond it).
LIGHT_TAIL = 90.0
SAMPLES = 64  # distinct request payloads
#: A traced run drives half of --seconds: the server's span ring holds
#: 65536 spans (about 40 per batch) and must not wrap.
TRACE_SHARE = 0.5
#: Set-up reps before and after the measured phases (as in offline.py).
SETUP_REPS = (2, 1)
WARMUP_PER_CONN = 20
BOOT_TIMEOUT_S = 120.0


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _children(pid: int) -> List[int]:
    """Descendants of ``pid`` (the server's worker processes)."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        parents[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    found, frontier = [], [pid]
    while frontier:
        parent = frontier.pop()
        kids = [p for p, pp in parents.items() if pp == parent]
        found += kids
        frontier += kids
    return found


class Server:
    """One ``repro serve`` subprocess in its own session."""

    def __init__(self, workdir: str, artifact: str, trace_rate: float, tag: str):
        self.log_path = os.path.join(workdir, f"serve-{tag}.log")
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--model", artifact,
                "--workers", "1",
                "--threads", "1",
                "--port", "0",
                "--trace-rate", str(trace_rate),
            ],
            cwd=str(ROOT),
            env=_env(),
            stdout=self._log,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        self.host, self.port = self._wait_listening()

    def _wait_listening(self):
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        marker = b"serving on http://"
        while time.monotonic() < deadline:
            with open(self.log_path, "rb") as f:
                text = f.read()
            at = text.find(marker)
            if at >= 0:
                addr = text[at + len(marker):].split()[0].decode()
                host, port = addr.rsplit(":", 1)
                return host, int(port)
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        self.stop()
        raise RuntimeError(f"repro serve did not come up; see {self.log_path}")

    def pids(self) -> List[int]:
        return [self.proc.pid] + _children(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then kill whatever is left of the
        session; waits for the server to exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        self._log.close()


def _compile(artifact: str) -> None:
    subprocess.run(
        [sys.executable, "-m", "repro.cli", "compile", SPEC, "-o", artifact],
        cwd=str(ROOT),
        env=_env(),
        check=True,
        stdout=subprocess.DEVNULL,
        timeout=300,
    )


def _first_predict(server: Server, body: bytes) -> None:
    conn = loadgen.Connection(server.host, server.port)
    try:
        status, _ = conn.post(body)
    finally:
        conn.close()
    if status != 200:
        raise RuntimeError(f"first /predict answered {status}")


def _decode(record: "loadgen.Record", expected: List[bytes]) -> Optional[dict]:
    """The response dict when ``record`` is a 200 whose output is bitwise
    the in-process plan's; ``None`` otherwise."""
    if record.status != 200:
        return None
    try:
        reply = json.loads(record.body)
        raw = base64.b64decode(reply["output"])
    except (ValueError, KeyError, TypeError):
        return None
    return reply if raw == expected[record.sample] else None


class Phases:
    """Runs the measured phases against one server and keeps records."""

    def __init__(self, server: Server, bodies, rng, seconds: float):
        self.server, self.bodies, self.rng, self.seconds = server, bodies, rng, seconds
        self.records: Dict[str, List[loadgen.Record]] = {}
        self.scheduled: Dict[str, int] = {}
        self.saturate_rates: List[float] = []  # replies/s per slice
        self.conns = [loadgen.Connection(server.host, server.port) for _ in range(SENDERS)]
        for i in range(WARMUP_PER_CONN):
            for conn in self.conns:
                conn.post(bodies[i % len(bodies)])

    def run(self, names) -> None:
        """:data:`CYCLES` rounds over the phases ``names``."""
        for _ in range(CYCLES):
            for name in names:
                seconds = self.seconds * SHARES[name] / CYCLES
                if name == "saturate":
                    records = []
                    slices = max(1, round(seconds / SATURATE_SLICE_S))
                    for _ in range(slices):
                        part = loadgen.closed_loop(self.conns, self.bodies, seconds / slices)
                        wall = max(r.done for r in part) - min(r.sent for r in part)
                        self.saturate_rates.append(len(part) / wall)
                        records += part
                    scheduled = len(records)
                else:
                    plan = loadgen.schedule(
                        self.rng, RATES[name], seconds, SENDERS, len(self.bodies)
                    )
                    scheduled = sum(map(len, plan))
                    records = loadgen.open_loop(self.conns, plan, self.bodies)
                self.scheduled[name] = self.scheduled.get(name, 0) + scheduled
                self.records.setdefault(name, []).extend(records)

    def close(self) -> None:
        for conn in self.conns:
            conn.close()


def _accounting(phases: Phases, expected) -> tuple:
    """(attempted, failed, accounted-for?) over every measured phase."""
    attempted = failed = 0
    accounted = True
    for name, records in phases.records.items():
        accounted &= len(records) == phases.scheduled[name]
        attempted += phases.scheduled[name]
        failed += phases.scheduled[name] - len(records)
        failed += sum(1 for r in records if _decode(r, expected) is None)
    return attempted, failed, accounted


def run(workload: str, seed: int, seconds: float, trace: bool):
    from repro.engine.cache import PlanCache
    from repro.serve.registry import ModelSpec, compile_served

    if SENDERS > nproc():
        raise SystemExit(f"error: generator needs {SENDERS} threads, host has {nproc()} cores")
    rng = np.random.default_rng(seed)
    spec = ModelSpec.parse(SPEC)
    samples = [
        rng.standard_normal(spec.sample_shape).astype(np.float32) for _ in range(SAMPLES)
    ]
    bodies = [
        json.dumps(
            {
                "model": spec.name,
                "input": base64.b64encode(s.astype("<f4").tobytes()).decode(),
                "encoding": "b64",
            }
        ).encode()
        for s in samples
    ]

    # The in-process plan every response must match, at batch 1.
    t0 = time.perf_counter()
    local = compile_served(spec, cache=PlanCache())
    compile_s = time.perf_counter() - t0
    expected = [
        np.ascontiguousarray(local.plan.run(s[None])[0], dtype="<f4").tobytes()
        for s in samples
    ]

    servers: List[Server] = []
    with scratch_dir("serve") as workdir:
        artifact = os.path.join(workdir, "model.rpln")
        try:
            if not trace:
                return _measure(workdir, artifact, servers, bodies, rng, seconds, expected)
            return _trace(
                workdir, artifact, servers, bodies, rng, seconds, expected, local, compile_s
            )
        finally:
            for server in servers:
                server.stop()


def _boot(workdir, artifact, servers, body, trace_rate: float, tag: str) -> Server:
    server = Server(workdir, artifact, trace_rate, tag)
    servers.append(server)
    _first_predict(server, body)
    return server


def _measure(workdir, artifact, servers, bodies, rng, seconds, expected):
    setup = []

    def set_up(reps: int) -> None:
        for _ in range(reps):
            if servers:
                servers.pop().stop()
            t0 = time.perf_counter()
            _compile(artifact)
            _boot(workdir, artifact, servers, bodies[0], 0.0, str(len(setup)))
            setup.append(time.perf_counter() - t0)

    set_up(SETUP_REPS[0])
    server = servers[-1]
    phases = Phases(server, bodies, rng, seconds)
    try:
        phases.run(("light", "heavy", "saturate"))
    finally:
        phases.close()
    rss = peak_rss_mb(server.pids())
    set_up(SETUP_REPS[1])
    attempted, failed, accounted = _accounting(phases, expected)

    light = [r.latency_ms for r in phases.records["light"]]
    heavy = [r.latency_ms for r in phases.records["heavy"]]
    sat = [r.latency_ms for r in phases.records["saturate"]]
    metrics = {
        "setup_s": metric(median(setup), "s"),
        "throughput_sps": metric(median(phases.saturate_rates), "1/s"),
        "rss_mb": metric(rss, "MB"),
        "success_rate": metric(1.0 - failed / attempted, "ratio"),
        f"light.p{LATENCY_Q:g}_ms": metric(percentile(light, LATENCY_Q), "ms"),
        f"heavy.p{LATENCY_Q:g}_ms": metric(percentile(heavy, LATENCY_Q), "ms"),
    }
    log(f"serve-int8 ({SPEC}): setup reps {['%.3f' % s for s in setup]} s")
    for name, values in (("light", light), ("heavy", heavy), ("saturate", sat)):
        log(quantiles_note(name, values))
    lates = [r.late_ms for name in ("light", "heavy") for r in phases.records[name]]
    log(f"  generator lateness p50 {percentile(lates, 50):.3f} ms, "
        f"max {max(lates):.3f} ms; saturate {len(sat)} requests")
    if not accounted:
        log("error: requests sent and accounted for differ")
    return metrics, attempted, failed, failed == 0 and accounted


#: Where one request's time goes, due → reply.  Each part is a difference
#: of two clock readings, so a request's parts sum to its latency.
PARTS = (
    "client.late",  # sent − due
    "serve.server.overhead",  # client service − queue_ms − run_ms: HTTP, codec, loopback
    "serve.batcher.queue",  # queue_ms
    "serve.batcher.dispatch",  # run_ms − worker_roundtrip: executor hop
    "serve.router.transport",  # worker_roundtrip − worker_exec: shm + pipe
    "serve.workers.self",  # worker_exec − plan_run
    "engine.plan.run",  # plan_run
)


def _request_parts(records, expected, spans) -> List[dict]:
    """Per-request split into :data:`PARTS`, joining each reply's
    ``request_id`` to its batch's span subtree in ``GET /trace``."""
    children: Dict[str, list] = {}
    batch_of = {}
    for s in spans:
        if s.parent_id is not None:
            children.setdefault(s.parent_id, []).append(s)
        if s.name == "batch":
            for rid in s.attrs.get("request_ids") or ():
                batch_of[rid] = s

    def child(span, name):
        for c in children.get(span.span_id, ()) if span is not None else ():
            if c.name == name:
                return c
        return None

    rows = []
    for r in records:
        reply = _decode(r, expected)
        if reply is None:
            continue
        rt = child(child(batch_of.get(reply.get("request_id")), "batch_exec"), "worker_roundtrip")
        we = child(rt, "worker_exec")
        run = child(we, "plan_run")
        if run is None:
            continue
        rt_ms, we_ms, run_ms = rt.dur_ns / 1e6, we.dur_ns / 1e6, run.dur_ns / 1e6
        q, batch_ms = reply["queue_ms"], reply["run_ms"]
        rows.append(
            {
                "latency": r.latency_ms,
                "client.late": r.late_ms,
                "serve.server.overhead": r.service_ms - q - batch_ms,
                "serve.batcher.queue": q,
                "serve.batcher.dispatch": batch_ms - rt_ms,
                "serve.router.transport": rt_ms - we_ms,
                "serve.workers.self": we_ms - run_ms,
                "engine.plan.run": run_ms,
            }
        )
    return rows


def _reconcile(rows: List[dict], phase: str):
    """Decompose the phase's p50: average each part over the requests
    whose latency lies within ±5 percentile points of the median, and
    compare the parts' sum with the p50 itself."""
    if not rows:
        return [f"  {phase}: no requests linked to spans"], float("nan")
    lat = [row["latency"] for row in rows]
    lo, p50, hi = (percentile(lat, q) for q in (45, 50, 55))
    band = [row for row in rows if lo <= row["latency"] <= hi]
    parts = {k: sum(row[k] for row in band) / len(band) for k in PARTS}
    pct = 100.0 * (sum(parts.values()) - p50) / p50
    lines = [f"  {phase} p50 {p50:.3f} ms over {len(rows)} requests; "
             f"parts averaged over the {len(band)} nearest the median:"]
    lines += [f"    {k:26s} {v:8.3f} ms" for k, v in parts.items()]
    lines.append(f"    sum {sum(parts.values()):.3f} ms vs p50: {pct:+.2f}% "
                 f"(limit ±{RECONCILE_LIMIT_PCT:g}%)")
    return lines, pct


def _counters(server: Server) -> dict:
    snap = loadgen.get_json(server.host, server.port, "/metrics") or {}
    return (snap.get("models") or {}).get(SPEC, {})


def _trace(workdir, artifact, servers, bodies, rng, seconds, expected, local, compile_s):
    from repro.obs import TraceBuffer
    from repro.obs.trace import Span

    _compile(artifact)
    # Untraced reference for the tracing overhead: the light phase alone.
    plain = _boot(workdir, artifact, servers, bodies[0], 0.0, "plain")
    base = Phases(plain, bodies, rng, seconds * TRACE_SHARE)
    try:
        base.run(("light",))
    finally:
        base.close()
    servers.pop().stop()

    server = _boot(workdir, artifact, servers, bodies[0], 1.0, "traced")
    phases = Phases(server, bodies, rng, seconds * TRACE_SHARE)
    before = _counters(server)
    try:
        phases.run(("light", "heavy", "saturate"))
    finally:
        phases.close()
    after = _counters(server)
    dump = loadgen.get_json(server.host, server.port, "/trace?format=spans", timeout=120)
    spans = [Span.from_dict(d) for d in (dump or {}).get("spans", [])]
    attempted, failed, accounted = _accounting(phases, expected)
    attempted_b, failed_b, accounted_b = _accounting(base, expected)
    attempted += attempted_b
    failed += failed_b
    accounted &= accounted_b

    rows = {
        name: _request_parts(records, expected, spans)
        for name, records in phases.records.items()
    }
    every = [row for name_rows in rows.values() for row in name_rows]
    overhead = [row["serve.server.overhead"] for row in every]
    queue = [row["serve.batcher.queue"] for row in every]
    execs = [s for s in spans if s.name == "worker_exec"]
    by_id = {s.span_id: s for s in spans}
    transport = [
        by_id[s.parent_id].dur_ns / 1e6 - s.dur_ns / 1e6
        for s in execs
        if s.parent_id in by_id and by_id[s.parent_id].name == "worker_roundtrip"
    ]
    late = [r.late_ms for name in ("light", "heavy") for r in phases.records[name]]

    def delta(key: str) -> float:
        return float(after.get(key, 0) - before.get(key, 0))

    batches = delta("batches_total")
    good = sum(
        1
        for r in phases.records["heavy"]
        if r.latency_ms <= LATENCY_LIMIT_MS and _decode(r, expected) is not None
    )
    b = engine_breakdown(spans, step_work(local.plan, local.sample_shape))
    traced_light = median(r.latency_ms for r in phases.records["light"])
    plain_light = median(r.latency_ms for r in base.records["light"])

    log(f"serve-int8 traced: {len(every)} linked requests, {len(spans)} spans "
        f"(dropped {(dump or {}).get('dropped')})")
    reconcile = 0.0
    for name in ("light", "heavy"):
        table, pct = _reconcile(rows[name], name)
        for line in table:
            log(line)
        if name == "light":
            reconcile = pct
    for line in breakdown_table("worker plan runs (batch 1-2)", b):
        log(line)
    log(f"  light p50 {traced_light:.3f} ms traced vs {plain_light:.3f} ms untraced")
    log(tail_note("overhead/queue", len(overhead), 99.0))
    log(tail_note("generator lateness", len(late), 99.0))

    # Engine-side numbers from the in-process plan (same compile path),
    # at the serving batch size.
    buf = TraceBuffer(capacity=1 << 16)
    x = np.frombuffer(base64.b64decode(json.loads(bodies[0])["input"]), "<f4")
    x = x.reshape((1,) + local.sample_shape)
    plain_ms, traced_ms = [], []
    for _ in range(100):
        t0 = time.perf_counter()
        local.plan.run(x)
        t1 = time.perf_counter()
        local.plan.run(x, trace=buf)
        plain_ms.append(t1 - t0)
        traced_ms.append(time.perf_counter() - t1)

    metrics = engine_metrics(b)
    metrics.update(plan_metrics(local.plan, local.sample_shape, compile_s, 1))
    metrics.update(
        {
            "engine.trace_overhead_pct": metric(
                100.0 * (median(traced_ms) / median(plain_ms) - 1.0), "%"
            ),
            "serve.server.overhead_ms_p50": metric(percentile(overhead, 50), "ms"),
            "serve.server.overhead_ms_p99": metric(percentile(overhead, 99), "ms"),
            "serve.batcher.queue_ms_p50": metric(percentile(queue, 50), "ms"),
            "serve.batcher.queue_ms_p99": metric(percentile(queue, 99), "ms"),
            "serve.batcher.batch_size_mean": metric(
                delta("batched_samples_total") / batches if batches else 0.0, "samples"
            ),
            "serve.batcher.batches": metric(batches, "count"),
            "serve.router.transport_ms_p50": metric(percentile(transport, 50), "ms"),
            "serve.workers.exec_ms_p50": metric(
                median(s.dur_ns / 1e6 for s in execs), "ms"
            ),
            "serve.admission.shed": metric(delta("shed_total"), "count"),
            "serve.batcher.deadline_exceeded": metric(
                delta("deadline_exceeded_total"), "count"
            ),
            "serve.server.errors": metric(delta("errors_total"), "count"),
            "serve.client.late_ms_p99": metric(percentile(late, 99), "ms"),
            "serve.client.light_p90_ms": metric(
                percentile([r.latency_ms for r in phases.records["light"]], LIGHT_TAIL), "ms"
            ),
            "serve.client.heavy_p95_ms": metric(
                percentile([r.latency_ms for r in phases.records["heavy"]], 95), "ms"
            ),
            "serve.client.heavy_goodput_sps": metric(
                good / (seconds * TRACE_SHARE * SHARES["heavy"]), "1/s"
            ),
            "serve.trace_overhead_pct": metric(
                100.0 * (traced_light / plain_light - 1.0), "%"
            ),
            "serve.reconcile_pct": metric(reconcile, "%"),
        }
    )
    ok = failed == 0 and accounted and bool(spans)
    return metrics, attempted, failed, ok
