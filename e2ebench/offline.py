"""``infer-int8`` / ``infer-fp32``: one caller driving ``CompiledPlan.run``.

Set-up is :func:`repro.serve.registry.compile_served` (build, calibrate,
compile, warm) on a fresh plan cache, timed :data:`SETUP_REPS` times:
before the timed loops and again after them (once peak RSS is read).
Then two closed loops with one caller: batch 1 (``light``: the engine's
single-sample latency, the floor under the serving workload's
``light`` phase) and batch 8 (``heavy``: offline throughput).  Inputs
cycle through a pool drawn from the seed; every output is kept and
checked after timing.
"""

from __future__ import annotations

import gc
import os
import time
from typing import List

import numpy as np

from common import (
    LATENCY_Q,
    log,
    median,
    metric,
    peak_rss_mb,
    percentile,
    quantiles_note,
)
from layers import (
    breakdown_table,
    engine_breakdown,
    engine_metrics,
    plan_metrics,
    step_work,
)

SPECS = {
    "infer-int8": "resnet18-w0.25-F4-int8@int8",
    "infer-fp32": "resnet18-w0.25-F4-fp32",
}
BATCH = 8
POOL = 4  # distinct inputs per batch size (the int64 oracle is slow)
#: Set-up reps before and after the timed loops: the host's speed drifts
#: over tens of seconds (one run's median of 9 back-to-back reps ranged
#: 0.16-0.30 s across ten consecutive runs), so the reported median
#: draws from both ends of the run.
SETUP_REPS = (5, 4)
WARMUP_CALLS = 5
LIGHT_SHARE = 0.25  # of --seconds spent at batch 1
#: The two loops alternate in this many slices, so each sees the host's
#: slow and fast spells in about the same mix.
CYCLES = 6


def _closed_loop(plan, inputs: List[np.ndarray], seconds: float, lat: list, outs: list) -> None:
    """Call ``plan.run`` back to back for ``seconds``, appending per-call ms
    to ``lat`` and (pool index, output) pairs to ``outs``."""
    end = time.perf_counter() + seconds
    i = 0
    while True:
        x = inputs[i % len(inputs)]
        t0 = time.perf_counter()
        y = plan.run(x)
        t1 = time.perf_counter()
        lat.append((t1 - t0) * 1e3)
        outs.append((i % len(inputs), y))
        i += 1
        if t1 >= end:
            return


def _expected(served, stacked: np.ndarray, int8: bool) -> np.ndarray:
    """Oracle outputs for every pooled sample (row-independent plans, so
    one stacked oracle run covers all of them)."""
    if int8:
        from repro.testing.oracle import int8_oracle_output

        return int8_oracle_output(served.model, stacked)
    from repro.engine import compile_model

    return compile_model(served.model, backend="reference").run(stacked)


def _check(outs, expected_rows, int8: bool) -> int:
    """Count calls whose output breaks the workload's contract: bitwise
    equal to the int64 oracle (int8), or within the differential fuzz
    harness's ``fast`` tolerance of ``reference`` (1e-3 of the output
    scale)."""
    bad = 0
    for index, y in outs:
        want = expected_rows[index]
        if y.shape != want.shape:
            bad += 1
        elif int8:
            bad += not np.array_equal(y, want)
        else:
            scale = max(float(np.abs(want).max()), 1e-3)
            bad += not bool(np.all(np.abs(y - want) <= 1e-3 * scale))
    return bad


def run(workload: str, seed: int, seconds: float, trace: bool):
    from repro.engine.cache import PlanCache
    from repro.obs import TraceBuffer
    from repro.serve.registry import ModelSpec, compile_served

    spec = ModelSpec.parse(SPECS[workload])
    int8 = spec.backend == "int8"
    rng = np.random.default_rng(seed)
    sample = spec.sample_shape
    singles = [rng.standard_normal((1,) + sample).astype(np.float32) for _ in range(POOL)]
    batches = [rng.standard_normal((BATCH,) + sample).astype(np.float32) for _ in range(POOL)]

    setup = []

    def set_up():
        gc.collect()
        t0 = time.perf_counter()
        served = compile_served(spec, cache=PlanCache())
        setup.append(time.perf_counter() - t0)
        return served

    served = None
    for _ in range(SETUP_REPS[0]):
        served = None  # drop the previous plan before timing the next
        served = set_up()
    plan = served.plan
    for x in (singles[0], batches[0]):
        for _ in range(WARMUP_CALLS):
            plan.run(x)

    light_s = seconds * LIGHT_SHARE
    heavy_s = seconds - light_s
    buf = TraceBuffer(capacity=1 << 17) if trace else None
    light, light_out, heavy, heavy_out = [], [], [], []
    if not trace:
        for _ in range(CYCLES):
            _closed_loop(plan, singles, light_s / CYCLES, light, light_out)
            _closed_loop(plan, batches, heavy_s / CYCLES, heavy, heavy_out)
    else:
        # Untraced and traced calls alternate, so both see the same host;
        # their ratio is the tracing overhead.
        traced = []
        end = time.perf_counter() + seconds
        i = 0
        while time.perf_counter() < end:
            x = batches[i % POOL]
            t0 = time.perf_counter()
            heavy_out.append((i % POOL, plan.run(x)))
            t1 = time.perf_counter()
            heavy_out.append((i % POOL, plan.run(x, trace=buf)))
            t2 = time.perf_counter()
            heavy.append((t1 - t0) * 1e3)
            traced.append((t2 - t1) * 1e3)
            i += 1
    rss = peak_rss_mb([os.getpid()])
    if not trace:
        for _ in range(SETUP_REPS[1]):
            set_up()

    # -- correctness, outside the timed loops ---------------------------------
    expected = _expected(served, np.concatenate(singles + batches), int8)
    single_rows = [expected[i : i + 1] for i in range(POOL)]
    batch_rows = [expected[POOL + i * BATCH : POOL + (i + 1) * BATCH] for i in range(POOL)]
    failed = _check(light_out, single_rows, int8)
    failed += _check(heavy_out, batch_rows, int8)
    attempted = len(light_out) + len(heavy_out)

    if not trace:
        heavy_ms = percentile(heavy, LATENCY_Q)
        metrics = {
            "setup_s": metric(median(setup), "s"),
            # One caller: samples/s is batch size over batch time.
            "throughput_sps": metric(BATCH * 1e3 / heavy_ms, "1/s"),
            "rss_mb": metric(rss, "MB"),
            "success_rate": metric(1.0 - failed / attempted, "ratio"),
            f"light.p{LATENCY_Q:g}_ms": metric(percentile(light, LATENCY_Q), "ms"),
            f"heavy.p{LATENCY_Q:g}_ms": metric(heavy_ms, "ms"),
        }
        log(f"{workload} ({spec.name}): setup reps {['%.3f' % s for s in setup]} s")
        log(quantiles_note("light (batch 1)", light))
        log(quantiles_note(f"heavy (batch {BATCH})", heavy))
        return metrics, attempted, failed, failed == 0

    b = engine_breakdown(buf.snapshot(), step_work(plan, sample))
    untraced_ms = median(heavy)
    for line in breakdown_table(f"{workload} batch {BATCH}", b, untraced_ms):
        log(line)
    t0 = time.perf_counter()
    compile_served(spec, cache=PlanCache())
    compile_s = time.perf_counter() - t0
    metrics = engine_metrics(b)
    metrics.update(plan_metrics(plan, sample, compile_s, BATCH))
    metrics["engine.trace_overhead_pct"] = metric(
        100.0 * (median(traced) / untraced_ms - 1.0), "%"
    )
    allocs = metrics["engine.memplan.steady_state_allocs"]["value"]
    if allocs:
        log("error: steady-state arena allocations after warm-up")
    return metrics, attempted, failed, failed == 0 and not allocs
