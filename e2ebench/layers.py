"""Per-layer numbers from the spans the program already emits.

Engine layers come from ``plan_run`` root spans and their step-level
``kernel`` children (``CompiledPlan.run(trace=...)`` in-process, or the
worker's spans returned through the server's ``GET /trace``).  Each
kernel span is assigned a class from its op and execution domain; a
class's time per run is the sum of its step spans in that run, and the
executor's self time is ``plan_run`` minus all its kernel children.

Kernel work is *computed*, not measured: MACs and bytes moved per
Winograd / im2row step follow from the step's shapes and buffer dtypes
(int8 codes ride in float32/float64 buffers, so their bytes are counted
at that width).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Optional

import numpy as np

from common import median, metric, scratch_dir

#: Kernel classes reported per layer (every workload reports all of them;
#: a class the workload never runs reads 0).
KERNEL_CLASSES = (
    "winograd_int8",
    "winograd_fp32",
    "conv2d_int8",
    "conv2d_fp32",
    "elementwise",
    "pool",
    "linear",
)
#: Classes with computed work (MACs, bytes moved).
WORK_CLASSES = ("winograd_int8", "winograd_fp32", "conv2d_int8", "conv2d_fp32")

_POOL_OPS = frozenset({"max_pool", "avg_pool", "global_avg_pool"})

#: A layer table whose parts miss the whole by more than this is reported
#: as not reconciled.
RECONCILE_LIMIT_PCT = 5.0


def kernel_class(op: str, int8: bool) -> str:
    if op in ("winograd_conv2d", "conv2d"):
        base = "winograd" if op == "winograd_conv2d" else "conv2d"
        return f"{base}_{'int8' if int8 else 'fp32'}"
    if op == "linear":
        return "linear"
    if op in _POOL_OPS:
        return "pool"
    return "elementwise"


def _span_class(span) -> str:
    return kernel_class(
        span.attrs.get("op", ""), str(span.attrs.get("domain", "")).startswith("int8")
    )


# -- computed kernel work ---------------------------------------------------


def _itemsize(dt) -> int:
    return np.dtype(dt).itemsize


def step_work(plan, sample_shape) -> Dict[int, dict]:
    """Per-sample MACs and bytes moved for every Winograd / im2row step.

    Winograd (tile ``t = m + r - 1``, ``P`` tiles per sample, ``C`` in,
    ``K`` out channels, ``g`` groups): forward transform ``t⁴·C·P`` as the
    Kronecker GEMM (``2·t³·C·P`` nested), Hadamard ``t²·(C/g)·K·P``,
    inverse ``t²·m²·K·P`` (``(m·t² + m²·t)·K·P`` nested).  Bytes: input
    read, transformed weights read, the transform-domain input and the
    Hadamard output each written and read once, output written.  A
    resident edge moves the consumer's forward transform into the
    producer's tail; the work is counted on the consumer either way.

    im2row ``conv2d``: ``oh·ow·K·(C/g)·kh·kw`` MACs; bytes add the
    patch matrix (written and read) unless the step is a 1×1 stride-1
    shortcut, which multiplies the activation directly.
    """
    from repro.engine.memplan import infer_step_shape

    shapes = {plan.input_reg: (1,) + tuple(sample_shape)}
    work: Dict[int, dict] = {}
    for index, step in enumerate(plan.steps):
        ins = [shapes.get(r) for r in step.inputs]
        a = step.attrs
        i8 = a.get("i8") if step.domain == "int8" else None
        if step.op == "winograd_conv2d":
            rin = a.get("resident_src")
            h, w = rin["plan_hw"] if rin is not None else ins[0][2:]
        shapes[step.output] = infer_step_shape(step, ins)
        if step.op == "winograd_conv2d":
            m, r, t, g, pad = a["m"], a["r"], a["t"], a["groups"], a["pad"]
            k = a["out_channels"]
            c = a["u"].shape[1] * g
            oh, ow = h + 2 * pad - r + 1, w + 2 * pad - r + 1
            p = -(-oh // m) * -(-ow // m)
            kron_in = (i8 or a).get("btk") is not None
            kron_out = (i8 or a).get("atk") is not None
            dt_v, dt_h = (i8["dts"][0], i8["dts"][1]) if i8 else (np.float32,) * 2
            fwd = (t ** 4 if kron_in else 2 * t ** 3) * c * p
            had = t * t * (c // g) * k * p
            inv = (t * t * m * m if kron_out else (m * t * t + m * m * t)) * k * p
            nbytes = (
                4 * c * h * w
                + 4 * t * t * k * (c // g)
                + 2 * t * t * c * p * _itemsize(dt_v)
                + 2 * t * t * k * p * _itemsize(dt_h)
                + 4 * k * oh * ow
            )
            work[index] = {"macs": fwd + had + inv, "bytes": nbytes}
        elif step.op == "conv2d":
            _, c, h, w = ins[0]
            k, cg, kh, kw = a["weight"].shape
            _, _, oh, ow = shapes[step.output]
            dt = i8["dt"] if i8 else np.float32
            shortcut = kh == kw == 1 and tuple(a["stride"]) == (1, 1)
            patches = 0 if shortcut else 2 * oh * ow * cg * kh * kw * _itemsize(dt)
            work[index] = {
                "macs": oh * ow * k * cg * kh * kw,
                "bytes": 4 * c * h * w + 4 * k * cg * kh * kw + patches + 4 * k * oh * ow,
            }
    return work


# -- engine breakdown from spans -------------------------------------------------


def engine_breakdown(spans: Iterable, work: Dict[int, dict]) -> Optional[dict]:
    """Per-class medians over the traced ``plan_run`` spans in ``spans``.

    Returns ``None`` when no plan run was traced.  ``work`` (from
    :func:`step_work`, per sample) scales by each span's batch.
    """
    spans = list(spans)
    runs = {s.span_id: s for s in spans if s.name == "plan_run"}
    if not runs:
        return None
    per_run = {rid: defaultdict(float) for rid in runs}
    calls = {rid: defaultdict(int) for rid in runs}
    gmac = {rid: defaultdict(float) for rid in runs}
    mbytes = {rid: defaultdict(float) for rid in runs}
    for s in spans:
        if s.cat != "kernel" or "chunk_index" in s.attrs or s.parent_id not in runs:
            continue
        cls = _span_class(s)
        per_run[s.parent_id][cls] += s.dur_ns / 1e6
        calls[s.parent_id][cls] += 1
        w = work.get(s.attrs.get("step"))
        if w is not None:
            n = int(s.attrs.get("batch", 1))
            gmac[s.parent_id][cls] += w["macs"] * n / 1e9
            mbytes[s.parent_id][cls] += w["bytes"] * n / 1e6
    run_ms = [runs[rid].dur_ns / 1e6 for rid in runs]
    self_ms = [runs[rid].dur_ns / 1e6 - sum(per_run[rid].values()) for rid in runs]
    out = {
        "runs": len(runs),
        "run_ms": median(run_ms),
        "self_ms": median(self_ms),
        "classes": {},
    }
    for cls in KERNEL_CLASSES:
        total_ms = sum(per_run[rid][cls] for rid in runs)
        total_gmac = sum(gmac[rid][cls] for rid in runs)
        out["classes"][cls] = {
            "ms": median(per_run[rid][cls] for rid in runs),
            "calls": median(calls[rid][cls] for rid in runs),
            "gmac": median(gmac[rid][cls] for rid in runs),
            "mbytes": median(mbytes[rid][cls] for rid in runs),
            "ms_per_gmac": total_ms / total_gmac if total_gmac else 0.0,
        }
    parts = out["self_ms"] + sum(c["ms"] for c in out["classes"].values())
    out["reconcile_pct"] = 100.0 * (parts - out["run_ms"]) / out["run_ms"]
    return out


def engine_metrics(breakdown: Optional[dict]) -> Dict[str, dict]:
    """``engine.plan.*`` and ``engine.kernels.*`` per-layer metrics."""
    b = breakdown or {"run_ms": 0.0, "self_ms": 0.0, "classes": {}}
    out = {
        "engine.plan.run_ms": metric(b["run_ms"], "ms"),
        "engine.plan.self_ms": metric(b["self_ms"], "ms"),
        "engine.reconcile_pct": metric(b.get("reconcile_pct", 0.0), "%"),
    }
    for cls in KERNEL_CLASSES:
        c = b["classes"].get(cls, {})
        out[f"engine.kernels.{cls}.ms"] = metric(c.get("ms", 0.0), "ms")
        out[f"engine.kernels.{cls}.calls"] = metric(c.get("calls", 0), "count")
    for cls in WORK_CLASSES:
        c = b["classes"].get(cls, {})
        out[f"engine.kernels.{cls}.gmac"] = metric(c.get("gmac", 0.0), "GMAC")
        out[f"engine.kernels.{cls}.mbytes"] = metric(c.get("mbytes", 0.0), "MB")
        out[f"engine.kernels.{cls}.ms_per_gmac"] = metric(
            c.get("ms_per_gmac", 0.0), "ms/GMAC"
        )
    return out


def plan_metrics(plan, sample_shape, compile_s: float, batch: int) -> Dict[str, dict]:
    """Compile-, artifact- and memory-layer metrics of one compiled plan.

    ``engine.artifact.*`` times ``save_plan`` / ``load_plan`` of ``plan``
    through a scratch file; the memory report is read at ``batch`` after
    the caller's warm runs (``steady_state_allocs`` must read 0)."""
    import os
    import time

    from repro.engine.artifact import load_plan, save_plan

    with scratch_dir("artifact") as tmp:
        path = os.path.join(tmp, "plan.rpln")
        t0 = time.perf_counter()
        save_plan(plan, path, input_shape=(1,) + tuple(sample_shape))
        t1 = time.perf_counter()
        load_plan(path)
        t2 = time.perf_counter()
        nbytes = os.path.getsize(path)
    mem = plan.memory_report(batch=batch)
    report = plan.int8_report()
    return {
        "engine.compile.compile_s": metric(compile_s, "s"),
        "engine.compile.steps": metric(len(plan.steps), "count"),
        "engine.compile.residency_edges": metric(len(plan.residency_report()), "count"),
        "engine.int8.native_steps": metric(report["native_int8_steps"], "count"),
        "engine.int8.int_handoffs": metric(report["int_handoffs"], "count"),
        "engine.artifact.save_s": metric(t1 - t0, "s"),
        "engine.artifact.load_s": metric(t2 - t1, "s"),
        "engine.artifact.bytes": metric(nbytes, "bytes"),
        "engine.memplan.arena_bytes": metric(mem["arena_bytes"], "bytes"),
        "engine.memplan.steady_state_allocs": metric(
            mem["steady_state_allocations"], "count"
        ),
    }


def breakdown_table(title: str, b: Optional[dict], untraced_ms: Optional[float] = None) -> List[str]:
    """Human-readable reconciliation table (stderr)."""
    if b is None:
        return [f"{title}: no traced plan runs"]
    lines = [f"{title}: {b['runs']} traced plan runs (medians per run; work computed)"]
    lines.append(f"  {'layer':28s} {'ms':>9s} {'calls':>6s} {'GMAC':>8s} {'MB':>8s} {'ms/GMAC':>8s}")
    for cls in KERNEL_CLASSES:
        c = b["classes"][cls]
        if not c["calls"]:
            continue
        lines.append(
            f"  engine.kernels.{cls:13s} {c['ms']:9.3f} {c['calls']:6.0f} "
            f"{c['gmac']:8.4f} {c['mbytes']:8.2f} {c['ms_per_gmac']:8.2f}"
        )
    lines.append(f"  {'engine.plan (executor self)':28s} {b['self_ms']:9.3f}")
    parts = b["self_ms"] + sum(c["ms"] for c in b["classes"].values())
    lines.append(
        f"  sum of layers {parts:.3f} ms vs traced plan_run {b['run_ms']:.3f} ms: "
        f"{b['reconcile_pct']:+.2f}% (limit ±{RECONCILE_LIMIT_PCT:g}%)"
    )
    if untraced_ms is not None:
        lines.append(
            f"  traced plan_run p50 {b['run_ms']:.3f} ms vs untraced {untraced_ms:.3f} ms"
        )
    return lines
