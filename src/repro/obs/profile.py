"""Per-step plan profiling built on the span recorder.

``profile_plan`` runs a compiled plan a few times with a private
:class:`TraceBuffer`, aggregates the per-step kernel spans by step
index (median over repeats), and compares the per-run step-time sum
against the same run's ``plan_run`` total — the Figure-8-style
per-layer table that ``repro profile`` prints.  The sum-vs-median delta
pairs each run's step sum with that run's own whole-plan span, so
scheduler noise on a shared host hits both sides of the ratio equally;
the *untraced* wall-clock is reported separately (``untraced_ms``).

Engine imports happen lazily inside the functions so ``repro.obs``
stays import-cycle-free (``engine.plan`` imports ``repro.obs.trace``).
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Optional

from repro.obs.trace import TraceBuffer


def profile_plan(
    plan,
    x,
    repeats: int = 5,
    warmup: int = 1,
    threads: Optional[int] = None,
) -> Dict[str, Any]:
    """Profile one compiled plan on input ``x``.

    Returns ``{"backend", "batch", "lanes", "steps": [...],
    "step_sum_ms", "plan_median_ms", "sum_vs_median_pct", "untraced_ms"}``
    where each step row carries ``index/name/op/domain/ms/pct/out_kib/
    slot_kib`` and ``lanes`` is how many lanes each run split its batch
    into (step rows time lane 0, which runs alongside the others).  ``step_sum_ms`` is the median over runs of each
    run's step-time sum and ``plan_median_ms`` the median ``plan_run``
    total, so their delta is the dispatch overhead the step spans do not
    cover — not cross-run scheduler noise.
    """
    from repro.engine.timing import measure_plan_ms

    for _ in range(max(0, warmup)):
        plan.run(x, threads=threads)

    per_step: Dict[int, Dict[str, Any]] = {}
    totals: List[float] = []
    run_sums: List[float] = []
    lanes = 1
    for _ in range(max(1, repeats)):
        buf = TraceBuffer()
        plan.run(x, threads=threads, trace=buf)
        run_sum = 0.0
        for span in buf.snapshot():
            if span.cat == "engine" and span.name == "plan_run":
                totals.append(span.dur_ns / 1e6)
                lanes = span.attrs.get("lanes", 1)
                continue
            if span.cat != "kernel" or "chunk_index" in span.attrs:
                continue
            idx = span.attrs["step"]
            row = per_step.setdefault(
                idx,
                {
                    "index": idx,
                    "name": span.name,
                    "op": span.attrs.get("op"),
                    "domain": span.attrs.get("domain"),
                    "out_kib": (span.attrs.get("out_bytes") or 0) / 1024.0,
                    "slot_kib": (
                        None
                        if span.attrs.get("slot_bytes") is None
                        else span.attrs["slot_bytes"] / 1024.0
                    ),
                    "_ms": [],
                },
            )
            row["_ms"].append(span.dur_ns / 1e6)
            run_sum += span.dur_ns / 1e6
        run_sums.append(run_sum)

    steps = []
    for idx in sorted(per_step):
        row = per_step[idx]
        row["ms"] = statistics.median(row.pop("_ms"))
        steps.append(row)
    step_sum = statistics.median(run_sums) if run_sums else 0.0
    table_sum = sum(r["ms"] for r in steps)
    for r in steps:
        r["pct"] = 100.0 * r["ms"] / table_sum if table_sum > 0 else 0.0

    plan_median = statistics.median(totals) if totals else 0.0
    untraced_ms = measure_plan_ms(
        plan, x, repeats=max(3, repeats), warmup=1, threads=threads
    )
    return {
        "backend": getattr(plan, "backend", "?"),
        "batch": int(x.shape[0]),
        "lanes": lanes,
        "steps": steps,
        "step_sum_ms": step_sum,
        "plan_median_ms": plan_median,
        "sum_vs_median_pct": (
            100.0 * (step_sum / plan_median - 1.0) if plan_median > 0 else 0.0
        ),
        "untraced_ms": untraced_ms,
    }


def format_profile_table(prof: Dict[str, Any]) -> str:
    """Fixed-width per-step table plus the sum-vs-median footer."""
    lines = []
    header = (
        f"{'#':>3}  {'step':<38} {'domain':<8} "
        f"{'ms':>9} {'%':>6} {'out KiB':>9} {'slot KiB':>9}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for r in prof["steps"]:
        slot = "-" if r["slot_kib"] is None else f"{r['slot_kib']:.0f}"
        lines.append(
            f"{r['index']:>3}  {r['name'][:38]:<38} {str(r['domain']):<8} "
            f"{r['ms']:>9.3f} {r['pct']:>6.1f} "
            f"{r['out_kib']:>9.0f} {slot:>9}"
        )
    lines.append("-" * len(header))
    lines.append(
        f"steps sum {prof['step_sum_ms']:.3f} ms  |  whole-plan median "
        f"{prof['plan_median_ms']:.3f} ms  |  delta "
        f"{prof['sum_vs_median_pct']:+.1f}%  |  untraced "
        f"{prof['untraced_ms']:.3f} ms  (backend={prof['backend']}, "
        f"batch={prof['batch']}, lanes={prof['lanes']})"
    )
    return "\n".join(lines)


def diff_profile_table(profiles: Dict[str, Dict[str, Any]]) -> str:
    """Side-by-side per-step latency across backends.

    Steps are matched by index; backends whose plans diverge in length
    (different fusion decisions) show ``-`` for missing rows.
    """
    backends = list(profiles)
    by_index: Dict[str, Dict[int, Dict[str, Any]]] = {
        b: {r["index"]: r for r in p["steps"]} for b, p in profiles.items()
    }
    indices = sorted({i for rows in by_index.values() for i in rows})

    cols = "".join(f" {b:>12}" for b in backends)
    header = f"{'#':>3}  {'step':<38}{cols}"
    lines = [header, "-" * len(header)]
    for idx in indices:
        name = None
        for b in backends:
            row = by_index[b].get(idx)
            if row is not None:
                name = row["name"]
                break
        cells = ""
        for b in backends:
            row = by_index[b].get(idx)
            cells += (
                f" {row['ms']:>12.3f}" if row is not None else f" {'-':>12}"
            )
        lines.append(f"{idx:>3}  {(name or '?')[:38]:<38}{cells}")
    lines.append("-" * len(header))
    sums = "".join(
        f" {profiles[b]['step_sum_ms']:>12.3f}" for b in backends
    )
    lines.append(f"{'':>3}  {'steps sum (ms)':<38}{sums}")
    medians = "".join(
        f" {profiles[b]['plan_median_ms']:>12.3f}" for b in backends
    )
    lines.append(f"{'':>3}  {'whole-plan median (ms)':<38}{medians}")
    return "\n".join(lines)
