#!/usr/bin/env python
"""Benchmark-regression guard: fresh BENCH_engine.json vs the committed one.

Compares the *speedup* columns (engine vs eager, measured in the same
run, so they are machine-relative and comparable across hosts) of every
workload present in both reports.  Fails when any fresh speedup drops
more than ``--tolerance`` (default 25%) below the committed baseline,
and when the int8 anomaly regresses (native int8 slower than fp32-fast
by more than the tolerance).

Usage (CI)::

    cp BENCH_engine.json /tmp/bench_baseline.json   # before re-running
    ... run the benchmark (rewrites BENCH_engine.json) ...
    python benchmarks/check_bench_regression.py \
        --baseline /tmp/bench_baseline.json --fresh BENCH_engine.json
"""

from __future__ import annotations

import argparse
import json
import sys

#: Multi-process serving must beat single-process by this factor at the
#: top concurrency — enforced only on hosts with >= MIN_CORES_PER_WORKER
#: cores per worker (bench_serve_throughput.py imports both, so the
#: benchmark gate and this regression guard can never diverge).
WORKERS_SPEEDUP_GATE = 1.3
MIN_CORES_PER_WORKER = 2

#: Booting a worker from a compiled-plan artifact (mmap, no compiler)
#: must beat compile-from-scratch by this factor.  The ratio compares
#: two timings taken back-to-back on the same host, so unlike absolute
#: throughput it is enforced everywhere, quick runs included
#: (docs/operations.md 'Compile-then-deploy').
ARTIFACT_SPEEDUP_GATE = 10.0

#: ``plan.run`` with tracing *disabled* must stay within this many
#: percent of the executor loop called with no tracer.  Like the artifact
#: gate it is a same-run, same-host ratio (interleaved min-of-N legs),
#: so it is enforced everywhere (docs/observability.md
#: 'Overhead budget').
TRACE_OVERHEAD_GATE_PCT = 1.0


def check(baseline: dict, fresh: dict, tolerance: float) -> list:
    failures = []
    fresh_rows = {r["workload"]: r for r in fresh.get("results", [])}
    for base_row in baseline.get("results", []):
        name = base_row["workload"]
        fresh_row = fresh_rows.get(name)
        if fresh_row is None:
            failures.append(f"{name}: workload disappeared from the fresh report")
            continue
        # Speedups are only comparable like-for-like: a row measured with
        # a different engine thread count is a different experiment.
        # (Reports before the parallel executor carried no "threads" key
        # and were serial — default 1 keeps them comparable.)
        base_threads = base_row.get("threads", 1)
        fresh_threads = fresh_row.get("threads", 1)
        if base_threads != fresh_threads:
            print(
                f"note: {name}: skipping speedup comparison "
                f"(baseline threads={base_threads}, fresh threads={fresh_threads})"
            )
            continue
        for key, base_value in base_row.items():
            if not key.startswith("speedup_"):
                continue
            fresh_value = fresh_row.get(key)
            if fresh_value is None:
                failures.append(f"{name}: column {key} disappeared")
                continue
            floor = (1.0 - tolerance) * base_value
            if fresh_value < floor:
                failures.append(
                    f"{name}: {key} regressed {base_value:.3f} -> "
                    f"{fresh_value:.3f} (floor {floor:.3f})"
                )
    failures += _check_threaded(baseline, fresh, tolerance)
    failures += _check_memory(fresh)
    failures += _check_trace_overhead(baseline, fresh)
    failures += _check_winograd_residency(baseline, fresh)
    failures += _check_workers_scaling(baseline, fresh, tolerance)
    failures += _check_artifact(fresh)
    failures += _check_overload(baseline, fresh, tolerance)
    failures += _check_selfheal(baseline, fresh)
    anomaly = fresh.get("int8_anomaly")
    if anomaly is not None:
        ceiling = (1.0 + tolerance) * anomaly["fp32_fast_ms"]
        if anomaly["int8_native_ms"] > ceiling:
            failures.append(
                "int8 anomaly regressed: native int8 "
                f"{anomaly['int8_native_ms']:.3f} ms vs fp32-fast "
                f"{anomaly['fp32_fast_ms']:.3f} ms (ceiling {ceiling:.3f})"
            )
    return failures


def _check_threaded(baseline: dict, fresh: dict, tolerance: float) -> list:
    """Threaded speedups compare only like-for-like: same thread count on
    both reports, and at least that many cores on the fresh host."""
    base = baseline.get("threaded_speedup")
    fresh_t = fresh.get("threaded_speedup")
    if not base:
        return []  # pre-executor baseline: nothing to hold
    if not fresh_t:
        # The entry legitimately disappears only on a host too small to
        # run the baseline's thread count; on a capable host a missing
        # entry means thread resolution broke — exactly what we guard.
        base_threads = int(base.get("threads", 1) or 1)
        if int(fresh.get("cpu_count", 1)) >= max(2, base_threads):
            return [
                "threaded_speedup entry disappeared from the fresh report "
                f"(host has {fresh.get('cpu_count')} cores for "
                f"threads={base_threads})"
            ]
        print(
            "note: skipping threaded_speedup comparison (fresh host has "
            f"{fresh.get('cpu_count')} cores; baseline ran threads={base_threads})"
        )
        return []
    if base.get("threads") != fresh_t.get("threads"):
        print(
            "note: skipping threaded_speedup comparison "
            f"(baseline threads={base.get('threads')}, "
            f"fresh threads={fresh_t.get('threads')})"
        )
        return []
    threads = int(fresh_t.get("threads", 1))
    if int(fresh.get("cpu_count", 1)) < threads:
        print(
            f"note: skipping threaded_speedup comparison (fresh host has "
            f"{fresh.get('cpu_count')} cores for threads={threads})"
        )
        return []
    failures = []
    for name, base_entry in base.get("workloads", {}).items():
        fresh_entry = fresh_t.get("workloads", {}).get(name)
        if fresh_entry is None:
            failures.append(f"threaded_speedup: workload {name} disappeared")
            continue
        floor = (1.0 - tolerance) * base_entry["speedup"]
        if fresh_entry["speedup"] < floor:
            failures.append(
                f"threaded_speedup: {name} regressed "
                f"{base_entry['speedup']:.3f} -> {fresh_entry['speedup']:.3f} "
                f"(floor {floor:.3f})"
            )
    return failures


def _check_workers_scaling(baseline: dict, fresh: dict, tolerance: float) -> list:
    """Multi-process serving rules (serve reports only).

    Correctness is host-independent: sharded responses must stay
    bit-identical to the reference oracle wherever they were measured.
    The throughput expectation — ``workers=N`` sustains >= 1.3x the
    single-process rate at the top concurrency — only holds with >= 2
    cores per worker, so the guard *skips* (never fails) the speedup
    checks on smaller hosts and records why.
    """
    failures = []
    if fresh.get("bit_identical_reference") is False:
        failures.append(
            "served responses NOT bit-identical to direct plan.run "
            "(reference backend)"
        )
    if fresh.get("bit_identical_workers") is False:
        failures.append(
            "workers-mode responses NOT bit-identical to the in-process "
            "reference oracle"
        )
    ws = fresh.get("workers_scaling")
    if not ws:
        return failures
    workers = int(ws.get("workers", 0) or 0)
    cpu = int(ws.get("cpu_count", 1) or 1)
    if workers < 1 or ws.get("speedup") is None:
        return failures
    if ws.get("quick"):
        # Quick (CI smoke) sweeps use few requests at low concurrency on
        # noisy shared runners — the benchmark's own gate skips all
        # throughput expectations there, and so does the guard.
        print("note: skipping workers-scaling speedup check (quick report)")
        return failures
    if cpu < MIN_CORES_PER_WORKER * workers:
        print(
            f"note: skipping workers-scaling speedup check (host has {cpu} "
            f"cores for workers={workers}; needs >= "
            f"{MIN_CORES_PER_WORKER * workers})"
        )
        return failures
    if ws["speedup"] < WORKERS_SPEEDUP_GATE:
        failures.append(
            f"workers={workers} throughput speedup {ws['speedup']:.2f}x "
            f"< {WORKERS_SPEEDUP_GATE}x over single-process at concurrency "
            f"{ws.get('concurrency')} on a {cpu}-core host"
        )
    base_ws = baseline.get("workers_scaling")
    if (
        base_ws
        and base_ws.get("speedup")
        and not base_ws.get("quick")
        and int(base_ws.get("workers", 0) or 0) == workers
        and int(base_ws.get("cpu_count", 1) or 1)
        >= MIN_CORES_PER_WORKER * workers
    ):
        floor = (1.0 - tolerance) * base_ws["speedup"]
        if ws["speedup"] < floor:
            failures.append(
                f"workers-scaling speedup regressed "
                f"{base_ws['speedup']:.3f} -> {ws['speedup']:.3f} "
                f"(floor {floor:.3f})"
            )
    return failures


def _check_artifact(fresh: dict) -> list:
    """AOT artifact rules (serve reports only; all host-independent).

    * artifact-loaded plans run bit-identical to freshly compiled ones;
    * mmap cold start beats compile-from-scratch by
      ``ARTIFACT_SPEEDUP_GATE`` (a same-host ratio, enforced always);
    * a blue/green hot-swap under closed-loop load drops **zero**
      requests (docs/operations.md 'Blue/green deploys and rollback').
    """
    art = fresh.get("artifact_cold_start")
    if not art:
        return []
    failures = []
    if art.get("bit_identical") is False:
        failures.append(
            "artifact-loaded plan NOT bit-identical to the freshly "
            "compiled plan"
        )
    speedup = art.get("speedup")
    if speedup is not None and speedup < ARTIFACT_SPEEDUP_GATE:
        failures.append(
            f"artifact cold-start speedup {speedup:.1f}x < "
            f"{ARTIFACT_SPEEDUP_GATE}x (compile {art.get('compile_ms', 0):.0f} ms "
            f"vs mmap load {art.get('load_ms', 0):.1f} ms)"
        )
    swap = art.get("hot_swap") or {}
    if swap.get("requests_failed", 0) != 0:
        failures.append(
            f"blue/green hot-swap dropped {swap['requests_failed']} "
            f"requests (ok={swap.get('requests_ok')})"
        )
    return failures


def _check_overload(baseline: dict, fresh: dict, tolerance: float) -> list:
    """Overload-honesty rules (serve reports only; ``overload_goodput``).

    Host-independent, enforced on every report that carries the entry:

    * ``expired_executed`` == 0 — a request the server answered 504 must
      never also appear inside an executed batch (work after death);
    * ``unaccounted`` == 0 — every sent request ended in *some* recorded
      outcome (no silent drops);
    * ``goodput_rps`` > 0 — a server at 2x offered load still answers.

    Throughput-shaped expectations (goodput floor vs baseline, tight-class
    p99 within its deadline) are skipped on quick reports, like the
    workers-scaling gate.
    """
    entry = fresh.get("overload_goodput")
    if not entry:
        if baseline.get("overload_goodput"):
            return ["overload_goodput entry disappeared from the fresh report"]
        return []
    failures = []
    if entry.get("expired_executed", 0) != 0:
        failures.append(
            f"{entry['expired_executed']} expired (504) requests were "
            "still executed — expulsion at batch formation is broken"
        )
    if entry.get("unaccounted", 0) != 0:
        failures.append(
            f"{entry['unaccounted']} of {entry.get('sent')} overload "
            "requests vanished without a recorded outcome (silent drop)"
        )
    if not entry.get("goodput_rps", 0) > 0:
        failures.append(
            "zero goodput under 2x overload "
            f"(offered {entry.get('offered_rps', 0):.0f} rps)"
        )
    if entry.get("quick"):
        print("note: skipping overload goodput/p99 checks (quick report)")
        return failures
    tight = entry.get("tight") or {}
    deadline = tight.get("deadline_ms")
    p99 = tight.get("p99_ms")
    if deadline is not None and p99 is not None and p99 > deadline:
        failures.append(
            f"tight-class p99 {p99:.1f} ms exceeds its deadline "
            f"{deadline:.1f} ms under 2x overload — deadline-aware "
            "batching is not protecting interactive traffic"
        )
    base_entry = baseline.get("overload_goodput")
    if base_entry and not base_entry.get("quick"):
        base_ratio = base_entry.get("goodput_ratio")
        ratio = entry.get("goodput_ratio")
        if base_ratio and ratio is not None:
            floor = (1.0 - tolerance) * base_ratio
            if ratio < floor:
                failures.append(
                    f"overload goodput_ratio regressed {base_ratio:.3f} -> "
                    f"{ratio:.3f} (floor {floor:.3f})"
                )
    return failures


def _check_selfheal(baseline: dict, fresh: dict) -> list:
    """Self-healing rules (serve reports only; ``selfheal_goodput``).

    Host-independent, enforced on every report that carries the entry:

    * both legs keep the overload honesty invariants — every request
      accounted, no expired (504) request executed;
    * the kill -9 drill recovered: the restart replayed the journal,
      every model came back at its pre-kill content-hash version, and
      the recovered server's responses are bit-identical (zero manual
      re-deploys);
    * the entry disappearing after a baseline carried it is itself a
      failure — the gate must not silently stop being measured.

    The throughput-shaped expectation — the autoscaler+brownout server
    sustains *strictly higher* goodput than the static single-replica
    baseline under the same chaos and offered schedule — is skipped on
    quick reports, like the other throughput gates.
    """
    entry = fresh.get("selfheal_goodput")
    if not entry:
        if baseline.get("selfheal_goodput"):
            return ["selfheal_goodput entry disappeared from the fresh report"]
        return []
    failures = []
    for leg_name in ("static", "selfheal"):
        leg = entry.get(leg_name) or {}
        if leg.get("expired_executed", 0) != 0:
            failures.append(
                f"selfheal {leg_name} leg: {leg['expired_executed']} expired "
                "(504) requests were still executed under chaos"
            )
        if leg.get("unaccounted", 0) != 0:
            failures.append(
                f"selfheal {leg_name} leg: {leg['unaccounted']} of "
                f"{leg.get('sent')} requests vanished without a recorded "
                "outcome (silent drop)"
            )
    recovery = entry.get("recovery") or {}
    if not recovery.get("versions_match"):
        failures.append(
            "kill -9 recovery: restarted server's model versions do not "
            f"match pre-kill (before={recovery.get('models_before')}, "
            f"after={recovery.get('models_after')})"
        )
    if not recovery.get("response_identical"):
        failures.append(
            "kill -9 recovery: restarted server's responses are not "
            "bit-identical to pre-kill"
        )
    if not recovery.get("recovered"):
        failures.append(
            "kill -9 recovery failed: the journal replay did not restore "
            f"the runtime deploy {recovery.get('deployed_version')!r}"
        )
    if entry.get("quick"):
        print("note: skipping selfheal goodput-improvement check (quick report)")
        return failures
    improvement = entry.get("goodput_improvement")
    if improvement is None or not improvement > 1.0:
        failures.append(
            "self-healing server did not beat the static baseline: goodput "
            f"improvement {improvement} (selfheal "
            f"{(entry.get('selfheal') or {}).get('goodput_rps', 0):.0f} rps "
            f"vs static "
            f"{(entry.get('static') or {}).get('goodput_rps', 0):.0f} rps) "
            "must be strictly > 1.0x"
        )
    return failures


def _check_trace_overhead(baseline: dict, fresh: dict) -> list:
    """Tracing-off overhead rule (engine reports only; host-independent).

    ``overhead_disabled_pct`` compares ``plan.run`` (tracing disabled)
    against the pristine leg — the one executor loop, ``_execute``,
    called directly with no tracer — within one interleaved measurement,
    so the ratio holds on any host and is enforced unconditionally.
    It times ``run``'s ambient-tracer lookup and dispatch.  The entry disappearing after a baseline carried it
    is itself a failure — the gate must not silently stop being
    measured.  The traced leg is informational, never gated.
    """
    entry = fresh.get("trace_overhead")
    if not entry:
        if baseline.get("trace_overhead"):
            return [
                "trace_overhead entry disappeared from the fresh report"
            ]
        return []
    pct = entry.get("overhead_disabled_pct")
    if pct is None:
        return ["trace_overhead entry lacks overhead_disabled_pct"]
    if pct > TRACE_OVERHEAD_GATE_PCT:
        return [
            f"tracing-off overhead {pct:.2f}% > "
            f"{TRACE_OVERHEAD_GATE_PCT:.1f}% on {entry.get('workload')} "
            f"(disabled {entry.get('ms_disabled')} ms vs pristine "
            f"{entry.get('ms_pristine')} ms)"
        ]
    return []


def _check_winograd_residency(baseline: dict, fresh: dict) -> list:
    """Transform-domain residency rules (engine reports only).

    Host-independent, enforced on every report that carries the entry:

    * the compiled chain actually got residency edges — the pass
      silently declining on its own showcase workload is a compiler
      regression, not a measurement artifact;
    * ``speedup`` > 1.0 — resident vs round-trip is a same-run
      interleaved min-of-N ratio on one host, so keeping taps resident
      must never be a pessimization wherever it is measured;
    * ``steady_state_allocations`` == 0 — the tap tensors live in
      planned arena slots, and residency must not reopen per-run
      allocations.

    The entry disappearing after a baseline carried it is itself a
    failure — the gate must not silently stop being measured.
    """
    entry = fresh.get("winograd_residency")
    if not entry:
        if baseline.get("winograd_residency"):
            return [
                "winograd_residency entry disappeared from the fresh report"
            ]
        return []
    failures = []
    if entry.get("residency_edges", 0) < 1:
        failures.append(
            "residency pass wired zero edges on "
            f"{entry.get('workload')} — eligibility regression"
        )
    speedup = entry.get("speedup")
    if speedup is None or not speedup > 1.0:
        failures.append(
            f"transform-domain residency speedup {speedup} must be "
            f"strictly > 1.0x on {entry.get('workload')} (resident "
            f"{entry.get('ms_resident')} ms vs round-trip "
            f"{entry.get('ms_roundtrip')} ms)"
        )
    if entry.get("steady_state_allocations", 0) != 0:
        failures.append(
            "resident plan broke the zero-allocation contract: "
            f"{entry['steady_state_allocations']} steady-state allocations "
            f"on {entry.get('workload')}"
        )
    return failures


def _check_memory(fresh: dict) -> list:
    """The zero-allocation contract is host-independent: a fresh report
    showing steady-state arena allocations is a planner regression."""
    memory = fresh.get("memory")
    if memory is None:
        return []
    if memory.get("steady_state_allocations", 0) != 0:
        return [
            "memory planner regressed: "
            f"{memory['steady_state_allocations']} steady-state allocations "
            f"on {memory.get('workload')}"
        ]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True, help="committed BENCH_engine.json")
    parser.add_argument("--fresh", required=True, help="freshly measured report")
    parser.add_argument(
        "--tolerance", type=float, default=0.25,
        help="allowed fractional speedup drop per workload (default 0.25)",
    )
    args = parser.parse_args(argv)
    with open(args.baseline) as fh:
        baseline = json.load(fh)
    with open(args.fresh) as fh:
        fresh = json.load(fh)
    failures = check(baseline, fresh, args.tolerance)
    if failures:
        print("benchmark regression detected:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    workloads = [r["workload"] for r in fresh.get("results", [])]
    print(f"benchmark guard ok ({len(workloads)} workloads, "
          f"tolerance {args.tolerance:.0%}): {', '.join(workloads)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
