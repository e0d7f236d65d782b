"""Serving throughput benchmark: dynamic batching vs batch-1 serving.

Not a paper table — this measures the :mod:`repro.serve` stack on this
host.  For each batching policy (batch-1 control vs dynamic micro-batching)
it starts an in-process server over the ResNet-18 w0.25 F4 int8 smoke
model, sweeps closed-loop client concurrency, and persists the result to
``BENCH_serve.json`` at the repo root so the serving-perf trajectory is
tracked across PRs.

Five gates make this a regression test as well as a benchmark (run by the
CI ``serve-smoke`` job, ``--quick`` there):

* served responses must be **bit-identical** to direct
  ``CompiledPlan.run`` on the reference backend, under concurrency;
* dynamic batching must reach **>= 1.5x** the batch-1 throughput at
  concurrency >= 16;
* booting from a compiled-plan artifact (mmap) must be **>= 10x**
  faster than compile-from-scratch, with bit-identical outputs
  (docs/artifact-format.md);
* a blue/green hot-swap under load must drop **zero** requests
  (docs/operations.md 'Blue/green deploys and rollback');
* the self-healing control plane must earn its keep: under the same
  crash-storm chaos and offered overload, the autoscaler+brownout server
  sustains strictly higher goodput than a static single-replica baseline
  (full runs), and a kill -9 + restart from ``--state-dir`` recovers
  every model at its pre-kill content-hash version with bit-identical
  responses (always; docs/operations.md 'Self-healing & autoscaling
  runbook').

Usage::

    PYTHONPATH=src python benchmarks/bench_serve_throughput.py [--quick]
    PYTHONPATH=src python benchmarks/bench_serve_throughput.py --out /tmp/b.json
"""

from __future__ import annotations

import argparse
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

SPEEDUP_GATE = 1.5
GATE_CONCURRENCY = 16
# Workers gate shared with the CI regression guard — one source of truth.
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
from check_bench_regression import (  # noqa: E402
    ARTIFACT_SPEEDUP_GATE,
    MIN_CORES_PER_WORKER,
    WORKERS_SPEEDUP_GATE,
    _check_selfheal,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # The throughput variant serves the native ``int8`` backend (the
    # deployment numerics); the bit-identity gate always checks a
    # ``reference``-backend variant of the same model against direct
    # CompiledPlan.run.
    parser.add_argument("--model", default="resnet18-w0.25-F4-int8@int8")
    parser.add_argument(
        "--quick", action="store_true", help="smaller sweep for CI smoke"
    )
    parser.add_argument(
        "--workers", type=int, default=0,
        help="worker processes of the swept servers (0 = in-process baseline)",
    )
    parser.add_argument(
        "--executor-threads", type=int, default=4,
        help="dispatch threads of the swept servers",
    )
    parser.add_argument(
        "--workers-scale", type=int, default=2,
        help="also measure this many worker processes at top concurrency "
        "and record the workers_scaling entry (0 disables)",
    )
    parser.add_argument("--requests", type=int, default=256)
    parser.add_argument(
        "--trials",
        type=int,
        default=2,
        help="trials per (policy, concurrency) cell; best throughput kept "
        "(interference on a shared host only lowers closed-loop throughput)",
    )
    parser.add_argument(
        "--out", default=str(REPO_ROOT / "BENCH_serve.json"), help="report path"
    )
    parser.add_argument(
        "--no-gate",
        action="store_true",
        help="measure and write the report without failing on the gates",
    )
    args = parser.parse_args(argv)

    from repro.serve import benchmark_serving

    report = benchmark_serving(
        model_name=args.model,
        requests_per_level=args.requests,
        workers=args.workers,
        executor_threads=args.executor_threads,
        workers_scale=args.workers_scale,
        out_path=args.out,
        quick=args.quick,
        trials=args.trials,
    )

    failures = []
    if not report["bit_identical_reference"]:
        failures.append(
            "served responses are NOT bit-identical to direct plan.run "
            "on the reference backend"
        )
    if report.get("bit_identical_workers") is False:
        failures.append(
            "workers-mode responses are NOT bit-identical to the "
            "in-process reference oracle"
        )
    # Artifact gates hold in --quick too: the cold-start speedup is a
    # same-host ratio and zero-drop hot-swap is pure correctness
    # (docs/operations.md 'Compile-then-deploy').
    artifact = report.get("artifact_cold_start") or {}
    if artifact.get("bit_identical") is False:
        failures.append(
            "artifact-loaded plan is NOT bit-identical to the freshly "
            "compiled plan"
        )
    if artifact.get("speedup") is not None and (
        artifact["speedup"] < ARTIFACT_SPEEDUP_GATE
    ):
        failures.append(
            f"artifact cold-start speedup {artifact['speedup']:.1f}x < "
            f"{ARTIFACT_SPEEDUP_GATE}x "
            f"(compile {artifact.get('compile_ms', 0):.0f} ms vs mmap "
            f"load {artifact.get('load_ms', 0):.1f} ms)"
        )
    hot_swap = artifact.get("hot_swap") or {}
    if hot_swap.get("requests_failed", 0) != 0:
        failures.append(
            f"blue/green hot-swap dropped {hot_swap['requests_failed']} "
            "requests"
        )
    # Self-healing gates share the regression guard's rule set (honesty
    # + kill -9 recovery always; the goodput-improvement expectation
    # only on full runs) so the benchmark and the guard never diverge.
    failures += _check_selfheal({}, report)
    if not args.quick:
        # The throughput gate is calibrated for the single-core reference
        # host this repo's BENCH_serve.json is generated on; --quick (CI
        # smoke on shared multi-core runners) checks correctness only and
        # just reports the measured speedups.
        gated = {
            int(c): s
            for c, s in report["speedup_dynamic_over_batch1"].items()
            if int(c) >= GATE_CONCURRENCY
        }
        if not gated:
            failures.append(f"no sweep point at concurrency >= {GATE_CONCURRENCY}")
        elif max(gated.values()) < SPEEDUP_GATE:
            failures.append(
                f"dynamic batching speedup {max(gated.values()):.2f}x "
                f"< {SPEEDUP_GATE}x at concurrency >= {GATE_CONCURRENCY}"
            )
        scaling = report.get("workers_scaling")
        if scaling and scaling.get("speedup") is not None:
            # Acceptance: workers=2 sustains >= 1.3x single-process
            # throughput — but only with enough cores per worker;
            # smaller hosts record the entry and skip the expectation.
            if scaling["cpu_count"] >= MIN_CORES_PER_WORKER * scaling["workers"]:
                if scaling["speedup"] < WORKERS_SPEEDUP_GATE:
                    failures.append(
                        f"workers={scaling['workers']} speedup "
                        f"{scaling['speedup']:.2f}x < {WORKERS_SPEEDUP_GATE}x "
                        f"on a {scaling['cpu_count']}-core host"
                    )
            else:
                print(
                    f"workers-scaling gate skipped: {scaling['cpu_count']} "
                    f"cores for workers={scaling['workers']} "
                    f"(measured {scaling['speedup']:.2f}x)"
                )
    if failures and not args.no_gate:
        for failure in failures:
            print(f"GATE FAILED: {failure}", file=sys.stderr)
        return 1
    print("serving gates passed" if not failures else "gates skipped (--no-gate)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
