"""Serving throughput benchmark: dynamic batching vs batch-1 serving.

Not a paper table — this measures the :mod:`repro.serve` stack on this
host.  For each batching policy (batch-1 control vs dynamic micro-batching)
it starts an in-process server over the ResNet-18 w0.25 F4 int8 smoke
model, sweeps closed-loop client concurrency, and persists the result to
``BENCH_serve.json`` at the repo root so the serving-perf trajectory is
tracked across PRs.

It is a regression test as well as a benchmark (run by the CI
``serve-smoke`` job, ``--quick`` there): the fresh report must pass every
absolute row of the regression guard's rule table
(``benchmarks/check_bench_regression.py``) -- bit-identity with direct
``CompiledPlan.run``, the dynamic-batching and workers-scaling speedups,
the artifact cold start and zero-drop hot-swap, overload honesty and
self-healing recovery.  Quick reports skip the throughput-shaped rows.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve_throughput.py [--quick]
    PYTHONPATH=src python benchmarks/bench_serve_throughput.py --out /tmp/b.json
"""

from __future__ import annotations

import argparse
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

sys.path.insert(0, str(REPO_ROOT / "benchmarks"))
from check_bench_regression import check  # noqa: E402


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

    failures = check({}, report)
    if failures and not args.no_gate:
        for failure in failures:
            print(f"GATE FAILED: {failure}", file=sys.stderr)
        return 1
    print("serving gates passed" if not failures else "gates skipped (--no-gate)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
