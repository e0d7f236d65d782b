"""Command-line entry point: run any paper experiment by name.

Usage::

    python -m repro.cli list
    python -m repro.cli run table1 --scale smoke --seed 0
    python -m repro.cli run figure7
    python -m repro.cli run figure4 --scale quick --out figure4.txt
    python -m repro.cli infer --model resnet18 --algorithm F4 --compare
    python -m repro.cli infer --quant int8 --backend int8 --compare
    python -m repro.cli bench engine
    python -m repro.cli compile resnet18-w0.25-F4-int8@int8 -o resnet.rpln
    python -m repro.cli serve --model resnet.rpln --workers 2 --port 8100
    python -m repro.cli loadgen --url http://127.0.0.1:8100 --concurrency 16
    python -m repro.cli profile resnet18-w0.25-F4 --backends fast,int8
    python -m repro.cli trace --workers 2 --export trace.json

(Installed via the ``repro`` console script: ``repro serve ...``.)

``run`` prints (and optionally writes) each experiment's
measured-vs-published report; see EXPERIMENTS.md for how to read them.
``infer`` compiles a smoke model with :mod:`repro.engine` and reports
compiled-plan wall-clock (optionally against the eager forward).
``bench`` runs any benchmark registered in :mod:`repro.bench` and writes
its ``BENCH_*.json`` report.
``compile`` builds a variant ahead of time and writes a plan artifact
(:mod:`repro.engine.artifact`, spec in docs/artifact-format.md) that
``serve`` and every worker process then ``mmap`` instead of compiling —
the compile-then-deploy flow in docs/operations.md.
``serve`` starts the dynamic-batching inference server
(:mod:`repro.serve`) over one or more compiled variants or artifact
files; ``loadgen`` drives a running server with concurrent closed-loop
clients, or with ``--sweep`` runs the full self-contained policy
benchmark that writes ``BENCH_serve.json``.
``profile`` prints a traced per-step latency table for one variant and
``trace`` exports a Perfetto-loadable Chrome trace of a serving run;
both are documented in docs/observability.md.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import Optional, Sequence

EXPERIMENTS = (
    "table1",
    "table3",
    "table4",
    "table5",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "ablation_points",
    "ablation_dense_transforms",
    "ablation_quant_stages",
)


def _threads(text: str) -> int:
    """The ``--threads`` type: a non-negative count (0 = all cores)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be >= 0 (0 = all cores), got {value}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    from repro.engine.registry import BACKENDS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce tables/figures of 'Searching for Winograd-aware "
        "Quantized Networks' (MLSys 2020).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment", choices=EXPERIMENTS)
    run.add_argument("--scale", default="smoke", choices=("smoke", "quick", "paper"))
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--verbose", action="store_true")
    run.add_argument("--out", default=None, help="also write the report to this file")

    infer = sub.add_parser(
        "infer",
        help="run compiled-engine inference on a smoke model",
        description="Compile one smoke-model variant and report plan "
        "wall-clock; the engine layers involved are mapped in "
        "docs/architecture.md ('Layer map').",
    )
    infer.add_argument(
        "--model",
        default="resnet18",
        choices=("lenet", "resnet18", "squeezenet", "resnext20"),
        help="smoke-model architecture (default resnet18)",
    )
    infer.add_argument(
        "--algorithm",
        default="F4",
        help="conv spec name: im2row, F2, F4, F6, F4-flex, ... (default F4)",
    )
    infer.add_argument(
        "--quant",
        default="fp32",
        help="quantization config: fp32 / int8 / int10 / int16 "
        "(numerics contracts: docs/architecture.md "
        "'Bit-exactness contracts')",
    )
    infer.add_argument(
        "--width",
        type=float,
        default=None,
        help="width multiplier (default: 0.25 for resnet18, 0.5 for "
        "squeezenet/resnext20; ignored by lenet)",
    )
    infer.add_argument(
        "--batch", type=int, default=8, help="batch size per timed run (default 8)"
    )
    infer.add_argument(
        "--backend",
        default="fast",
        choices=BACKENDS,
        help="engine backend (contract per backend: docs/architecture.md "
        "'Backends')",
    )
    infer.add_argument(
        "--repeats", type=int, default=5, help="timed repeats (default 5)"
    )
    infer.add_argument(
        "--seed", type=int, default=0, help="weight/init RNG seed (default 0)"
    )
    infer.add_argument(
        "--threads",
        type=_threads,
        default=None,
        help="engine threads per plan run (0 = all cores; default "
        "REPRO_THREADS or 1; decision table: docs/operations.md "
        "'Threads, workers, replicas')",
    )
    infer.add_argument(
        "--compare", action="store_true", help="also time the eager forward"
    )
    infer.add_argument(
        "--describe", action="store_true", help="print the compiled plan's steps"
    )

    compile_ = sub.add_parser(
        "compile",
        help="AOT-compile a variant to a plan artifact (mmap'd by serve)",
        description="Build and compile one variant ahead of time and "
        "write a versioned plan artifact; 'repro serve --model "
        "<path>' and its workers then mmap the artifact instead of "
        "compiling (docs/operations.md 'Compile-then-deploy'; byte "
        "layout: docs/artifact-format.md).",
    )
    compile_.add_argument(
        "model",
        nargs="?",
        default=None,
        help="variant name, e.g. resnet18-w0.25-F4-int8@int8 "
        "(omit with --inspect)",
    )
    compile_.add_argument(
        "-o",
        "--out",
        default=None,
        help="artifact output path (default: <variant-name>.rpln; "
        "format: docs/artifact-format.md)",
    )
    compile_.add_argument(
        "--seed",
        type=int,
        default=0,
        help="weight/calibration RNG seed baked into the artifact "
        "(default 0; must match the serving spec seed for "
        "bit-identical responses)",
    )
    compile_.add_argument(
        "--inspect",
        metavar="PATH",
        default=None,
        help="print an existing artifact's manifest summary instead of "
        "compiling (sections: docs/artifact-format.md 'Manifest')",
    )

    serve = sub.add_parser(
        "serve",
        help="start the dynamic-batching inference server (repro.serve)",
        description="Serve one or more compiled variants over HTTP; "
        "topology knobs and the scaling decision table live in "
        "docs/operations.md ('Threads, workers, replicas').",
    )
    serve.add_argument(
        "--model",
        action="append",
        dest="models",
        metavar="NAME_OR_PATH",
        help="served variant name (e.g. resnet18-w0.25-F4-int8) or a "
        "compiled plan artifact path from 'repro compile' — workers "
        "mmap artifacts instead of compiling (docs/operations.md "
        "'Compile-then-deploy'); repeat for several (default: "
        "resnet18-w0.25-F4-int8)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve.add_argument(
        "--port", type=int, default=8100, help="bind port; 0 = ephemeral"
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes with shared-memory tensor transport "
        "(0 = in-process serving, the exact single-process path; "
        "docs/operations.md 'Threads, workers, replicas')",
    )
    serve.add_argument(
        "--worker-replicas",
        type=int,
        default=None,
        help="processes each model is placed on (default min(workers, 2); "
        "raise for single-model deployments that should use every "
        "worker; docs/operations.md 'Threads, workers, replicas')",
    )
    serve.add_argument(
        "--executor-threads",
        type=int,
        default=None,
        help="dispatch threads pushing batches off the event loop "
        "(default: auto)",
    )
    serve.add_argument(
        "--threads",
        type=_threads,
        default=None,
        help="engine threads per dispatched batch (0 = all cores; "
        "default REPRO_THREADS or 1; docs/operations.md "
        "'Threads, workers, replicas')",
    )
    serve.add_argument(
        "--max-batch-size",
        type=int,
        default=8,
        help="largest dynamic batch the batcher stacks (default 8; "
        "docs/operations.md 'Batching policy')",
    )
    serve.add_argument(
        "--max-wait-ms",
        type=float,
        default=2.0,
        help="longest a request waits for batch-mates (default 2; "
        "docs/operations.md 'Batching policy')",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=128,
        help="per-model queue bound; beyond it requests get HTTP 503 "
        "(default 128; docs/operations.md 'Batching policy')",
    )
    serve.add_argument(
        "--deadline-ms",
        type=float,
        default=2000.0,
        help="default per-request deadline, <= 0 disables (default 2000; "
        "docs/operations.md 'Batching policy')",
    )
    serve.add_argument(
        "--trace-rate",
        type=float,
        default=None,
        help="fraction of requests recorded as span trees, 0..1 "
        "(default: 1.0 when REPRO_TRACE=1, else 0; inspect via GET "
        "/trace or 'repro trace --url'; docs/observability.md)",
    )
    serve.add_argument(
        "--tenant-rate",
        type=float,
        default=0.0,
        help="per-tenant admission rate, requests/s (0 disables tenant "
        "buckets; docs/operations.md 'Overload & incident runbook')",
    )
    serve.add_argument(
        "--tenant-burst",
        type=float,
        default=10.0,
        help="per-tenant token-bucket burst size (default 10; "
        "docs/operations.md 'Overload & incident runbook')",
    )
    serve.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help="seeded fault injection in the worker pool, e.g. "
        "'seed=7,worker_crash=0.05,shm_delay=0.2:15' (default: the "
        "REPRO_CHAOS env var; needs --workers; "
        "docs/operations.md 'Overload & incident runbook')",
    )
    serve.add_argument(
        "--drain-trace-out",
        default=None,
        metavar="PATH",
        help="on SIGTERM, flush the span buffer to this Chrome-trace "
        "file after the graceful drain (docs/operations.md "
        "'Overload & incident runbook')",
    )
    serve.add_argument(
        "--state-dir",
        default=None,
        metavar="DIR",
        help="crash-consistent control-plane journal directory: deploys, "
        "replica scales and brownout rungs are fsync'd here and "
        "replayed on boot, so a kill -9 + restart recovers the full "
        "serving state with zero manual re-deploys "
        "(docs/operations.md 'Self-healing & autoscaling runbook')",
    )
    serve.add_argument(
        "--ladder",
        action="append",
        dest="ladders",
        metavar="MODEL=V1>V2",
        help="brownout ladder: fallback variants served under MODEL's "
        "name when shed/deadline pressure persists at max replicas "
        "(e.g. 'resnet18-w0.25-F4-fp32=resnet18-w0.25-F4-int8'); "
        "responses carry X-Served-Variant; repeatable; fallbacks are "
        "auto-loaded (docs/operations.md 'Self-healing & autoscaling "
        "runbook')",
    )
    serve.add_argument(
        "--autoscale",
        action="store_true",
        help="enable the per-model replica autoscaler (worker mode "
        "only): queue fill and shed/deadline-miss deltas move each "
        "model's replica count within [--autoscale-min, "
        "--autoscale-max] under hysteresis, cooldowns and flap "
        "suppression (docs/operations.md 'Self-healing & autoscaling "
        "runbook')",
    )
    serve.add_argument(
        "--autoscale-min",
        type=int,
        default=1,
        metavar="N",
        help="autoscaler floor, replicas per model (default 1; "
        "docs/operations.md 'Self-healing & autoscaling runbook')",
    )
    serve.add_argument(
        "--autoscale-max",
        type=int,
        default=None,
        metavar="N",
        help="autoscaler ceiling, replicas per model (default: "
        "--workers; docs/operations.md 'Self-healing & autoscaling "
        "runbook')",
    )
    serve.add_argument(
        "--circuit-threshold",
        type=int,
        default=None,
        metavar="N",
        help="consecutive deterministic model errors (HTTP 500s) that "
        "open a model's circuit breaker: requests fail fast with 503 "
        "+ Retry-After until a half-open probe batch passes (default "
        "5 when self-healing is active; docs/operations.md "
        "'Self-healing & autoscaling runbook')",
    )

    bench = sub.add_parser(
        "bench",
        help="run a registered benchmark and write its BENCH_*.json",
        description="Run one registered benchmark; serving-side reports "
        "are documented field by field in docs/operations.md "
        "('Benchmark reports').",
    )
    bench.add_argument(
        "name",
        help="benchmark name (see 'repro bench list'), or 'list'",
    )
    bench.add_argument(
        "--quick", action="store_true", help="fewer repeats, for CI smoke"
    )
    bench.add_argument(
        "--seed", type=int, default=0, help="benchmark RNG seed (default 0)"
    )
    bench.add_argument(
        "--out", default=None, help="report path (default: BENCH_<name>.json at repo root)"
    )
    bench.add_argument(
        "--threads",
        type=_threads,
        default=None,
        help="threaded-speedup thread count for the engine benchmark "
        "(0 = all cores; default REPRO_THREADS or all cores; "
        "docs/operations.md 'Threads, workers, replicas')",
    )

    loadgen = sub.add_parser(
        "loadgen",
        help="drive a running server, or --sweep the policy benchmark",
        description="Closed-loop load generation against a running "
        "server, or a self-contained --sweep writing BENCH_serve.json "
        "(fields: docs/operations.md 'Benchmark reports').",
    )
    loadgen.add_argument(
        "--url", default=None, help="base URL of a running server"
    )
    loadgen.add_argument(
        "--model",
        default=None,
        help="model name (default: the server's only loaded model; "
        "for --sweep: resnet18-w0.25-F4-int8@int8)",
    )
    loadgen.add_argument(
        "--concurrency",
        type=int,
        default=16,
        help="concurrent closed-loop clients (default 16)",
    )
    loadgen.add_argument(
        "--requests",
        type=int,
        default=256,
        help="total requests (per sweep level with --sweep; default 256)",
    )
    loadgen.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-request deadline forwarded to the server "
        "(docs/operations.md 'Batching policy')",
    )
    loadgen.add_argument(
        "--sweep",
        action="store_true",
        help="self-contained concurrency x policy benchmark (no --url "
        "needed; writes BENCH_serve.json, see docs/operations.md "
        "'Benchmark reports')",
    )
    loadgen.add_argument(
        "--quick", action="store_true", help="smaller --sweep for CI smoke"
    )
    loadgen.add_argument(
        "--workers",
        type=int,
        default=0,
        help="--sweep server worker processes (0 = in-process baseline; "
        "docs/operations.md 'Threads, workers, replicas')",
    )
    loadgen.add_argument(
        "--workers-scale",
        type=int,
        default=2,
        help="--sweep also measures this many worker processes at top "
        "concurrency and records the workers_scaling entry (0 disables)",
    )
    loadgen.add_argument(
        "--out", default=None, help="--sweep report path (default BENCH_serve.json)"
    )
    loadgen.add_argument(
        "--dump-slowest",
        type=int,
        default=0,
        metavar="N",
        help="after the run, fetch the span trees of the N "
        "worst-latency requests from a traced server (needs the "
        "server started with --trace-rate 1; docs/observability.md "
        "'Finding slow requests')",
    )
    loadgen.add_argument(
        "--dump-out",
        default="slowest_traces.json",
        help="where --dump-slowest writes its span trees "
        "(default slowest_traces.json)",
    )
    loadgen.add_argument(
        "--open-loop",
        type=float,
        default=None,
        metavar="RATE",
        help="open-loop mode: offered request rate (req/s) on a seeded "
        "Poisson schedule instead of closed-loop workers — arrivals "
        "never wait for responses, so an overloaded server stays "
        "offered-overloaded (docs/operations.md 'Overload & incident "
        "runbook')",
    )
    loadgen.add_argument(
        "--duration",
        type=float,
        default=2.0,
        help="--open-loop run length in seconds (default 2)",
    )
    loadgen.add_argument(
        "--priority",
        default=None,
        choices=("interactive", "standard", "batch"),
        help="admission class stamped on generated requests "
        "(docs/operations.md 'Overload & incident runbook')",
    )
    loadgen.add_argument(
        "--tenant",
        default=None,
        help="tenant id stamped on generated requests (exercises the "
        "per-tenant admission buckets; docs/operations.md "
        "'Overload & incident runbook')",
    )
    loadgen.add_argument(
        "--seed",
        type=int,
        default=0,
        help="arrival-schedule RNG seed for --open-loop/--overload "
        "(default 0)",
    )
    loadgen.add_argument(
        "--overload",
        action="store_true",
        help="standalone overload-honesty benchmark: measure capacity, "
        "offer 2x on an open loop, report goodput + honesty checks "
        "and write an {'overload_goodput': ...} fragment to --out "
        "(docs/operations.md 'Benchmark reports')",
    )

    profile = sub.add_parser(
        "profile",
        help="per-step latency table of a compiled variant (Figure 8)",
        description="Compile one variant with tracing on and print a "
        "per-step (per-layer) latency table — the engine-level view "
        "behind the paper's Figure 8 — optionally diffing several "
        "backends side by side.  Span model and table columns: "
        "docs/observability.md ('Profiling a plan').",
    )
    profile.add_argument(
        "model",
        help="variant name, e.g. resnet18-w0.25-F4-int8 (a name "
        "without a precision suffix profiles the fp32 variant)",
    )
    profile.add_argument(
        "--batch", type=int, default=8, help="batch size per run (default 8)"
    )
    profile.add_argument(
        "--repeats",
        type=int,
        default=5,
        help="traced repeats; each step reports its median (default 5)",
    )
    profile.add_argument(
        "--seed", type=int, default=0, help="weight/input RNG seed (default 0)"
    )
    profile.add_argument(
        "--threads",
        type=_threads,
        default=None,
        help="engine threads (0 = all cores; default REPRO_THREADS or 1; "
        "docs/operations.md 'Threads, workers, replicas')",
    )
    profile.add_argument(
        "--backends",
        default=None,
        help="comma-separated backends to profile and diff side by side "
        "(e.g. fast,int8); default: the variant's own backend",
    )
    profile.add_argument(
        "--out",
        default=None,
        help="also write the raw profile dict(s) as JSON to this path",
    )

    trace = sub.add_parser(
        "trace",
        help="export a Perfetto-loadable trace from a (or a fresh) server",
        description="Fetch a running server's span buffer as Chrome "
        "trace-event JSON (--url), or start a fully-traced throwaway "
        "server, fire a few requests through it, and export those.  "
        "Open the file at https://ui.perfetto.dev; span model and "
        "pid/tid mapping: docs/observability.md ('Exporting to "
        "Perfetto').",
    )
    trace.add_argument(
        "--url",
        default=None,
        help="base URL of a running traced server (omit for the "
        "self-contained mode, which starts its own)",
    )
    trace.add_argument(
        "--export",
        default="trace.json",
        metavar="PATH",
        help="output path for the Chrome trace-event JSON "
        "(default trace.json)",
    )
    trace.add_argument(
        "--request-id",
        default=None,
        help="restrict the export to one request's span tree",
    )
    trace.add_argument(
        "--model",
        default="lenet-F2-fp32",
        help="self-contained mode: variant to serve (default lenet-F2-fp32)",
    )
    trace.add_argument(
        "--workers",
        type=int,
        default=0,
        help="self-contained mode: worker processes, so the trace "
        "covers the shm transport + worker execution too (default 0 "
        "= in-process; docs/operations.md 'Threads, workers, replicas')",
    )
    trace.add_argument(
        "--requests",
        type=int,
        default=8,
        help="self-contained mode: traced requests to fire (default 8)",
    )
    return parser


def run_infer(args) -> int:
    """The ``repro infer`` subcommand: compile, execute, report latency."""
    import numpy as np

    from repro.engine import get_cached_plan, measure_callable_ms, measure_plan_ms
    from repro.serve.registry import ModelSpec, build_model

    try:
        model_spec = ModelSpec(
            architecture=args.model,
            width=args.width,
            algorithm=args.algorithm,
            precision=args.quant,
            backend=args.backend,
            seed=args.seed,
        )
        model, (channels, image_size) = build_model(model_spec)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rng = np.random.default_rng(args.seed)
    x = rng.standard_normal((args.batch, channels, image_size, image_size)).astype(
        np.float32
    )

    from repro.autograd import Tensor, no_grad
    from repro.engine import resolve_threads
    from repro.quant import ensure_calibrated

    ensure_calibrated(model, x)  # as compile_served does
    plan = get_cached_plan(model, x.shape, backend=args.backend)
    threads = resolve_threads(args.threads)
    out = plan.run(x, threads=threads)
    engine_ms = measure_plan_ms(
        plan, x, repeats=args.repeats, warmup=2, threads=threads
    )
    print(
        f"{model_spec.name} batch={args.batch} {image_size}x{image_size} "
        f"-> output {out.shape}"
    )
    print(
        f"engine[{args.backend}] threads={threads}: {engine_ms:8.2f} ms/batch "
        f"({1e3 * args.batch / engine_ms:7.1f} img/s), {len(plan)} steps"
    )
    if args.compare:

        def eager():
            with no_grad():
                return model(Tensor(x))

        eager_out = eager().data
        eager_ms = measure_callable_ms(eager, repeats=args.repeats, warmup=2)
        diff = float(np.abs(out - eager_out).max())
        print(
            f"eager:          {eager_ms:8.2f} ms/batch "
            f"({1e3 * args.batch / eager_ms:7.1f} img/s)"
        )
        print(f"speedup: {eager_ms / engine_ms:.2f}x   max|engine - eager| = {diff:.3g}")
    if args.describe:
        print()
        print("\n".join(plan.describe()))
    return 0


def run_compile(args) -> int:
    """The ``repro compile`` subcommand: AOT-compile to a plan artifact.

    The artifact (byte layout in docs/artifact-format.md) is what
    ``repro serve --model <path>`` and its worker processes ``mmap``
    instead of compiling — the compile-then-deploy flow in
    docs/operations.md.
    """
    import json

    from repro.engine.artifact import ArtifactError, read_manifest

    if args.inspect:
        try:
            manifest = read_manifest(args.inspect, verify=True)
        except (OSError, ArtifactError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        plan_info = manifest["plan"]
        tensors = manifest["tensors"]
        summary = {
            "path": args.inspect,
            "format_version": manifest["format"]["version"],
            "model": (manifest.get("extra") or {}).get("model"),
            "seed": (manifest.get("extra") or {}).get("seed"),
            "backend": plan_info["backend"],
            "signature": plan_info["signature"],
            "steps": len(manifest["steps"]),
            "registers": plan_info["num_regs"],
            "input_shape": plan_info["input_shape"],
            "tensors": len(tensors),
            "tensor_bytes": sum(t["nbytes"] for t in tensors),
        }
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0

    if not args.model:
        print("error: a variant name (or --inspect PATH) is required",
              file=sys.stderr)
        return 2
    import time

    from repro.engine import CompileError
    from repro.engine.artifact import save_plan
    from repro.serve.registry import ARCHITECTURES, ModelSpec, compile_served

    try:
        spec = ModelSpec.parse(args.model)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.seed:
        import dataclasses

        spec = dataclasses.replace(spec, seed=args.seed)
    out = args.out or f"{spec.name}.rpln"
    t0 = time.perf_counter()
    try:
        served = compile_served(spec)
    except (ValueError, CompileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    compile_ms = (time.perf_counter() - t0) * 1e3
    channels, size, _ = ARCHITECTURES[spec.architecture]
    try:
        summary = save_plan(
            served.plan,
            out,
            input_shape=(1, channels, size, size),
            extra={"model": spec.name, "seed": spec.seed},
        )
    except ArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"compiled {spec.name} in {compile_ms:.0f} ms -> {out} "
        f"({summary['file_size'] / 1e6:.1f} MB, {summary['tensors']} tensors, "
        f"hash {summary['content_hash'][:12]})"
    )
    print(
        "deploy: repro serve --model "
        f"{out} [--workers N]   (docs/operations.md 'Compile-then-deploy')"
    )
    return 0


def run_serve(args) -> int:
    """The ``repro serve`` subcommand: load variants, serve until ^C.

    SIGTERM triggers the graceful-drain path: stop intake (503 +
    Retry-After), let every in-flight batch finish, optionally flush the
    span buffer (``--drain-trace-out``), then exit 0
    (docs/operations.md 'Overload & incident runbook').
    """
    import asyncio
    import os
    import signal

    from repro.engine import CompileError
    from repro.engine.artifact import ArtifactError
    from repro.serve import (
        AdmissionPolicy,
        BatchPolicy,
        InferenceServer,
        ModelRegistry,
    )

    policy = BatchPolicy(
        max_batch_size=args.max_batch_size,
        max_wait_ms=args.max_wait_ms,
        max_queue=args.max_queue,
        default_deadline_ms=args.deadline_ms,
    )
    admission = AdmissionPolicy(
        tenant_rate=args.tenant_rate, tenant_burst=args.tenant_burst
    )
    chaos = args.chaos if args.chaos is not None else os.environ.get("REPRO_CHAOS")
    if chaos and args.workers <= 0:
        print("error: --chaos needs --workers >= 1", file=sys.stderr)
        return 2
    from repro.serve.autoscale import AutoscalePolicy
    from repro.serve.selfheal import (
        SelfHealPolicy,
        ServeConfigError,
        parse_ladder_spec,
    )

    # Parse ladder specs before touching the registry: a typo must fail
    # at boot with exit 2, not after models compiled.
    ladders = {}
    try:
        for spec_text in args.ladders or []:
            ladder_model, fallbacks = parse_ladder_spec(spec_text)
            if ladder_model in ladders:
                raise ServeConfigError(
                    f"duplicate --ladder for model {ladder_model!r}"
                )
            ladders[ladder_model] = fallbacks
    except ServeConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # With process workers the front-end never compiles: it records the
    # specs (lazy registry) and each worker builds its affinity slice.
    registry = ModelRegistry(lazy=args.workers > 0)
    # Ladder rungs must be servable the instant a brownout steps down,
    # so fallback variants load alongside the primary models.
    ladder_extras = [
        variant
        for chain in ladders.values()
        for variant in chain
    ]
    for name in (args.models or ["resnet18-w0.25-F4-int8"]) + ladder_extras:
        if name in registry:
            continue
        try:
            served = registry.load(name)
        except (ValueError, CompileError, ArtifactError) as exc:
            print(f"error: {exc}", file=sys.stderr)  # bad name, @backend or file
            return 2
        suffix = " (brownout fallback)" if name in ladder_extras else ""
        if served.plan is None:
            print(f"registered {served.name} (compiles in the workers){suffix}")
        else:
            plan = served.plan
            print(
                f"loaded {served.name}: {len(plan)} steps, "
                f"backend={plan.backend}{suffix}"
            )
    selfheal = None
    if (
        args.autoscale
        or ladders
        or args.state_dir
        or args.circuit_threshold is not None
    ):
        autoscale = None
        if args.autoscale:
            try:
                autoscale = AutoscalePolicy(
                    min_replicas=args.autoscale_min,
                    max_replicas=(
                        args.autoscale_max
                        if args.autoscale_max is not None
                        else max(args.workers, 1)
                    ),
                )
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        selfheal = SelfHealPolicy(
            autoscale=autoscale,
            ladders=ladders,
            circuit_threshold=(
                args.circuit_threshold
                if args.circuit_threshold is not None
                else 5
            ),
        )
    from repro.engine import resolve_threads

    threads = resolve_threads(args.threads)
    try:
        server = InferenceServer(
            registry,
            policy=policy,
            host=args.host,
            port=args.port,
            workers=args.workers,
            worker_replicas=args.worker_replicas,
            executor_threads=args.executor_threads,
            threads=threads,
            trace_rate=args.trace_rate,
            admission=admission,
            chaos=chaos,
            selfheal=selfheal,
            state_dir=args.state_dir,
        )
    except ServeConfigError as exc:
        # Typed topology rejection: bad replica/ladder/state-dir wiring
        # dies here, before any socket bind or worker fork.
        print(f"error: {exc}", file=sys.stderr)
        return 2

    async def _run() -> None:
        await server.start()
        mode = (
            f"{server.workers} worker processes, shm transport"
            if server.workers
            else "in-process"
        )
        print(
            f"serving on http://{server.host}:{server.port} "
            f"(max_batch_size={policy.max_batch_size}, "
            f"max_wait_ms={policy.max_wait_ms:g}, {mode}, "
            f"threads={threads})",
            flush=True,
        )
        if chaos:
            print(f"chaos injection active: {chaos}", flush=True)
        if selfheal is not None:
            bits = []
            if selfheal.autoscale is not None:
                bits.append(
                    f"autoscale {selfheal.autoscale.min_replicas}.."
                    f"{selfheal.autoscale.max_replicas}"
                )
            if selfheal.ladders:
                bits.append(f"brownout ladders: {len(selfheal.ladders)}")
            bits.append(f"circuit threshold {selfheal.circuit_threshold}")
            print("self-healing active: " + ", ".join(bits), flush=True)
        if args.state_dir:
            replay = server.journal_replay or {}
            print(
                f"state journal: {args.state_dir} (replayed "
                f"{replay.get('records', 0)} records, restored "
                f"{len(replay.get('deploys_restored') or [])} deploys)",
                flush=True,
            )
        print(
            "endpoints: POST /predict  GET /models /healthz /metrics /trace",
            flush=True,
        )
        sigterm = asyncio.Event()
        loop = asyncio.get_running_loop()
        try:
            loop.add_signal_handler(signal.SIGTERM, sigterm.set)
        except (NotImplementedError, RuntimeError):  # non-POSIX loop
            pass
        serve_task = asyncio.ensure_future(server.serve_forever())
        term_task = asyncio.ensure_future(sigterm.wait())
        try:
            await asyncio.wait(
                {serve_task, term_task}, return_when=asyncio.FIRST_COMPLETED
            )
            if term_task.done():
                print("SIGTERM: draining in-flight requests", flush=True)
                drained = await server.drain(timeout=30.0)
                if args.drain_trace_out:
                    from repro.obs.export import write_chrome_trace

                    spans = server.trace_buffer.snapshot()
                    write_chrome_trace(args.drain_trace_out, spans)
                    print(
                        f"flushed {len(spans)} spans to "
                        f"{args.drain_trace_out}",
                        flush=True,
                    )
                print(
                    "drained cleanly" if drained else
                    "drain timed out; stopping anyway",
                    flush=True,
                )
        finally:
            for task in (serve_task, term_task):
                task.cancel()
            await server.stop()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("\nshutting down")
    return 0


def run_loadgen(args) -> int:
    """The ``repro loadgen`` subcommand: load test a server (or --sweep)."""
    import json

    import numpy as np

    from repro.serve import ServeClient, benchmark_serving, run_load

    if args.overload:
        from repro.serve.loadgen import measure_overload_goodput

        entry = measure_overload_goodput(
            args.model or "resnet18-w0.25-F4-int8@int8",
            workers=args.workers,
            quick=args.quick,
            seed=args.seed,
        )
        ok = entry["expired_executed"] == 0 and entry["unaccounted"] == 0
        if args.out:
            with open(args.out, "w") as fh:
                json.dump({"overload_goodput": entry}, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"overload report written to {args.out}")
        return 0 if ok else 1

    if args.sweep:
        report = benchmark_serving(
            model_name=args.model or "resnet18-w0.25-F4-int8@int8",
            requests_per_level=args.requests,
            workers=args.workers,
            workers_scale=args.workers_scale,
            out_path=args.out or "BENCH_serve.json",
            quick=args.quick,
        )
        ok = report["bit_identical_reference"] and (
            report["bit_identical_workers"] is not False
        )
        return 0 if ok else 1

    if not args.url:
        print("error: --url is required (or use --sweep)", file=sys.stderr)
        return 2
    with ServeClient(args.url) as client:
        info = client.models()["models"]
        if args.model:
            matches = [m for m in info if m["name"] == args.model]
            if not matches:
                loaded = [m["name"] for m in info]
                print(f"error: {args.model!r} not loaded ({loaded})", file=sys.stderr)
                return 2
            target = matches[0]
        elif len(info) == 1:
            target = info[0]
        else:
            loaded = [m["name"] for m in info]
            print(f"error: choose --model from {loaded}", file=sys.stderr)
            return 2
    samples = (
        np.random.default_rng(0)
        .standard_normal((32, *target["sample_shape"]))
        .astype(np.float32)
    )
    if args.open_loop is not None:
        from repro.serve.loadgen import run_open_loop

        stats = run_open_loop(
            args.url,
            target["name"],
            samples,
            rate_rps=args.open_loop,
            duration_s=args.duration,
            classes=[
                {
                    "name": args.priority or "standard",
                    "priority": args.priority or "standard",
                    "deadline_ms": args.deadline_ms,
                    "tenant": args.tenant,
                }
            ],
            seed=args.seed,
        )
    else:
        stats = run_load(
            args.url,
            target["name"],
            samples,
            concurrency=args.concurrency,
            total_requests=args.requests,
            deadline_ms=args.deadline_ms,
        )
    print(json.dumps(stats, indent=2, sort_keys=True))
    if args.dump_slowest:
        from repro.serve.loadgen import dump_slowest

        dump = dump_slowest(
            args.url, stats, args.dump_slowest, args.dump_out
        )
        traced = sum(
            1 for e in dump["slowest"] if e.get("span_count")
        )
        print(
            f"dumped span trees of {len(dump['slowest'])} slowest "
            f"requests ({traced} with spans) to {args.dump_out}",
            file=sys.stderr,
        )
    return 0


def run_profile(args) -> int:
    """The ``repro profile`` subcommand: traced per-step latency table.

    The per-layer breakdown reproduces the shape of the paper's Figure 8
    (where each Winograd layer's latency is compared across variants);
    ``--backends a,b`` prints the side-by-side diff.  Columns and span
    semantics: docs/observability.md ('Profiling a plan').
    """
    import dataclasses
    import json

    import numpy as np

    from repro.engine import CompileError, resolve_threads
    from repro.obs.profile import (
        diff_profile_table,
        format_profile_table,
        profile_plan,
    )
    from repro.serve.registry import ModelSpec, compile_served

    try:
        spec = ModelSpec.parse(args.model)
    except ValueError:
        try:  # allow precision-less names: resnet18-w0.25-F4 -> fp32
            spec = ModelSpec.parse(args.model + "-fp32")
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.seed:
        spec = dataclasses.replace(spec, seed=args.seed)
    backends = [
        b.strip() for b in (args.backends or "").split(",") if b.strip()
    ] or [spec.backend]
    threads = resolve_threads(args.threads)
    rng = np.random.default_rng(args.seed)
    x = rng.standard_normal(
        (args.batch,) + spec.sample_shape
    ).astype(np.float32)

    profiles = {}
    for backend in backends:
        try:
            served = compile_served(
                dataclasses.replace(spec, backend=backend)
            )
        except (ValueError, CompileError) as exc:
            print(f"error: backend {backend!r}: {exc}", file=sys.stderr)
            return 2
        profiles[backend] = profile_plan(
            served.plan, x, repeats=args.repeats, threads=threads
        )

    if len(profiles) == 1:
        print(f"{spec.name} batch={args.batch} threads={threads}")
        print(format_profile_table(next(iter(profiles.values()))))
    else:
        for backend, prof in profiles.items():
            print(f"--- {spec.name}@{backend} "
                  f"batch={args.batch} threads={threads}")
            print(format_profile_table(prof))
            print()
        print("--- per-step diff (ms)")
        print(diff_profile_table(profiles))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(profiles, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"profile written to {args.out}")
    return 0


def run_trace(args) -> int:
    """The ``repro trace`` subcommand: export Chrome trace-event JSON.

    With ``--url`` it drains a running server's span buffer; without, it
    starts a fully-traced (``trace_rate=1.0``) throwaway server on an
    ephemeral port, fires ``--requests`` requests, and exports those —
    the one-command way to get a Perfetto-loadable file covering
    queue → batch → (shm → worker →) kernel (docs/observability.md).
    """
    import json

    from repro.obs.export import validate_chrome_trace

    def fetch_and_write(base_url: str) -> int:
        from repro.serve.client import ServeClient, ServeError

        with ServeClient(base_url) as client:
            try:
                doc = client.trace(
                    request_id=args.request_id, format="chrome"
                )
            except ServeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        problems = validate_chrome_trace(doc)
        if problems:
            print(
                f"error: invalid trace document: {problems[:3]}",
                file=sys.stderr,
            )
            return 1
        with open(args.export, "w") as fh:
            json.dump(doc, fh)
            fh.write("\n")
        events = doc["traceEvents"]
        procs = sorted(
            {e["args"]["name"] for e in events
             if e.get("ph") == "M" and e.get("name") == "process_name"}
        )
        print(
            f"wrote {args.export}: {len(events)} events across "
            f"processes {procs} — open at https://ui.perfetto.dev "
            f"(docs/observability.md 'Exporting to Perfetto')"
        )
        return 0

    if args.url:
        return fetch_and_write(args.url)

    # Self-contained mode: serve, fire, export, tear down.
    import numpy as np

    from repro.engine import CompileError
    from repro.serve import BatchPolicy, ModelRegistry
    from repro.serve.client import ServeClient, wait_until_ready
    from repro.serve.server import start_in_background

    registry = ModelRegistry(lazy=args.workers > 0)
    try:
        served = registry.load(args.model)
    except (ValueError, CompileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    policy = BatchPolicy(max_batch_size=4, max_wait_ms=5.0)
    handle = start_in_background(
        registry, policy=policy, port=0, workers=args.workers,
        worker_replicas=args.workers or None, trace_rate=1.0,
    )
    try:
        wait_until_ready(handle.base_url)
        shape = served.sample_shape
        rng = np.random.default_rng(0)
        with ServeClient(handle.base_url) as client:
            for i in range(max(1, args.requests)):
                x = rng.standard_normal(shape).astype(np.float32)
                client.predict_raw(
                    x, model=served.name, request_id=f"trace-{i}"
                )
        return fetch_and_write(handle.base_url)
    finally:
        handle.stop()


def run_bench(args) -> int:
    """The ``repro bench`` subcommand: run a registered benchmark."""
    import json

    from repro.bench import BENCHMARKS, run_benchmark

    if args.name == "list":
        for name, (_, description) in sorted(BENCHMARKS.items()):
            print(f"{name:12s} {description}")
        return 0
    if args.name not in BENCHMARKS:
        print(
            f"error: unknown benchmark {args.name!r}; "
            f"choose from {sorted(BENCHMARKS)} (or 'list')",
            file=sys.stderr,
        )
        return 2
    report = run_benchmark(
        args.name,
        out=args.out,
        quick=args.quick,
        seed=args.seed,
        threads=args.threads,
    )
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "infer":
        return run_infer(args)
    if args.command == "compile":
        return run_compile(args)
    if args.command == "bench":
        return run_bench(args)
    if args.command == "profile":
        return run_profile(args)
    if args.command == "trace":
        return run_trace(args)
    if args.command == "serve":
        return run_serve(args)
    if args.command == "loadgen":
        return run_loadgen(args)
    if args.command == "list":
        for name in EXPERIMENTS:
            module = importlib.import_module(f"repro.experiments.{name}")
            doc = (module.__doc__ or "").strip().splitlines()[0]
            print(f"{name:28s} {doc}")
        return 0

    module = importlib.import_module(f"repro.experiments.{args.experiment}")
    kwargs = {"scale": args.scale, "seed": args.seed}
    if "verbose" in module.run.__code__.co_varnames:
        kwargs["verbose"] = args.verbose
    report = module.run(**kwargs)
    text = report.format()
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"\nreport written to {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
