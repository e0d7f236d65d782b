"""Registered benchmarks, runnable by name via ``repro bench <name>``.

Each benchmark is a callable returning a JSON-serialisable report and
writing it to its ``BENCH_*.json`` file at the repo root (or ``--out``),
so perf trajectories are tracked across PRs and CI can diff a fresh run
against the committed baseline (``benchmarks/check_bench_regression.py``).

* ``engine`` — compiled-engine vs eager forward on the smoke workloads,
  including the native ``int8`` backend column (writes ``BENCH_engine.json``);
* ``serve``  — dynamic-batching serving policy sweep (writes
  ``BENCH_serve.json``).
"""

from __future__ import annotations

import json
import pathlib
from typing import Callable, Dict, Optional

#: name -> (runner, description).  A runner takes (out_path, quick, seed,
#: threads) and returns the report dict it wrote.
BENCHMARKS: Dict[str, tuple] = {}


def register_benchmark(name: str, description: str):
    def decorator(fn: Callable) -> Callable:
        BENCHMARKS[name] = (fn, description)
        return fn

    return decorator


def run_benchmark(
    name: str,
    out: Optional[str] = None,
    quick: bool = False,
    seed: int = 0,
    threads: Optional[int] = None,
) -> dict:
    if name not in BENCHMARKS:
        raise KeyError(
            f"unknown benchmark {name!r}; registered: {sorted(BENCHMARKS)}"
        )
    runner, _ = BENCHMARKS[name]
    return runner(out_path=out, quick=quick, seed=seed, threads=threads)


def _engine_workloads(seed: int):
    """Smoke models for the engine-vs-eager comparison (one fp32 and one
    int8 variant of the batched ResNet workload, so the int8-vs-fp32
    anomaly check compares like against like)."""
    import numpy as np

    from repro.models.common import ConvSpec
    from repro.models.lenet import lenet
    from repro.models.resnet import resnet18
    from repro.quant.qconfig import int8

    rng = np.random.default_rng(seed)
    return {
        "lenet-F2": (
            lenet(spec=ConvSpec("F2")),
            rng.standard_normal((16, 1, 28, 28)).astype(np.float32),
        ),
        "resnet18-w0.25-F4": (
            resnet18(width_multiplier=0.25, spec=ConvSpec("F4")),
            rng.standard_normal((8, 3, 32, 32)).astype(np.float32),
        ),
        "resnet18-w0.25-F4-int8": (
            resnet18(width_multiplier=0.25, spec=ConvSpec("F4", int8())),
            rng.standard_normal((8, 3, 32, 32)).astype(np.float32),
        ),
    }


@register_benchmark("engine", "compiled engine vs eager forward (BENCH_engine.json)")
def run_engine_benchmark(
    out_path: Optional[str] = None,
    quick: bool = False,
    seed: int = 0,
    threads: Optional[int] = None,
) -> dict:
    """Engine-vs-eager speedups across backends, persisted as JSON.

    Quantized workloads get a native ``int8`` backend column next to
    ``fast``; the report records whether the int8 anomaly is
    inverted (int8 on its native backend beating fp32 on ``fast``).

    Per-workload rows are measured at ``threads=1`` (and say so), so the
    speedup columns stay comparable across hosts and PRs regardless of
    core count.  The parallel executor is measured separately in the
    ``threaded_speedup`` entry: the ResNet ``fast`` and ``int8`` plans
    at ``threads=1`` vs ``threads=N`` (``threads`` argument /
    ``--threads`` / ``REPRO_THREADS``, default all cores), alongside
    ``cpu_count`` and the memory planner's allocation stats so the
    zero-allocation contract is tracked in the same artifact.

    The ``trace_overhead`` entry pins the observability contract:
    ``run`` with tracing disabled within budget of the executor loop
    called with no tracer (the pristine leg), enforced by the
    ``trace_overhead`` row of ``benchmarks/check_bench_regression.py``
    (docs/observability.md 'Overhead budget').
    """
    import os

    import numpy as np

    from repro.autograd import Tensor, no_grad
    from repro.engine import compile_model, measure_callable_ms, measure_plan_ms
    from repro.engine.pool import THREADS_ENV_VAR, resolve_threads

    repeats = 3 if quick else 7
    warmup = 1 if quick else 2
    # Threaded-speedup thread count: explicit argument > REPRO_THREADS >
    # all cores (the documented chain; the per-workload rows below are
    # always threads=1 regardless).
    if threads is not None:
        n_threads = resolve_threads(threads)
    elif os.environ.get(THREADS_ENV_VAR, "").strip():
        n_threads = resolve_threads(None)
    else:
        n_threads = resolve_threads(0)
    workloads = _engine_workloads(seed)
    for model, x in workloads.values():
        model.eval()
        with no_grad():  # warm quantizer observers so plans freeze ranges
            model(Tensor(x))

    summary = []
    plans = {}
    for name, (model, x) in workloads.items():
        quantized = name.endswith("int8")

        def eager():
            with no_grad():
                return model(Tensor(x))

        row = {
            "workload": name,
            "batch": int(x.shape[0]),
            "threads": 1,
            "eager_ms": round(measure_callable_ms(eager, repeats=repeats, warmup=warmup), 3),
        }
        backends = ("fast", "reference") + (("int8",) if quantized else ())
        for backend in backends:
            plan = compile_model(model, backend=backend)
            plans[(name, backend)] = (plan, x)
            ms = measure_plan_ms(plan, x, repeats=repeats, warmup=warmup, threads=1)
            row[f"engine_{backend}_ms"] = round(ms, 3)
            row[f"speedup_{backend}"] = round(row["eager_ms"] / ms, 3)
        summary.append(row)

    fp32_row = next(r for r in summary if r["workload"] == "resnet18-w0.25-F4")
    int8_row = next(r for r in summary if r["workload"] == "resnet18-w0.25-F4-int8")

    # Parallel executor: threads=1 vs threads=N on the serving-shaped
    # workloads the acceptance contract names.  With only one thread to
    # measure (1-core host and no override) the "speedup" would be two
    # identical measurements' noise, so the entry is omitted — the
    # regression guard skips absent entries.
    threaded = None
    if n_threads > 1:
        threaded = {"threads": n_threads, "workloads": {}}
        for name, backend in (
            ("resnet18-w0.25-F4", "fast"),
            ("resnet18-w0.25-F4-int8", "int8"),
        ):
            plan, x = plans[(name, backend)]
            ms_1 = measure_plan_ms(plan, x, repeats=repeats, warmup=warmup, threads=1)
            ms_n = measure_plan_ms(
                plan, x, repeats=repeats, warmup=warmup, threads=n_threads
            )
            threaded["workloads"][f"{name}@{backend}"] = {
                "ms_threads_1": round(ms_1, 3),
                "ms_threads_n": round(ms_n, 3),
                "speedup": round(ms_1 / ms_n, 3),
            }

    fast_plan, fast_x = plans[("resnet18-w0.25-F4", "fast")]

    # Tracing-off overhead gate: the public ``run`` with tracing
    # disabled must stay within budget of the executor loop it
    # dispatches to, called directly with no tracer (``_execute(x, 1, None)``).
    # The three legs are timed interleaved, min-of-N per leg: scheduler
    # interference only ever slows a leg, so interleaved minima compare
    # the same quiet-host conditions instead of whichever leg ran during
    # a noisy stretch.  The traced leg is informational (not gated).
    import time as _time

    from repro.obs import trace as obs_trace

    overhead_rounds = 15 if quick else 40
    saved_tracer = obs_trace.active_tracer()
    obs_trace.disable()  # the "disabled" leg must see no ambient tracer
    try:
        buf = obs_trace.TraceBuffer()
        for _ in range(max(1, warmup)):
            fast_plan._execute(fast_x, 1, None)
            fast_plan.run(fast_x, threads=1)
            fast_plan.run(fast_x, threads=1, trace=buf)
        best = {"pristine": float("inf"), "disabled": float("inf"),
                "enabled": float("inf")}
        for _ in range(overhead_rounds):
            t0 = _time.perf_counter()
            fast_plan._execute(fast_x, 1, None)
            best["pristine"] = min(best["pristine"], _time.perf_counter() - t0)
            t0 = _time.perf_counter()
            fast_plan.run(fast_x, threads=1)
            best["disabled"] = min(best["disabled"], _time.perf_counter() - t0)
            buf.clear()
            t0 = _time.perf_counter()
            fast_plan.run(fast_x, threads=1, trace=buf)
            best["enabled"] = min(best["enabled"], _time.perf_counter() - t0)
    finally:
        if saved_tracer is not None:
            obs_trace.enable(saved_tracer)
    trace_overhead = {
        "workload": "resnet18-w0.25-F4@fast",
        "repeats": overhead_rounds,
        "ms_pristine": round(best["pristine"] * 1e3, 4),
        "ms_disabled": round(best["disabled"] * 1e3, 4),
        "ms_enabled": round(best["enabled"] * 1e3, 4),
        "overhead_disabled_pct": round(
            100.0 * (best["disabled"] / best["pristine"] - 1.0), 3
        ),
        "overhead_enabled_pct": round(
            100.0 * (best["enabled"] / best["pristine"] - 1.0), 3
        ),
    }

    memory = fast_plan.memory_report(batch=int(fp32_row["batch"]))
    report = {
        "benchmark": "bench_engine_vs_eager",
        "threads": 1,  # thread count of the per-workload rows
        "cpu_count": os.cpu_count() or 1,
        "results": summary,
        "int8_anomaly": {
            "fp32_fast_ms": fp32_row["engine_fast_ms"],
            "int8_fast_ms": int8_row["engine_fast_ms"],
            "int8_native_ms": int8_row["engine_int8_ms"],
            "inverted": int8_row["engine_int8_ms"] < fp32_row["engine_fast_ms"],
        },
        "threaded_speedup": threaded,
        "trace_overhead": trace_overhead,
        "memory": {
            "workload": "resnet18-w0.25-F4@fast",
            "steady_state_allocations": memory["steady_state_allocations"],
            "allocations_eliminated": memory["allocations_eliminated"],
            "arena_bytes": memory["arena_bytes"],
            "planned_shapes": memory["planned_shapes"],
        },
    }
    path = pathlib.Path(out_path) if out_path else _repo_root() / "BENCH_engine.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    return report


@register_benchmark("serve", "dynamic-batching serving policy sweep (BENCH_serve.json)")
def run_serve_benchmark(
    out_path: Optional[str] = None,
    quick: bool = False,
    seed: int = 0,
    threads: Optional[int] = None,
) -> dict:
    """``seed``/``threads`` are accepted for runner-signature uniformity
    but unused: the sweep's model/load seeds are fixed by the served
    ModelSpec, and its servers run at the REPRO_THREADS default."""
    from repro.serve import benchmark_serving

    return benchmark_serving(
        out_path=out_path or str(_repo_root() / "BENCH_serve.json"),
        quick=quick,
    )


def _repo_root() -> pathlib.Path:
    """Repo root when run from a checkout; cwd otherwise."""
    here = pathlib.Path(__file__).resolve()
    for parent in here.parents:
        if (parent / "pytest.ini").exists() or (parent / ".git").exists():
            return parent
    return pathlib.Path.cwd()
