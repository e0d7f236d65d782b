"""Shared helpers: thread pinning, host record, percentiles, result line."""

from __future__ import annotations

import contextlib
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

#: Repository root (the checkout the benchmark runs from).
ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for artifacts and server logs; removed after each run.
WORK_ROOT = ROOT / ".e2ebench"

#: The engine and the BLAS each run one thread: a 2-core shared host
#: cannot give a steady threaded number (the engine pool goes unmeasured).
PINNED_ENV = {
    "REPRO_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: A request or batch answered later than this misses the latency limit.
LATENCY_LIMIT_MS = 50.0

#: End-to-end latencies are reported at this percentile.  Neighbours on
#: the shared 2-vCPU host slow every call by ~1.3-1.5x for a share of each
#: run that differs from run to run, so per-call times are bimodal: the
#: median sits where the two modes meet and swings by the whole factor
#: between runs (IQR/median 0.39-0.46 over 8 runs), while the 10th
#: percentile stays in the uncontended mode (0.08-0.10).
LATENCY_Q = 10.0

def quantiles_note(name: str, values: Sequence[float]) -> str:
    """One stderr line with a latency list's size, p10, p50 and p90."""
    qs = " ".join(f"p{q:g} {percentile(values, q):.3f}" for q in (10, 50, 90))
    return f"  {name}: {len(values)} samples, {qs} ms"


def pin_threads() -> None:
    """Apply :data:`PINNED_ENV`; must run before NumPy is imported."""
    os.environ.update(PINNED_ENV)


def import_repro() -> None:
    """Put the checkout's ``src`` on the path, or fail the run."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no repro package under {src}")
    sys.path.insert(0, str(src))


@contextlib.contextmanager
def scratch_dir(tag: str):
    """A per-run directory under :data:`WORK_ROOT`, removed afterwards
    (and :data:`WORK_ROOT` with it once no other run uses it)."""
    path = WORK_ROOT / f"{tag}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield str(path)
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run is using it
            pass


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
        os.cpu_count() or 1
    )


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str:
    """HEAD's commit id read from ``.git`` directly (no git binary);
    ``unknown`` in an exported checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_record(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Host and settings every result is reported with."""
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):  # older NumPy has no dict mode
        blas = {"name": "unknown"}
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in PINNED_ENV},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
    }


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (NumPy's default method)."""
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def supported_percentile(n: int) -> Optional[float]:
    """The highest of the usual tail percentiles with >= 10 samples beyond."""
    for q in (99.0, 98.0, 97.5, 95.0, 90.0, 75.0, 50.0):
        if n * (100.0 - q) / 100.0 >= 10:
            return q
    return None


def tail_note(name: str, n: int, q: float) -> str:
    """One stderr line stating a tail figure's sample count and support."""
    best = supported_percentile(n)
    ok = best is not None and best >= q
    return (
        f"  {name}: p{q:g} over {n} samples "
        f"({'supported' if ok else 'UNDER-SAMPLED'}; highest with 10 "
        f"beyond: p{best if best is not None else 0:g})"
    )


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Sum of the peak resident set (VmHWM) of ``pids``, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def emit(
    host: dict,
    correct: bool,
    attempted: int,
    failed: int,
    metrics: Dict[str, dict],
    declared: List[dict],
) -> int:
    """Print the settings line, then the result as the last stdout line.

    Returns the exit code: 1 when a correctness check failed or the
    metrics differ from ``declared`` (names and units from BENCHMARK.json).
    """
    want = {d["name"]: d["unit"] for d in declared}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != want:
        log(f"error: metrics differ from BENCHMARK.json: "
            f"{sorted(set(got.items()) ^ set(want.items()))}")
        correct = False
    print(json.dumps({"settings": host}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": {name: metrics[name] for name in want if name in metrics},
            }
        ),
        flush=True,
    )
    return 0 if correct else 1
