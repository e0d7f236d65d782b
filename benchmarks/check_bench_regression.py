#!/usr/bin/env python
"""Benchmark-regression guard: a fresh BENCH_*.json report vs the committed one.

Every gate is one row of :data:`RULES`, and one evaluator applies them
all to engine (``BENCH_engine.json``) and serve (``BENCH_serve.json``)
reports alike; a row whose entry a report does not carry is simply not
applied.  A row names:

* ``entry`` and ``field`` — ``/``-separated paths, the field relative to
  the entry (``""`` is the report root).  ``*`` and ``speedup_*`` match
  keys by glob, ``>=16`` every numeric key of at least 16; list items
  (the ``results`` rows) are addressed by their ``workload``;
* ``op`` and ``limit`` — the comparator, and a number, :data:`BASELINE`
  (the same field of the committed report) or the path of a sibling
  field of the fresh entry.  ``tolerant`` rows loosen the limit by
  ``--tolerance`` (a floor for ``>``/``>=``, a ceiling for ``<``/``<=``);
* skip conditions — ``quick`` (a quick report, either side), ``cores``
  (``(cores per unit, unit key)``: a host with fewer cores, either
  side) and ``same`` (keys such as ``threads`` that must match between
  the baseline and fresh entries);
* ``disappeared`` — the entry (and, for :data:`BASELINE` rows, the
  field) vanishing after the baseline carried it is a failure;
  ``required`` — a missing field or sibling limit fails instead of
  skipping the row.

Host keys (``quick``, ``cpu_count``, ``threads``, ``workers``) are read
from the entry, falling back to the report root.

Usage (CI)::

    cp BENCH_engine.json /tmp/bench_baseline.json   # before re-running
    ... run the benchmark (rewrites BENCH_engine.json) ...
    python benchmarks/check_bench_regression.py \
        --baseline /tmp/bench_baseline.json --fresh BENCH_engine.json

Benchmarks gate their own fresh report with ``check({}, report)``: with
no baseline only the absolute rows apply.
"""

import argparse
import fnmatch
import json
import operator
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

#: Default allowed fractional slack of every ``tolerant`` row.
TOLERANCE = 0.25

#: ``limit`` of rows that hold a field to its value in the committed report.
BASELINE = "<baseline>"

#: A multi-process serving row applies only with this many cores per worker.
PER_WORKER = (2, "workers")

OPS = {
    ">=": operator.ge,
    ">": operator.gt,
    "<=": operator.le,
    "<": operator.lt,
    "==": operator.eq,
}


@dataclass(frozen=True)
class Rule:
    id: str
    entry: str
    field: str
    op: str
    limit: object
    what: str = ""
    unit: str = ""
    tolerant: bool = False
    required: bool = False
    disappeared: bool = False
    quick: bool = False
    cores: Optional[Tuple[int, str]] = None
    same: Tuple[str, ...] = ()
    agg: Optional[Callable] = None


RULES = (
    # -- engine reports: BENCH_engine.json ----------------------------------
    Rule("speedup", "results/*", "speedup_*", ">=", BASELINE,
         tolerant=True, disappeared=True, same=("threads",)),
    Rule("engine_vs_eager", "results/resnet18-w0.25-F4", "speedup_fast", ">=", 1.2,
         unit="x", what="compiled fast plan no longer clearly beats eager"),
    Rule("threaded_speedup", "threaded_speedup", "workloads/*/speedup", ">=", BASELINE,
         tolerant=True, disappeared=True, cores=(1, "threads"), same=("threads",)),
    Rule("int8_anomaly", "int8_anomaly", "int8_native_ms", "<=", "fp32_fast_ms",
         unit=" ms", tolerant=True, required=True,
         what="int8 anomaly regressed: native int8 slower than fp32-fast"),
    Rule("int8_native_vs_fast", "int8_anomaly", "int8_native_ms", "<", "int8_fast_ms",
         unit=" ms", required=True, what="native int8 slower than int8 on fast"),
    Rule("memory_allocations", "memory", "steady_state_allocations", "==", 0,
         what="memory planner regressed: steady-state arena allocations"),
    Rule("trace_overhead", "trace_overhead", "overhead_disabled_pct", "<=", 1.0,
         unit="%", required=True, disappeared=True,
         what="tracing-off overhead of plan.run over the pristine loop"),
    # -- serve reports: BENCH_serve.json ------------------------------------
    Rule("bit_identical_reference", "", "bit_identical_reference", "==", True,
         what="served responses NOT bit-identical to direct plan.run (reference)"),
    Rule("bit_identical_workers", "", "bit_identical_workers", "==", True,
         what="workers-mode responses NOT bit-identical to the reference oracle"),
    Rule("dynamic_batching", "speedup_dynamic_over_batch1", ">=16", ">=", 1.5,
         unit="x", agg=max, required=True, quick=True,
         what="dynamic batching over batch-1 at its best high-concurrency point"),
    Rule("workers_speedup", "workers_scaling", "speedup", ">=", 1.3,
         unit="x", quick=True, cores=PER_WORKER,
         what="multi-process serving over single-process at top concurrency"),
    Rule("workers_speedup_regression", "workers_scaling", "speedup", ">=", BASELINE,
         tolerant=True, quick=True, cores=PER_WORKER, same=("workers",)),
    Rule("artifact_bit_identical", "artifact_cold_start", "bit_identical", "==", True,
         disappeared=True,
         what="artifact-loaded plan NOT bit-identical to the compiled plan"),
    Rule("artifact_speedup", "artifact_cold_start", "speedup", ">=", 10.0,
         unit="x", disappeared=True, what="mmap cold start vs compile-from-scratch"),
    Rule("hot_swap_drops", "artifact_cold_start", "hot_swap/requests_failed", "==", 0,
         disappeared=True, what="blue/green hot-swap dropped requests"),
    Rule("overload_expired_executed", "overload_goodput", "expired_executed", "==", 0,
         disappeared=True, what="expired (504) requests were still executed"),
    Rule("overload_unaccounted", "overload_goodput", "unaccounted", "==", 0,
         disappeared=True, what="overload requests vanished without an outcome"),
    Rule("overload_goodput", "overload_goodput", "goodput_rps", ">", 0,
         unit=" rps", required=True, disappeared=True,
         what="goodput under 2x overload"),
    Rule("overload_tight_p99", "overload_goodput", "tight/p99_ms", "<=",
         "tight/deadline_ms", unit=" ms", quick=True,
         what="tight-class p99 exceeds its deadline under 2x overload"),
    Rule("overload_goodput_ratio", "overload_goodput", "goodput_ratio", ">=", BASELINE,
         tolerant=True, quick=True),
    Rule("selfheal_expired_executed", "selfheal_goodput", "*/expired_executed", "==", 0,
         disappeared=True, what="expired (504) requests were executed under chaos"),
    Rule("selfheal_unaccounted", "selfheal_goodput", "*/unaccounted", "==", 0,
         disappeared=True, what="requests vanished under chaos (silent drop)"),
    Rule("recovery_versions", "selfheal_goodput", "recovery/versions_match", "==",
         True, required=True, disappeared=True,
         what="kill -9 recovery: model versions differ from pre-kill"),
    Rule("recovery_responses", "selfheal_goodput", "recovery/response_identical",
         "==", True, required=True, disappeared=True,
         what="kill -9 recovery: responses not bit-identical to pre-kill"),
    Rule("recovery_replayed", "selfheal_goodput", "recovery/recovered", "==", True,
         required=True, disappeared=True,
         what="kill -9 recovery: journal replay did not restore the deploy"),
    Rule("selfheal_improvement", "selfheal_goodput", "goodput_improvement", ">", 1.0,
         unit="x", required=True, quick=True,
         what="self-healing goodput over the static baseline"),
)


def _keys(node, pattern: str) -> list:
    if isinstance(node, list):
        keys = [r.get("workload") for r in node if isinstance(r, dict)]
    elif isinstance(node, dict):
        keys = list(node)
    else:
        return []
    keys = [k for k in keys if isinstance(k, str)]
    if pattern.startswith(">="):
        return [k for k in keys if k.isdigit() and int(k) >= int(pattern[2:])]
    return fnmatch.filter(keys, pattern)


def _expand(node, path: str) -> list:
    """Concrete key tuples for ``path``: wildcard segments expand over the
    keys ``node`` has, literal segments pass through even when missing."""
    paths = [()]
    for seg in filter(None, path.split("/")):
        if "*" in seg or seg.startswith(">="):
            paths = [p + (k,) for p in paths for k in _keys(_get(node, p), seg)]
        else:
            paths = [p + (seg,) for p in paths]
    return paths


def _get(node, path):
    if isinstance(path, str):
        path = tuple(filter(None, path.split("/")))
    for key in path:
        if isinstance(node, list):
            node = next((r for r in node
                         if isinstance(r, dict) and r.get("workload") == key), None)
        elif isinstance(node, dict):
            node = node.get(key)
        else:
            return None
    return node


def _attr(entry, report, key: str, default):
    for node in (entry, report):
        if isinstance(node, dict) and key in node:
            return node[key]
    return default


def _skip_reason(rule: Rule, base, new, baseline: dict, fresh: dict) -> Optional[str]:
    # A gone fresh entry is sized by the baseline's (e.g. its threads).
    sides = [(new or base, fresh)]
    if rule.limit is BASELINE:
        sides.append((base, baseline))
    for entry, report in sides:
        if rule.quick and _attr(entry, report, "quick", False):
            return "quick report"
        if rule.cores:
            per_unit, key = rule.cores
            units = int(_attr(entry, report, key, 0) or 0)
            cpu = int(_attr(entry, report, "cpu_count", 1) or 1)
            if units < 1 or cpu < per_unit * units:
                return f"host has {cpu} cores for {key}={units}"
    for key in rule.same if base and new else ():
        b, f = _attr(base, baseline, key, 1), _attr(new, fresh, key, 1)
        if b != f:
            return f"baseline {key}={b}, fresh {key}={f}"
    return None


def _fmt(value, unit: str = "") -> str:
    return f"{round(value, 3) if isinstance(value, float) else value}{unit}"


def _apply(rule: Rule, baseline: dict, fresh: dict, tolerance: float,
           failures: list, gone: set) -> None:
    relative = rule.limit is BASELINE
    for path in dict.fromkeys(_expand(baseline, rule.entry) + _expand(fresh, rule.entry)):
        base, new = _get(baseline, path), _get(fresh, path)
        if (relative and not base) or (not new and not (base and rule.disappeared)):
            continue
        reason = _skip_reason(rule, base, new, baseline, fresh)
        if reason:
            where = "/".join(path) or "report"
            print(f"note: skipping {rule.id} comparison on {where} ({reason})")
            continue
        if not new:
            gone.add("/".join(path))
            continue
        values = [(f, _get(new, f)) for f in _expand(base if relative else new, rule.field)]
        if rule.agg:
            present = [v for _, v in values if v is not None]
            values = [((rule.field,), rule.agg(present) if present else None)]
        for field, value in values:
            at = "/".join(path + field)
            ref = (_get(base, field) if relative
                   else _get(new, rule.limit) if isinstance(rule.limit, str)
                   else rule.limit)
            if value is None or ref is None:
                if relative and rule.disappeared and ref is not None:
                    gone.add(at)
                elif rule.required:
                    missing = at if value is None else "/".join(path + (rule.limit,))
                    failures.append(f"[{rule.id}] {rule.what}: {missing} is missing")
                continue
            limit = ref
            if rule.tolerant:
                limit = ref * (1.0 - tolerance if ">" in rule.op else 1.0 + tolerance)
            if OPS[rule.op](value, limit):
                continue
            if relative:
                bound = "floor" if ">" in rule.op else "ceiling"
                failures.append(f"[{rule.id}] {at} regressed {_fmt(ref)} -> "
                                f"{_fmt(value)} ({bound} {_fmt(limit)})")
            else:
                strict = "strictly " if len(rule.op) == 1 else ""
                source = f", from {rule.limit}" if isinstance(rule.limit, str) else ""
                failures.append(
                    f"[{rule.id}] {rule.what}: {at} = {_fmt(value, rule.unit)} "
                    f"(must be {strict}{rule.op} {_fmt(limit, rule.unit)}{source})"
                )


def check(baseline: dict, fresh: dict, tolerance: float = TOLERANCE) -> list:
    """Failure messages of every :data:`RULES` row on ``fresh`` vs ``baseline``."""
    failures: list = []
    gone: set = set()
    for rule in RULES:
        _apply(rule, baseline, fresh, tolerance, failures, gone)
    return [f"{path} entry disappeared from the fresh report"
            for path in sorted(gone)] + failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True, help="committed BENCH_*.json")
    parser.add_argument("--fresh", required=True, help="freshly measured report")
    parser.add_argument(
        "--tolerance", type=float, default=TOLERANCE,
        help=f"allowed fractional slack of tolerant rows (default {TOLERANCE})",
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
    print(f"benchmark guard ok ({len(RULES)} rules, {len(workloads)} workloads, "
          f"tolerance {args.tolerance:.0%}): {', '.join(workloads)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
