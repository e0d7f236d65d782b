"""The benchmark-regression guard's like-for-like thread comparison.

``check_bench_regression.py`` gates CI on the committed
``BENCH_engine.json``; with the parallel executor the rule is: speedups
only compare between reports measured at the same engine thread count
(and threaded speedups additionally need enough cores on the fresh
host), while the zero-allocation contract holds unconditionally.
"""

import importlib.util
import pathlib

_SPEC = importlib.util.spec_from_file_location(
    "check_bench_regression",
    pathlib.Path(__file__).resolve().parents[2]
    / "benchmarks"
    / "check_bench_regression.py",
)
guard = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(guard)


def _report(threads=1, speedup=3.0, cpu=4, t_speedup=2.0, t_threads=4, ssa=0):
    return {
        "threads": threads,
        "cpu_count": cpu,
        "results": [
            {"workload": "w", "threads": threads, "speedup_fast": speedup}
        ],
        "threaded_speedup": {
            "threads": t_threads,
            "workloads": {"w@fast": {"speedup": t_speedup}},
        },
        "memory": {"workload": "w@fast", "steady_state_allocations": ssa},
    }


def test_same_thread_count_regression_detected():
    failures = guard.check(_report(speedup=3.0), _report(speedup=2.0), 0.25)
    assert any("speedup_fast regressed" in f for f in failures)


def test_mismatched_thread_counts_are_skipped(capsys):
    failures = guard.check(
        _report(threads=1, speedup=3.0), _report(threads=2, speedup=1.0), 0.25
    )
    assert failures == []
    assert "skipping speedup comparison" in capsys.readouterr().out


def test_threaded_speedup_regression_detected():
    failures = guard.check(
        _report(t_speedup=2.0), _report(t_speedup=1.0), 0.25
    )
    assert any("threaded_speedup" in f for f in failures)


def test_threaded_entry_disappearing_on_capable_host_fails():
    fresh = _report()
    fresh["threaded_speedup"] = None  # bench thread resolution broke
    failures = guard.check(_report(), fresh, 0.25)
    assert any("disappeared" in f for f in failures)


def test_threaded_entry_absent_on_single_core_host_is_skipped(capsys):
    fresh = _report(cpu=1)
    fresh["threaded_speedup"] = None  # 1-core host: legitimately omitted
    assert guard.check(_report(), fresh, 0.25) == []
    assert "skipping threaded_speedup" in capsys.readouterr().out


def test_threaded_speedup_skipped_on_small_host(capsys):
    failures = guard.check(
        _report(t_speedup=2.0), _report(t_speedup=1.0, cpu=1), 0.25
    )
    assert failures == []
    assert "skipping threaded_speedup" in capsys.readouterr().out


def test_pre_executor_baseline_without_threads_keys_still_compares():
    baseline = {"results": [{"workload": "w", "speedup_fast": 3.0}]}
    failures = guard.check(baseline, _report(speedup=2.0), 0.25)
    assert any("speedup_fast regressed" in f for f in failures)
    assert not guard.check(baseline, _report(speedup=2.9), 0.25)


def test_steady_state_allocations_fail_unconditionally():
    failures = guard.check(_report(), _report(ssa=3), 0.25)
    assert any("memory planner regressed" in f for f in failures)


# ---------------------------------------------------------------------------
# The rule table, row by row: each row passes on a healthy report and
# fails on exactly one bad value; every skip and disappearance has a case.
# ---------------------------------------------------------------------------

import re  # noqa: E402

import pytest  # noqa: E402

RULES = {rule.id: rule for rule in guard.RULES}


def _healthy():
    """One report carrying every entry of both BENCH files, all rows green."""
    return {
        "threads": 1,
        "cpu_count": 4,
        "quick": False,
        "results": [
            {"workload": "resnet18-w0.25-F4", "threads": 1, "speedup_fast": 3.0}
        ],
        "threaded_speedup": {"threads": 2, "workloads": {"w@fast": {"speedup": 1.5}}},
        "int8_anomaly": {
            "fp32_fast_ms": 30.0, "int8_fast_ms": 60.0, "int8_native_ms": 28.0,
        },
        "memory": {
            "workload": "w@fast", "steady_state_allocations": 0,
            "arenas": {"w@fast": {"batch": 8, "arena_bytes": 10_000_000}},
        },
        "trace_overhead": {"workload": "w@fast", "overhead_disabled_pct": 0.2},
        "bit_identical_reference": True,
        "bit_identical_workers": True,
        "speedup_dynamic_over_batch1": {"1": 1.0, "16": 1.6, "64": 2.5},
        "workers_scaling": {"workers": 2, "cpu_count": 4, "quick": False, "speedup": 2.0},
        "artifact_cold_start": {
            "bit_identical": True, "speedup": 30.0, "hot_swap": {"requests_failed": 0},
        },
        "overload_goodput": {
            "quick": False, "expired_executed": 0, "unaccounted": 0,
            "goodput_rps": 100.0, "goodput_ratio": 0.9,
            "tight": {"deadline_ms": 500.0, "p99_ms": 400.0},
        },
        "selfheal_goodput": {
            "quick": False,
            "static": {"expired_executed": 0, "unaccounted": 0},
            "selfheal": {"expired_executed": 0, "unaccounted": 0},
            "recovery": {
                "versions_match": True, "response_identical": True, "recovered": True,
            },
            "goodput_improvement": 1.1,
        },
    }


#: rule id -> (field path in the report, a value that row alone rejects).
FAILING = {
    "speedup": ("results/resnet18-w0.25-F4/speedup_fast", 2.0),
    "engine_vs_eager": ("results/resnet18-w0.25-F4/speedup_fast", 1.1),
    "threaded_speedup": ("threaded_speedup/workloads/w@fast/speedup", 1.0),
    "int8_anomaly": ("int8_anomaly/int8_native_ms", 40.0),
    "int8_native_vs_fast": ("int8_anomaly/int8_fast_ms", 25.0),
    "memory_allocations": ("memory/steady_state_allocations", 3),
    "arena_bytes": ("memory/arenas/w@fast/arena_bytes", 13_000_000),
    "trace_overhead": ("trace_overhead/overhead_disabled_pct", 1.5),
    "bit_identical_reference": ("bit_identical_reference", False),
    "bit_identical_workers": ("bit_identical_workers", False),
    "dynamic_batching": ("speedup_dynamic_over_batch1", {"1": 2.0, "16": 1.4, "64": 1.3}),
    "workers_speedup": ("workers_scaling/speedup", 1.2),
    "workers_speedup_regression": ("workers_scaling/speedup", 1.4),
    "artifact_bit_identical": ("artifact_cold_start/bit_identical", False),
    "artifact_speedup": ("artifact_cold_start/speedup", 5.0),
    "hot_swap_drops": ("artifact_cold_start/hot_swap/requests_failed", 2),
    "overload_expired_executed": ("overload_goodput/expired_executed", 1),
    "overload_unaccounted": ("overload_goodput/unaccounted", 3),
    "overload_goodput": ("overload_goodput/goodput_rps", 0.0),
    "overload_tight_p99": ("overload_goodput/tight/p99_ms", 600.0),
    "overload_goodput_ratio": ("overload_goodput/goodput_ratio", 0.5),
    "selfheal_expired_executed": ("selfheal_goodput/static/expired_executed", 1),
    "selfheal_unaccounted": ("selfheal_goodput/selfheal/unaccounted", 2),
    "recovery_versions": ("selfheal_goodput/recovery/versions_match", False),
    "recovery_responses": ("selfheal_goodput/recovery/response_identical", False),
    "recovery_replayed": ("selfheal_goodput/recovery/recovered", False),
    "selfheal_improvement": ("selfheal_goodput/goodput_improvement", 1.0),
}


def _set(report, path, value):
    *parent, key = path.split("/")
    guard._get(report, "/".join(parent))[key] = value


def _delete(report, path):
    *parent, key = path.split("/")
    node = guard._get(report, "/".join(parent))
    if isinstance(node, list):
        node[:] = [row for row in node if row.get("workload") != key]
    else:
        del node[key]


def _failing_pair(rule_id):
    """(baseline, fresh) where only ``rule_id`` sees a bad value: a
    baseline-relative row regresses the fresh report only, an absolute
    row gets the bad value on both sides."""
    baseline, fresh = _healthy(), _healthy()
    path, value = FAILING[rule_id]
    for report in (fresh,) if RULES[rule_id].limit is guard.BASELINE else (baseline, fresh):
        _set(report, path, value)
    return baseline, fresh


def _ids(failures):
    return {re.match(r"\[(\w+)\]", f).group(1) for f in failures}


def _entry(report, rule):
    return guard._get(report, guard._expand(report, rule.entry)[0])


def test_every_rule_has_a_failing_case():
    assert set(FAILING) == set(RULES)


def test_healthy_report_passes_every_rule():
    assert guard.check(_healthy(), _healthy(), 0.25) == []
    assert guard.check({}, _healthy()) == []


@pytest.mark.parametrize("rule_id", sorted(RULES))
def test_row_fails_alone_on_its_bad_value(rule_id):
    failures = guard.check(*_failing_pair(rule_id), 0.25)
    assert _ids(failures) == {rule_id}, failures


@pytest.mark.parametrize("rule_id", sorted(r.id for r in guard.RULES if r.quick))
def test_quick_report_skips_row(rule_id, capsys):
    baseline, fresh = _failing_pair(rule_id)
    entry = _entry(fresh, RULES[rule_id])
    (entry if "quick" in entry else fresh)["quick"] = True
    assert guard.check(baseline, fresh, 0.25) == []
    assert f"skipping {rule_id} comparison" in capsys.readouterr().out


@pytest.mark.parametrize("rule_id", sorted(r.id for r in guard.RULES if r.cores))
def test_small_host_skips_row(rule_id, capsys):
    baseline, fresh = _failing_pair(rule_id)
    entry = _entry(fresh, RULES[rule_id])
    (entry if "cpu_count" in entry else fresh)["cpu_count"] = 1
    assert guard.check(baseline, fresh, 0.25) == []
    assert "cores for" in capsys.readouterr().out


@pytest.mark.parametrize("rule_id", sorted(r.id for r in guard.RULES if r.same))
def test_mismatched_host_key_skips_row(rule_id, capsys):
    baseline, fresh = _failing_pair(rule_id)
    key = RULES[rule_id].same[0]
    entry = _entry(fresh, RULES[rule_id])
    entry[key] = entry[key] + 1 if key == "threads" else entry[key] - 1
    assert guard.check(baseline, fresh, 0.25) == []
    assert f"skipping {rule_id} comparison" in capsys.readouterr().out


@pytest.mark.parametrize("rule_id", sorted(r.id for r in guard.RULES if r.disappeared))
def test_disappeared_entry_fails_once(rule_id):
    rule = RULES[rule_id]
    entry = "/".join(guard._expand(_healthy(), rule.entry)[0])
    fresh = _healthy()
    _delete(fresh, entry)
    assert guard.check(_healthy(), fresh, 0.25) == [
        f"{entry} entry disappeared from the fresh report"
    ]
    # Absent from the baseline too: nothing to hold the report to.
    assert guard.check(fresh, fresh, 0.25) == []


@pytest.mark.parametrize(
    "rule_id",
    sorted(r.id for r in guard.RULES if r.disappeared and r.limit is guard.BASELINE),
)
def test_disappeared_field_fails(rule_id):
    path = FAILING[rule_id][0]
    fresh = _healthy()
    _delete(fresh, path)
    assert f"{path} entry disappeared from the fresh report" in guard.check(
        _healthy(), fresh, 0.25
    )


@pytest.mark.parametrize("rule_id", sorted(r.id for r in guard.RULES if r.required))
def test_required_field_missing_fails(rule_id):
    rule = RULES[rule_id]
    fresh = _healthy()
    if rule.agg:  # no sweep point at all in the aggregated range
        _set(fresh, rule.entry, {"1": 2.0})
    else:
        _delete(fresh, FAILING[rule_id][0])
    failures = guard.check({}, fresh)
    assert any(f.startswith(f"[{rule_id}]") and "is missing" in f for f in failures)


def test_optional_field_missing_is_skipped():
    fresh = _healthy()
    _delete(fresh, "artifact_cold_start/speedup")
    _delete(fresh, "memory/steady_state_allocations")
    assert guard.check(_healthy(), fresh, 0.25) == []


def test_tolerance_loosens_both_directions():
    baseline, fresh = _failing_pair("speedup")  # 3.0 -> 2.0: a 33% drop
    assert guard.check(baseline, fresh, 0.4) == []
    baseline, fresh = _failing_pair("int8_anomaly")  # 40 ms vs 30 ms fp32
    assert guard.check(baseline, fresh, 0.4) == []


def test_dynamic_batching_holds_the_best_point_at_high_concurrency():
    fresh = _healthy()
    fresh["speedup_dynamic_over_batch1"] = {"1": 3.0, "16": 1.2, "64": 1.6}
    assert guard.check({}, fresh) == []
    fresh["speedup_dynamic_over_batch1"] = {"1": 3.0, "16": 1.2, "32": 1.4}
    assert _ids(guard.check({}, fresh)) == {"dynamic_batching"}
