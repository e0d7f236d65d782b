"""Engine-level tracing contracts.

Covers the span recorder itself (ring wrap, fork/env gating helpers),
the per-step spans the executor emits, the structural well-formedness
of span trees, the Chrome exporter's schema, the bit-identity (and
identical step schedule) of traced vs untraced runs, and the
``profile_plan`` sum-vs-median sanity bound.
"""

import json
from collections import defaultdict

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad
from repro.engine import compile_model
from repro.models.common import ConvSpec
from repro.models.lenet import lenet
from repro.obs.export import (
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.profile import format_profile_table, profile_plan
from repro.obs.trace import (
    Span,
    TraceBuffer,
    build_span_trees,
    env_enabled,
    filter_request,
    validate_span_tree,
)
from repro.quant.qconfig import fp32, int8


def _plan_and_input(backend="fast", batch=4, seed=0, qconfig=None):
    model = lenet(spec=ConvSpec("F2", qconfig or fp32()))
    model.eval()
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((batch, 1, 28, 28)).astype(np.float32)
    if qconfig is not None:
        with no_grad():  # freeze the quantizer observers before compiling
            model(Tensor(x))
    return compile_model(model, backend=backend), x


def _untraced_schedule(plan, x, threads, monkeypatch):
    """``{step: sorted rows per runner call}`` of one untraced first run
    (which binds every step), observed from the runner calls themselves
    (no spans)."""
    rows = defaultdict(list)

    def counted(index, fn):
        def kernel(args, attrs):
            run = fn(args, attrs)

            def counted_run(*xs):
                rows[index].append(len(xs[0]))
                return run(*xs)
            return counted_run
        return kernel

    for index, step in enumerate(plan.steps):
        monkeypatch.setattr(step, "fn", counted(index, step.fn))
    out = plan.run(x, threads=threads)
    monkeypatch.undo()
    return out, {i: sorted(seen) for i, seen in rows.items()}


class TestTraceBuffer:
    def test_record_and_snapshot_order(self):
        buf = TraceBuffer(capacity=8)
        for i in range(5):
            buf.record(f"s{i}", "test", start_ns=i, end_ns=i + 1)
        names = [s.name for s in buf.snapshot()]
        assert names == ["s0", "s1", "s2", "s3", "s4"]
        assert len(buf) == 5
        assert buf.dropped == 0

    def test_ring_wrap_counts_dropped_and_keeps_newest(self):
        buf = TraceBuffer(capacity=4)
        for i in range(10):
            buf.record(f"s{i}", "test", start_ns=i, end_ns=i + 1)
        assert buf.dropped == 6
        assert [s.name for s in buf.snapshot()] == ["s6", "s7", "s8", "s9"]

    def test_clear_resets_everything(self):
        buf = TraceBuffer(capacity=2)
        buf.record("a", "test", 0, 1)
        buf.record("b", "test", 0, 1)
        buf.record("c", "test", 0, 1)
        buf.clear()
        assert len(buf) == 0 and buf.dropped == 0
        assert buf.snapshot() == []

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            TraceBuffer(capacity=0)

    def test_span_dict_round_trip(self):
        span = Span("k", "kernel", 10, 5, attrs={"step": 3},
                    parent_id="p", request_id="r-1", proc="w-0", lane=2)
        clone = Span.from_dict(json.loads(json.dumps(span.to_dict())))
        assert clone.to_dict() == span.to_dict()

    def test_env_enabled_values(self, monkeypatch):
        for value, expected in (
            ("1", True), ("true", True), ("on", True), ("YES", True),
            ("0", False), ("", False), ("off", False),
        ):
            monkeypatch.setenv("REPRO_TRACE", value)
            assert env_enabled() is expected


class TestEngineSpans:
    def test_one_step_span_per_plan_step(self):
        plan, x = _plan_and_input()
        buf = TraceBuffer()
        plan.run(x, trace=buf)
        spans = buf.snapshot()
        roots = [s for s in spans if s.cat == "engine" and s.name == "plan_run"]
        steps = [s for s in spans if s.cat == "kernel"
                 and "chunk_index" not in s.attrs]
        assert len(roots) == 1
        assert len(steps) == len(plan)
        assert sorted(s.attrs["step"] for s in steps) == list(range(len(plan)))
        assert roots[0].attrs["backend"] == "fast"
        for s in steps:
            assert s.parent_id == roots[0].span_id
            assert s.attrs["domain"] in ("fp32", "winograd", "int8",
                                         "int8-wino")

    def test_span_tree_well_formed(self):
        plan, x = _plan_and_input()
        buf = TraceBuffer()
        plan.run(x, trace=buf)
        problems = validate_span_tree(buf.snapshot())
        assert problems == []

    def test_split_run_records_lane_spans(self):
        plan, x = _plan_and_input(batch=8)
        buf = TraceBuffer()
        plan.run(x, threads=2, trace=buf)
        spans = buf.snapshot()
        (root,) = [s for s in spans if s.name == "plan_run"]
        assert root.attrs["lanes"] == 2
        # Lane 0's spans stand for the steps; lane 1 tags its own.
        steps = [s for s in spans if s.cat == "kernel"
                 and "chunk_index" not in s.attrs]
        others = [s for s in spans if "chunk_index" in s.attrs]
        assert sorted(s.attrs["step"] for s in steps) == list(range(len(plan)))
        assert sorted(s.attrs["step"] for s in others) == list(range(len(plan)))
        for s in steps:
            assert (s.parent_id, s.lane, s.attrs["batch"]) == (root.span_id, 0, 4)
        for s in others:
            assert s.parent_id == root.span_id
            assert (s.lane, s.attrs["lane"], s.attrs["chunk_index"]) == (1, 1, 1)
            assert s.attrs["rows"] == [4, 8]
        assert validate_span_tree(spans) == []

    def test_untraced_run_emits_nothing_and_accepts_trace_none(self):
        plan, x = _plan_and_input()
        out_plain = plan.run(x)
        out_none = plan.run(x, trace=None)
        np.testing.assert_array_equal(out_plain, out_none)

    def test_reference_backend_bit_identical_traced_vs_untraced(self):
        plan, x = _plan_and_input(backend="reference")
        untraced = plan.run(x)
        buf = TraceBuffer()
        traced = plan.run(x, trace=buf)
        np.testing.assert_array_equal(traced, untraced)
        # reference never splits: one span per step plus the plan_run root.
        spans = buf.snapshot()
        steps = [s for s in spans if s.cat == "kernel"]
        assert len(steps) == len(plan)
        assert [s.name for s in spans if s not in steps] == ["plan_run"]
        # reference runs with planning=False: no arena, slot_bytes None
        assert all(
            s.attrs.get("slot_bytes") is None
            for s in buf.snapshot() if s.cat == "kernel"
        )

    def test_fast_backend_bit_identical_traced_vs_untraced(self):
        plan, x = _plan_and_input(backend="fast")
        np.testing.assert_array_equal(
            plan.run(x, trace=TraceBuffer()), plan.run(x)
        )

    @pytest.mark.parametrize("backend", ["fast", "int8"])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_traced_vs_untraced_same_bits_and_schedule(
        self, backend, threads, monkeypatch
    ):
        # One executor loop serves both paths: the traced run must give
        # the same bits and report the lanes the untraced run took.
        plan, x = _plan_and_input(backend=backend, batch=8, qconfig=int8())
        if backend == "int8":
            assert plan.int8_report()["native_int8_steps"] > 0
        untraced, schedule = _untraced_schedule(plan, x, threads, monkeypatch)
        buf = TraceBuffer()
        traced = plan.run(x, threads=threads, trace=buf)
        np.testing.assert_array_equal(traced, untraced)
        spans = defaultdict(list)
        for s in buf.snapshot():
            if s.cat == "kernel":
                spans[s.attrs["step"]].append(s.attrs["batch"])
        assert {i: sorted(b) for i, b in spans.items()} == schedule
        assert sorted(schedule) == list(range(len(plan)))
        lanes = [8] if threads == 1 else [4, 4]
        assert all(rows == lanes for rows in schedule.values())


class TestSpanUtilities:
    def _family(self):
        root = Span("root", "t", 0, 100, span_id="r")
        child = Span("child", "t", 10, 50, span_id="c", parent_id="r",
                     request_id="req-1")
        grand = Span("grand", "t", 20, 20, span_id="g", parent_id="c")
        other = Span("other", "t", 0, 10, span_id="o")
        return [root, child, grand, other]

    def test_filter_request_includes_descendants(self):
        spans = self._family()
        got = {s.span_id for s in filter_request(spans, "req-1")}
        assert got == {"c", "g"}

    def test_filter_request_matches_batch_request_ids_attr(self):
        spans = self._family()
        spans[0].attrs["request_ids"] = ["req-9"]
        got = {s.span_id for s in filter_request(spans, "req-9")}
        assert got == {"r", "c", "g"}

    def test_build_span_trees_nests_and_sorts(self):
        trees = build_span_trees(self._family())
        assert [t["name"] for t in trees] == ["root", "other"]
        root = trees[0]
        assert root["children"][0]["name"] == "child"
        assert root["children"][0]["children"][0]["name"] == "grand"

    def test_validate_span_tree_flags_orphans_and_overlap(self):
        orphan = Span("lost", "t", 0, 1, parent_id="nope")
        assert any("orphan" in p for p in validate_span_tree([orphan]))
        parent = Span("p", "t", 0, 10, span_id="p")
        escapee = Span("e", "t", 5, 100_000_000, span_id="e", parent_id="p")
        problems = validate_span_tree([parent, escapee])
        assert any("ends after parent" in p for p in problems)


class TestChromeExport:
    def test_export_schema_validates_and_loads(self, tmp_path):
        plan, x = _plan_and_input()
        buf = TraceBuffer()
        plan.run(x, trace=buf)
        doc = to_chrome_trace(buf.snapshot(), default_proc="main")
        assert validate_chrome_trace(doc) == []
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), buf.snapshot())
        loaded = json.loads(path.read_text())
        assert validate_chrome_trace(loaded) == []
        complete = [e for e in loaded["traceEvents"] if e["ph"] == "X"]
        assert len(complete) == len(buf)
        # ts/dur are microseconds
        root = next(e for e in complete if e["name"] == "plan_run")
        span = next(s for s in buf.snapshot() if s.name == "plan_run")
        assert root["dur"] == pytest.approx(span.dur_ns / 1000, rel=1e-6)

    def test_validator_rejects_malformed_documents(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": []}) != []
        assert validate_chrome_trace(
            {"traceEvents": [{"ph": "X", "name": "a", "pid": 0, "tid": 0,
                              "ts": 0, "dur": -5, "cat": "c"}]}
        ) != []

    def test_distinct_procs_get_distinct_pids(self):
        spans = [
            Span("a", "t", 0, 1, proc="frontend"),
            Span("b", "t", 0, 1, proc="worker-0"),
        ]
        doc = to_chrome_trace(spans, default_proc="frontend")
        pids = {e["args"]["name"]: e["pid"] for e in doc["traceEvents"]
                if e["ph"] == "M" and e["name"] == "process_name"}
        assert set(pids) == {"frontend", "worker-0"}
        assert pids["frontend"] != pids["worker-0"]


class TestProfile:
    def test_profile_rows_cover_every_step_and_sum_sane(self):
        plan, x = _plan_and_input()
        prof = profile_plan(plan, x, repeats=3)
        assert [r["index"] for r in prof["steps"]] == list(range(len(plan)))
        assert prof["step_sum_ms"] > 0
        # The per-run pairing bounds the dispatch overhead; keep the
        # test bound generous (CI hosts are noisy), the acceptance
        # target is 10%.
        assert abs(prof["sum_vs_median_pct"]) < 25.0
        table = format_profile_table(prof)
        assert "steps sum" in table and "whole-plan median" in table
        assert prof["lanes"] == 1 and "lanes=1)" in table
