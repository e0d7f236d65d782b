"""The compile-time memory planner (ISSUE 4).

Contract:

* shape inference covers every lowered op, so the planner activates on
  all the smoke models (a plan with an un-inferable op falls back to the
  legacy allocate-per-step executor instead of failing);
* liveness-disjoint registers share arena slots — the reuse pattern on a
  known chain is pinned exactly below;
* a step's output slot never aliases any of its live inputs;
* steady state is zero-allocation: after warm-up, ``memory_report()``
  shows no arena allocations for a run, while the eliminated-allocation
  counter shows the scratch/out requests that hit existing buffers;
* scratch has two lifetimes: transient buffers share one pool per arena
  (every step carves it from offset 0, and no step may return a view of
  it), persistent ones (zero-bordered padded inputs, outputs in another
  layout than their register) outlive their step;
* arena execution is value-neutral: planned and unplanned runs of the
  same plan produce bit-identical outputs.
"""

from collections import Counter

import numpy as np
import pytest

from repro.engine import compile_model, kernels
from repro.engine.memplan import (
    Arena,
    ScratchEscapeError,
    bind_step,
    plan_layout,
    take_scratch,
)
from repro.engine.plan import CompiledPlan, Step
from repro.models.common import ConvSpec
from repro.models.lenet import lenet
from repro.models.resnet import resnet18
from repro.quant import ensure_calibrated
from repro.quant.qconfig import int8


def _chain_steps():
    """conv(r0→r1) → relu(r1→r2) → conv(r2→r3) → relu(r3→r4).

    All activations are the same size, so slot reuse is forced purely by
    liveness: r1 dies at step 1, r2 at step 2, r3 at step 3.
    """
    w = np.zeros((4, 4, 3, 3), dtype=np.float32)
    conv_attrs = {"weight": w, "stride": (1, 1), "padding": (1, 1), "groups": 1}
    return [
        Step("conv2d", (0,), 1, dict(conv_attrs)),
        Step("relu", (1,), 2),
        Step("conv2d", (2,), 3, dict(conv_attrs)),
        Step("relu", (3,), 4),
    ]


class TestLayout:
    def test_liveness_reuse_pinned_on_known_chain(self):
        layout = plan_layout(_chain_steps(), 0, 4, (4, 8, 8))
        assert layout is not None
        # Four registers, but never more than two alive at once: the
        # planner must produce exactly 2 slots and report 2 reuses.
        assert layout.planned_registers == 4
        assert len(layout.slot_elems) == 2
        assert layout.buffers_reused == 2
        # r1/r3 and r2/r4 alternate between the two slots.
        assert layout.reg_slot[1] == layout.reg_slot[3]
        assert layout.reg_slot[2] == layout.reg_slot[4]
        assert layout.reg_slot[1] != layout.reg_slot[2]
        # Equal-size activations: per-sample arena = 2 × one activation.
        assert layout.bytes_per_sample == 2 * 4 * 8 * 8 * 4

    def test_output_never_aliases_step_inputs(self):
        """Each step's output slot differs from every live input's slot
        (a kernel may never read and write the same memory)."""
        steps = _chain_steps()
        layout = plan_layout(steps, 0, 4, (4, 8, 8))
        for step in steps:
            for reg in step.inputs:
                if reg in layout.reg_slot:
                    assert layout.reg_slot[reg] != layout.reg_slot[step.output]

    def test_residual_keeps_shortcut_alive(self):
        """A register read by a later add must keep its slot until then."""
        w = np.zeros((4, 4, 3, 3), dtype=np.float32)
        conv_attrs = {"weight": w, "stride": (1, 1), "padding": (1, 1), "groups": 1}
        steps = [
            Step("conv2d", (0,), 1, dict(conv_attrs)),  # trunk in
            Step("conv2d", (1,), 2, dict(conv_attrs)),
            Step("conv2d", (2,), 3, dict(conv_attrs)),
            Step("add", (3, 1), 4),  # r1 is the shortcut
        ]
        layout = plan_layout(steps, 0, 4, (4, 8, 8))
        # r1 lives across steps 1-3, so r2/r3 may not take its slot.
        assert layout.reg_slot[2] != layout.reg_slot[1]
        assert layout.reg_slot[3] != layout.reg_slot[1]

    def test_alias_ops_share_the_producer_slot(self):
        w = np.zeros((4, 4, 3, 3), dtype=np.float32)
        steps = [
            Step("conv2d", (0,), 1, {"weight": w, "stride": (1, 1),
                                     "padding": (1, 1), "groups": 1}),
            Step("flatten", (1,), 2),
            Step("linear", (2,), 3, {"weight": np.zeros((10, 256), np.float32)}),
        ]
        layout = plan_layout(steps, 0, 3, (4, 8, 8))
        # flatten returns a view of its input: one slot, union lifetime.
        assert layout.reg_slot[2] == layout.reg_slot[1]

    def test_unknown_op_disables_planning(self):
        steps = [Step("custom_unregistered_op", (0,), 1, {})]
        assert plan_layout(steps, 0, 1, (4, 8, 8)) is None


class TestArena:
    def test_scratch_reuse_and_growth_accounting(self):
        layout = plan_layout(_chain_steps(), 0, 4, (4, 8, 8))
        arena = Arena(layout)
        arena.begin_run(2)
        # No step bound yet: the slots allocate, the pool does not.
        assert arena.last_run_allocs == len(layout.slot_elems)
        assert arena.transient_nbytes == 0
        with bind_step(arena, 0, None):
            buf = take_scratch("gemm", (16, 16), persistent=True)
            assert take_scratch("gemm", (16, 16), persistent=True) is not None
            assert arena.last_run_hits == 1  # second request hit the buffer
            assert arena.owns(buf)
            # Same key, smaller shape: still a hit (capacity-based).
            take_scratch("gemm", (8, 16), persistent=True)
            assert arena.last_run_hits == 2
            # The first binding grows the pool to fit the step's
            # transient buffers.
            take_scratch("rows", (2, 40))
            take_scratch("tiles", (2, 8), np.float64)
            assert arena.pool_grew and arena.last_run_hits == 2
        with bind_step(arena, 1, None):
            take_scratch("v", (2, 40))  # the next step fits: a hit
        assert arena.last_run_hits == 3
        pool_at_2 = arena.transient_nbytes
        # Bigger batch: the slots and the pool grow exactly once, before
        # any step binds, sized from the bytes per sample bound at 2.
        arena.begin_run(4)
        assert arena.last_run_allocs == len(layout.slot_elems) + 1
        assert arena.transient_nbytes == 2 * (pool_at_2 - 64) + 64
        with bind_step(arena, 0, None):
            rows = take_scratch("rows", (4, 40))
            tiles = take_scratch("tiles", (4, 8), np.float64)
        with bind_step(arena, 1, None):
            other = take_scratch("v", (4, 40))
        assert not arena.pool_grew and arena.last_run_hits == 3
        # One step's buffers are disjoint and 64-byte aligned; the next
        # step carves the same pool from offset 0.
        assert not np.shares_memory(rows, tiles)
        assert rows.ctypes.data % 64 == 0 and tiles.ctypes.data % 64 == 0
        assert tiles.ctypes.data - rows.ctypes.data == 640  # 4·40·4 bytes
        assert other.ctypes.data == rows.ctypes.data
        arena.begin_run(4)
        assert arena.last_run_allocs == 0
        # A fresh arena bound at 4 alone holds the same pool.
        fresh = Arena(plan_layout(_chain_steps(), 0, 4, (4, 8, 8)))
        fresh.begin_run(4)
        with bind_step(fresh, 0, None):
            take_scratch("rows", (4, 40))
            take_scratch("tiles", (4, 8), np.float64)
        assert fresh.transient_nbytes == arena.transient_nbytes

    def test_zeroed_scratch_borders_survive_reuse(self):
        """A padded step binds and writes its interior, another step
        fills its own scratch, and the padded step binds again."""
        layout = plan_layout(_chain_steps(), 0, 4, (4, 8, 8))
        arena = Arena(layout)
        arena.begin_run(1)
        with bind_step(arena, 1, None):
            pad = take_scratch("xp", (1, 2, 6, 6), np.float32, zero=True)
        assert not pad.any()
        pad[:, :, 1:5, 1:5] = 7.0  # kernel writes the interior only
        with bind_step(arena, 2, None):
            take_scratch("rows", (1, 2, 6, 6)).fill(5.0)
        with bind_step(arena, 1, None):
            again = take_scratch("xp", (1, 2, 6, 6), np.float32, zero=True)
        assert again[0, 0, 0, 0] == 0.0 and again[0, 0, 2, 2] == 7.0

    def test_border_test_catches_transient_padding(self, monkeypatch):
        """A mutant arena that carves zero-bordered padding from the
        transient pool fails the border test."""
        monkeypatch.setattr(
            Arena, "scratch",
            lambda self, key, shape, dtype, zero=False: self.transient(shape, dtype),
        )
        with pytest.raises(AssertionError):
            self.test_zeroed_scratch_borders_survive_reuse()

    def test_output_in_transient_pool_is_refused(self, rng):
        """A kernel returning a view of its transient scratch (which the
        next step overwrites) fails its binding run, naming the step."""

        def leaky(inputs, attrs):
            buf = take_scratch("leak", inputs[0].shape)
            return lambda x: np.maximum(x, 0.0, out=buf)

        def build(fn):
            steps = [Step("relu", (0,), 1, fn=fn), Step("relu", (1,), 2, fn=fn)]
            return CompiledPlan(steps, 3, 0, 2, backend="fast", signature="leak")

        x = rng.standard_normal((2, 4, 8, 8)).astype(np.float32)
        with pytest.raises(ScratchEscapeError, match=r"step 0 \(relu\)"):
            build(leaky).run(x)
        unplanned = build(leaky)
        unplanned.planning = False  # fresh arrays: nothing to escape
        np.testing.assert_array_equal(unplanned.run(x), np.maximum(x, 0.0))
        np.testing.assert_array_equal(
            build(kernels.relu_fast).run(x), np.maximum(x, 0.0)
        )


class TestPlannedExecution:
    @pytest.mark.parametrize("backend", ["fast", "int8"])
    def test_zero_steady_state_allocations_resnet_smoke(self, rng, backend):
        """The acceptance gate: after warm-up, a run of the ResNet smoke
        plan performs zero arena allocations while eliminating dozens."""
        model = resnet18(width_multiplier=0.25, spec=ConvSpec("F4", int8()))
        model.eval()
        from repro.autograd import Tensor, no_grad

        x = rng.standard_normal((8, 3, 32, 32)).astype(np.float32)
        with no_grad():
            model(Tensor(x))  # calibrate observers
        plan = compile_model(model, backend=backend)
        plan.run(x)  # warm-up: arenas + scratch allocate here
        plan.run(x)  # steady state
        report = plan.memory_report(batch=8)
        assert report["steady_state_allocations"] == 0
        assert report["allocations_eliminated"] > 20
        assert report["shape_misses"] == 0
        entry = report["planned_shapes"][0]
        assert entry["planned"]
        assert entry["buffers_reused"] > 0
        assert entry["slots"] < entry["planned_registers"]

    def test_channels_last_registers_keep_logical_shapes(self, rng):
        """``infer_step_shape`` reports logical NCHW shapes on the
        channels-last ``@int8`` plan, register for register the shapes of
        the ``@fast`` plan, while the arena views are permuted: a take-out
        that missed its permuted view would silently allocate."""
        from repro.engine.memplan import infer_step_shape
        from repro.serve.registry import ModelSpec, compile_served

        def shapes(plan):
            out = {plan.input_reg: (1, 3, 32, 32)}
            for step in plan.steps:
                out[step.output] = infer_step_shape(
                    step, [out[r] for r in step.inputs]
                )
            return out

        name = "resnet18-w0.25-F4-int8"
        served = compile_served(ModelSpec.parse(f"{name}@int8"))
        plan = served.plan
        fast = compile_served(ModelSpec.parse(f"{name}@fast")).plan
        int8_shapes, fast_shapes = shapes(plan), shapes(fast)
        transposed = {s.output for s in plan.steps if s.op == "transpose"}
        assert len(transposed) == 1
        assert set(int8_shapes) - transposed <= set(fast_shapes)
        for reg, shape in int8_shapes.items():
            if reg not in transposed:
                assert shape == fast_shapes[reg], reg
        assert int8_shapes[plan.output_reg] == fast_shapes[fast.output_reg]
        for batch in (1, 8, 1):
            x = rng.standard_normal((batch, 3, 32, 32)).astype(np.float32)
            plan.run(x, threads=1)
            plan.run(x, threads=1)
            report = plan.memory_report(batch=batch)
            assert report["shape_misses"] == 0
            assert report["steady_state_allocations"] == 0

    def test_planned_equals_unplanned_bitwise(self, rng):
        model = lenet(spec=ConvSpec("F2", int8()))
        model.eval()
        x = rng.standard_normal((4, 1, 28, 28)).astype(np.float32)
        ensure_calibrated(model, x[:1])
        planned = compile_model(model, backend="fast")
        planned.run(x[:1])  # warm arena
        unplanned = compile_model(model, backend="fast")
        unplanned.planning = False
        np.testing.assert_array_equal(planned.run(x), unplanned.run(x))

    def test_result_does_not_alias_arena(self, rng):
        """run() results must stay stable after later runs reuse the
        arena (the executor copies arena-backed outputs out)."""
        model = lenet(spec=ConvSpec("F2"))
        model.eval()
        plan = compile_model(model, backend="fast")
        a = rng.standard_normal((2, 1, 28, 28)).astype(np.float32)
        b = rng.standard_normal((2, 1, 28, 28)).astype(np.float32)
        out_a = plan.run(a)
        snapshot = out_a.copy()
        plan.run(b)  # same arena, different data
        np.testing.assert_array_equal(out_a, snapshot)

    def test_reference_backend_keeps_legacy_executor(self, rng):
        model = lenet(spec=ConvSpec("F2"))
        model.eval()
        plan = compile_model(model, backend="reference")
        x = rng.standard_normal((2, 1, 28, 28)).astype(np.float32)
        plan.run(x)
        report = plan.memory_report()
        assert not report["planning"]
        assert report["arenas_built"] == 0

    def test_describe_includes_memory_line(self, rng):
        model = lenet(spec=ConvSpec("F2"))
        model.eval()
        plan = compile_model(model, backend="fast")
        x = rng.standard_normal((2, 1, 28, 28)).astype(np.float32)
        plan.run(x)
        assert any("memory:" in line for line in plan.describe())

    def test_prepare_builds_layout_before_first_run(self):
        model = lenet(spec=ConvSpec("F2"))
        model.eval()
        plan = compile_model(model, backend="fast")
        plan.prepare((1, 1, 28, 28))
        entry = plan.memory_report()["planned_shapes"][0]
        assert entry["planned"] and entry["sample_shape"] == [1, 28, 28]


class TestBoundPrograms:
    """Every step binds its buffers and views once per arena and batch
    size, natively or in float; any arena (re)allocation drops every
    stored program, so none outlives the buffers it reads or writes."""

    @staticmethod
    def _arenas(plan):
        return [a for pool in plan._mem_pools.values() for a in pool._retained]

    # int8 on fast covers the nested Winograd and fake-quant runners.
    @pytest.mark.parametrize(
        "name",
        [
            "resnet18-w0.25-F4-int8@int8",
            "resnet18-w0.25-F4-fp32@fast",
            "resnet18-w0.25-F4-int8@fast",
        ],
    )
    @pytest.mark.parametrize("threads", [1, 2])
    def test_lifetime_across_batch_sizes(self, rng, threads, name):
        import gc
        import weakref

        from repro.autograd import Tensor, no_grad
        from repro.serve.registry import ModelSpec, build_model

        spec = ModelSpec.parse(name)
        backend = spec.backend
        model, _ = build_model(spec)
        with no_grad():  # calibrate: frozen ranges, native int8 steps
            model(Tensor(rng.standard_normal((4, 3, 32, 32)).astype(np.float32)))
        plan = compile_model(model, backend=backend)
        assert (plan.int8_report()["native_int8_steps"] > 0) == (backend == "int8")
        replaced = []
        for batch in (1, 8, 2, 16, 1):
            x = rng.standard_normal((batch, 3, 32, 32)).astype(np.float32)
            fresh = compile_model(model, backend=backend).run(x, threads=threads)
            for _ in range(3):  # allocate, then bind, then reuse
                np.testing.assert_array_equal(plan.run(x, threads=threads), fresh)
            report = plan.memory_report()
            assert report["steady_state_allocations"] == 0
            assert report["shape_misses"] == 0
            assert report["allocations_eliminated"] > 20
            for arena in self._arenas(plan):
                buffers = [*arena._scratch.values(), *arena._slots, arena._pool]
                replaced += [weakref.ref(b) for b in buffers if b is not None]
        gc.collect()
        live = {id(b) for a in self._arenas(plan) for b in a._scratch.values()}
        live |= {id(b) for a in self._arenas(plan) for b in [*a._slots, a._pool]}
        assert all(ref() is None or id(ref()) in live for ref in replaced)

        # Every arena holds exactly what an arena warmed only at its
        # largest lane holds: no bound program keeps an old buffer.
        lane_bytes = set()
        for rows in (1, 2, 4, 8, 16):
            single = compile_model(model, backend=backend)
            x = rng.standard_normal((rows, 3, 32, 32)).astype(np.float32)
            single.run(x, threads=1)
            lane_bytes.add(single.memory_report()["arena_bytes"])
        assert all(a.nbytes in lane_bytes for a in self._arenas(plan))
        if threads == 1:
            warmed = compile_model(model, backend=backend)
            x = rng.standard_normal((16, 3, 32, 32)).astype(np.float32)
            warmed.run(x, threads=1)
            assert plan.memory_report()["arena_bytes"] == warmed.memory_report()["arena_bytes"]


class TestReplay:
    """A warm run of a batch size replays the runners its arena stored:
    no step scope, no buffer request and no kernel (binder) call."""

    @pytest.mark.parametrize(
        "name", ["resnet18-w0.25-F4-int8@int8", "resnet18-w0.25-F4-fp32@fast"]
    )
    @pytest.mark.parametrize("threads", [1, 2])
    def test_warm_runs_only_replay(self, rng, monkeypatch, name, threads):
        from repro.engine import kernels, memplan
        from repro.serve.registry import ModelSpec, compile_served

        plan = compile_served(ModelSpec.parse(name)).plan
        calls = Counter()

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        for module in (memplan, kernels):  # kernels import them by name
            for helper in ("take_out", "take_scratch"):
                fn = getattr(module, helper)
                monkeypatch.setattr(module, helper, counted(helper, fn))
        monkeypatch.setattr(memplan, "bind_step", counted("bind_step", memplan.bind_step))
        for step in plan.steps:
            monkeypatch.setattr(step, "fn", counted("binder", step.fn))
        for batch in (1, 8, 1):
            x = rng.standard_normal((batch, 3, 32, 32)).astype(np.float32)
            warm = plan.run(x, threads=threads)  # binds this size's lanes
            calls.clear()
            np.testing.assert_array_equal(plan.run(x, threads=threads), warm)
            assert not calls, (batch, dict(calls))
            report = plan.memory_report()
            assert report["steady_state_allocations"] == 0
            assert report["shape_misses"] == 0
            assert report["allocations_eliminated"] > 20

    def test_lanes_take_their_arenas_in_one_checkout(self, rng, monkeypatch):
        """A split run holds one arena per lane even when its lanes run
        one after another."""
        from repro.engine import plan as plan_module
        from repro.serve.registry import ModelSpec, build_model

        model, _ = build_model(ModelSpec.parse("resnet18-w0.25-F4-fp32"))
        x = rng.standard_normal((8, 3, 32, 32)).astype(np.float32)
        overlapping = compile_model(model, backend="fast")
        expected = overlapping.run(x, threads=2)
        monkeypatch.setattr(
            plan_module, "run_tasks", lambda tasks, threads: [task() for task in tasks]
        )
        serial = compile_model(model, backend="fast")
        np.testing.assert_array_equal(serial.run(x, threads=2), expected)
        report = serial.memory_report()
        assert report["arenas_built"] == 2
        assert report["arena_bytes"] == overlapping.memory_report()["arena_bytes"]


class TestServedArenas:
    """The served ``resnet18-w0.25-F4`` plans hold their registers, the
    persistent scratch and one transient pool sized by the largest step."""

    @pytest.mark.parametrize(
        "name,bound",
        [("resnet18-w0.25-F4-fp32", 9.5e6), ("resnet18-w0.25-F4-int8@int8", 9.0e6)],
    )
    def test_arena_bytes_at_batch_8(self, rng, name, bound):
        from repro.engine.cache import PlanCache
        from repro.serve.registry import ModelSpec, compile_served

        plan = compile_served(ModelSpec.parse(name), cache=PlanCache()).plan
        x = rng.standard_normal((8, 3, 32, 32)).astype(np.float32)
        plan.run(x, threads=1)
        report = plan.memory_report()
        assert report["arenas_built"] == 1
        assert report["arena_bytes"] <= bound
        parts = ("register_bytes", "persistent_scratch_bytes", "transient_bytes")
        assert report["arena_bytes"] == sum(report[k] for k in parts)
        (pool,) = plan._mem_pools.values()
        assert report["transient_bytes"] == pool.layout.transient_bytes(8) + 64

    @pytest.mark.parametrize(
        "name", ["resnet18-w0.25-F4-fp32@fast", "resnet18-w0.25-F4-int8@int8"]
    )
    def test_batch_sizes_settle_after_two_runs_each(self, rng, name):
        from repro.serve.registry import ModelSpec, build_model

        spec = ModelSpec.parse(name)
        model, _ = build_model(spec)
        ensure_calibrated(model, rng.standard_normal((4, 3, 32, 32)).astype(np.float32))
        plan = compile_model(model, backend=spec.backend)
        xs = {b: rng.standard_normal((b, 3, 32, 32)).astype(np.float32) for b in (1, 8)}
        for i, batch in enumerate((1, 8, 1, 8, 1, 8)):
            plan.run(xs[batch], threads=1)
            report = plan.memory_report()
            assert report["shape_misses"] == 0
            if i >= 3:  # each size has run twice
                assert report["steady_state_allocations"] == 0, (i, batch)
