"""The compile pass, fusion, kernel registry, plan cache, and NAS probe."""

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad
from repro.engine import (
    CompileError,
    KernelRegistry,
    PlanCache,
    compile_model,
    get_cached_plan,
    registry,
)
from repro.engine.cache import model_signature
from repro.engine.kernels import WinogradShapeError, _winograd_geometry
from repro.models.common import ConvSpec
from repro.models.lenet import lenet
from repro.models.resnet import resnet18
from repro.nas.mixed_op import MixedConv2d
from repro.nas.search_space import wa_space
from repro.nas.winas import SearchConfig, WiNAS
from repro.nn.layers import BatchNorm2d, Conv2d, ReLU
from repro.nn.module import Module, Sequential
from repro.quant.qconfig import int8
from repro.winograd.layer import WinogradConv2d


class TestFusion:
    def test_conv_bn_relu_fuses_to_single_kernel(self):
        model = Sequential(Conv2d(3, 8, 3, padding=1), BatchNorm2d(8), ReLU())
        model.eval()
        plan = compile_model(model, backend="fast")
        assert len(plan) == 1
        (step,) = plan.steps
        assert step.op == "conv2d"
        assert step.attrs["fuse_relu"]
        assert "affine" not in plan.ops_used()

    def test_reference_backend_never_fuses(self):
        model = Sequential(Conv2d(3, 8, 3, padding=1), BatchNorm2d(8), ReLU())
        model.eval()
        plan = compile_model(model, backend="reference")
        assert [s.op for s in plan.steps] == ["conv2d", "affine", "relu"]

    def test_folded_bn_matches_separate_bn(self, rng):
        model = Sequential(Conv2d(3, 8, 3, padding=1), BatchNorm2d(8), ReLU())
        bn = model[1]
        bn.running_mean.data[:] = rng.standard_normal(8).astype(np.float32)
        bn.running_var.data[:] = (0.5 + rng.random(8)).astype(np.float32)
        model.eval()
        x = rng.standard_normal((2, 3, 16, 16)).astype(np.float32)
        fused = compile_model(model, backend="fast").run(x)
        unfused = compile_model(model, backend="reference").run(x)
        np.testing.assert_allclose(fused, unfused, rtol=1e-4, atol=1e-5)

    def test_quantized_conv_keeps_bn_separate(self):
        model = Sequential(
            ConvSpec("F4", int8()).build(3, 8, kernel_size=3), BatchNorm2d(8), ReLU()
        )
        model.eval()
        plan = compile_model(model, backend="fast")
        # BN must NOT fold into the quantized conv (it would change the
        # values entering the frozen quantization grid) — but its ReLU
        # still fuses into the affine step.
        assert "affine" in plan.ops_used()
        affine = next(s for s in plan.steps if s.op == "affine")
        assert affine.attrs["fuse_relu"]

    def test_winograd_transform_precomputed_once(self):
        layer = ConvSpec("F4").build(4, 4, kernel_size=3)
        layer.eval()
        plan = compile_model(layer, backend="fast")
        (step,) = plan.steps
        assert step.op == "winograd_conv2d"
        assert step.attrs["u"].shape == (4, 4, 6, 6)  # (K, C, t, t), t = 6
        assert step.attrs["u2"].flags["C_CONTIGUOUS"]  # GEMM-ready layout

    def test_lenet_plan_shrinks_under_fusion(self):
        model = lenet(spec=ConvSpec("F2"))
        model.eval()
        reference = compile_model(model, backend="reference")
        fast = compile_model(model, backend="fast")
        assert len(fast) < len(reference)


class TestShapeError:
    """Degenerate Winograd geometry fails at plan-build time with the
    typed ``WinogradShapeError`` instead of producing empty tensors."""

    def test_geometry_guard_is_typed(self):
        with pytest.raises(WinogradShapeError) as info:
            _winograd_geometry(2, 8, m=4, r=5, pad=0)
        assert "non-positive" in str(info.value)
        assert issubclass(WinogradShapeError, ValueError)

    def test_compile_rejects_receptive_field_underflow(self):
        # 4x4 input through one valid conv leaves 2x2 — smaller than the
        # next r=3 window, which used to plan th=0 (an empty register)
        # and explode steps later.  Now the planner refuses up front.
        rng = np.random.default_rng(0)
        model = Sequential(
            WinogradConv2d(3, 6, kernel_size=3, m=4, padding=0, rng=rng),
            ReLU(),
            WinogradConv2d(6, 6, kernel_size=3, m=4, padding=0, rng=rng),
        )
        model.eval()
        with pytest.raises(WinogradShapeError):
            compile_model(model, backend="fast").run(np.zeros((1, 3, 4, 4), np.float32))

    def test_valid_geometry_untouched(self):
        out_h, out_w, th, tw = _winograd_geometry(8, 12, m=4, r=3, pad=1)
        assert (out_h, out_w, th, tw) == (8, 12, 2, 3)


class TestFallback:
    def test_unknown_module_raises_compile_error(self):
        class Weird(Module):
            def forward(self, x):
                return x * 2.0

        model = Sequential(Conv2d(3, 4, 3, padding=1), Weird())
        model.eval()
        with pytest.raises(CompileError, match=r"no lowering rule for Weird \(") as exc:
            compile_model(model)
        assert f"{__name__}." in str(exc.value)  # names its module path

    def test_unknown_backend_rejected(self):
        with pytest.raises(CompileError):
            compile_model(Conv2d(3, 4, 3), backend="warp")


class TestRegistry:
    def test_fast_falls_back_to_reference(self):
        reg = KernelRegistry()

        @reg.register("double")
        def double(inputs, attrs):
            return inputs[0] * 2

        assert reg.get("double", "fast") is double

    def test_fast_overrides_reference(self):
        reg = KernelRegistry()

        @reg.register("op")
        def ref(inputs, attrs):
            return 0

        @reg.register("op", "fast")
        def fast(inputs, attrs):
            return 1

        assert reg.get("op", "fast") is fast
        assert reg.get("op", "reference") is ref

    def test_unknown_op_raises(self):
        with pytest.raises(KeyError):
            KernelRegistry().get("nope")

    def test_builtin_ops_present(self):
        for op in ("conv2d", "winograd_conv2d", "affine", "linear", "relu"):
            assert op in registry.ops()
        assert registry.backends_for("winograd_conv2d") == ("reference", "fast", "int8")


class TestPlanCache:
    def _model(self):
        model = lenet(spec=ConvSpec("im2row"))
        model.eval()
        return model

    def test_hit_on_identical_state(self, rng):
        cache = PlanCache()
        model = self._model()
        shape = (2, 1, 28, 28)
        first = get_cached_plan(model, shape, cache=cache)
        second = get_cached_plan(model, shape, cache=cache)
        assert first is second
        assert (cache.hits, cache.misses) == (1, 1)

    def test_weight_update_invalidates(self):
        cache = PlanCache()
        model = self._model()
        shape = (2, 1, 28, 28)
        stale = get_cached_plan(model, shape, cache=cache)
        model.parameters()[0].data += 1.0
        fresh = get_cached_plan(model, shape, cache=cache)
        assert fresh is not stale

    def test_input_shape_and_backend_are_part_of_key(self):
        cache = PlanCache()
        model = self._model()
        a = get_cached_plan(model, (2, 1, 28, 28), cache=cache)
        b = get_cached_plan(model, (4, 1, 28, 28), cache=cache)
        c = get_cached_plan(model, (2, 1, 28, 28), backend="reference", cache=cache)
        assert a is not b and a is not c
        assert len(cache) == 3

    def test_lru_eviction(self):
        cache = PlanCache(maxsize=2)
        model = self._model()
        get_cached_plan(model, (1, 1, 28, 28), cache=cache)
        get_cached_plan(model, (2, 1, 28, 28), cache=cache)
        get_cached_plan(model, (3, 1, 28, 28), cache=cache)
        assert len(cache) == 2
        # The oldest entry (batch 1) was evicted: fetching it recompiles.
        misses = cache.misses
        get_cached_plan(model, (1, 1, 28, 28), cache=cache)
        assert cache.misses == misses + 1

    def test_quantized_cold_model_hits_cache_on_second_call(self):
        # Compiling a quantized model with cold weight observers warms
        # them (buffer mutation); the plan must be stored under the
        # post-compile signature or every later call would miss.
        cache = PlanCache()
        model = lenet(spec=ConvSpec("F2", int8()))
        model.eval()
        shape = (1, 1, 28, 28)
        first = get_cached_plan(model, shape, cache=cache)
        second = get_cached_plan(model, shape, cache=cache)
        assert first is second
        assert cache.hits == 1

    def test_signature_tracks_buffers_too(self):
        model = lenet(spec=ConvSpec("im2row"))
        before = model_signature(model)
        bn = model.bn1
        bn.running_mean.data += 1.0
        assert model_signature(model) != before

    def test_signature_detects_filter_permutation(self):
        # A filter swap preserves sum and L1 norm; the byte-exact
        # fingerprint must still change (stale plans are never served).
        model = lenet(spec=ConvSpec("im2row"))
        before = model_signature(model)
        w = model.conv1.weight.data
        w[[0, 1]] = w[[1, 0]]
        assert model_signature(model) != before


class TestNasProbe:
    def _tiny_search(self, **config):
        model = Sequential(MixedConv2d(3, 4, wa_space(), seed=0))
        return model, WiNAS(model, SearchConfig(**config))

    def test_populate_latencies_probes_through_compiled_plan(self):
        model, nas = self._tiny_search()
        nas.populate_latencies(np.zeros((1, 3, 16, 16), dtype=np.float32))
        (op,) = nas.mixed_ops
        assert op.last_input_hw == (16, 16)
        assert op.latencies_ms is not None and len(op.latencies_ms) == len(wa_space())
        assert np.all(op.latencies_ms > 0)

    def test_measured_latency_source(self):
        model, nas = self._tiny_search(latency_source="measured")
        nas.populate_latencies(np.zeros((1, 3, 8, 8), dtype=np.float32))
        (op,) = nas.mixed_ops
        assert np.all(op.latencies_ms > 0)

    def test_unknown_latency_source_rejected(self):
        model, nas = self._tiny_search()
        with pytest.raises(ValueError):
            nas.populate_latencies(np.zeros((1, 3, 8, 8), dtype=np.float32), source="psychic")

    def test_mixed_model_compiles_to_argmax_path(self, rng):
        model = resnet18(width_multiplier=0.125, plan=WiNAS.make_plan(wa_space()))
        model.eval()
        plan = compile_model(model, backend="fast")
        x = rng.standard_normal((1, 3, 32, 32)).astype(np.float32)
        with no_grad():
            expected = model(Tensor(x)).data
        np.testing.assert_allclose(plan.run(x), expected, rtol=1e-4, atol=1e-4)
