"""Compiled-plan outputs must match the eager eval forward.

The contract (ISSUE 1 acceptance criteria):

* ``reference`` backend — *exact* equality with eager, float and
  quantized paths alike: it replays the same NumPy operations in the
  same order with observer ranges frozen at compile time;
* ``fast`` backend — allclose on the float path (BN folding, fused
  epilogues and the Kronecker-form tile transforms reassociate float
  arithmetic), and grid-exact or allclose on quantized paths (which keep
  eager's nested transform order so quantization-bin decisions match).

Covered: LeNet (5×5 filters), a ResNet-18-like net, SqueezeNet and
grouped ResNeXt smoke configs, with and without quantization, plus every
supported F(m, r) tile size as a single layer.
"""

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad
from repro.engine import compile_model
from repro.engine.cache import model_signature
from repro.models.common import ConvSpec
from repro.models.lenet import lenet
from repro.models.resnet import resnet18
from repro.models.resnext import resnext20
from repro.models.squeezenet import squeezenet
from repro.quant import ensure_calibrated
from repro.quant.qconfig import fp32, int8
from repro.winograd.layer import WinogradConv2d


def eager_output(model, x: np.ndarray) -> np.ndarray:
    """Eval forward twice: the first pass warms any cold quantizer
    observers (as real deployment calibration would), the second runs
    with frozen ranges — the semantics a compiled plan freezes."""
    model.eval()
    with no_grad():
        model(Tensor(x))
        return model(Tensor(x)).data


def assert_parity(model, x: np.ndarray, quantized: bool):
    expected = eager_output(model, x)

    reference = compile_model(model, backend="reference").run(x)
    np.testing.assert_array_equal(
        reference, expected, err_msg="reference backend must match eager exactly"
    )

    fast = compile_model(model, backend="fast").run(x)
    assert fast.shape == expected.shape
    if quantized:
        # Fake-quant snapping absorbs reassociation noise almost always;
        # allow a fraction of the coarsest visible grid step otherwise.
        # (Quantized Winograd steps deliberately keep eager's nested
        # transform order — see _finalize_fast — so grid decisions match.)
        tol = max(1e-6, float(np.abs(expected).max()) * 1e-4)
        np.testing.assert_allclose(fast, expected, rtol=0, atol=tol)
    else:
        np.testing.assert_allclose(fast, expected, rtol=1e-4, atol=1e-4)


class TestModelParity:
    @pytest.mark.parametrize("algorithm", ["F2", "F4"])
    @pytest.mark.parametrize("qconfig", [fp32(), int8()], ids=["fp32", "int8"])
    def test_lenet_5x5(self, rng, algorithm, qconfig):
        model = lenet(spec=ConvSpec(algorithm, qconfig))
        x = rng.standard_normal((2, 1, 28, 28)).astype(np.float32)
        assert_parity(model, x, quantized=qconfig.enabled)

    @pytest.mark.parametrize("algorithm", ["im2row", "F2", "F4", "F6"])
    def test_resnet18_like_fp32(self, rng, algorithm):
        model = resnet18(width_multiplier=0.125, spec=ConvSpec(algorithm))
        x = rng.standard_normal((2, 3, 32, 32)).astype(np.float32)
        assert_parity(model, x, quantized=False)

    @pytest.mark.parametrize("algorithm", ["im2row", "F4"])
    def test_resnet18_like_int8(self, rng, algorithm):
        model = resnet18(width_multiplier=0.125, spec=ConvSpec(algorithm, int8()))
        x = rng.standard_normal((2, 3, 32, 32)).astype(np.float32)
        assert_parity(model, x, quantized=True)

    @pytest.mark.parametrize(
        "spec",
        [ConvSpec("F4"), ConvSpec("F2", int8())],
        ids=["F4-fp32", "F2-int8"],
    )
    def test_squeezenet(self, rng, spec):
        model = squeezenet(width_multiplier=0.25, spec=spec)
        x = rng.standard_normal((2, 3, 32, 32)).astype(np.float32)
        assert_parity(model, x, quantized=spec.qconfig.enabled)

    def test_resnext_grouped_winograd_int8(self, rng):
        model = resnext20(width_multiplier=0.5, spec=ConvSpec("F2", int8()))
        x = rng.standard_normal((2, 3, 32, 32)).astype(np.float32)
        assert_parity(model, x, quantized=True)


class TestTileSizeGrid:
    """Every supported F(m, r): m ∈ {2, 4, 6} for both 3×3 and 5×5 filters."""

    @pytest.mark.parametrize("m", [2, 4, 6])
    @pytest.mark.parametrize("r", [3, 5])
    @pytest.mark.parametrize("qconfig", [fp32(), int8()], ids=["fp32", "int8"])
    def test_single_layer(self, rng, m, r, qconfig):
        layer = WinogradConv2d(4, 6, kernel_size=r, m=m, qconfig=qconfig)
        x = rng.standard_normal((2, 4, 16, 16)).astype(np.float32)
        assert_parity(layer, x, quantized=qconfig.enabled)

    @pytest.mark.parametrize(
        "m,groups,hw,pad,batch",
        [
            (2, 1, 16, None, 8),
            (4, 1, 16, None, 1),
            (6, 1, 16, None, 8),  # F(6, 3): t = 8, the largest Kronecker tile
            (4, 2, 16, None, 8),
            (6, 2, 16, None, 1),
            (4, 1, 14, None, 8),  # out_h % m != 0: a cropped tile assembly
            (6, 2, 13, None, 1),
            (4, 1, 18, 0, 8),  # pad=0, tiles cover the input: no pad copy
            (2, 2, 10, 0, 1),
        ],
    )
    def test_kronecker_runner_vs_reference(self, rng, m, groups, hw, pad, batch):
        """The float Kronecker runner (tap-major tiles, three GEMMs on the
        Hadamard layout): ``fast`` tolerance against ``reference``, and a
        planned run (binding and replay) bitwise equal to an unplanned one."""
        layer = WinogradConv2d(4, 6, kernel_size=3, m=m, padding=pad, groups=groups)
        layer.eval()
        x = rng.standard_normal((batch, 4, hw, hw)).astype(np.float32)
        planned = compile_model(layer, backend="fast")
        (step,) = [s for s in planned.steps if s.op == "winograd_conv2d"]
        assert "btk" in step.attrs and "atk" in step.attrs
        unplanned = compile_model(layer, backend="fast")
        unplanned.planning = False
        expected = compile_model(layer, backend="reference").run(x)
        out = planned.run(x)
        assert out.shape == expected.shape
        np.testing.assert_allclose(out, expected, rtol=1e-4, atol=1e-4)
        np.testing.assert_array_equal(out, unplanned.run(x))
        np.testing.assert_array_equal(planned.run(x), out)

    def test_flex_transforms_are_honoured(self, rng):
        """A flex layer's *current* (trained/perturbed) transforms are
        what gets frozen into the plan, not the Cook–Toom init."""
        layer = WinogradConv2d(4, 4, 3, m=4, flex=True)
        layer.BT.data += 0.01 * rng.standard_normal(layer.BT.shape).astype(np.float32)
        layer.AT.data += 0.01 * rng.standard_normal(layer.AT.shape).astype(np.float32)
        x = rng.standard_normal((1, 4, 12, 12)).astype(np.float32)
        assert_parity(layer, x, quantized=False)


class TestColdObserverSemantics:
    def test_uncalibrated_plan_matches_eager_across_batches(self, rng):
        """A cold quantized model calibrated eagerly on batch ``a``
        freezes its ranges there: the ``reference`` plan compiled from it
        equals eager on ``a`` and on ``b`` (quantized with ``a``'s
        ranges), and compiling left the model as it was."""
        a = rng.standard_normal((2, 4, 12, 12)).astype(np.float32)
        b = 3.0 * rng.standard_normal((2, 4, 12, 12)).astype(np.float32)

        layer = WinogradConv2d(4, 4, 3, m=2, qconfig=int8()).eval()
        assert ensure_calibrated(layer, a)
        signature = model_signature(layer)
        plan = compile_model(layer, backend="reference")
        assert model_signature(layer) == signature
        with no_grad():
            eager_a = layer(Tensor(a)).data
            eager_b = layer(Tensor(b)).data
        np.testing.assert_array_equal(plan.run(a), eager_a)
        np.testing.assert_array_equal(plan.run(b), eager_b)


class TestExecutorBatching:
    def test_run_many_matches_per_input_runs(self, rng):
        model = lenet(spec=ConvSpec("F2"))
        model.eval()
        plan = compile_model(model, backend="fast")
        inputs = [
            rng.standard_normal((3, 1, 28, 28)).astype(np.float32) for _ in range(4)
        ]
        batched = plan.run_many(inputs)
        assert len(batched) == 4
        for x, out in zip(inputs, batched):
            np.testing.assert_allclose(out, plan.run(x), rtol=1e-5, atol=1e-5)

    def test_run_many_rejects_mismatched_shapes(self, rng):
        model = lenet(spec=ConvSpec("im2row"))
        model.eval()
        plan = compile_model(model)
        with pytest.raises(ValueError):
            plan.run_many(
                [
                    rng.standard_normal((1, 1, 28, 28)).astype(np.float32),
                    rng.standard_normal((1, 1, 14, 14)).astype(np.float32),
                ]
            )

    def test_tensor_call_interface(self, rng):
        model = lenet(spec=ConvSpec("im2row"))
        model.eval()
        plan = compile_model(model)
        x = rng.standard_normal((2, 1, 28, 28)).astype(np.float32)
        np.testing.assert_array_equal(plan(Tensor(x)), plan.run(x))
