"""The native integer-arithmetic ``int8`` backend.

Contract (ISSUE 3):

* **Exactness** — every GEMM runs over integer-valued float arrays whose
  partial sums were proven ≤ the dtype mantissa bound at compile time,
  so the float GEMM is exact.  Proven here at the actual model shapes by
  monkeypatching the GEMM hook with an int64 matmul: outputs must be
  *bit-identical*.  ``INT8_STRICT`` additionally asserts every
  accumulator stays inside its compile-time bound during these runs.
* **Grid consistency vs reference** — the int8 path composes the same
  rint/clip grids in exact integer arithmetic, where the reference
  backend composes them through float32 GEMMs.  Values landing within a
  float32 ulp of a quantization-bin boundary may therefore snap
  differently (the same trade production int8 engines make against
  their training frameworks), so model-level parity is judged against the quantization grid — tight
  relative tolerance, tiny mismatch mass, identical argmax — not
  bitwise.  Single quantized layers and pure-im2row models are
  empirically bit-identical to reference.
* **Per-tap grids** — directly handed-off Winograd pairs refine to
  per-tap transform-domain grids that keep every tap's representable
  range; those steps are pinned by int64-oracle exactness and reported
  by ``int8_report()``, ``describe()`` and ``repro compile --inspect``.
* **Fallbacks** — float models and ineligible steps (flex transforms,
  partially-disabled stages) execute through the fast→reference
  chain; cold-compiled plans run the fast path until their ranges freeze
  and then switch to native integer execution.
"""

import json

import numpy as np
import pytest

import repro.engine.kernels as kernels
from repro.autograd import Tensor, no_grad
from repro.engine import compile_model
from repro.engine.artifact import load_plan, save_plan
from repro.engine.int8 import dyadic_exponent
from repro.engine.registry import registry
from repro.models.common import ConvSpec
from repro.models.lenet import lenet
from repro.models.resnet import resnet18
from repro.models.resnext import resnext20
from repro.models.squeezenet import squeezenet
from repro.nn.layers import Conv2d, Linear
from repro.nn.qlayers import QuantConv2d, QuantLinear
from repro.quant.qconfig import fp32, int8
from repro.testing.modelgen import generate_model
from repro.testing.oracle import exact_int64_matmul, int8_oracle_output
from repro.winograd.layer import WinogradConv2d


@pytest.fixture
def strict_bounds(monkeypatch):
    monkeypatch.setattr(kernels, "INT8_STRICT", True)


def calibrated(model, x):
    model.eval()
    with no_grad():
        model(Tensor(x))
    return model


def parity_models(rng):
    return [
        ("lenet-F2", lenet(spec=ConvSpec("F2", int8())),
         rng.standard_normal((2, 1, 28, 28)).astype(np.float32)),
        ("resnet-F4", resnet18(width_multiplier=0.125, spec=ConvSpec("F4", int8())),
         rng.standard_normal((2, 3, 32, 32)).astype(np.float32)),
        ("resnet-im2row", resnet18(width_multiplier=0.125, spec=ConvSpec("im2row", int8())),
         rng.standard_normal((2, 3, 32, 32)).astype(np.float32)),
        ("squeezenet-F2", squeezenet(width_multiplier=0.25, spec=ConvSpec("F2", int8())),
         rng.standard_normal((2, 3, 32, 32)).astype(np.float32)),
        ("resnext-F2", resnext20(width_multiplier=0.5, spec=ConvSpec("F2", int8())),
         rng.standard_normal((2, 3, 32, 32)).astype(np.float32)),
    ]


class TestExactness:
    def test_bit_identical_to_int64_oracle_on_parity_models(self, rng, strict_bounds):
        """The float-GEMM integer path must equal exact int64 arithmetic
        bit for bit on every tier-1 parity model — this is the proof that
        the compile-time accumulator bounds make the fast path exact."""
        for name, model, x in parity_models(rng):
            calibrated(model, x)
            native = compile_model(model, backend="int8").run(x)
            original = kernels._int8_matmul
            kernels._int8_matmul = exact_int64_matmul
            try:
                oracle = compile_model(model, backend="int8").run(x)
            finally:
                kernels._int8_matmul = original
            np.testing.assert_array_equal(
                native, oracle, err_msg=f"{name}: float GEMM not exact"
            )

    def test_single_quantized_layers_bitwise_vs_reference(self, rng, strict_bounds):
        """One quantized layer composes through a single grid per stage:
        conv/linear agree with the reference backend bit for bit."""
        x = rng.standard_normal((2, 4, 16, 16)).astype(np.float32)
        layers = [
            QuantConv2d(Conv2d(4, 6, 1), int8()),
            QuantConv2d(Conv2d(4, 6, 3, padding=1), int8()),
            QuantConv2d(Conv2d(4, 8, 3, padding=1, groups=2), int8()),
            QuantConv2d(Conv2d(4, 6, 3, stride=2, padding=1), int8()),
        ]
        for layer in layers:
            calibrated(layer, x)
            ref = compile_model(layer, backend="reference").run(x)
            out = compile_model(layer, backend="int8").run(x)
            np.testing.assert_array_equal(out, ref)
        linear = calibrated(QuantLinear(Linear(12, 5), int8()),
                            rng.standard_normal((3, 12)).astype(np.float32))
        xl = rng.standard_normal((3, 12)).astype(np.float32)
        np.testing.assert_array_equal(
            compile_model(linear, backend="int8").run(xl),
            compile_model(linear, backend="reference").run(xl),
        )

    @pytest.mark.parametrize("m,r", [(2, 3), (4, 3), (6, 3), (2, 5), (4, 5), (6, 5)])
    def test_winograd_tile_grid_vs_reference(self, rng, m, r, strict_bounds):
        """Every supported F(m, r): grid-consistent with reference (at
        most a few bin flips at float32 rounding boundaries), and exactly
        equal to the int64 oracle composition."""
        layer = WinogradConv2d(4, 6, kernel_size=r, m=m, qconfig=int8())
        x = rng.standard_normal((2, 4, 16, 16)).astype(np.float32)
        calibrated(layer, x)
        ref = compile_model(layer, backend="reference").run(x)
        out = compile_model(layer, backend="int8").run(x)
        scale = float(np.abs(ref).max())
        assert out.shape == ref.shape
        # bin flips move an output by whole grid steps; bound their
        # count and size instead of demanding bitwise float equality
        mismatch = float((out != ref).mean())
        assert mismatch <= 0.02, f"too many grid flips: {mismatch:.4f}"
        np.testing.assert_allclose(out, ref, rtol=0, atol=0.02 * scale)


class TestModelGridConsistency:
    def test_grid_flips_are_boundary_justified(self, rng):
        """Every place the int8 path's quantization decisions differ from
        the reference composition, the *exactly-composed* rint argument
        must sit at a half-integer bin boundary (within float32 rounding
        of one) — i.e. both decisions quantize a boundary value, they
        just break the tie from opposite sides.  A wrong multiplier,
        scale or layout would flip decisions at arguments nowhere near a
        boundary, which this rejects.

        (End-to-end logits are *not* compared value-wise: these random
        smoke nets are chaotic, so one legitimate boundary flip in an
        early layer avalanches — which is why parity is pinned per grid,
        and why the int64-oracle bitwise test above is the real
        contract.)
        """
        from repro.engine.kernels import _strided_patches, fake_quant

        layer = WinogradConv2d(8, 8, 3, m=4, qconfig=int8())
        x = rng.standard_normal((2, 8, 16, 16)).astype(np.float32)
        calibrated(layer, x)
        plan = compile_model(layer, backend="int8")
        (step,) = [s for s in plan.steps if s.op == "winograd_conv2d"]
        attrs, i8 = step.attrs, step.attrs["i8"]
        q_in, q_v = attrs["q_input"], attrs["q_input_t"]
        m, r, t = attrs["m"], attrs["r"], attrs["t"]
        pad = attrs["pad"]
        n, c, h, w = x.shape
        out_h = h + 2 * pad - r + 1
        th = -(-out_h // m)
        need = th * m + r - 1
        tt, p = t * t, n * th * th

        # reference composition of the transformed-input codes
        xq = fake_quant(x.copy(), dict(q_in))
        xp = np.pad(xq, ((0, 0), (0, 0), (pad, need - h - pad), (pad, need - h - pad)))
        tiles = np.ascontiguousarray(_strided_patches(xp, t, t, m, m))
        v_ref = np.matmul(np.matmul(attrs["BT"], tiles), attrs["BT"].transpose())
        ref_codes = np.clip(
            np.rint(v_ref / np.float32(q_v["scale"])), -q_v["qmax"], q_v["qmax"]
        )
        ref_codes = np.transpose(ref_codes, (4, 5, 1, 0, 2, 3)).reshape(tt, c * p)

        # exact integer composition of the same codes
        codes = np.clip(np.rint(x / q_in["scale"]), -q_in["qmax"], q_in["qmax"])
        xpc = np.pad(codes, ((0, 0), (0, 0), (pad, need - h - pad), (pad, need - h - pad)))
        tmat = np.ascontiguousarray(
            np.transpose(_strided_patches(xpc, t, t, m, m), (4, 5, 1, 0, 2, 3))
        ).reshape(tt, c * p)
        v_int = np.matmul(i8["btk"].astype(np.float64), tmat.astype(np.float64))
        exact_args = v_int * (float(q_in["scale"]) / 4.0 ** i8["eb"]) / float(q_v["scale"])
        int_codes = np.clip(np.rint(exact_args), -q_v["qmax"], q_v["qmax"])

        flipped = int_codes != ref_codes
        if flipped.any():
            # the float32-composed reference arg wanders ~1e-4·|arg| from
            # the exact one, so "at the boundary" is relative to that; a
            # wrong multiplier would flip at uniformly random fractions
            distance_to_boundary = np.abs(
                np.abs(exact_args[flipped] - np.floor(exact_args[flipped])) - 0.5
            )
            limit = np.maximum(1e-3, 1e-3 * np.abs(exact_args[flipped]))
            assert np.all(distance_to_boundary < limit), (
                "a quantization decision flipped away from any bin boundary"
            )
        # and flips must stay rare relative to the stage size
        assert float(flipped.mean()) < 0.05

    def test_parity_model_outputs_finite(self, rng):
        for name, model, x in parity_models(rng):
            calibrated(model, x)
            out = compile_model(model, backend="int8").run(x)
            ref = compile_model(model, backend="reference").run(x)
            assert out.shape == ref.shape, name
            assert np.all(np.isfinite(out)), name

    def test_im2row_model_bitwise_vs_reference(self, rng):
        """No Winograd stages: the conv/linear integer path reproduces
        the reference backend bit for bit at model scale."""
        model = resnet18(width_multiplier=0.125, spec=ConvSpec("im2row", int8()))
        x = rng.standard_normal((2, 3, 32, 32)).astype(np.float32)
        calibrated(model, x)
        np.testing.assert_array_equal(
            compile_model(model, backend="int8").run(x),
            compile_model(model, backend="reference").run(x),
        )

    def test_fp32_model_equals_fast_backend(self, rng):
        """Float models have no quantized steps: the int8 backend must
        delegate every kernel and match ``fast`` bit for bit."""
        model = resnet18(width_multiplier=0.125, spec=ConvSpec("F4", fp32()))
        model.eval()
        x = rng.standard_normal((2, 3, 32, 32)).astype(np.float32)
        np.testing.assert_array_equal(
            compile_model(model, backend="int8").run(x),
            compile_model(model, backend="fast").run(x),
        )


class TestJunctionFusion:
    def test_resnet_plan_wires_handoffs_and_absorbs_bn(self, rng):
        model = resnet18(width_multiplier=0.125, spec=ConvSpec("F4", int8()))
        x = rng.standard_normal((2, 3, 32, 32)).astype(np.float32)
        calibrated(model, x)
        plan = compile_model(model, backend="int8")
        report = plan.int8_report()
        assert report["native_int8_steps"] >= 17  # 16 block convs + stem
        assert report["int_handoffs"] >= 8  # conv1→conv2 inside each block
        assert report["absorbed_affines"] >= 16  # every block BN folded
        # absorbed affine steps are gone from the plan entirely
        assert "affine" not in plan.ops_used()

    def test_lenet_handoff_through_pool_and_flatten(self, rng):
        """max_pool and flatten are grid-preserving: codes flow conv →
        pool → conv and conv → pool → flatten → linear."""
        model = lenet(spec=ConvSpec("F2", int8()))
        x = rng.standard_normal((2, 1, 28, 28)).astype(np.float32)
        calibrated(model, x)
        plan = compile_model(model, backend="int8")
        assert plan.int8_report()["int_handoffs"] >= 2

    def test_cold_plan_wires_no_handoffs_then_warms(self, rng):
        """A plan compiled from an uncalibrated model must not assume
        frozen grids; it runs the float fallback on the first batch
        (freezing ranges exactly like eager) and goes native after."""
        a = rng.standard_normal((2, 3, 32, 32)).astype(np.float32)
        b = 2.0 * rng.standard_normal((2, 3, 32, 32)).astype(np.float32)
        cold = resnet18(width_multiplier=0.125, spec=ConvSpec("F4", int8()))
        twin = resnet18(width_multiplier=0.125, spec=ConvSpec("F4", int8()))
        twin.load_state_dict(cold.state_dict())
        cold.eval(), twin.eval()

        plan = compile_model(cold, backend="int8")  # still cold
        assert plan.int8_report()["int_handoffs"] == 0
        ref = compile_model(twin, backend="reference")  # cold twin
        out_a, ref_a = plan.run(a), ref.run(a)  # both freeze from batch a
        # first batch runs the fast fallback: same nested grid order as
        # reference, so the frozen scales (and outputs) match exactly
        np.testing.assert_allclose(
            out_a, ref_a, rtol=0, atol=1e-4 * float(np.abs(ref_a).max())
        )
        # batch a froze every range; the next batch runs native int8
        # (kernels prepare their constants lazily on first warm call)
        out_b = plan.run(b)
        assert np.all(np.isfinite(out_b))
        native = [s for s in plan.steps if s.domain == "int8"]
        assert native and all(s.attrs["i8"]["ready"] for s in native)
        # the warm path is deterministic and no longer mutates state
        np.testing.assert_array_equal(plan.run(b), out_b)


class TestEligibilityAndBounds:
    def test_dyadic_exponents(self):
        assert dyadic_exponent(np.array([[1.0, -5.0], [0.25, 2.0]])) == 2
        assert dyadic_exponent(np.array([[1.0, 1.0 / 3.0]])) is None

    def test_flex_transforms_fall_back(self, rng):
        """Perturbed (non-dyadic) flex transforms cannot be integerised:
        the step must fall back to the float kernels, still correct."""
        layer = WinogradConv2d(4, 4, 3, m=4, flex=True, qconfig=int8())
        layer.BT.data += 0.013 * rng.standard_normal(layer.BT.shape).astype(np.float32)
        x = rng.standard_normal((2, 4, 12, 12)).astype(np.float32)
        calibrated(layer, x)
        plan = compile_model(layer, backend="int8")
        assert plan.int8_report()["native_int8_steps"] == 0
        fast = compile_model(layer, backend="fast").run(x)
        np.testing.assert_array_equal(plan.run(x), fast)

    def test_accumulator_bound_picks_float64(self, rng, strict_bounds):
        """F(6,5) tile transforms have |kron| row sums past the float32
        mantissa bound: compile must pick float64 for that GEMM and stay
        exact (int64-oracle bitwise)."""
        layer = WinogradConv2d(4, 4, kernel_size=5, m=6, qconfig=int8())
        x = rng.standard_normal((1, 4, 20, 20)).astype(np.float32)
        calibrated(layer, x)
        plan = compile_model(layer, backend="int8")
        (step,) = [s for s in plan.steps if s.op == "winograd_conv2d"]
        dt_v = step.attrs["i8"]["dts"][0]
        assert dt_v is np.float64
        out = plan.run(x)
        assert np.all(np.isfinite(out))

    def test_partially_disabled_stages_fall_back(self, rng):
        """No weight-transform grid ⇒ transform-domain weights are not
        integer codes ⇒ the Winograd step cannot run natively."""
        layer = WinogradConv2d(4, 4, 3, m=2, qconfig=int8())
        layer.q_weight_t.bits = None  # knock out the stage entirely
        x = rng.standard_normal((1, 4, 8, 8)).astype(np.float32)
        calibrated(layer, x)
        plan = compile_model(layer, backend="int8")
        assert plan.int8_report()["native_int8_steps"] == 0
        np.testing.assert_array_equal(
            plan.run(x), compile_model(layer, backend="fast").run(x)
        )


class TestZeroRangeCalibration:
    def test_all_zero_calibration_batch(self, rng):
        """An all-zero first batch freezes the degenerate 1/qmax scale
        (quantization_scale's guard): no division by zero, finite
        outputs, and eager/reference/int8 all agree."""
        model = lenet(spec=ConvSpec("F2", int8()))
        model.eval()
        zeros = np.zeros((2, 1, 28, 28), dtype=np.float32)
        with no_grad():
            eager = model(Tensor(zeros)).data  # freezes model observers
        assert np.all(np.isfinite(eager))
        ref = compile_model(model, backend="reference").run(zeros)
        np.testing.assert_array_equal(ref, eager)
        out = compile_model(model, backend="int8").run(zeros)
        assert np.all(np.isfinite(out))
        scale = float(np.abs(ref).max()) or 1.0
        np.testing.assert_allclose(out, ref, rtol=0, atol=0.02 * scale)

    def test_cold_plan_all_zero_first_batch(self, rng):
        """Dynamic freeze from an all-zero batch inside the plan itself."""
        layer = WinogradConv2d(2, 3, 3, m=2, qconfig=int8())
        layer.eval()
        plan = compile_model(layer, backend="int8")
        zeros = np.zeros((1, 2, 8, 8), dtype=np.float32)
        first = plan.run(zeros)
        assert np.all(np.isfinite(first))
        x = rng.standard_normal((1, 2, 8, 8)).astype(np.float32)
        assert np.all(np.isfinite(plan.run(x)))


class TestIntegration:
    def test_registry_fallback_chain(self):
        # flatten has only a reference kernel: every backend falls back.
        assert registry.get("flatten", "int8") is registry.get("flatten", "reference")
        # concat/affine stop at their fast (arena-aware) variants.
        assert registry.get("concat", "int8") is registry.get("concat", "fast")
        assert registry.get("affine", "int8") is registry.get("affine", "fast")
        assert registry.get("winograd_conv2d", "int8").__name__ == "winograd_int8"

    def test_chunked_execution_invariance(self, rng):
        """int8 steps are batch-row independent: chunked execution must
        reproduce the unchunked result exactly."""
        model = resnet18(width_multiplier=0.125, spec=ConvSpec("F4", int8()))
        x = rng.standard_normal((6, 3, 32, 32)).astype(np.float32)
        calibrated(model, x)
        plan = compile_model(model, backend="int8")
        full = plan.run(x)
        plan.chunk_bytes = 1 << 14  # force aggressive chunking
        np.testing.assert_array_equal(plan.run(x), full)

    def test_served_variant_compiles_native(self):
        from repro.serve.registry import ModelRegistry, ModelSpec

        spec = ModelSpec.parse("lenet-F2-int8@int8")
        assert spec.backend == "int8" and spec.precision == "int8"
        registry_ = ModelRegistry()
        served = registry_.load(spec)
        assert served.plan.backend == "int8"
        # eager pre-calibration froze the model, so the plan is native
        report = served.plan.int8_report()
        assert report["native_int8_steps"] >= 2
        assert report["int_handoffs"] >= 1
        out = served.plan.run(np.zeros((1, 1, 28, 28), dtype=np.float32))
        assert np.all(np.isfinite(out))

    def test_winas_probe_accepts_backend(self):
        from repro.nas import MixedConv2d, SearchConfig, WiNAS, wa_space

        assert SearchConfig(engine_backend="int8").engine_backend == "int8"
        op = MixedConv2d(4, 6, wa_space("int8", flex=False), seed=0)
        latencies = WiNAS._measure_candidates(op, 8, 8, backend="int8")
        assert len(latencies) == len(op.candidates)
        assert all(lat > 0 for lat in latencies)


class TestPerTap:
    @pytest.fixture(scope="class")
    def chained_int8(self):
        gm = generate_model(13)  # chained int8 corpus seed
        gm.model.eval()
        with no_grad():
            gm.model(Tensor(gm.calibration_input()))
        return gm

    @pytest.fixture(scope="class")
    def resnet_int8(self):
        from repro.serve.registry import ModelSpec, compile_served

        return compile_served(ModelSpec.parse("resnet18-w0.25-F4-int8@int8")).plan

    def test_oracle_exact(self, chained_int8, strict_bounds):
        gm = chained_int8
        x = gm.sample_input()
        plan = compile_model(gm.model, backend="int8")
        assert plan.int8_report()["per_tap_steps"]
        np.testing.assert_array_equal(plan.run(x), int8_oracle_output(gm.model, x))

    def test_per_tap_grid_preserves_representable_range(self, chained_int8):
        plan = compile_model(chained_int8.model, backend="int8")
        tapped = [s for s in plan.steps if s.attrs.get("i8", {}).get("per_tap")]
        assert tapped, "chained int8 seed should refine at least one pair"
        for step in tapped:
            i8 = step.attrs["i8"]
            fv, fh = i8["tap_fv"], i8["tap_fh"]
            assert np.all(fv <= 0) and np.all(fh <= 0)
            assert np.any(fv) or np.any(fh)
            # Finer scale 2^f is always paired with the widened clip
            # ceiling 2^-f: scale * qmax — the representable range — is
            # tap-independent, so refinement can never clip new values.
            qv = float(step.attrs["q_input_t"]["qmax"])
            qh = float(step.attrs["q_hadamard"]["qmax"])
            np.testing.assert_array_equal(np.ldexp(i8["qmax_v"].ravel(), fv), qv)
            np.testing.assert_array_equal(
                np.ldexp(i8["qmax_h"].ravel(), fh.ravel()), qh
            )

    def test_per_tap_plan_roundtrips_bitwise(self, chained_int8, tmp_path):
        gm = chained_int8
        x = gm.sample_input()
        plan = compile_model(gm.model, backend="int8")
        path = str(tmp_path / "plan.rpln")
        save_plan(plan, path, input_shape=x.shape)
        loaded = load_plan(path)
        tapped = plan.int8_report()["per_tap_steps"]
        assert tapped and loaded.int8_report()["per_tap_steps"] == tapped
        np.testing.assert_array_equal(loaded.run(x), plan.run(x))

    def test_resnet_reports_per_tap_steps(self, resnet_int8):
        tapped = resnet_int8.int8_report()["per_tap_steps"]
        # Both convs of every dense basic block hand codes off directly.
        assert tapped == [1, 2, 5, 6, 9, 10, 13, 14, 17, 18, 21, 22]
        lines = resnet_int8.describe()[1 : 1 + len(resnet_int8.steps)]
        tagged = [i for i, line in enumerate(lines) if "<int8 per-tap>" in line]
        assert tagged == tapped
        assert resnet_int8.residency_report() == []

    def test_cli_inspect_lists_per_tap_steps(self, resnet_int8, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "resnet.rpln")
        save_plan(resnet_int8, path, input_shape=(1, 3, 32, 32))
        assert main(["compile", "--inspect", path]) == 0
        summary = json.loads(capsys.readouterr().out)
        tapped = resnet_int8.int8_report()["per_tap_steps"]
        assert summary["per_tap_steps"] == tapped
        assert "residency" not in summary
        loaded = load_plan(path)
        assert loaded.int8_report()["per_tap_steps"] == tapped
        assert sum("<int8 per-tap>" in line for line in loaded.describe()) == len(tapped)
        x = np.random.default_rng(2).standard_normal((2, 3, 32, 32)).astype(np.float32)
        np.testing.assert_array_equal(loaded.run(x), resnet_int8.run(x))

    def test_cli_inspect_resolves_shared_i8_blocks(self, chained_int8, tmp_path, capsys):
        # Version-2 files written with the old residency pass shared the
        # consumer's i8 dict from the producer's step attributes, so the
        # consumer's i8 block is encoded as a __ref__ to it.
        from repro.cli import main

        plan = compile_model(chained_int8.model, backend="int8")
        tapped = plan.int8_report()["per_tap_steps"]
        producer, consumer = (plan.steps[i] for i in tapped[:2])
        producer.attrs["edge"] = {"i8": consumer.attrs["i8"]}
        path = str(tmp_path / "shared.rpln")
        save_plan(plan, path, input_shape=(1,) + chained_int8.sample_input().shape[1:])
        assert main(["compile", "--inspect", path]) == 0
        assert json.loads(capsys.readouterr().out)["per_tap_steps"] == tapped

