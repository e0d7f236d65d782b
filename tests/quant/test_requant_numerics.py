"""Requantization numerics of the native int8 backend.

The contract: the fused requant (scale-product multiplier + rounding on
the integer accumulator, in place) must reproduce the dequantize →
``fake_quant`` round trip **bit for bit** — same grid decisions, same
elementwise float operations — for every bit-width the pipeline supports
(4…8 in these tests, matching the paper's quantization-diversity range),
including negative accumulators and clip saturation.

A stage with no bias inside it may instead requantize with one multiply
``clip(rint(acc · M))``, but only with an ``M`` that
``requant_multiplier`` proved equal to the two-op form on every integer
accumulator within the stage's bound; brute force over the whole range
checks that proof here.

Plus the zero-range calibration guards: an all-zero calibration batch
must freeze the harmless ``1/qmax`` default scale rather than divide by
zero (``quantization_scale`` guard + explicit ``stage_scale`` guard).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.kernels import (
    _quantize_codes,
    _requant_codes,
    _requant_stage,
    fake_quant,
)
from repro.engine.int8 import requant_multiplier
from repro.quant.quantizer import quantization_scale


def reference_requant(acc, d, scale, qmax, bias=None):
    """The dequantize → fake-quant composition the kernel must match."""
    y = acc * d
    if bias is not None:
        y = y + bias
    grid_values = fake_quant(y, {"scale": scale, "qmax": qmax})
    return grid_values


def compose_back(codes, scale):
    """Codes → grid values with fake_quant's own multiply-back op."""
    values = codes.copy()
    values *= scale
    return values


scales = st.floats(min_value=1e-6, max_value=1e4, allow_nan=False)


class TestRequantMatchesFakeQuant:
    @settings(max_examples=50, deadline=None)
    @given(
        bits=st.integers(min_value=4, max_value=8),
        d=scales,
        s=scales,
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_bit_for_bit_across_bit_widths(self, bits, d, s, seed):
        qmax = float(2 ** (bits - 1) - 1)
        rng = np.random.default_rng(seed)
        # accumulators spanning the in-range region and deep saturation
        acc = rng.integers(-(2**20), 2**20, size=257).astype(np.float32)
        expected = reference_requant(acc.copy(), d, s, qmax)
        codes = _requant_codes(acc.copy(), _requant_stage(d, {"scale": s, "qmax": qmax}, acc.dtype))
        assert np.all(np.abs(codes) <= qmax)
        np.testing.assert_array_equal(compose_back(codes, s), expected)

    @settings(max_examples=25, deadline=None)
    @given(
        bits=st.integers(min_value=4, max_value=8),
        d=scales,
        s=scales,
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_bias_rides_inside_the_requant(self, bits, d, s, seed):
        """QuantConv2d/QuantLinear add bias before the output stage; the
        int8 path folds it between the multiplier and the rounding."""
        qmax = float(2 ** (bits - 1) - 1)
        rng = np.random.default_rng(seed)
        acc = rng.integers(-(2**16), 2**16, size=(37, 5)).astype(np.float32)
        bias = rng.standard_normal(5).astype(np.float32)
        expected = reference_requant(acc.copy(), d, s, qmax, bias=bias)
        codes = _requant_codes(
            acc.copy(), _requant_stage(d, {"scale": s, "qmax": qmax}, acc.dtype, bias=bias)
        )
        np.testing.assert_array_equal(compose_back(codes, s), expected)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_saturation_and_negatives(self, dtype):
        """Deep clip saturation on both sides, including the extremes."""
        qmax = 127.0
        acc = np.array([-(2**23), -129, -128, -127, -1, 0, 1, 127, 128, 2**23],
                       dtype=dtype)
        d, s = 1.0, 1.0
        expected = reference_requant(acc.copy(), d, s, qmax)
        codes = _requant_codes(acc.copy(), _requant_stage(d, {"scale": s, "qmax": qmax}, acc.dtype))
        np.testing.assert_array_equal(compose_back(codes, s).astype(dtype), expected)
        assert codes[0] == -qmax and codes[-1] == qmax

    def test_float64_accumulators(self):
        """Accumulators past the float32 bound run the same contract in
        float64 (the dtype the compile-time bound analysis picks)."""
        rng = np.random.default_rng(7)
        acc = rng.integers(-(2**40), 2**40, size=999).astype(np.float64)
        d, s, qmax = 3.7e-7, 0.011, 127.0
        expected = reference_requant(acc.copy(), d, s, qmax)
        codes = _requant_codes(acc.copy(), _requant_stage(d, {"scale": s, "qmax": qmax}, acc.dtype))
        np.testing.assert_array_equal(compose_back(codes, s), expected.astype(np.float64))

    @settings(max_examples=25, deadline=None)
    @given(s=scales, seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_quantize_codes_matches_fake_quant_decisions(self, s, seed):
        """The activation prologue (float → codes) makes exactly the
        fake_quant grid decisions, minus the multiply back."""
        qmax = 127.0
        rng = np.random.default_rng(seed)
        x = (100.0 * rng.standard_normal(511)).astype(np.float32)
        grid_values = fake_quant(x.copy(), {"scale": s, "qmax": qmax})
        codes = _quantize_codes(x, {"scale": s, "qmax": qmax})
        np.testing.assert_array_equal(compose_back(codes, s), grid_values)


def two_op_codes(acc, d, s, qmax):
    """Brute-force ``clip(rint((acc · d) / s))`` in ``acc``'s dtype."""
    scalar = acc.dtype.type
    return np.clip(np.rint((acc * scalar(d)) / scalar(s)), -qmax, qmax)


def chosen_codes(acc, d, s, qmax, bound):
    """The codes of the form the int8 backend runs for this stage, and
    whether that form is the one multiply."""
    mul = requant_multiplier(d, s, qmax, bound, acc.dtype.type)
    stage = _requant_stage(d, {"scale": s, "qmax": qmax}, acc.dtype, mul=mul)
    return _requant_codes(acc.copy(), stage), mul is not None


def draw_stage(seed, qmax, bound):
    """A seeded ``(d, s)`` whose codes span the grid and saturate."""
    rng = np.random.default_rng(seed)
    d = float(10 ** rng.uniform(-5, -1))
    return d, d * bound / (qmax * rng.uniform(0.5, 4.0))


class TestVerifiedMultiplier:
    @pytest.mark.parametrize("qmax", [7.0, 127.0])
    def test_chosen_form_matches_every_accumulator(self, qmax):
        """Over a seeded grid of stages with float32 accumulators and
        bounds up to 2^20, the chosen form equals the two-op form on
        every integer in ``[-B, B]``; most stages get the one multiply."""
        multiplied = 0
        for seed in range(12):
            bound = float(2 ** int(np.random.default_rng(100 + seed).integers(8, 21)))
            d, s = draw_stage(seed, qmax, bound)
            acc = np.arange(-bound, bound + 1, dtype=np.float32)
            codes, one_mul = chosen_codes(acc, d, s, qmax, bound)
            np.testing.assert_array_equal(codes, two_op_codes(acc, d, s, qmax))
            multiplied += one_mul
        assert multiplied >= 10

    def test_float64_stage(self):
        bound = float(2**20)
        d, s = 3.7e-7, 3.7e-7 * bound / 200.0
        acc = np.arange(-bound, bound + 1, dtype=np.float64)
        codes, one_mul = chosen_codes(acc, d, s, 127.0, bound)
        assert one_mul
        np.testing.assert_array_equal(codes, two_op_codes(acc, d, s, 127.0))

    def test_no_exact_multiplier_keeps_two_op_form(self):
        """Near the float32 bound 2^24 the search finds no ``M``: the
        stage keeps the two-op form, and the nearest candidate
        ``fl(d / s)`` would indeed change a code."""
        bound, qmax = float(2**24), 127.0
        seed = next(
            seed for seed in range(20)
            if requant_multiplier(*draw_stage(seed, qmax, bound), qmax, bound, np.float32)
            is None
        )
        d, s = draw_stage(seed, qmax, bound)
        stage = _requant_stage(d, {"scale": s, "qmax": qmax}, np.float32)
        assert stage[2] is not None  # the divide by the stage scale stays
        m0 = np.float32(d) / np.float32(s)
        witness = None
        for lo in range(-(2**24), 2**24 + 1, 2**21):
            acc = np.arange(lo, min(lo + 2**21, 2**24 + 1), dtype=np.float32)
            two_op = two_op_codes(acc, d, s, qmax)
            differs = np.clip(np.rint(acc * m0), -qmax, qmax) != two_op
            if differs.any():
                witness = acc[differs]
                codes, one_mul = chosen_codes(acc, d, s, qmax, bound)
                assert not one_mul
                np.testing.assert_array_equal(codes, two_op)
                break
        assert witness is not None


class TestZeroRangeGuards:
    def test_quantization_scale_guards_zero_and_nonfinite(self):
        assert quantization_scale(0.0, 8) == 1.0 / 127.0
        assert quantization_scale(-1.0, 8) == 1.0 / 127.0
        assert quantization_scale(float("nan"), 8) == 1.0 / 127.0
        assert quantization_scale(float("inf"), 8) == 1.0 / 127.0

    def test_fake_quant_dynamic_freeze_on_all_zero_batch(self):
        """An all-zero calibration batch must freeze the 1/qmax default,
        not a zero scale, and the plan compiled from it stays finite."""
        from repro.engine import compile_model
        from repro.models.common import ConvSpec
        from repro.quant import ensure_calibrated
        from repro.quant.qconfig import int8

        layer = ConvSpec("im2row", int8()).build(3, 4, kernel_size=3)
        zeros = np.zeros((4, 3, 8, 8), dtype=np.float32)
        assert ensure_calibrated(layer, zeros)
        assert layer.q_input.scale == 1.0 / 127.0  # the guarded default
        plan = compile_model(layer, backend="fast")
        assert plan.steps[0].attrs["q_input"]["scale"] == 1.0 / 127.0
        assert np.all(np.isfinite(plan.run(zeros)))
        # later non-zero batches quantize with the frozen range, finitely
        x = np.ones((2, 3, 8, 8), dtype=np.float32)
        assert np.all(np.isfinite(plan.run(x)))

    def test_fake_quant_guards_degenerate_frozen_scale(self):
        """A frozen stage dict carrying a zero/non-finite scale (however
        it got there) must not divide by zero."""
        x = np.linspace(-2, 2, 11, dtype=np.float32)
        for bad in (0.0, -1.0, float("nan")):
            out = fake_quant(x.copy(), {"scale": bad, "qmax": 127.0})
            assert np.all(np.isfinite(out))

    def test_requant_and_quantize_guard_degenerate_scale(self):
        acc = np.arange(-5, 6).astype(np.float32)
        codes = _requant_codes(
            acc.copy(), _requant_stage(1.0, {"scale": 0.0, "qmax": 127.0}, acc.dtype)
        )
        assert np.all(np.isfinite(codes))
        codes = _quantize_codes(acc.copy(), {"scale": 0.0, "qmax": 127.0})
        assert np.all(np.isfinite(codes))
