"""Transform-domain residency: the compiler pass that keeps
activations resident in the Winograd transform domain across
consecutive stride-1 ``winograd_conv2d`` steps.

Contracts pinned here (docs/architecture.md 'Transform-domain
residency'):

* float (``fast``, and ``int8`` on float steps): residency on vs off
  is **bitwise identical** — the pass is copy elision, never algebra;
* int8: each configuration (on and off) is bit-identical to the int64
  oracle compiled the same way; eligible edges refine to per-tap
  requant grids that preserve every tap's representable range;
* resident plans serialize (artifact format v2), keep the steady-state
  zero-allocation contract, are excluded from batch chunking, and are
  reported by ``residency_report()`` / ``describe()`` /
  ``repro compile --inspect``;
* degenerate Winograd geometry fails at plan-build time with the typed
  ``WinogradShapeError`` instead of producing empty tensors.
"""

import json
import os
import tempfile

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad
from repro.engine import compile_model
from repro.engine.artifact import FORMAT_VERSION, load_plan, save_plan
from repro.engine.kernels import WinogradShapeError, _winograd_geometry
from repro.nn.layers import ReLU
from repro.nn.module import Sequential
from repro.testing.modelgen import generate_model
from repro.testing.oracle import int8_oracle_output
from repro.winograd.layer import WinogradConv2d


def _chain(channels=6, layers=3, m=4, pad=1, seed=0, in_channels=3):
    rng = np.random.default_rng(seed)
    parts = []
    c_in = in_channels
    for _ in range(layers):
        parts.append(
            WinogradConv2d(c_in, channels, kernel_size=3, m=m, padding=pad,
                           rng=rng)
        )
        parts.append(ReLU())
        c_in = channels
    model = Sequential(*parts)
    model.eval()
    return model


class TestShapeError:
    def test_geometry_guard_is_typed(self):
        with pytest.raises(WinogradShapeError) as info:
            _winograd_geometry(2, 8, m=4, r=5, pad=0)
        assert "non-positive" in str(info.value)
        assert issubclass(WinogradShapeError, ValueError)

    def test_compile_rejects_receptive_field_underflow(self):
        # 4x4 input through one valid conv leaves 2x2 — smaller than the
        # next r=3 window, which used to plan th=0 (an empty register)
        # and explode steps later.  Now the planner refuses up front.
        model = _chain(layers=2, pad=0)
        x_shape = (1, 3, 4, 4)
        with pytest.raises(WinogradShapeError):
            compile_model(model, backend="fast").run(
                np.zeros(x_shape, np.float32)
            )

    def test_valid_geometry_untouched(self):
        out_h, out_w, th, tw = _winograd_geometry(8, 12, m=4, r=3, pad=1)
        assert (out_h, out_w, th, tw) == (8, 12, 2, 3)


class TestFloatResidency:
    def test_pass_wires_chain_edges(self):
        plan = compile_model(_chain(layers=3), backend="fast")
        edges = plan.residency_report()
        assert len(edges) == 2
        for edge in edges:
            assert edge["producer"] < edge["consumer"]
            assert edge["tile"].startswith("F(")
            assert edge["per_tap"] is False
        assert any("transform domain" in line
                   for line in plan.describe())

    def test_residency_is_bitwise_copy_elision(self):
        # The load-bearing float contract: identical arithmetic order,
        # so on vs off is bitwise — across mixed tile sizes, pad=0
        # (aligned) edges, and non-square inputs.
        rng = np.random.default_rng(3)
        parts = [
            WinogradConv2d(3, 6, kernel_size=3, m=4, padding=1, rng=rng),
            ReLU(),
            WinogradConv2d(6, 5, kernel_size=3, m=2, padding=0, rng=rng),
            ReLU(),
            WinogradConv2d(5, 4, kernel_size=3, m=4, padding=1, rng=rng),
        ]
        model = Sequential(*parts)
        model.eval()
        x = rng.standard_normal((2, 3, 13, 17)).astype(np.float32)
        on = compile_model(model, backend="fast")
        assert len(on.residency_report()) == 2
        off = compile_model(model, backend="fast", residency=False)
        np.testing.assert_array_equal(on.run(x), off.run(x))
        np.testing.assert_array_equal(
            compile_model(model, backend="int8").run(x), on.run(x)
        )

    def test_resident_steps_excluded_from_chunking(self):
        model = _chain(layers=3)
        x = np.random.default_rng(5).standard_normal((4, 3, 16, 16)).astype(
            np.float32
        )
        plan = compile_model(model, backend="fast")
        serial = plan.run(x)
        plan.chunk_bytes = 1 << 10  # absurdly small: chunk everything else
        np.testing.assert_array_equal(plan.run(x, threads=2), serial)

    def test_zero_steady_state_allocations(self):
        model = _chain(layers=3)
        plan = compile_model(model, backend="fast")
        x = np.zeros((2, 3, 16, 16), np.float32)
        plan.run(x)  # cold run builds the arena
        plan.run(x)  # warm run must not allocate — taps live in the plan
        report = plan.memory_report(batch=2)
        assert report["steady_state_allocations"] == 0

    def test_quantized_fast_declines(self):
        # Quantized steps on the float backends keep grid-order
        # preservation (and fast has no Kronecker factors there), so the
        # pass must decline rather than approximate.
        gm = generate_model(8)  # chained int10 corpus seed
        gm.model.eval()
        with no_grad():
            gm.model(Tensor(gm.calibration_input()))
        plan = compile_model(gm.model, backend="fast")
        assert plan.residency_report() == []


class TestInt8Residency:
    @pytest.fixture(scope="class")
    def chained_int8(self):
        gm = generate_model(13)  # chained int8 corpus seed
        gm.model.eval()
        with no_grad():
            gm.model(Tensor(gm.calibration_input()))
        return gm

    def test_oracle_exact_both_configurations(self, chained_int8):
        gm = chained_int8
        x = gm.sample_input()
        on = compile_model(gm.model, backend="int8")
        assert len(on.residency_report()) >= 1
        np.testing.assert_array_equal(on.run(x), int8_oracle_output(gm.model, x))
        off = compile_model(gm.model, backend="int8", residency=False)
        np.testing.assert_array_equal(
            off.run(x), int8_oracle_output(gm.model, x, residency=False)
        )

    def test_per_tap_grid_preserves_representable_range(self, chained_int8):
        plan = compile_model(chained_int8.model, backend="int8")
        tapped = [e for e in plan.residency_report() if e["per_tap"]]
        assert tapped, "chained int8 seed should refine at least one edge"
        consumers = [
            s for s in plan.steps if "resident_src" in s.attrs
            and s.attrs["resident_src"].get("per_tap")
        ]
        for step in consumers:
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


class TestArtifactRoundTrip:
    def test_format_version_is_2(self):
        assert FORMAT_VERSION == 2

    def test_resident_plan_roundtrips_bitwise(self):
        model = _chain(layers=3)
        x = np.random.default_rng(9).standard_normal((2, 3, 16, 16)).astype(
            np.float32
        )
        plan = compile_model(model, backend="fast")
        assert len(plan.residency_report()) == 2
        expected = plan.run(x)
        fd, path = tempfile.mkstemp(suffix=".rpln")
        os.close(fd)
        try:
            save_plan(plan, path, input_shape=x.shape)
            loaded = load_plan(path)
            # The shared producer/consumer edge dict must come back as
            # one object, not two copies — otherwise the runtime (h, w)
            # handoff between the two steps breaks.
            assert len(loaded.residency_report()) == 2
            np.testing.assert_array_equal(loaded.run(x), expected)
        finally:
            os.unlink(path)

    def test_cli_inspect_prints_residency_edges(self, capsys):
        from repro.cli import main

        model = _chain(layers=3)
        plan = compile_model(model, backend="fast")
        fd, path = tempfile.mkstemp(suffix=".rpln")
        os.close(fd)
        try:
            save_plan(plan, path, input_shape=(2, 3, 16, 16))
            assert main(["compile", "--inspect", path]) == 0
        finally:
            os.unlink(path)
        summary = json.loads(capsys.readouterr().out)
        assert summary["format_version"] == FORMAT_VERSION
        assert len(summary["residency"]) == 2
        for edge in summary["residency"]:
            assert edge["producer"] < edge["consumer"]
            assert edge["tile"].startswith("F(")
