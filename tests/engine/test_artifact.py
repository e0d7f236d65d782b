"""Compiled-plan artifact tests: round-trip fidelity + rejection policy.

The format contract lives in docs/artifact-format.md; these tests pin
its two normative halves:

* **Fidelity** — a saved-then-mmap-loaded plan is *bitwise identical* in
  output to the plan it was serialized from, on the reference oracle and
  the native int8 backend, and shared attribute dicts (the int8 backend's
  producer→consumer quantization handoffs) keep their object identity
  through the round trip.
* **Rejection** — truncated, corrupted, wrong-version, and wrong-magic
  files all fail with the documented typed error, never with a crash or
  a silently wrong plan ('Compatibility and rejection policy').
"""

import os
import re
import struct

import numpy as np
import pytest

from repro.engine import compile_model
from repro.engine.artifact import (
    EXTENSION,
    FORMAT_VERSION,
    HEADER,
    MAGIC,
    ArtifactCorruptError,
    ArtifactError,
    ArtifactFormatError,
    ArtifactSaveError,
    ArtifactTruncatedError,
    ArtifactVersionError,
    content_hash,
    load_plan,
    read_manifest,
    save_plan,
)
from repro.engine.plan import MIN_LANE_ROWS, CompiledPlan, Step
from repro.engine.registry import BACKENDS
from repro.quant import ensure_calibrated
from repro.testing.modelgen import generate_model

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

#: Corpus seeds: 0 is fp32, 1 is int8 (asserted below so a modelgen
#: change cannot silently drop the quantized leg).
FP32_SEED, INT8_SEED = 0, 1


@pytest.fixture(scope="module")
def fp32_case():
    gm = generate_model(FP32_SEED)
    assert not gm.quantized
    plan = compile_model(gm.model, backend="reference")
    return gm, plan


@pytest.fixture(scope="module")
def int8_case():
    gm = generate_model(INT8_SEED)
    assert gm.quantized
    gm.model.eval()
    ensure_calibrated(gm.model, gm.calibration_input())
    plan = compile_model(gm.model, backend="int8")
    return gm, plan


def _saved(tmp_path, plan, x, name="plan"):
    path = str(tmp_path / f"{name}{EXTENSION}")
    summary = save_plan(plan, path, input_shape=x.shape)
    return path, summary


def _rewrite_manifest(path, edit):
    """Apply ``edit`` to the saved manifest and re-hash the file, as a
    writer of that manifest would have (the manifest is the last
    section, so the tensor segments keep their offsets)."""
    import hashlib
    import json

    data = open(path, "rb").read()
    fields = list(HEADER.unpack_from(data))
    manifest_off, manifest_len = fields[4], fields[5]
    manifest = json.loads(data[manifest_off : manifest_off + manifest_len])
    edit(manifest)
    body = json.dumps(manifest, separators=(",", ":")).encode()
    data = data[:manifest_off] + body
    fields[3], fields[5] = len(data), len(body)
    fields[6] = hashlib.sha256(data[HEADER.size :]).digest()
    open(path, "wb").write(HEADER.pack(*fields) + data[HEADER.size :])


def _pre_channels_last(plan):
    """Rebuild ``plan`` (channels-last, compiled by this build) as a plan
    saved before channels-last int8 plans existed: transposes removed,
    layout marks dropped, native weights back in their earlier layouts
    and epilogue constants one per channel.  Mutates ``plan``'s steps."""
    transposes = [s for s in plan.steps if s.op == "transpose"]
    source = {s.output: s.inputs[0] for s in transposes}
    steps = [s for s in plan.steps if s.op != "transpose"]
    for step in steps:
        attrs = step.attrs
        attrs.pop("layout", None)
        step.inputs = tuple(source.get(r, r) for r in step.inputs)
        i8 = attrs.get("i8")
        if step.domain != "int8" or not isinstance(i8, dict):
            continue
        epi = i8.get("epi")
        if epi is not None:  # K channel constants, not repeated
            k = attrs.get("out_channels") or attrs["weight"].shape[0]
            epi["A"] = epi["A"][:k].copy()
            epi["B"] = None if epi["B"] is None else epi["B"][:k].copy()
        if step.op == "winograd_conv2d":
            i8["u2q"] = np.ascontiguousarray(np.swapaxes(i8["u2q"], 3, 4))
        elif step.op == "conv2d":
            k, cg, kh, kw = attrs["weight"].shape
            g = attrs["groups"]
            wq = i8.pop("wq_mat")  # (g, kh·kw·C/g, K/g), (kh, kw, C) rows
            if (kh, kw, g) == (1, 1, 1) and attrs["stride"] == (1, 1) and (
                attrs["padding"] == (0, 0)
            ):
                i8["wq_1x1"] = np.ascontiguousarray(wq[0].T)  # (K, C)
                continue
            wq = np.transpose(wq.reshape(g, kh, kw, cg, k // g), (0, 3, 1, 2, 4))
            wq = wq.reshape(g, cg * kh * kw, k // g)
            i8["wq_mat"] = np.ascontiguousarray(wq[0] if g == 1 else wq)
    return CompiledPlan(
        steps=steps,
        num_regs=min(source, default=plan.num_regs),
        input_reg=plan.input_reg,
        output_reg=plan.output_reg,
        backend="int8",
        signature=plan.signature,
    )


@pytest.fixture(scope="module")
def resnet_int8():
    from repro.serve.registry import ModelSpec, compile_served

    return compile_served(ModelSpec.parse("resnet18-w0.25-F4-int8@int8")).plan


class TestRoundTrip:
    def test_reference_bitwise(self, tmp_path, fp32_case):
        gm, plan = fp32_case
        x = gm.sample_input()
        path, summary = _saved(tmp_path, plan, x)
        loaded = load_plan(path)
        np.testing.assert_array_equal(loaded.run(x), plan.run(x))
        assert loaded.backend == plan.backend
        assert loaded.signature == plan.signature
        assert len(loaded.steps) == len(plan.steps) == summary["steps"]

    def test_int8_bitwise_including_chunked_threaded(self, tmp_path, int8_case):
        gm, plan = int8_case
        x = gm.sample_input()
        path, _ = _saved(tmp_path, plan, x)
        loaded = load_plan(path)
        expected = plan.run(x)
        np.testing.assert_array_equal(loaded.run(x), expected)
        # mmap'd weight views are read-only; a run split into lanes must
        # work on them without copying or mutation.
        x = gm.sample_input(batch=2 * MIN_LANE_ROWS)
        np.testing.assert_array_equal(
            loaded.run(x, threads=2), plan.run(x, threads=1)
        )

    def test_shared_attr_dicts_keep_identity(self, tmp_path, int8_case):
        # The int8 backend wires integer handoffs by *sharing* dicts
        # between a producer's emitted-q attrs and its consumer's
        # q_input attrs; the decoder must reconstruct one object, not
        # equal copies (docs/artifact-format.md 'Attribute encoding').
        gm, plan = int8_case
        x = gm.sample_input()
        path, _ = _saved(tmp_path, plan, x)
        loaded = load_plan(path)

        def shared_pairs(steps):
            ids = {}
            pairs = set()

            def walk(value, where):
                if isinstance(value, dict):
                    first = ids.setdefault(id(value), where)
                    if first != where:
                        pairs.add((first, where))
                        return  # already walked via its first occurrence
                    for key, item in value.items():
                        walk(item, where + (key,))
                elif isinstance(value, (list, tuple)):
                    for i, item in enumerate(value):
                        walk(item, where + (i,))

            for si, step in enumerate(steps):
                walk(step.attrs, (si,))
            return pairs

        original, roundtripped = shared_pairs(plan.steps), shared_pairs(loaded.steps)
        assert original, "int8 corpus model should share q dicts across steps"
        assert roundtripped == original

    @pytest.mark.parametrize("batch", [1, 8])
    def test_uniform_int8_artifact_runs_channels_last_bitwise(
        self, tmp_path, resnet_int8, batch
    ):
        # Contract 5 on the channels-last plan: the loaded plan keeps the
        # compiled step program (one input transpose, none added on load)
        # and its bits.
        x = np.random.default_rng(batch).standard_normal((batch, 3, 32, 32))
        x = x.astype(np.float32)
        path, _ = _saved(tmp_path, resnet_int8, x[:1])
        loaded = load_plan(path)
        assert [(s.op, s.inputs, s.output) for s in loaded.steps] == [
            (s.op, s.inputs, s.output) for s in resnet_int8.steps
        ]
        assert sum(s.op == "transpose" for s in loaded.steps) == 1
        np.testing.assert_array_equal(loaded.run(x), resnet_int8.run(x))

    def test_native_steps_carry_no_float_layouts(self, tmp_path, resnet_int8):
        # The fast kernels' GEMM layouts serve float steps only; a native
        # step runs on its i8 block.  An artifact that carries them on
        # native steps too (as earlier engines wrote it) loads and runs
        # bitwise equal.
        import dataclasses

        native = [s for s in resnet_int8.steps if s.domain == "int8"]
        assert {"conv2d", "winograd_conv2d"} <= {s.op for s in native}
        assert not any("u2" in s.attrs or "wmat" in s.attrs for s in native)
        steps = []
        for step in resnet_int8.steps:
            attrs = dict(step.attrs)  # shared stage dicts stay shared
            if step.op == "winograd_conv2d":
                u, g, t = attrs["u"], attrs["groups"], attrs["t"]
                k, cg = u.shape[:2]
                attrs["u2"] = np.ascontiguousarray(
                    np.transpose(u.reshape(g, k // g, cg, t, t), (3, 4, 0, 1, 2))
                )
            elif step.op == "conv2d":
                w = attrs["weight"]
                attrs["wmat"] = np.ascontiguousarray(w.reshape(w.shape[0], -1).T)
            steps.append(dataclasses.replace(step, attrs=attrs))
        old = CompiledPlan(
            steps=steps,
            num_regs=resnet_int8.num_regs,
            input_reg=resnet_int8.input_reg,
            output_reg=resnet_int8.output_reg,
            backend="int8",
            signature=resnet_int8.signature,
        )
        x = np.random.default_rng(5).standard_normal((8, 3, 32, 32)).astype(np.float32)
        path, _ = _saved(tmp_path, old, x[:1])
        lean, _ = _saved(tmp_path, resnet_int8, x[:1], name="lean")
        assert os.path.getsize(lean) < os.path.getsize(path)
        loaded = load_plan(path)
        np.testing.assert_array_equal(loaded.run(x), resnet_int8.run(x))
        np.testing.assert_array_equal(loaded.run(x[:1]), resnet_int8.run(x[:1]))

    @pytest.mark.parametrize(
        "name", ["lenet-F2-int8@int8", "squeezenet-F4-int8@int8"]
    )
    def test_pre_channels_last_artifact_loads_bitwise(self, tmp_path, name):
        # A version-2 file from before channels-last int8 plans: no
        # transpose steps, no layout marks, Winograd weights in their
        # (t, t, g, K/g, C/g) order, im2row rows in (C, kh, kw) order
        # and 1×1 stride-1 weights as a (K, C) ``wq_1x1``.  Loading lays
        # the plan out again.  SqueezeNet carries 1×1 and 3×3 im2row
        # steps, so every branch of the weight conversion runs.
        from repro.engine.cache import PlanCache
        from repro.serve.registry import ModelSpec, compile_served

        served = compile_served(ModelSpec.parse(name), cache=PlanCache())
        plan = served.plan  # mutated below
        x = np.random.default_rng(3).standard_normal((8, *served.sample_shape))
        x = x.astype(np.float32)
        expected = plan.run(x)
        program = [(s.op, s.inputs, s.output) for s in plan.steps]
        old = _pre_channels_last(plan)
        assert all(s.op != "transpose" for s in old.steps)
        if name.startswith("squeezenet"):
            i8s = [s.attrs["i8"] for s in old.steps if s.op == "conv2d"]
            assert any("wq_1x1" in i8 for i8 in i8s)
            assert any(i8.get("wq_mat", np.empty(0)).ndim == 2 for i8 in i8s)
        path, _ = _saved(tmp_path, old, x[:1])
        loaded = load_plan(path)
        assert [(s.op, s.inputs, s.output) for s in loaded.steps] == program
        np.testing.assert_array_equal(loaded.run(x), expected)
        np.testing.assert_array_equal(loaded.run(x[:1]), expected[:1])

    def test_manifest_and_content_hash(self, tmp_path, fp32_case):
        gm, plan = fp32_case
        x = gm.sample_input()
        path, summary = _saved(tmp_path, plan, x)
        manifest = read_manifest(path, verify=True)
        assert manifest["format"]["version"] == FORMAT_VERSION
        assert manifest["plan"]["backend"] == "reference"
        assert manifest["plan"]["input_shape"] == list(x.shape)
        assert content_hash(path) == summary["content_hash"]

    def test_atomic_write_leaves_no_tmp(self, tmp_path, fp32_case):
        gm, plan = fp32_case
        x = gm.sample_input()
        path, _ = _saved(tmp_path, plan, x)
        leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
        assert leftovers == []


class TestRejection:
    def test_save_rejects_unencodable_attrs(self, tmp_path):
        class Opaque:
            pass

        plan = CompiledPlan(
            steps=[Step("custom_op", (0,), 1, {"module": Opaque()}, label="Opaque")],
            num_regs=2,
            input_reg=0,
            output_reg=1,
            backend="fast",
            signature="sig",
        )
        path = tmp_path / f"bad{EXTENSION}"
        with pytest.raises(ArtifactSaveError, match="Opaque is not serializable"):
            save_plan(plan, str(path))
        assert os.listdir(tmp_path) == []

    def test_truncated_file(self, tmp_path, fp32_case):
        gm, plan = fp32_case
        x = gm.sample_input()
        path, _ = _saved(tmp_path, plan, x)
        data = open(path, "rb").read()
        open(path, "wb").write(data[: len(data) // 2])
        with pytest.raises(ArtifactTruncatedError):
            load_plan(path)

    def test_truncated_below_header(self, tmp_path, fp32_case):
        gm, plan = fp32_case
        x = gm.sample_input()
        path, _ = _saved(tmp_path, plan, x)
        data = open(path, "rb").read()
        open(path, "wb").write(data[: HEADER.size - 8])
        with pytest.raises(ArtifactTruncatedError):
            load_plan(path)

    def test_corrupted_tensor_bytes(self, tmp_path, fp32_case):
        gm, plan = fp32_case
        x = gm.sample_input()
        path, _ = _saved(tmp_path, plan, x)
        with open(path, "r+b") as fh:
            fh.seek(8192)  # inside the first tensor segment
            byte = fh.read(1)
            fh.seek(8192)
            fh.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(ArtifactCorruptError):
            load_plan(path, verify=True)

    def test_wrong_format_version(self, tmp_path, fp32_case):
        gm, plan = fp32_case
        x = gm.sample_input()
        path, _ = _saved(tmp_path, plan, x)
        with open(path, "r+b") as fh:
            fh.seek(len(MAGIC))  # the u32 version field follows the magic
            fh.write(struct.pack("<I", FORMAT_VERSION + 1))
        with pytest.raises(ArtifactVersionError, match=str(FORMAT_VERSION + 1)):
            load_plan(path)

    def test_wrong_magic(self, tmp_path, fp32_case):
        gm, plan = fp32_case
        x = gm.sample_input()
        path, _ = _saved(tmp_path, plan, x)
        with open(path, "r+b") as fh:
            fh.write(b"NOTAPLAN")
        with pytest.raises(ArtifactFormatError, match="magic"):
            load_plan(path)

    def test_retired_backend_is_typed_format_error(self, tmp_path):
        # A v2 artifact compiled for a backend this engine no longer
        # ships (the check reads only the header's name) is refused.
        gm = generate_model(FP32_SEED)
        plan = compile_model(gm.model, backend="fast")
        plan.backend = "retired"
        path, _ = _saved(tmp_path, plan, gm.sample_input())
        manifest = read_manifest(path, verify=True)
        assert manifest["format"]["version"] == FORMAT_VERSION == 2
        expected = f"unknown backend 'retired'; expected one of {BACKENDS}"
        with pytest.raises(ArtifactFormatError, match=re.escape(expected)):
            load_plan(path)

    def test_tap_wise_i8_block_is_refused(self, tmp_path, int8_case):
        # Earlier engines could save Winograd steps on tap-wise
        # transform-domain grids; this build cannot reproduce their bits,
        # so such a file is a typed format error, not a silent uniform run.
        gm, plan = int8_case
        path, _ = _saved(tmp_path, plan, gm.sample_input())

        def add_tap_grids(manifest):
            for step in manifest["steps"]:
                i8 = step["attrs"]["v"].get("i8")
                if step["op"] == "winograd_conv2d" and i8 and "btk" in i8["v"]:
                    i8["v"].update(
                        per_tap=True,
                        tap_fv={"__t__": [0, -1]},
                        tap_fh={"__t__": [0, -1]},
                        qmax_v={"__t__": [127.0, 254.0]},
                        qmax_h={"__t__": [127.0, 254.0]},
                    )
                    return
            raise AssertionError("int8 corpus plan has no native Winograd step")

        _rewrite_manifest(path, add_tap_grids)
        read_manifest(path, verify=True)  # hash and manifest are well formed
        with pytest.raises(ArtifactFormatError, match="i8 attributes"):
            load_plan(path)

    def test_unprepared_i8_block_is_refused(self, tmp_path, int8_case):
        # Earlier engines prepared a cold-compiled step's requant
        # constants on its first batch, so a plan saved before that
        # batch holds an i8 block without them (``ready`` false).  This
        # build prepares every block at compile time and has no path to
        # finish one: loading it is a typed format error, not a
        # KeyError on the first run.
        gm, plan = int8_case
        path, _ = _saved(tmp_path, plan, gm.sample_input())

        def unprepare(manifest):
            for step in manifest["steps"]:
                i8 = step["attrs"]["v"].get("i8")
                if i8 and i8["v"].get("ready"):
                    for key in ("rq_out", "epi", "d_v", "d_h"):
                        i8["v"].pop(key, None)
                    i8["v"]["ready"] = False
                    return
            raise AssertionError("int8 corpus plan has no native step")

        _rewrite_manifest(path, unprepare)
        read_manifest(path, verify=True)  # hash and manifest are well formed
        with pytest.raises(ArtifactFormatError, match="unprepared i8 block"):
            load_plan(path)

    def test_unfrozen_quantizer_stage_is_refused(self, tmp_path, int8_case):
        # Earlier engines compiled an uncalibrated activation stage as
        # ``{"dynamic_bits": b}`` and froze it on the plan's first batch,
        # so a plan saved before that batch holds a stage with no scale.
        # No kernel takes a range from the batch any more: loading it is
        # a typed format error, not a KeyError on the first request.
        gm, _ = int8_case
        plan = compile_model(gm.model, backend="reference")  # no i8 blocks
        path, _ = _saved(tmp_path, plan, gm.sample_input())

        def thaw(manifest):
            for step in manifest["steps"]:
                q = step["attrs"]["v"].get("q_input")
                if q and "__obj__" in q:
                    q["v"] = {"dynamic_bits": 8}
                    return
            raise AssertionError("int8 corpus plan has no quantized input stage")

        _rewrite_manifest(path, thaw)
        read_manifest(path, verify=True)  # hash and manifest are well formed
        with pytest.raises(ArtifactFormatError, match=r"\['q_input'\] with no frozen scale"):
            load_plan(path)

    def test_typed_errors_are_artifact_errors(self):
        for exc in (
            ArtifactFormatError,
            ArtifactVersionError,
            ArtifactTruncatedError,
            ArtifactCorruptError,
            ArtifactSaveError,
        ):
            assert issubclass(exc, ArtifactError)
