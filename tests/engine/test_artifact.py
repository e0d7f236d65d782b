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
    x = gm.calibration_input()
    from repro.autograd import Tensor, no_grad

    gm.model.eval()
    with no_grad():
        gm.model(Tensor(x))
    plan = compile_model(gm.model, backend="int8")
    plan.run(x)  # freeze any cold runtime quantizer state before saving
    return gm, plan


def _saved(tmp_path, plan, x, name="plan"):
    path = str(tmp_path / f"{name}{EXTENSION}")
    summary = save_plan(plan, path, input_shape=x.shape)
    return path, summary


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

    def test_typed_errors_are_artifact_errors(self):
        for exc in (
            ArtifactFormatError,
            ArtifactVersionError,
            ArtifactTruncatedError,
            ArtifactCorruptError,
            ArtifactSaveError,
        ):
            assert issubclass(exc, ArtifactError)
