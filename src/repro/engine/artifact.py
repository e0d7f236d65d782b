"""AOT compiled-plan artifacts: save a plan once, ``mmap`` it everywhere.

A compiled plan is pure data — a step program over a register file plus
frozen attribute dicts whose heavy entries are plain ``np.ndarray``
weights (folded BN, pre-transformed Winograd filters, integer weight
codes, requant multipliers).  This module serializes that data to a
single versioned binary file and loads it back with **read-only
memory-mapped weight views**, so a serving worker boots a servable plan
in milliseconds without importing the compiler or the model zoo — and
every worker on the host shares the weight pages copy-on-write through
the OS page cache.

The byte-level layout (header, section table, alignment rules, content
hash, and the compatibility/rejection policy) is specified normatively
in ``docs/artifact-format.md``; this module is its implementation.  In
short::

    [ 72-byte header | zero pad | page-aligned tensor segments | manifest ]

* the fixed header carries magic ``REPROPLN``, the format version, total
  file size, the manifest location, and a SHA-256 over everything after
  the header;
* every tensor segment starts on a 4096-byte (page) boundary so an
  ``mmap`` view of it is itself page-aligned and stays copy-on-write
  shareable across forked workers;
* the manifest is one JSON document holding the step program, the plan
  metadata, and the tensor table.  Attribute values round-trip through a
  tagged encoding (see :class:`_AttrEncoder`) that preserves tuples,
  NumPy dtypes/scalars, and — critically for the int8 backend — **shared
  dict identity** (a producer's ``emit_q`` *is* its consumer's
  ``q_input`` dict; the requantizer's ``q`` *is* the step's
  ``q_output``), so a loaded plan re-freezes dynamic observer ranges
  through exactly the same aliases a fresh compile would.

Loaded plans are bit-identical to freshly compiled ones on every
backend: the tensor bytes are verbatim, the kernels are resolved from
the same registry (mirroring ``compile_model``), and read-only mapping
is safe because all attribute-array mutation happens at compile time —
the int8 runtime preparation only *adds* freshly allocated arrays to the
``i8`` dicts, never writes into existing weight arrays.

Failure policy: every malformed input raises a typed
:class:`ArtifactError` subclass (wrong magic, unsupported version,
truncation, hash mismatch), never a bare struct/JSON/NumPy crash — the
serving control plane turns these into clean HTTP errors.

Typical use::

    from repro.engine.artifact import save_plan, load_plan

    save_plan(plan, "model.rpln", input_shape=(1, 3, 32, 32))
    plan = load_plan("model.rpln")          # milliseconds, no compiler
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.plan import CompiledPlan, Step
from repro.engine.registry import BACKENDS, registry

#: File magic: first 8 bytes of every plan artifact.
MAGIC = b"REPROPLN"

#: Current artifact format version.  The loader rejects any other value
#: (forward *and* backward: a version bump means the layout changed) —
#: see the compatibility policy in ``docs/artifact-format.md``.
#: Version 2: an ``i8`` block may carry per-tap scale grids
#: (``tap_fv``/``tap_fh``/``qmax_v``/``qmax_h``).  Version-2 files from
#: engines that still had the transform-domain residency pass also carry
#: its producer/consumer edge attributes; no kernel reads them, so those
#: files load and run bit-identically on their per-tap grids.
FORMAT_VERSION = 2

#: Fixed header: magic, format version, header size, total file size,
#: manifest offset, manifest length, SHA-256 of bytes [header_size, file
#: size).  Little-endian, 72 bytes.
HEADER = struct.Struct("<8sIIQQQ32s")

#: Tensor segments start on this boundary (one page on every platform we
#: target), so memory-mapped weight views are page-aligned and the OS
#: can share them copy-on-write across forked serving workers.
TENSOR_ALIGN = 4096

#: Conventional artifact file extension ("repro plan").
EXTENSION = ".rpln"


class ArtifactError(Exception):
    """Base class for every plan-artifact failure (save or load)."""


class ArtifactSaveError(ArtifactError):
    """The plan cannot be serialized (attribute values outside the
    encodable set listed in ``docs/artifact-format.md``)."""


class ArtifactFormatError(ArtifactError):
    """The file is not a well-formed plan artifact (bad magic, impossible
    offsets, undecodable manifest)."""


class ArtifactVersionError(ArtifactFormatError):
    """The artifact's format version is not the one this build reads."""


class ArtifactTruncatedError(ArtifactFormatError):
    """The file is shorter than its header claims (partial write/copy)."""


class ArtifactCorruptError(ArtifactFormatError):
    """The content hash does not match — bytes changed after writing."""


# ---------------------------------------------------------------------------
# Attribute-value encoding (manifest side)
# ---------------------------------------------------------------------------
#
# JSON carries the structure; tags carry what JSON cannot (the encoding
# table is normative in docs/artifact-format.md § Manifest):
#
#   {"__nd__": i}            np.ndarray -> index into the tensor table
#   {"__t__": [...]}         tuple (JSON arrays decode back to lists)
#   {"__dtype__": "float32"} NumPy dtype *class* (np.float32, ...)
#   {"__np__": ["int64", v]} NumPy scalar
#   {"__obj__": n, "v": {}}  first visit of a dict: defines object n
#   {"__ref__": n}           later visit of the same dict object
#
# The __obj__/__ref__ memoization preserves the object graph, not just
# the values: the int8 finalizer aliases dicts across steps (emit_q,
# rq_out["q"]) and the executor freezes dynamic observer ranges by
# mutating those dicts in place, so identity is part of the semantics.

_TAGS = ("__nd__", "__t__", "__dtype__", "__np__", "__obj__", "__ref__")


class _AttrEncoder:
    """Encodes step attribute values to tagged JSON, collecting tensors."""

    def __init__(self) -> None:
        self.tensors: List[np.ndarray] = []
        self._tensor_ids: Dict[int, int] = {}
        self._obj_ids: Dict[int, int] = {}
        # id() keys are only stable while the object lives; pin every
        # memoized object for the encoder's lifetime.
        self._pins: List[Any] = []

    def encode(self, value: Any, where: str) -> Any:
        if value is None or isinstance(value, (bool, int, float, str)):
            return value
        if isinstance(value, np.ndarray):
            return {"__nd__": self._tensor(value, where)}
        if isinstance(value, np.generic):
            return {"__np__": [value.dtype.name, value.item()]}
        if isinstance(value, type) and issubclass(value, np.generic):
            return {"__dtype__": np.dtype(value).name}
        if isinstance(value, np.dtype):
            return {"__dtype__": value.name}
        if isinstance(value, tuple):
            return {"__t__": [self.encode(v, where) for v in value]}
        if isinstance(value, list):
            return [self.encode(v, where) for v in value]
        if isinstance(value, dict):
            ref = self._obj_ids.get(id(value))
            if ref is not None:
                return {"__ref__": ref}
            ref = len(self._obj_ids)
            self._obj_ids[id(value)] = ref
            self._pins.append(value)
            encoded: Dict[str, Any] = {}
            for key, item in value.items():
                if not isinstance(key, str) or key in _TAGS:
                    raise ArtifactSaveError(
                        f"{where}: dict key {key!r} is not a plain string "
                        "(or collides with an encoding tag)"
                    )
                encoded[key] = self.encode(item, f"{where}.{key}")
            return {"__obj__": ref, "v": encoded}
        raise ArtifactSaveError(
            f"{where}: value of type {type(value).__name__} is not "
            "serializable (see docs/artifact-format.md for the attribute "
            "encoding table)"
        )

    def _tensor(self, arr: np.ndarray, where: str) -> int:
        if arr.dtype.hasobject:
            raise ArtifactSaveError(
                f"{where}: object-dtype array cannot be serialized"
            )
        index = self._tensor_ids.get(id(arr))
        if index is None:
            index = len(self.tensors)
            self._tensor_ids[id(arr)] = index
            self._pins.append(arr)
            self.tensors.append(arr)
        return index


class _AttrDecoder:
    """Inverse of :class:`_AttrEncoder` over already-loaded tensor views."""

    def __init__(self, tensors: List[np.ndarray]) -> None:
        self._tensors = tensors
        self._objects: Dict[int, dict] = {}

    def decode(self, value: Any) -> Any:
        if isinstance(value, list):
            return [self.decode(v) for v in value]
        if not isinstance(value, dict):
            return value
        if "__nd__" in value:
            return self._tensors[value["__nd__"]]
        if "__t__" in value:
            return tuple(self.decode(v) for v in value["__t__"])
        if "__dtype__" in value:
            return np.dtype(value["__dtype__"]).type
        if "__np__" in value:
            name, item = value["__np__"]
            return np.dtype(name).type(item)
        if "__ref__" in value:
            return self._objects[value["__ref__"]]
        if "__obj__" in value:
            # Install the dict before decoding its values so __ref__
            # back-edges (and any cycle) resolve to the same object.
            obj: Dict[str, Any] = {}
            self._objects[value["__obj__"]] = obj
            for key, item in value["v"].items():
                obj[key] = self.decode(item)
            return obj
        return {key: self.decode(item) for key, item in value.items()}


# ---------------------------------------------------------------------------
# Save
# ---------------------------------------------------------------------------


def save_plan(
    plan: CompiledPlan,
    path: str,
    input_shape: Optional[Sequence[int]] = None,
    extra: Optional[dict] = None,
) -> dict:
    """Serialize ``plan`` to the artifact file at ``path``.

    ``input_shape`` (optional, NCHW) is recorded in the manifest so
    :func:`load_plan` can pre-build the memory plan for the expected
    traffic shape at load time.  ``extra`` is an opaque JSON-able dict
    stored alongside (the CLI records the model spec name there).

    Returns a summary dict (file size, tensor counts, hex content hash).
    Raises :class:`ArtifactSaveError` for unserializable plans (step
    attributes outside the encodable set).

    The write is atomic: bytes go to ``path + ".tmp"`` and are renamed
    into place only when complete, so a crashed save never leaves a
    half-written artifact where a loader might find it.
    """
    encoder = _AttrEncoder()
    steps_doc = []
    for i, step in enumerate(plan.steps):
        where = f"step {i} ({step.op}{f' [{step.label}]' if step.label else ''})"
        steps_doc.append(
            {
                "op": step.op,
                "inputs": list(step.inputs),
                "output": step.output,
                "label": step.label,
                "domain": step.domain,
                "attrs": encoder.encode(step.attrs, where),
            }
        )

    # Tensor payloads: contiguous C-order bytes, page-aligned offsets.
    tensor_table = []
    offset = TENSOR_ALIGN  # first tensor starts on the first page boundary
    payloads: List[np.ndarray] = []
    for arr in encoder.tensors:
        contiguous = np.ascontiguousarray(arr)
        tensor_table.append(
            {
                "offset": offset,
                "nbytes": int(contiguous.nbytes),
                "dtype": contiguous.dtype.name,
                "shape": list(contiguous.shape),
            }
        )
        payloads.append(contiguous)
        offset += contiguous.nbytes
        offset += (-offset) % TENSOR_ALIGN

    manifest = {
        "format": {"magic": MAGIC.decode(), "version": FORMAT_VERSION,
                   "tensor_align": TENSOR_ALIGN},
        "plan": {
            "backend": plan.backend,
            "signature": plan.signature,
            "source": plan.source,
            "num_regs": plan.num_regs,
            "input_reg": plan.input_reg,
            "output_reg": plan.output_reg,
            "input_shape": list(input_shape) if input_shape is not None else None,
        },
        "steps": steps_doc,
        "tensors": tensor_table,
        "extra": extra or {},
    }
    manifest_bytes = json.dumps(manifest, separators=(",", ":")).encode()

    tmp_path = f"{path}.tmp"
    hasher = hashlib.sha256()
    with open(tmp_path, "wb") as f:
        f.write(b"\x00" * HEADER.size)  # placeholder, rewritten below

        position = HEADER.size

        def emit(data: bytes) -> None:
            nonlocal position
            f.write(data)
            hasher.update(data)
            position += len(data)

        for entry, payload in zip(tensor_table, payloads):
            emit(b"\x00" * (entry["offset"] - position))
            emit(payload.tobytes())
        emit(b"\x00" * ((-position) % TENSOR_ALIGN))
        manifest_off = position
        emit(manifest_bytes)
        file_size = position

        f.seek(0)
        f.write(
            HEADER.pack(
                MAGIC,
                FORMAT_VERSION,
                HEADER.size,
                file_size,
                manifest_off,
                len(manifest_bytes),
                hasher.digest(),
            )
        )
    os.replace(tmp_path, path)
    return {
        "path": path,
        "file_size": file_size,
        "tensors": len(tensor_table),
        "tensor_bytes": sum(t["nbytes"] for t in tensor_table),
        "steps": len(steps_doc),
        "backend": plan.backend,
        "content_hash": hasher.hexdigest(),
    }


# ---------------------------------------------------------------------------
# Load
# ---------------------------------------------------------------------------


def _read_header(raw: np.ndarray, path: str) -> Tuple[int, int, int, bytes]:
    """Validate the fixed header; returns (file_size, manifest_off,
    manifest_len, digest).  Rejection policy per docs/artifact-format.md:
    magic first, then version, then geometry."""
    if raw.size < HEADER.size:
        raise ArtifactTruncatedError(
            f"{path}: {raw.size} bytes is shorter than the "
            f"{HEADER.size}-byte artifact header"
        )
    magic, version, header_size, file_size, manifest_off, manifest_len, digest = (
        HEADER.unpack_from(bytes(raw[:HEADER.size]))
    )
    if magic != MAGIC:
        raise ArtifactFormatError(
            f"{path}: not a repro plan artifact (magic {magic!r})"
        )
    if version != FORMAT_VERSION:
        raise ArtifactVersionError(
            f"{path}: artifact format version {version} "
            f"(this build reads only version {FORMAT_VERSION})"
        )
    if header_size != HEADER.size:
        raise ArtifactFormatError(
            f"{path}: header claims {header_size} header bytes, "
            f"expected {HEADER.size}"
        )
    if raw.size < file_size:
        raise ArtifactTruncatedError(
            f"{path}: file is {raw.size} bytes but the header "
            f"records {file_size} (truncated write or copy?)"
        )
    if not (HEADER.size <= manifest_off and
            manifest_off + manifest_len <= file_size):
        raise ArtifactFormatError(
            f"{path}: manifest section [{manifest_off}, "
            f"{manifest_off + manifest_len}) falls outside the file"
        )
    return file_size, manifest_off, manifest_len, digest


def _open_mapped(path: str) -> np.ndarray:
    """The whole file as a read-only byte map (ndarray over ``mmap``)."""
    try:
        return np.memmap(path, dtype=np.uint8, mode="r")
    except FileNotFoundError:
        raise  # callers map "no such artifact" separately (HTTP 404)
    except (OSError, ValueError) as exc:
        raise ArtifactFormatError(f"{path}: cannot map artifact: {exc}") from exc


def _parse_manifest(raw: np.ndarray, off: int, length: int, path: str) -> dict:
    try:
        manifest = json.loads(bytes(raw[off:off + length]).decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArtifactFormatError(
            f"{path}: manifest is not valid JSON ({exc})"
        ) from exc
    if not isinstance(manifest, dict) or "plan" not in manifest:
        raise ArtifactFormatError(f"{path}: manifest has no plan section")
    return manifest


def _tensor_views(
    raw: np.ndarray, table: List[dict], file_size: int, path: str
) -> List[np.ndarray]:
    """Read-only ndarray views onto the mapped tensor segments.

    Each view shares the ``mmap`` pages (no copy, copy-on-write across
    forks); NumPy propagates the map's read-only flag, so a kernel bug
    that tried to write a weight would fault loudly instead of silently
    corrupting a shared page.
    """
    views = []
    for i, entry in enumerate(table):
        off, nbytes = entry["offset"], entry["nbytes"]
        if off % TENSOR_ALIGN:
            raise ArtifactFormatError(
                f"{path}: tensor {i} offset {off} is not "
                f"{TENSOR_ALIGN}-byte aligned"
            )
        if not (HEADER.size <= off and off + nbytes <= file_size):
            raise ArtifactFormatError(
                f"{path}: tensor {i} [{off}, {off + nbytes}) "
                "falls outside the file"
            )
        dtype = np.dtype(entry["dtype"])
        shape = tuple(entry["shape"])
        if int(np.prod(shape, dtype=np.int64)) * dtype.itemsize != nbytes:
            raise ArtifactFormatError(
                f"{path}: tensor {i} shape {shape} × {dtype} "
                f"does not cover {nbytes} bytes"
            )
        view = raw[off:off + nbytes].view(dtype).reshape(shape)
        views.append(view)
    return views


def content_hash(path: str) -> str:
    """The artifact's recorded SHA-256 content hash (hex), from the
    header alone — no payload read, no verification.  Serving uses a
    prefix of this as the deployment's version id."""
    raw = _open_mapped(path)
    _, _, _, digest = _read_header(raw, path)
    return digest.hex()


def read_manifest(path: str, verify: bool = False) -> dict:
    """The artifact's manifest (plan metadata, step program, tensor
    table) as a dict, without constructing a plan.

    With ``verify=True`` the SHA-256 content hash is checked first.
    Used by ``repro compile --inspect`` and the test suite.
    """
    raw = _open_mapped(path)
    file_size, manifest_off, manifest_len, digest = _read_header(raw, path)
    if verify:
        _verify_hash(raw, file_size, digest, path)
    return _parse_manifest(raw, manifest_off, manifest_len, path)


def _verify_hash(raw: np.ndarray, file_size: int, digest: bytes, path: str) -> None:
    actual = hashlib.sha256(raw[HEADER.size:file_size]).digest()
    if actual != digest:
        raise ArtifactCorruptError(
            f"{path}: content hash mismatch (expected "
            f"{digest.hex()[:16]}…, got {actual.hex()[:16]}…) — "
            "the artifact was modified after writing"
        )


def load_plan(path: str, verify: bool = True, prepare: bool = True) -> CompiledPlan:
    """Load a plan artifact into a servable :class:`CompiledPlan`.

    Weight and constant arrays are **read-only views onto the mapped
    file** — no tensor bytes are copied at load time; the OS pages them
    in on first use and shares them copy-on-write across every process
    mapping the same artifact.  Kernels are resolved from the registry
    exactly as ``compile_model`` resolves them, so a loaded plan is
    bit-identical to a freshly compiled one (pinned by the differential
    fuzz corpus's save/load/run leg).

    ``verify=True`` (default) checks the SHA-256 content hash before
    trusting any byte — a sequential read of the file, far cheaper than
    the compile it replaces; pass ``verify=False`` only where the file
    is already trusted (e.g. re-mapping in a forked worker).
    ``prepare=True`` pre-builds the arena memory plan for the manifest's
    recorded ``input_shape`` so the first request allocates nothing.

    Failure modes (all :class:`ArtifactError` subclasses; rejection
    policy in ``docs/artifact-format.md`` § Compatibility): wrong magic
    → :class:`ArtifactFormatError`; other format version →
    :class:`ArtifactVersionError`; short file →
    :class:`ArtifactTruncatedError`; hash mismatch →
    :class:`ArtifactCorruptError`.
    """
    raw = _open_mapped(path)
    file_size, manifest_off, manifest_len, digest = _read_header(raw, path)
    if verify:
        _verify_hash(raw, file_size, digest, path)
    manifest = _parse_manifest(raw, manifest_off, manifest_len, path)

    meta = manifest["plan"]
    backend = meta.get("backend")
    if backend not in BACKENDS:
        raise ArtifactFormatError(
            f"{path}: unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    tensors = _tensor_views(raw, manifest.get("tensors", []), file_size, path)
    decoder = _AttrDecoder(tensors)
    steps: List[Step] = []
    try:
        for doc in manifest["steps"]:
            attrs = decoder.decode(doc["attrs"])
            steps.append(
                Step(
                    op=doc["op"],
                    inputs=tuple(doc["inputs"]),
                    output=doc["output"],
                    attrs=attrs,
                    label=doc.get("label", ""),
                    domain=doc.get("domain", "float"),
                )
            )
    except (KeyError, IndexError, TypeError) as exc:
        raise ArtifactFormatError(
            f"{path}: malformed step program ({type(exc).__name__}: {exc})"
        ) from exc
    for step in steps:
        try:
            step.fn = registry.get(step.op, backend)
        except KeyError as exc:
            raise ArtifactFormatError(f"{path}: {exc}") from exc
    plan = CompiledPlan(
        steps=steps,
        num_regs=meta["num_regs"],
        input_reg=meta["input_reg"],
        output_reg=meta["output_reg"],
        backend=backend,
        signature=meta.get("signature", ""),
        source=meta.get("source", ""),
    )
    plan.artifact_path = os.path.abspath(path)
    input_shape = meta.get("input_shape")
    if prepare and input_shape:
        plan.prepare(tuple(input_shape))
    return plan
