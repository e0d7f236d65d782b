"""Exactness oracles for the ``int8`` backend (shared with PR 3 tests).

Two checks live here, factored out of ``tests/engine/test_int8_backend``
so the randomized differential harness can apply them to *any* model:

* :func:`int8_oracle_output` — run a model's ``int8`` plan with the GEMM
  hook replaced by :func:`exact_int64_matmul`.  The backend's contract
  is that its float GEMMs over integer-valued arrays are *exact* (the
  compile-time accumulator bounds guarantee it), so the native output
  must be **bit-identical** to this oracle.  That identity is what
  justifies any quantization-bin flip versus the float-composed
  ``reference`` backend: the int8 path computed the mathematically exact
  grid argument, so a flipped decision means the reference's float32
  composition landed on the other side of a bin boundary — not that the
  integer path is wrong.

* :func:`winograd_stem_flip_report` — the stage-level audit from PR 3,
  generalized: when a plan's *first* step is a quantized Winograd conv
  reading the plan input, recompute its transformed-input quantization
  codes both ways (float32 reference composition vs exact integer
  composition) and verify every flipped decision sits within float32
  rounding of a half-integer bin boundary.  A wrong requant multiplier,
  scale, or tile layout would flip decisions at arguments nowhere near a
  boundary, which this rejects.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

import numpy as np

import repro.engine.kernels as kernels
from repro.engine import compile_model


def exact_int64_matmul(a, b, out=None):
    """Oracle GEMM: exact integer arithmetic, no float accumulation.

    Accepts the kernels' ``out=`` placement (writing the int64 result
    into the caller's workspace casts each entry exactly — the values
    are below the mantissa bound by construction).
    """
    ai = np.rint(a).astype(np.int64)
    bi = np.rint(b).astype(np.int64)
    result = np.matmul(ai, bi)
    if out is not None:
        out[...] = result
        return out
    return result.astype(a.dtype)


@contextmanager
def int64_gemm():
    """Swap the int8 backend's GEMM hook for the exact int64 oracle."""
    original = kernels._int8_matmul
    kernels._int8_matmul = exact_int64_matmul
    try:
        yield
    finally:
        kernels._int8_matmul = original


def int8_oracle_output(model, x: np.ndarray) -> np.ndarray:
    """Compile and run ``model``'s int8 plan under the int64-GEMM oracle.

    The oracle compiles the model itself, so it runs the same steps,
    grids and layouts as the plan under test.
    """
    with int64_gemm():
        return compile_model(model, backend="int8").run(x)


def winograd_stem_flip_report(plan, x: np.ndarray) -> Optional[dict]:
    """Audit the transformed-input quantization codes of a Winograd stem.

    Applies when the plan's first step is a native-int8
    ``winograd_conv2d`` whose only input is the plan input register (or
    its channels-last ``transpose``) and whose input/transform
    quantization stages are frozen; returns ``None`` when the plan has
    no such step (the caller then relies on the model-level int64-oracle
    identity alone).

    The returned report carries ``flips`` (count of code decisions that
    differ between the float32 reference composition and the exact
    integer composition), ``checked`` (total decisions), and
    ``unjustified`` (flips whose exact grid argument is *not* within
    float32 rounding of a half-integer boundary — must be zero).
    """
    from repro.engine.kernels import _strided_patches, fake_quant

    steps = list(plan.steps)
    reads = (plan.input_reg,)
    if steps and steps[0].op == "transpose" and steps[0].inputs == reads:
        reads = (steps.pop(0).output,)
    if not steps:
        return None
    step = steps[0]
    if (
        step.op != "winograd_conv2d"
        or step.domain != "int8"
        or tuple(step.inputs) != reads
    ):
        return None
    attrs = step.attrs
    i8 = attrs.get("i8") or {}
    q_in, q_v = attrs.get("q_input"), attrs.get("q_input_t")
    if not q_in or not q_v or "scale" not in q_in or "scale" not in q_v:
        return None
    if "btk" not in i8 or "eb" not in i8:
        return None
    n, c, h, w = x.shape
    m, r, t, pad = attrs["m"], attrs["r"], attrs["t"], attrs["pad"]
    th = -(-(h + 2 * pad - r + 1) // m)
    tw = -(-(w + 2 * pad - r + 1) // m)
    need_h, need_w = th * m + r - 1, tw * m + r - 1
    tt, p = t * t, n * th * tw
    widths = ((0, 0), (0, 0), (pad, need_h - h - pad), (pad, need_w - w - pad))

    # float32 reference composition of the transformed-input codes
    xq = fake_quant(x.copy(), dict(q_in))
    xp = np.pad(xq, widths)
    tiles = np.ascontiguousarray(_strided_patches(xp, t, t, m, m))
    v_ref = np.matmul(np.matmul(attrs["BT"], tiles), attrs["BT"].transpose())
    ref_codes = np.clip(
        np.rint(v_ref / np.float32(q_v["scale"])), -q_v["qmax"], q_v["qmax"]
    )
    ref_codes = np.transpose(ref_codes, (4, 5, 1, 0, 2, 3)).reshape(tt, c * p)

    # exact integer composition of the same codes
    codes = np.clip(np.rint(x / q_in["scale"]), -q_in["qmax"], q_in["qmax"])
    xpc = np.pad(codes, widths)
    tmat = np.ascontiguousarray(
        np.transpose(_strided_patches(xpc, t, t, m, m), (4, 5, 1, 0, 2, 3))
    ).reshape(tt, c * p)
    v_int = np.matmul(i8["btk"].astype(np.float64), tmat.astype(np.float64))
    exact_args = v_int * (float(q_in["scale"]) / 4.0 ** i8["eb"]) / float(q_v["scale"])
    int_codes = np.clip(np.rint(exact_args), -q_v["qmax"], q_v["qmax"])

    flipped = int_codes != ref_codes
    unjustified = 0
    if flipped.any():
        # The float32-composed reference argument wanders ~1e-4·|arg|
        # from the exact one, so "at the boundary" is relative to that;
        # a wrong multiplier would flip at uniformly random fractions.
        distance_to_boundary = np.abs(
            np.abs(exact_args[flipped] - np.floor(exact_args[flipped])) - 0.5
        )
        limit = np.maximum(1e-3, 1e-3 * np.abs(exact_args[flipped]))
        unjustified = int(np.sum(distance_to_boundary >= limit))
    return {
        "flips": int(flipped.sum()),
        "checked": int(flipped.size),
        "unjustified": unjustified,
    }
