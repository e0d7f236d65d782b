"""Compile support for the native integer-arithmetic ``int8`` backend.

The fake-quant pipeline only ever *sees* values on uniform grids
``value = scale · code`` with integer codes in ``[-qmax, qmax]``.  The
``int8`` backend therefore executes quantized layers on the codes:

* weights (including the transform-domain Winograd weights ``GgGᵀ``) are
  converted to their integer codes once, at compile time;
* each activation tensor is quantized to codes once (same ``x / scale``
  → ``rint`` → ``clip`` decisions as :func:`~repro.engine.kernels.fake_quant`);
* every GEMM — im2row, the Kronecker-form tile transforms ``BᵀdB`` /
  ``AᵀyA`` and the transform-domain Hadamard contraction — runs over
  integer-valued float arrays.  A float GEMM over integer values is
  *exact* (any accumulation order, any BLAS blocking) as long as every
  partial sum stays below the mantissa bound: ``2^24`` for float32,
  ``2^53`` for float64.  :func:`_pick_dtype` proves that bound from the
  compile-time shapes and bit-widths and picks the dtype; steps whose
  accumulators cannot be bounded fall back to the ``fast`` kernels.
* each fake-quant stage becomes a fused requantization on the codes:
  ``codes' = clip(rint((codes · dequant) / scale))`` with the dequant
  scale product precomputed — the dequantize → re-quantize round trip
  (four full-tensor passes plus allocations per stage) disappears.

Because the transform matrices of every supported Cook–Toom ``F(m, r)``
are dyadic rationals (integers after scaling by a power of two — checked
at compile time, so trained *flex* transforms gracefully fall back), the
tile transforms are integer GEMMs too, and the backend may use the
Kronecker formulation at every tile size **and** pick layouts freely:
reassociation is exact on integers, unlike the float path where it can
flip quantization-bin decisions.

Junction fusion
---------------
After per-step preparation, a fusion pass exploits that codes are the
native currency between quantized layers:

* an eval-mode BatchNorm (``affine`` step, with a fused ReLU) that
  directly follows an int8-capable step is absorbed into that step's
  epilogue (the per-channel scale/shift ride on the dequant multiplier);
* when an int8 step's output — possibly through grid-preserving ops
  (``max_pool``, ``flatten``, ``record_hw``) — feeds exactly one other
  int8 step whose quantization ranges are frozen, the producer emits
  integer codes *directly on the consumer's input grid* and the consumer
  skips its quantization prologue entirely.  ``max_pool`` commutes with
  the (monotone) dequantize, so pooling codes selects the same elements
  as pooling values;
* a Winograd pair joined by a direct handoff moves to per-tap
  transform-domain grids (:func:`enable_per_tap`, selected by
  :func:`_select_per_tap`).

Handoffs are only wired when every quantization range involved is frozen
at compile time (a calibrated model); a plan compiled from a cold model
keeps float handoffs and warms its per-step constants lazily after the
first batch froze the ranges (via the ``fast``-kernel fallback, which
freezes exactly like eager's eval-before-observation path).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

#: Largest magnitude whose integers are all exactly representable.
_DTYPE_BOUNDS = ((np.float32, 2.0**24), (np.float64, 2.0**53))

#: Deepest dyadic refinement a per-tap scale grid may apply (2^-8): past
#: this the analytic tap bounds are far below the observer's resolution
#: and further refinement only sharpens clipping.
_PER_TAP_MAX_SHIFT = 8

#: Ops with a native int8 kernel.
INT8_OPS = ("conv2d", "winograd_conv2d", "linear")

#: Ops that forward integer codes unchanged (grid-preserving): max is
#: monotone under the positive dequant scale, flatten/record_hw are
#: shape/metadata only.
PASSTHROUGH_OPS = frozenset({"max_pool", "flatten", "record_hw"})

#: Activation-side quantization stages per op (weight stages are frozen
#: at compile time and handled statically).
ACTIVATION_STAGES = {
    "conv2d": ("q_input", "q_output"),
    "linear": ("q_input", "q_output"),
    "winograd_conv2d": ("q_input", "q_input_t", "q_hadamard", "q_output"),
}


# ---------------------------------------------------------------------------
# Small helpers
# ---------------------------------------------------------------------------


def dyadic_exponent(matrix: np.ndarray, limit: int = 24) -> Optional[int]:
    """Smallest ``e`` such that ``matrix · 2^e`` is exactly integral.

    Returns ``None`` when no such ``e ≤ limit`` exists (e.g. trained
    *flex* transforms) — the step then keeps the float fallback path.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        return None
    for e in range(limit + 1):
        scaled = np.ldexp(a, e)
        if np.all(scaled == np.rint(scaled)):
            return e
    return None


def _qmax(q: Optional[Dict]) -> Optional[float]:
    """Clip bound of a stage dict (frozen or still-dynamic)."""
    if q is None:
        return None
    if "qmax" in q:
        return float(q["qmax"])
    return float(2 ** (q["dynamic_bits"] - 1) - 1)


def _pick_dtype(bound: float):
    """Smallest float dtype in which every partial sum ≤ ``bound`` is
    exact, or ``None`` if even float64 cannot guarantee exactness."""
    for dtype, limit in _DTYPE_BOUNDS:
        if bound <= limit:
            return dtype
    return None


def _frozen(q: Optional[Dict]) -> bool:
    return q is None or "scale" in q


def _all_frozen(step) -> bool:
    return all(_frozen(step.attrs.get(name)) for name in ACTIVATION_STAGES[step.op])


def stages_cold(attrs: Dict, op: str) -> bool:
    """True while any activation stage still waits for its first batch."""
    return not all(_frozen(attrs.get(name)) for name in ACTIVATION_STAGES[op])


def _codes(values: np.ndarray, q: Dict, dtype) -> np.ndarray:
    """Recover the integer codes of an already fake-quantized array.

    ``values`` is ``scale · code`` computed in float32; dividing by the
    same scale lands within a few ulp of the integer, so ``rint`` is
    exact recovery.
    """
    return np.rint(values / q["scale"]).astype(dtype)


# ---------------------------------------------------------------------------
# Static (scale-independent) per-step preparation
# ---------------------------------------------------------------------------


def _static_conv2d(attrs: Dict) -> Optional[Dict]:
    q_in, q_w = attrs.get("q_input"), attrs.get("q_weight")
    if q_in is None or not isinstance(q_w, dict) or "scale" not in q_w:
        return None
    w = attrs["weight"]
    k, cg, kh, kw = w.shape
    g = attrs["groups"]
    reduction = cg * kh * kw
    bound = reduction * _qmax(q_in) * _qmax(q_w)
    dtype = _pick_dtype(bound)
    if dtype is None:
        return None
    wq = _codes(w, q_w, dtype)
    i8 = {
        "ok": True,
        "ready": False,
        "dt": dtype,
        "bound": bound,
        "s_w": float(q_w["scale"]),
    }
    if (
        kh == 1
        and kw == 1
        and g == 1
        and attrs["stride"] == (1, 1)
        and attrs["padding"] == (0, 0)
    ):
        i8["wq_1x1"] = np.ascontiguousarray(wq.reshape(k, cg))
    elif g == 1:
        i8["wq_mat"] = np.ascontiguousarray(wq.reshape(k, reduction).transpose())
    else:
        i8["wq_mat"] = np.ascontiguousarray(
            np.transpose(wq.reshape(g, k // g, reduction), (0, 2, 1))
        )
    return i8


def _static_linear(attrs: Dict) -> Optional[Dict]:
    q_in, q_w = attrs.get("q_input"), attrs.get("q_weight")
    if q_in is None or not isinstance(q_w, dict) or "scale" not in q_w:
        return None
    w = attrs["weight"]  # (out, in)
    bound = w.shape[1] * _qmax(q_in) * _qmax(q_w)
    dtype = _pick_dtype(bound)
    if dtype is None:
        return None
    return {
        "ok": True,
        "ready": False,
        "dt": dtype,
        "bound": bound,
        "s_w": float(q_w["scale"]),
        "wq_t": np.ascontiguousarray(_codes(w, q_w, dtype).transpose()),
    }


def _static_winograd(attrs: Dict) -> Optional[Dict]:
    q_in = attrs.get("q_input")
    q_v = attrs.get("q_input_t")
    q_h = attrs.get("q_hadamard")
    q_wt = attrs.get("q_weight_t")
    if q_in is None or q_v is None or q_h is None:
        return None
    if not isinstance(q_wt, dict) or "scale" not in q_wt:
        return None
    BT, AT = attrs["BT"], attrs["AT"]
    eb, ea = dyadic_exponent(BT), dyadic_exponent(AT)
    if eb is None or ea is None:  # flex / non-dyadic transforms
        return None
    bt_s = np.rint(np.ldexp(BT.astype(np.float64), eb))
    at_s = np.rint(np.ldexp(AT.astype(np.float64), ea))
    btk = np.kron(bt_s, bt_s)  # (t², t²): vec(BᵀDB) = (Bᵀ⊗Bᵀ)·vec(D)
    atk = np.kron(at_s, at_s)  # (m², t²)

    bound_v = float(np.abs(btk).sum(axis=1).max()) * _qmax(q_in)
    cg = attrs["u"].shape[1]
    bound_h = cg * _qmax(q_wt) * _qmax(q_v)
    bound_z = float(np.abs(atk).sum(axis=1).max()) * _qmax(q_h)
    dt_v, dt_h, dt_z = (_pick_dtype(b) for b in (bound_v, bound_h, bound_z))
    if dt_v is None or dt_h is None or dt_z is None:
        return None

    u = attrs["u"]
    g, t, k = attrs["groups"], attrs["t"], attrs["out_channels"]
    u2q = np.ascontiguousarray(
        np.transpose(
            _codes(u, q_wt, dt_h).reshape(g, k // g, cg, t, t), (3, 4, 0, 1, 2)
        )
    )
    return {
        "ok": True,
        "ready": False,
        "eb": eb,
        "ea": ea,
        "btk": btk.astype(dt_v),
        "atk": atk.astype(dt_z),
        "u2q": u2q,
        "dts": (dt_v, dt_h, dt_z),
        "bounds": (bound_v, bound_h, bound_z),
        "s_wt": float(q_wt["scale"]),
    }


_STATIC = {
    "conv2d": _static_conv2d,
    "linear": _static_linear,
    "winograd_conv2d": _static_winograd,
}


# ---------------------------------------------------------------------------
# Runtime (scale-dependent) preparation — called lazily by the kernels
# once every activation stage is frozen.  Idempotent; concurrent first
# batches race benignly (identical values, ``ready`` is written last).
# ---------------------------------------------------------------------------


def _epilogue_constants(attrs: Dict, i8: Dict, s_eff: float, bias_pending) -> None:
    """Fold dequant scale, bias, absorbed BN and ReLU into epilogue
    constants: ``y = codes · A + B`` (float out) or one more requant onto
    the consumer's input grid (integer handoff)."""
    k = (
        attrs["out_channels"]
        if "out_channels" in attrs
        else attrs["weight"].shape[0]
    )
    post = i8.get("post") or {}
    gamma = post.get("scale")
    beta = post.get("shift")
    relu = bool(post.get("relu") or attrs.get("fuse_relu"))
    a64 = np.full(k, s_eff, dtype=np.float64)
    b64 = np.zeros(k, dtype=np.float64)
    if gamma is not None:
        a64 *= gamma.astype(np.float64)
    if bias_pending is not None:
        b64 += bias_pending.astype(np.float64) * (
            gamma.astype(np.float64) if gamma is not None else 1.0
        )
    if beta is not None:
        b64 += beta.astype(np.float64)
    has_b = bool(np.any(b64))
    emit_q = i8.get("emit_q")
    if emit_q is not None:
        s_next = float(emit_q["scale"])
        qmax_next = float(emit_q["qmax"])
        i8["epi"] = {
            "mode": "int",
            "A": (a64 / s_next).astype(np.float32),
            "B": (b64 / s_next).astype(np.float32) if has_b else None,
            "lo": 0.0 if relu else -qmax_next,
            "hi": qmax_next,
        }
    else:
        i8["epi"] = {
            "mode": "float",
            "A": a64.astype(np.float32),
            "B": b64.astype(np.float32) if has_b else None,
            "relu": relu,
        }


def _runtime_conv_linear(attrs: Dict) -> None:
    i8 = attrs["i8"]
    d = float(attrs["q_input"]["scale"]) * i8["s_w"]
    q_out = attrs.get("q_output")
    bias = attrs.get("bias")
    if q_out is not None:
        # bias is added before the output stage (QuantConv2d/QuantLinear
        # order), so it rides inside the requant, scaled onto the grid.
        i8["rq_out"] = {
            "d": d,
            "bias": bias.astype(np.float32) if bias is not None else None,
            "q": q_out,
        }
        _epilogue_constants(attrs, i8, float(q_out["scale"]), None)
    else:
        i8["rq_out"] = None
        _epilogue_constants(attrs, i8, d, bias)
    i8["ready"] = True


def _runtime_winograd(attrs: Dict) -> None:
    i8 = attrs["i8"]
    s_x = float(attrs["q_input"]["scale"])
    s_v = float(attrs["q_input_t"]["scale"])
    s_h = float(attrs["q_hadamard"]["scale"])
    if i8.get("per_tap"):
        # Per-tap transform-domain grids (see enable_per_tap): v codes of
        # tap (i, j) live on the dyadically finer ``s_v · 2^fv[i,j]``
        # grid, Hadamard codes on ``s_h · 2^fh[i,j]``.  The requant
        # multipliers carry both grids, stored in the accumulator dtypes
        # so the elementwise requant keeps the accumulators' own ufunc
        # loops (a float64 multiplier array would silently drag every
        # float32 requant through float64 loops); the folded atk (columns
        # scaled by 2^(fh - min fh)) leaves the output-transform
        # accumulator on the uniform ``2^min(fh)`` grid.
        t = attrs["t"]
        dt_v, dt_h = i8["dts"][0], i8["dts"][1]
        fv, fh = i8["tap_fv"], i8["tap_fh"]
        i8["d_v"] = np.ldexp(s_x / 4.0 ** i8["eb"], -fv).reshape(-1, 1).astype(dt_v)
        i8["d_h"] = (
            np.ldexp(s_v * i8["s_wt"], fv - fh).reshape(t, t, 1, 1, 1).astype(dt_h)
        )
        d_z = float(np.ldexp(s_h, int(fh.min()))) / 4.0 ** i8["ea"]
    else:
        i8["d_v"] = s_x / 4.0 ** i8["eb"]
        i8["d_h"] = s_v * i8["s_wt"]
        d_z = s_h / 4.0 ** i8["ea"]
    q_out = attrs.get("q_output")
    if q_out is not None:
        i8["rq_out"] = {"d": d_z, "bias": None, "q": q_out}
        s_eff = float(q_out["scale"])
    else:
        i8["rq_out"] = None
        s_eff = d_z
    # Winograd applies bias *after* the output quantization stage.
    _epilogue_constants(attrs, i8, s_eff, attrs.get("bias"))
    i8["ready"] = True


def prepare_runtime(op: str, attrs: Dict) -> None:
    if op == "winograd_conv2d":
        _runtime_winograd(attrs)
    else:
        _runtime_conv_linear(attrs)


def enable_per_tap(step) -> bool:
    """Switch a frozen Winograd step to per-tap transform-domain scales.

    Tap-wise transform-domain quantization ("Going Further With Winograd
    Convolutions"): the taps of ``BᵀdB`` have very different dynamic
    ranges — tap ``(i, j)``'s accumulator is bounded by the L1 norm of
    row ``i·t+j`` of the integer Kronecker matrix — so a single scalar
    scale wastes code-range resolution on the narrow taps.  This gives
    each tap a *dyadically* finer grid ``scale · 2^f`` (``f ≤ 0``) for
    the ``q_input_t`` and ``q_hadamard`` stages, paired with a widened
    per-tap clip ceiling ``qmax · 2^-f`` so every tap keeps the stage's
    full calibrated range ``scale · qmax``: narrow taps gain fractional
    bits, and no value a uniform grid could represent ever clips — the
    refinement can only reduce rounding error, never introduce new
    saturation.

    * the per-tap factors ride the existing requant multipliers
      (``d_v``/``d_h`` and the clip ceilings become tap-shaped arrays
      broadcasting over the same layouts), but those broadcast passes
      are not free: on ``resnet18-w0.25-F4-int8@int8`` per-tap grids
      cost 8–10% at p10 against uniform grids (2-vCPU x86 host, one
      BLAS thread, batch 1 and 8);
    * exactness against the int64 oracle is preserved by construction:
      powers of two are exact in float, and the accumulators the wider
      codes *do* grow — the Hadamard contraction and the output
      transform, whose columns absorb ``2^(fh - min fh)`` — are
      re-proven by :func:`_pick_dtype` before anything is committed.

    Returns ``True`` when per-tap grids were enabled (or already were).
    Returns ``False`` — leaving the step on uniform scales — when the
    step is ineligible, every tap already spans the full range, or a
    grown accumulator cannot be bounded in an exact float dtype.
    """
    attrs = step.attrs
    i8 = attrs.get("i8")
    if not (i8 and i8.get("ok") and "btk" in i8):
        return False
    if i8.get("per_tap"):
        return True
    if not _all_frozen(step):
        return False
    t = attrs["t"]
    tt = t * t
    qv, qh = _qmax(attrs["q_input_t"]), _qmax(attrs["q_hadamard"])
    # Refinement budget per tap: how far its worst-case accumulator sits
    # below the widest tap's (btk row L1 for the input transform; weight-
    # code L1 over the contraction axis, worst case across groups and
    # out-channels, for the Hadamard stage).
    l1_v = np.abs(i8["btk"].astype(np.float64)).sum(axis=1)
    fv = np.ceil(np.log2(l1_v / l1_v.max())).astype(np.int64)
    np.clip(fv, -_PER_TAP_MAX_SHIFT, 0, out=fv)
    w1 = (
        np.abs(i8["u2q"].astype(np.float64)).sum(axis=4).max(axis=(2, 3)).reshape(tt)
    )
    w1 = np.maximum(w1, 1.0)
    fh = np.ceil(np.log2(w1 / w1.max())).astype(np.int64)
    np.clip(fh, -_PER_TAP_MAX_SHIFT, 0, out=fh)
    if not (np.any(fv) or np.any(fh)):
        return False  # uniform tap ranges: nothing to refine
    # Re-prove the grown accumulators.  v codes now reach qv·2^-fv, so
    # the Hadamard bound is the worst per-tap (weight L1) × (v ceiling)
    # product; h codes reach qh·2^-fh, and folding 2^(fh - min fh) into
    # the output-transform columns leaves its accumulator on the uniform
    # 2^min(fh) grid with bound |atk|·2^-min(fh) · qh.
    qmax_v = np.ldexp(float(qv), -fv)
    qmax_h = np.ldexp(float(qh), -fh)
    bound_h = float(np.max(w1 * qmax_v))
    dt_h = _pick_dtype(bound_h)
    if dt_h is None:
        return False
    atk64 = i8["atk"].astype(np.float64)
    atk = atk64 * np.exp2(fh - fh.min())[None, :]
    bound_z = float(np.abs(atk64).sum(axis=1).max()) * float(
        np.ldexp(float(qh), -int(fh.min()))
    )
    dt_z = _pick_dtype(bound_z)
    if dt_z is None:
        return False  # folded accumulator unprovable: keep uniform scales
    dt_v = i8["dts"][0]
    i8["atk"] = atk.astype(dt_z)
    i8["u2q"] = np.ascontiguousarray(i8["u2q"].astype(dt_h))
    i8["dts"] = (dt_v, dt_h, dt_z)
    i8["bounds"] = (i8["bounds"][0], bound_h, bound_z)
    i8["tap_fv"] = fv
    i8["tap_fh"] = fh
    # Clip ceilings in the accumulator dtypes (exact: qmax · 2^-f stays
    # within the float32 integer range for f ≥ -_PER_TAP_MAX_SHIFT), for
    # the same ufunc-loop reason as the multipliers in _runtime_winograd.
    i8["qmax_v"] = qmax_v.reshape(-1, 1).astype(dt_v)
    i8["qmax_h"] = qmax_h.reshape(t, t, 1, 1, 1).astype(dt_h)
    i8["per_tap"] = True
    _runtime_winograd(attrs)
    return True


# ---------------------------------------------------------------------------
# The compile pass: static prep + junction fusion
# ---------------------------------------------------------------------------


def _count_uses(steps: List, output_reg: int) -> Dict[int, int]:
    counts: Dict[int, int] = {output_reg: 1}
    for step in steps:
        for reg in step.inputs:
            counts[reg] = counts.get(reg, 0) + 1
    return counts


def _absorb_affines(steps: List, output_reg: int) -> List:
    """Fold a single-use trailing ``affine`` (eval BatchNorm, possibly
    with a fused ReLU) into the int8 epilogue of its producer."""
    counts = _count_uses(steps, output_reg)
    producers: Dict[int, object] = {}
    out: List = []
    for step in steps:
        producer = producers.get(step.inputs[0]) if step.inputs else None
        if (
            step.op == "affine"
            and producer is not None
            and producer.op in INT8_OPS
            and producer.attrs.get("i8", {}).get("ok")
            and "post" not in producer.attrs["i8"]
            and not producer.attrs.get("fuse_relu")
            and counts[producer.output] == 1
        ):
            producer.attrs["i8"]["post"] = {
                "scale": step.attrs["scale"],
                "shift": step.attrs["shift"],
                "relu": bool(step.attrs.get("fuse_relu")),
            }
            producers.pop(producer.output, None)
            producer.output = step.output
            producer.label = (producer.label + " +bn").strip()
            producers[producer.output] = producer
            continue
        out.append(step)
        producers[step.output] = step
    return out


def _wire_handoffs(steps: List, output_reg: int) -> None:
    """Mark producer→consumer pairs that exchange integer codes."""
    counts = _count_uses(steps, output_reg)
    consumers: Dict[int, List] = {}
    for step in steps:
        for reg in step.inputs:
            consumers.setdefault(reg, []).append(step)
    for producer in steps:
        i8p = producer.attrs.get("i8")
        if not (i8p and i8p.get("ok")) or producer.op not in INT8_OPS:
            continue
        if not _all_frozen(producer):
            continue
        reg = producer.output
        consumer = None
        while counts.get(reg, 0) == 1 and reg != output_reg:
            users = consumers.get(reg, [])
            if len(users) != 1:
                break
            candidate = users[0]
            if candidate.op in PASSTHROUGH_OPS and candidate.inputs == (reg,):
                reg = candidate.output
                continue
            consumer = candidate
            break
        if consumer is None or consumer.op not in INT8_OPS:
            continue
        i8c = consumer.attrs.get("i8")
        if not (i8c and i8c.get("ok")) or consumer.inputs != (reg,):
            continue
        if not _all_frozen(consumer):
            continue
        q_in = consumer.attrs.get("q_input")
        if not (isinstance(q_in, dict) and "scale" in q_in):
            continue
        i8p["emit_q"] = q_in  # shared dict: producer clips to this grid
        i8c["input_prequantized"] = True
        producer.label = (producer.label + " →int").strip()
        consumer.label = ("int→ " + consumer.label).strip()


def _select_per_tap(steps: List) -> None:
    """Switch directly handed-off Winograd pairs to per-tap grids.

    The rule: a ``winograd_conv2d`` consumer whose only input is the
    output of a ``winograd_conv2d`` producer, both dense (groups=1) and
    native with the integer Kronecker transforms, where the producer
    emits codes straight onto the consumer's input grid (``emit_q`` *is*
    the consumer's ``q_input``, and the consumer skips its prologue).
    Such a handoff is only wired for a single-use, fully frozen pair (see
    :func:`_wire_handoffs`).  The consumer is refined first and the
    producer only if the consumer took the grids; a pair where the
    consumer declines stays uniform on both sides.

    Other eligible steps keep uniform grids: on them per-tap grids would
    change the outputs of most quantized plans and hide their Winograd
    stems from the bin-boundary audit
    (:func:`repro.testing.oracle.winograd_stem_flip_report`).
    """

    def native_dense(step) -> bool:
        i8 = step.attrs.get("i8")
        return bool(i8 and i8.get("ok") and "btk" in i8) and step.attrs["groups"] == 1

    producer_of = {step.output: step for step in steps}
    for consumer in steps:
        if consumer.op != "winograd_conv2d" or len(consumer.inputs) != 1:
            continue
        producer = producer_of.get(consumer.inputs[0])
        if producer is None or producer.op != "winograd_conv2d":
            continue
        if not (native_dense(producer) and native_dense(consumer)):
            continue
        q_in = consumer.attrs.get("q_input")
        direct = q_in is not None and producer.attrs["i8"].get("emit_q") is q_in
        if direct and consumer.attrs["i8"].get("input_prequantized"):
            if enable_per_tap(consumer):
                enable_per_tap(producer)


def finalize_int8(steps: List, output_reg: int) -> List:
    """Prepare every eligible step for native integer execution.

    Mutates step attrs in place (adding the ``i8`` dict) and returns the
    new step list with absorbed ``affine`` steps removed.  Steps left
    without an ``i8`` dict (or with none at all on float models) simply
    execute through the ``fast`` → ``reference`` fallback
    kernels — compilation never fails on ineligible layers.
    """
    for step in steps:
        if step.op in _STATIC and step.attrs.get("quantized"):
            i8 = _STATIC[step.op](step.attrs)
            if i8 is not None:
                step.attrs["i8"] = i8
                step.domain = "int8"
    steps = _absorb_affines(steps, output_reg)
    _wire_handoffs(steps, output_reg)
    # Eagerly prepare fully-frozen steps so warm plans are ready-to-run
    # (cold steps prepare lazily after their first batch froze ranges).
    for step in steps:
        i8 = step.attrs.get("i8")
        if i8 and i8.get("ok") and _all_frozen(step):
            prepare_runtime(step.op, step.attrs)
    _select_per_tap(steps)
    return steps
