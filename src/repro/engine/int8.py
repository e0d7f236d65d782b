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
* each fake-quant stage becomes a requantization of the integer
  accumulator, in place: ``clip(rint((acc · d) / scale))`` with the
  dequant scale product ``d`` precomputed (plus the bias, for a
  ``conv2d``/``linear`` output stage that follows one), which replaces
  the dequantize → re-quantize round trip.  A stage with no bias
  inside it runs ``clip(rint(acc · M))`` instead, with one multiply,
  but only where :func:`requant_multiplier` proved an ``M`` equal to
  the two-op form for every integer accumulator within the stage's
  proven bound; any other stage keeps the two-op form.  ``M`` is
  derived whenever a step's runtime constants are prepared or its
  artifact is loaded (:func:`derive_multipliers`), and never persisted.

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
  (``max_pool``, ``flatten``) — feeds exactly one other int8 step, the
  producer emits integer codes *directly on the consumer's input grid*
  and the consumer skips its quantization prologue entirely.  ``max_pool`` commutes with
  the (monotone) dequantize, so pooling codes selects the same elements
  as pooling values.

Every transform-domain stage requantizes on the one scalar grid the
model was trained with (the grid eager and ``reference`` use), so
``int8`` departs from them only where a value sits on a bin boundary.

Activation layout
-----------------
Last, :func:`assign_layouts` gives every register a layout.  Native
``conv2d`` / ``winograd_conv2d`` steps read and write channels-last
(NHWC) activations: the tile gather, the im2row rows and the output
scatter then copy runs of ``C`` contiguous values instead of rows of a
few tiles.  The layout-neutral ops in :data:`FOLLOW_OPS` run in the
layout their input arrives in, every other step stays NCHW, and one
``transpose`` step sits wherever a consumer's layout differs from its
producer's (the plan input and output stay NCHW).

Whether a step runs natively is decided once, at compile time, from the
frozen ranges of the calibrated model (:func:`repro.engine.compile_model`
compiles no other): an eligible step gets an ``i8`` block, prepared in
full by :func:`finalize_int8`; a flex or otherwise ineligible step is an
ordinary float step for the plan's lifetime.
"""

from __future__ import annotations

import functools
import math
from typing import Dict, List, Optional

import numpy as np

#: Largest magnitude whose integers are all exactly representable.
_DTYPE_BOUNDS = ((np.float32, 2.0**24), (np.float64, 2.0**53))

#: Ops with a native int8 kernel.
INT8_OPS = ("conv2d", "winograd_conv2d", "linear")

#: Ops that forward integer codes unchanged (grid-preserving): max is
#: monotone under the positive dequant scale, flatten is shape only,
#: transpose moves values verbatim.
PASSTHROUGH_OPS = frozenset({"max_pool", "flatten", "transpose"})

#: Every key an ``i8`` block may carry.  An artifact whose ``i8`` block
#: holds any other key was written by an engine with different integer
#: semantics and cannot run bit-identically here.
I8_KEYS = frozenset({
    "ok", "ready", "dt", "bound", "s_w", "wq_1x1", "wq_mat", "wq_t",
    "eb", "ea", "btk", "atk", "u2q", "dts", "bounds", "s_wt",
    "post", "emit_q", "input_prequantized", "rq_out", "epi", "d_v", "d_h",
})

#: ``attrs["layout"]`` of a step whose activations are channels-last.
NHWC = "nhwc"
NCHW = "nchw"

#: Ops that run in the layout of their (first) input.
FOLLOW_OPS = frozenset(
    {"relu", "add", "affine", "concat", "max_pool", "global_avg_pool"}
)


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


def _qmax(q: Dict) -> float:
    """Clip bound of a frozen stage dict."""
    return float(q["qmax"])


def stage_scale(q: Dict) -> float:
    """A frozen stage's scale, guarding degenerate ranges.

    A scale of zero (or non-finite) can only come from a degenerate
    observation like an all-zero calibration batch; fall back to the
    same harmless ``1/qmax`` default
    :func:`~repro.quant.quantizer.quantization_scale` uses rather than
    divide by it.
    """
    scale = q["scale"]
    if not (scale > 0.0 and np.isfinite(scale)):
        return 1.0 / q["qmax"]
    return scale


def _pick_dtype(bound: float):
    """Smallest float dtype in which every partial sum ≤ ``bound`` is
    exact, or ``None`` if even float64 cannot guarantee exactness."""
    for dtype, limit in _DTYPE_BOUNDS:
        if bound <= limit:
            return dtype
    return None


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
    if q_in is None or q_w is None:
        return None
    w = attrs["weight"]
    k, cg, kh, kw = w.shape
    g = attrs["groups"]
    reduction = cg * kh * kw
    bound = reduction * _qmax(q_in) * _qmax(q_w)
    dtype = _pick_dtype(bound)
    if dtype is None:
        return None
    wq = _codes(w, q_w, dtype).reshape(g, k // g, reduction)
    return {
        "dt": dtype,
        "bound": bound,
        "s_w": float(q_w["scale"]),
        # (g, C/g·kh·kw, K/g) GEMM rows in (C, kh, kw) order; the layout
        # pass reorders them to channels-last patch order.
        "wq_mat": np.ascontiguousarray(np.transpose(wq, (0, 2, 1))),
    }


def _static_linear(attrs: Dict) -> Optional[Dict]:
    q_in, q_w = attrs.get("q_input"), attrs.get("q_weight")
    if q_in is None or q_w is None:
        return None
    w = attrs["weight"]  # (out, in)
    bound = w.shape[1] * _qmax(q_in) * _qmax(q_w)
    dtype = _pick_dtype(bound)
    if dtype is None:
        return None
    return {
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
    if q_in is None or q_v is None or q_h is None or q_wt is None:
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
# Scale-dependent preparation, from the frozen activation ranges
# ---------------------------------------------------------------------------


#: Candidate multipliers tried on each side of ``fl(d / scale)``, in ulp.
_MUL_ULPS = 4


@functools.lru_cache(maxsize=4096)
def requant_multiplier(d: float, scale: float, qmax: float, bound: float, dtype):
    """A multiplier ``M`` such that ``clip(rint(acc · M))`` equals
    ``clip(rint((acc · d) / scale))`` for every integer ``|acc| ≤ bound``,
    both evaluated in ``dtype``; ``None`` when no candidate passes.

    Both maps are monotone step functions of ``acc``, so they agree on
    ``[-bound, bound]`` exactly when they step up to each code
    ``c ∈ (-qmax, qmax]`` at the same accumulator.  Bisection finds the
    first accumulator ``T_c`` at which the two-op map reaches ``c``; a
    candidate passes when it reaches ``c`` at ``T_c`` but not at
    ``T_c - 1`` (``4·qmax`` evaluations per candidate).  Candidates are
    ``fl(d / scale)`` and its neighbours up to :data:`_MUL_ULPS` ulp
    away, nearest first.
    """
    scalar = np.dtype(dtype).type
    d, s, qmax = scalar(d), scalar(scale), float(qmax)
    b = math.floor(bound)
    limit = dict(_DTYPE_BOUNDS).get(scalar)
    if limit is None or b > limit or not (d > 0 and s > 0 and np.isfinite(d / s)):
        return None

    def two_op(acc):
        r = acc.astype(scalar) * d
        r /= s
        return np.rint(r, out=r).clip(-qmax, qmax, out=r)

    codes = np.arange(-qmax + 1.0, qmax + 1.0)
    lo = np.full(codes.shape, -b, dtype=np.int64)
    hi = np.full(codes.shape, b + 1, dtype=np.int64)
    while True:  # lo -> T_c, or b + 1 where the map never reaches c
        active = lo < hi
        if not active.any():
            break
        mid = (lo + hi) // 2
        up = two_op(mid) >= codes
        hi = np.where(active & up, mid, hi)
        lo = np.where(active & ~up, mid + 1, lo)
    at, below = np.minimum(lo, b).astype(scalar), np.maximum(lo - 1, -b).astype(scalar)
    no_at, no_below = lo > b, lo - 1 < -b  # checks with no point to test

    up = down = d / s
    candidates = [up]
    for _ in range(_MUL_ULPS):
        up, down = np.nextafter(up, scalar(np.inf)), np.nextafter(down, scalar(0))
        candidates += [up, down]
    for m in candidates:
        g_at = np.rint(at * m).clip(-qmax, qmax)
        g_below = np.rint(below * m).clip(-qmax, qmax)
        if np.all(no_at | (g_at >= codes)) and np.all(no_below | (g_below < codes)):
            return float(m)
    return None


def derive_multipliers(op: str, attrs: Dict) -> Dict[str, Optional[float]]:
    """Stage name → the stage's one-multiply ``M``
    (:func:`requant_multiplier`), or ``None`` where no ``M`` is exact.

    Stages with a bias inside them are not listed: they keep the two-op
    form.  The searches are memoized, so the kernels' binders re-derive
    for free what preparing the step (or loading its artifact) derived
    first; nothing is stored in the ``i8`` block or persisted."""
    i8 = attrs["i8"]
    rq = i8["rq_out"]
    if op == "winograd_conv2d":
        stages = [("q_input_t", i8["d_v"], 0), ("q_hadamard", i8["d_h"], 1)]
        if rq is not None:
            stages.append(("q_output", rq["d"], 2))
        bounds, dts = i8["bounds"], i8["dts"]
    else:
        stages = [("q_output", rq["d"], 0)] if rq and rq["bias"] is None else []
        bounds, dts = (i8["bound"],), (i8["dt"],)
    mul = {}
    for name, d, j in stages:
        q = attrs[name]
        mul[name] = requant_multiplier(
            float(d), float(stage_scale(q)), float(q["qmax"]), float(bounds[j]), dts[j]
        )
    return mul


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
    # Repeat the K per-channel constants R times (R a power of two with
    # R·K near 512): a channels-last epilogue then broadcasts them over
    # rows of R·K values instead of running inner loops of only K.
    reps = 1 << max(0, (512 // k).bit_length() - 1)
    a64, b64 = np.tile(a64, reps), np.tile(b64, reps)
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


def _runtime_winograd(attrs: Dict) -> None:
    i8 = attrs["i8"]
    s_x = float(attrs["q_input"]["scale"])
    s_v = float(attrs["q_input_t"]["scale"])
    s_h = float(attrs["q_hadamard"]["scale"])
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


def _prepare(op: str, attrs: Dict) -> None:
    if op == "winograd_conv2d":
        _runtime_winograd(attrs)
    else:
        _runtime_conv_linear(attrs)
    # Always true; written for engines that branched on them, which may
    # still read this block from an artifact.
    attrs["i8"]["ok"] = attrs["i8"]["ready"] = True
    derive_multipliers(op, attrs)  # runs the memoized searches now


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
            and "i8" in producer.attrs
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
        if i8p is None:
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
        i8c = None if consumer is None else consumer.attrs.get("i8")
        if i8c is None or consumer.inputs != (reg,):
            continue
        i8p["emit_q"] = consumer.attrs["q_input"]  # shared: producer clips to it
        i8c["input_prequantized"] = True
        producer.label = (producer.label + " →int").strip()
        consumer.label = ("int→ " + consumer.label).strip()


def finalize_int8(steps: List, output_reg: int) -> List:
    """Prepare every eligible step for native integer execution.

    Mutates step attrs in place (adding the ``i8`` dict) and returns the
    new step list with absorbed ``affine`` steps removed.  A step is
    eligible when it is quantized on the stages its integer pipeline
    needs, its transforms are dyadic and its accumulators can be
    bounded; the rest (and every step of a float model) carry no ``i8``
    dict and execute through the ``fast`` → ``reference`` fallback
    kernels, so compilation never fails on ineligible layers.
    """
    for step in steps:
        if step.op in _STATIC and step.attrs.get("quantized"):
            i8 = _STATIC[step.op](step.attrs)
            if i8 is not None:
                step.attrs["i8"] = i8
                step.domain = "int8"
    steps = _absorb_affines(steps, output_reg)
    _wire_handoffs(steps, output_reg)
    for step in steps:
        if "i8" in step.attrs:
            _prepare(step.op, step.attrs)
    return steps


# ---------------------------------------------------------------------------
# The layout pass: channels-last registers around native steps
# ---------------------------------------------------------------------------


def _native_conv(step) -> bool:
    return step.domain == "int8" and step.op in ("conv2d", "winograd_conv2d")


def _to_channels_last(step) -> None:
    """Mark ``step`` channels-last, once, and give a native step the
    channels-last weight layouts its GEMMs read contiguously: Winograd
    ``u2q`` becomes ``(t, t, g, C/g, K/g)``, and im2row weights become
    one ``wq_mat`` of ``(kh·kw·C/g, K/g)`` rows in ``(kh, kw, C)`` patch
    order (the ``wq_1x1`` of older artifacts is folded in).  New arrays
    throughout: loaded artifacts map their weights read-only."""
    attrs = step.attrs
    attrs["layout"] = NHWC
    if not _native_conv(step):
        return
    i8 = attrs["i8"]
    if step.op == "winograd_conv2d":
        i8["u2q"] = np.ascontiguousarray(np.swapaxes(i8["u2q"], 3, 4))
    elif "wq_1x1" in i8:
        i8["wq_mat"] = np.ascontiguousarray(i8.pop("wq_1x1").transpose())
    else:
        k, cg, kh, kw = attrs["weight"].shape
        g = attrs["groups"]
        wq = i8["wq_mat"].reshape(g, cg, kh, kw, k // g)
        i8["wq_mat"] = np.ascontiguousarray(
            np.transpose(wq, (0, 2, 3, 1, 4)).reshape(i8["wq_mat"].shape)
        )


def assign_layouts(steps: List, output_reg: int, num_regs: int):
    """Give every register a layout; returns ``(steps, output_reg, num_regs)``.

    Native ``conv2d`` / ``winograd_conv2d`` steps are channels-last,
    :data:`FOLLOW_OPS` take their first input's layout, and every other
    step (float fallbacks, ``linear``, ``flatten``, ``avg_pool``) is
    NCHW, as are the plan input and output.  A ``transpose`` step is
    inserted before the first consumer that needs a register in the
    other layout and shared by later ones.  Channels-last steps carry
    ``attrs["layout"] == "nhwc"``; the batch stays on axis 0, so lanes
    and batching are untouched.

    Idempotent: existing ``transpose`` steps are kept and steps already
    marked channels-last are not converted again, so a loaded plan —
    including one saved before this pass existed — goes through the
    same function.
    """
    from repro.engine.plan import Step

    nhwc: set = set()
    converted: Dict[tuple, int] = {}
    out: List = []

    def convert(reg: int, to_nhwc: bool) -> int:
        nonlocal num_regs
        key = (reg, to_nhwc)
        if key not in converted:
            layout = NHWC if to_nhwc else NCHW
            out.append(Step("transpose", (reg,), num_regs, {"layout": layout},
                            label=f"→{layout}"))
            converted[key] = num_regs
            if to_nhwc:
                nhwc.add(num_regs)
            num_regs += 1
        return converted[key]

    for step in steps:
        if step.op == "transpose":
            if step.attrs["layout"] == NHWC:
                nhwc.add(step.output)
            out.append(step)
            continue
        if _native_conv(step):
            want = True
        elif step.op in FOLLOW_OPS and step.inputs:
            want = step.inputs[0] in nhwc
        else:
            want = False
        step.inputs = tuple(
            reg if (reg in nhwc) == want else convert(reg, want) for reg in step.inputs
        )
        if want:
            if step.attrs.get("layout") != NHWC:
                _to_channels_last(step)
            if step.op != "global_avg_pool":  # (N, C) out: no layout left
                nhwc.add(step.output)
        out.append(step)
    if output_reg in nhwc:
        output_reg = convert(output_reg, False)
    return out, output_reg, num_regs
