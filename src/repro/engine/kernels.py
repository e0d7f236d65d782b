"""Built-in inference kernels.

Two backends per op where it matters:

* ``reference`` kernels replay the eager eval-mode forward operation for
  operation — same NumPy calls, same order, same intermediate layouts —
  so outputs are bit-identical to the autograd path (including every
  fake-quantization stage, using the observer ranges frozen at compile
  time);
* ``fast`` kernels compute the same function with deployment-oriented
  shortcuts: pre-folded BatchNorm, fused ReLU/bias epilogues, zero-copy
  strided tile extraction, a dedicated 1×1-convolution GEMM, and cached
  (pre-transformed, pre-laid-out) Winograd filters.

Kernel signature: ``kernel(inputs, attrs) -> np.ndarray``.  ``attrs`` is
the step's frozen attribute dict; quantization stages appear as
``q_<stage>`` entries of the form ``{"scale": s, "qmax": q}`` (frozen
observer) or ``{"dynamic_bits": b}`` (uncalibrated observer: range taken
from the batch, mirroring the eager fallback), or ``None`` when disabled.

Memory discipline (``fast``/``int8`` only — the ``reference``
kernels keep their original allocation pattern as the fidelity oracle):
every hot kernel asks the executor's per-run arena for its buffers —
:func:`~repro.engine.memplan.take_out` for the step's planned output
register, :func:`~repro.engine.memplan.take_scratch` for temporaries
(im2row row buffers, padded inputs, Winograd tile/transform-domain
intermediates, quantization code buffers).  Outside a planned execution
both helpers degrade to plain NumPy allocation, so calling a kernel
directly behaves exactly as before.  A kernel may mutate only arrays it
obtained this way (or fresh GEMM outputs) — never an input register.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.engine.int8 import prepare_runtime, stages_cold
from repro.engine.memplan import take_out, take_scratch
from repro.engine.registry import register_kernel
from repro.quant.quantizer import quantization_scale


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _stage_scale(q: Dict) -> float:
    """A frozen stage's scale, guarding degenerate ranges.

    A scale of zero (or non-finite) can only come from a degenerate
    observation like an all-zero calibration batch; fall back to the
    same harmless ``1/qmax`` default :func:`quantization_scale` uses
    rather than divide by it.
    """
    scale = q["scale"]
    if not (scale > 0.0 and np.isfinite(scale)):
        return 1.0 / q["qmax"]
    return scale


def fake_quant(x: np.ndarray, q: Optional[Dict], out: Optional[np.ndarray] = None) -> np.ndarray:
    """Apply one frozen fake-quantization stage (mirrors ``FakeQuant``).

    A stage compiled from an unwarmed activation observer starts as
    ``{"dynamic_bits": b}``; like eager's eval-before-observation
    fallback it takes the range from the first batch it sees — and then
    freezes it into the stage dict, exactly as eager's observer
    initialises once and keeps that range for every later batch.  (The
    plan's frozen copy does not write back to the model's observer
    buffers; recompile after calibrating the model to pick them up.)

    ``out`` may be a caller-owned buffer (it may alias ``x`` when the
    caller owns ``x`` too): the same elementwise operations land there
    instead of a fresh array, with identical values.
    """
    if q is None:
        return x
    if "scale" in q:
        scale, qmax = _stage_scale(q), q["qmax"]
    else:
        bits = q["dynamic_bits"]
        qmax = float(2 ** (bits - 1) - 1)
        batch_max = float(np.abs(x).max()) if x.size else 0.0
        # quantization_scale guards batch_max <= 0 (all-zero calibration
        # batch) by returning 1/qmax, so the divide below is always safe.
        scale = quantization_scale(batch_max, bits)
        q["scale"], q["qmax"] = scale, qmax  # freeze, mirroring the observer
    if out is not None and out.dtype != x.dtype:
        out = None
    # One buffer, then in-place: same elementwise operations (and the
    # same roundings) as rint(x / scale) -> clip -> * scale -> astype.
    r = np.divide(x, scale, out=out)
    np.rint(r, out=r)
    np.clip(r, -qmax, qmax, out=r)
    r *= scale
    return r if r.dtype == x.dtype else r.astype(x.dtype)


def _fq_scratch(x: np.ndarray, q: Optional[Dict], tag: str) -> np.ndarray:
    """Kernel-prologue fake-quant into step scratch (input registers must
    never be mutated, so the quantized copy gets its own workspace)."""
    if q is None:
        return x
    return fake_quant(x, q, out=take_scratch(tag, x.shape, x.dtype))


def _strided_patches(x: np.ndarray, kh: int, kw: int, sh: int, sw: int) -> np.ndarray:
    """(N, C, nH, nW, kh, kw) sliding-window *view* (no copy)."""
    n, c, h, w = x.shape
    nh = (h - kh) // sh + 1
    nw = (w - kw) // sw + 1
    sn, sc, shh, sww = x.strides
    return np.lib.stride_tricks.as_strided(
        x, shape=(n, c, nh, nw, kh, kw), strides=(sn, sc, shh * sh, sww * sw, shh, sww)
    )


def _padded_scratch(x: np.ndarray, ph: int, pw: int, tag: str = "xp") -> np.ndarray:
    """Zero-padded copy of ``x`` in step scratch (same values as
    ``np.pad``; the pad borders are zeroed once at buffer allocation and
    stay zero because only the interior is ever written)."""
    n, c, h, w = x.shape
    xp = take_scratch(tag, (n, c, h + 2 * ph, w + 2 * pw), np.float32, zero=True)
    xp[:, :, ph : ph + h, pw : pw + w] = x
    return xp


def _epilogue(y: np.ndarray, attrs: Dict, k: int, quantize_output: bool = True) -> np.ndarray:
    """Fast-path conv epilogue: bias, output quant, fused ReLU — in place.

    ``y`` is always owned by the calling kernel (a fresh GEMM output or
    this step's scratch), never a register another step still reads, so
    the epilogue composes in place with values identical to the old
    allocate-per-stage form.  Folded BN lives entirely in the step's
    weights/bias by the time the kernel runs (see ``_fold_bn``), so no
    affine remains here.  The Winograd kernel quantizes its output
    *before* the bias (matching the eager pipeline order) and passes
    ``quantize_output=False``; the standard conv quantizes after the
    bias, matching ``QuantConv2d``.
    """
    bias = attrs.get("bias")
    if bias is not None:
        y += bias.reshape(1, k, 1, 1)
    if quantize_output:
        y = fake_quant(y, attrs.get("q_output"), out=y)
    if attrs.get("fuse_relu"):
        np.maximum(y, 0.0, out=y)
    return y


# ---------------------------------------------------------------------------
# Elementwise / shape ops
# ---------------------------------------------------------------------------


@register_kernel("relu")
def relu_kernel(inputs, attrs):
    """Single-pass ReLU, bit-equal to eager's ``where(x > 0, x, 0.0)``
    for every finite input (including ``-0.0 → 0.0``) without the mask
    allocation and second pass.  (The one divergence is non-finite
    garbage: eager maps NaN to 0.0 where ``maximum`` propagates it —
    arguably the more honest answer, and unreachable from the finite
    activations every model here produces.)"""
    (x,) = inputs
    return np.maximum(x, 0.0)


@register_kernel("relu", "fast")
def relu_fast(inputs, attrs):
    (x,) = inputs
    return np.maximum(x, 0.0, out=take_out(x.shape, x.dtype))


@register_kernel("add")
def add_kernel(inputs, attrs):
    a, b = inputs
    y = a + b
    if attrs.get("fuse_relu"):
        y = np.maximum(y, 0.0)
    return y


@register_kernel("add", "fast")
def add_fast(inputs, attrs):
    a, b = inputs
    y = np.add(a, b, out=take_out(a.shape, a.dtype))
    if attrs.get("fuse_relu"):
        np.maximum(y, 0.0, out=y)
    return y


@register_kernel("concat")
def concat_kernel(inputs, attrs):
    return np.concatenate(inputs, axis=attrs.get("axis", 1))


@register_kernel("concat", "fast")
def concat_fast(inputs, attrs):
    axis = attrs.get("axis", 1)
    shape = list(inputs[0].shape)
    shape[axis] = sum(a.shape[axis] for a in inputs)
    out = take_out(tuple(shape), inputs[0].dtype)
    if out is None:
        return np.concatenate(inputs, axis=axis)
    np.concatenate(inputs, axis=axis, out=out)
    return out


@register_kernel("flatten")
def flatten_kernel(inputs, attrs):
    (x,) = inputs
    return x.reshape(x.shape[0], int(np.prod(x.shape[1:])))


@register_kernel("record_hw")
def record_hw_kernel(inputs, attrs):
    """Record the incoming spatial shape on the source module.

    This keeps ``repro.hardware`` consumers (the latency table) working
    when a model is probed through a compiled plan instead of an eager
    forward: the plan writes ``last_input_hw`` exactly like the eager
    layers do.
    """
    (x,) = inputs
    for module in attrs["modules"]:
        module.last_input_hw = (x.shape[2], x.shape[3])
    return x


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------


@register_kernel("max_pool")
def max_pool_kernel(inputs, attrs):
    (x,) = inputs
    kh, kw = attrs["kernel"]
    sh, sw = attrs["stride"]
    # Mirror eager F.max_pool2d op for op, *including* the contiguous
    # patch materialisation: the max itself is order-insensitive, but the
    # output layout steers the summation order of whatever reduction
    # consumes it next (the differential fuzz corpus caught a GAP head
    # diverging by one ulp when this kernel reduced a strided view and
    # returned a K-order array where eager returns C order).
    patches = np.ascontiguousarray(_strided_patches(x, kh, kw, sh, sw))
    n, c, oh, ow = patches.shape[:4]
    return patches.reshape(n, c, oh, ow, kh * kw).max(axis=4)


@register_kernel("max_pool", "fast")
def max_pool_fast(inputs, attrs):
    """Window max as kh·kw strided-slice maximums (bit-equal to reference:
    max is exactly associative, only the reduction order differs)."""
    (x,) = inputs
    kh, kw = attrs["kernel"]
    sh, sw = attrs["stride"]
    n, c, h, w = x.shape
    nh = (h - kh) // sh + 1
    nw = (w - kw) // sw + 1
    out = take_out((n, c, nh, nw), x.dtype)
    first = True
    for i in range(kh):
        for j in range(kw):
            window = x[:, :, i : i + sh * nh : sh, j : j + sw * nw : sw]
            if first:
                if out is None:
                    out = np.ascontiguousarray(window)
                else:
                    np.copyto(out, window)
                first = False
            else:
                np.maximum(out, window, out=out)
    return out


@register_kernel("avg_pool")
def avg_pool_kernel(inputs, attrs):
    (x,) = inputs
    kh, kw = attrs["kernel"]
    sh, sw = attrs["stride"]
    # Mirror eager F.avg_pool2d op for op: materialise the patches
    # contiguously (extract_patches does) and reduce the *flattened*
    # window axis — summing the strided (kh, kw) view over two axes
    # walks the addends in a different order and can differ by one ulp
    # on adversarial data (caught by the differential fuzz corpus).
    patches = np.ascontiguousarray(_strided_patches(x, kh, kw, sh, sw))
    n, c, oh, ow = patches.shape[:4]
    flat = patches.reshape(n, c, oh, ow, kh * kw)
    return flat.sum(axis=4) * np.float32(1.0 / (kh * kw))


@register_kernel("avg_pool", "fast")
def avg_pool_fast(inputs, attrs):
    (x,) = inputs
    kh, kw = attrs["kernel"]
    sh, sw = attrs["stride"]
    patches = _strided_patches(x, kh, kw, sh, sw)
    out = np.sum(patches, axis=(4, 5), out=take_out(patches.shape[:4], x.dtype))
    out *= np.float32(1.0 / (kh * kw))
    return out


@register_kernel("global_avg_pool")
def global_avg_pool_kernel(inputs, attrs):
    (x,) = inputs
    count = x.shape[2] * x.shape[3]
    return x.sum(axis=(2, 3)) * np.float32(1.0 / count)


@register_kernel("global_avg_pool", "fast")
def global_avg_pool_fast(inputs, attrs):
    (x,) = inputs
    count = x.shape[2] * x.shape[3]
    out = np.sum(x, axis=(2, 3), out=take_out((x.shape[0], x.shape[1]), x.dtype))
    out *= np.float32(1.0 / count)
    return out


# ---------------------------------------------------------------------------
# BatchNorm (inference affine)
# ---------------------------------------------------------------------------


@register_kernel("affine")
def affine_kernel(inputs, attrs):
    """Eval-mode BatchNorm, mirroring ``F.batch_norm2d`` op for op."""
    (x,) = inputs
    c = x.shape[1]
    mean = attrs["mean"].reshape(1, c, 1, 1)
    inv_std = attrs["inv_std"].reshape(1, c, 1, 1)
    gamma = attrs["gamma"].reshape(1, c, 1, 1)
    beta = attrs["beta"].reshape(1, c, 1, 1)
    y = ((x - mean) * inv_std) * gamma + beta
    if attrs.get("fuse_relu"):
        y = np.maximum(y, 0.0)
    return y


@register_kernel("affine", "fast")
def affine_fast(inputs, attrs):
    (x,) = inputs
    c = x.shape[1]
    y = np.multiply(x, attrs["scale"].reshape(1, c, 1, 1), out=take_out(x.shape, x.dtype))
    y += attrs["shift"].reshape(1, c, 1, 1)
    if attrs.get("fuse_relu"):
        np.maximum(y, 0.0, out=y)
    return y


# ---------------------------------------------------------------------------
# Linear
# ---------------------------------------------------------------------------


@register_kernel("linear")
def linear_kernel(inputs, attrs):
    (x,) = inputs
    x = fake_quant(x, attrs.get("q_input"))
    out = np.matmul(x, attrs["weight"].transpose())
    bias = attrs.get("bias")
    if bias is not None:
        out = out + bias
    out = fake_quant(out, attrs.get("q_output"))
    if attrs.get("fuse_relu"):
        out = np.maximum(out, 0.0)
    return out


@register_kernel("linear", "fast")
def linear_fast(inputs, attrs):
    (x,) = inputs
    x = _fq_scratch(x, attrs.get("q_input"), "qx")
    weight = attrs["weight"]
    out = np.matmul(
        x, weight.transpose(), out=take_out((x.shape[0], weight.shape[0]), x.dtype)
    )
    bias = attrs.get("bias")
    if bias is not None:
        out += bias
    out = fake_quant(out, attrs.get("q_output"), out=out)
    if attrs.get("fuse_relu"):
        np.maximum(out, 0.0, out=out)
    return out


# ---------------------------------------------------------------------------
# Standard convolution (im2row GEMM)
# ---------------------------------------------------------------------------


@register_kernel("conv2d")
def conv2d_reference(inputs, attrs):
    """Bit-faithful mirror of ``F.conv2d_im2row`` (plus quant stages)."""
    (x,) = inputs
    weight = attrs["weight"]
    bias = attrs.get("bias")
    sh, sw = attrs["stride"]
    ph, pw = attrs["padding"]
    groups = attrs["groups"]
    x = fake_quant(x, attrs.get("q_input"))
    n, c, h, w = x.shape
    k, cg, kh, kw = weight.shape
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    patches = np.ascontiguousarray(_strided_patches(xp, kh, kw, sh, sw))
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (w + 2 * pw - kw) // sw + 1
    if groups == 1:
        rows = np.transpose(patches, (0, 2, 3, 1, 4, 5)).reshape(n * oh * ow, c * kh * kw)
        wmat = weight.reshape(k, c * kh * kw).transpose()
        out = np.transpose(np.matmul(rows, wmat).reshape(n, oh, ow, k), (0, 3, 1, 2))
    else:
        g = groups
        rows = np.transpose(
            patches.reshape(n, g, c // g, oh, ow, kh, kw), (1, 0, 3, 4, 2, 5, 6)
        ).reshape(g, n * oh * ow, (c // g) * kh * kw)
        wmat = np.transpose(weight.reshape(g, k // g, (c // g) * kh * kw), (0, 2, 1))
        out = np.transpose(
            np.matmul(rows, wmat).reshape(g, n, oh, ow, k // g), (1, 0, 4, 2, 3)
        ).reshape(n, k, oh, ow)
    if bias is not None:
        out = out + bias.reshape(1, k, 1, 1)
    out = fake_quant(out, attrs.get("q_output"))
    if attrs.get("fuse_relu"):
        out = np.maximum(out, 0.0)
    return out


@register_kernel("conv2d", "fast")
def conv2d_fast(inputs, attrs):
    """im2row GEMM with a 1×1 shortcut and fused epilogue.

    ``attrs["weight"]`` may already carry folded BatchNorm scales; any
    remaining affine lives in ``attrs["scale"]/["shift"]`` (quantized
    convs keep BN separate to preserve the quantization grid).  All
    temporaries (quantized input, padded input, im2row rows, GEMM
    output) live in step scratch.
    """
    (x,) = inputs
    weight = attrs["weight"]
    sh, sw = attrs["stride"]
    ph, pw = attrs["padding"]
    groups = attrs["groups"]
    x = _fq_scratch(x, attrs.get("q_input"), "qx")
    n, c, h, w = x.shape
    k, cg, kh, kw = weight.shape

    if kh == 1 and kw == 1 and (sh, sw) == (1, 1) and (ph, pw) == (0, 0) and groups == 1:
        # 1×1 convolution is a plain channel GEMM: (K, C) @ (C, H·W).
        wmat = attrs["wmat"]  # (K, C), contiguous, precomputed
        out = np.matmul(
            wmat[None],
            x.reshape(n, c, h * w),
            out=take_scratch("gemm", (n, k, h * w), x.dtype),
        )
        return _epilogue(out.reshape(n, k, h, w), attrs, k)

    xp = _padded_scratch(x, ph, pw) if (ph or pw) else x
    patches = _strided_patches(xp, kh, kw, sh, sw)
    oh, ow = patches.shape[2], patches.shape[3]
    if groups == 1:
        rows = take_scratch("rows", (n * oh * ow, c * kh * kw), x.dtype)
        rows.reshape(n, oh, ow, c, kh, kw)[...] = np.transpose(
            patches, (0, 2, 3, 1, 4, 5)
        )
        gemm = np.matmul(
            rows, attrs["wmat"], out=take_scratch("gemm", (n * oh * ow, k), x.dtype)
        )
        out = np.transpose(gemm.reshape(n, oh, ow, k), (0, 3, 1, 2))
    else:
        g = groups
        rows = take_scratch("rows", (g, n * oh * ow, (c // g) * kh * kw), x.dtype)
        rows.reshape(g, n, oh, ow, c // g, kh, kw)[...] = np.transpose(
            patches.reshape(n, g, c // g, oh, ow, kh, kw), (1, 0, 3, 4, 2, 5, 6)
        )
        gemm = np.matmul(
            rows,
            attrs["wmat"],
            out=take_scratch("gemm", (g, n * oh * ow, k // g), x.dtype),
        )
        out = take_scratch("y", (n, k, oh, ow), x.dtype)
        out.reshape(n, g, k // g, oh, ow)[...] = np.transpose(
            gemm.reshape(g, n, oh, ow, k // g), (1, 0, 4, 2, 3)
        )
    return _epilogue(out, attrs, k)


# ---------------------------------------------------------------------------
# Winograd convolution with cached filter transforms
# ---------------------------------------------------------------------------


class WinogradShapeError(ValueError):
    """A Winograd convolution whose output extent is non-positive.

    ``h + 2·pad < r`` used to slip through as ``th = 0`` — zero tiles,
    an empty output tensor, and a confusing failure several steps
    downstream.  The planner (:func:`repro.engine.memplan.infer_step_shape`)
    raises this at plan-build time, and the kernels raise it as a
    run-time backstop for unplanned executions.
    """


def _winograd_geometry(h, w, m, r, pad):
    out_h = h + 2 * pad - r + 1
    out_w = w + 2 * pad - r + 1
    if out_h <= 0 or out_w <= 0:
        raise WinogradShapeError(
            f"winograd_conv2d output extent {out_h}x{out_w} is non-positive "
            f"for input {h}x{w} (r={r}, pad={pad}); the input is smaller "
            f"than the kernel's receptive field"
        )
    th = -(-out_h // m)
    tw = -(-out_w // m)
    return out_h, out_w, th, tw


@register_kernel("winograd_conv2d")
def winograd_reference(inputs, attrs):
    """Bit-faithful mirror of ``WinogradConv2d.forward`` in eval mode.

    The filter transform ``U = Qwt(G · Qw(g) · Gᵀ)`` was computed once at
    compile time (``attrs["u"]``) — identical values to what the eager
    layer recomputes every forward.
    """
    (x,) = inputs
    u = attrs["u"]  # (K, C/g, t, t)
    BT, AT = attrs["BT"], attrs["AT"]
    bias = attrs.get("bias")
    m, r, t, g = attrs["m"], attrs["r"], attrs["t"], attrs["groups"]
    k, pad = attrs["out_channels"], attrs["pad"]

    x = fake_quant(x, attrs.get("q_input"))
    n, c, h, w = x.shape
    out_h, out_w, th, tw = _winograd_geometry(h, w, m, r, pad)

    need_h = th * m + r - 1
    need_w = tw * m + r - 1
    if pad == 0 and need_h == h and need_w == w:
        xp = x  # tiles already cover the input exactly: no pad, no copy
    else:
        xp = np.pad(
            x, ((0, 0), (0, 0), (pad, need_h - h - pad), (pad, need_w - w - pad))
        )
    tiles = np.ascontiguousarray(_strided_patches(xp, t, t, m, m))
    v = np.matmul(np.matmul(BT, tiles), BT.transpose())
    v = fake_quant(v, attrs.get("q_input_t"))

    p = n * th * tw
    u2 = np.transpose(u.reshape(g, k // g, c // g, t, t), (3, 4, 0, 1, 2))
    v2 = np.transpose(
        v.reshape(n, g, c // g, th, tw, t, t), (5, 6, 1, 2, 0, 3, 4)
    ).reshape(t, t, g, c // g, p)
    had = np.matmul(u2, v2)  # (t, t, g, K/g, P)
    had = fake_quant(had, attrs.get("q_hadamard"))

    y = np.transpose(had.reshape(t, t, k, p), (2, 3, 0, 1))
    y = np.matmul(np.matmul(AT, y), AT.transpose())  # (K, P, m, m)
    y = fake_quant(y, attrs.get("q_output"))

    y = np.transpose(y.reshape(k, n, th, tw, m, m), (1, 0, 2, 4, 3, 5)).reshape(
        n, k, th * m, tw * m
    )
    if th * m != out_h:
        y = y[:, :, :out_h, :]
    if tw * m != out_w:
        y = y[:, :, :, :out_w]
    if bias is not None:
        y = y + bias.reshape(1, k, 1, 1)
    if attrs.get("fuse_relu"):
        y = np.maximum(y, 0.0)
    return y


@register_kernel("winograd_conv2d", "fast")
def winograd_fast(inputs, attrs):
    """Deployment Winograd path: Kronecker tile transforms + batched GEMMs.

    ``Bᵀ d B`` over a t×t tile is linear in the flattened tile, so the
    input transform for *all* N·C·th·tw tiles of the batch is one
    ``(N·C·th·tw, t²) × (t², t²)`` GEMM against the cached Kronecker
    matrix ``kron(Bᵀ, Bᵀ)ᵀ`` (``attrs["btk"]``), and likewise the output
    transform against ``kron(Aᵀ, Aᵀ)ᵀ``.  The Hadamard stage is t² GEMMs
    of (K/g × C/g)·(C/g × P) per group.  GEMM row counts scale with the
    batch, so per-sample cost *drops* as the dynamic batcher coalesces
    requests — deep layers (few tiles per sample) amortise hardest.
    Bias / folded BN / fused ReLU are applied in a single epilogue.
    Every intermediate (padded input, tile matrix, transform domains,
    NCHW assembly) lives in step scratch.
    """
    (x,) = inputs
    u2 = attrs["u2"]  # (t, t, g, K/g, C/g), contiguous, cached at compile
    btk, atk = attrs.get("btk"), attrs.get("atk")  # (t², t²), (t², m²)
    m, r, t, g = attrs["m"], attrs["r"], attrs["t"], attrs["groups"]
    k, pad = attrs["out_channels"], attrs["pad"]

    x = _fq_scratch(x, attrs.get("q_input"), "qx")
    n, c, h, w = x.shape
    out_h, out_w, th, tw = _winograd_geometry(h, w, m, r, pad)
    tt, p = t * t, n * th * tw

    need_h = th * m + r - 1
    need_w = tw * m + r - 1
    if pad == 0 and need_h == h and need_w == w:
        xp = x  # tiles already cover the input exactly: no pad copy
    else:
        xp = take_scratch("xp", (n, c, need_h, need_w), np.float32, zero=True)
        xp[:, :, pad : pad + h, pad : pad + w] = x
    tiles = _strided_patches(xp, t, t, m, m)  # view, no copy
    if btk is None:  # large tiles: nested two-stage transform (precision)
        BT = attrs["BT"]
        v = np.matmul(np.matmul(BT, tiles), BT.transpose())
        v = fake_quant(v, attrs.get("q_input_t"), out=v)
        v2 = take_scratch("v2", (t, t, g, c // g, p), v.dtype)
        v2.reshape(t, t, g, c // g, n, th * tw)[...] = np.transpose(
            v.reshape(n, g, c // g, th, tw, t, t), (5, 6, 1, 2, 0, 3, 4)
        ).reshape(t, t, g, c // g, n, th * tw)
    else:
        tmat = take_scratch("tiles", (n * c * th * tw, tt), x.dtype)
        tmat.reshape(n, c, th, tw, t, t)[...] = tiles
        v = np.matmul(
            tmat, btk, out=take_scratch("v", (n * c * th * tw, tt), x.dtype)
        )
        v = fake_quant(v, attrs.get("q_input_t"), out=v)
        v2 = take_scratch("v2", (t, t, g, c // g, p), v.dtype)
        v2.reshape(tt, g, c // g, n, th * tw)[...] = np.transpose(
            v.reshape(n, g, c // g, th * tw, tt), (4, 1, 2, 0, 3)
        )
    had = np.matmul(
        u2, v2, out=take_scratch("had", (t, t, g, k // g, p), v2.dtype)
    )  # (t, t, g, K/g, P)
    had = fake_quant(had, attrs.get("q_hadamard"), out=had)

    if atk is None:
        AT = attrs["AT"]
        y = np.transpose(had.reshape(t, t, k, p), (2, 3, 0, 1))
        y = np.matmul(np.matmul(AT, y), AT.transpose())  # (K, P, m, m)
    else:
        hadT = take_scratch("hadT", (k * p, tt), had.dtype)
        hadT[...] = np.transpose(had.reshape(tt, k * p), (1, 0))
        y = np.matmul(hadT, atk, out=take_scratch("ymat", (k * p, m * m), had.dtype))
    y = fake_quant(y, attrs.get("q_output"), out=y)

    yout = take_scratch("y", (n, k, th * m, tw * m), np.float32)
    yout.reshape(n, k, th, m, tw, m)[...] = np.transpose(
        y.reshape(k, n, th, tw, m, m), (1, 0, 2, 4, 3, 5)
    )
    y = yout
    if th * m != out_h or tw * m != out_w:
        y = y[:, :, :out_h, :out_w]
    y = _epilogue(y, attrs, k, quantize_output=False)
    return y


# ---------------------------------------------------------------------------
# Native integer-arithmetic kernels (the ``int8`` backend)
# ---------------------------------------------------------------------------
#
# Quantized layers execute on the integer *codes* of the fake-quant grids
# (see repro.engine.int8 for the compile-side preparation and the
# exactness argument).  Every GEMM here runs over integer-valued float
# arrays whose partial sums were proven, at compile time, to stay below
# the dtype's mantissa bound — so the float GEMM is exact at any BLAS
# blocking, and reassociation-friendly layouts (the transform output is
# produced directly in the Hadamard layout; the output transform
# consumes the Hadamard layout directly) are safe in a way they are not
# for the float ``fast`` path.

#: Set True (tests/debugging) to assert at run time that every integer
#: accumulator stays within its compile-time bound.
INT8_STRICT = False


def _int8_matmul(a, b, out=None):
    """GEMM over integer-valued operands.

    Exactness is guaranteed by the compile-time accumulator-bound
    analysis (every partial sum representable in the operand dtype) —
    which also makes ``out=`` placement value-neutral.  Tests monkeypatch
    this with an int64 matmul: bit-identical results prove the float
    path is exact at the actual model shapes.
    """
    return np.matmul(a, b, out=out)


def _cast_scratch(arr: np.ndarray, dtype, tag: str) -> np.ndarray:
    """Exact dtype conversion into step scratch (integer-valued arrays
    convert losslessly both ways below the mantissa bounds)."""
    if arr.dtype == dtype:
        return arr
    buf = take_scratch(tag, arr.shape, dtype)
    buf[...] = arr
    return buf


def _quantize_codes(x, q, out=None):
    """Float tensor → integer codes on stage ``q``'s grid.

    Identical decisions to :func:`fake_quant` (same ``x / scale`` →
    ``rint`` → ``clip`` operations), minus the final multiply back onto
    the grid — codes are the int8 backend's currency.
    """
    scale, qmax = _stage_scale(q), q["qmax"]
    r = np.divide(x, scale, out=out)
    np.rint(r, out=r)
    np.clip(r, -qmax, qmax, out=r)
    return r


def _requant_codes(acc, d, q, bias=None, qmax=None):
    """Integer accumulator → codes on stage ``q``'s grid, in place.

    Composes exactly like ``fake_quant(dequant(acc) [+ bias])``: multiply
    by the precomputed dequant scale product ``d``, add the (float) bias
    if the stage sits after one, divide by the stage scale, ``rint``,
    ``clip`` — the same elementwise grid operations, fused onto the
    accumulator with no allocation.

    ``qmax`` overrides the stage's scalar clip ceiling — per-tap grids
    (see :func:`repro.engine.int8.enable_per_tap`) refine tap ``(i,j)``'s
    scale to ``scale·2^f`` while widening its ceiling to ``qmax·2^-f``,
    so the override is a broadcastable array of per-tap ceilings.  That
    case clips as two in-place passes, ``minimum`` then ``maximum``: the
    same bits as ``np.clip`` (NaN included) without its slow broadcast
    loop.
    """
    acc *= d
    if bias is not None:
        acc += bias
    scale = _stage_scale(q)
    acc /= scale
    np.rint(acc, out=acc)
    if qmax is None:
        np.clip(acc, -q["qmax"], q["qmax"], out=acc)
    else:
        np.minimum(acc, qmax, out=acc)
        np.maximum(acc, -qmax, out=acc)
    return acc


def _requant_out(out, rq, bias_shape=None):
    """Output-stage requant: fused requant onto the q_output grid, then a
    lossless downcast to float32 (codes ≤ qmax are exactly representable)
    so the epilogue composes in float32 exactly like the reference path's
    elementwise ops.  No-op when the output stage is disabled."""
    if rq is None:
        return out
    bias = rq["bias"]
    if bias is not None and bias_shape is not None:
        bias = bias.reshape(bias_shape)
    _requant_codes(out, rq["d"], rq["q"], bias=bias)
    return _cast_scratch(out, np.float32, "rq_f32")


def _int8_epilogue(codes, i8, bshape):
    """Fused step epilogue on output codes (in place).

    ``float`` mode: dequant scale, bias and any absorbed BatchNorm are
    one per-channel affine ``codes·A + B`` (then ReLU).  ``int`` mode
    (integer handoff): the same affine lands directly on the consumer's
    input grid and is rounded/clipped there — a fused ReLU becomes the
    ``lo = 0`` clip bound, since ``rint``/``clip`` are monotone.
    """
    epi = i8["epi"]
    codes *= epi["A"].reshape(bshape)
    if epi["B"] is not None:
        codes += epi["B"].reshape(bshape)
    if epi["mode"] == "int":
        np.rint(codes, out=codes)
        np.clip(codes, epi["lo"], epi["hi"], out=codes)
    elif epi["relu"]:
        np.maximum(codes, 0.0, out=codes)
    return _cast_scratch(codes, np.float32, "epi_f32")


def _cold_fallback(fast_fn, inputs, attrs):
    """First batch(es) of a cold-compiled plan: run the float ``fast``
    kernel — freezing the dynamic ranges exactly like eager's
    eval-before-observation path — and apply any absorbed BatchNorm in
    float.  Once every stage is frozen the kernel switches to the
    integer path for good."""
    y = fast_fn(inputs, attrs)
    post = attrs["i8"].get("post")
    if post is not None:
        bshape = (1, -1) + (1,) * (y.ndim - 2)
        y = y * post["scale"].reshape(bshape) + post["shift"].reshape(bshape)
        if post["relu"]:
            np.maximum(y, 0.0, out=y)
    return y


def _int8_gate(op, fast_fn, inputs, attrs):
    """Shared dispatch: fall back for ineligible steps, run the cold
    float path until ranges freeze, lazily prepare constants once."""
    i8 = attrs.get("i8")
    if i8 is None or not i8.get("ok"):
        return None  # caller delegates to the float kernel
    if not i8.get("ready"):
        if stages_cold(attrs, op):
            return _cold_fallback(fast_fn, inputs, attrs)
        prepare_runtime(op, attrs)
    return i8


@register_kernel("winograd_conv2d", "int8")
def winograd_int8(inputs, attrs):
    """Winograd on integer codes: quantize once into the padded buffer,
    one integer Kronecker GEMM producing the Hadamard layout directly,
    integer Hadamard contraction, transpose-free integer output
    transform, fused requant between every stage.  Every buffer —
    padded codes, tile matrix, transform domains, NCHW assembly — comes
    from step scratch."""
    i8 = _int8_gate("winograd_conv2d", winograd_fast, inputs, attrs)
    if i8 is None:
        return winograd_fast(inputs, attrs)
    if not isinstance(i8, dict) or "btk" not in i8:
        return i8  # cold-fallback result
    (x,) = inputs
    m, r, t, g = attrs["m"], attrs["r"], attrs["t"], attrs["groups"]
    k, pad = attrs["out_channels"], attrs["pad"]
    dt_v, dt_h, dt_z = i8["dts"]

    n, c, h, w = x.shape
    out_h, out_w, th, tw = _winograd_geometry(h, w, m, r, pad)
    tt, p = t * t, n * th * tw
    need_h, need_w = th * m + r - 1, tw * m + r - 1
    aligned = pad == 0 and need_h == h and need_w == w

    # Quantize straight into the zero-padded buffer: one pass, and the
    # zero padding is its own quantization (code(0) = 0).  When the
    # tiles already cover the input exactly, prequantized codes are
    # tiled straight off the producer's register with no copy at all.
    if aligned and i8.get("input_prequantized"):
        xp = x
    else:
        xp = take_scratch("xp", (n, c, need_h, need_w), np.float32, zero=not aligned)
        interior = xp if aligned else xp[:, :, pad : pad + h, pad : pad + w]
        if i8.get("input_prequantized"):
            interior[...] = x  # producer already emitted codes on our grid
        else:
            _quantize_codes(x, attrs["q_input"], out=interior)

    # Tile copy directly into (t², C·P) — the Kronecker GEMM then emits
    # the Hadamard-ready layout, killing the float path's big transpose.
    tiles = _strided_patches(xp, t, t, m, m)  # (n, c, th, tw, t, t) view
    tmat = take_scratch("tmat", (tt, c * p), dt_v)
    tmat.reshape(t, t, c, n, th, tw)[...] = np.transpose(tiles, (4, 5, 1, 0, 2, 3))
    v = _int8_matmul(
        i8["btk"], tmat, out=take_scratch("v", (tt, c * p), dt_v)
    )  # (t², C·P), exact integers
    if INT8_STRICT:
        assert float(np.abs(v).max(initial=0.0)) <= i8["bounds"][0]
    _requant_codes(v, i8["d_v"], attrs["q_input_t"], qmax=i8.get("qmax_v"))
    v = _cast_scratch(v, dt_h, "v_h")
    had = _int8_matmul(
        i8["u2q"],
        v.reshape(t, t, g, c // g, p),
        out=take_scratch("had", (t, t, g, k // g, p), dt_h),
    )  # (t, t, g, K/g, P)
    if INT8_STRICT:
        assert float(np.abs(had).max(initial=0.0)) <= i8["bounds"][1]
    _requant_codes(had, i8["d_h"], attrs["q_hadamard"], qmax=i8.get("qmax_h"))
    had = _cast_scratch(had, dt_z, "had_z")
    z = _int8_matmul(
        i8["atk"],
        had.reshape(tt, k * p),
        out=take_scratch("z", (m * m, k * p), dt_z),
    )  # (m², K·P)
    if INT8_STRICT:
        assert float(np.abs(z).max(initial=0.0)) <= i8["bounds"][2]
    z = _requant_out(z, i8["rq_out"])
    out = _int8_epilogue(z.reshape(m * m, k, p), i8, (1, k, 1))
    y = take_scratch("y", (n, k, th * m, tw * m), np.float32)
    y.reshape(n, k, th, m, tw, m)[...] = np.transpose(
        out.reshape(m, m, k, n, th, tw), (3, 2, 4, 0, 5, 1)
    )
    if th * m != out_h or tw * m != out_w:
        y = y[:, :, :out_h, :out_w]
    return y


@register_kernel("conv2d", "int8")
def conv2d_int8(inputs, attrs):
    """im2row GEMM on integer codes with fused requant epilogue."""
    i8 = _int8_gate("conv2d", conv2d_fast, inputs, attrs)
    if i8 is None:
        return conv2d_fast(inputs, attrs)
    if not isinstance(i8, dict) or "dt" not in i8:
        return i8  # cold-fallback result
    (x,) = inputs
    sh, sw = attrs["stride"]
    ph, pw = attrs["padding"]
    g = attrs["groups"]
    k, cg, kh, kw = attrs["weight"].shape
    n, c, h, w = x.shape
    dt = i8["dt"]
    rq = i8["rq_out"]

    if "wq_1x1" in i8:
        if i8.get("input_prequantized"):
            qx = np.ascontiguousarray(x).reshape(n, c, h * w)
        else:
            qx = _quantize_codes(
                x, attrs["q_input"], out=take_scratch("qx", x.shape, np.float32)
            ).reshape(n, c, h * w)
        qx = _cast_scratch(qx, dt, "qx_dt")
        out = _int8_matmul(
            i8["wq_1x1"][None], qx, out=take_scratch("gemm", (n, k, h * w), dt)
        )  # (n, K, H·W)
        if INT8_STRICT:
            assert float(np.abs(out).max(initial=0.0)) <= i8["bound"]
        out = _requant_out(out, rq, bias_shape=(1, k, 1))
        out = _int8_epilogue(out, i8, (1, k, 1))
        return out.reshape(n, k, h, w)

    xp = take_scratch("xp", (n, c, h + 2 * ph, w + 2 * pw), np.float32, zero=True)
    interior = xp[:, :, ph : ph + h, pw : pw + w]
    if i8.get("input_prequantized"):
        interior[...] = x
    else:
        _quantize_codes(x, attrs["q_input"], out=interior)
    patches = _strided_patches(xp, kh, kw, sh, sw)
    oh, ow = patches.shape[2], patches.shape[3]
    if g == 1:
        rows = take_scratch("rows", (n * oh * ow, c * kh * kw), dt)
        rows.reshape(n, oh, ow, c, kh, kw)[...] = np.transpose(
            patches, (0, 2, 3, 1, 4, 5)
        )
        out = _int8_matmul(
            rows, i8["wq_mat"], out=take_scratch("gemm", (n * oh * ow, k), dt)
        )  # (n·oh·ow, K)
        if INT8_STRICT:
            assert float(np.abs(out).max(initial=0.0)) <= i8["bound"]
        out = _requant_out(out, rq)
        out = _int8_epilogue(out, i8, (k,))
        return np.transpose(out.reshape(n, oh, ow, k), (0, 3, 1, 2))
    rows = take_scratch("rows", (g, n * oh * ow, (c // g) * kh * kw), dt)
    rows.reshape(g, n, oh, ow, c // g, kh, kw)[...] = np.transpose(
        patches.reshape(n, g, c // g, oh, ow, kh, kw), (1, 0, 3, 4, 2, 5, 6)
    )
    out = _int8_matmul(
        rows, i8["wq_mat"], out=take_scratch("gemm", (g, n * oh * ow, k // g), dt)
    )  # (g, n·oh·ow, K/g)
    if INT8_STRICT:
        assert float(np.abs(out).max(initial=0.0)) <= i8["bound"]
    out = _requant_out(out, rq, bias_shape=(g, 1, k // g))
    out = _int8_epilogue(out, i8, (g, 1, k // g))
    return np.transpose(
        out.reshape(g, n, oh, ow, k // g), (1, 0, 4, 2, 3)
    ).reshape(n, k, oh, ow)


@register_kernel("linear", "int8")
def linear_int8(inputs, attrs):
    """Fully-connected layer on integer codes."""
    i8 = _int8_gate("linear", linear_kernel, inputs, attrs)
    if i8 is None:
        return linear_kernel(inputs, attrs)
    if not isinstance(i8, dict) or "wq_t" not in i8:
        return i8  # cold-fallback result
    (x,) = inputs
    k = attrs["weight"].shape[0]
    if i8.get("input_prequantized"):
        qx = np.ascontiguousarray(x)
    else:
        qx = _quantize_codes(
            x, attrs["q_input"], out=take_scratch("qx", x.shape, np.float32)
        )
    qx = _cast_scratch(qx, i8["dt"], "qx_dt")
    out = _int8_matmul(
        qx, i8["wq_t"], out=take_scratch("gemm", (x.shape[0], k), i8["dt"])
    )  # (N, out)
    if INT8_STRICT:
        assert float(np.abs(out).max(initial=0.0)) <= i8["bound"]
    out = _requant_out(out, i8["rq_out"])
    return _int8_epilogue(out, i8, (k,))
