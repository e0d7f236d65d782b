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

Kernel signature: ``kernel(inputs, attrs) -> run``, called once with a
step's first-run inputs; ``run(*inputs) -> np.ndarray`` then executes
the step on inputs of those shapes and layouts.  ``attrs`` is the
step's frozen attribute dict; quantization stages appear as
``q_<stage>`` entries of the form ``{"scale": s, "qmax": q}`` (the
observer range the model froze before compiling), or ``None`` when
disabled; no kernel ever changes them, so a run reads the plan and
writes only its arena.

Activation layout: every tensor is NCHW except in ``int8`` plans, whose
native convolutions run channels-last (NHWC) and whose layout-neutral
ops (``relu``, ``add``, ``affine``, ``concat``, ``max_pool``,
``global_avg_pool``) follow their input; such steps carry
``attrs["layout"] == "nhwc"`` (see :func:`repro.engine.int8.assign_layouts`).

Memory discipline (``fast``/``int8`` only — the ``reference``
kernels keep their original allocation pattern as the fidelity oracle,
behind the :func:`per_call` adapter): every hot kernel asks the
executor's per-run arena for its buffers when it binds —
:func:`~repro.engine.memplan.take_out` for the step's planned output
register, :func:`~repro.engine.memplan.take_scratch` for temporaries
(im2row row buffers, padded inputs, Winograd tile/transform-domain
intermediates, quantization code buffers) — and its runner only moves
data.  Temporaries are transient (shared with every other step) unless
taken ``zero`` or ``persistent``, so a runner returns a view of
``take_out`` wherever the output's layout is the register's, and of
persistent scratch only where it is not (the transposed im2row GEMM, a
cropped Winograd output).  Outside a planned execution both helpers
degrade to plain NumPy allocation.  A runner may mutate only arrays its
kernel obtained this way (or fresh GEMM outputs) — never an input
register.
``conv2d``, ``winograd_conv2d`` and ``linear`` have one kernel each (for
``fast`` and ``int8``), which binds ``_bind_<op>`` for a native step and
``_bind_<op>_fast`` for a float one.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np

from repro.engine.int8 import NHWC, derive_multipliers, stage_scale
from repro.engine.memplan import take_out, take_scratch
from repro.engine.registry import register_kernel


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def fake_quant(x: np.ndarray, q: Optional[Dict], out: Optional[np.ndarray] = None) -> np.ndarray:
    """Apply one frozen fake-quantization stage (mirrors ``FakeQuant``).

    ``out`` may be a caller-owned buffer (it may alias ``x`` when the
    caller owns ``x`` too): the same elementwise operations land there
    instead of a fresh array, with identical values.
    """
    if q is None:
        return x
    scale, qmax = stage_scale(q), q["qmax"]
    if out is not None and out.dtype != x.dtype:
        out = None
    # One buffer, then in-place: same elementwise operations (and the
    # same roundings) as rint(x / scale) -> clip -> * scale -> astype.
    r = np.divide(x, scale, out=out)
    np.rint(r, out=r)
    np.clip(r, -qmax, qmax, out=r)
    r *= scale
    return r if r.dtype == x.dtype else r.astype(x.dtype)


def _nhwc(attrs: Dict) -> bool:
    return attrs.get("layout") == NHWC


def _strided_patches(x: np.ndarray, kh: int, kw: int, sh: int, sw: int) -> np.ndarray:
    """(N, C, nH, nW, kh, kw) sliding-window *view* (no copy)."""
    n, c, h, w = x.shape
    nh = (h - kh) // sh + 1
    nw = (w - kw) // sw + 1
    sn, sc, shh, sww = x.strides
    return np.lib.stride_tricks.as_strided(
        x, shape=(n, c, nh, nw, kh, kw), strides=(sn, sc, shh * sh, sww * sw, shh, sww)
    )


def per_call(op: str):
    """Register the ``reference`` kernel body ``fn(inputs, attrs)``
    behind a runner that calls it with every run's inputs."""

    def decorator(fn):
        register_kernel(op)(lambda inputs, attrs: lambda *xs: fn(xs, attrs))
        return fn

    return decorator


def _bind_by_domain(inputs, attrs: Dict, native, fast):
    """Bind ``native`` for a step with an ``i8`` block, else ``fast``."""
    (x,) = inputs
    return (fast if attrs.get("i8") is None else native)(x.shape, attrs)


def _bind_pad(shape, ph: int, pw: int, size: tuple, nhwc: bool = False):
    """Bind padded scratch of spatial ``size`` and the view of its
    interior at offset ``(ph, pw)`` for an input of ``shape`` (NHWC when
    ``nhwc``).  Runs write only the interior; the border, zeroed at
    allocation, stays zero (the values of ``np.pad``), so the buffer is
    shared by every step of the same geometry, which the tag names."""
    if nhwc:
        n, h, w, c = shape
        full = (n, *size, c)
    else:
        n, c, h, w = shape
        full = (n, c, *size)
    tag = f"xp:{ph},{pw}:{h}x{w}"
    xp = take_scratch(tag, full, np.float32, zero=size != (h, w))
    if nhwc:
        return xp, xp[:, ph : ph + h, pw : pw + w]
    return xp, xp[:, :, ph : ph + h, pw : pw + w]


def _bind_epilogue(attrs: Dict, bias_shape: tuple, quantize_output: bool = True):
    """Bind the float epilogue: ``finish(y)`` adds the bias, applies the
    output quant stage and a fused ReLU, in place on ``y`` (always the
    runner's own GEMM output or scratch).  Folded BN lives in the
    weights/bias (see ``_fold_bn``).  The Winograd kernel quantizes its
    output *before* the bias (eager's order) and passes
    ``quantize_output=False``; conv and linear quantize after it, like
    ``QuantConv2d``."""
    bias = attrs.get("bias")
    if bias is not None:
        bias = bias.reshape(bias_shape)
    q_out = attrs.get("q_output") if quantize_output else None
    relu = attrs.get("fuse_relu")

    def finish(y):
        return _float_epilogue(y, bias, q_out, relu)

    return finish


def _float_epilogue(y, bias, q_out, relu):
    """Float epilogue phase (see :func:`_bind_epilogue`), in place on ``y``."""
    if bias is not None:
        y += bias
    y = fake_quant(y, q_out, out=y)
    if relu:
        np.maximum(y, 0.0, out=y)
    return y


# ---------------------------------------------------------------------------
# Elementwise / shape ops
# ---------------------------------------------------------------------------


@per_call("relu")
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
    out = take_out(x.shape, x.dtype)
    return lambda x: np.maximum(x, 0.0, out=out)


@per_call("add")
def add_kernel(inputs, attrs):
    a, b = inputs
    y = a + b
    if attrs.get("fuse_relu"):
        y = np.maximum(y, 0.0)
    return y


@register_kernel("add", "fast")
def add_fast(inputs, attrs):
    out = take_out(inputs[0].shape, inputs[0].dtype)
    if attrs.get("fuse_relu"):
        return lambda a, b: np.maximum(np.add(a, b, out=out), 0.0, out=out)
    return lambda a, b: np.add(a, b, out=out)


@per_call("concat")
def concat_kernel(inputs, attrs):
    return np.concatenate(inputs, axis=attrs.get("axis", 1))


@register_kernel("concat", "fast")
def concat_fast(inputs, attrs):
    axis = attrs.get("axis", 1)
    if _nhwc(attrs) and axis == 1:
        axis = 3
    shape = list(inputs[0].shape)
    shape[axis] = sum(a.shape[axis] for a in inputs)
    out = take_out(tuple(shape), inputs[0].dtype)
    return lambda *xs: np.concatenate(xs, axis=axis, out=out)


@per_call("flatten")
def flatten_kernel(inputs, attrs):
    (x,) = inputs
    return x.reshape(x.shape[0], int(np.prod(x.shape[1:])))


@register_kernel("transpose")
def transpose_kernel(inputs, attrs):
    """Move a 4-D activation between NCHW and channels-last (``attrs
    ["layout"]`` names the target).  Values are copied verbatim, so the
    op is grid-preserving: integer codes pass through it."""
    (x,) = inputs
    axes = (0, 2, 3, 1) if _nhwc(attrs) else (0, 3, 1, 2)
    out = take_out(x.transpose(axes).shape, x.dtype)

    def run(x):
        np.copyto(out, x.transpose(axes))
        return out

    return run


# ---------------------------------------------------------------------------
# Pooling
# ---------------------------------------------------------------------------


@per_call("max_pool")
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
    nhwc = _nhwc(attrs)
    if nhwc:  # pool NCHW-shaped views of channels-last memory
        x = x.transpose(0, 3, 1, 2)
    n, c, h, w = x.shape
    nh = (h - kh) // sh + 1
    nw = (w - kw) // sw + 1
    shape = (n, nh, nw, c) if nhwc else (n, c, nh, nw)
    out = take_out(shape, x.dtype)
    view = out.transpose(0, 3, 1, 2) if nhwc else out

    def run(x):
        if nhwc:
            x = x.transpose(0, 3, 1, 2)
        for i in range(kh):
            for j in range(kw):
                window = x[:, :, i : i + sh * nh : sh, j : j + sw * nw : sw]
                if i == j == 0:
                    np.copyto(view, window)
                else:
                    np.maximum(view, window, out=view)
        return out

    return run


@per_call("avg_pool")
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
    out = take_out(_strided_patches(x, kh, kw, sh, sw).shape[:4], x.dtype)
    scale = np.float32(1.0 / (kh * kw))
    return lambda x: np.multiply(
        np.sum(_strided_patches(x, kh, kw, sh, sw), axis=(4, 5), out=out), scale, out=out
    )


@per_call("global_avg_pool")
def global_avg_pool_kernel(inputs, attrs):
    (x,) = inputs
    count = x.shape[2] * x.shape[3]
    return x.sum(axis=(2, 3)) * np.float32(1.0 / count)


@register_kernel("global_avg_pool", "fast")
def global_avg_pool_fast(inputs, attrs):
    (x,) = inputs
    nhwc = _nhwc(attrs)
    if nhwc:
        x = x.transpose(0, 3, 1, 2)
    # Gather NCHW first (a channels-last input, or the NCHW view of an
    # im2row GEMM): the sum must run over each channel's contiguous h·w,
    # whose pairwise order fixes the result bits.
    nchw = None if x.flags.c_contiguous else take_scratch("nchw", x.shape, x.dtype)
    n, c, h, w = x.shape
    out = take_out((n, c), x.dtype)
    scale = np.float32(1.0 / (h * w))

    def run(x):
        if nhwc:
            x = x.transpose(0, 3, 1, 2)
        if nchw is not None:
            np.copyto(nchw, x)
            x = nchw
        return np.multiply(np.sum(x, axis=(2, 3), out=out), scale, out=out)

    return run


# ---------------------------------------------------------------------------
# BatchNorm (inference affine)
# ---------------------------------------------------------------------------


@per_call("affine")
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
    bshape = (1, 1, 1, -1) if _nhwc(attrs) else (1, x.shape[1], 1, 1)
    scale, shift = attrs["scale"].reshape(bshape), attrs["shift"].reshape(bshape)
    out = take_out(x.shape, x.dtype)
    relu = attrs.get("fuse_relu")

    def run(x):
        y = np.add(np.multiply(x, scale, out=out), shift, out=out)
        return np.maximum(y, 0.0, out=y) if relu else y

    return run


# ---------------------------------------------------------------------------
# Linear
# ---------------------------------------------------------------------------


@per_call("linear")
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
@register_kernel("linear", "int8")
def linear_fast(inputs, attrs):
    """Fully-connected layer: one float GEMM with a fused epilogue, or
    the integer-code GEMM of a native step."""
    return _bind_by_domain(inputs, attrs, _bind_linear, _bind_linear_fast)


def _bind_linear_fast(shape, attrs):
    q_in = attrs.get("q_input")
    qx = None if q_in is None else take_scratch("qx", shape)
    wt = attrs["weight"].transpose()
    out = take_out((shape[0], wt.shape[1]))
    finish = _bind_epilogue(attrs, (1, -1))

    def run(x):
        if qx is not None:
            x = fake_quant(x, q_in, out=qx)
        return finish(np.matmul(x, wt, out=out))

    return run


# ---------------------------------------------------------------------------
# Standard convolution (im2row GEMM)
# ---------------------------------------------------------------------------


@per_call("conv2d")
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
@register_kernel("conv2d", "int8")
def conv2d_fast(inputs, attrs):
    """im2row GEMM with a 1×1 shortcut and fused epilogue.

    ``attrs["weight"]`` may already carry folded BatchNorm scales; any
    remaining affine lives in ``attrs["scale"]/["shift"]`` (quantized
    convs keep BN separate to preserve the quantization grid).  All
    temporaries (quantized input, padded input, im2row rows, GEMM
    output) live in step scratch.
    """
    return _bind_by_domain(inputs, attrs, _bind_conv2d, _bind_conv2d_fast)


def _bind_conv2d_fast(shape, attrs):
    sh, sw = attrs["stride"]
    ph, pw = attrs["padding"]
    g, wmat = attrs["groups"], attrs["wmat"]
    k, cg, kh, kw = attrs["weight"].shape
    n, c, h, w = shape
    q_in = attrs.get("q_input")
    qx = None if q_in is None else take_scratch("qx", shape)
    finish = _bind_epilogue(attrs, (1, k, 1, 1))

    if kh == kw == 1 and (sh, sw) == (1, 1) and (ph, pw) == (0, 0) and g == 1:
        # 1×1 convolution is a plain channel GEMM: (K, C) @ (C, H·W).
        out = take_out((n, k, h, w))
        gemm = out.reshape(n, k, h * w)

        def run(x):
            if qx is not None:
                x = fake_quant(x, q_in, out=qx)
            np.matmul(wmat[None], x.reshape(n, c, h * w), out=gemm)
            return finish(out)

        return run

    # One im2row path over a leading group axis: with g == 1, rows[0],
    # wmat[0] and gemm[0] keep the GEMM 2-D.  (Older artifacts store the
    # dense wmat 2-D; the reshape views it the same way.)
    wmat = wmat.reshape(g, cg * kh * kw, k // g)
    if ph or pw:
        xp, interior = _bind_pad(shape, ph, pw, (h + 2 * ph, w + 2 * pw))
    oh, ow, kg = (h + 2 * ph - kh) // sh + 1, (w + 2 * pw - kw) // sw + 1, k // g
    rows = take_scratch("rows", (g, n * oh * ow, cg * kh * kw))
    # With one group the output is the GEMM's transposed view, so the
    # GEMM buffer outlives the step.
    gemm = take_scratch("gemm", (g, n * oh * ow, kg), persistent=g == 1)
    lhs, rhs, out = (rows[0], wmat[0], gemm[0]) if g == 1 else (rows, wmat, gemm)
    y_src = np.transpose(gemm.reshape(g, n, oh, ow, kg), (1, 0, 4, 2, 3))
    y = y_src[:, 0] if g == 1 else take_out((n, k, oh, ow))

    def run(x):
        if qx is not None:
            x = fake_quant(x, q_in, out=qx)
        if ph or pw:
            interior[...] = x
            x = xp
        patches = _strided_patches(x, kh, kw, sh, sw)
        rows.reshape(g, n, oh, ow, cg, kh, kw)[...] = np.transpose(
            patches.reshape(n, g, cg, oh, ow, kh, kw), (1, 0, 3, 4, 2, 5, 6)
        )
        np.matmul(lhs, rhs, out=out)
        if g > 1:
            y.reshape(n, g, kg, oh, ow)[...] = y_src
        return finish(y)

    return run


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


@per_call("winograd_conv2d")
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
@register_kernel("winograd_conv2d", "int8")
def winograd_fast(inputs, attrs):
    """Deployment Winograd path: Kronecker tile transforms + batched GEMMs.

    ``Bᵀ d B`` over a t×t tile is linear in the flattened tile, so the
    input transform for *all* N·C·th·tw tiles of the batch is one
    ``(t², t²) × (t², C·P)`` GEMM against the Kronecker matrix
    ``kron(Bᵀ, Bᵀ)`` (the ``.T`` view of the cached ``attrs["btk"]``),
    and likewise the output transform against ``kron(Aᵀ, Aᵀ)``.  The
    tiles are gathered tap-major, ``(t, t, C, N, th, tw)``, so the
    forward GEMM writes the Hadamard operand ``(t, t, g, C/g, P)`` as it
    lies, the Hadamard stage is t² GEMMs of (K/g × C/g)·(C/g × P) per
    group, and the inverse GEMM reads the Hadamard output
    ``(t, t, g, K/g, P)`` as it lies: no transpose between the three
    GEMMs.  GEMM widths scale with the batch, so per-sample cost *drops*
    as the dynamic batcher coalesces requests — deep layers (few tiles
    per sample) amortise hardest.  One scatter writes the NCHW output,
    and bias / folded BN / fused ReLU are applied in a single epilogue.
    Every intermediate (padded input, tiles, transform domains, output
    tiles) lives in step scratch.  Quantized steps and t > 8 keep the
    nested two-stage transforms (see ``_finalize_fast``).
    """
    return _bind_by_domain(inputs, attrs, _bind_winograd, _bind_winograd_fast)


def _pad_input(x, out):
    """Pad phase of a float step: copy ``x`` into ``out``, the interior
    of its zero-bordered padded buffer."""
    np.copyto(out, x)


def _float_matmul(a, b, out=None):
    """GEMM of a float step: the phase helper the fp32 ledger times
    (kept apart from :func:`_int8_matmul`, which tests replace with an
    int64 oracle)."""
    return np.matmul(a, b, out=out)


def _gather_tiles(tiles, tmat):
    """Tile gather: copy the tap-major tile view ``tiles`` into ``tmat``,
    so each tap's tiles form one GEMM operand — ``(t, t, N, th, tw, C)``
    on a native step (see :func:`_tile_view`), ``(t, t, C, N, th, tw)``
    on a float one."""
    np.copyto(tmat, tiles)
    return tmat


def _scatter_tiles(tiles, y):
    """Output scatter: copy the output-tile view ``tiles`` into the
    same-shaped view ``y`` of the output buffer — ``(N, th, m, tw, m, g,
    K/g)`` of a channels-last one on a native step, ``(N, K, th, m, tw,
    m)`` of an NCHW one on a float step."""
    np.copyto(y, tiles)
    return y


def _bind_winograd_fast(shape, attrs):
    u2 = attrs["u2"]  # (t, t, g, K/g, C/g), contiguous, cached at compile
    btk, atk = attrs.get("btk"), attrs.get("atk")  # (t², t²), (t², m²)
    BT, AT = attrs["BT"], attrs["AT"]
    m, r, t, g = attrs["m"], attrs["r"], attrs["t"], attrs["groups"]
    k, pad = attrs["out_channels"], attrs["pad"]
    stages = ("q_input", "q_input_t", "q_hadamard", "q_output")
    q_in, q_v, q_h, q_out = map(attrs.get, stages)
    n, c, h, w = shape
    out_h, out_w, th, tw = _winograd_geometry(h, w, m, r, pad)
    tt, p, cg = t * t, n * th * tw, c // g

    qx = None if q_in is None else take_scratch("qx", shape)
    need_h, need_w = th * m + r - 1, tw * m + r - 1
    padded = not (pad == 0 and need_h == h and need_w == w)  # else no pad copy
    if padded:
        xp, interior = _bind_pad(shape, pad, pad, (need_h, need_w))
    full = (n, k, th * m, tw * m)
    if full[2:] == (out_h, out_w):
        yout = take_out(full)
    else:  # the output is a cropped view of the tile assembly
        yout = take_scratch("y", full, persistent=True)
    result = yout[:, :, :out_h, :out_w]
    finish = _bind_epilogue(attrs, (1, k, 1, 1), quantize_output=False)

    def load(x):
        """The step's input, fake-quantized and zero-padded."""
        if qx is not None:
            x = fake_quant(x, q_in, out=qx)
        if padded:
            _pad_input(x, interior)
            return xp
        return x

    if btk is None:  # quantized or large tiles: nested two-stage transform
        v2 = take_scratch("v2", (t, t, g, cg, p))
        had = take_scratch("had", (t, t, g, k // g, p))

        def run(x):
            tiles = _strided_patches(load(x), t, t, m, m)  # view, no copy
            vn = np.matmul(np.matmul(BT, tiles), BT.transpose())
            vn = fake_quant(vn, q_v, out=vn)
            v2.reshape(t, t, g, cg, n, th * tw)[...] = np.transpose(
                vn.reshape(n, g, cg, th, tw, t, t), (5, 6, 1, 2, 0, 3, 4)
            ).reshape(t, t, g, cg, n, th * tw)
            fake_quant(np.matmul(u2, v2, out=had), q_h, out=had)
            y = np.transpose(had.reshape(t, t, k, p), (2, 3, 0, 1))
            y = np.matmul(np.matmul(AT, y), AT.transpose())  # (K, P, m, m)
            y = fake_quant(y, q_out, out=y)
            yout.reshape(n, k, th, m, tw, m)[...] = np.transpose(
                y.reshape(k, n, th, tw, m, m), (1, 0, 2, 4, 3, 5)
            )
            return finish(result)

        return run

    # Kronecker forms exist only on unquantized steps (``_finalize_fast``),
    # so no transform-domain stage applies between the GEMMs.
    def tap_major(x):  # the (t, t, C, N, th, tw) tiles of NCHW x, a view
        return np.transpose(_strided_patches(x, t, t, m, m), (4, 5, 1, 0, 2, 3))

    tiles = tap_major(xp) if padded else None  # else tiled off each run's input
    tmat = take_scratch("tiles", (tt, c * p))
    v = take_scratch("v", (t, t, g, cg, p))  # the Hadamard operand
    had = take_scratch("had", (t, t, g, k // g, p))
    z = take_scratch("z", (m * m, k * p))  # output tiles, (m, m, K, N, th, tw)
    # GEMM operands and scatter endpoints, as views of the buffers above
    tmat6 = tmat.reshape(t, t, c, n, th, tw)
    v2d, had2d = v.reshape(tt, c * p), had.reshape(tt, k * p)
    z_tiles = np.transpose(z.reshape(m, m, k, n, th, tw), (3, 2, 4, 0, 5, 1))
    y_tiles = yout.reshape(n, k, th, m, tw, m)
    bt_kron, at_kron = btk.T, atk.T  # kron(Bᵀ, Bᵀ), kron(Aᵀ, Aᵀ): (t², t²), (m², t²)

    def run(x):
        x = load(x)
        _gather_tiles(tap_major(x) if tiles is None else tiles, tmat6)
        _float_matmul(bt_kron, tmat, out=v2d)  # (t², C·P)
        _float_matmul(u2, v, out=had)  # (t, t, g, K/g, P)
        _float_matmul(at_kron, had2d, out=z)  # (m², K·P)
        _scatter_tiles(z_tiles, y_tiles)
        return finish(result)

    return run


# ---------------------------------------------------------------------------
# Native integer-arithmetic kernels (the ``int8`` backend)
# ---------------------------------------------------------------------------
#
# Quantized layers execute on the integer *codes* of the fake-quant grids
# (see repro.engine.int8 for the compile-side preparation and the
# exactness argument).  Every GEMM here runs over integer-valued float
# arrays whose partial sums were proven, at compile time, to stay below
# the dtype's mantissa bound — so the float GEMM is exact at any BLAS
# blocking, and any GEMM layout is safe: the transform output is produced
# directly in the Hadamard layout, and the output transform consumes the
# Hadamard layout directly.  The float Kronecker runner above uses the
# same two layouts; it runs only unquantized steps, where reassociation
# moves values by float rounding but can flip no quantization bin.

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


def _check_bound(acc, bound) -> None:
    """``INT8_STRICT``: the accumulator stays within its proven bound."""
    assert float(np.abs(acc).max(initial=0.0)) <= bound


def _cast_buffer(arr: np.ndarray, dtype, tag: str, into=None) -> np.ndarray:
    """Bind an exact dtype conversion: ``arr`` itself when it already
    has ``dtype``, else ``into`` (a ``dtype`` buffer of ``arr``'s size:
    the step's output) or step scratch, which the runner copies it into
    (integer-valued arrays convert losslessly both ways below the
    mantissa bounds)."""
    if arr.dtype == dtype:
        return arr
    if into is not None:
        return into.reshape(arr.shape)
    return take_scratch(tag, arr.shape, dtype)


def _quantize_codes(x, q, out=None):
    """Float tensor → integer codes on stage ``q``'s grid.

    Identical decisions to :func:`fake_quant` (same ``x / scale`` →
    ``rint`` → ``clip`` operations), minus the final multiply back onto
    the grid — codes are the int8 backend's currency.
    """
    scale, qmax = stage_scale(q), q["qmax"]
    r = np.divide(x, scale, out=out)
    np.rint(r, out=r)
    r.clip(-qmax, qmax, out=r)  # the method skips np.clip's wrapper layers
    return r


def _requant_stage(d, q, dtype, mul=None, bias=None) -> tuple:
    """Bind one requant stage for :func:`_requant_codes`: its constants
    as NumPy scalars of the accumulator ``dtype`` (the same values the
    Python floats round to inside the ufuncs).  ``mul`` is the stage's
    proven one-multiply ``M`` (see
    :func:`repro.engine.int8.requant_multiplier`), or ``None`` for the
    two-op form."""
    scalar = np.dtype(dtype).type
    qmax = scalar(q["qmax"])
    if mul is not None:
        return scalar(mul), None, None, -qmax, qmax
    return scalar(d), bias, scalar(stage_scale(q)), -qmax, qmax


def _requant_codes(acc, stage):
    """Integer accumulator → codes on a stage's grid, in place.

    ``stage`` comes from :func:`_requant_stage`.  The two-op form
    composes exactly like ``fake_quant(dequant(acc) [+ bias])``:
    multiply by the dequant scale product ``d``, add the (float) bias if
    the stage sits after one, divide by the stage scale, ``rint``,
    ``clip``.  The one-multiply form replaces the first three by
    ``acc · M``, where ``M`` was proven to make the same decisions.
    """
    mul, bias, scale, lo, hi = stage
    acc *= mul
    if bias is not None:
        acc += bias
    if scale is not None:
        acc /= scale
    np.rint(acc, out=acc)
    acc.clip(lo, hi, out=acc)
    return acc


def _epilogue_stage(codes, epi, groups=1, into=None) -> tuple:
    """Bind the step epilogue over contiguous channels-last output
    ``codes`` (layout ``(..., g, P, K/g)`` when ``groups > 1``): the
    argument tuple of :func:`_int8_epilogue`.

    ``A``/``B`` hold the K channel constants repeated R times; a dense
    step applies them to rows of ``r·K`` codes, ``r`` the largest power
    of two up to R dividing the row count.  The last entry is the
    float32 result: ``rows`` itself, else ``into`` or scratch of its
    shape."""
    k = codes.shape[-1] * groups
    if groups == 1:
        width = k * math.gcd(epi["A"].size // k, codes.size // k)
        rows, shape = codes.reshape(-1, width), (width,)  # views: contiguous
    else:
        width, rows, shape = k, codes, (groups, 1, k // groups)
    a = epi["A"][:width].reshape(shape)
    b = None if epi["B"] is None else epi["B"][:width].reshape(shape)
    out = _cast_buffer(rows, np.float32, "epi_f32", into)
    if epi["mode"] == "int":
        scalar = codes.dtype.type
        return rows, a, b, scalar(epi["lo"]), scalar(epi["hi"]), False, out
    return rows, a, b, None, None, epi["relu"], out


def _int8_epilogue(rows, a, b, lo, hi, relu, out):
    """Fused step epilogue, in place on ``rows`` (see
    :func:`_epilogue_stage`), then a lossless copy into float32 ``out``.

    ``float`` mode (``lo is None``): dequant scale, bias and any
    absorbed BatchNorm are one per-channel affine ``codes·A + B`` (then
    ReLU).  ``int`` mode (integer handoff): the same affine lands
    directly on the consumer's input grid and is rounded/clipped to
    ``[lo, hi]`` there — a fused ReLU is the ``lo = 0`` clip bound,
    since ``rint``/``clip`` are monotone.
    """
    rows *= a
    if b is not None:
        rows += b
    if lo is not None:
        np.rint(rows, out=rows)
        rows.clip(lo, hi, out=rows)
    elif relu:
        np.maximum(rows, 0.0, out=rows)
    if out is not rows:
        np.copyto(out, rows)
    return out


def _load_codes(x, q, out):
    """Quantize/pad phase: write the step's input codes into ``out``,
    the interior of a zero-padded buffer (zero padding is its own
    code).  With ``q`` ``None`` the input was handed off as codes on
    this step's grid and is copied verbatim."""
    if q is None:
        out[...] = x
    else:
        _quantize_codes(x, q, out=out)


def _tile_view(xp, t, m):
    """The ``(t, t, N, th, tw, C)`` tiles of the padded channels-last
    codes ``xp``, as a strided view."""
    patches = _strided_patches(xp.transpose(0, 3, 1, 2), t, t, m, m)
    return np.transpose(patches, (4, 5, 0, 2, 3, 1))


def _bind_codes(shape, q, dtype):
    """Bind the quantize phase of a step whose GEMM reads its input codes
    unchanged (1×1 ``conv2d``, ``linear``): returns ``load(x)``, the
    contiguous codes of ``x`` in ``dtype``.  ``q`` is ``None`` for codes
    handed off on this step's grid."""
    qx = None if q is None else take_scratch("qx", shape, np.float32)
    cast = None if dtype == np.float32 else take_scratch("qx_dt", shape, dtype)

    def load(x):
        codes = np.ascontiguousarray(x) if qx is None else _quantize_codes(x, q, out=qx)
        if cast is None:
            return codes
        np.copyto(cast, codes)
        return cast

    return load


def _bind_output(acc, i8, mul, groups, bias_shape=None, into=None):
    """Bind the output requant (when the step has an output stage) and
    the epilogue of the GEMM result ``acc``; returns ``finish()`` and
    the float32 result it leaves in place of ``acc``'s values: ``acc``
    itself when float32, else ``into`` (the step's output, of ``acc``'s
    size) or scratch.  ``mul`` holds the step's proven multipliers (see
    :func:`repro.engine.int8.derive_multipliers`).

    The requant lands on float32 codes (exactly representable below
    qmax), so the epilogue composes in float32 exactly like the
    reference path's elementwise ops."""
    rq = i8["rq_out"]
    out = acc
    if rq is not None:
        bias = rq["bias"]
        if bias is not None and bias_shape is not None:
            bias = bias.reshape(bias_shape)
        stage = _requant_stage(rq["d"], rq["q"], acc.dtype, mul.get("q_output"), bias)
        out = _cast_buffer(acc, np.float32, "rq_f32", into)
    epi = _epilogue_stage(out, i8["epi"], groups, into)

    def finish():
        if rq is not None:
            _requant_codes(acc, stage)
            if out is not acc:
                np.copyto(out, acc)
        _int8_epilogue(*epi)

    return finish, epi[-1].reshape(acc.shape)


def _bind_winograd(shape, attrs):
    """Bind a native Winograd step on channels-last integer codes.

    Quantize once into the padded buffer, gather tiles as ``(t, t, N,
    th, tw, C)``, one integer Kronecker GEMM for the input transform,
    the Hadamard stage as one ``(P, C) @ (C, K)`` GEMM per tap (and
    group) against the channels-last ``u2q``, one Kronecker GEMM for
    the output transform, requant between every stage, and an NHWC
    output scatter."""
    i8 = attrs["i8"]
    n, h, w, c = shape
    m, r, t, g = attrs["m"], attrs["r"], attrs["t"], attrs["groups"]
    k, pad = attrs["out_channels"], attrs["pad"]
    dt_v, dt_h, dt_z = i8["dts"]
    mul, bounds = derive_multipliers("winograd_conv2d", attrs), i8["bounds"]
    out_h, out_w, th, tw = _winograd_geometry(h, w, m, r, pad)
    tt, p, cg, kg = t * t, n * th * tw, c // g, k // g
    need_h, need_w = th * m + r - 1, tw * m + r - 1
    aligned = pad == 0 and need_h == h and need_w == w
    q_in = None if i8.get("input_prequantized") else attrs["q_input"]

    # When the tiles already cover the input exactly, prequantized codes
    # are tiled straight off the producer's register with no copy at all.
    direct = aligned and q_in is None
    if not direct:
        xp, interior = _bind_pad(shape, pad, pad, (need_h, need_w), nhwc=True)
        tiles = _tile_view(xp, t, m)
    tmat = take_scratch("tmat", (t, t, n, th, tw, c), dt_v)
    v = take_scratch("v", (tt, p * c), dt_v)
    rq_v = _requant_stage(i8["d_v"], attrs["q_input_t"], dt_v, mul["q_input_t"])
    v_h = _cast_buffer(v, dt_h, "v_h")
    had = take_scratch("had", (tt, g, p, kg), dt_h)
    rq_h = _requant_stage(i8["d_h"], attrs["q_hadamard"], dt_h, mul["q_hadamard"])
    had_z = _cast_buffer(had, dt_z, "had_z")
    z = take_scratch("z", (m * m, g * p * kg), dt_z)
    finish, z32 = _bind_output(z.reshape(m * m, g, p, kg), i8, mul, g)
    full = (n, th * m, tw * m, k)
    if full[1:3] == (out_h, out_w):
        y = take_out(full)
    else:  # the output is a cropped view of the tile assembly
        y = take_scratch("y", full, persistent=True)
    # GEMM operands and scatter endpoints, as views of the buffers above
    tmat2, btk, atk = tmat.reshape(tt, p * c), i8["btk"], i8["atk"]
    v_tap = v_h.reshape(tt, p, g, cg).transpose(0, 2, 1, 3)
    u2q = i8["u2q"].reshape(tt, g, cg, kg)
    had2 = had_z.reshape(tt, g * p * kg)
    z_tiles = np.transpose(z32.reshape(m, m, g, n, th, tw, kg), (3, 4, 0, 5, 1, 2, 6))
    y_tiles = y.reshape(n, th, m, tw, m, g, kg)
    result = y[:, :out_h, :out_w]

    def run(x):
        if direct:
            _gather_tiles(_tile_view(x, t, m), tmat)
        else:
            _load_codes(x, q_in, interior)
            _gather_tiles(tiles, tmat)
        _int8_matmul(btk, tmat2, out=v)  # (t², P·C), exact integers
        if INT8_STRICT:
            _check_bound(v, bounds[0])
        _requant_codes(v, rq_v)
        if v_h is not v:
            np.copyto(v_h, v)
        _int8_matmul(v_tap, u2q, out=had)  # (t², g, P, K/g)
        if INT8_STRICT:
            _check_bound(had, bounds[1])
        _requant_codes(had, rq_h)
        if had_z is not had:
            np.copyto(had_z, had)
        _int8_matmul(atk, had2, out=z)  # (m², g·P·K/g)
        if INT8_STRICT:
            _check_bound(z, bounds[2])
        finish()
        _scatter_tiles(z_tiles, y_tiles)
        return result

    return run


def _bind_conv2d(shape, attrs):
    """Bind a native im2row step on channels-last integer codes with a
    fused requant epilogue: patch rows in ``(kh, kw, C)`` order, so the
    GEMM's output rows are already NHWC."""
    i8 = attrs["i8"]
    sh, sw = attrs["stride"]
    ph, pw = attrs["padding"]
    g = attrs["groups"]
    k, cg, kh, kw = attrs["weight"].shape
    n, h, w, c = shape
    dt, kg = i8["dt"], k // g
    q_in = None if i8.get("input_prequantized") else attrs["q_input"]

    if kh == kw == 1 and (sh, sw) == (1, 1) and (ph, pw) == (0, 0) and g == 1:
        # 1×1: the channels-last activation already is the row matrix.
        oh, ow = h, w
        codes = _bind_codes(shape, q_in, dt)

        def load(x):
            return codes(x).reshape(1, n * h * w, c)

    else:
        xp, interior = _bind_pad(shape, ph, pw, (h + 2 * ph, w + 2 * pw), nhwc=True)
        patches = _strided_patches(xp.transpose(0, 3, 1, 2), kh, kw, sh, sw)
        oh, ow = patches.shape[2], patches.shape[3]
        rows = take_scratch("rows", (g, n * oh * ow, kh * kw * cg), dt)
        rows_dst = rows.reshape(g, n, oh, ow, kh, kw, cg)
        rows_src = np.transpose(
            patches.reshape(n, g, cg, oh, ow, kh, kw), (1, 0, 3, 4, 5, 6, 2)
        )

        def load(x):
            _load_codes(x, q_in, interior)
            np.copyto(rows_dst, rows_src)
            return rows

    wq_mat, bound = i8["wq_mat"], i8["bound"]
    result = take_out((n, oh, ow, k))
    # One group: the GEMM rows already are the NHWC output.
    into = result.reshape(1, n * oh * ow, k) if g == 1 else None
    if into is not None and dt == np.float32:
        gemm = into
    else:
        gemm = take_scratch("gemm", (g, n * oh * ow, kg), dt)  # (g, n·oh·ow, K/g)
    mul = derive_multipliers("conv2d", attrs)
    finish, out = _bind_output(gemm, i8, mul, g, bias_shape=(g, 1, kg), into=into)
    y_dst = None
    if g > 1:
        y_dst = result.reshape(n, oh, ow, g, kg)
        y_src = np.transpose(out.reshape(g, n, oh, ow, kg), (1, 2, 3, 0, 4))

    def run(x):
        _int8_matmul(load(x), wq_mat, out=gemm)
        if INT8_STRICT:
            _check_bound(gemm, bound)
        finish()
        if y_dst is not None:
            np.copyto(y_dst, y_src)
        return result

    return run


def _bind_linear(shape, attrs):
    """Bind a native fully-connected step on integer codes."""
    i8 = attrs["i8"]
    q_in = None if i8.get("input_prequantized") else attrs["q_input"]
    load = _bind_codes(shape, q_in, i8["dt"])
    wq_t, bound = i8["wq_t"], i8["bound"]
    result = take_out((shape[0], wq_t.shape[1]))  # (N, out)
    dt = i8["dt"]
    gemm = result if dt == np.float32 else take_scratch("gemm", result.shape, dt)
    mul = derive_multipliers("linear", attrs)
    finish, _ = _bind_output(gemm, i8, mul, 1, into=result)

    def run(x):
        _int8_matmul(load(x), wq_t, out=gemm)
        if INT8_STRICT:
            _check_bound(gemm, bound)
        finish()
        return result

    return run
