"""The compile pass: Module tree → flat execution plan.

Walks the module tree with per-class lowering rules, freezing every
parameter (copies, so later training never corrupts a plan) and
precomputing everything the eager path recomputes per forward:

* quantized weights (``Qw(w)``) with observer ranges frozen at compile
  time — weight-side observers that were never warmed up are observed
  once here, exactly what the first eager eval forward would have done;
* Winograd-transformed filters ``U = Qwt(G · Qw(g) · Gᵀ)``, cached per
  plan instead of being rebuilt every forward;
* eval-mode BatchNorm statistics.

A peephole fusion pass (not on ``reference``) then folds BatchNorm into
the preceding convolution's weights and fuses trailing ReLUs into their
producer steps, so a ``Conv→BN→ReLU`` chain executes as one kernel.
Quantized convolutions keep BN as a separate (ReLU-fused) affine step:
folding would change the values entering the frozen quantization grid.
(The ``int8`` backend instead absorbs that affine into the layer's
integer-domain epilogue — after the frozen grids — and wires integer
handoffs between quantized layers; see :mod:`repro.engine.int8`.)
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Type

import numpy as np

from repro.engine.plan import CompiledPlan, Step
from repro.engine.registry import BACKENDS, registry
from repro.models.lenet import LeNet
from repro.models.resnet import BasicBlock, ResNet18
from repro.models.resnext import ResNeXt20, ResNeXtBlock
from repro.models.squeezenet import Fire, SqueezeNet
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    ReLU,
)
from repro.nn.module import Module, Sequential
from repro.nn.qlayers import QuantConv2d, QuantLinear
from repro.quant.quantizer import Quantizer
from repro.winograd.layer import WinogradConv2d


class CompileError(RuntimeError):
    """Raised when a module cannot be lowered into a plan."""


# ---------------------------------------------------------------------------
# Quantizer freezing
# ---------------------------------------------------------------------------


def _freeze_stage(qz: Optional[Quantizer], observe: Optional[np.ndarray] = None):
    """Freeze one fake-quant stage into step attrs.

    Returns ``None`` (disabled), ``{"scale", "qmax"}`` (frozen observer)
    or ``{"dynamic_bits"}`` (activation observer never warmed up — the
    kernel takes the range from the batch, mirroring eager's fallback).
    Weight-side stages pass ``observe``: their input is known at compile
    time, so an uninitialised observer is warmed exactly as the first
    eager eval forward would have done.
    """
    if qz is None or not qz.enabled:
        return None
    if not bool(qz.initialized.data[0]):
        if observe is None:
            return {"dynamic_bits": qz.bits}
        qz.observe(observe)
    return {"scale": qz.scale, "qmax": float(2 ** (qz.bits - 1) - 1)}


def _compile_fq(arr: np.ndarray, q) -> np.ndarray:
    from repro.engine.kernels import fake_quant

    return fake_quant(arr, q)


def _pair(v) -> Tuple[int, int]:
    return (v, v) if isinstance(v, int) else tuple(v)


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------

Handler = Callable[["_Lowerer", Module, int], int]
_LOWERING: Dict[Type[Module], Handler] = {}


def lowers(*types: Type[Module]):
    def decorator(fn: Handler) -> Handler:
        for t in types:
            _LOWERING[t] = fn
        return fn

    return decorator


class _Lowerer:
    def __init__(self, backend: str):
        self.backend = backend
        self.steps: List[Step] = []
        self.next_reg = 1  # register 0 holds the plan input

    def new_reg(self) -> int:
        reg = self.next_reg
        self.next_reg += 1
        return reg

    def emit(self, op: str, inputs: Tuple[int, ...], attrs=None, label: str = "") -> int:
        out = self.new_reg()
        self.steps.append(Step(op, tuple(inputs), out, attrs or {}, label))
        return out

    def lower(self, module: Module, reg: int) -> int:
        for klass in type(module).__mro__:
            handler = _LOWERING.get(klass)
            if handler is not None:
                return handler(self, module, reg)
        cls = type(module)
        raise CompileError(
            f"no lowering rule for {cls.__name__} "
            f"({cls.__module__}.{cls.__qualname__}); register one with @lowers"
        )


# -- trivial / shape ops -----------------------------------------------------


@lowers(Identity)
def _lower_identity(lw, module, reg):
    return reg


@lowers(ReLU)
def _lower_relu(lw, module, reg):
    return lw.emit("relu", (reg,))


@lowers(Flatten)
def _lower_flatten(lw, module, reg):
    return lw.emit("flatten", (reg,))


@lowers(MaxPool2d)
def _lower_max_pool(lw, module, reg):
    kernel = _pair(module.kernel_size)
    stride = kernel if module.stride is None else _pair(module.stride)
    return lw.emit("max_pool", (reg,), {"kernel": kernel, "stride": stride})


@lowers(AvgPool2d)
def _lower_avg_pool(lw, module, reg):
    kernel = _pair(module.kernel_size)
    stride = kernel if module.stride is None else _pair(module.stride)
    return lw.emit("avg_pool", (reg,), {"kernel": kernel, "stride": stride})


@lowers(GlobalAvgPool2d)
def _lower_gap(lw, module, reg):
    return lw.emit("global_avg_pool", (reg,))


@lowers(Sequential)
def _lower_sequential(lw, module, reg):
    for child in module:
        reg = lw.lower(child, reg)
    return reg


# -- BatchNorm ---------------------------------------------------------------


@lowers(BatchNorm2d)
def _lower_batchnorm(lw, module, reg):
    mean = module.running_mean.data.copy()
    var = module.running_var.data.copy()
    gamma = module.weight.data.copy()
    beta = module.bias.data.copy()
    # Mirror eager eval: (var + eps) ** -0.5 entirely in float32.
    inv_std = (var + np.float32(module.eps)) ** -0.5
    scale = gamma * inv_std
    attrs = {
        "mean": mean,
        "inv_std": inv_std,
        "gamma": gamma,
        "beta": beta,
        "scale": scale,
        "shift": beta - mean * scale,
    }
    return lw.emit("affine", (reg,), attrs, label="bn")


# -- Linear ------------------------------------------------------------------


@lowers(Linear)
def _lower_linear(lw, module, reg):
    attrs = {
        "weight": module.weight.data.copy(),
        "bias": module.bias.data.copy() if module.bias is not None else None,
    }
    return lw.emit("linear", (reg,), attrs)


@lowers(QuantLinear)
def _lower_quant_linear(lw, module, reg):
    linear = module.linear
    qw = _freeze_stage(module.q_weight, observe=linear.weight.data)
    attrs = {
        "weight": _compile_fq(linear.weight.data.copy(), qw),
        "bias": linear.bias.data.copy() if linear.bias is not None else None,
        "q_input": _freeze_stage(module.q_input),
        "q_output": _freeze_stage(module.q_output),
        "q_weight": qw,  # weight-grid stage (int8 backend recovers codes)
        "quantized": True,
    }
    return lw.emit("linear", (reg,), attrs, label=f"q={module.qconfig.name}")


# -- Convolutions ------------------------------------------------------------


def _conv_attrs(conv: Conv2d, weight: np.ndarray) -> dict:
    return {
        "weight": weight,
        "bias": conv.bias.data.copy() if conv.bias is not None else None,
        "stride": _pair(conv.stride),
        "padding": _pair(conv.padding),
        "groups": conv.groups,
    }


@lowers(Conv2d)
def _lower_conv2d(lw, module, reg):
    return lw.emit("conv2d", (reg,), _conv_attrs(module, module.weight.data.copy()))


@lowers(QuantConv2d)
def _lower_quant_conv2d(lw, module, reg):
    conv = module.conv
    qw = _freeze_stage(module.q_weight, observe=conv.weight.data)
    attrs = _conv_attrs(conv, _compile_fq(conv.weight.data.copy(), qw))
    attrs.update(
        q_input=_freeze_stage(module.q_input),
        q_output=_freeze_stage(module.q_output),
        q_weight=qw,  # weight-grid stage (int8 backend recovers codes)
        quantized=True,
    )
    return lw.emit("conv2d", (reg,), attrs, label=f"q={module.qconfig.name}")


@lowers(WinogradConv2d)
def _lower_winograd(lw, module, reg):
    """Freeze a Winograd layer with its filter transform precomputed.

    ``U = Qwt(G · Qw(g) · Gᵀ)`` is evaluated here, once per plan, with
    exactly the array values and operation order of the eager forward —
    the cached result is bit-identical to what eager recomputes each
    call.
    """
    qw = _freeze_stage(module.q_weight, observe=module.weight.data)
    w = _compile_fq(module.weight.data.copy(), qw)
    G = module.G.data.copy()
    u = np.matmul(np.matmul(G, w), G.transpose())
    qwt = _freeze_stage(module.q_weight_t, observe=u)
    u = _compile_fq(u, qwt)

    q_input = _freeze_stage(module.q_input)
    q_input_t = _freeze_stage(module.q_input_t)
    q_hadamard = _freeze_stage(module.q_hadamard)
    q_output = _freeze_stage(module.q_output)
    quantized = any(
        q is not None for q in (qw, qwt, q_input, q_input_t, q_hadamard, q_output)
    )
    attrs = {
        "u": u,
        "BT": module.BT.data.copy(),
        "AT": module.AT.data.copy(),
        "bias": module.bias.data.copy() if module.bias is not None else None,
        "m": module.m,
        "r": module.kernel_size,
        "t": module.t,
        "groups": module.groups,
        "out_channels": module.out_channels,
        "pad": module.padding,
        "q_input": q_input,
        "q_input_t": q_input_t,
        "q_hadamard": q_hadamard,
        "q_output": q_output,
        "q_weight": qw,  # weight-grid stages (int8 backend recovers codes)
        "q_weight_t": qwt,
        "quantized": quantized,
    }
    label = f"F({module.m},{module.kernel_size})@{module.qconfig.name}"
    return lw.emit("winograd_conv2d", (reg,), attrs, label=label)


# -- whole models ------------------------------------------------------------


@lowers(LeNet)
def _lower_lenet(lw, module, reg):
    reg = lw.lower(module.conv1, reg)
    if module.bn1 is not None:
        reg = lw.lower(module.bn1, reg)
    reg = lw.emit("relu", (reg,))
    reg = lw.lower(module.pool1, reg)
    reg = lw.lower(module.conv2, reg)
    if module.bn2 is not None:
        reg = lw.lower(module.bn2, reg)
    reg = lw.emit("relu", (reg,))
    reg = lw.lower(module.pool2, reg)
    reg = lw.emit("flatten", (reg,))
    reg = lw.lower(module.fc1, reg)
    reg = lw.emit("relu", (reg,))
    reg = lw.lower(module.fc2, reg)
    reg = lw.emit("relu", (reg,))
    return lw.lower(module.fc3, reg)


@lowers(BasicBlock)
def _lower_basic_block(lw, module, reg):
    if module.pool is not None:
        reg = lw.lower(module.pool, reg)
    out = lw.lower(module.conv1, reg)
    out = lw.lower(module.bn1, out)
    out = lw.emit("relu", (out,))
    out = lw.lower(module.conv2, out)
    out = lw.lower(module.bn2, out)
    if module.shortcut_conv is not None:
        shortcut = lw.lower(module.shortcut_conv, reg)
        shortcut = lw.lower(module.shortcut_bn, shortcut)
    else:
        shortcut = reg
    out = lw.emit("add", (out, shortcut))
    return lw.emit("relu", (out,))


@lowers(ResNet18)
def _lower_resnet18(lw, module, reg):
    reg = lw.lower(module.stem, reg)
    reg = lw.lower(module.stem_bn, reg)
    reg = lw.emit("relu", (reg,))
    for block in module.blocks:
        reg = lw.lower(block, reg)
    reg = lw.emit("global_avg_pool", (reg,))
    return lw.lower(module.fc, reg)


@lowers(Fire)
def _lower_fire(lw, module, reg):
    s = lw.lower(module.squeeze, reg)
    s = lw.emit("relu", (s,))
    e1 = lw.lower(module.expand1, s)
    e3 = lw.lower(module.expand3, s)
    cat = lw.emit("concat", (e1, e3), {"axis": 1})
    cat = lw.lower(module.bn, cat)
    return lw.emit("relu", (cat,))


@lowers(SqueezeNet)
def _lower_squeezenet(lw, module, reg):
    reg = lw.lower(module.stem, reg)
    reg = lw.lower(module.stem_bn, reg)
    reg = lw.emit("relu", (reg,))
    for i, fire in enumerate(module.fires):
        reg = lw.lower(fire, reg)
        if i in module.pool_after:
            reg = lw.lower(module.pool, reg)
    reg = lw.lower(module.classifier, reg)
    return lw.emit("global_avg_pool", (reg,))


@lowers(ResNeXtBlock)
def _lower_resnext_block(lw, module, reg):
    if module.pool is not None:
        reg = lw.lower(module.pool, reg)
    out = lw.lower(module.reduce, reg)
    out = lw.lower(module.bn1, out)
    out = lw.emit("relu", (out,))
    out = lw.lower(module.conv3, out)
    out = lw.lower(module.bn2, out)
    out = lw.emit("relu", (out,))
    out = lw.lower(module.expand, out)
    out = lw.lower(module.bn3, out)
    if module.shortcut_conv is not None:
        shortcut = lw.lower(module.shortcut_conv, reg)
        shortcut = lw.lower(module.shortcut_bn, shortcut)
    else:
        shortcut = reg
    out = lw.emit("add", (out, shortcut))
    return lw.emit("relu", (out,))


@lowers(ResNeXt20)
def _lower_resnext20(lw, module, reg):
    reg = lw.lower(module.stem, reg)
    reg = lw.lower(module.stem_bn, reg)
    reg = lw.emit("relu", (reg,))
    for block in module.blocks:
        reg = lw.lower(block, reg)
    reg = lw.emit("global_avg_pool", (reg,))
    return lw.lower(module.fc, reg)


# ---------------------------------------------------------------------------
# Fusion (fast / int8 backends)
# ---------------------------------------------------------------------------

_FOLDABLE = ("conv2d", "winograd_conv2d")
_RELU_FUSABLE = ("conv2d", "winograd_conv2d", "affine", "add", "linear")


def _use_counts(steps: List[Step], output_reg: int) -> Dict[int, int]:
    counts: Dict[int, int] = {output_reg: 1}
    for step in steps:
        for reg in step.inputs:
            counts[reg] = counts.get(reg, 0) + 1
    return counts


def _fold_bn(producer: Step, affine: Step) -> None:
    """Fold an eval-mode BN into the producer conv's weights/bias."""
    scale = affine.attrs["scale"]
    shift = affine.attrs["shift"]
    if producer.op == "conv2d":
        producer.attrs["weight"] = producer.attrs["weight"] * scale[:, None, None, None]
    else:  # winograd: scaling U per out-channel scales Aᵀ(U⊙V)A linearly
        producer.attrs["u"] = producer.attrs["u"] * scale[:, None, None, None]
    bias = producer.attrs.get("bias")
    producer.attrs["bias"] = shift if bias is None else scale * bias + shift
    producer.label = (producer.label + " +bn").strip()


def _fuse(steps: List[Step], output_reg: int) -> List[Step]:
    producers: Dict[int, Step] = {}

    # Pass 1: fold BN into the preceding float conv (single-use output).
    counts = _use_counts(steps, output_reg)
    fused: List[Step] = []
    for step in steps:
        producer = producers.get(step.inputs[0]) if step.inputs else None
        if (
            step.op == "affine"
            and producer is not None
            and producer.op in _FOLDABLE
            and not producer.attrs.get("quantized")
            and counts[producer.output] == 1
        ):
            _fold_bn(producer, step)
            producers.pop(producer.output, None)
            producer.output = step.output
            producers[producer.output] = producer
            continue
        fused.append(step)
        producers[step.output] = step

    # Pass 2: fuse trailing ReLUs into their producer step (single use).
    counts = _use_counts(fused, output_reg)
    producers = {}
    out: List[Step] = []
    for step in fused:
        producer = producers.get(step.inputs[0]) if step.inputs else None
        if (
            step.op == "relu"
            and producer is not None
            and producer.op in _RELU_FUSABLE
            and not producer.attrs.get("fuse_relu")
            and counts[producer.output] == 1
        ):
            producer.attrs["fuse_relu"] = True
            producers.pop(producer.output, None)
            producer.output = step.output
            producers[producer.output] = producer
            continue
        out.append(step)
        producers[step.output] = step
    return out


def _finalize_fast(steps: List[Step]) -> None:
    """Precompute the fast kernels' GEMM-ready weight layouts."""
    for step in steps:
        if step.op == "conv2d":
            w = step.attrs["weight"]
            k, cg, kh, kw = w.shape
            g = step.attrs["groups"]
            if (
                kh == 1
                and kw == 1
                and g == 1
                and step.attrs["stride"] == (1, 1)
                and step.attrs["padding"] == (0, 0)
            ):
                step.attrs["wmat"] = np.ascontiguousarray(w.reshape(k, cg))
            elif g == 1:
                step.attrs["wmat"] = np.ascontiguousarray(
                    w.reshape(k, cg * kh * kw).transpose()
                )
            else:
                step.attrs["wmat"] = np.ascontiguousarray(
                    np.transpose(w.reshape(g, k // g, cg * kh * kw), (0, 2, 1))
                )
        elif step.op == "winograd_conv2d":
            u = step.attrs["u"]
            k = step.attrs["out_channels"]
            g = step.attrs["groups"]
            t = step.attrs["t"]
            cg = u.shape[1]
            step.attrs["u2"] = np.ascontiguousarray(
                np.transpose(u.reshape(g, k // g, cg, t, t), (3, 4, 0, 1, 2))
            )
            # Kronecker forms of the tile transforms: Bᵀ d B over a t×t
            # tile is one (t², t²) matrix applied to the flattened tile,
            # so the whole batch's input/output transforms each become a
            # single large GEMM instead of per-tile t×t matmuls.  Two
            # exclusions keep the nested form instead:
            # * t > 8 (F(6, 5)) — the one-shot t² product sum loses too
            #   much precision against the ill-conditioned large-tile
            #   Cook–Toom transforms;
            # * quantized steps — a fake-quant stage snaps the
            #   transformed tiles to a grid, and the kron reassociation
            #   can flip values sitting on bin boundaries; through a deep
            #   int8 network one flip avalanches, so the float kernels
            #   keep eager's exact operation order there.
            if t <= 8 and not step.attrs.get("quantized"):
                BT, AT = step.attrs["BT"], step.attrs["AT"]
                step.attrs["btk"] = np.ascontiguousarray(np.kron(BT, BT).transpose())
                step.attrs["atk"] = np.ascontiguousarray(np.kron(AT, AT).transpose())


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def compile_model(model: Module, backend: str = "fast") -> CompiledPlan:
    """Compile a module into an autograd-free :class:`CompiledPlan`.

    The plan freezes eval-mode semantics: BN uses running statistics and
    quantizers use their frozen observer ranges regardless of the
    module's ``training`` flag.  Parameters are copied — mutating the
    model afterwards does not affect the plan (recompile, or go through
    :func:`repro.engine.cache.get_cached_plan`, which keys on a content
    signature).
    """
    if backend not in BACKENDS:
        raise CompileError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    from repro.engine.cache import model_signature

    lowerer = _Lowerer(backend)
    output_reg = lowerer.lower(model, 0)
    if not lowerer.steps:
        raise CompileError(f"{type(model).__name__} lowered to an empty plan")
    steps = lowerer.steps
    if backend != "reference":
        steps = _fuse(steps, output_reg)
        # The int8 backend keeps the fast layouts too: they serve float
        # steps and the per-step fallback path (cold observers, flex
        # transforms).  Quantized Winograd steps keep the nested (eager
        # grid order) form there, so lazily-frozen ranges match eager.
        _finalize_fast(steps)
        if backend == "int8":
            from repro.engine.int8 import finalize_int8

            steps = finalize_int8(steps, output_reg)
    for step in steps:
        step.fn = registry.get(step.op, backend)
    return CompiledPlan(
        steps=steps,
        num_regs=lowerer.next_reg,
        input_reg=0,
        output_reg=output_reg,
        backend=backend,
        signature=model_signature(model),
        source=type(model).__name__,
    )
