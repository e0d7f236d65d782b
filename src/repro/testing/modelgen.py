"""Seeded random small-model generator for differential testing.

Each seed deterministically produces one compilable eval-mode model
spanning the paper's search dimensions:

* **conv algorithm** — im2row vs Winograd F(m ∈ {2, 4, 6}, r ∈ {3, 5}),
  mixed freely across layers like a wiNAS-chosen network;
* **precision** — fp32 / int8 / int10 fake-quant configs;
* **topology** — plain conv chains, residual ``BasicBlock``s (add),
  ``Fire`` modules (concat), grouped convolutions, pooling, eval-mode
  BatchNorm with randomized running statistics, and both
  global-average-pool and flatten heads.

The generator only emits modules the compile pass can lower, so every
generated model exercises the full product of engine modes (backends ×
threads × chunking × arena planning).  Randomized BN statistics and
weights come from the same seed, so a failing case is reproducible from
its seed alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.models.common import ConvSpec, LayerPlan
from repro.models.resnet import BasicBlock
from repro.models.squeezenet import Fire
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Flatten,
    GlobalAvgPool2d,
    Linear,
    MaxPool2d,
    ReLU,
)
from repro.nn.module import Module, Sequential
from repro.nn.qlayers import QuantLinear
from repro.quant.qconfig import from_name

#: The per-layer algorithm choices (Fig. 3's search space + im2row).
ALGORITHMS = ("im2row", "F2", "F4", "F6")

#: Precisions the corpus samples (paper's quantization levels).
PRECISIONS = ("fp32", "int8", "int10")


@dataclass
class GeneratedModel:
    """One corpus entry: the model plus everything a check needs."""

    seed: int
    description: str
    model: Module
    input_shape: Tuple[int, int, int, int]  # (N, C, H, W)
    precision: str
    quantized: bool
    has_winograd: bool
    #: The stem is a quantized Winograd conv fed directly by the plan
    #: input — the configuration the stage-level bin-boundary check
    #: (:func:`repro.testing.oracle.winograd_stem_flip_report`) can audit.
    winograd_quant_stem: bool

    def sample_input(self, batch: int = 0) -> np.ndarray:
        """The seeded test batch (distinct stream from the weights)."""
        n, c, h, w = self.input_shape
        rng = np.random.default_rng(10_000 + self.seed)
        return rng.standard_normal((batch or n, c, h, w)).astype(np.float32)

    def calibration_input(self) -> np.ndarray:
        """The seeded calibration batch (warms cold quantizer observers)."""
        _, c, h, w = self.input_shape
        rng = np.random.default_rng(20_000 + self.seed)
        return rng.standard_normal((4, c, h, w)).astype(np.float32)


def _randomize_bn(bn: BatchNorm2d, rng: np.random.Generator) -> BatchNorm2d:
    """Give eval-mode BN non-trivial statistics (a fresh BN is identity)."""
    c = bn.num_features
    bn.running_mean.data[:] = rng.normal(0.0, 0.3, c).astype(np.float32)
    bn.running_var.data[:] = rng.uniform(0.5, 1.5, c).astype(np.float32)
    bn.weight.data[:] = rng.uniform(0.8, 1.2, c).astype(np.float32)
    bn.bias.data[:] = rng.normal(0.0, 0.1, c).astype(np.float32)
    return bn


def _spec(rng: np.random.Generator, qcfg, algorithm=None) -> ConvSpec:
    algorithm = algorithm or str(rng.choice(ALGORITHMS))
    return ConvSpec(algorithm, qcfg)


def generate_model(seed: int) -> GeneratedModel:
    """Deterministically build one random model for ``seed``."""
    rng = np.random.default_rng(seed)
    # Cycle precisions by seed (instead of drawing) so every contiguous
    # corpus slice covers all of them evenly; consume one draw anyway to
    # decorrelate the remaining choices from the cycle.
    rng.integers(len(PRECISIONS))
    precision = PRECISIONS[seed % len(PRECISIONS)]
    qcfg = from_name(precision)
    quantized = precision != "fp32"

    in_channels = int(rng.choice((1, 3, 4)))
    input_size = int(rng.choice((8, 12, 16)))
    size = input_size
    channels = int(rng.choice((4, 6, 8)))
    parts: List[Module] = []
    notes: List[str] = [precision]
    has_winograd = False
    layer_index = 0

    # Every fifth seed gets a *chained* stride-1 Winograd stem — two
    # back-to-back Winograd convs on a non-square input — the pair shape
    # the int8 pass moves to per-tap grids.  The chained flag derives
    # from the seed (not an rng draw) so the other seeds' models are
    # untouched; pad of the second conv alternates so the corpus covers
    # both the aligned (pad=0) and padded consumer prologues.
    chained = seed % 5 == 3

    # -- stem: one conv straight off the input ------------------------------
    # Half the corpus gets a Winograd stem (quantized where the precision
    # says so) because that is the configuration the stage-level
    # bin-boundary audit can reach (its input register is the plan input).
    if rng.random() < 0.55:
        stem_alg = str(rng.choice(("F2", "F4", "F6")))
    else:
        stem_alg = "im2row"
    stem_r = 5 if (stem_alg != "im2row" and rng.random() < 0.3) else 3
    if chained:
        stem_alg = "F4" if (seed // 5) % 2 == 0 else "F2"
        stem_r = 3
    stem = _spec(rng, qcfg, stem_alg).build(
        in_channels, channels, kernel_size=stem_r, rng=rng
    )
    winograd_quant_stem = quantized and stem_alg != "im2row"
    has_winograd |= stem_alg != "im2row"
    parts.append(stem)
    parts.append(ReLU())
    notes.append(f"stem:{stem_alg}r{stem_r}x{in_channels}->{channels}")
    layer_index += 1

    if chained:
        pad2 = (seed // 5) % 2
        alg2 = "F2" if stem_alg == "F4" else "F4"
        parts.append(
            _spec(rng, qcfg, alg2).build(
                channels, channels, kernel_size=3, padding=pad2, rng=rng
            )
        )
        parts.append(ReLU())
        notes.append(f"chain:{alg2}r3p{pad2}")
        layer_index += 1
        size += pad2 * 2 - 2  # second conv shrinks H/W unless padded

    # -- body: 2..4 randomly chosen feature stages --------------------------
    for _ in range(int(rng.integers(2, 5))):
        kind = str(
            rng.choice(
                ("conv", "conv", "block", "fire", "pool", "bnrelu"),
            )
        )
        if kind == "pool" and size < 8:
            kind = "bnrelu"
        if kind == "conv":
            out_channels = int(rng.choice((4, 6, 8)))
            spec = _spec(rng, qcfg)
            kernel = 5 if (spec.is_winograd and rng.random() < 0.25) else 3
            groups = 2 if (rng.random() < 0.25 and channels % 2 == 0
                           and out_channels % 2 == 0) else 1
            parts.append(
                spec.build(
                    channels, out_channels, kernel_size=kernel,
                    groups=groups, rng=rng,
                )
            )
            if rng.random() < 0.5:
                parts.append(_randomize_bn(BatchNorm2d(out_channels), rng))
            parts.append(ReLU())
            has_winograd |= spec.is_winograd
            notes.append(
                f"conv:{spec.algorithm}r{kernel}g{groups}x{channels}->{out_channels}"
            )
            channels = out_channels
        elif kind == "block":
            out_channels = int(rng.choice((4, 8)))
            downsample = bool(rng.random() < 0.4) and size >= 8
            spec = _spec(rng, qcfg)
            block = BasicBlock(
                channels,
                out_channels,
                downsample=downsample,
                plan=LayerPlan(spec),
                layer_index=layer_index,
                shortcut_qconfig=qcfg,
                rng=rng,
            )
            _randomize_bn(block.bn1, rng)
            _randomize_bn(block.bn2, rng)
            if getattr(block, "shortcut_bn", None) is not None:
                _randomize_bn(block.shortcut_bn, rng)
            parts.append(block)
            has_winograd |= spec.is_winograd
            notes.append(
                f"block:{spec.algorithm}x{channels}->{out_channels}"
                f"{'/2' if downsample else ''}"
            )
            layer_index += 2
            channels = out_channels
            if downsample:
                size = (size - 2) // 2 + 1
        elif kind == "fire":
            squeeze = int(rng.choice((2, 4)))
            expand = int(rng.choice((3, 4)))
            spec = _spec(rng, qcfg)
            fire = Fire(
                channels, squeeze, expand,
                plan=LayerPlan(spec), layer_index=layer_index,
                qconfig=qcfg, rng=rng,
            )
            _randomize_bn(fire.bn, rng)
            parts.append(fire)
            has_winograd |= spec.is_winograd
            notes.append(f"fire:{spec.algorithm}x{channels}->{2 * expand}")
            layer_index += 1
            channels = 2 * expand
        elif kind == "pool":
            if rng.random() < 0.5:
                parts.append(MaxPool2d(2, 2))
                notes.append("maxpool")
            else:
                parts.append(AvgPool2d(2, 2))
                notes.append("avgpool")
            size = (size - 2) // 2 + 1
        else:  # bnrelu
            parts.append(_randomize_bn(BatchNorm2d(channels), rng))
            parts.append(ReLU())
            notes.append("bnrelu")

    # -- head ----------------------------------------------------------------
    classes = int(rng.choice((5, 10)))
    # Chained-stem models run on a non-square input (W = H + 4), so the
    # flatten head's feature count (computed from the square ``size``)
    # would be wrong — they always take the global-average-pool head.
    if rng.random() < 0.7 or channels * size * size > 512 or chained:
        parts.append(GlobalAvgPool2d())
        in_features = channels
        notes.append("gap")
    else:
        parts.append(Flatten())
        in_features = channels * size * size
        notes.append("flatten")
    head = Linear(in_features, classes, rng=rng)
    if quantized and rng.random() < 0.6:
        head = QuantLinear(head, qcfg)
        notes.append(f"qlinear->{classes}")
    else:
        notes.append(f"linear->{classes}")
    parts.append(head)

    model = Sequential(*parts)
    model.eval()
    if chained:
        notes.append("nonsquare")
    return GeneratedModel(
        seed=seed,
        description="|".join(notes),
        model=model,
        input_shape=(2, in_channels, input_size, input_size + 4 if chained else input_size),
        precision=precision,
        quantized=quantized,
        has_winograd=has_winograd,
        winograd_quant_stem=winograd_quant_stem,
    )
