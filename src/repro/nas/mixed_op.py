"""The over-parameterised layer holding all candidate operations.

Differences from ProxylessNAS, both deliberate:

* **Shared filters.** Every candidate computes the *same* convolution, just
  with a different algorithm/precision, so all candidates share one weight
  (and bias) tensor.  This keeps the paper's premise — wiNAS preserves the
  macro-architecture and model size — and means the weight-update step
  trains the one real filter regardless of which path was sampled.
* **Two-path arch step.** The architecture update evaluates two sampled
  candidates and differentiates through their pairwise softmax gates,
  ProxylessNAS's path-level binarization specialised to a pair.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.autograd import ops
from repro.autograd.tensor import Tensor, as_tensor
from repro.engine.compile import lowers
from repro.nn import init
from repro.nn.module import Module, ModuleList, Parameter
from repro.nas.search_space import Candidate


class MixedConv2d(Module):
    """A conv layer superposing all candidate implementations.

    Modes:

    * ``mode == "weight"`` — sample one path from softmax(α), forward it
      (gradients reach only the shared filters / that path's transforms);
    * ``mode == "arch"`` — sample two paths, forward both, combine with
      differentiable gates so the loss reaches α;
    * eval — the argmax path.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        candidates: Sequence[Candidate],
        kernel_size: int = 3,
        groups: int = 1,
        rng=None,
        seed: int = 0,
    ):
        super().__init__()
        if not candidates:
            raise ValueError("need at least one candidate")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.groups = groups
        self.candidates = list(candidates)

        shared_weight = Parameter(
            init.kaiming_normal(
                (out_channels, in_channels // groups, kernel_size, kernel_size), rng=rng
            )
        )
        shared_bias = Parameter(
            init.uniform_bias(
                (out_channels,), (in_channels // groups) * kernel_size**2, rng=rng
            )
        )
        self.weight = shared_weight
        self.bias = shared_bias

        paths = []
        for cand in self.candidates:
            module = cand.to_spec().build(
                in_channels, out_channels, kernel_size=kernel_size, groups=groups, rng=rng
            )
            self._share_parameters(module, shared_weight, shared_bias)
            paths.append(module)
        self.paths = ModuleList(paths)

        self.alpha = Parameter(np.zeros(len(self.candidates), dtype=np.float32))
        self.mode = "weight"
        self.latencies_ms: Optional[np.ndarray] = None
        self._rng = np.random.default_rng(seed)
        self._last_sampled: List[int] = []

    @staticmethod
    def _share_parameters(module: Module, weight: Parameter, bias: Parameter) -> None:
        """Point the candidate's filter parameters at the shared tensors."""
        target = module
        if hasattr(module, "conv"):  # QuantConv2d wrapper
            target = module.conv
        target.weight = weight
        target.bias = bias

    # -- probabilities ---------------------------------------------------------
    def probabilities(self) -> np.ndarray:
        a = self.alpha.data.astype(np.float64)
        e = np.exp(a - a.max())
        return e / e.sum()

    def argmax_index(self) -> int:
        return int(np.argmax(self.alpha.data))

    def chosen(self) -> Candidate:
        return self.candidates[self.argmax_index()]

    # -- latency ------------------------------------------------------------
    def set_latencies(self, latencies_ms: Sequence[float]) -> None:
        lat = np.asarray(latencies_ms, dtype=np.float64)
        if lat.shape != (len(self.candidates),):
            raise ValueError(
                f"expected {len(self.candidates)} latencies, got shape {lat.shape}"
            )
        self.latencies_ms = lat

    def expected_latency(self) -> Tensor:
        """E{latency} = Σ softmax(α)ᵢ · latᵢ — differentiable w.r.t. α."""
        if self.latencies_ms is None:
            raise RuntimeError("latencies not set; call WiNAS.populate_latencies first")
        probs = ops.exp(ops.log_softmax(self.alpha, axis=0))
        return ops.sum(probs * as_tensor(self.latencies_ms.astype(np.float32)))

    # -- forward -----------------------------------------------------------------
    def forward(self, x: Tensor) -> Tensor:
        self.last_input_hw = (x.shape[2], x.shape[3])
        if not self.training:
            return self.paths[self.argmax_index()](x)
        if self.mode == "weight":
            idx = int(self._rng.choice(len(self.candidates), p=self.probabilities()))
            self._last_sampled = [idx]
            return self.paths[idx](x)
        if self.mode == "arch":
            probs = self.probabilities()
            n = len(self.candidates)
            if n < 2:
                self._last_sampled = [0]
                return self.paths[0](x)
            i, j = self._rng.choice(n, size=2, replace=False, p=probs)
            self._last_sampled = [int(i), int(j)]
            # Differentiable pairwise gates over the two sampled alphas.
            mask = np.zeros((2, n), dtype=np.float32)
            mask[0, i] = 1.0
            mask[1, j] = 1.0
            pair_logits = ops.matmul(as_tensor(mask), self.alpha.reshape(n, 1))  # (2,1)
            gates = ops.exp(ops.log_softmax(pair_logits, axis=0))
            gi = ops.slice_axis(gates, 0, 0, 1).reshape(1, 1, 1, 1)
            gj = ops.slice_axis(gates, 0, 1, 2).reshape(1, 1, 1, 1)
            return self.paths[int(i)](x) * gi + self.paths[int(j)](x) * gj
        raise RuntimeError(f"unknown mode {self.mode!r}")

    def __repr__(self) -> str:
        probs = self.probabilities()
        best = self.candidates[int(np.argmax(probs))]
        return (
            f"MixedConv2d({self.in_channels}->{self.out_channels}, "
            f"{len(self.candidates)} candidates, leader={best.name} "
            f"p={probs.max():.2f})"
        )


@lowers(MixedConv2d)
def _lower_mixed(lw, module, reg):
    """Lower a mixed op to its argmax candidate (eval semantics).

    Registered here rather than in the engine so the engine imports
    nothing from the search layer; any model holding a ``MixedConv2d``
    has imported this module, so the rule is in place before it compiles.
    """
    return lw.lower(module.paths[module.argmax_index()], reg)
