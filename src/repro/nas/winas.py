"""The wiNAS search driver (paper §4.1, §5.2).

Alternates the two-stage optimisation of ProxylessNAS:

* weight stage on the training split, loss Eq. 2:
  ``L = CE + λ₀‖w‖²`` — SGD with Nesterov momentum;
* architecture stage on the validation split, loss Eq. 3:
  ``L = CE + λ₁‖a‖² + λ₂·E{latency}`` — Adam with β₁ = 0.

After the search, :meth:`WiNAS.derive_plan` freezes each layer to its
argmax candidate, producing a :class:`~repro.models.common.LayerPlan` that
is trained end-to-end with the §5.1 recipe (the paper does the same).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.autograd import no_grad
from repro.autograd.tensor import Tensor
from repro.data.loader import DataLoader
from repro.hardware.model import ConvShape
from repro.hardware.table import LatencyTable
from repro.models.common import ConvSpec, LayerPlan
from repro.nn.losses import cross_entropy
from repro.nn.module import Module, Parameter
from repro.optim.adam import Adam
from repro.optim.sgd import SGD
from repro.quant.quantizer import ensure_calibrated
from repro.training.metrics import Meter, accuracy
from repro.nas.mixed_op import MixedConv2d
from repro.nas.search_space import Candidate


def _calibrated_plan(path: Module, x: np.ndarray, backend: str):
    """Compile a candidate from a deep copy calibrated on the probe
    ``x``, so an ``int8`` plan times native steps and the live search
    model's observers stay untouched."""
    from repro.engine import compile_model

    model = copy.deepcopy(path).eval()
    ensure_calibrated(model, x)
    return compile_model(model, backend=backend)


@dataclass
class SearchConfig:
    """Hyper-parameters of the search (§5.2 defaults, scaled)."""

    epochs: int = 2
    weight_lr: float = 0.01
    weight_momentum: float = 0.9
    lambda0: float = 1e-4  # Eq. 2 weight decay
    arch_lr: float = 1e-2
    lambda1: float = 1e-3  # Eq. 3 decay on architecture params
    lambda2: float = 0.01  # Eq. 3 latency weight
    core: str = "A73"
    #: Where candidate latencies come from: "table" (calibrated Arm-CPU
    #: model), "measured" (wall-clock of compiled per-candidate plans on
    #: this host, via repro.engine) or "served" (per-request latency of
    #: each candidate under concurrent dynamic-batched load, via
    #: repro.serve — the regime a deployed model actually sees).
    latency_source: str = "table"
    #: Closed-loop clients used by the "served" source.
    served_concurrency: int = 8
    #: Engine backend the "measured"/"served" probes compile candidates
    #: with ("fast" or "int8") — searching with "int8" optimises
    #: latency of the native integer execution path that quantized
    #: candidates would actually be deployed on.
    engine_backend: str = "fast"
    #: Engine threads the "measured"/"served" probes execute candidates
    #: with (``None`` → the ``REPRO_THREADS`` default): searching with
    #: the deployment thread count optimises the latency the parallel
    #: executor will actually deliver.
    engine_threads: Optional[int] = None
    #: Worker processes the "served" probe shards candidates across
    #: (mirrors ``repro serve --workers``; 0 = in-process): searching
    #: against the sharded deployment folds the shm/IPC round trip and
    #: true process parallelism into the optimised latency.
    serve_workers: int = 0
    verbose: bool = False


@dataclass
class SearchResult:
    plan: LayerPlan
    chosen: List[Candidate]
    expected_latency_ms: float
    history: List[Dict[str, float]] = field(default_factory=list)

    def describe(self) -> List[str]:
        return [f"layer {i:2d}: {c.name}" for i, c in enumerate(self.chosen)]


class WiNAS:
    """Search over a model whose searchable convs are :class:`MixedConv2d`.

    Build the model by passing a ``LayerPlan`` whose ``factory`` creates
    mixed ops (see :meth:`make_plan`), then call :meth:`search`.
    """

    def __init__(self, model: Module, config: Optional[SearchConfig] = None):
        self.model = model
        self.config = config or SearchConfig()
        self.mixed_ops: List[MixedConv2d] = [
            m for m in model.modules() if isinstance(m, MixedConv2d)
        ]
        if not self.mixed_ops:
            raise ValueError("model contains no MixedConv2d layers to search over")
        alpha_ids = {id(m.alpha) for m in self.mixed_ops}
        self.arch_params: List[Parameter] = [m.alpha for m in self.mixed_ops]
        self.weight_params: List[Parameter] = [
            p for p in model.parameters() if id(p) not in alpha_ids
        ]
        # Eq. 2 / Eq. 3 L2 terms live in the optimizers' weight_decay.
        self.weight_opt = SGD(
            self.weight_params,
            lr=self.config.weight_lr,
            momentum=self.config.weight_momentum,
            nesterov=True,
            weight_decay=self.config.lambda0,
        )
        self.arch_opt = Adam(
            self.arch_params,
            lr=self.config.arch_lr,
            betas=(0.0, 0.999),  # β₁ = 0: only sampled paths move (§5.2)
            weight_decay=self.config.lambda1,
        )
        self.latency_table = LatencyTable(core=self.config.core)

    # -- plan factory -------------------------------------------------------
    @staticmethod
    def make_plan(candidates: Sequence[Candidate], seed: int = 0, rng=None) -> LayerPlan:
        """A LayerPlan whose layers are mixed ops over ``candidates``."""

        def factory(cin: int, cout: int, index: int, groups: int) -> MixedConv2d:
            return MixedConv2d(
                cin, cout, candidates, groups=groups, rng=rng, seed=seed + index
            )

        return LayerPlan(ConvSpec("im2row"), factory=factory)

    # -- latency ---------------------------------------------------------------
    def populate_latencies(
        self, example_input: np.ndarray, source: Optional[str] = None
    ) -> None:
        """Fill each mixed op's candidate latencies.

        The shape probe is one eager eval forward of a deep copy, whose
        layers record ``last_input_hw``; the live model's state
        (observers too) is untouched.

        ``source`` (default :attr:`SearchConfig.latency_source`):

        * ``"table"`` — the calibrated Arm-CPU latency model (the
          paper's deployment target);
        * ``"measured"`` — wall-clock of a compiled single-layer plan
          per candidate on *this* host, so the search optimises what the
          engine will actually execute;
        * ``"served"`` — mean per-request latency of each candidate
          behind a dynamic micro-batcher under
          :attr:`SearchConfig.served_concurrency` concurrent clients
          (:func:`repro.serve.served_latency_ms`), so the search
          optimises latency under serving load, queueing included.
        """
        source = source or self.config.latency_source
        if source not in ("table", "measured", "served"):
            raise ValueError(f"unknown latency source {source!r}")
        probe_model = copy.deepcopy(self.model).eval()
        with no_grad():
            probe_model(Tensor(np.asarray(example_input, dtype=np.float32)))
        probed = [m for m in probe_model.modules() if isinstance(m, MixedConv2d)]
        for op, seen in zip(self.mixed_ops, probed):
            if hasattr(seen, "last_input_hw"):
                op.last_input_hw = seen.last_input_hw
        backend = self.config.engine_backend
        for op in self.mixed_ops:
            if not hasattr(op, "last_input_hw"):
                raise RuntimeError("mixed op did not see the probe input")
            h, w = op.last_input_hw
            if source == "measured":
                op.set_latencies(
                    self._measure_candidates(
                        op, h, w, backend, self.config.engine_threads
                    )
                )
                continue
            if source == "served":
                op.set_latencies(
                    self._measure_candidates_served(
                        op, h, w, self.config.served_concurrency, backend,
                        self.config.engine_threads,
                        self.config.serve_workers,
                    )
                )
                continue
            out_w = h + 2 * ((op.kernel_size - 1) // 2) - op.kernel_size + 1
            shape = ConvShape(
                op.in_channels, op.out_channels, out_w,
                kernel_size=op.kernel_size, groups=op.groups,
            )
            lat = [
                self.latency_table.latency_ms(
                    shape,
                    cand.algorithm,
                    dtype=cand.precision,
                    dense_transforms=cand.is_winograd and cand.flex,
                )
                for cand in op.candidates
            ]
            op.set_latencies(lat)

    @staticmethod
    def _measure_candidates(
        op: MixedConv2d,
        h: int,
        w: int,
        backend: str = "fast",
        threads: Optional[int] = None,
    ) -> List[float]:
        """Wall-clock each candidate as a compiled single-layer plan."""
        from repro.engine import measure_plan_ms

        x = np.zeros((1, op.in_channels, h, w), dtype=np.float32)
        latencies = []
        for path in op.paths:
            plan = _calibrated_plan(path, x, backend)
            latencies.append(
                measure_plan_ms(plan, x, repeats=3, warmup=1, threads=threads)
            )
        return latencies

    @staticmethod
    def _measure_candidates_served(
        op: MixedConv2d,
        h: int,
        w: int,
        concurrency: int,
        backend: str = "fast",
        threads: Optional[int] = None,
        workers: int = 0,
    ) -> List[float]:
        """Per-request latency of each candidate under batched serving load."""
        from repro.serve.probe import served_latency_ms

        x = np.zeros((1, op.in_channels, h, w), dtype=np.float32)
        return [
            served_latency_ms(
                _calibrated_plan(path, x, backend),
                x,
                concurrency=concurrency,
                threads=threads,
                workers=workers,
            )
            for path in op.paths
        ]

    def expected_latency_ms(self) -> float:
        """Current E{latency} over searchable layers (argmax-free, in ms)."""
        total = 0.0
        for op in self.mixed_ops:
            if op.latencies_ms is None:
                raise RuntimeError("latencies not populated")
            total += float(op.probabilities() @ op.latencies_ms)
        return total

    def _set_mode(self, mode: str) -> None:
        for op in self.mixed_ops:
            op.mode = mode

    # -- search ----------------------------------------------------------------
    def search(
        self,
        train_loader: DataLoader,
        val_loader: DataLoader,
        epochs: Optional[int] = None,
    ) -> SearchResult:
        epochs = epochs if epochs is not None else self.config.epochs
        history: List[Dict[str, float]] = []
        self.model.train()
        for epoch in range(epochs):
            weight_meter, arch_meter, acc_meter = Meter(), Meter(), Meter()
            val_iter = iter(val_loader)
            for images, labels in train_loader:
                # ---- weight step (Eq. 2) on the training split ----
                self._set_mode("weight")
                logits = self.model(Tensor(images))
                loss = cross_entropy(logits, labels)
                self.weight_opt.zero_grad()
                self.arch_opt.zero_grad()
                loss.backward()
                self.weight_opt.step()
                weight_meter.update(loss.item(), len(labels))
                acc_meter.update(accuracy(logits, labels), len(labels))

                # ---- architecture step (Eq. 3) on the validation split ----
                try:
                    v_images, v_labels = next(val_iter)
                except StopIteration:
                    val_iter = iter(val_loader)
                    v_images, v_labels = next(val_iter)
                self._set_mode("arch")
                v_logits = self.model(Tensor(v_images))
                arch_loss = cross_entropy(v_logits, v_labels)
                latency = None
                for op in self.mixed_ops:
                    term = op.expected_latency()
                    latency = term if latency is None else latency + term
                arch_loss = arch_loss + self.config.lambda2 * latency
                self.weight_opt.zero_grad()
                self.arch_opt.zero_grad()
                arch_loss.backward()
                self.arch_opt.step()
                arch_meter.update(arch_loss.item(), len(v_labels))
            entry = {
                "epoch": epoch,
                "weight_loss": weight_meter.mean,
                "arch_loss": arch_meter.mean,
                "train_accuracy": acc_meter.mean,
                "expected_latency_ms": self.expected_latency_ms(),
            }
            history.append(entry)
            if self.config.verbose:  # pragma: no cover
                print(
                    f"search epoch {epoch}: w-loss {entry['weight_loss']:.3f} "
                    f"a-loss {entry['arch_loss']:.3f} "
                    f"E[lat] {entry['expected_latency_ms']:.2f} ms"
                )
        return self.derive(history)

    # -- derivation ---------------------------------------------------------------
    def derive(self, history: Optional[List[Dict[str, float]]] = None) -> SearchResult:
        """Freeze each layer to its argmax candidate."""
        chosen = [op.chosen() for op in self.mixed_ops]
        overrides = {i: c.to_spec() for i, c in enumerate(chosen)}
        plan = LayerPlan(chosen[0].to_spec(), overrides)
        total_lat = 0.0
        for op in self.mixed_ops:
            if op.latencies_ms is not None:
                total_lat += float(op.latencies_ms[op.argmax_index()])
        return SearchResult(
            plan=plan,
            chosen=chosen,
            expected_latency_ms=total_lat,
            history=history or [],
        )
