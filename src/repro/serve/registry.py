"""The serving model registry: named variants → compiled plans.

A served variant is fully described by a :class:`ModelSpec` — architecture
× width multiplier × conv algorithm ``F(m, r)`` × precision × engine
backend — and addressed by its canonical name, e.g.
``resnet18-w0.25-F4-int8``.  :class:`ModelRegistry` builds the model,
compiles it through the process-wide :data:`~repro.engine.cache.plan_cache`
(so repeated loads and signature-identical variants share plans) and hands
the server a :class:`ServedModel` with everything the batcher needs:
the plan, the per-sample input shape, and the spec metadata for
``/models``.
"""

from __future__ import annotations

import dataclasses
import os
import re
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.engine import get_cached_plan
from repro.engine.cache import PlanCache
from repro.engine.registry import BACKENDS
from repro.quant.quantizer import ensure_calibrated

#: architecture → (input channels, image size, default width multiplier).
ARCHITECTURES: Dict[str, Tuple[int, int, Optional[float]]] = {
    "lenet": (1, 28, None),
    "resnet18": (3, 32, 0.25),
    "squeezenet": (3, 32, 0.5),
    "resnext20": (3, 32, 0.5),
}

_NAME_RE = re.compile(
    r"^(?P<arch>[a-z0-9]+)"
    r"(?:-w(?P<width>\d+(?:\.\d+)?))?"
    r"-(?P<algorithm>[A-Za-z0-9]+(?:-flex)?)"
    r"-(?P<precision>[a-z0-9]+)"
    r"(?:@(?P<backend>[a-z][a-z0-9]*))?$"
)


@dataclass(frozen=True)
class ModelSpec:
    """One served variant: architecture × width × algorithm × precision."""

    architecture: str = "resnet18"
    width: Optional[float] = None  # None → architecture default
    algorithm: str = "F4"
    precision: str = "fp32"
    backend: str = "fast"
    seed: int = 0

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise ValueError(
                f"unknown architecture {self.architecture!r}; "
                f"expected one of {sorted(ARCHITECTURES)}"
            )
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of {BACKENDS}"
            )

    @property
    def effective_width(self) -> Optional[float]:
        default = ARCHITECTURES[self.architecture][2]
        return default if self.width is None else self.width

    @property
    def sample_shape(self) -> Tuple[int, int, int]:
        """Per-sample (C, H, W) this variant accepts."""
        channels, size, _ = ARCHITECTURES[self.architecture]
        return (channels, size, size)

    @property
    def name(self) -> str:
        """Canonical name, e.g. ``resnet18-w0.25-F4-int8``."""
        parts = [self.architecture]
        width = self.effective_width
        if width is not None:
            parts.append(f"w{width:g}")
        parts.append(self.algorithm)
        parts.append(self.precision)
        name = "-".join(parts)
        if self.backend != "fast":
            name += f"@{self.backend}"
        return name

    @classmethod
    def parse(cls, name: str) -> "ModelSpec":
        """Parse a canonical name (``arch[-wW]-ALGO-prec[@backend]``)."""
        match = _NAME_RE.match(name.strip())
        if match is None:
            raise ValueError(
                f"cannot parse model name {name!r}; expected e.g. "
                "'resnet18-w0.25-F4-int8' or 'lenet-F2-fp32@reference'"
            )
        width = match.group("width")
        return cls(
            architecture=match.group("arch"),
            width=float(width) if width is not None else None,
            algorithm=match.group("algorithm"),
            precision=match.group("precision"),
            backend=match.group("backend") or "fast",
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "architecture": self.architecture,
            "width": self.effective_width,
            "algorithm": self.algorithm,
            "precision": self.precision,
            "backend": self.backend,
            "sample_shape": list(self.sample_shape),
        }


def build_model(spec: ModelSpec):
    """Instantiate the smoke model a spec describes.

    Returns ``(model, (channels, image_size))`` — also used by the
    ``repro infer`` CLI so the two entry points cannot drift apart.
    """
    from repro.models.common import spec_from_name
    from repro.quant.qconfig import from_name

    rng = np.random.default_rng(spec.seed)
    conv_spec = spec_from_name(spec.algorithm, from_name(spec.precision))
    channels, image_size, _ = ARCHITECTURES[spec.architecture]
    width = spec.effective_width
    if spec.architecture == "lenet":
        from repro.models.lenet import lenet

        model = lenet(spec=conv_spec, rng=rng)
    elif spec.architecture == "resnet18":
        from repro.models.resnet import resnet18

        model = resnet18(width_multiplier=width, spec=conv_spec, rng=rng)
    elif spec.architecture == "squeezenet":
        from repro.models.squeezenet import squeezenet

        model = squeezenet(width_multiplier=width, spec=conv_spec, rng=rng)
    else:  # resnext20 — __post_init__ already validated the name
        from repro.models.resnext import resnext20

        model = resnext20(width_multiplier=width, spec=conv_spec, rng=rng)
    model.eval()
    return model, (channels, image_size)


@dataclass
class ServedModel:
    """A loaded variant: spec + compiled plan, ready for the batcher.

    ``plan`` is ``None`` for lazily loaded variants (multi-process
    serving: the front-end only validates inputs and routes — each
    worker process compiles its own plan from the spec name, or maps
    the recorded ``artifact`` if one was given).

    ``version`` identifies this deployment of the variant for blue/green
    cutover (``v1`` for the boot-time load, assigned by
    :meth:`ModelRegistry.install` on later deploys); ``artifact`` is the
    plan-artifact path the plan was (or will be, for lazy loads) mapped
    from, ``None`` for plans compiled in-process.
    """

    spec: ModelSpec
    plan: object  # CompiledPlan (duck-typed: tests serve stubs with .run)
    sample_shape: Tuple[int, int, int] = (3, 32, 32)
    model: object = None
    version: str = "v1"
    artifact: Optional[str] = None
    #: Worker-pool plan key for this deployment (``name#version`` for
    #: blue/green deploys; ``None`` → the plain variant name, i.e. the
    #: boot-time load).  Set by the server in worker mode so the old
    #: version keeps serving under its own key while it drains.
    worker_key: Optional[str] = None

    @property
    def name(self) -> str:
        return self.spec.name

    def describe(self) -> dict:
        info = self.spec.to_dict()
        info["sample_shape"] = list(self.sample_shape)
        info["lazy"] = self.plan is None
        info["version"] = self.version
        info["artifact"] = self.artifact
        if hasattr(self.plan, "steps"):
            info["plan_steps"] = len(self.plan.steps)
            info["plan_ops"] = list(self.plan.ops_used())
        if hasattr(self.plan, "memory_report"):
            report = self.plan.memory_report()
            info["memory"] = {
                "planned": any(
                    e.get("planned") for e in report["planned_shapes"]
                ),
                "arena_bytes": report["arena_bytes"],
                "steady_state_allocations": report["steady_state_allocations"],
            }
        return info

    def validate_input(self, x: np.ndarray) -> np.ndarray:
        """Coerce one sample to float32 NCHW with batch dim 1.

        Zero-copy for arrays already in float32 C order (the b64 request
        path hands ``np.frombuffer`` views straight through): ``asarray``
        ``[None]`` and ``ascontiguousarray`` below all stay views then.
        NaN and ±Inf are rejected here, before they reach the plan and
        its int8 requant.
        """
        arr = np.asarray(x, dtype=np.float32)
        if arr.shape == self.sample_shape:
            arr = arr[None]
        if arr.ndim != 4 or arr.shape[0] != 1 or arr.shape[1:] != self.sample_shape:
            raise ValueError(
                f"model {self.name!r} expects one sample of shape "
                f"{self.sample_shape}, got {tuple(np.shape(x))}"
            )
        if not np.isfinite(arr).all():
            raise ValueError(f"model {self.name!r} input has non-finite values")
        return np.ascontiguousarray(arr)


def compile_served(spec: ModelSpec, cache: Optional[PlanCache] = None) -> ServedModel:
    """Build, calibrate, compile, and warm one variant — the single
    compile path shared by :meth:`ModelRegistry.load`, the worker
    processes, and ``repro compile``, so an artifact written by the CLI
    is byte-for-byte the plan a server would have compiled itself.
    """
    model, (channels, image_size) = build_model(spec)
    calib_rng = np.random.default_rng(spec.seed)
    calib = calib_rng.standard_normal(
        (4, channels, image_size, image_size)
    ).astype(np.float32)
    # Freeze the quantizer ranges from the seeded batch (nothing to do
    # for a float model): a plan is compiled from a calibrated model.
    ensure_calibrated(model, calib)
    plan = get_cached_plan(
        model,
        (1, channels, image_size, image_size),
        backend=spec.backend,
        cache=cache,
    )
    plan.run(calib)  # warm-up: binds every step before traffic arrives
    return ServedModel(
        spec=spec,
        plan=plan,
        sample_shape=(channels, image_size, image_size),
        model=model,
    )


def is_artifact_path(spec_or_name) -> bool:
    """Heuristic: does a ``--model`` value name a plan-artifact file
    (vs a canonical variant name)?  Path separators and the ``.rpln``
    extension are never valid in variant names, so there is no overlap.
    """
    if not isinstance(spec_or_name, str):
        return False
    from repro.engine.artifact import EXTENSION

    return (
        spec_or_name.endswith(EXTENSION)
        or os.path.sep in spec_or_name
        or os.path.isfile(spec_or_name)
    )


def load_artifact_served(path: str, lazy: bool = False) -> ServedModel:
    """A :class:`ServedModel` from a plan artifact written by
    ``repro compile`` (see docs/artifact-format.md).

    The canonical variant name comes from the manifest's ``extra.model``
    entry, so the served name (and hence routing, metrics, and the spec
    seed baked into responses) is identical whether the plan was mapped
    or compiled.  ``lazy=True`` records the spec + artifact path without
    mapping tensors — the multi-process front-end mode, where only the
    workers map the file.  ``version`` is the artifact's content hash
    (first 12 hex chars), so ``/models`` distinguishes deployments of
    the same variant name.

    The content hash is checked here, once, in both modes — before any
    worker maps the file (workers load with ``verify=False``) — so boot
    registration, journal replay and ``POST /models`` all refuse a
    modified artifact with :class:`ArtifactCorruptError`.
    """
    from repro.engine.artifact import (
        ArtifactFormatError,
        content_hash,
        load_plan,
        read_manifest,
    )

    path = os.path.abspath(path)
    manifest = read_manifest(path, verify=True)
    spec_name = (manifest.get("extra") or {}).get("model")
    if not spec_name:
        raise ArtifactFormatError(
            f"{path}: manifest records no 'extra.model' variant name "
            "(not written by 'repro compile'?)"
        )
    try:
        spec = ModelSpec.parse(spec_name)
    except ValueError as exc:
        raise ArtifactFormatError(f"{path}: {exc}") from exc
    seed = (manifest.get("extra") or {}).get("seed")
    if seed is not None:
        spec = dataclasses.replace(spec, seed=int(seed))
    version = content_hash(path)[:12]
    plan = None if lazy else load_plan(path, verify=False)
    return ServedModel(
        spec=spec,
        plan=plan,
        sample_shape=spec.sample_shape,
        version=version,
        artifact=path,
    )


class ModelRegistry:
    """Loads and holds served variants side by side.

    Compilation goes through :func:`repro.engine.get_cached_plan`, so the
    LRU plan cache (and its hit/miss accounting, exposed on ``/metrics``)
    is shared with every other engine consumer in the process.

    ``lazy=True`` records specs without building or compiling anything —
    the mode the multi-process server front-end runs in: it needs only
    sample shapes (input validation) and names (routing); the worker
    processes each compile their own plans from the same spec names (or
    map the recorded artifacts), so plans exist in at most ``replicas``
    processes instead of also in the front-end.

    Blue/green support: :meth:`install` atomically replaces a name's
    active :class:`ServedModel` keeping the replaced one as the rollback
    target; :meth:`rollback` swaps them back (see docs/operations.md
    'Blue/green deploys and rollback').
    """

    def __init__(self, cache: Optional[PlanCache] = None, lazy: bool = False):
        self._cache = cache
        self.lazy = lazy
        self._lock = threading.RLock()
        self._models: Dict[str, ServedModel] = {}
        self._previous: Dict[str, ServedModel] = {}
        self._deploys: Dict[str, int] = {}

    def load(self, spec_or_name) -> ServedModel:
        """Build + compile a variant (idempotent per canonical name).

        Accepts a :class:`ModelSpec`, a canonical variant name, or a
        plan-artifact path (``*.rpln``, mapped instead of compiled —
        docs/operations.md 'Compile-then-deploy').  On a lazy registry
        this only validates and records the spec (and artifact path).
        """
        if is_artifact_path(spec_or_name):
            served = load_artifact_served(spec_or_name, lazy=self.lazy)
            with self._lock:
                existing = self._models.get(served.name)
                if existing is not None:
                    return existing
                self._models[served.name] = served
                return served
        spec = (
            ModelSpec.parse(spec_or_name)
            if isinstance(spec_or_name, str)
            else spec_or_name
        )
        with self._lock:
            existing = self._models.get(spec.name)
            if existing is not None:
                return existing
            if self.lazy:
                served = ServedModel(
                    spec=spec, plan=None, sample_shape=spec.sample_shape
                )
                self._models[spec.name] = served
                return served
            served = compile_served(spec, cache=self._cache)
            self._models[spec.name] = served
            return served

    def add(self, served: ServedModel) -> ServedModel:
        """Register an externally built :class:`ServedModel` (tests, probes)."""
        with self._lock:
            self._models[served.name] = served
            return served

    # -- blue/green ---------------------------------------------------------
    def install(self, served: ServedModel) -> Optional[ServedModel]:
        """Atomically make ``served`` the active deployment of its name.

        The replaced :class:`ServedModel` (returned, or ``None`` on a
        first install) is kept as the one-deep rollback target.  If the
        incoming version string is empty or collides with the active
        one, a fresh ``v<n>`` is assigned from the per-name deploy
        counter so ``/models`` can always tell deployments apart.
        """
        with self._lock:
            old = self._models.get(served.name)
            count = self._deploys.get(served.name, 1) + 1
            self._deploys[served.name] = count
            if not served.version or (
                old is not None and served.version == old.version
            ):
                served.version = f"v{count}"
            if old is not None:
                self._previous[served.name] = old
            self._models[served.name] = served
            return old

    def previous(self, name: str) -> Optional[ServedModel]:
        with self._lock:
            return self._previous.get(name)

    def rollback(self, name: str) -> ServedModel:
        """Swap a name's active deployment with its rollback target.

        Raises :class:`KeyError` when no previous deployment exists.
        Swapping (rather than popping) means rollback is itself
        reversible — the regressed version stays available for
        inspection or a forward re-deploy.
        """
        with self._lock:
            previous = self._previous.get(name)
            if previous is None:
                raise KeyError(f"model {name!r} has no previous version")
            active = self._models[name]
            self._models[name] = previous
            self._previous[name] = active
            return previous

    def remove(self, name: str) -> None:
        """Forget a name entirely (failed first deploy — nothing to
        roll back to)."""
        with self._lock:
            self._models.pop(name, None)
            self._previous.pop(name, None)

    def artifact_paths(self) -> Dict[str, str]:
        """name → artifact path for every artifact-backed variant (what
        the worker router forwards so workers ``mmap`` instead of
        compiling)."""
        with self._lock:
            return {
                name: served.artifact
                for name, served in self._models.items()
                if served.artifact is not None
            }

    def get(self, name: str) -> ServedModel:
        with self._lock:
            served = self._models.get(name)
        if served is None:
            raise KeyError(
                f"unknown model {name!r}; loaded: {self.names() or '(none)'}"
            )
        return served

    def names(self) -> List[str]:
        with self._lock:
            return list(self._models)

    def describe(self) -> List[dict]:
        with self._lock:
            infos = []
            for name, served in self._models.items():
                info = served.describe()
                previous = self._previous.get(name)
                info["previous_version"] = (
                    previous.version if previous is not None else None
                )
                infos.append(info)
            return infos

    def __len__(self) -> int:
        with self._lock:
            return len(self._models)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._models
