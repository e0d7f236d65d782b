"""Replica autoscaling: per-model worker replica counts from live signals.

One :class:`ReplicaAutoscaler` drives every served model.  Each control
tick the server hands it a :class:`ModelSignals` snapshot — queue fill
from the model's :class:`~repro.serve.batcher.DynamicBatcher`, and the
cumulative shed / deadline-miss counters from
:class:`~repro.serve.metrics.ModelMetrics` (the autoscaler diffs them
internally, so callers pass raw totals) — and gets back at most one
:class:`ScaleDecision` per model.

The decision logic is the textbook stable-control recipe
(docs/operations.md 'Self-healing & autoscaling runbook'):

* **hysteresis band** — scale up when ``queue_fill >= up_queue_fill``
  *or* sheds / deadline misses occurred since the last tick; scale down
  only when ``queue_fill <= down_queue_fill`` *and* the model has been
  pressure-free for ``down_stable_ticks`` consecutive ticks.  The gap
  between the two fill thresholds is what keeps a borderline load from
  oscillating the replica count.
* **cooldowns** — a scale-up is refused within ``up_cooldown_s`` of the
  previous scale event, a scale-down within ``down_cooldown_s`` (down
  is deliberately the longer one: adding capacity is cheap, thrashing
  a draining replica is not).
* **min/max bounds** — replicas stay within
  ``[min_replicas, max_replicas]``; ``max_replicas`` is clamped to the
  worker-pool size by the server.
* **flap suppression** — if the last ``flap_window`` decisions contain
  ``flap_reversals`` or more direction reversals (up→down or down→up),
  the model is frozen for ``flap_freeze_s``: a workload that oscillates
  faster than the cooldowns can damp is left at its current size
  instead of being chased.

Everything is driven by an injectable ``clock`` (the
:class:`~repro.serve.admission.AdmissionController` pattern), so tests
script whole load traces without a single sleep.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class AutoscalePolicy:
    """Knobs of the replica control loop (all times in seconds)."""

    min_replicas: int = 1
    max_replicas: int = 4
    #: Queue-fill fraction at/above which the model is under pressure.
    up_queue_fill: float = 0.5
    #: Queue-fill fraction at/below which the model counts as calm;
    #: must sit strictly below ``up_queue_fill`` (hysteresis band).
    down_queue_fill: float = 0.1
    up_cooldown_s: float = 2.0
    down_cooldown_s: float = 10.0
    #: Consecutive calm ticks required before a scale-down.
    down_stable_ticks: int = 3
    #: Sliding window of recent decisions inspected for flapping.
    flap_window: int = 6
    #: Direction reversals within the window that trigger a freeze.
    flap_reversals: int = 3
    flap_freeze_s: float = 30.0

    def __post_init__(self):
        if self.min_replicas < 1:
            raise ValueError("min_replicas must be >= 1")
        if self.max_replicas < self.min_replicas:
            raise ValueError("max_replicas must be >= min_replicas")
        if not (0.0 <= self.down_queue_fill < self.up_queue_fill <= 1.0):
            raise ValueError(
                "need 0 <= down_queue_fill < up_queue_fill <= 1 "
                "(the hysteresis band must have width)"
            )
        if self.down_stable_ticks < 1:
            raise ValueError("down_stable_ticks must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ModelSignals:
    """One tick's observation for one model.

    ``shed_total`` / ``deadline_exceeded_total`` / ``errors_total`` are
    the *cumulative* counters straight off
    :meth:`repro.serve.metrics.ModelMetrics.snapshot` — the autoscaler
    (and the selfheal controller) keep the previous sample and react to
    the delta, so a long-dead burst of sheds cannot keep a model
    "under pressure" forever.
    """

    queue_fill: float = 0.0
    shed_total: int = 0
    deadline_exceeded_total: int = 0
    errors_total: int = 0
    replicas: int = 1


@dataclass(frozen=True)
class ScaleDecision:
    """One replica-count change the server should apply (and journal)."""

    model: str
    direction: str  # "up" | "down"
    from_replicas: int
    to_replicas: int
    reason: str


@dataclass
class _ModelScaleState:
    last_scale_at: float = float("-inf")
    calm_ticks: int = 0
    #: Recent decision directions, oldest first, for flap detection.
    recent: Deque[str] = field(default_factory=deque)
    frozen_until: float = float("-inf")
    last_shed: int = 0
    last_miss: int = 0
    primed: bool = False


class ReplicaAutoscaler:
    """Turns per-model :class:`ModelSignals` into :class:`ScaleDecision`s."""

    def __init__(
        self,
        policy: Optional[AutoscalePolicy] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.policy = policy or AutoscalePolicy()
        self._clock = clock
        self._state: Dict[str, _ModelScaleState] = {}
        self.decisions_total = 0
        self.flap_freezes_total = 0

    def _state_for(self, model: str) -> _ModelScaleState:
        state = self._state.get(model)
        if state is None:
            state = self._state[model] = _ModelScaleState()
        return state

    def _record(self, state: _ModelScaleState, direction: str, now: float) -> None:
        state.last_scale_at = now
        state.calm_ticks = 0
        state.recent.append(direction)
        while len(state.recent) > self.policy.flap_window:
            state.recent.popleft()
        reversals = sum(
            1
            for a, b in zip(state.recent, list(state.recent)[1:])
            if a != b
        )
        if reversals >= self.policy.flap_reversals:
            state.frozen_until = now + self.policy.flap_freeze_s
            state.recent.clear()
            self.flap_freezes_total += 1
        self.decisions_total += 1

    def observe(
        self,
        model: str,
        signals: ModelSignals,
        deltas: Optional[Tuple[int, int]] = None,
    ) -> Optional[ScaleDecision]:
        """One control tick for one model; at most one step of ±1 replica.
        ``deltas`` — ``(shed, deadline miss)`` increments from a baseline
        the caller keeps — replace those from this autoscaler's own."""
        policy = self.policy
        state = self._state_for(model)
        now = self._clock()
        if deltas is None:
            deltas = (
                max(0, signals.shed_total - state.last_shed),
                max(0, signals.deadline_exceeded_total - state.last_miss),
            )
            state.last_shed = signals.shed_total
            state.last_miss = signals.deadline_exceeded_total
        shed_delta, miss_delta = deltas
        primed = state.primed
        state.primed = True
        if not primed:
            # First sighting: the counters' history predates this
            # autoscaler (server restart) — baseline, don't react.
            return None

        pressure = (
            signals.queue_fill >= policy.up_queue_fill
            or shed_delta > 0
            or miss_delta > 0
        )
        calm = (
            signals.queue_fill <= policy.down_queue_fill
            and shed_delta == 0
            and miss_delta == 0
        )
        state.calm_ticks = state.calm_ticks + 1 if calm else 0

        if now < state.frozen_until:
            return None
        replicas = signals.replicas
        if pressure and replicas < policy.max_replicas:
            if now - state.last_scale_at < policy.up_cooldown_s:
                return None
            reasons = []
            if signals.queue_fill >= policy.up_queue_fill:
                reasons.append(f"queue_fill={signals.queue_fill:.2f}")
            if shed_delta:
                reasons.append(f"sheds+{shed_delta}")
            if miss_delta:
                reasons.append(f"deadline_misses+{miss_delta}")
            decision = ScaleDecision(
                model, "up", replicas, replicas + 1, ", ".join(reasons)
            )
            self._record(state, "up", now)
            return decision
        if (
            state.calm_ticks >= policy.down_stable_ticks
            and replicas > policy.min_replicas
        ):
            if now - state.last_scale_at < policy.down_cooldown_s:
                return None
            decision = ScaleDecision(
                model,
                "down",
                replicas,
                replicas - 1,
                f"calm for {state.calm_ticks} ticks "
                f"(queue_fill={signals.queue_fill:.2f})",
            )
            self._record(state, "down", now)
            return decision
        return None

    def frozen(self, model: str) -> bool:
        state = self._state.get(model)
        return state is not None and self._clock() < state.frozen_until

    def snapshot(self) -> dict:
        now = self._clock()
        return {
            "policy": self.policy.to_dict(),
            "decisions_total": self.decisions_total,
            "flap_freezes_total": self.flap_freezes_total,
            "models": {
                model: {
                    "calm_ticks": state.calm_ticks,
                    "frozen": now < state.frozen_until,
                    "recent": list(state.recent),
                }
                for model, state in self._state.items()
            },
        }


__all__ = [
    "AutoscalePolicy",
    "ModelSignals",
    "ReplicaAutoscaler",
    "ScaleDecision",
]
