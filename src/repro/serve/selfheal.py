"""Self-healing control plane: circuit breakers, brownout ladder,
crash-consistent state journal, and the controller that ties them to the
:class:`~repro.serve.autoscale.ReplicaAutoscaler`.

The control loop closes ROADMAP's "replica autoscaling driven by
/metrics queue depths" item: PR 8 produced the *signals* (queue fill,
shed and deadline-miss counters, watchdog stats) — this module turns
them into *actions* the server applies and journals, so a serving
process operates itself and survives its own crash
(docs/operations.md 'Self-healing & autoscaling runbook').

Four pieces, all driven by an injectable clock so tests can script
entire incident timelines without sleeping:

* :class:`CircuitBreaker` — per model.  ``threshold`` *consecutive*
  deterministic model errors (HTTP 500s: the worker executed and
  failed, retries will not help) open the circuit: requests fail fast
  with 503 + ``Retry-After`` and ``reason: circuit_open`` before they
  ever touch a batcher or worker.  After ``open_s`` the circuit
  half-opens and admits nothing but an operator-invisible probe batch;
  a passing probe closes it, a failing one re-opens it.
* :class:`BrownoutLadder` — an operator-declared fallback chain per
  model (e.g. ``fp32@fast → int8@int8``: the paper's own
  accuracy/latency frontier used as a degradation axis).  Sustained
  shed/deadline pressure steps the model *down* one rung (served via
  the blue/green batcher swap, stamped on responses as
  ``X-Served-Variant``); sustained calm steps it back up.
* :class:`StateJournal` — an append-only, CRC-framed, fsync'd record
  of every control-plane decision (deploys, scale events, ladder
  moves).  Replay is torn-tail tolerant: a ``kill -9`` mid-append
  costs at most the half-written record, never the file.
* :class:`SelfHealController` — the pure decision core.  Each tick it
  reads one :class:`~repro.serve.autoscale.ModelSignals` per model and
  returns the :class:`Action` list the server should apply; the server
  owns all side effects (router scaling, batcher swaps, journal
  appends), which keeps this class trivially testable.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.serve.autoscale import (
    AutoscalePolicy,
    ModelSignals,
    ReplicaAutoscaler,
    ScaleDecision,
)


class ServeConfigError(ValueError):
    """Inconsistent serving topology, rejected at boot (never at the
    first request): replicas > workers, ladder variants missing from
    the registry, ``--state-dir`` pointing at a file, …"""


# --------------------------------------------------------------------------
# Circuit breaker
# --------------------------------------------------------------------------

CIRCUIT_CLOSED = "closed"
CIRCUIT_OPEN = "open"
CIRCUIT_HALF_OPEN = "half_open"

#: Prometheus-friendly numeric encoding of the circuit state.
CIRCUIT_STATE_CODE = {CIRCUIT_CLOSED: 0, CIRCUIT_HALF_OPEN: 1, CIRCUIT_OPEN: 2}


class CircuitBreaker:
    """Consecutive-failure circuit for one model.

    Only *deterministic* model errors count (``ExecutionFailed`` → HTTP
    500: the plan ran and raised, or a worker answered with a typed
    error).  Sheds, deadline misses and transport faults never trip it —
    those are load or infrastructure, not a broken model, and the
    watchdog/admission layers already own them.
    """

    def __init__(
        self,
        threshold: int = 5,
        open_s: float = 2.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if threshold < 1:
            raise ValueError("circuit threshold must be >= 1")
        if open_s <= 0:
            raise ValueError("circuit open_s must be > 0")
        self.threshold = threshold
        self.open_s = open_s
        self._clock = clock
        self._consecutive = 0
        self._state = CIRCUIT_CLOSED
        self._opened_at = float("-inf")
        self._probe_inflight = False
        self.opens_total = 0
        self.closes_total = 0

    @property
    def state(self) -> str:
        # OPEN lazily decays to HALF_OPEN once the hold-off elapses.
        if (
            self._state == CIRCUIT_OPEN
            and self._clock() - self._opened_at >= self.open_s
        ):
            self._state = CIRCUIT_HALF_OPEN
        return self._state

    def allow(self) -> Tuple[bool, float]:
        """Gate one client request: ``(admitted, retry_after_s)``.

        Half-open still refuses client traffic — only the controller's
        probe batch may test the model, so a recovering model is never
        probed by a thundering herd of real requests.
        """
        state = self.state
        if state == CIRCUIT_CLOSED:
            return True, 0.0
        if state == CIRCUIT_OPEN:
            remaining = self.open_s - (self._clock() - self._opened_at)
            return False, max(0.05, remaining)
        return False, self.open_s  # half-open: wait one probe cycle

    def record_success(self) -> None:
        self._consecutive = 0
        if self._state == CIRCUIT_HALF_OPEN:
            self._close()

    def record_error(self) -> None:
        self._consecutive += 1
        if self._state == CIRCUIT_CLOSED and self._consecutive >= self.threshold:
            self._open()

    def ready_for_probe(self) -> bool:
        return self.state == CIRCUIT_HALF_OPEN and not self._probe_inflight

    def begin_probe(self) -> None:
        self._probe_inflight = True

    def probe_result(self, ok: bool) -> None:
        self._probe_inflight = False
        if ok:
            self._close()
        else:
            self._open()

    def _open(self) -> None:
        self._state = CIRCUIT_OPEN
        self._opened_at = self._clock()
        self.opens_total += 1

    def _close(self) -> None:
        self._state = CIRCUIT_CLOSED
        self._consecutive = 0
        self.closes_total += 1

    def snapshot(self) -> dict:
        state = self.state
        return {
            "state": state,
            "consecutive_errors": self._consecutive,
            "threshold": self.threshold,
            "open_s": self.open_s,
            "opens_total": self.opens_total,
            "closes_total": self.closes_total,
        }


# --------------------------------------------------------------------------
# Brownout ladder
# --------------------------------------------------------------------------

def parse_ladder_spec(text: str) -> Tuple[str, List[str]]:
    """Parse one ``--ladder`` flag: ``model=fallback1>fallback2``.

    Position 0 of the ladder is always the model itself; the listed
    variants are the degradation rungs in order.  Raises
    :class:`ServeConfigError` on malformed input.
    """
    if "=" not in text:
        raise ServeConfigError(
            f"ladder spec {text!r}: expected 'model=variant>variant...'"
        )
    model, _, chain = text.partition("=")
    model = model.strip()
    variants = [v.strip() for v in chain.split(">") if v.strip()]
    if not model or not variants:
        raise ServeConfigError(
            f"ladder spec {text!r}: needs a model name and at least one "
            "fallback variant"
        )
    seen = {model}
    for variant in variants:
        if variant in seen:
            raise ServeConfigError(
                f"ladder spec {text!r}: variant {variant!r} repeats"
            )
        seen.add(variant)
    return model, variants


class BrownoutLadder:
    """Degradation ladder for one model.

    ``chain`` is the full serving order: ``chain[0]`` is the model's
    own (full-quality) variant, later entries degrade.  ``position``
    indexes the rung currently serving.  The ladder only *decides*;
    the server performs the actual blue/green batcher swap.
    """

    def __init__(
        self,
        model: str,
        fallbacks: Sequence[str],
        down_after_ticks: int = 3,
        up_after_ticks: int = 6,
        step_cooldown_s: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if not fallbacks:
            raise ServeConfigError(f"ladder for {model!r} has no fallbacks")
        self.model = model
        self.chain: List[str] = [model, *fallbacks]
        self.position = 0
        self.down_after_ticks = max(1, down_after_ticks)
        self.up_after_ticks = max(1, up_after_ticks)
        self.step_cooldown_s = step_cooldown_s
        self._clock = clock
        self._pressure_ticks = 0
        self._calm_ticks = 0
        self._last_step_at = float("-inf")
        self.steps_down_total = 0
        self.steps_up_total = 0

    @property
    def variant(self) -> str:
        return self.chain[self.position]

    def set_position(self, position: int) -> None:
        """Journal-replay entry point: restore a persisted rung."""
        self.position = max(0, min(len(self.chain) - 1, int(position)))

    def observe(self, pressure: bool) -> Optional[Tuple[str, int]]:
        """One tick: returns ``(direction, new_position)`` or ``None``."""
        now = self._clock()
        if pressure:
            self._pressure_ticks += 1
            self._calm_ticks = 0
        else:
            self._calm_ticks += 1
            self._pressure_ticks = 0
        if now - self._last_step_at < self.step_cooldown_s:
            return None
        if (
            pressure
            and self._pressure_ticks >= self.down_after_ticks
            and self.position < len(self.chain) - 1
        ):
            self.position += 1
            self._pressure_ticks = 0
            self._last_step_at = now
            self.steps_down_total += 1
            return ("down", self.position)
        if (
            not pressure
            and self._calm_ticks >= self.up_after_ticks
            and self.position > 0
        ):
            self.position -= 1
            self._calm_ticks = 0
            self._last_step_at = now
            self.steps_up_total += 1
            return ("up", self.position)
        return None

    def snapshot(self) -> dict:
        return {
            "chain": list(self.chain),
            "position": self.position,
            "variant": self.variant,
            "pressure_ticks": self._pressure_ticks,
            "calm_ticks": self._calm_ticks,
            "steps_down_total": self.steps_down_total,
            "steps_up_total": self.steps_up_total,
        }


# --------------------------------------------------------------------------
# Crash-consistent state journal
# --------------------------------------------------------------------------

JOURNAL_NAME = "journal.log"
_JOURNAL_HEADER = "REPRO-JOURNAL v1"


def _encode_record(record: dict) -> str:
    payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return f"{zlib.crc32(payload.encode('utf-8')) & 0xFFFFFFFF:08x} {payload}\n"


def _decode_record(line: bytes) -> Optional[dict]:
    """One journal line → its record; ``None`` when the framing, the CRC
    or the JSON object is bad."""
    crc, sep, payload = line.partition(b" ")
    if not sep or len(crc) != 8:
        return None
    try:
        if int(crc, 16) != zlib.crc32(payload) & 0xFFFFFFFF:
            return None
        record = json.loads(payload.decode("utf-8"))
    except ValueError:  # bad hex, UTF-8 or JSON
        return None
    return record if isinstance(record, dict) else None


class StateJournal:
    """Append-only, checksummed, fsync'd control-plane journal.

    Format (docs/operations.md 'Self-healing & autoscaling runbook'):
    a header line, then one record per line::

        REPRO-JOURNAL v1
        <crc32-of-json as 8 hex digits> <compact json>\\n

    Every append is flushed and ``fsync``'d before returning, so an
    acknowledged decision survives ``kill -9``.  Replay verifies each
    line's CRC and stops at the first bad or partial record — a torn
    tail (the expected crash artifact) silently truncates, and the next
    append overwrites it.  Replayed state is last-writer-wins per
    ``(event, model)``, so the journal needs no compaction to stay
    correct, only to stay small — :meth:`compact` rewrites it to the
    current effective records via atomic rename.
    """

    def __init__(self, state_dir: str, fsync: bool = True):
        if os.path.exists(state_dir) and not os.path.isdir(state_dir):
            raise ServeConfigError(
                f"--state-dir {state_dir!r} is a file, not a directory"
            )
        os.makedirs(state_dir, exist_ok=True)
        self.state_dir = state_dir
        self.path = os.path.join(state_dir, JOURNAL_NAME)
        self._fsync = fsync
        self._fh = None
        self.appends_total = 0
        self.torn_records = 0

    # -- write path ---------------------------------------------------------
    def _ensure_open(self):
        if self._fh is None:
            fresh = not os.path.exists(self.path)
            self._fh = open(self.path, "a", encoding="utf-8")
            if fresh or os.path.getsize(self.path) == 0:
                self._fh.write(_JOURNAL_HEADER + "\n")
                self._flush()
        return self._fh

    def _flush(self) -> None:
        self._fh.flush()
        if self._fsync:
            os.fsync(self._fh.fileno())

    def append(self, record: dict) -> None:
        self._ensure_open().write(_encode_record(record))
        self._flush()
        self.appends_total += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # -- read path ----------------------------------------------------------
    def replay(self) -> List[dict]:
        """Read every intact record, oldest first.

        Stops at the first record that fails framing, CRC, or JSON —
        anything after a corruption point is untrustworthy, and the
        common case (a half-written tail from ``kill -9``) is exactly
        one such record at EOF.
        """
        if not os.path.exists(self.path):
            return []
        records: List[dict] = []
        self.torn_records = 0
        with open(self.path, "rb") as fh:
            raw = fh.read()
        lines = raw.split(b"\n")
        if lines[0].decode("utf-8", "replace").strip() != _JOURNAL_HEADER:
            self.torn_records += 1
            return []
        # A file not ending in \n has a torn final line; split() leaves
        # it as the last element (complete files leave b"" there).
        for line in lines[1:]:
            if line == b"":
                continue
            record = _decode_record(line)
            if record is None:
                self.torn_records += 1
                break
            records.append(record)
        return records

    def compact(self, records: List[dict]) -> None:
        """Atomically rewrite the journal to exactly ``records``."""
        self.close()
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(_JOURNAL_HEADER + "\n")
            fh.writelines(_encode_record(record) for record in records)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        dir_fd = os.open(self.state_dir, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)

    def snapshot(self) -> dict:
        return {
            "path": self.path,
            "appends_total": self.appends_total,
            "torn_records": self.torn_records,
        }


@dataclass
class JournalState:
    """Effective control-plane state after last-writer-wins replay."""

    #: model → {"artifact": path, "version": content hash} for every
    #: dynamically deployed model (POST /models); boot re-installs them.
    deploys: Dict[str, dict] = field(default_factory=dict)
    #: model → replica count chosen by the autoscaler.
    replicas: Dict[str, int] = field(default_factory=dict)
    #: model → {"position": int, "variant": str} ladder rung.
    ladders: Dict[str, dict] = field(default_factory=dict)

    @classmethod
    def from_records(cls, records: List[dict]) -> "JournalState":
        state = cls()
        for record in records:
            event = record.get("event")
            model = record.get("model")
            if not isinstance(model, str):
                continue
            if event == "deploy":
                state.deploys[model] = {
                    "artifact": record.get("artifact"),
                    "version": record.get("version"),
                }
            elif event == "remove":
                state.deploys.pop(model, None)
                state.replicas.pop(model, None)
                state.ladders.pop(model, None)
            elif event == "scale":
                try:
                    state.replicas[model] = int(record["replicas"])
                except (KeyError, TypeError, ValueError):
                    continue
            elif event == "ladder":
                try:
                    state.ladders[model] = {
                        "position": int(record["position"]),
                        "variant": record.get("variant"),
                    }
                except (KeyError, TypeError, ValueError):
                    continue
        return state

    def to_records(self) -> List[dict]:
        """The compacted journal equivalent to this state."""
        records: List[dict] = []
        for model, deploy in sorted(self.deploys.items()):
            records.append({"event": "deploy", "model": model, **deploy})
        for model, replicas in sorted(self.replicas.items()):
            records.append(
                {"event": "scale", "model": model, "replicas": replicas}
            )
        for model, rung in sorted(self.ladders.items()):
            records.append({"event": "ladder", "model": model, **rung})
        return records


# --------------------------------------------------------------------------
# Policy + boot-time validation
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SelfHealPolicy:
    """Everything the self-healing loop needs, bundled for the server."""

    autoscale: Optional[AutoscalePolicy] = None
    #: model → ordered fallback variants (ladder rungs below the model).
    ladders: Dict[str, List[str]] = field(default_factory=dict)
    circuit_threshold: int = 5
    circuit_open_s: float = 2.0
    #: Control-loop tick period (the server's asyncio task; tests call
    #: :meth:`SelfHealController.tick` directly instead).
    interval_s: float = 0.25
    ladder_down_after_ticks: int = 3
    ladder_up_after_ticks: int = 6
    ladder_step_cooldown_s: float = 5.0

    def to_dict(self) -> dict:
        return {
            "autoscale": self.autoscale.to_dict() if self.autoscale else None,
            "ladders": {m: list(v) for m, v in self.ladders.items()},
            "circuit_threshold": self.circuit_threshold,
            "circuit_open_s": self.circuit_open_s,
            "interval_s": self.interval_s,
        }


def validate_topology(
    *,
    workers: int = 0,
    worker_replicas: int = 0,
    state_dir: Optional[str] = None,
    selfheal: Optional[SelfHealPolicy] = None,
    registry=None,
) -> None:
    """Boot-time topology validation (ISSUE 9 satellite): every
    inconsistency is a typed :class:`ServeConfigError` raised *before*
    the server binds a socket, never a first-request surprise."""
    if workers < 0:
        raise ServeConfigError(f"--workers must be >= 0 (got {workers})")
    if worker_replicas < 0:
        raise ServeConfigError(
            f"--worker-replicas must be >= 0 (got {worker_replicas})"
        )
    if workers > 0 and worker_replicas > workers:
        raise ServeConfigError(
            f"--worker-replicas {worker_replicas} exceeds --workers "
            f"{workers}: a model cannot have more replicas than there "
            "are worker processes"
        )
    if state_dir is not None and os.path.exists(state_dir) and (
        not os.path.isdir(state_dir)
    ):
        raise ServeConfigError(
            f"--state-dir {state_dir!r} is a file, not a directory"
        )
    if selfheal is None:
        return
    if selfheal.circuit_threshold < 1:
        raise ServeConfigError(
            f"--circuit-threshold must be >= 1 "
            f"(got {selfheal.circuit_threshold})"
        )
    if selfheal.autoscale is not None and workers <= 0:
        raise ServeConfigError(
            "replica autoscaling requires worker mode (--workers N): "
            "in-process serving has nothing to scale"
        )
    if selfheal.autoscale is not None and (
        selfheal.autoscale.max_replicas > workers
    ):
        raise ServeConfigError(
            f"--autoscale-max {selfheal.autoscale.max_replicas} exceeds "
            f"--workers {workers}"
        )
    for model, fallbacks in selfheal.ladders.items():
        if registry is not None and model not in registry:
            raise ServeConfigError(
                f"--ladder model {model!r} is not in the registry"
            )
        for variant in fallbacks:
            if registry is not None and variant not in registry:
                raise ServeConfigError(
                    f"--ladder variant {variant!r} (fallback of {model!r}) "
                    "is not in the registry"
                )


# --------------------------------------------------------------------------
# Controller
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Action:
    """One side effect the server should apply after a tick."""

    kind: str  # "scale" | "ladder" | "probe"
    model: str
    #: scale → target replica count; ladder → target position.
    value: int = 0
    #: ladder → target variant name.
    variant: str = ""
    direction: str = ""
    reason: str = ""


class SelfHealController:
    """The pure decision core of the self-healing loop.

    Owns one :class:`CircuitBreaker` per model, one
    :class:`BrownoutLadder` per laddered model, and the shared
    :class:`~repro.serve.autoscale.ReplicaAutoscaler`.  The server calls
    :meth:`tick` with fresh per-model signals and applies the returned
    actions; request handlers call :meth:`record_success` /
    :meth:`record_error` inline as responses resolve.
    """

    def __init__(
        self,
        policy: SelfHealPolicy,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.policy = policy
        self._clock = clock
        self.autoscaler = (
            ReplicaAutoscaler(policy.autoscale, clock)
            if policy.autoscale is not None
            else None
        )
        self._circuits: Dict[str, CircuitBreaker] = {}
        self._ladders: Dict[str, BrownoutLadder] = {
            model: BrownoutLadder(
                model,
                fallbacks,
                down_after_ticks=policy.ladder_down_after_ticks,
                up_after_ticks=policy.ladder_up_after_ticks,
                step_cooldown_s=policy.ladder_step_cooldown_s,
                clock=clock,
            )
            for model, fallbacks in policy.ladders.items()
        }
        self._last_shed: Dict[str, int] = {}
        self._last_miss: Dict[str, int] = {}
        self.ticks_total = 0

    # -- circuit plumbing (called inline from the request path) -------------
    def circuit(self, model: str) -> CircuitBreaker:
        breaker = self._circuits.get(model)
        if breaker is None:
            breaker = self._circuits[model] = CircuitBreaker(
                threshold=self.policy.circuit_threshold,
                open_s=self.policy.circuit_open_s,
                clock=self._clock,
            )
        return breaker

    def allow(self, model: str) -> Tuple[bool, float]:
        return self.circuit(model).allow()

    def record_success(self, model: str) -> None:
        self.circuit(model).record_success()

    def record_error(self, model: str) -> None:
        self.circuit(model).record_error()

    def ladder(self, model: str) -> Optional[BrownoutLadder]:
        return self._ladders.get(model)

    def ladders(self) -> Dict[str, BrownoutLadder]:
        return dict(self._ladders)

    # -- the control tick ---------------------------------------------------
    def tick(self, signals: Dict[str, ModelSignals]) -> List[Action]:
        """One pass over every model; returns the actions to apply.

        Ordering inside a tick: circuit probes first (a broken model
        must not also be scaled or degraded on error noise), then
        autoscale, then the ladder — and the ladder only considers
        stepping down once the autoscaler has no capacity left to add
        (at max replicas, or no autoscaler), so quality is sacrificed
        strictly after parallelism is exhausted.
        """
        self.ticks_total += 1
        actions: List[Action] = []
        for model, sig in signals.items():
            # One baseline, refreshed every tick in every circuit state:
            # the autoscaler and the ladder see the same deltas, and
            # nothing counted while a circuit was open replays later.
            shed_delta = max(
                0, sig.shed_total - self._last_shed.get(model, sig.shed_total)
            )
            miss_delta = max(
                0,
                sig.deadline_exceeded_total
                - self._last_miss.get(model, sig.deadline_exceeded_total),
            )
            self._last_shed[model] = sig.shed_total
            self._last_miss[model] = sig.deadline_exceeded_total
            breaker = self.circuit(model)
            if breaker.ready_for_probe():
                actions.append(
                    Action(
                        "probe",
                        model,
                        reason="circuit half-open: probe batch",
                    )
                )
            if breaker.state != CIRCUIT_CLOSED:
                # Error storms produce sheds/misses as a side effect;
                # reacting to them would scale or degrade a model whose
                # problem is not load.
                continue
            at_capacity = True
            if self.autoscaler is not None:
                decision = self.autoscaler.observe(
                    model, sig, deltas=(shed_delta, miss_delta)
                )
                if decision is not None:
                    actions.append(
                        Action(
                            "scale",
                            model,
                            value=decision.to_replicas,
                            direction=decision.direction,
                            reason=decision.reason,
                        )
                    )
                at_capacity = (
                    sig.replicas >= self.autoscaler.policy.max_replicas
                )
            ladder = self._ladders.get(model)
            if ladder is not None:
                pressure = (shed_delta > 0 or miss_delta > 0) and at_capacity
                move = ladder.observe(pressure)
                if move is not None:
                    direction, position = move
                    actions.append(
                        Action(
                            "ladder",
                            model,
                            value=position,
                            variant=ladder.chain[position],
                            direction=direction,
                            reason=(
                                f"sustained shed/deadline pressure"
                                if direction == "down"
                                else "pressure subsided"
                            ),
                        )
                    )
        return actions

    def snapshot(self) -> dict:
        return {
            "ticks_total": self.ticks_total,
            "autoscale": (
                self.autoscaler.snapshot() if self.autoscaler else None
            ),
            "circuits": {
                model: breaker.snapshot()
                for model, breaker in self._circuits.items()
            },
            "ladders": {
                model: ladder.snapshot()
                for model, ladder in self._ladders.items()
            },
        }


__all__ = [
    "Action",
    "BrownoutLadder",
    "CIRCUIT_CLOSED",
    "CIRCUIT_HALF_OPEN",
    "CIRCUIT_OPEN",
    "CIRCUIT_STATE_CODE",
    "CircuitBreaker",
    "JournalState",
    "SelfHealController",
    "SelfHealPolicy",
    "ServeConfigError",
    "StateJournal",
    "parse_ladder_spec",
    "validate_topology",
]
