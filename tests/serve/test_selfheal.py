"""Self-healing control plane (ISSUE 9): circuit breakers, replica
autoscaler, brownout ladder, crash-consistent journal, and the server
integration that ties them together.

Every control-plane rule is tested against an injectable FakeClock —
whole incident timelines (error bursts, cooldowns, flap storms, probe
cycles) run without a single sleep.  The server-level tests then verify
the HTTP surface: 503 + ``Retry-After`` + ``reason: circuit_open``
fail-fast, the typed :class:`ServeCircuitOpen` client behaviour,
``X-Served-Variant`` stamping, and journal replay across an in-process
restart (the kill -9 subprocess drill lives in
``test_selfheal_smoke.py``).
"""

import json
import os
import time

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.engine.artifact import ArtifactFormatError, load_plan, save_plan
from repro.serve import ModelRegistry, ServeClient, start_in_background
from repro.serve.autoscale import (
    AutoscalePolicy,
    ModelSignals,
    ReplicaAutoscaler,
)
from repro.serve.client import RetryPolicy, ServeCircuitOpen, ServeError
from repro.serve.registry import ModelSpec, ServedModel, load_artifact_served
from repro.serve.selfheal import (
    CIRCUIT_CLOSED,
    CIRCUIT_HALF_OPEN,
    CIRCUIT_OPEN,
    BrownoutLadder,
    CircuitBreaker,
    JournalState,
    SelfHealController,
    SelfHealPolicy,
    ServeConfigError,
    StateJournal,
    parse_ladder_spec,
    validate_topology,
)
from repro.serve.server import InferenceServer

NAME = "lenet-F2-fp32"
VARIANT = "lenet-F2-fp32@reference"


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, s):
        self.now += s


def _stub_served(name=NAME, value=1.0, fail=None, version="v1"):
    """A duck-typed served model; ``fail`` is a mutable dict gate."""
    fail = fail if fail is not None else {"on": False}

    class StubPlan:
        backend = "fast"

        def run(self, x, threads=None, trace=None):
            if fail["on"]:
                raise RuntimeError("injected model failure")
            return np.full((x.shape[0], 4), value, dtype=np.float32)

    return ServedModel(
        spec=ModelSpec.parse(name),
        plan=StubPlan(),
        sample_shape=(1, 28, 28),
        version=version,
    )


# --------------------------------------------------------------------------
# Circuit breaker
# --------------------------------------------------------------------------

class TestCircuitBreaker:
    def test_validation(self):
        with pytest.raises(ValueError, match="threshold"):
            CircuitBreaker(threshold=0)
        with pytest.raises(ValueError, match="open_s"):
            CircuitBreaker(open_s=0.0)

    def test_closed_admits(self):
        breaker = CircuitBreaker(clock=FakeClock())
        assert breaker.state == CIRCUIT_CLOSED
        assert breaker.allow() == (True, 0.0)

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(threshold=3, clock=FakeClock())
        breaker.record_error()
        breaker.record_error()
        breaker.record_success()  # streak broken
        breaker.record_error()
        breaker.record_error()
        assert breaker.state == CIRCUIT_CLOSED
        breaker.record_error()  # third consecutive
        assert breaker.state == CIRCUIT_OPEN
        assert breaker.opens_total == 1

    def test_open_refuses_with_remaining_holdoff(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, open_s=2.0, clock=clock)
        breaker.record_error()
        clock.advance(0.5)
        allowed, retry_after = breaker.allow()
        assert not allowed
        assert retry_after == pytest.approx(1.5)

    def test_open_decays_to_half_open_then_refuses_clients(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, open_s=2.0, clock=clock)
        breaker.record_error()
        clock.advance(2.0)
        assert breaker.state == CIRCUIT_HALF_OPEN
        # Half-open still refuses real traffic: only a probe may test.
        allowed, retry_after = breaker.allow()
        assert not allowed and retry_after == pytest.approx(2.0)

    def test_probe_cycle_closes_or_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, open_s=1.0, clock=clock)
        breaker.record_error()
        assert not breaker.ready_for_probe()  # still open
        clock.advance(1.0)
        assert breaker.ready_for_probe()
        breaker.begin_probe()
        assert not breaker.ready_for_probe()  # one probe at a time
        breaker.probe_result(False)
        assert breaker.state == CIRCUIT_OPEN
        assert breaker.opens_total == 2
        clock.advance(1.0)
        breaker.begin_probe()
        breaker.probe_result(True)
        assert breaker.state == CIRCUIT_CLOSED
        assert breaker.closes_total == 1
        assert breaker.allow() == (True, 0.0)

    def test_inline_success_in_half_open_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(threshold=1, open_s=1.0, clock=clock)
        breaker.record_error()
        clock.advance(1.0)
        assert breaker.state == CIRCUIT_HALF_OPEN  # observe the decay
        breaker.record_success()
        assert breaker.state == CIRCUIT_CLOSED


# --------------------------------------------------------------------------
# Brownout ladder
# --------------------------------------------------------------------------

class TestParseLadderSpec:
    def test_single_and_multi_rung(self):
        assert parse_ladder_spec("m=v1") == ("m", ["v1"])
        assert parse_ladder_spec(" m = v1 > v2 ") == ("m", ["v1", "v2"])

    @pytest.mark.parametrize(
        "text", ["no-equals", "=v1", "m=", "m=v1>v1", "m=m"]
    )
    def test_malformed_specs_raise_typed_error(self, text):
        with pytest.raises(ServeConfigError):
            parse_ladder_spec(text)


class TestBrownoutLadder:
    def test_empty_fallbacks_rejected(self):
        with pytest.raises(ServeConfigError):
            BrownoutLadder("m", [])

    def test_steps_down_after_sustained_pressure(self):
        clock = FakeClock()
        ladder = BrownoutLadder(
            "m", ["v1", "v2"], down_after_ticks=3, step_cooldown_s=5.0,
            clock=clock,
        )
        assert ladder.variant == "m"
        assert ladder.observe(True) is None
        assert ladder.observe(True) is None
        assert ladder.observe(True) == ("down", 1)
        assert ladder.variant == "v1"
        assert ladder.steps_down_total == 1

    def test_step_cooldown_blocks_consecutive_moves(self):
        clock = FakeClock()
        ladder = BrownoutLadder(
            "m", ["v1", "v2"], down_after_ticks=1, step_cooldown_s=5.0,
            clock=clock,
        )
        assert ladder.observe(True) == ("down", 1)
        assert ladder.observe(True) is None  # cooling down
        clock.advance(5.0)
        assert ladder.observe(True) == ("down", 2)
        assert ladder.variant == "v2"
        clock.advance(5.0)
        assert ladder.observe(True) is None  # bottom rung

    def test_calm_steps_back_up(self):
        clock = FakeClock()
        ladder = BrownoutLadder(
            "m", ["v1"], down_after_ticks=1, up_after_ticks=3,
            step_cooldown_s=1.0, clock=clock,
        )
        assert ladder.observe(True) == ("down", 1)
        clock.advance(1.0)
        assert ladder.observe(False) is None
        assert ladder.observe(False) is None
        assert ladder.observe(False) == ("up", 0)
        assert ladder.variant == "m"
        assert ladder.steps_up_total == 1
        # Already at full quality: calm never over-promotes.
        clock.advance(1.0)
        for _ in range(5):
            assert ladder.observe(False) is None

    def test_set_position_clamps(self):
        ladder = BrownoutLadder("m", ["v1"], clock=FakeClock())
        ladder.set_position(99)
        assert ladder.position == 1
        ladder.set_position(-3)
        assert ladder.position == 0


# --------------------------------------------------------------------------
# State journal
# --------------------------------------------------------------------------

class TestStateJournal:
    def test_append_replay_roundtrip(self, tmp_path):
        journal = StateJournal(str(tmp_path / "state"))
        records = [
            {"event": "deploy", "model": "m", "artifact": "/a", "version": "h1"},
            {"event": "scale", "model": "m", "replicas": 3},
            {"event": "ladder", "model": "m", "position": 1, "variant": "v"},
        ]
        for record in records:
            journal.append(record)
        journal.close()
        assert journal.appends_total == 3
        fresh = StateJournal(str(tmp_path / "state"))
        assert fresh.replay() == records
        assert fresh.torn_records == 0

    def test_torn_tail_truncates_silently(self, tmp_path):
        journal = StateJournal(str(tmp_path / "state"))
        journal.append({"event": "scale", "model": "a", "replicas": 2})
        journal.append({"event": "scale", "model": "b", "replicas": 3})
        journal.close()
        # Simulate kill -9 mid-append: chop bytes off the final record.
        raw = open(journal.path, "rb").read()
        with open(journal.path, "wb") as fh:
            fh.write(raw[:-7])
        replayed = journal.replay()
        assert replayed == [{"event": "scale", "model": "a", "replicas": 2}]
        assert journal.torn_records == 1
        # The next append after replay keeps the journal usable.
        journal.append({"event": "scale", "model": "c", "replicas": 1})
        journal.close()

    def test_corrupt_record_stops_replay(self, tmp_path):
        journal = StateJournal(str(tmp_path / "state"))
        journal.append({"event": "scale", "model": "a", "replicas": 2})
        journal.append({"event": "scale", "model": "b", "replicas": 3})
        journal.close()
        lines = open(journal.path, "rb").read().split(b"\n")
        lines[1] = b"deadbeef " + lines[1].split(b" ", 1)[1]  # CRC mismatch
        with open(journal.path, "wb") as fh:
            fh.write(b"\n".join(lines))
        assert journal.replay() == []  # nothing after corruption is trusted
        assert journal.torn_records == 1

    def test_missing_header_distrusts_file(self, tmp_path):
        journal = StateJournal(str(tmp_path / "state"))
        with open(journal.path, "w") as fh:
            fh.write("not a journal\n")
        assert journal.replay() == []

    def test_compact_rewrites_atomically(self, tmp_path):
        journal = StateJournal(str(tmp_path / "state"))
        for i in range(5):
            journal.append({"event": "scale", "model": "m", "replicas": i})
        journal.compact([{"event": "scale", "model": "m", "replicas": 4}])
        assert journal.replay() == [
            {"event": "scale", "model": "m", "replicas": 4}
        ]
        assert not os.path.exists(journal.path + ".tmp")

    def test_state_dir_pointing_at_file_rejected(self, tmp_path):
        target = tmp_path / "not-a-dir"
        target.write_text("x")
        with pytest.raises(ServeConfigError, match="not a directory"):
            StateJournal(str(target))


class TestJournalState:
    def test_last_writer_wins_and_remove_clears(self):
        state = JournalState.from_records([
            {"event": "deploy", "model": "m", "artifact": "/a", "version": "h1"},
            {"event": "scale", "model": "m", "replicas": 2},
            {"event": "scale", "model": "m", "replicas": 4},
            {"event": "ladder", "model": "m", "position": 2, "variant": "v2"},
            {"event": "ladder", "model": "m", "position": 1, "variant": "v1"},
            {"event": "deploy", "model": "m", "artifact": "/b", "version": "h2"},
            {"event": "deploy", "model": "gone", "artifact": "/c", "version": "h3"},
            {"event": "remove", "model": "gone"},
        ])
        assert state.deploys == {"m": {"artifact": "/b", "version": "h2"}}
        assert state.replicas == {"m": 4}
        assert state.ladders == {"m": {"position": 1, "variant": "v1"}}

    def test_malformed_records_skipped(self):
        state = JournalState.from_records([
            {"event": "scale", "replicas": 2},  # no model
            {"event": "scale", "model": "m", "replicas": "lots"},
            {"event": "ladder", "model": "m"},  # no position
            {"event": "unknown", "model": "m"},
        ])
        assert state.deploys == {} and state.replicas == {} and state.ladders == {}

    def test_to_records_roundtrip(self):
        state = JournalState(
            deploys={"m": {"artifact": "/a", "version": "h"}},
            replicas={"m": 3},
            ladders={"m": {"position": 1, "variant": "v"}},
        )
        assert JournalState.from_records(state.to_records()) == state


# --------------------------------------------------------------------------
# Replica autoscaler
# --------------------------------------------------------------------------

def _signals(fill=0.0, shed=0, miss=0, replicas=1):
    return ModelSignals(
        queue_fill=fill, shed_total=shed, deadline_exceeded_total=miss,
        replicas=replicas,
    )


class TestAutoscalePolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            AutoscalePolicy(min_replicas=0)
        with pytest.raises(ValueError):
            AutoscalePolicy(min_replicas=3, max_replicas=2)
        with pytest.raises(ValueError):
            AutoscalePolicy(up_queue_fill=0.2, down_queue_fill=0.4)


class TestReplicaAutoscaler:
    def _scaler(self, clock, **kwargs):
        defaults = dict(
            min_replicas=1, max_replicas=3, up_queue_fill=0.5,
            down_queue_fill=0.1, up_cooldown_s=2.0, down_cooldown_s=5.0,
            down_stable_ticks=2,
        )
        defaults.update(kwargs)
        return ReplicaAutoscaler(AutoscalePolicy(**defaults), clock)

    def test_first_sighting_primes_instead_of_reacting(self):
        scaler = self._scaler(FakeClock())
        # Counter history predating the autoscaler must not trigger.
        assert scaler.observe("m", _signals(fill=1.0, shed=999)) is None
        decision = scaler.observe("m", _signals(fill=1.0, shed=999))
        assert decision is not None and decision.direction == "up"

    def test_queue_fill_scales_up_one_step(self):
        clock = FakeClock()
        scaler = self._scaler(clock)
        scaler.observe("m", _signals())
        decision = scaler.observe("m", _signals(fill=0.9, replicas=1))
        assert (decision.from_replicas, decision.to_replicas) == (1, 2)
        assert "queue_fill" in decision.reason

    def test_up_cooldown_and_max_bound(self):
        clock = FakeClock()
        scaler = self._scaler(clock)
        scaler.observe("m", _signals())
        assert scaler.observe("m", _signals(fill=0.9)) is not None
        # Within the cooldown: refused despite pressure.
        assert scaler.observe("m", _signals(fill=0.9, replicas=2)) is None
        clock.advance(2.0)
        assert scaler.observe("m", _signals(fill=0.9, replicas=2)) is not None
        clock.advance(2.0)
        # At max_replicas: no further ups.
        assert scaler.observe("m", _signals(fill=0.9, replicas=3)) is None

    def test_shed_delta_triggers_up_without_queue_fill(self):
        clock = FakeClock()
        scaler = self._scaler(clock)
        scaler.observe("m", _signals(shed=10))
        decision = scaler.observe("m", _signals(shed=14))
        assert decision is not None and "sheds+4" in decision.reason
        # The same cumulative total later is a zero delta, not pressure.
        clock.advance(2.0)
        assert scaler.observe("m", _signals(shed=14)) is None

    def test_down_needs_stability_cooldown_and_min_bound(self):
        clock = FakeClock()
        scaler = self._scaler(clock)
        scaler.observe("m", _signals(replicas=2))
        assert scaler.observe("m", _signals(fill=0.05, replicas=2)) is None
        decision = scaler.observe("m", _signals(fill=0.05, replicas=2))
        assert decision is not None
        assert (decision.direction, decision.to_replicas) == ("down", 1)
        # At min_replicas: calm never scales below the floor.
        clock.advance(5.0)
        for _ in range(4):
            assert scaler.observe("m", _signals(fill=0.0, replicas=1)) is None

    def test_flap_storm_freezes_the_model(self):
        clock = FakeClock()
        scaler = self._scaler(
            clock, up_cooldown_s=0.0, down_cooldown_s=0.0,
            down_stable_ticks=1, flap_window=4, flap_reversals=2,
            flap_freeze_s=30.0,
        )
        scaler.observe("m", _signals())
        assert scaler.observe("m", _signals(fill=0.9, replicas=1)) is not None
        assert scaler.observe("m", _signals(fill=0.0, replicas=2)) is not None
        assert scaler.observe("m", _signals(fill=0.9, replicas=1)) is not None
        assert scaler.flap_freezes_total == 1
        assert scaler.frozen("m")
        # Frozen: pressure is ignored until the freeze expires.
        assert scaler.observe("m", _signals(fill=0.9, replicas=1)) is None
        clock.advance(30.0)
        assert not scaler.frozen("m")
        assert scaler.observe("m", _signals(fill=0.9, replicas=1)) is not None


# --------------------------------------------------------------------------
# Boot-time topology validation
# --------------------------------------------------------------------------

class TestValidateTopology:
    def test_negative_counts_rejected(self):
        with pytest.raises(ServeConfigError, match="--workers"):
            validate_topology(workers=-1)
        with pytest.raises(ServeConfigError, match="worker-replicas"):
            validate_topology(workers=2, worker_replicas=-1)

    def test_replicas_cannot_exceed_workers(self):
        with pytest.raises(ServeConfigError, match="exceeds"):
            validate_topology(workers=2, worker_replicas=3)

    def test_state_dir_file_rejected(self, tmp_path):
        target = tmp_path / "f"
        target.write_text("x")
        with pytest.raises(ServeConfigError, match="not a directory"):
            validate_topology(state_dir=str(target))

    def test_circuit_threshold_floor(self):
        with pytest.raises(ServeConfigError, match="circuit-threshold"):
            validate_topology(
                selfheal=SelfHealPolicy(circuit_threshold=0)
            )

    def test_autoscale_requires_worker_mode(self):
        policy = SelfHealPolicy(autoscale=AutoscalePolicy(max_replicas=2))
        with pytest.raises(ServeConfigError, match="worker mode"):
            validate_topology(workers=0, selfheal=policy)

    def test_autoscale_max_clamped_to_pool(self):
        policy = SelfHealPolicy(autoscale=AutoscalePolicy(max_replicas=4))
        with pytest.raises(ServeConfigError, match="--autoscale-max"):
            validate_topology(workers=2, worker_replicas=1, selfheal=policy)

    def test_ladder_rungs_must_be_registered(self):
        registry = {NAME}
        with pytest.raises(ServeConfigError, match="not in the registry"):
            validate_topology(
                selfheal=SelfHealPolicy(ladders={"other": [NAME]}),
                registry=registry,
            )
        with pytest.raises(ServeConfigError, match="fallback of"):
            validate_topology(
                selfheal=SelfHealPolicy(ladders={NAME: [VARIANT]}),
                registry=registry,
            )

    def test_consistent_topology_passes(self, tmp_path):
        validate_topology(
            workers=4,
            worker_replicas=2,
            state_dir=str(tmp_path / "state"),
            selfheal=SelfHealPolicy(
                autoscale=AutoscalePolicy(max_replicas=4),
                ladders={NAME: [VARIANT]},
            ),
            registry={NAME, VARIANT},
        )

    def test_server_constructor_raises_typed_error(self):
        registry = ModelRegistry()
        registry.add(_stub_served())
        with pytest.raises(ServeConfigError, match="worker mode"):
            InferenceServer(
                registry,
                selfheal=SelfHealPolicy(
                    autoscale=AutoscalePolicy(max_replicas=1)
                ),
            )


# --------------------------------------------------------------------------
# Controller
# --------------------------------------------------------------------------

class TestSelfHealController:
    def test_circuit_plumbing_and_fail_fast(self):
        clock = FakeClock()
        controller = SelfHealController(
            SelfHealPolicy(circuit_threshold=2, circuit_open_s=3.0), clock
        )
        assert controller.allow(NAME) == (True, 0.0)
        controller.record_error(NAME)
        controller.record_error(NAME)
        allowed, retry_after = controller.allow(NAME)
        assert not allowed and retry_after > 0

    def test_tick_emits_probe_when_half_open(self):
        clock = FakeClock()
        controller = SelfHealController(
            SelfHealPolicy(circuit_threshold=1, circuit_open_s=2.0), clock
        )
        controller.record_error(NAME)
        assert controller.tick({NAME: _signals()}) == []  # still open
        clock.advance(2.0)
        actions = controller.tick({NAME: _signals()})
        assert [a.kind for a in actions] == ["probe"]
        assert actions[0].model == NAME

    def test_open_circuit_suppresses_scaling_and_refreshes_baselines(self):
        clock = FakeClock()
        controller = SelfHealController(
            SelfHealPolicy(
                circuit_threshold=1,
                circuit_open_s=100.0,
                ladders={NAME: [VARIANT]},
                ladder_down_after_ticks=1,
                ladder_step_cooldown_s=0.0,
            ),
            clock,
        )
        controller.tick({NAME: _signals(shed=0)})  # baseline
        controller.record_error(NAME)
        # An error storm sheds as a side effect; an open circuit must not
        # convert that into brownout steps.
        assert controller.tick({NAME: _signals(fill=1.0, shed=50)}) == []
        controller.circuit(NAME).probe_result(True)  # force close
        # Baselines were refreshed while open: the old shed burst is not
        # replayed as fresh pressure once the circuit closes.
        actions = controller.tick({NAME: _signals(shed=50)})
        assert actions == []

    def test_recovered_circuit_does_not_scale_on_stale_misses(self):
        clock = FakeClock()
        controller = SelfHealController(
            SelfHealPolicy(
                autoscale=AutoscalePolicy(max_replicas=2, up_cooldown_s=0.0),
                ladders={NAME: [VARIANT]},
                ladder_down_after_ticks=1,
                ladder_step_cooldown_s=0.0,
                circuit_threshold=2,
                circuit_open_s=1.0,
            ),
            clock,
        )
        assert controller.tick({NAME: _signals(miss=0)}) == []  # prime
        controller.record_error(NAME)
        controller.record_error(NAME)
        # Requests miss their deadlines while the circuit is open.
        assert controller.tick({NAME: _signals(miss=9)}) == []
        clock.advance(1.0)
        actions = controller.tick({NAME: _signals(miss=9)})
        assert [a.kind for a in actions] == ["probe"]
        controller.circuit(NAME).probe_result(True)
        # No new misses since: neither the autoscaler nor the ladder
        # reacts to the ones counted while the circuit was open.
        assert controller.tick({NAME: _signals(miss=9)}) == []

    def test_scale_then_ladder_only_at_capacity(self):
        clock = FakeClock()
        controller = SelfHealController(
            SelfHealPolicy(
                autoscale=AutoscalePolicy(
                    max_replicas=2, up_cooldown_s=0.0, up_queue_fill=0.5,
                ),
                ladders={NAME: [VARIANT]},
                ladder_down_after_ticks=2,
                ladder_step_cooldown_s=0.0,
            ),
            clock,
        )
        controller.tick({NAME: _signals(shed=0)})  # prime
        # Below max replicas: pressure scales, the ladder holds quality.
        actions = controller.tick({NAME: _signals(shed=10, replicas=1)})
        assert [a.kind for a in actions] == ["scale"]
        assert actions[0].value == 2
        # At max replicas: sustained pressure now steps the ladder down.
        actions = controller.tick({NAME: _signals(shed=20, replicas=2)})
        assert actions == []  # tick 1 of 2 (and scale-up exhausted)
        actions = controller.tick({NAME: _signals(shed=30, replicas=2)})
        assert [(a.kind, a.variant) for a in actions] == [("ladder", VARIANT)]
        assert actions[0].direction == "down"

    def test_ladder_without_autoscaler_treats_pool_as_at_capacity(self):
        clock = FakeClock()
        controller = SelfHealController(
            SelfHealPolicy(
                ladders={NAME: [VARIANT]},
                ladder_down_after_ticks=1,
                ladder_step_cooldown_s=0.0,
            ),
            clock,
        )
        controller.tick({NAME: _signals(shed=0)})
        actions = controller.tick({NAME: _signals(shed=5)})
        assert [a.kind for a in actions] == ["ladder"]

    def test_snapshot_shape(self):
        controller = SelfHealController(
            SelfHealPolicy(ladders={NAME: [VARIANT]}), FakeClock()
        )
        controller.record_error(NAME)
        snap = controller.snapshot()
        assert snap["circuits"][NAME]["consecutive_errors"] == 1
        assert snap["ladders"][NAME]["chain"] == [NAME, VARIANT]
        assert snap["autoscale"] is None


# --------------------------------------------------------------------------
# Server integration (in-process; the kill -9 drill is in the smoke test)
# --------------------------------------------------------------------------

class TestServerCircuit:
    def test_circuit_opens_and_fails_fast_with_typed_503(self):
        fail = {"on": True}
        registry = ModelRegistry()
        registry.add(_stub_served(fail=fail))
        policy = SelfHealPolicy(
            circuit_threshold=2, circuit_open_s=60.0, interval_s=30.0
        )
        x = np.zeros((1, 28, 28), dtype=np.float32)
        with start_in_background(registry, selfheal=policy) as handle:
            with ServeClient(handle.base_url) as client:
                for _ in range(2):
                    with pytest.raises(ServeError) as info:
                        client.predict(x, model=NAME)
                    assert info.value.status == 500
                # Threshold reached: the next request never touches the
                # model — typed 503 with a Retry-After hold.
                with pytest.raises(ServeCircuitOpen) as info:
                    client.predict(x, model=NAME)
                assert info.value.status == 503
                assert info.value.reason == "circuit_open"
                assert info.value.retry_after and info.value.retry_after > 0
                health = client.healthz()
                assert health["status"] == "degraded"
                assert any("circuit open" in r for r in health["reasons"])
                snap = client.metrics()
                assert snap["selfheal"]["circuits"][NAME]["state"] == "open"
                text = client.metrics_text()
                assert f'repro_circuit_state{{model="{NAME}"}} 2' in text

    def test_probe_recloses_circuit_after_model_recovers(self):
        fail = {"on": True}
        registry = ModelRegistry()
        registry.add(_stub_served(fail=fail))
        policy = SelfHealPolicy(
            circuit_threshold=1, circuit_open_s=0.05, interval_s=0.02
        )
        x = np.zeros((1, 28, 28), dtype=np.float32)
        with start_in_background(registry, selfheal=policy) as handle:
            with ServeClient(handle.base_url) as client:
                with pytest.raises(ServeError):
                    client.predict(x, model=NAME)
                fail["on"] = False  # the model recovers; a probe must notice
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    try:
                        out = client.predict(x, model=NAME)
                        break
                    except ServeError:
                        time.sleep(0.02)
                else:
                    pytest.fail("circuit never reclosed after recovery")
                assert out.shape == (4,)
                events = client.models()["deploy_events"]
                assert any(
                    e.get("action") == "circuit_probe" and e.get("ok")
                    for e in events
                )

    def test_client_honours_retry_after_without_budget_spend(self):
        fail = {"on": True}
        registry = ModelRegistry()
        registry.add(_stub_served(fail=fail))
        policy = SelfHealPolicy(
            circuit_threshold=1, circuit_open_s=0.15, interval_s=30.0
        )
        x = np.zeros((1, 28, 28), dtype=np.float32)
        with start_in_background(registry, selfheal=policy) as handle:
            with ServeClient(handle.base_url) as client:
                with pytest.raises(ServeError):
                    client.predict(x, model=NAME)  # opens the circuit
            # budget_s=0 plus 5 s backoff: a *generic* 503 would fail
            # fast on the first attempt without a single sleep.  A
            # circuit-open 503 instead waits the server's Retry-After
            # verbatim (free of backoff and budget) and retries.
            retry = RetryPolicy(
                max_attempts=3, base_backoff_s=5.0, max_backoff_s=5.0,
                jitter=0.0, budget_s=0.0,
            )
            with ServeClient(handle.base_url, retry=retry) as client:
                t0 = time.monotonic()
                with pytest.raises(ServeCircuitOpen):
                    client.predict(x, model=NAME)
                elapsed = time.monotonic() - t0
            # Two Retry-After waits of ~0.15 s; far below one 5 s backoff.
            assert 0.2 <= elapsed < 4.0


class TestServerJournalReplay:
    def _artifact(self, tmp_path, seed, tag):
        import dataclasses

        from repro.engine.artifact import save_plan
        from repro.engine.cache import PlanCache
        from repro.serve.registry import compile_served

        spec = dataclasses.replace(
            ModelSpec.parse("lenet-F2-fp32@reference"), seed=seed
        )
        served = compile_served(spec, cache=PlanCache())
        path = str(tmp_path / f"lenet-{tag}.rpln")
        save_plan(
            served.plan, path, input_shape=(1,) + spec.sample_shape,
            extra={"model": spec.name, "seed": spec.seed},
        )
        return spec.name, path

    def test_runtime_deploy_survives_restart(self, tmp_path):
        import urllib.request

        name, artifact = self._artifact(tmp_path, seed=1, tag="v2")
        state_dir = str(tmp_path / "state")
        x = np.zeros((1, 28, 28), dtype=np.float32)

        registry = ModelRegistry()
        registry.load("lenet-F2-fp32@reference")
        with start_in_background(registry, state_dir=state_dir) as handle:
            body = json.dumps({"artifact": artifact, "watch_s": 0.0}).encode()
            request = urllib.request.Request(
                handle.base_url + "/models", data=body, method="POST",
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request) as resp:
                deploy = json.loads(resp.read())
            with ServeClient(handle.base_url) as client:
                reference = client.predict(x, model=name)

        # A fresh process would boot from flags alone; the journal must
        # re-install the runtime deploy at its content-hash version.
        registry2 = ModelRegistry()
        registry2.load("lenet-F2-fp32@reference")
        with start_in_background(registry2, state_dir=state_dir) as handle:
            with ServeClient(handle.base_url) as client:
                doc = client.models()
                versions = {m["name"]: m["version"] for m in doc["models"]}
                assert versions[name] == deploy["version"]
                assert doc["journal_replay"]["deploys_restored"] == [name]
                recovered = client.predict(x, model=name)
        assert np.array_equal(reference, recovered)
        # Replay compacts: the journal holds exactly the effective state.
        assert StateJournal(state_dir).replay() == [
            {
                "event": "deploy",
                "model": name,
                "artifact": artifact,
                "version": deploy["version"],
            }
        ]

    def test_vanished_artifact_is_skipped_not_fatal(self, tmp_path):
        state_dir = str(tmp_path / "state")
        journal = StateJournal(state_dir)
        journal.append(
            {
                "event": "deploy",
                "model": NAME,
                "artifact": str(tmp_path / "gone.rpln"),
                "version": "h404",
            }
        )
        journal.close()
        registry = ModelRegistry()
        registry.add(_stub_served())
        with start_in_background(registry, state_dir=state_dir) as handle:
            with ServeClient(handle.base_url) as client:
                replay = client.models()["journal_replay"]
                assert replay["deploys_skipped"] == [NAME]
                # The boot-flag model still serves.
                out = client.predict(
                    np.zeros((1, 28, 28), dtype=np.float32), model=NAME
                )
                assert out.shape == (4,)


    def test_retired_backend_artifact_is_skipped_not_fatal(self, tmp_path):
        # A deploy journaled by an older engine, of an artifact compiled
        # for a backend this engine no longer ships: boot skips it.
        _, compiled = self._artifact(tmp_path, seed=1, tag="v2")
        plan = load_plan(compiled)
        plan.backend = "retired"
        name, artifact = "lenet-F2-fp32@retired", str(tmp_path / "retired.rpln")
        save_plan(plan, artifact, extra={"model": name})
        for lazy in (False, True):
            with pytest.raises(ArtifactFormatError, match="unknown backend"):
                load_artifact_served(artifact, lazy=lazy)
        assert cli_main(["serve", "--model", artifact]) == 2  # no traceback
        state_dir = str(tmp_path / "state")
        journal = StateJournal(state_dir)
        journal.append(
            {"event": "deploy", "model": name, "artifact": artifact,
             "version": "h-retired"}
        )
        journal.close()
        registry = ModelRegistry()
        registry.add(_stub_served())
        with start_in_background(registry, state_dir=state_dir) as handle:
            with ServeClient(handle.base_url) as client:
                replay = client.models()["journal_replay"]
                assert replay["deploys_skipped"] == [name]
                x = np.zeros((1, 28, 28), dtype=np.float32)
                assert client.predict(x, model=NAME).shape == (4,)


class TestServerBrownoutReplay:
    def test_journaled_ladder_rung_restores_and_stamps_variant(self, tmp_path):
        state_dir = str(tmp_path / "state")
        journal = StateJournal(state_dir)
        journal.append(
            {"event": "ladder", "model": NAME, "position": 1, "variant": VARIANT}
        )
        journal.close()

        registry = ModelRegistry()
        registry.add(_stub_served(name=NAME, value=1.0))
        registry.add(_stub_served(name=VARIANT, value=2.0))
        policy = SelfHealPolicy(ladders={NAME: [VARIANT]}, interval_s=30.0)
        x = np.zeros((1, 28, 28), dtype=np.float32)
        with start_in_background(
            registry, selfheal=policy, state_dir=state_dir
        ) as handle:
            with ServeClient(handle.base_url) as client:
                out = client.predict(x, model=NAME)
                # Traffic for NAME is served by the fallback's plan...
                assert np.all(out == 2.0)
                # ...and honestly labelled for clients and dashboards.
                assert (
                    client.last_response_headers.get("x-served-variant")
                    == VARIANT
                )
                snap = client.metrics()
                assert snap["selfheal"]["active_variants"] == {NAME: VARIANT}
                assert (
                    snap["selfheal"]["ladders"][NAME]["position"] == 1
                )
                health = client.healthz()
                assert any("brownout" in r for r in health["reasons"])
                text = client.metrics_text()
                assert (
                    f'repro_brownout_position{{model="{NAME}"}} 1' in text
                )
