"""Batch lanes: ``plan.run(x, threads=N)`` cuts the batch once into row
ranges and runs every step on each range as a lane.

Contract:

* **Reference bit-identity** — the ``reference`` backend never splits,
  so threaded execution is the serial run on every parity model.
* **Integer exactness** — native ``int8`` steps are exact at any GEMM
  blocking, so split int8 execution is bit-identical to serial too.
* **Small batches stay whole** — fewer than ``2 * MIN_LANE_ROWS`` rows
  run as one lane.
* **Concurrency safety** — many threads hammering one shared plan (each
  lane checking an arena out of the pool) all get the right answer.
"""

import sys
import threading

import numpy as np
import pytest

from repro.autograd import Tensor, no_grad
from repro.engine import compile_model
from repro.engine.plan import MIN_LANE_ROWS
from repro.engine.pool import configure_threads, default_threads, resolve_threads
from repro.obs.trace import TraceBuffer
from repro.models.common import ConvSpec
from repro.models.lenet import lenet
from repro.models.resnet import resnet18
from repro.models.resnext import resnext20
from repro.models.squeezenet import squeezenet
from repro.quant.qconfig import fp32, int8


def _parity_models(rng):
    return [
        ("lenet-F2-fp32", lenet(spec=ConvSpec("F2")),
         rng.standard_normal((8, 1, 28, 28)).astype(np.float32)),
        ("lenet-F2-int8", lenet(spec=ConvSpec("F2", int8())),
         rng.standard_normal((8, 1, 28, 28)).astype(np.float32)),
        ("resnet-F4-fp32", resnet18(width_multiplier=0.125, spec=ConvSpec("F4")),
         rng.standard_normal((8, 3, 32, 32)).astype(np.float32)),
        ("resnet-F4-int8", resnet18(width_multiplier=0.125, spec=ConvSpec("F4", int8())),
         rng.standard_normal((8, 3, 32, 32)).astype(np.float32)),
        ("squeezenet-F2-int8", squeezenet(width_multiplier=0.25, spec=ConvSpec("F2", int8())),
         rng.standard_normal((8, 3, 32, 32)).astype(np.float32)),
        ("resnext-F2-fp32", resnext20(width_multiplier=0.5, spec=ConvSpec("F2")),
         rng.standard_normal((4, 3, 32, 32)).astype(np.float32)),
    ]


def _calibrated(model, x):
    model.eval()
    with no_grad():
        model(Tensor(x))
    return model


class TestReferenceBitIdentity:
    def test_threaded_equals_serial_on_parity_models(self, rng):
        """The acceptance gate: serial vs threaded reference execution is
        bit-identical on every parity model, fp32 and int8 alike."""
        for name, model, x in _parity_models(rng):
            _calibrated(model, x)
            plan = compile_model(model, backend="reference")
            serial = plan.run(x, threads=1)
            for threads in (2, 4):
                threaded = plan.run(x, threads=threads)
                np.testing.assert_array_equal(
                    threaded, serial, err_msg=f"{name}: threads={threads}"
                )


class TestInt8Exactness:
    def test_threaded_int8_bit_identical(self, rng):
        """Integer GEMMs are exact at any blocking, so splitting the
        batch into lanes cannot move a single bit of native int8 steps."""
        x = rng.standard_normal((8, 3, 32, 32)).astype(np.float32)
        model = _calibrated(
            resnet18(width_multiplier=0.125, spec=ConvSpec("F4", int8())), x
        )
        plan = compile_model(model, backend="int8")
        serial = plan.run(x, threads=1)
        np.testing.assert_array_equal(plan.run(x, threads=4), serial)


class TestFastTolerance:
    def test_threaded_fast_within_float_tolerance(self, rng):
        """fast-backend GEMMs may round differently for a lane's row
        count; the contract there is float tolerance."""
        x = rng.standard_normal((8, 3, 32, 32)).astype(np.float32)
        model = _calibrated(resnet18(width_multiplier=0.125, spec=ConvSpec("F4")), x)
        plan = compile_model(model, backend="fast")
        serial = plan.run(x, threads=1)
        np.testing.assert_allclose(
            plan.run(x, threads=4), serial, rtol=1e-4, atol=1e-4
        )


class TestConcurrency:
    def test_thread_hammer_concurrent_runs_with_arena(self, rng):
        """Many threads × many runs on one shared plan: every run checks
        its own arena out of the pool, so results must match the serial
        answer bit for bit (fast backend, planned execution)."""
        x = rng.standard_normal((4, 1, 28, 28)).astype(np.float32)
        model = _calibrated(lenet(spec=ConvSpec("F2", int8())), x)
        plan = compile_model(model, backend="fast")
        expected = plan.run(x)
        errors = []

        def hammer():
            try:
                for _ in range(10):
                    np.testing.assert_array_equal(plan.run(x), expected)
            except Exception as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        workers = [threading.Thread(target=hammer) for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert not errors, errors
        report = plan.memory_report()
        assert report["arenas_built"] >= 1
        assert report["shape_misses"] == 0

    def test_thread_hammer_split_runs_int8(self, rng):
        """The ``repro serve --threads 2`` shape: several dispatch threads
        each running split batches of one shared int8 plan.  Every lane
        checks its own arena out, so each result is serial's bits, and
        once warm no run allocates or misses a planned shape."""
        x = rng.standard_normal((8, 3, 32, 32)).astype(np.float32)
        model = _calibrated(
            resnet18(width_multiplier=0.125, spec=ConvSpec("F4", int8())), x
        )
        plan = compile_model(model, backend="int8")
        expected = plan.run(x, threads=1)
        errors = []

        def hammer():
            try:
                for _ in range(10):
                    np.testing.assert_array_equal(plan.run(x, threads=2), expected)
            except Exception as exc:  # noqa: BLE001 — surfaced below
                errors.append(exc)

        workers = [threading.Thread(target=hammer) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the lanes as often as possible
        try:
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert not errors, errors
        # Every pooled arena has now served a lane at this shape.
        np.testing.assert_array_equal(plan.run(x, threads=2), expected)
        report = plan.memory_report()
        assert report["steady_state_allocations"] == 0
        assert report["shape_misses"] == 0

    def test_small_batch_runs_unsplit(self, rng):
        x = rng.standard_normal((2 * MIN_LANE_ROWS - 1, 1, 28, 28)).astype(np.float32)
        model = _calibrated(lenet(spec=ConvSpec("F2", int8())), x)
        plan = compile_model(model, backend="int8")
        buf = TraceBuffer()
        plan.run(x, threads=2, trace=buf)
        spans = buf.snapshot()
        (root,) = [s for s in spans if s.name == "plan_run"]
        assert root.attrs["lanes"] == 1
        assert not [s for s in spans if "chunk_index" in s.attrs]
        buf.clear()
        plan.run(np.concatenate([x, x[:1]]), threads=2, trace=buf)
        (root,) = [s for s in buf.snapshot() if s.name == "plan_run"]
        assert root.attrs["lanes"] == 2

    def test_worker_error_propagates(self, rng):
        x = rng.standard_normal((8, 1, 28, 28)).astype(np.float32)
        model = _calibrated(lenet(spec=ConvSpec("F2")), x)
        plan = compile_model(model, backend="fast")
        # Broken before the plan's first run, so the split run must bind
        # (and call) the raising kernel in every lane, whatever the
        # REPRO_THREADS default.
        plan.steps[0].fn = lambda inputs, attrs: (_ for _ in ()).throw(RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            plan.run(x, threads=4)


class TestThreadResolution:
    def test_env_var_and_override(self, monkeypatch):
        monkeypatch.delenv("REPRO_THREADS", raising=False)
        assert default_threads() == 1
        monkeypatch.setenv("REPRO_THREADS", "3")
        assert default_threads() == 3
        assert resolve_threads(None) == 3
        assert resolve_threads(2) == 2
        monkeypatch.setenv("REPRO_THREADS", "auto")
        assert default_threads() >= 1
        monkeypatch.setenv("REPRO_THREADS", "not-a-number")
        assert default_threads() == 1
        configure_threads(5)
        try:
            assert default_threads() == 5
        finally:
            configure_threads(None)

    def test_zero_means_all_cores(self):
        import os

        assert resolve_threads(0) == (os.cpu_count() or 1)

    def test_plan_attribute_is_the_default(self, rng, monkeypatch):
        """plan.threads feeds run() when no per-call override is given —
        observable through the run splitting into lanes."""
        x = rng.standard_normal((8, 1, 28, 28)).astype(np.float32)
        model = _calibrated(lenet(spec=ConvSpec("F2")), x)
        plan = compile_model(model, backend="fast")
        serial = plan.run(x, threads=1)
        plan.threads = 4
        buf = TraceBuffer()
        np.testing.assert_allclose(plan.run(x, trace=buf), serial, rtol=1e-4, atol=1e-4)
        (root,) = [s for s in buf.snapshot() if s.name == "plan_run"]
        assert root.attrs["lanes"] == 2
