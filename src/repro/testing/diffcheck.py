"""One-call differential check of a generated model across engine modes.

:func:`check_model` compiles one :func:`~repro.testing.modelgen.generate_model`
output through every backend and asserts each mode's documented contract
(the same contracts the hand-written parity suites pin, applied to a
random model):

====================================  =====================================
mode                                  contract
====================================  =====================================
``reference``                         bitwise equal to the eager forward
                                      (it never splits into lanes, so
                                      threaded runs are serial runs)
``fast`` (+ threaded lanes)           fp32: within 1e-3 of the output
                                      scale (Winograd reassociation);
                                      quantized: within 1e-4 of scale OR
                                      a bounded (5%-of-scale) boundary
                                      avalanche with argmax preserved
``int8`` (quantized models)           **bit-identical** to the int64-GEMM
                                      oracle; threaded runs bit-identical
                                      to serial when the plan is fully
                                      native (tolerance when float
                                      fallback GEMM steps remain);
                                      Winograd-stem grid flips vs
                                      reference must be bin-boundary
                                      justified
uncalibrated (quantized models)       every backend refuses to compile
                                      it (``CompileError``)
every ``compile_model`` call          leaves the model's signature
                                      unchanged (compiling only reads)
``fast``/``int8`` on the arena        bitwise equal to an unplanned copy
                                      over batches of 6 → 2 → 6 rows, at
                                      threads 1 and ``threads``
====================================  =====================================

The threaded legs run on ``2 * MIN_LANE_ROWS`` rows, the smallest batch
that splits into two lanes, against a serial run of the same input.

Every assertion message carries the seed and the generated model's
description, so any corpus failure reproduces with
``generate_model(seed)`` alone.

Standalone usage (the CI quick lane runs the pytest corpus instead)::

    PYTHONPATH=src python -m repro.testing.diffcheck --seeds 0:25
"""

from __future__ import annotations

import os
import tempfile
from typing import Optional

import numpy as np

from repro.autograd import Tensor, no_grad
from repro.engine import CompileError, compile_model
from repro.engine.artifact import load_plan, save_plan
from repro.engine.cache import model_signature
from repro.engine.plan import MIN_LANE_ROWS
from repro.engine.registry import BACKENDS
from repro.quant import ensure_calibrated
from repro.testing.modelgen import GeneratedModel, generate_model
from repro.testing.oracle import int8_oracle_output, winograd_stem_flip_report


def _msg(gm: GeneratedModel, what: str) -> str:
    return f"seed={gm.seed} [{gm.description}]: {what}"


def _eager_output(gm: GeneratedModel, x: np.ndarray) -> np.ndarray:
    """Calibrate (freezes cold observers) then run the frozen forward."""
    gm.model.eval()
    ensure_calibrated(gm.model, gm.calibration_input())
    with no_grad():
        return gm.model(Tensor(x)).data


def _compile(gm: GeneratedModel, backend: str):
    """``compile_model``, asserting it wrote nothing to the model."""
    before = model_signature(gm.model)
    plan = compile_model(gm.model, backend=backend)
    assert model_signature(gm.model) == before, _msg(
        gm, f"compiling on {backend} changed the model"
    )
    return plan


def _assert_fast_tolerance(gm, got, expected, what):
    scale = max(float(np.abs(expected).max()), 1e-3)
    if gm.quantized:
        # Fake-quant snapping absorbs reassociation noise almost always —
        # but on random deep nets a value can legitimately sit close
        # enough to a bin boundary that the fast path's fused GEMMs snap
        # it the other way, and one early flip avalanches (the same
        # trade the int8 docs spell out).  Contract: numerically
        # tight, OR a bounded avalanche with decisions preserved.
        tight = bool(np.all(np.abs(got - expected) <= 1e-4 * scale + 1e-6))
        if not tight:
            drift = float(np.abs(got - expected).max())
            same = bool(np.all(
                np.asarray(got).argmax(axis=-1)
                == np.asarray(expected).argmax(axis=-1)
            ))
            assert drift <= 0.05 * scale and same, _msg(
                gm, f"{what} (drift {drift:.3g} vs scale {scale:.3g}, "
                    f"decisions preserved: {same})"
            )
    else:
        # Float path: Winograd transform reassociation (large F(6, r) /
        # r=5 tiles especially) bounds the drift relative to the output
        # scale, not absolutely.
        np.testing.assert_allclose(
            got, expected, rtol=0, atol=1e-3 * scale, err_msg=_msg(gm, what)
        )


def _roundtrip_plan(plan, x):
    """Save → mmap-load → run; returns the loaded plan's output.

    The artifact leg of the corpus: a plan that survives serialization
    must produce **bitwise identical** output when executed from its
    mmap-loaded artifact, on every backend (docs/artifact-format.md
    'Compatibility and rejection policy').
    """
    fd, path = tempfile.mkstemp(suffix=".rpln")
    os.close(fd)
    try:
        save_plan(plan, path, input_shape=x.shape)
        return load_plan(path).run(x)
    finally:
        os.unlink(path)


def check_model(seed: int, threads: int = 2) -> dict:
    """Generate the model for ``seed`` and assert every mode contract.

    Returns a small report dict (backends run, native-int8 step counts,
    Winograd-stem flip audit results) so corpus-level tests can assert
    the corpus actually exercised each dimension.
    """
    gm = generate_model(seed)
    if gm.quantized:
        cold = generate_model(seed).model  # a fresh, so uncalibrated, copy
        for backend in BACKENDS:
            try:
                compile_model(cold, backend=backend)
            except CompileError:
                pass
            else:
                raise AssertionError(_msg(gm, f"uncalibrated model compiled on {backend}"))
    x = gm.sample_input()
    x_split = gm.sample_input(batch=2 * MIN_LANE_ROWS)
    expected = _eager_output(gm, x)
    report = {
        "seed": seed,
        "description": gm.description,
        "precision": gm.precision,
        "has_winograd": gm.has_winograd,
        "stem_audit": None,
    }

    # -- reference: the bit-exactness oracle --------------------------------
    ref_plan = _compile(gm, "reference")
    reference = ref_plan.run(x)
    np.testing.assert_array_equal(
        reference, expected, err_msg=_msg(gm, "reference must match eager bitwise")
    )
    np.testing.assert_array_equal(
        _roundtrip_plan(ref_plan, x), reference,
        err_msg=_msg(gm, "artifact-loaded reference plan diverged "
                         "(save/mmap-load must be bitwise)"),
    )

    # -- fast: float-tolerance contract, stable under lanes ------------------
    fast_plan = _compile(gm, "fast")
    fast = fast_plan.run(x)
    _assert_fast_tolerance(gm, fast, expected, "fast backend out of tolerance")
    _assert_fast_tolerance(
        gm, fast_plan.run(x_split, threads=threads),
        fast_plan.run(x_split, threads=1),
        "fast threaded run out of tolerance",
    )

    # -- int8: exactness oracle + boundary-justified flips -------------------
    if gm.quantized:
        int8_plan = _compile(gm, "int8")
        native = int8_plan.run(x)
        oracle = int8_oracle_output(gm.model, x)
        np.testing.assert_array_equal(
            native, oracle,
            err_msg=_msg(gm, "int8 backend not bit-identical to int64 oracle "
                             "(float GEMM not exact — accumulator bound bug?)"),
        )
        # Integer GEMMs are exact at any blocking, so a fully native plan
        # is bit-stable under lanes; float fallback GEMM steps (e.g. an
        # unquantized head) reintroduce last-ulp blocking sensitivity, so
        # those plans get the fast-backend tolerance.
        float_gemms = [
            s for s in int8_plan.steps
            if s.op in ("conv2d", "winograd_conv2d", "linear")
            and s.domain != "int8"
        ]
        serial = int8_plan.run(x_split, threads=1)
        threaded = int8_plan.run(x_split, threads=threads)
        if not float_gemms:
            np.testing.assert_array_equal(
                threaded, serial,
                err_msg=_msg(gm, "fully-native int8 plan not bit-stable "
                                 "under threaded lanes"),
            )
        else:
            _assert_fast_tolerance(
                gm, threaded, serial,
                "int8 plan with float fallback steps out of tolerance "
                "under threaded lanes",
            )
        np.testing.assert_array_equal(
            _roundtrip_plan(int8_plan, x), native,
            err_msg=_msg(gm, "artifact-loaded int8 plan diverged "
                             "(save/mmap-load must be bitwise)"),
        )
        int8_report = int8_plan.int8_report()
        report["native_int8_steps"] = int8_report["native_int8_steps"]
        stem = next(s for s in int8_plan.steps if s.op != "transpose")
        report["native_wino_stem"] = (
            stem.op == "winograd_conv2d" and stem.domain == "int8"
        )
        report["float_fallback_gemms"] = len(float_gemms)
        audit = winograd_stem_flip_report(int8_plan, x)
        if audit is not None:
            assert audit["unjustified"] == 0, _msg(
                gm,
                f"{audit['unjustified']} of {audit['flips']} quantization-bin "
                "flips are NOT at a bin boundary (wrong multiplier/scale?)",
            )
            # Flips must also stay a minority of the stage: systematic
            # errors flip *unjustified* (hard assert above); this bound
            # only smells out a broken scale that happens to land every
            # wrong decision near a boundary.  Small-channel low-bit
            # stems legitimately reach ~10–15% ties (integer transform
            # codes × dyadic scale ratios produce exact half-integers).
            assert audit["flips"] <= 0.25 * audit["checked"], _msg(
                gm, "too many grid flips at the Winograd stem"
            )
            report["stem_audit"] = audit

    # -- arena: bound programs reused across batch sizes change no bit ------
    # (serial and in lanes, each lane on its own transient pool)
    for backend in ("fast", "int8") if gm.quantized else ("fast",):
        for lanes in sorted({1, threads}):
            planned, unplanned = (_compile(gm, backend) for _ in range(2))
            unplanned.planning = False  # binds afresh and allocates every call
            for i, batch in enumerate((x_split, x, x_split)):
                np.testing.assert_array_equal(
                    planned.run(batch, threads=lanes), unplanned.run(batch, threads=lanes),
                    err_msg=_msg(gm, f"{backend} arena run differs from unplanned, "
                                     f"batch {i}, threads {lanes}"),
                )
    return report


def main(argv: Optional[list] = None) -> int:  # pragma: no cover - CLI util
    import argparse

    parser = argparse.ArgumentParser(description="run differential corpus checks")
    parser.add_argument("--seeds", default="0:25", help="range lo:hi or one seed")
    parser.add_argument("--threads", type=int, default=2)
    args = parser.parse_args(argv)
    lo, _, hi = args.seeds.partition(":")
    seeds = range(int(lo), int(hi)) if hi else [int(lo)]
    for seed in seeds:
        report = check_model(seed, threads=args.threads)
        audited = report["stem_audit"] is not None
        print(
            f"seed {seed:4d} ok  {report['precision']:5s} "
            f"{'stem-audited ' if audited else ''}{report['description']}"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
