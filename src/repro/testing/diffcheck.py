"""One-call differential check of a generated model across engine modes.

:func:`check_model` compiles one :func:`~repro.testing.modelgen.generate_model`
output through every backend and asserts each mode's documented contract
(the same contracts the hand-written parity suites pin, applied to a
random model):

====================================  =====================================
mode                                  contract
====================================  =====================================
``reference``                         bitwise equal to the eager forward
``reference`` chunked / threaded      bitwise equal to serial unchunked
                                      (by construction: the oracle
                                      backend never splits GEMM steps)
``fast`` (+ chunked × threaded)       fp32: within 1e-3 of the output
                                      scale (Winograd reassociation);
                                      quantized: within 1e-4 of scale OR
                                      a bounded (5%-of-scale) boundary
                                      avalanche with argmax preserved
``int8`` (quantized models)           **bit-identical** to the int64-GEMM
                                      oracle; threaded/chunked runs
                                      bit-identical when the plan is
                                      fully native (tolerance when float
                                      fallback GEMM steps remain);
                                      Winograd-stem grid flips vs
                                      reference must be bin-boundary
                                      justified
====================================  =====================================

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
from repro.engine import compile_model
from repro.engine.artifact import load_plan, save_plan
from repro.testing.modelgen import GeneratedModel, generate_model
from repro.testing.oracle import int8_oracle_output, winograd_stem_flip_report

#: chunk_bytes small enough to chunk essentially every step of the tiny
#: corpus models (mirrors test_chunked_execution's "absurdly small").
TINY_CHUNK = 1 << 10


def _msg(gm: GeneratedModel, what: str) -> str:
    return f"seed={gm.seed} [{gm.description}]: {what}"


def _eager_output(gm: GeneratedModel, x: np.ndarray) -> np.ndarray:
    """Calibrate (freezes cold observers) then run the frozen forward."""
    gm.model.eval()
    with no_grad():
        gm.model(Tensor(gm.calibration_input()))
        return gm.model(Tensor(x)).data


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
    x = gm.sample_input()
    expected = _eager_output(gm, x)
    report = {
        "seed": seed,
        "description": gm.description,
        "precision": gm.precision,
        "has_winograd": gm.has_winograd,
        "stem_audit": None,
    }

    # -- reference: the bit-exactness oracle --------------------------------
    ref_plan = compile_model(gm.model, backend="reference")
    reference = ref_plan.run(x)
    np.testing.assert_array_equal(
        reference, expected, err_msg=_msg(gm, "reference must match eager bitwise")
    )
    ref_plan.chunk_bytes = TINY_CHUNK
    np.testing.assert_array_equal(
        ref_plan.run(x), reference,
        err_msg=_msg(gm, "reference chunked run diverged (must be bitwise)"),
    )
    np.testing.assert_array_equal(
        ref_plan.run(x, threads=threads), reference,
        err_msg=_msg(gm, "reference threaded run diverged (must be bitwise)"),
    )
    np.testing.assert_array_equal(
        _roundtrip_plan(ref_plan, x), reference,
        err_msg=_msg(gm, "artifact-loaded reference plan diverged "
                         "(save/mmap-load must be bitwise)"),
    )

    # -- fast: float-tolerance contract, stable under chunk × threads --------
    fast_plan = compile_model(gm.model, backend="fast")
    fast = fast_plan.run(x)
    _assert_fast_tolerance(gm, fast, expected, "fast backend out of tolerance")
    fast_plan.chunk_bytes = TINY_CHUNK
    _assert_fast_tolerance(
        gm, fast_plan.run(x, threads=threads), expected,
        "fast chunked+threaded run out of tolerance",
    )

    # -- int8: exactness oracle + boundary-justified flips -------------------
    if gm.quantized:
        int8_plan = compile_model(gm.model, backend="int8")
        native = int8_plan.run(x)
        oracle = int8_oracle_output(gm.model, x)
        np.testing.assert_array_equal(
            native, oracle,
            err_msg=_msg(gm, "int8 backend not bit-identical to int64 oracle "
                             "(float GEMM not exact — accumulator bound bug?)"),
        )
        # Integer GEMMs are exact at any blocking, so a fully native plan
        # is bit-stable under threads and chunking; float fallback GEMM
        # steps (e.g. an unquantized head) reintroduce last-ulp blocking
        # sensitivity, so those plans get the fast-backend tolerance.
        float_gemms = [
            s for s in int8_plan.steps
            if s.op in ("conv2d", "winograd_conv2d", "linear")
            and s.domain != "int8"
        ]
        int8_plan.chunk_bytes = TINY_CHUNK
        reran = int8_plan.run(x, threads=threads)
        if not float_gemms:
            np.testing.assert_array_equal(
                reran, native,
                err_msg=_msg(gm, "fully-native int8 plan not bit-stable "
                                 "under chunked+threaded execution"),
            )
        else:
            _assert_fast_tolerance(
                gm, reran, native,
                "int8 plan with float fallback steps out of tolerance "
                "under chunked+threaded execution",
            )
        np.testing.assert_array_equal(
            _roundtrip_plan(int8_plan, x), native,
            err_msg=_msg(gm, "artifact-loaded int8 plan diverged "
                             "(save/mmap-load must be bitwise)"),
        )
        int8_report = int8_plan.int8_report()
        report["native_int8_steps"] = int8_report["native_int8_steps"]
        report["per_tap_steps"] = int8_report["per_tap_steps"]
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
