"""Splitting the batch into lanes must be invisible in the results.

Every lowered op computes batch rows independently, so running the step
sequence on row ranges (``plan.run(x, threads=N)`` does this on batches
of at least ``2 * MIN_LANE_ROWS`` rows) preserves per-sample results.
The ``fast`` backend's large fused GEMMs are row-independent only up to
BLAS blocking (a different M can round differently at the last ulp), so
there the contract is float tolerance.  The ``reference`` backend, the
bit-exactness oracle, never splits.
"""

import numpy as np

from repro.engine import compile_model
from repro.models.common import ConvSpec
from repro.models.lenet import lenet
from repro.models.resnet import resnet18
from repro.obs.trace import TraceBuffer
from repro.quant import ensure_calibrated
from repro.quant.qconfig import fp32, int8


def _lanes(plan, x, threads):
    buf = TraceBuffer()
    out = plan.run(x, threads=threads, trace=buf)
    (root,) = [s for s in buf.snapshot() if s.name == "plan_run"]
    return out, root.attrs["lanes"]


def test_chunked_equals_unchunked_fast_float(rng):
    model = resnet18(width_multiplier=0.125, spec=ConvSpec("F4", fp32()))
    model.eval()
    plan = compile_model(model, backend="fast")
    x = rng.standard_normal((8, 3, 32, 32)).astype(np.float32)
    plan.run(x[:1])

    unchunked = plan.run(x, threads=1)
    chunked, lanes = _lanes(plan, x, threads=2)
    assert lanes == 2
    np.testing.assert_allclose(chunked, unchunked, rtol=1e-4, atol=1e-4)


def test_batch_composition_is_invisible_reference(rng):
    """run([a;b]) sliced == run(a) ++ run(b) on the reference backend:
    the guarantee the dynamic batcher relies on for bit-identical
    single-sample responses."""
    model = lenet(spec=ConvSpec("F2", int8()))
    model.eval()
    x = rng.standard_normal((6, 1, 28, 28)).astype(np.float32)
    ensure_calibrated(model, x[:1])
    plan = compile_model(model, backend="reference")
    full = plan.run(x)
    singles = np.concatenate([plan.run(x[i : i + 1]) for i in range(6)], axis=0)
    np.testing.assert_array_equal(full, singles)
