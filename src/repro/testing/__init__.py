"""Randomized differential-testing support.

The engine now exposes a product of execution modes — ``reference`` /
``fast`` / ``int8`` backends × thread counts (batch lanes) × arena
planning — and hand-written parity tests cannot cover
that space.  This package generates *seeded random models* spanning the
paper's search dimensions (conv algorithm F(m, r) vs im2row, widths,
precisions, residual/concat topologies) and checks every mode against
its documented contract:

* :mod:`repro.testing.modelgen` — the seeded model generator;
* :mod:`repro.testing.oracle` — the exact int64-GEMM oracle (shared
  with the PR 3 int8-backend tests) and the bin-boundary justification
  check for quantization-grid flips;
* :mod:`repro.testing.diffcheck` — one entry point,
  :func:`~repro.testing.diffcheck.check_model`, that runs a generated
  model through all backend × threads combinations and
  asserts each equivalence, with the seed in every failure message.

Used by ``tests/engine/test_differential_fuzz.py`` (fixed 25-case
corpus in tier-1, a larger corpus under ``-m slow``) and runnable
standalone: ``python -m repro.testing.diffcheck --seeds 0:25``.
"""

from repro.testing.diffcheck import check_model
from repro.testing.modelgen import GeneratedModel, generate_model
from repro.testing.oracle import exact_int64_matmul, int8_oracle_output

__all__ = [
    "GeneratedModel",
    "check_model",
    "exact_int64_matmul",
    "generate_model",
    "int8_oracle_output",
]
