"""Randomized differential testing across the engine's execution modes.

ISSUE 5's hardening harness: seeded random models (conv/linear/pool/BN/
ReLU DAGs over widths, F(m, r) tile sizes and precisions — see
:mod:`repro.testing.modelgen`) are pushed through every backend ×
threads × chunking combination and each mode's documented contract is
asserted (:mod:`repro.testing.diffcheck`):

* ``reference`` must equal the eager forward **bitwise**, and stay
  bitwise under batch chunking and the thread scheduler;
* ``fast`` must stay within its documented float/grid tolerances;
* ``int8`` outputs must be bit-identical to the exact int64-GEMM oracle
  (PR 3's exactness contract), bit-stable under threads/chunking when
  fully native, and any quantization-bin flip at an auditable Winograd
  stem must be bin-boundary-justified.

The tier-1 corpus is the **fixed** seed range 0..24 — no randomness at
collection time, so a CI failure reproduces locally from the seed in the
test id (``python -m repro.testing.diffcheck --seeds N`` re-runs one).
A larger corpus runs under ``-m slow``.

This corpus has already caught three real ulp-level engine bugs during
its construction: the reference ``avg_pool``/``max_pool`` kernels
reducing strided views in a different order (and layout) than eager, and
the reference backend cache-chunking GEMM steps whose BLAS blocking
depends on the batch extent.
"""

import pytest

from repro.testing.diffcheck import check_model
from repro.testing.modelgen import PRECISIONS, generate_model

TIER1_SEEDS = list(range(25))
SLOW_SEEDS = list(range(25, 150))


@pytest.mark.parametrize("seed", TIER1_SEEDS)
def test_differential_corpus(seed):
    check_model(seed)


@pytest.mark.slow
@pytest.mark.parametrize("seed", SLOW_SEEDS)
def test_differential_corpus_extended(seed):
    check_model(seed)


def test_generator_is_deterministic():
    a, b = generate_model(7), generate_model(7)
    assert a.description == b.description
    assert a.input_shape == b.input_shape
    import numpy as np

    for (na, pa), (nb, pb) in zip(
        a.model.named_parameters(), b.model.named_parameters()
    ):
        assert na == nb
        np.testing.assert_array_equal(pa.data, pb.data)
    np.testing.assert_array_equal(a.sample_input(), b.sample_input())


def test_corpus_covers_every_dimension():
    """The fixed tier-1 corpus must actually exercise each axis of the
    mode product — precisions, Winograd layers, quantized Winograd stems
    (the configuration the bin-boundary audit reaches), native int8
    execution, and per-tap grids (pinned only by int64-oracle
    exactness) — otherwise a green run proves much less than it claims."""
    reports = [check_model(seed) for seed in TIER1_SEEDS]
    seen_precisions = {r["precision"] for r in reports}
    assert seen_precisions == set(PRECISIONS)
    assert sum(1 for r in reports if r["has_winograd"]) >= 10
    audited = [r for r in reports if r["stem_audit"] is not None]
    assert len(audited) >= 4, "too few quantized-Winograd-stem audits in corpus"
    assert sum(r.get("native_int8_steps", 0) for r in reports) >= 20
    per_tap = [r["seed"] for r in reports if r.get("per_tap_steps")]
    assert len(per_tap) >= 4, f"too few per-tap int8 plans in corpus: {per_tap}"
