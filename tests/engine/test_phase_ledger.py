"""The Winograd phase ledger of ``repro bench engine`` (``int8_phases``,
``fp32_phases``): every phase of each domain's runner is reached through
its kernel helper, and the ledger leaves the helpers as it found them."""

import numpy as np
import pytest

from repro.bench import WINOGRAD_PHASES, _winograd_phases
from repro.engine import kernels
from repro.engine.cache import PlanCache
from repro.serve.registry import ModelSpec, compile_served


@pytest.mark.parametrize(
    "name,domain", [("lenet-F2-fp32@fast", "float"), ("lenet-F2-int8@int8", "int8")]
)
def test_every_phase_is_timed_through_its_helper(rng, name, domain):
    plan = compile_served(ModelSpec.parse(name), cache=PlanCache()).plan
    x = rng.standard_normal((4, 1, 28, 28)).astype(np.float32)
    helpers = {h: getattr(kernels, h) for _, h in WINOGRAD_PHASES[domain]}
    report = _winograd_phases(plan, x, 2, domain)
    steps = [s for s in plan.steps if s.op == "winograd_conv2d" and s.domain == domain]
    assert report["winograd_steps"] == len(steps) > 0
    assert list(report["phases"]) == [p for p, _ in WINOGRAD_PHASES[domain]]
    assert all(entry["ms"] > 0 for entry in report["phases"].values())
    total = sum(e["ms"] for e in report["phases"].values()) + report["unattributed_ms"]
    assert total == pytest.approx(report["winograd_ms"], abs=0.01)
    assert all(getattr(kernels, h) is fn for h, fn in helpers.items())
