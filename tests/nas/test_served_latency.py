"""wiNAS's ``latency_source="served"`` hookup to the serving probe.

Kept apart from ``tests/serve``: the search layer needs SciPy, while the
serving suites run on a numpy-only install.
"""

import numpy as np
import pytest


@pytest.mark.slow
def test_winas_served_source_populates_latencies():
    from repro.models.resnet import resnet18
    from repro.nas.search_space import Candidate
    from repro.nas.winas import SearchConfig, WiNAS

    candidates = [Candidate("im2row", "fp32", False), Candidate("F4", "fp32", False)]
    plan = WiNAS.make_plan(candidates)
    model = resnet18(width_multiplier=0.125, plan=plan)
    nas = WiNAS(
        model,
        SearchConfig(latency_source="served", served_concurrency=2),
    )
    x = np.zeros((1, 3, 16, 16), dtype=np.float32)
    nas.populate_latencies(x)
    assert all(op.latencies_ms is not None for op in nas.mixed_ops)
    assert all(len(op.latencies_ms) == 2 for op in nas.mixed_ops)
    assert all((op.latencies_ms > 0).all() for op in nas.mixed_ops)


def test_unknown_latency_source_rejected():
    from repro.models.resnet import resnet18
    from repro.nas.search_space import Candidate
    from repro.nas.winas import WiNAS

    candidates = [Candidate("im2row", "fp32", False)]
    model = resnet18(width_multiplier=0.125, plan=WiNAS.make_plan(candidates))
    nas = WiNAS(model)
    with pytest.raises(ValueError, match="latency source"):
        nas.populate_latencies(
            np.zeros((1, 3, 16, 16), dtype=np.float32), source="wishful"
        )
