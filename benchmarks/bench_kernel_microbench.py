"""Kernel micro-benchmarks: real wall-clock of the NumPy compute kernels.

Not a paper table — this measures *this implementation's* kernels with
pytest-benchmark statistics, documenting that the Winograd algorithm's
multiplication savings are real in the reference kernels too (the GEMM
formulation does t²·K·C·P MACs vs 9·C·K·W² for im2row).

The ``engine-vs-eager`` group compares the compiled inference engine
(:mod:`repro.engine`) against the eager autograd forward on batched
smoke models, and persists the speedup summary to ``BENCH_engine.json``
at the repo root so the perf trajectory is tracked across PRs.
"""

import pathlib

import numpy as np
import pytest

from repro.winograd.functional import direct_conv2d, winograd_conv2d
from repro.winograd.transforms import get_transform

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, 64, 32, 32)).astype(np.float32)
    w = rng.standard_normal((64, 64, 3, 3)).astype(np.float32)
    return x, w


def test_kernel_direct_conv(benchmark, workload):
    x, w = workload
    result = benchmark(direct_conv2d, x, w, padding=1)
    assert result.shape == (1, 64, 32, 32)


@pytest.mark.parametrize("m", [2, 4, 6])
def test_kernel_winograd(benchmark, workload, m):
    x, w = workload
    tr = get_transform(m, 3, dtype=np.float32)
    result = benchmark(winograd_conv2d, x, w, tr, padding=1)
    assert result.shape == (1, 64, 32, 32)


def test_kernel_winograd_layer_forward(benchmark, workload):
    from repro.autograd import Tensor
    from repro.autograd.function import no_grad
    from repro.winograd.layer import WinogradConv2d

    x, w = workload
    layer = WinogradConv2d(64, 64, 3, m=4, bias=False)
    layer.weight.data = w
    layer.eval()
    with no_grad():
        result = benchmark(layer, Tensor(x))
    assert result.shape == (1, 64, 32, 32)


# ---------------------------------------------------------------------------
# Compiled engine vs eager forward
# ---------------------------------------------------------------------------


def _engine_workloads():
    """The smoke models the engine-vs-eager comparison covers."""
    from repro.bench import _engine_workloads as build

    return build(seed=0)


@pytest.fixture(scope="module")
def engine_workloads():
    from repro.quant import ensure_calibrated

    workloads = _engine_workloads()
    for model, x in workloads.values():
        model.eval()
        ensure_calibrated(model, x)
    return workloads


@pytest.mark.parametrize("name", ["lenet-F2", "resnet18-w0.25-F4", "resnet18-w0.25-F4-int8"])
def test_engine_compiled_forward(benchmark, engine_workloads, name):
    from repro.engine import compile_model

    model, x = engine_workloads[name]
    plan = compile_model(model, backend="fast")
    result = benchmark(plan.run, x)
    assert result.shape[0] == x.shape[0]


@pytest.mark.parametrize("name", ["resnet18-w0.25-F4"])
def test_eager_forward(benchmark, engine_workloads, name):
    from repro.autograd import Tensor, no_grad

    model, x = engine_workloads[name]

    def eager():
        with no_grad():
            return model(Tensor(x))

    result = benchmark(eager)
    assert result.shape[0] == x.shape[0]


@pytest.mark.parametrize("name", ["resnet18-w0.25-F4-int8"])
def test_engine_int8_backend_forward(benchmark, engine_workloads, name):
    from repro.engine import compile_model

    model, x = engine_workloads[name]
    plan = compile_model(model, backend="int8")
    result = benchmark(plan.run, x)
    assert result.shape[0] == x.shape[0]


def test_bench_engine_vs_eager(benchmark, engine_workloads):
    """Engine-vs-eager speedups, persisted to BENCH_engine.json.

    The report's gates (engine vs eager, the int8 anomaly, native int8
    vs int8-on-fast) are rows of the regression guard's rule table,
    ``benchmarks/check_bench_regression.py``, which CI runs on this
    report right after the benchmark.  See repro.bench for the
    measurement itself, shared with the ``repro bench engine`` CLI.
    """
    from repro.bench import run_engine_benchmark
    from repro.engine import compile_model

    run_engine_benchmark(out_path=str(REPO_ROOT / "BENCH_engine.json"))
    model, x = engine_workloads["resnet18-w0.25-F4"]
    plan = compile_model(model, backend="fast")
    benchmark(plan.run, x)
