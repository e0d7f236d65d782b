"""ModelSpec naming and the serving registry."""

import re

import numpy as np
import pytest

from repro.cli import build_parser
from repro.engine import PlanCache
from repro.engine.registry import BACKENDS
from repro.serve.registry import ModelRegistry, ModelSpec, ServedModel


class TestModelSpec:
    def test_canonical_name_round_trips(self):
        for name in (
            "resnet18-w0.25-F4-int8",
            "lenet-F2-fp32",
            "squeezenet-w0.5-F4-flex-int10",
            "resnext20-w0.5-im2row-fp32",
            "resnet18-w0.25-F4-int8@reference",
            "resnet18-w0.25-F4-int8@int8",
        ):
            assert ModelSpec.parse(name).name == name

    def test_width_defaults_per_architecture(self):
        assert ModelSpec.parse("resnet18-F4-int8").effective_width == 0.25
        assert ModelSpec.parse("squeezenet-F4-fp32").effective_width == 0.5
        assert ModelSpec.parse("lenet-F2-fp32").effective_width is None

    def test_default_backend_is_fast(self):
        assert ModelSpec.parse("lenet-F2-fp32").backend == "fast"

    def test_sample_shape(self):
        assert ModelSpec.parse("lenet-F2-fp32").sample_shape == (1, 28, 28)
        assert ModelSpec.parse("resnet18-F4-int8").sample_shape == (3, 32, 32)

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "resnet18",
            "unknownarch-F4-int8",
            "resnet18-wabc-F4-int8",
            "lenet-F2-fp32@bogus",
        ],
    )
    def test_bad_names_rejected(self, bad):
        with pytest.raises(ValueError):
            ModelSpec.parse(bad)

    def test_unknown_backend_error_lists_backends(self):
        with pytest.raises(ValueError, match=re.escape(str(BACKENDS))):
            ModelSpec(architecture="lenet", algorithm="F2", backend="FAST")

    def test_cli_backend_choices_are_the_registry_backends(self):
        parser = build_parser()
        for backend in BACKENDS:
            assert parser.parse_args(["infer", "--backend", backend]).backend == backend
        with pytest.raises(SystemExit):
            parser.parse_args(["infer", "--backend", "bogus"])

    def test_to_dict_fields(self):
        info = ModelSpec.parse("resnet18-w0.25-F4-int8").to_dict()
        assert info["name"] == "resnet18-w0.25-F4-int8"
        assert info["sample_shape"] == [3, 32, 32]
        assert info["backend"] == "fast"


class TestModelRegistry:
    def test_load_is_idempotent_and_shares_plan_cache(self):
        cache = PlanCache()
        registry = ModelRegistry(cache=cache)
        first = registry.load("lenet-F2-fp32")
        second = registry.load("lenet-F2-fp32")
        assert first is second
        assert len(registry) == 1
        assert len(cache) == 1

    def test_variants_live_side_by_side(self):
        registry = ModelRegistry(cache=PlanCache())
        fast = registry.load("lenet-F2-fp32")
        ref = registry.load("lenet-F2-fp32@reference")
        assert fast is not ref
        assert set(registry.names()) == {"lenet-F2-fp32", "lenet-F2-fp32@reference"}
        assert fast.plan.backend == "fast"
        assert ref.plan.backend == "reference"

    def test_unknown_model_raises_keyerror_naming_loaded(self):
        registry = ModelRegistry(cache=PlanCache())
        registry.load("lenet-F2-fp32")
        with pytest.raises(KeyError, match="lenet-F2-fp32"):
            registry.get("resnet18-w0.25-F4-int8")

    def test_loaded_plan_is_calibrated_and_deterministic(self):
        """Two independent registries of the same int8 spec serve
        identical outputs: the calibration pass fixes observer ranges."""
        x = np.random.default_rng(7).standard_normal((1, 1, 28, 28)).astype(
            np.float32
        )
        outs = []
        for _ in range(2):
            registry = ModelRegistry(cache=PlanCache())
            served = registry.load("lenet-F2-int8")
            outs.append(served.plan.run(x))
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_validate_input_accepts_chw_and_nchw(self):
        registry = ModelRegistry(cache=PlanCache())
        served = registry.load("lenet-F2-fp32")
        chw = np.zeros((1, 28, 28), dtype=np.float32)
        assert served.validate_input(chw).shape == (1, 1, 28, 28)
        assert served.validate_input(chw[None]).shape == (1, 1, 28, 28)
        with pytest.raises(ValueError):
            served.validate_input(np.zeros((3, 28, 28), dtype=np.float32))
        with pytest.raises(ValueError):
            served.validate_input(np.zeros((2, 1, 28, 28), dtype=np.float32))

    def test_add_custom_served_model(self):
        class StubPlan:
            backend = "fast"

            def run(self, x, threads=None, trace=None):
                return x.sum(axis=(1, 2, 3), keepdims=False)[:, None]

        registry = ModelRegistry(cache=PlanCache())
        spec = ModelSpec.parse("lenet-F2-fp32")
        registry.add(ServedModel(spec=spec, plan=StubPlan(), sample_shape=(1, 28, 28)))
        assert "lenet-F2-fp32" in registry
        assert registry.get("lenet-F2-fp32").plan.run(
            np.ones((2, 1, 28, 28), dtype=np.float32)
        ).shape == (2, 1)
