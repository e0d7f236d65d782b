"""The engine/serving import boundary (docs/architecture.md, "Layers").

``repro compile`` and ``repro serve`` need only the engine, the serving
stack and NumPy.  A fresh interpreter refuses every layer above the
engine (and SciPy) through a ``sys.meta_path`` finder, then parses the
CLI, imports ``repro.serve``, compiles a native int8 plan, round-trips
it through an artifact and runs it.  Any import across the boundary
fails the script; the test also checks none of the refused modules is
loaded by the end.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REFUSED = (
    "scipy",
    "repro.nas",
    "repro.data",
    "repro.hardware",
    "repro.experiments",
    "repro.training",
    "repro.paperdata",
)

_SCRIPT = r"""
import json, os, sys, tempfile

REFUSED = tuple(json.loads(sys.argv[1]))


def _refused(name):
    return any(name == top or name.startswith(top + ".") for top in REFUSED)


class _RefuseAboveEngine:
    def find_spec(self, name, path=None, target=None):
        if _refused(name):
            raise ModuleNotFoundError(f"{name} is above the engine boundary", name=name)
        return None


sys.meta_path.insert(0, _RefuseAboveEngine())

import numpy as np

from repro.cli import build_parser

build_parser()
import repro.serve
from repro.engine.artifact import load_plan, save_plan
from repro.serve.registry import ModelSpec, compile_served

served = compile_served(ModelSpec.parse("lenet-F2-int8@int8"))
x = np.random.default_rng(7).standard_normal((2,) + served.sample_shape).astype(np.float32)
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "lenet.rpln")
    save_plan(served.plan, path, input_shape=(1,) + served.sample_shape)
    loaded = load_plan(path)
expected = served.plan.run(x)
got = loaded.run(x)
print(json.dumps({
    "bitwise_equal": bool(expected.tobytes() == got.tobytes()),
    "loaded": sorted(m for m in sys.modules if _refused(m)),
}))
"""


def test_serving_path_imports_nothing_above_the_engine():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    env.setdefault("REPRO_THREADS", "1")
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, json.dumps(REFUSED)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["loaded"] == []
    assert report["bitwise_equal"]
