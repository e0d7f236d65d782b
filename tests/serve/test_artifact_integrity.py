"""Worker-mode serving refuses a modified plan artifact.

The front-end of ``repro serve --workers N`` never maps an artifact's
tensors and its workers load with ``verify=False``, so the content hash
is checked once, in :func:`load_artifact_served`, before any worker maps
the file.  A single flipped tensor byte must therefore be refused with
a typed error on all three paths into the pool: boot registration,
``POST /models`` (HTTP 400 "bad artifact") and journal replay.
"""

import json
import os
import subprocess
import sys
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.engine.artifact import (
    ArtifactCorruptError,
    read_manifest,
    save_plan,
)
from repro.engine.cache import PlanCache
from repro.serve import ModelRegistry, ServeClient, start_in_background
from repro.serve.registry import ModelSpec, compile_served, load_artifact_served
from repro.serve.selfheal import StateJournal

VARIANT = "lenet-F2-fp32@reference"

pytestmark = pytest.mark.skipif(
    sys.platform == "win32" or not hasattr(os, "register_at_fork"),
    reason="fork-based workers are POSIX-only",
)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """A good LeNet artifact and a copy with one tensor byte flipped."""
    tmp = tmp_path_factory.mktemp("integrity")
    spec = ModelSpec.parse(VARIANT)
    served = compile_served(spec, cache=PlanCache())
    good = str(tmp / "good.rpln")
    save_plan(
        served.plan, good, input_shape=(1,) + spec.sample_shape,
        extra={"model": spec.name, "seed": spec.seed},
    )
    tensor = read_manifest(good)["tensors"][0]
    data = bytearray(Path(good).read_bytes())
    data[tensor["offset"] + tensor["nbytes"] // 2] ^= 0x01
    bad = str(tmp / "bad.rpln")
    Path(bad).write_bytes(bytes(data))
    return good, bad


@pytest.mark.parametrize("lazy", [False, True])
def test_load_artifact_served_checks_hash_in_both_modes(artifacts, lazy):
    good, bad = artifacts
    assert load_artifact_served(good, lazy=lazy).version
    with pytest.raises(ArtifactCorruptError, match="content hash mismatch"):
        load_artifact_served(bad, lazy=lazy)


def test_worker_boot_refuses_corrupt_artifact(artifacts):
    _, bad = artifacts
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    env.pop("REPRO_CHAOS", None)
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", "serve", "--model", bad,
         "--workers", "1", "--port", "0"],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert result.returncode == 2, result.stdout + result.stderr
    assert "content hash mismatch" in result.stderr
    assert "serving on" not in result.stdout


def test_worker_mode_deploy_refuses_corrupt_artifact(artifacts):
    _, bad = artifacts
    registry = ModelRegistry(lazy=True)
    registry.load(VARIANT)
    with start_in_background(registry, workers=1) as handle:
        with ServeClient(handle.base_url) as client:
            before = client.models()["models"]
        request = urllib.request.Request(
            handle.base_url + "/models",
            data=json.dumps({"artifact": bad}).encode(),
            method="POST", headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request)
        assert info.value.code == 400
        body = info.value.read().decode()
        assert "bad artifact" in body and "content hash mismatch" in body
        with ServeClient(handle.base_url) as client:
            assert client.models()["models"] == before


def test_worker_mode_journal_replay_skips_corrupt_artifact(
    artifacts, tmp_path
):
    _, bad = artifacts
    state_dir = str(tmp_path / "state")
    journal = StateJournal(state_dir)
    journal.append(
        {"event": "deploy", "model": VARIANT, "artifact": bad,
         "version": "h-corrupt"}
    )
    journal.close()
    registry = ModelRegistry(lazy=True)
    registry.load(VARIANT)
    with start_in_background(
        registry, workers=1, state_dir=state_dir
    ) as handle:
        with ServeClient(handle.base_url) as client:
            replay = client.models()["journal_replay"]
            assert replay["deploys_skipped"] == [VARIANT]
            x = np.zeros((1, 28, 28), dtype=np.float32)
            assert client.predict(x, model=VARIANT).shape == (10,)
