"""The process tree of a real ``repro serve --workers 2``.

Slot rings are anonymous mappings inherited through fork, so a served
tree is exactly the front-end plus its workers: no resource-tracker
process, and no ``psm_*`` name in ``/dev/shm`` — not while serving, not
after a worker is killed and respawned, and not after the whole process
group is SIGKILLed.  Replies stay bitwise equal to the in-process plan
across the respawn, and every process reports its own peak RSS.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.serve import ModelRegistry, ServeClient

MODEL = "lenet-F2-fp32@reference"

pytestmark = pytest.mark.skipif(
    not (os.path.isdir("/proc/self") and os.path.isdir("/dev/shm")
         and hasattr(os, "register_at_fork")),
    reason="needs Linux /proc, /dev/shm and fork-based workers",
)


def _psm_names():
    return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}


def _descendants(pid):
    parents = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        parents[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    found, frontier = [], [pid]
    while frontier:
        parent = frontier.pop()
        kids = [p for p, pp in parents.items() if pp == parent]
        found += kids
        frontier += kids
    return sorted(found)


def _cmdline(pid):
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode(errors="replace")
    except OSError:
        return ""


def _spawn(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    env.setdefault("REPRO_THREADS", "1")
    env.pop("REPRO_CHAOS", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", *args, "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env, start_new_session=True,
    )
    lines = []
    reader = threading.Thread(
        target=lambda: lines.extend(line.rstrip("\n") for line in proc.stdout),
        daemon=True,
    )
    reader.start()
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline:
        for line in list(lines):
            if "serving on http://" in line:
                return proc, line.split("serving on ", 1)[1].split()[0]
        if proc.poll() is not None:
            raise AssertionError(
                f"serve exited early ({proc.returncode}):\n" + "\n".join(lines)
            )
        time.sleep(0.05)
    raise AssertionError("never saw 'serving on http://' banner")


def _worker_pids(client):
    pool = client.metrics()["worker_pool"]
    return sorted(w["pid"] for w in pool["per_worker"] if w["alive"])


def _assert_tree(server_pid, worker_pids):
    tree = _descendants(server_pid)
    assert tree == worker_pids, [(p, _cmdline(p)) for p in tree]
    assert not any("resource_tracker" in _cmdline(p) for p in tree)


def test_tree_is_frontend_plus_workers_and_leaves_no_shm_names():
    oracle = ModelRegistry().load(MODEL).plan
    xs = np.random.default_rng(3).standard_normal((4, 1, 28, 28)).astype(
        np.float32
    )
    before = _psm_names()
    proc, base_url = _spawn(["--model", MODEL, "--workers", "2"])
    try:
        with ServeClient(base_url, timeout=60.0) as client:
            for x in xs:
                assert np.array_equal(
                    client.predict(x, model=MODEL), oracle.run(x[None])[0]
                )
            pids = _worker_pids(client)
            assert len(pids) == 2
            _assert_tree(proc.pid, pids)
            assert _psm_names() <= before

            # Every process of the tree reports its own peak RSS.
            metrics = client.metrics()
            assert metrics["rss_peak_mb"] > 0
            per_worker = metrics["worker_pool"]["per_worker"]
            assert all(w["rss_peak_mb"] > 0 for w in per_worker)
            text = client.metrics_text()
            assert "repro_rss_peak_mb " in text
            for w in per_worker:
                assert f'repro_worker_rss_peak_mb{{worker="{w["worker"]}"}}' in text

            # Kill one worker: the monitor respawns it, replies stay bitwise.
            os.kill(pids[0], signal.SIGKILL)
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                fresh = _worker_pids(client)
                if len(fresh) == 2 and pids[0] not in fresh:
                    break
                time.sleep(0.1)
            else:
                raise AssertionError("killed worker was never respawned")
            assert client.metrics()["worker_pool"]["worker_restarts"] >= 1
            for x in xs:
                assert np.array_equal(
                    client.predict(x, model=MODEL), oracle.run(x[None])[0]
                )
            _assert_tree(proc.pid, _worker_pids(client))
            assert _psm_names() <= before
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait(timeout=30)
    assert _psm_names() <= before
