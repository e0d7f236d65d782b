"""Fork-safety of the engine's shared mutable state (ISSUE 5).

The multi-process serving workers are forked from a parent that may hold
arenas checked out (concurrent in-process runs) and a warm engine thread
pool.  A forked child must inherit **neither**: handing out a parent's
checked-out arena slot would couple the child to bookkeeping frozen
mid-flight, and submitting to the inherited (thread-less) executor would
deadlock the first threaded run.
"""

import multiprocessing
import os
import sys

import numpy as np
import pytest

from repro.engine import compile_model
from repro.models.common import ConvSpec
from repro.models.lenet import lenet

pytestmark = pytest.mark.skipif(
    sys.platform == "win32" or not hasattr(os, "register_at_fork"),
    reason="fork-based workers are POSIX-only",
)


def _fresh_plan():
    model = lenet(spec=ConvSpec("F2"))
    model.eval()
    plan = compile_model(model, backend="fast")
    plan.prepare((1, 1, 28, 28))
    return plan


def test_forked_child_inherits_no_checked_out_arena():
    plan = _fresh_plan()
    x = np.zeros((1, 1, 28, 28), dtype=np.float32)
    plan.run(x)  # builds + parks one arena
    pool = plan._memory((1, 28, 28))
    assert pool is not None
    [held] = pool.checkout(1)  # parent holds a slot across the fork
    try:
        assert pool.arenas_built >= 1

        ctx = multiprocessing.get_context("fork")
        parent_conn, child_conn = ctx.Pipe()

        def child(conn):
            try:
                reset = (
                    pool._idle == []
                    and pool._retained == []
                    and pool.arenas_built == 0
                )
                [fresh] = pool.checkout(1)
                conn.send(
                    {
                        "reset": reset,
                        "fresh_is_new": fresh is not held,
                        "runs": bool(
                            np.isfinite(plan.run(x)).all()
                        ),  # checkout/checkin cycle works post-fork
                    }
                )
            except Exception as exc:  # pragma: no cover - diagnostic
                conn.send({"error": repr(exc)})

        proc = ctx.Process(target=child, args=(child_conn,), daemon=True)
        proc.start()
        assert parent_conn.poll(30), "forked child never reported"
        result = parent_conn.recv()
        proc.join(10)
        assert result.get("error") is None, result
        assert result["reset"], "child inherited pooled arenas"
        assert result["fresh_is_new"]
        assert result["runs"]

        # The parent's pool is untouched by the child's reset.
        assert held in pool._retained
    finally:
        pool.checkin([held])


def test_post_fork_orphan_checkin_is_dropped():
    """An arena checked out before the fork reset must not re-enter the
    child's pool via a late checkin (simulated in-process here by
    resetting the pool while a checkout is outstanding)."""
    plan = _fresh_plan()
    pool = plan._memory((1, 28, 28))
    [orphan] = pool.checkout(1)
    pool._reset_after_fork()
    pool.checkin([orphan])  # must be a no-op, not an insertion
    assert orphan not in pool._idle
    assert orphan not in pool._retained
    assert pool.arenas_built == 0


def test_forked_child_threaded_run_does_not_deadlock():
    """Warm the shared engine thread pool in the parent, fork, and run a
    threaded plan in the child: without the after-fork executor reset the
    child would submit to a pool whose threads died with the fork."""
    plan = _fresh_plan()
    x = np.zeros((4, 1, 28, 28), dtype=np.float32)
    plan.run(x, threads=2)  # warms the parent's executor

    ctx = multiprocessing.get_context("fork")
    parent_conn, child_conn = ctx.Pipe()

    def child(conn):
        out = plan.run(x, threads=2)
        conn.send(bool(np.isfinite(out).all()))

    proc = ctx.Process(target=child, args=(child_conn,), daemon=True)
    proc.start()
    ok = parent_conn.poll(60)
    if not ok:  # pragma: no cover - the deadlock this test guards against
        proc.terminate()
        pytest.fail("threaded plan run deadlocked in the forked child")
    assert parent_conn.recv() is True
    proc.join(10)
