"""The shared worker pool that runs the lanes of a split plan run.

One process-wide thread pool serves every concurrent ``CompiledPlan.run``:
the engine's kernels spend their time inside BLAS GEMMs and NumPy ufunc
inner loops, both of which release the GIL, so plain threads give real
multicore parallelism without pickling arrays across processes (and the
arena buffers can be shared by reference).

Thread-count resolution, everywhere in the engine:

* an explicit ``threads=`` argument wins;
* else the per-plan ``CompiledPlan.threads`` attribute;
* else the ``REPRO_THREADS`` environment variable (``0`` or ``auto``
  mean "all cores");
* else ``1`` — serial, one lane.

``run_tasks`` refuses to nest: a task that itself calls ``run_tasks``
(e.g. a lane whose kernel runs another plan with ``threads > 1``)
executes its sub-tasks inline, so the pool can never deadlock on its
own capacity.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional, Sequence

#: Environment variable controlling the default engine thread count.
THREADS_ENV_VAR = "REPRO_THREADS"

_lock = threading.Lock()
_executor: Optional[ThreadPoolExecutor] = None
_executor_size = 0
_default_threads: Optional[int] = None
_tls = threading.local()


def _reset_executor_after_fork() -> None:
    """Fork-safety guard: drop the inherited executor in a forked child.

    A forked child inherits the parent's ``ThreadPoolExecutor`` *object*
    but none of its worker threads — submitting to it would queue tasks
    nobody ever drains (the thread bookkeeping still lists the parent's
    dead threads, so no new workers are spawned) and the first threaded
    plan run in a worker process would deadlock.  Resetting the globals
    makes the child lazily build a fresh pool, exactly like a new
    process.
    """
    global _executor, _executor_size, _lock
    _lock = threading.Lock()  # the parent's lock may be held mid-fork
    _executor = None
    _executor_size = 0


if hasattr(os, "register_at_fork"):  # POSIX only
    os.register_at_fork(after_in_child=_reset_executor_after_fork)


def cpu_count() -> int:
    return os.cpu_count() or 1


def default_threads() -> int:
    """The process default: ``configure_threads`` > ``REPRO_THREADS`` > 1."""
    if _default_threads is not None:
        return _default_threads
    raw = os.environ.get(THREADS_ENV_VAR, "").strip().lower()
    if not raw:
        return 1
    if raw == "auto":
        return cpu_count()
    try:
        value = int(raw)
    except ValueError:
        return 1
    return cpu_count() if value == 0 else max(1, value)


def configure_threads(threads: Optional[int]) -> None:
    """Set (or with ``None`` clear) the process-wide default thread count,
    overriding ``REPRO_THREADS`` for every subsequent plan execution."""
    global _default_threads
    if threads is None:
        _default_threads = None
    else:
        _default_threads = cpu_count() if int(threads) == 0 else max(1, int(threads))


def resolve_threads(threads: Optional[int] = None) -> int:
    """An explicit request (``0`` = all cores) or the process default."""
    if threads is None:
        return default_threads()
    threads = int(threads)
    return cpu_count() if threads == 0 else max(1, threads)


def in_worker() -> bool:
    """True inside a pool task (used to keep parallelism un-nested)."""
    return bool(getattr(_tls, "active", False))


def _get_executor(threads: int) -> ThreadPoolExecutor:
    global _executor, _executor_size
    with _lock:
        if _executor is None or _executor_size < threads:
            old = _executor
            _executor_size = max(threads, cpu_count())
            _executor = ThreadPoolExecutor(
                max_workers=_executor_size, thread_name_prefix="repro-engine"
            )
            if old is not None:
                old.shutdown(wait=False)
        return _executor


def _run_wrapped(task: Callable[[], None]) -> None:
    _tls.active = True
    try:
        task()
    finally:
        _tls.active = False


def run_tasks(tasks: Sequence[Callable[[], None]], threads: int) -> None:
    """Execute zero-arg ``tasks`` and wait for all: the caller runs the
    first itself while the shared pool runs the rest.

    Runs inline (serially) when there is one task, one thread, or the
    caller is itself a pool worker.  Every task is awaited even when one
    raises; the first exception is then re-raised.
    """
    if len(tasks) <= 1 or threads <= 1 or in_worker():
        for task in tasks:
            task()
        return
    # Submit one task at a time so a concurrent pool growth (the old
    # executor is shut down underneath us) only requires resubmitting the
    # tasks *not yet accepted* — tasks already queued on the old executor
    # still run there, and resubmitting them would double-execute a lane
    # against its own arena.
    executor = _get_executor(threads)
    futures = []
    index = 1
    while index < len(tasks):
        try:
            futures.append(executor.submit(_run_wrapped, tasks[index]))
            index += 1
        except RuntimeError:
            fresh = _get_executor(threads)
            if fresh is executor:  # not a growth race: fall back inline
                break
            executor = fresh
    # Every task must have finished before this returns OR raises — the
    # caller reads what the tasks wrote right after — so
    # collect errors from the inline leg and the futures alike and only
    # re-raise once everything is drained.
    errors = []
    for task in [tasks[0], *tasks[index:]]:
        try:
            task()
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            errors.append(exc)
    for future in futures:
        try:
            future.result()
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            errors.append(exc)
    if errors:
        raise errors[0]
