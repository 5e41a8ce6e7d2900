"""Parallel slice-scan execution.

Slices are the paper's unit of distribution and are embarrassingly
parallel: a scan touches each slice's blocks, bitmap, and cache entry
state independently.  :class:`ParallelScanExecutor` fans the per-slice
scan closures out over a thread pool — the numpy filter kernels release
the GIL, and simulated remote-fetch latency (``fetch_delay_seconds`` on
managed storage) overlaps across workers the way real cloud round trips
would.

Scheduling is a dynamic work queue, not static striping: every slice is
submitted as its own task and idle workers pull the next pending one,
so a skewed slice cannot straggle the whole scan behind a pre-assigned
stripe.  Results are collected in slice order regardless of completion
order; the coordinator in ``scan.py`` merges counters, emits tracer
spans, and installs cache entries deterministically at the barrier.

Selection:

* default — zero workers: the slice tasks run inline on the
  coordinating thread, in slice order;
* ``REPRO_PARALLEL=1`` — parallel with :data:`DEFAULT_WORKERS` workers;
* ``REPRO_PARALLEL=N`` (N >= 2) — parallel with N workers;
* ``QueryEngine(scan_workers=N)`` / ``StatementContext(workers=N)`` —
  programmatic override; ``0`` forces inline, ``None`` defers to the
  environment.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor, wait
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

from .. import env

__all__ = [
    "DEFAULT_WORKERS",
    "ParallelScanExecutor",
    "configured_workers",
    "set_workers",
]

T = TypeVar("T")

#: Worker count when ``REPRO_PARALLEL=1`` enables parallel mode without
#: naming one.  Matches the bench gate ("2.5x cold speedup at 4 workers").
DEFAULT_WORKERS = 4


def _workers_from_env() -> int:
    """Resolve the worker count from ``REPRO_PARALLEL`` (0 = serial)."""
    enabled = env.PARALLEL
    if enabled in ("", "0"):
        return 0
    try:
        requested = int(enabled)
    except ValueError:
        return 0
    if requested <= 0:
        return 0
    return DEFAULT_WORKERS if requested == 1 else requested


_WORKERS: int = _workers_from_env()


def configured_workers() -> int:
    """The session-wide worker count (0 = serial)."""
    return _WORKERS


def set_workers(workers: Optional[int]) -> int:
    """Programmatically override the worker count; returns the previous
    value so tests can restore it.  ``None`` or ``0`` means serial."""
    global _WORKERS
    previous = _WORKERS
    _WORKERS = 0 if workers is None else max(0, int(workers))
    return previous


# One shared pool per worker count: scans are frequent and short, and
# thread start-up would otherwise dominate small scans.
_POOLS: Dict[int, ThreadPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()


def _pool(workers: int) -> ThreadPoolExecutor:
    with _POOLS_LOCK:
        pool = _POOLS.get(workers)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix=f"repro-scan-{workers}"
            )
            _POOLS[workers] = pool
        return pool


class ParallelScanExecutor:
    """Runs per-slice scan tasks on a shared worker pool.

    Tasks must be self-contained closures that touch only per-task
    state (their own ``QueryCounters``, their slice's immutable entry
    state) plus the internally-synchronized managed-storage read path;
    the checker rule RP006 enforces that worker code never mutates
    shared engine or cache state.
    """

    def __init__(self, workers: int) -> None:
        self.workers = max(1, int(workers))

    def run(self, tasks: Sequence[Callable[[], T]]) -> List[T]:
        """Execute ``tasks``, returning results in task (slice) order.

        With one worker — or one task — runs inline on the caller's
        thread, stopping at the first failing task.  On a pool, every
        in-flight task is drained first (so callers can safely close
        the storage scan phase) and the error of the lowest-numbered
        failing slice propagates — the same error the inline run
        surfaces.
        """
        if self.workers == 1 or len(tasks) <= 1:
            return [task() for task in tasks]
        pool = _pool(self.workers)
        futures: List[Future[T]] = [pool.submit(task) for task in tasks]
        wait(futures)
        return [future.result() for future in futures]
