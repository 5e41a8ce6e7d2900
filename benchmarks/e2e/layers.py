"""Per-layer tracing from outside the program: timing shims on each
layer's entry points.

Nothing under ``src/`` is edited and ``QueryEngine(tracer=...)`` is not
used (``QueryServer`` refuses it).  ``Recorder.install`` rebinds each
function named in ``SHIMS`` — a module-level function in every ``repro``
module that imported it, a method on its class — to a closure that
keeps a per-thread stack of open calls.

* A call's **self time** is its duration minus the duration of the
  shimmed calls it made.  Self times of everything under a statement's
  root (``QueryEngine.execute`` or a bulk ``QueryEngine.insert``) add up
  to the root's duration by construction; the root's own self time is
  the unattributed remainder, reported as ``engine.other``.
* A **span** (name, start, end, parent, statement id) is recorded per
  call, except for calls made hundreds of times per statement
  (``read_block``, ``decode_block``, ``RangeList`` operations, predicate
  keys), which only accumulate self time and a call count.
* Everything lives in memory until ``chrome_trace`` / ``totals`` are
  read after the run.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from typing import Callable, Dict, List, Tuple

#: Layer key of a statement root: the remainder nobody else claimed.
ROOT_KEY = "engine.other"

# (owner, attribute names, layer key, record spans?)
#   owner "pkg.mod:Class" -> methods of a class (``*`` = every subclass
#   that defines the method); owner "pkg.mod" -> module-level functions.
SHIMS: Tuple[Tuple[str, Tuple[str, ...], str, bool], ...] = (
    ("repro.engine.engine:QueryEngine", ("execute", "insert"), ROOT_KEY, True),
    ("repro.sql.parser", ("parse_statement",), "sql.parse", True),
    ("repro.sql.planner", ("plan_select",), "sql.plan", True),
    ("repro.predicates.normalize", ("normalize",), "predicates.key", True),
    ("repro.predicates.ast:Predicate*", ("cache_key",), "predicates.key", False),
    ("repro.predicates.ast:Predicate*", ("evaluate",), "predicates.evaluate", True),
    (
        "repro.core.cache:PredicateCache",
        ("lookup", "select_entry", "lookup_part", "get_or_create", "admits"),
        "core.lookup",
        True,
    ),
    (
        "repro.core.cache:PredicateCache",
        ("record_slice_scan", "record_entry_stats"),
        "core.install",
        True,
    ),
    # The bounded-range builder of an install (the gap-heap's batch twin).
    ("repro.core.rowrange:RangeList", ("coalesce",), "core.install", False),
    (
        "repro.core.rowrange:RangeList",
        (
            "union", "intersect", "difference", "complement", "clip", "shift",
            "covers", "to_mask", "to_row_ids", "from_mask", "from_rows",
            "from_bounds",
        ),
        "core.rangeops",
        False,
    ),
    (
        "repro.core.cache:PredicateCache",
        ("invalidate_table", "invalidate_build_side", "drop_stale", "clear"),
        "core.invalidate",
        True,
    ),
    ("repro.reuse.decompose", ("decompose",), "reuse.plan", True),
    ("repro.reuse.compose", ("plan_reuse",), "reuse.plan", True),
    ("repro.storage.column:ColumnStore", ("read_ranges",), "storage.read_ranges", True),
    ("repro.storage.rms:ManagedStorage", ("read_block",), "storage.read_block", False),
    ("repro.storage.compression", ("decode_block",), "storage.decode", False),
    (
        "repro.storage.column:ColumnStore",
        ("prunable_block_ranges",),
        "storage.zonemap",
        True,
    ),
    ("repro.storage.slice:DataSlice", ("visibility_mask",), "storage.visibility", True),
    (
        "repro.storage.table:Table",
        ("insert", "delete_local_rows"),
        "storage.write",
        True,
    ),
    ("repro.storage.table:Table", ("vacuum",), "storage.vacuum", True),
    ("repro.engine.scan", ("execute_scan",), "engine.scan_self", True),
    # The executor has no public per-operator entry points; its operator
    # methods are the only boundary a join or an aggregate has.
    ("repro.engine.executor:Executor", ("_execute_join",), "engine.join", True),
    ("repro.engine.executor:Executor", ("_execute_aggregate",), "engine.aggregate", True),
    ("repro.persist.store:CacheStore", ("log_state", "log_drop"), "persist.journal", True),
    ("repro.persist.store:CacheStore", ("snapshot",), "persist.snapshot", True),
    ("repro.persist.store:CacheStore", ("load",), "persist.load", True),
    ("repro.persist.store:CacheStore", ("hydrate",), "persist.hydrate", True),
    ("repro.serve.server:QueryServer", ("submit",), "serve.submit", True),
    (
        "repro.serve.server:ReadWriteLock",
        ("acquire_read", "acquire_write"),
        "serve.lock_wait",
        True,
    ),
    ("repro.cluster.caches:ClusterCaches", ("cache_for_slice",), "cluster.route", True),
)

#: The one byte counter: framed journal records.
_SIZED = ("repro.persist.format", "frame_record")

LAYER_KEYS = tuple(dict.fromkeys(key for _, _, key, _ in SHIMS))


class _ThreadState:
    """Open calls, spans and accumulators of one thread."""

    __slots__ = ("tid", "stack", "stmt", "cells", "totals", "spans", "statements")

    def __init__(self, tid: int, stmt: int) -> None:
        self.tid = tid
        # One frame per open shimmed call: [seconds in shimmed children,
        # index of the nearest recorded span].
        self.stack: List[List] = []
        self.stmt = stmt
        # layer key -> [self seconds, calls] of the current statement.
        self.cells: Dict[str, List[float]] = {k: [0.0, 0] for k in LAYER_KEYS}
        # The same, summed over everything this thread has finished:
        # statements, and calls made outside any statement root
        # (client-side submits, worker lock waits, the restart step).
        self.totals: Dict[str, List[float]] = {k: [0.0, 0] for k in LAYER_KEYS}
        # (name, key, start, end, parent span index, statement id)
        self.spans: List[Tuple[str, str, float, float, int, int]] = []
        # (statement id, root seconds, {key: self seconds}) per root.
        self.statements: List[Tuple[int, float, Dict[str, float]]] = []


class Recorder:
    """Installs the shims and holds what they record."""

    def __init__(self) -> None:
        self.enabled = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadState] = []
        self._statement_ids = itertools.count(1)
        self._originals: List[Tuple[object, str, object]] = []
        self.bytes_framed = 0

    # -- shims ----------------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            with self._lock:
                state = _ThreadState(len(self._threads), next(self._statement_ids))
                self._threads.append(state)
            self._local.state = state
        return state

    def _shim(self, fn: Callable, name: str, key: str, spans: bool) -> Callable:
        clock = time.perf_counter
        is_root_key = key == ROOT_KEY

        def shim(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            state = self._state()
            stack = state.stack
            parent = stack[-1][1] if stack else -1
            index = len(state.spans) if spans else parent
            if spans:
                state.spans.append(None)  # reserve the slot: children follow
            frame = [0.0, index]
            stack.append(frame)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ended = clock()
                stack.pop()
                duration = ended - started
                cell = state.cells[key]
                cell[0] += duration - frame[0]
                cell[1] += 1
                if spans:
                    state.spans[index] = (
                        name, key, started, ended, parent, state.stmt
                    )
                if stack:
                    stack[-1][0] += duration
                else:
                    self._close_outermost(state, duration, is_root_key)

        return shim

    def _close_outermost(
        self, state: _ThreadState, duration: float, is_root: bool
    ) -> None:
        """Fold the thread's cells once its outermost call returned.

        Outermost calls that are not statement roots — lock waits on a
        worker, submits on a client thread — carry the id of the
        statement that follows on their thread.
        """
        if is_root:
            state.statements.append(
                (state.stmt, duration, {k: c[0] for k, c in state.cells.items() if c[1]})
            )
            state.stmt = next(self._statement_ids)
        for key, cell in state.cells.items():
            if cell[1]:
                total = state.totals[key]
                total[0] += cell[0]
                total[1] += cell[1]
                cell[0], cell[1] = 0.0, 0

    def _sized_shim(self, fn: Callable) -> Callable:
        def shim(payload):
            framed = fn(payload)
            if self.enabled:
                with self._lock:
                    self.bytes_framed += len(framed)
            return framed

        return shim

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        """Rebind every name in ``SHIMS`` (import ``repro`` first)."""
        import importlib

        for owner, names, key, spans in SHIMS:
            module_name, _, class_name = owner.partition(":")
            module = importlib.import_module(module_name)
            if not class_name:
                for name in names:
                    original = getattr(module, name)
                    self._rebind_function(
                        original, self._shim(original, name, key, spans)
                    )
                continue
            base = getattr(module, class_name.rstrip("*"))
            classes = [base]
            if class_name.endswith("*"):
                classes += _all_subclasses(base)
            for cls in classes:
                for name in names:
                    if name in vars(cls):
                        label = f"{cls.__name__}.{name}"
                        self._rebind_method(cls, name, label, key, spans)
        module_name, name = _SIZED
        original = getattr(importlib.import_module(module_name), name)
        self._rebind_function(original, self._sized_shim(original))

    def _rebind_function(self, original: Callable, shim: Callable) -> None:
        """Replace ``original`` in every repro module that holds it."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._originals.append((module, attr, original))
                    setattr(module, attr, shim)

    def _rebind_method(
        self, cls: type, name: str, label: str, key: str, spans: bool
    ) -> None:
        raw = vars(cls)[name]
        self._originals.append((cls, name, raw))
        if isinstance(raw, classmethod):
            shim = classmethod(self._shim(raw.__func__, label, key, spans))
        else:
            shim = self._shim(raw, label, key, spans)
        setattr(cls, name, shim)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    # -- reading the recording ----------------------------------------------------

    def statements(self) -> List[Tuple[int, float, Dict[str, float]]]:
        return [row for state in self._threads for row in state.statements]

    def totals(self) -> Dict[str, Tuple[float, int]]:
        """layer key -> (self seconds, calls), summed over threads."""
        sums = {k: [0.0, 0] for k in LAYER_KEYS}
        for state in self._threads:
            for key, cell in state.totals.items():
                sums[key][0] += cell[0]
                sums[key][1] += cell[1]
        return {k: (v[0], int(v[1])) for k, v in sums.items()}

    def chrome_trace(self) -> Dict[str, object]:
        """Spans as Chrome ``trace_event`` JSON (chrome://tracing, Perfetto).

        Each statement root carries its per-layer self times (ms) in
        ``args`` — including the layers that only accumulate counters.
        """
        events: List[Dict[str, object]] = []
        origin = min(
            (span[2] for state in self._threads for span in state.spans if span),
            default=0.0,
        )
        for state in self._threads:
            breakdowns = {stmt: b for stmt, _, b in state.statements}
            for index, span in enumerate(state.spans):
                if span is None:
                    continue
                name, key, started, ended, parent, stmt = span
                args: Dict[str, object] = {"stmt": stmt, "span": index, "parent": parent}
                if key == ROOT_KEY and parent == -1 and stmt in breakdowns:
                    args["self_ms"] = {
                        k: round(v * 1e3, 4) for k, v in breakdowns[stmt].items()
                    }
                events.append(
                    {
                        "name": name,
                        "cat": key,
                        "ph": "X",
                        "ts": round((started - origin) * 1e6, 3),
                        "dur": round((ended - started) * 1e6, 3),
                        "pid": 1,
                        "tid": state.tid,
                        "args": args,
                    }
                )
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def _all_subclasses(cls: type) -> List[type]:
    found: List[type] = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_all_subclasses(sub))
    return found
