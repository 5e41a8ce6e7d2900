"""Fixture-driven tests for the checker's whole-program rules.

Each fixture is a tiny in-memory project handed to
:func:`tools.check.check_sources`; the assertions pin down the
semantics of RP010 (lock-order cycles), RP011 (blocking under a
lock), RP012 (unguarded shared-state escapes + contract violations),
waiver matching, and the precision rules (opaque containers, nested
defs, re-entrant self-edges).  The final test is the merge gate: the
real tree must check to zero unwaived findings with the shipped
waiver file.  (The per-file rules' fixtures are in test_lint.py.)
"""

import os
from fnmatch import fnmatchcase

import pytest

from tools.check import WAIVERS_FILE, check_paths, check_sources, main
from tools.check.findings import WaiverError, parse_waivers

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_REPRO = os.path.join(REPO_ROOT, "src", "repro")


def keys(result, rule=None):
    found = [f.key for f in result.findings]
    if rule is not None:
        found = [k for k in found if k.startswith(rule + ":")]
    return found


# -- RP010: lock-order cycles -------------------------------------------------

SELF_DEADLOCK = {"repro/fix/box.py": '''
import threading

class Box:
    def __init__(self):
        self._lock = threading.Lock()

    def outer(self):
        with self._lock:
            self.inner()

    def inner(self):
        with self._lock:
            pass
'''}
REENTRY = {
    path: src.replace("threading.Lock()", "threading.RLock()")
    for path, src in SELF_DEADLOCK.items()
}


class TestRP010:
    def test_one_direction_is_not_a_cycle(self):
        result = check_sources({
            "repro/fix/pair.py": '''
import threading

class Left:
    def __init__(self):
        self._lock = threading.Lock()
        self.other: "Right" = None

    def forward(self):
        with self._lock:
            self.other.poke_right()

class Right:
    def __init__(self):
        self._lock = threading.Lock()

    def poke_right(self):
        with self._lock:
            pass
'''})
        assert keys(result, "RP010") == []
        assert ("Left._lock", "Right._lock") in result.program.edge_names()

    def test_cycle_reported_with_both_directions(self):
        result = check_sources({
            "repro/fix/pair.py": '''
import threading

class Left:
    def __init__(self):
        self._lock = threading.Lock()
        self.other: "Right" = None

    def forward(self):
        with self._lock:
            self.other.poke_right()

    def poke_left(self):
        with self._lock:
            pass

class Right:
    def __init__(self):
        self._lock = threading.Lock()
        self.other: "Left" = None

    def poke_right(self):
        with self._lock:
            pass

    def backward(self):
        with self._lock:
            self.other.poke_left()
'''})
        cycles = keys(result, "RP010")
        assert len(cycles) == 1
        assert "Left._lock" in cycles[0] and "Right._lock" in cycles[0]
        finding = [f for f in result.findings if f.code == "RP010"][0]
        assert "potential deadlock" in finding.message
        # The witness chain names the functions on the path.
        assert "forward" in finding.message or "backward" in finding.message

    def test_plain_lock_self_acquire_is_cycle(self):
        cycles = keys(check_sources(SELF_DEADLOCK), "RP010")
        assert cycles == ["RP010:Box._lock->Box._lock"]

    def test_rlock_self_reentry_is_not_cycle(self):
        assert keys(check_sources(REENTRY), "RP010") == []


# -- RP011: blocking under a lock ---------------------------------------------

SLEEPY = {"repro/fix/sleepy.py": '''
import threading
import time

class Sleepy:
    def __init__(self):
        self._lock = threading.Lock()

    def nap(self):
        with self._lock:
            time.sleep(0.1)
'''}
LOCKLESS_SLEEP = {"repro/fix/fine.py": '''
import time

def pause():
    time.sleep(0.1)
'''}


class TestRP011:
    def test_direct_sleep_under_lock(self):
        assert keys(check_sources(SLEEPY), "RP011") == [
            "RP011:Sleepy.nap:time.sleep@Sleepy.nap"
        ]

    def test_transitive_io_under_lock(self):
        result = check_sources({
            "repro/fix/writer.py": '''
import os
import threading

class Writer:
    def __init__(self):
        self._lock = threading.Lock()

    def flush(self):
        with self._lock:
            self._rotate()

    def _rotate(self):
        os.replace("a", "b")
'''})
        assert "RP011:Writer.flush:os.replace@Writer._rotate" in keys(
            result, "RP011"
        )
        finding = [f for f in result.findings if f.code == "RP011"][0]
        assert "Writer._lock" in finding.message

    def test_sleep_without_lock_is_clean(self):
        assert keys(check_sources(LOCKLESS_SLEEP), "RP011") == []

    def test_condition_wait_under_own_cv_is_clean(self):
        result = check_sources({
            "repro/fix/cv.py": '''
import threading

class Waiter:
    def __init__(self):
        self._cv = threading.Condition()

    def take(self):
        with self._cv:
            self._cv.wait(timeout=1.0)
'''})
        assert keys(result, "RP011") == []

    def test_condition_wait_holding_other_lock_flagged(self):
        result = check_sources({
            "repro/fix/cv2.py": '''
import threading

class Waiter:
    def __init__(self):
        self._lock = threading.Lock()
        self._cv = threading.Condition()

    def take(self):
        with self._lock:
            with self._cv:
                self._cv.wait(timeout=1.0)
'''})
        flagged = keys(result, "RP011")
        assert any("Waiter._cv.wait" in k for k in flagged)


# -- RP012: unguarded escapes and contracts -----------------------------------

ESCAPE = {
    "repro/engine/scan.py": '''
def _run_scan(cache, part):
    cache.install(part)
''',
    "repro/core/cache.py": '''
import threading

class PredicateCache:
    def __init__(self):
        self._lock = threading.RLock()
        self._entries = {}
        self.hits = 0

    def install(self, part):
        self._entries[part] = part

    def lookup(self, part):
        with self._lock:
            self.hits += 1
            return self._entries.get(part)
''',
}
UNREACHED = {"repro/core/cache.py": ESCAPE["repro/core/cache.py"]}

#: code -> (fires, near-miss); test_lint.py's gate walks these with its own.
FIXTURES = {
    "RP010": (SELF_DEADLOCK, REENTRY),
    "RP011": (SLEEPY, LOCKLESS_SLEEP),
    "RP012": (ESCAPE, UNREACHED),
}


class TestRP012:
    def test_unguarded_escape_from_entry_point(self):
        result = check_sources(ESCAPE)
        assert "RP012:PredicateCache.install:_entries" in keys(result, "RP012")
        # The guarded lookup mutation is not flagged.
        assert "RP012:PredicateCache.lookup:hits" not in keys(result, "RP012")

    def test_unreachable_class_not_flagged(self):
        # Same mutation, but no entry point reaches it.
        assert keys(check_sources(UNREACHED), "RP012") == []

    def test_init_mutations_exempt(self):
        result = check_sources({
            "repro/engine/scan.py": "def _run_scan(c):\n    c.lookup(1)\n",
            "repro/core/cache.py": ESCAPE["repro/core/cache.py"],
        })
        assert not any("__init__" in k for k in keys(result, "RP012"))

    def test_contract_docstring_exempts_helper(self):
        result = check_sources({
            "repro/engine/scan.py": '''
def _run_scan(cache, part):
    cache.record(part)
''',
            "repro/core/cache.py": '''
import threading

class PredicateCache:
    def __init__(self):
        self._lock = threading.RLock()
        self.hits = 0

    def record(self, part):
        with self._lock:
            self._bump()

    def _bump(self):
        """Caller holds ``_lock``."""
        self.hits += 1
''',
        })
        assert keys(result, "RP012") == []

    def test_contract_violation_flagged(self):
        result = check_sources({
            "repro/engine/scan.py": '''
def _run_scan(cache, part):
    cache.record(part)
''',
            "repro/core/cache.py": '''
import threading

class PredicateCache:
    def __init__(self):
        self._lock = threading.RLock()
        self.hits = 0

    def record(self, part):
        self._bump()

    def _bump(self):
        """Caller holds ``_lock``."""
        self.hits += 1
''',
        })
        assert "RP012:PredicateCache.record:calls:PredicateCache._bump" in keys(
            result, "RP012"
        )

    def test_opaque_container_calls_do_not_alias(self):
        # deque.clear() on a typed Deque attribute must not resolve to
        # PredicateCache.clear (which would fabricate reachability).
        result = check_sources({
            "repro/engine/scan.py": '''
def _run_scan(srv):
    srv.drain()
''',
            "repro/serve/server.py": '''
import threading
from collections import deque
from typing import Deque

class QueryServer:
    def __init__(self):
        self._lock = threading.Lock()
        self._queue: Deque = deque()

    def drain(self):
        with self._lock:
            self._queue.clear()
''',
            "repro/core/cache.py": '''
class PredicateCache:
    def __init__(self):
        self.cleared = 0

    def clear(self):
        self.cleared += 1
''',
        })
        assert keys(result, "RP012") == []

    def test_calls_through_a_class_outside_the_project_do_not_alias(self):
        # file.close() on an attribute typed Optional[BinaryIO] must not
        # resolve to PredicateCache.close: the by-name fallback is for
        # receivers of *unknown* type, not of a known foreign one.
        result = check_sources({
            "repro/engine/scan.py": '''
def _run_scan(store):
    store.release()
''',
            "repro/persist/store.py": '''
import threading
from typing import BinaryIO, Optional

class CacheStore:
    def __init__(self):
        self._io_lock = threading.RLock()
        self._journal: Optional[BinaryIO] = None

    def release(self):
        with self._io_lock:
            if self._journal is not None:
                self._journal.close()
''',
            "repro/core/cache.py": '''
class PredicateCache:
    def __init__(self):
        self.closed = 0

    def close(self):
        self.closed += 1
''',
        })
        assert keys(result, "RP012") == []

    def test_nested_defs_excluded(self):
        # A gauge callback defined inside a method runs at scrape time
        # on another stack; its reads/mutations are not the method's.
        result = check_sources({
            "repro/engine/scan.py": '''
def _run_scan(cache):
    cache.register()
''',
            "repro/core/cache.py": '''
import threading

class PredicateCache:
    def __init__(self):
        self._lock = threading.RLock()
        self.hits = 0

    def register(self):
        def _read():
            self.hits += 1
            return self.hits
        return _read
''',
        })
        assert keys(result, "RP012") == []


# -- waivers ------------------------------------------------------------------

# One audited decision, seen by both rules that read the mutation pass.
WAIVED_TOML = '''
[[waiver]]
rule = "RP012"
match = "RP012:PredicateCache.install:*"
reason = "fixture: deliberate lock-free publish"

[[waiver]]
rule = "RP007"
match = "RP007:PredicateCache.install:_entries"
reason = "fixture: deliberate lock-free publish"
'''


class TestWaivers:
    def test_waiver_suppresses_finding(self):
        result = check_sources(ESCAPE, waivers_toml=WAIVED_TOML)
        assert result.unwaived == []
        assert sorted(f.code for f in result.waived) == ["RP007", "RP012"]
        assert result.waived[0].waiver_reason.startswith("fixture:")

    def test_waiver_rule_must_match(self):
        toml = WAIVED_TOML.replace('rule = "RP012"', 'rule = "RP011"')
        result = check_sources(ESCAPE, waivers_toml=toml)
        assert [f.code for f in result.unwaived] == ["RP012"]

    def test_malformed_waiver_rejected(self):
        with pytest.raises(WaiverError, match="reason"):
            parse_waivers('[[waiver]]\nrule = "RP012"\nmatch = "*"\n')

    def test_shipped_waivers_parse(self):
        waivers = parse_waivers(open(WAIVERS_FILE).read())
        assert waivers, "shipped waiver file should not be empty"
        assert all(w.reason for w in waivers)


# -- clean file + real tree gate ----------------------------------------------


class TestCleanAndGate:
    def test_clean_project_no_findings(self):
        result = check_sources({
            "repro/core/tidy.py": '''
import threading

class Tidy:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0

    def bump(self):
        with self._lock:
            self.count += 1
''',
            "repro/engine/scan.py": "def _run_scan(t):\n    t.bump()\n",
        })
        assert result.findings == []

    def test_witness_factories_named_in_inventory(self):
        result = check_sources({
            "repro/core/cache.py": '''
from repro.obs import lockwitness

class PredicateCache:
    def __init__(self):
        self._lock = lockwitness.named_rlock("PredicateCache._lock")
''',
        })
        lock = result.program.inventory.locks["PredicateCache._lock"]
        assert lock.kind == "rlock"
        assert lock.reentrant

    def test_real_tree_zero_unwaived(self):
        result = check_paths([SRC_REPRO])
        assert result.unwaived == [], [f.render() for f in result.unwaived]
        # The static graph must be acyclic on the shipped tree.
        assert not any(f.code == "RP010" for f in result.findings)
        # No cache lock is held across anything that blocks — waived or
        # not: the write-through drains after ``_lock`` is released.
        assert not [
            f.key for f in result.findings
            if fnmatchcase(f.key, "RP011:PredicateCache.*")
        ]

    def test_cli_exit_codes(self, capsys):
        assert main([SRC_REPRO]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out
        assert "waived" in out

    def test_cli_graph_output(self, capsys):
        assert main([SRC_REPRO, "--graph"]) == 0
        out = capsys.readouterr().out
        assert "lock-order graph" in out
        assert "CacheStore._io_lock -> FaultInjector._lock" in out
        # The cache and the store never nest, in either direction.
        assert "PredicateCache._lock -> CacheStore._io_lock" not in out
        assert "CacheStore._io_lock -> PredicateCache._lock" not in out
