"""The project checker's lexical and per-module rules (RP001-RP009):
one passing and one failing fixture per rule, exercised through
``tools.check.check_sources``, a table-driven gate that every code in
``RULES`` has both, plus an end-to-end check that the real tree is
clean.  The whole-program rules' fixtures are in test_analyze.py."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

from tools.check import RULES, check_paths, check_sources
from tools.check.lexical import WORKER_FUNCTIONS

from tests.test_analyze import FIXTURES as WHOLE_PROGRAM_FIXTURES

REPO = Path(__file__).resolve().parent.parent


def lint_source(source, path, also=None):
    """Findings for one fixture file (plus any companion modules)."""
    return check_sources({path: source, **(also or {})}).findings


def codes(findings):
    return [f.code for f in findings]


# -- RP001: raw hash() ---------------------------------------------------------


def test_rp001_flags_raw_hash():
    src = "def digest(key):\n    return hash(key) % 11\n"
    found = lint_source(src, "repro/core/keys.py")
    assert codes(found) == ["RP001"]
    assert "hashing" in found[0].message


def test_rp001_allows_hashing_module_and_dunder():
    # The hashing module itself may call hash(); so may __hash__
    # definitions (in-process semantics by construction).
    assert lint_source("x = hash('a')\n", "repro/engine/hashing.py") == []
    src = (
        "class Key:\n"
        "    def __hash__(self):\n"
        "        return hash((self.a, self.b))\n"
    )
    assert lint_source(src, "repro/core/keys.py") == []


# -- RP002: nondeterminism in deterministic packages ---------------------------


def test_rp002_flags_wall_clock_and_random():
    src = "import time\nimport random\nt = time.time()\nr = random.random()\n"
    found = lint_source(src, "repro/persist/store.py")
    assert codes(found) == ["RP002", "RP002"]


def test_rp002_allows_perf_counter_and_seeded_rng():
    src = (
        "import random\nimport time\n"
        "t = time.perf_counter()\n"
        "rng = random.Random(42)\n"
    )
    assert lint_source(src, "repro/engine/engine.py") == []
    # Outside the deterministic packages the rule does not apply.
    assert lint_source("import time\nt = time.time()\n", "repro/obs/trace.py") == []


# -- RP003: swallowed exceptions on the read path ------------------------------


def test_rp003_flags_bare_and_swallowing_except():
    bare = "try:\n    f()\nexcept:\n    pass\n"
    swallow = "try:\n    f()\nexcept Exception:\n    pass\n"
    assert codes(lint_source(bare, "repro/storage/rms.py")) == ["RP003"]
    assert codes(lint_source(swallow, "repro/engine/scan.py")) == ["RP003"]


def test_rp003_allows_handled_exceptions():
    handled = (
        "try:\n    f()\nexcept Exception:\n    counters.faults += 1\n    raise\n"
    )
    narrow = "try:\n    f()\nexcept OSError:\n    pass\n"
    assert lint_source(handled, "repro/storage/rms.py") == []
    assert lint_source(narrow, "repro/storage/rms.py") == []


# -- RP005: persisted-format literals ------------------------------------------

# RP005 reads the constants out of the format module it is checked with.
FORMAT = {
    "repro/persist/format.py": (
        'SNAPSHOT_MAGIC = b"RPPCSNAP"\n'
        "FORMAT_VERSION = 1\nSECTION_ENTRY = 2\nSECTION_END = 255\n"
    )
}


def test_rp005_flags_magic_and_section_literals():
    src = 'header = b"RPPCSNAP"\n'
    found = lint_source(src, "repro/persist/store.py", FORMAT)
    assert codes(found) == ["RP005"]
    src = "if section_id == 255:\n    pass\n"
    found = lint_source(src, "repro/persist/store.py", FORMAT)
    assert codes(found) == ["RP005"]


def test_rp005_allows_named_constants_and_unrelated_ints():
    src = (
        "from .format import SECTION_END\n"
        "if section_id == SECTION_END:\n    pass\n"
        "retries = 2\n"
        "if count == 255:\n    pass\n"  # not a format-ish name
    )
    # No finding in store.py, and the defining module itself is exempt.
    assert lint_source(src, "repro/persist/store.py", FORMAT) == []


def test_format_constants_extracted_from_real_module():
    real = {
        "repro/persist/format.py": (
            REPO / "src" / "repro" / "persist" / "format.py"
        ).read_text()
    }
    src = 'header = b"RPPCSNAP"\nif kind == 255 or op == 2:\n    pass\n'
    found = lint_source(src, "repro/persist/store.py", real)
    assert codes(found) == ["RP005"] * 3


# -- RP006: shared-state mutation from scan worker code ------------------------


def test_rp006_flags_install_inside_worker_function():
    src = (
        "def _scan_slice(table, cache, entry, slice_id, qualifying, num_rows):\n"
        "    cache.record_slice_scan(entry, slice_id, qualifying, num_rows)\n"
        "    return qualifying\n"
    )
    found = lint_source(src, "repro/engine/scan.py")
    assert codes(found) == ["RP006"]
    assert "coordinator" in found[0].message


def test_rp006_knows_the_whole_install_path():
    # What PR 12 added to the barrier's install is a cache write too.
    src = (
        "def _scan_slice(cache, entry, qualifying, considered):\n"
        "    cache.record_entry_stats(entry, qualifying, considered)\n"
        "    cache.record_reuse_rows(considered, 0)\n"
        "    cache.record_reuse_serve('composed')\n"
    )
    assert codes(lint_source(src, "repro/engine/scan.py")) == ["RP006"] * 3


def test_rp006_allows_coordinator_installs_and_other_modules():
    # The same call is fine outside the worker functions (the
    # coordinator's barrier install pass) ...
    coordinator = (
        "def execute_scan(table, cache, entry, results):\n"
        "    for slice_id, qualifying in enumerate(results):\n"
        "        cache.record_slice_scan(entry, slice_id, qualifying, 0)\n"
    )
    assert lint_source(coordinator, "repro/engine/scan.py") == []
    # ... and anywhere in modules that never run on scan workers.
    elsewhere = (
        "def _scan_slice(cache, entry):\n"
        "    cache.record_slice_scan(entry, 0, None, 0)\n"
    )
    assert lint_source(elsewhere, "repro/engine/executor.py") == []


def test_rp006_worker_functions_are_the_slice_task_and_what_it_calls():
    # WORKER_FUNCTIONS is a hand list: hold it against engine/scan.py,
    # so a helper split out of the slice task cannot escape the rule.
    tree = ast.parse((REPO / "src/repro/engine/scan.py").read_text())
    defined = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    on_worker, frontier = set(), ["_scan_slice"]
    while frontier:
        name = frontier.pop()
        if name in on_worker:
            continue
        on_worker.add(name)
        frontier += [
            call.func.id
            for call in ast.walk(defined[name])
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id in defined
        ]
    assert on_worker == set(WORKER_FUNCTIONS)
    for name in WORKER_FUNCTIONS:
        src = f"def {name}(cache, key):\n    cache.drop_stale(key)\n"
        assert codes(lint_source(src, "repro/engine/scan.py")) == ["RP006"], name


# -- RP007: unsynchronized mutation in serving/cache code ----------------------


def test_rp007_flags_unlocked_private_mutation():
    src = (
        "class Server:\n"
        "    def stop(self):\n"
        "        self._accepting = False\n"
        "    def push(self, item):\n"
        "        self._queue.append(item)\n"
        "    def drop(self, i):\n"
        "        del self._queue[i]\n"
        "    def bump(self):\n"
        "        self._active += 1\n"
    )
    found = lint_source(src, "repro/serve/server.py")
    assert codes(found) == ["RP007"] * 4
    assert all("lock" in f.message for f in found)


def test_rp007_allows_locked_init_and_documented_helpers():
    src = (
        "import threading\n"
        "class Server:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._cv = threading.Condition()\n"
        "        self._queue = []\n"
        "        self._active = 0\n"
        "    def push(self, item):\n"
        "        with self._lock:\n"
        "            self._queue.append(item)\n"
        "    def bump(self):\n"
        "        with self._cv:\n"
        "            self._active += 1\n"
        "    def _install(self, item):\n"
        '        """Caller holds ``_lock``."""\n'
        "        self._queue.append(item)\n"
        "    def read(self):\n"
        "        return len(self._queue)\n"
    )
    assert lint_source(src, "repro/serve/server.py") == []


def test_rp007_scope_is_serving_and_cache_only():
    src = (
        "class Thing:\n"
        "    def set(self, v):\n"
        "        self._value = v\n"
    )
    # In scope: every serve/ module and the predicate cache itself.
    assert codes(lint_source(src, "repro/serve/admission.py")) == ["RP007"]
    assert codes(lint_source(src, "repro/core/cache.py")) == ["RP007"]
    # Out of scope: other packages keep their own disciplines.
    assert lint_source(src, "repro/core/entry.py") == []
    assert lint_source(src, "repro/engine/engine.py") == []


def test_rp007_ignores_public_and_non_self_mutations():
    src = (
        "class Reporter:\n"
        "    def count(self, state):\n"
        "        state.queued += 1\n"  # not self: owner documents locking
        "        self.visible = True\n"  # public attribute, out of scope
    )
    assert lint_source(src, "repro/serve/server.py") == []


# -- RP008: uncounted StorageFault on health/recovery paths --------------------


def test_rp008_flags_swallowed_storage_fault():
    src = (
        "class Monitor:\n"
        "    def probe(self, node):\n"
        "        try:\n"
        "            node.ping()\n"
        "        except NodeDownError:\n"
        "            pass\n"
    )
    found = lint_source(src, "repro/serve/health.py")
    assert codes(found) == ["RP008"]
    assert "failover" in found[0].message


def test_rp008_flags_tuple_catch_with_unrelated_handling():
    src = (
        "class Orchestrator:\n"
        "    def restart(self):\n"
        "        try:\n"
        "            self.store.load()\n"
        "        except (ValueError, StorageFault):\n"
        "            result = None\n"
    )
    found = lint_source(src, "repro/serve/recovery.py")
    assert codes(found) == ["RP008"]


def test_rp008_allows_counted_reraised_or_inc_handlers():
    counted = (
        "class Monitor:\n"
        "    def probe(self, node):\n"
        "        try:\n"
        "            node.ping()\n"
        "        except NodeDownError:\n"
        "            self.ping_failures += 1\n"
    )
    assert lint_source(counted, "repro/serve/health.py") == []
    reraised = (
        "class Monitor:\n"
        "    def probe(self, node):\n"
        "        try:\n"
        "            node.ping()\n"
        "        except CorruptedBlockError:\n"
        "            raise\n"
    )
    assert lint_source(reraised, "repro/serve/health.py") == []
    inc_metric = (
        "class Orchestrator:\n"
        "    def restart(self):\n"
        "        try:\n"
        "            self.store.load()\n"
        "        except TransientStorageError:\n"
        "            self.gauge.inc()\n"
    )
    assert lint_source(inc_metric, "repro/serve/recovery.py") == []


def test_rp008_scope_is_health_and_recovery_only():
    src = (
        "class Reader:\n"
        "    def fetch(self):\n"
        "        try:\n"
        "            self.store.load()\n"
        "        except StorageFault:\n"
        "            pass\n"
    )
    # Outside the resilience modules other rules own this pattern.
    assert "RP008" not in codes(lint_source(src, "repro/serve/server.py"))
    assert "RP008" not in codes(lint_source(src, "repro/persist/store.py"))
    # Non-storage exceptions are out of scope even inside them.
    benign = (
        "class Monitor:\n"
        "    def probe(self, node):\n"
        "        try:\n"
        "            node.ping()\n"
        "        except ValueError:\n"
        "            pass\n"
    )
    assert "RP008" not in codes(lint_source(benign, "repro/serve/health.py"))


# -- RP009: cache writes from reuse planning code ------------------------------


def test_rp009_flags_cache_writes_in_reuse_modules():
    src = (
        "def plan(cache, key, num_slices):\n"
        "    entry = cache.lookup_part(key)\n"
        "    if entry is None:\n"
        "        entry = cache.get_or_create(key, num_slices, {})\n"
        "    return entry\n"
    )
    found = lint_source(src, "repro/reuse/compose.py")
    assert codes(found) == ["RP009"]
    assert "read-only" in found[0].message
    dropper = (
        "def refresh(cache, key):\n"
        "    cache.drop_stale(key)\n"
        "    cache.record_slice_scan(key, 0, None, 0)\n"
    )
    assert codes(lint_source(dropper, "repro/reuse/subsume.py")) == [
        "RP009",
        "RP009",
    ]


def test_rp009_allows_reads_and_other_modules():
    reads = (
        "def plan(cache, key, versions):\n"
        "    entry = cache.lookup_part(key, versions)\n"
        "    for candidate in cache.entries():\n"
        "        pass\n"
        "    return entry\n"
    )
    assert lint_source(reads, "repro/reuse/compose.py") == []
    # The same writer calls are fine outside repro/reuse/ — the
    # coordinator barrier in engine/scan.py is exactly where they go.
    writer = (
        "def barrier(cache, entry, s, lst, n):\n"
        "    cache.record_slice_scan(entry, s, lst, n)\n"
    )
    assert "RP009" not in codes(lint_source(writer, "repro/engine/scan.py"))


# -- the real tree -------------------------------------------------------------


# code -> (a fixture that must fire it, a near-miss that must not).
UNLOCKED = "class S:\n    def stop(self):\n        self._up = False\n"
LOCKED = (
    "class S:\n    def stop(self):\n"
    "        with self._lock:\n            self._up = False\n"
)
SWALLOW = "def probe(n):\n    try:\n        n.ping()\n    except NodeDownError:\n"
FIXTURES = {
    "RP001": ({"repro/core/k.py": "x = hash('k')\n"},
              {"repro/engine/hashing.py": "x = hash('k')\n"}),
    "RP002": ({"repro/core/k.py": "import time\nt = time.time()\n"},
              {"repro/core/k.py": "import time\nt = time.perf_counter()\n"}),
    "RP003": ({"repro/lake/scan.py": "try:\n    f()\nexcept:\n    raise\n"},
              {"repro/lake/scan.py": "try:\n    f()\nexcept OSError:\n    pass\n"}),
    "RP005": ({**FORMAT, "repro/persist/store.py": "ok = version == 1\n"},
              {**FORMAT, "repro/persist/store.py": "ok = count == 1\n"}),
    "RP006": ({"repro/engine/scan.py": "def _scan_slice(c):\n    c.drop_stale(1)\n"},
              {"repro/engine/scan.py": "def _install(c):\n    c.drop_stale(1)\n"}),
    "RP007": ({"repro/serve/server.py": UNLOCKED}, {"repro/serve/server.py": LOCKED}),
    "RP008": ({"repro/serve/health.py": SWALLOW + "        pass\n"},
              {"repro/serve/health.py": SWALLOW + "        raise\n"}),
    "RP009": ({"repro/reuse/compose.py": "def plan(c):\n    c.clear()\n"},
              {"repro/reuse/compose.py": "def plan(c):\n    c.entries()\n"}),
    **WHOLE_PROGRAM_FIXTURES,
}


def test_every_rule_has_a_firing_and_a_clean_fixture():
    """Adding a code to ``RULES`` without both fixtures fails here."""
    assert sorted(FIXTURES) == sorted(RULES)
    for code, (firing, clean) in FIXTURES.items():
        assert code in codes(check_sources(firing).findings), code
        assert code not in codes(check_sources(clean).findings), code


def test_src_tree_is_clean():
    assert check_paths([str(REPO / "src")]).unwaived == []


def test_cli_exit_codes(tmp_path):
    (tmp_path / "repro").mkdir()
    bad = tmp_path / "repro" / "core.py"
    bad.write_text("x = hash('k')\n")
    proc = subprocess.run(
        [sys.executable, "-m", "tools.check", str(tmp_path)],
        capture_output=True,
        text=True,
        cwd=REPO,
    )
    assert proc.returncode == 1
    assert "RP001" in proc.stdout
    clean = subprocess.run(
        [sys.executable, "-m", "tools.check", "src"],
        capture_output=True,
        text=True,
        cwd=REPO,
    )
    assert clean.returncode == 0


def test_list_rules():
    proc = subprocess.run(
        [sys.executable, "-m", "tools.check", "--list-rules"],
        capture_output=True,
        text=True,
        cwd=REPO,
    )
    assert proc.returncode == 0
    listed = [line.split()[0] for line in proc.stdout.splitlines()]
    assert listed == list(RULES) and len(listed) == 11 and "RP004" not in listed


@pytest.mark.skipif(
    not (REPO / "pyproject.toml").exists(), reason="needs repo checkout"
)
def test_ruff_and_mypy_pinned_in_dev_extra():
    text = (REPO / "pyproject.toml").read_text()
    assert "ruff==" in text
    assert "mypy==" in text
