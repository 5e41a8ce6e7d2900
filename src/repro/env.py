"""The process environment, read once at import — the only read site.

Three switches change how the program executes; CI and
``benchmarks/e2e/run.py`` set and clear them by name before the
package is imported.  Each consumer keeps its own programmatic
override (``invariants.enable()`` / ``disable()``,
``parallel.set_workers()``); tests that need a different *environment*
patch the constant here.
"""

from __future__ import annotations

import os

#: ``REPRO_PARALLEL``, stripped: ``""`` / ``"0"`` serial, ``"1"``
#: :data:`repro.engine.parallel.DEFAULT_WORKERS` scan workers, ``N >= 2``
#: that many (``engine/parallel.py`` does the parsing).
PARALLEL: str = os.environ.get("REPRO_PARALLEL", "").strip()

#: ``REPRO_VALIDATE``: anything but ``""`` / ``"0"`` arms the runtime
#: invariant validator (``invariants.ACTIVE`` starts from this).
VALIDATE: bool = os.environ.get("REPRO_VALIDATE", "") not in ("", "0")

#: ``REPRO_LOCK_WITNESS=1``: the ``obs.lockwitness`` factories hand out
#: instrumented locks.
LOCK_WITNESS: bool = os.environ.get("REPRO_LOCK_WITNESS", "") == "1"
