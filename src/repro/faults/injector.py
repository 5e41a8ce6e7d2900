"""Seeded, deterministic fault injection for storage reads and writes.

A :class:`FaultInjector` is consulted once per attempt of every remote
fetch (managed storage, the lake scanner), snapshot write and journal
append (the cache store).  One method decides every fault:
:meth:`FaultInjector.decide`, keyed by *what* is read or written,
*which* read or write of it this is (:meth:`FaultInjector.next_ordinal`)
and the retry attempt.  The attempt's own stream, seeded from ``(seed,
key, ordinal, attempt)``, yields its verdict, corruption shape and retry
jitter, so a replay with the same seed meets byte-identical faults
however its reads and writes interleave — the property the chaos
differential oracle depends on.

Two planning modes:

* **probability-driven** (the default): each attempt independently
  fails with ``error_rate``, returns corrupted bytes with
  ``corruption_rate``, and suffers extra latency with ``latency_rate``.
* **schedule-driven**: an explicit ``{index: kind}`` mapping pins
  faults to the listed ``decide`` calls (unit tests, regression
  reproductions).  Kinds are ``"error"``, ``"corrupt"``, ``"latency"``.

Injected latency is *model time*: it is accumulated into counters the
cost model folds into ``model_seconds`` — there are no real sleeps
anywhere in the layer.  The ordinals and counters are guarded by an
internal lock.
"""

from __future__ import annotations

import hashlib
import random
import threading
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

__all__ = ["FaultDecision", "FaultInjector"]


@dataclass(frozen=True)
class FaultDecision:
    """The injector's verdict for one fetch attempt."""

    fail: bool = False
    corrupt: bool = False
    latency_seconds: float = 0.0


class FaultInjector:
    """Deterministic fault plan for storage reads and cache-store writes.

    Args:
        seed: seeds every attempt's stream (verdicts, corruption shapes,
            jitter).
        error_rate: per-attempt probability of a transient I/O error
            (a torn write on the store).
        corruption_rate: per-attempt probability the payload is
            corrupted (bit flip or truncation, chosen by the stream).
        latency_rate: per-attempt probability of added latency.
        latency_seconds: model-time latency added when drawn.
        schedule: explicit ``{index: kind}`` plan; when given, the
            probabilistic rates are ignored and only listed attempts
            fault.  Indices count every :meth:`decide` call.
    """

    def __init__(
        self,
        seed: int = 0,
        error_rate: float = 0.0,
        corruption_rate: float = 0.0,
        latency_rate: float = 0.0,
        latency_seconds: float = 0.05,
        schedule: Optional[Mapping[int, str]] = None,
    ) -> None:
        for name, rate in (
            ("error_rate", error_rate),
            ("corruption_rate", corruption_rate),
            ("latency_rate", latency_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        self.seed = seed
        self.error_rate = error_rate
        self.corruption_rate = corruption_rate
        self.latency_rate = latency_rate
        self.latency_seconds = latency_seconds
        self.schedule = dict(schedule) if schedule is not None else None
        self._lock = threading.Lock()
        # Reads or writes decided so far, per key (see next_ordinal).
        self._ordinals: Dict[object, int] = {}
        # Monotonic counters (scrape-time metrics read these directly).
        self.reads_seen = 0
        self.errors_injected = 0
        self.corruptions_injected = 0
        self.latency_injected_seconds = 0.0

    @property
    def can_fault(self) -> bool:
        """True if any fetch could ever fault under this plan.

        Read paths use this to keep the fast path when an injector is
        attached but configured with zero rates and no schedule — "no
        faults configured" must cost nothing on the scan path.
        """
        if self.schedule is not None:
            return bool(self.schedule)
        return (
            self.error_rate > 0.0
            or self.corruption_rate > 0.0
            or self.latency_rate > 0.0
        )

    # -- decisions -------------------------------------------------------------

    def next_ordinal(self, key: object) -> int:
        """Which read or write of ``key`` comes next (0 for the first).

        Counted by the injector, not by the caller, so a restarted
        store's first append of a record is not its predecessor's.
        """
        with self._lock:
            ordinal = self._ordinals.get(key, 0)
            self._ordinals[key] = ordinal + 1
        return ordinal

    def decide(
        self, key: object, ordinal: int, attempt: int = 0
    ) -> Tuple[FaultDecision, random.Random]:
        """The verdict for one attempt of one read or write, and its stream.

        The stream is seeded from ``(seed, key, ordinal, attempt)`` by a
        stable hash (builtin ``hash`` is salted per process).  In
        probability mode the verdict is drawn from it: fail, then
        corrupt, then latency.  A schedule replaces the rates.
        """
        material = repr((self.seed, key, ordinal, attempt)).encode()
        digest = hashlib.blake2b(material, digest_size=8).digest()
        stream = random.Random(int.from_bytes(digest, "big"))
        with self._lock:
            if self.schedule is not None:
                kind = self.schedule.get(self.reads_seen)
                decision = FaultDecision() if kind is None else self._scheduled(kind)
            else:
                fail = self.error_rate > 0.0 and stream.random() < self.error_rate
                corrupt = (
                    not fail
                    and self.corruption_rate > 0.0
                    and stream.random() < self.corruption_rate
                )
                latency = self.latency_rate > 0.0 and stream.random() < self.latency_rate
                decision = FaultDecision(
                    fail, corrupt, self.latency_seconds if latency else 0.0
                )
            self.reads_seen += 1
            self.errors_injected += decision.fail
            self.corruptions_injected += decision.corrupt
            self.latency_injected_seconds += decision.latency_seconds
        return decision, stream

    def _scheduled(self, kind: str) -> FaultDecision:
        if kind == "error":
            return FaultDecision(fail=True)
        if kind == "corrupt":
            return FaultDecision(corrupt=True)
        if kind == "latency":
            return FaultDecision(latency_seconds=self.latency_seconds)
        raise ValueError(f"unknown scheduled fault kind {kind!r}")

    # -- corruption ------------------------------------------------------------

    @staticmethod
    def corrupt_array(values: np.ndarray, rng: random.Random) -> np.ndarray:
        """A corrupted *copy* of ``values`` (the original is never touched).

        Two shapes, chosen by ``rng`` (the attempt's stream from
        :meth:`decide`): truncation (a short read drops the tail) and a
        bit flip in one element.  Either is guaranteed to fail checksum
        verification against the clean payload.
        """
        if len(values) == 0:
            # Nothing to flip; model an impossible phantom row instead.
            return np.array(["\x00phantom"], dtype=object)
        if len(values) > 1 and rng.random() < 0.5:
            cut = rng.randrange(1, len(values))
            return values[:cut].copy()
        out = values.copy()
        index = rng.randrange(len(out))
        if out.dtype == object:
            out[index] = str(out[index]) + "\x00"
        else:
            flat = out.view(np.uint8)
            byte = rng.randrange(len(flat))
            flat[byte] ^= np.uint8(1 << rng.randrange(8))
        return out

    # -- observability ---------------------------------------------------------

    def register_metrics(self, registry, prefix: str = "repro_faults") -> None:
        """Expose the injector's counters on a metrics registry."""
        registry.counter(
            f"{prefix}_reads_seen_total", "Read and write attempts decided",
            fn=lambda: self.reads_seen,
        )
        registry.counter(
            f"{prefix}_errors_injected_total", "Transient errors injected",
            fn=lambda: self.errors_injected,
        )
        registry.counter(
            f"{prefix}_corruptions_injected_total", "Corrupted payloads injected",
            fn=lambda: self.corruptions_injected,
        )
        registry.counter(
            f"{prefix}_latency_injected_seconds_total",
            "Model-time latency injected",
            fn=lambda: self.latency_injected_seconds,
        )
