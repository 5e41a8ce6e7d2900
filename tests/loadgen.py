"""Seeded closed-loop load generation for the serving tests (DESIGN.md §12).

A :class:`LoadGenerator` deterministically expands a seed into
per-client SQL scripts shaped like the paper's fleet traffic: a hot set
of repeating scans (the predicate cache's bread and butter), a stream
of ad-hoc one-off scans, and occasional DML that invalidates cached
entries.  Scripts are pure data — the same ``(seed, shape)`` always
yields byte-identical statement lists, so a concurrent run can be
replayed serially for differential testing.

:func:`run_closed_loop` drives a :class:`~repro.serve.QueryServer` with
one thread per client, each submitting its next statement only after
the previous response arrives (closed-loop: offered load adapts to
service rate).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.serve import Request, RequestStatus, Response
from repro.storage import ColumnSpec, DataType, TableSchema

#: Columns every generated table carries.
COLUMNS = ("k", "v", "bucket")
#: Half-open upper bound of the ``k`` column and of generated keys.
KEY_SPACE = 10_000
#: Size of each client's hot scan pool.
HOT_TEMPLATES = 8


@dataclass(frozen=True)
class LoadScript:
    """One client's deterministic statement sequence."""

    client_id: int
    tenant: str
    statements: Sequence[str]


class LoadGenerator:
    """Expands a seed into per-client SQL scripts.

    Args:
        num_clients: concurrent clients to script for.
        statements_per_client: script length.
        seed: master seed; client ``i`` derives its stream from
            ``seed + i`` so adding clients never perturbs existing
            scripts.
        shared_table: when True every client hits one table
            (``load_shared``) — contended mode for chaos testing; when
            False client ``i`` owns ``load_c{i}`` — disjoint mode, where
            concurrent execution is bit-identical to serial replay.
        hot_fraction: probability a statement repeats one of the
            client's hot scan templates (cache-hit traffic).
        dml_fraction: probability a statement is an invalidating write
            (DELETE, UPDATE, or VACUUM); the rest are ad-hoc scans.
    """

    def __init__(
        self,
        num_clients: int,
        statements_per_client: int,
        seed: int = 0,
        shared_table: bool = False,
        hot_fraction: float = 0.6,
        dml_fraction: float = 0.0,
    ) -> None:
        if num_clients < 1:
            raise ValueError("num_clients must be >= 1")
        if not 0.0 <= hot_fraction + dml_fraction <= 1.0:
            raise ValueError("hot_fraction + dml_fraction must be within [0, 1]")
        self.num_clients = num_clients
        self.statements_per_client = statements_per_client
        self.seed = seed
        self.shared_table = shared_table
        self.hot_fraction = hot_fraction
        self.dml_fraction = dml_fraction

    def table_for(self, client_id: int) -> str:
        return "load_shared" if self.shared_table else f"load_c{client_id}"

    def tables(self) -> List[str]:
        """Distinct tables the scripts reference, in client order."""
        names: List[str] = []
        for client in range(self.num_clients):
            name = self.table_for(client)
            if name not in names:
                names.append(name)
        return names

    def scripts(self) -> List[LoadScript]:
        """The deterministic per-client scripts for this configuration."""
        return [self._script_for(client) for client in range(self.num_clients)]

    def _script_for(self, client_id: int) -> LoadScript:
        rng = np.random.default_rng(self.seed + client_id)
        table = self.table_for(client_id)
        # The hot pool is fixed up front so repeats are literal repeats
        # (same statement text → same scan key → predicate-cache hit).
        hot_pool = [self._scan_sql(table, rng) for _ in range(HOT_TEMPLATES)]
        statements: List[str] = []
        for _ in range(self.statements_per_client):
            draw = rng.random()
            if draw < self.hot_fraction:
                statements.append(hot_pool[int(rng.integers(len(hot_pool)))])
            elif draw < self.hot_fraction + self.dml_fraction:
                statements.append(self._dml_sql(table, rng))
            else:
                statements.append(self._scan_sql(table, rng))
        return LoadScript(
            client_id=client_id,
            tenant=f"tenant_{client_id}",
            statements=tuple(statements),
        )

    def _scan_sql(self, table: str, rng: np.random.Generator) -> str:
        lo = int(rng.integers(0, KEY_SPACE))
        width = int(rng.integers(50, 500))
        if rng.random() < 0.5:
            return (
                f"select count(*) from {table} "
                f"where k >= {lo} and k < {lo + width}"
            )
        bucket = int(rng.integers(0, 50))
        return (
            f"select sum(v) from {table} "
            f"where bucket = {bucket} and k >= {lo} and k < {lo + width}"
        )

    def _dml_sql(self, table: str, rng: np.random.Generator) -> str:
        kind = rng.random()
        if kind < 0.4:
            key = int(rng.integers(0, KEY_SPACE))
            return f"delete from {table} where k = {key}"
        if kind < 0.8:
            key = int(rng.integers(0, KEY_SPACE))
            bump = int(rng.integers(1, 10))
            return f"update {table} set v = {bump} where k = {key}"
        return f"vacuum {table}"


def setup_load_tables(engine, generator: LoadGenerator, rows_per_table: int = 20_000):
    """Create + populate every table a generator's scripts reference;
    returns ``engine``.

    Row content is seeded by the generator's own seed, so two databases
    set up with the same arguments hold identical data — required by
    the differential oracle.
    """
    for name in generator.tables():
        # SeedSequence takes integer entropy; fold the table name in so
        # shared and per-client tables get distinct but stable content.
        rng = np.random.default_rng([generator.seed, *name.encode()])
        engine.database.create_table(
            TableSchema(
                name,
                tuple(ColumnSpec(column, DataType.INT64) for column in COLUMNS),
            )
        )
        engine.insert(
            name,
            {
                "k": rng.integers(0, KEY_SPACE, rows_per_table),
                "v": rng.integers(0, 1000, rows_per_table),
                "bucket": rng.integers(0, 50, rows_per_table),
            },
        )
    return engine


@dataclass
class LoadReport:
    """What a closed-loop run observed, per client.

    ``responses`` holds each client's *terminal* responses in statement
    order.  Rejections a closed-loop client retried through (admission
    pushback) never become terminal, so they are tallied separately in
    ``rejections`` — keyed by client, then by shed reason — which is
    what makes an overloaded run diagnosable.
    """

    responses: Dict[int, List[Response]] = field(default_factory=dict)
    rejections: Dict[int, Dict[str, int]] = field(default_factory=dict)

    @property
    def total_requests(self) -> int:
        return sum(len(r) for r in self.responses.values())

    def count(self, status: RequestStatus) -> int:
        """Terminal responses with ``status``."""
        return sum(
            response.status is status
            for responses in self.responses.values()
            for response in responses
        )

    def note_rejection(self, client_id: int, reason: str) -> None:
        """Record one retried rejection (called by the client's own thread)."""
        per_client = self.rejections.setdefault(client_id, {})
        per_client[reason] = per_client.get(reason, 0) + 1

    @property
    def total_rejections(self) -> int:
        """Rejections clients retried through (not terminal responses)."""
        return sum(
            count
            for per_client in self.rejections.values()
            for count in per_client.values()
        )

    def rejections_by_reason(self) -> Dict[str, int]:
        """Retried rejections summed across clients, keyed by shed reason."""
        totals: Dict[str, int] = {}
        for per_client in self.rejections.values():
            for reason, count in per_client.items():
                totals[reason] = totals.get(reason, 0) + count
        return totals

    @property
    def errors(self) -> int:
        return self.count(RequestStatus.ERROR)


def run_closed_loop(server, scripts: Sequence[LoadScript]) -> LoadReport:
    """Drive the server with one closed-loop thread per script.

    Each client thread submits its statements strictly in order,
    waiting for every response before sending the next — a rejected
    statement is retried until admitted (closed-loop clients back off
    by blocking, they do not drop work), so every script runs to
    completion and differential comparisons see all statements.  Every
    retried rejection is recorded on the report by shed reason, so
    overloaded runs stay diagnosable.
    """
    report = LoadReport(responses={script.client_id: [] for script in scripts})

    def client_loop(script: LoadScript) -> None:
        sink = report.responses[script.client_id]
        for sql in script.statements:
            while True:
                response = server.submit(
                    Request(sql, tenant=script.tenant)
                ).result()
                if response.status is not RequestStatus.REJECTED:
                    sink.append(response)
                    break
                # Admission pushed back: record why, yield, retry.
                report.note_rejection(
                    script.client_id, response.shed_reason or "admission"
                )
                time.sleep(0.0005)

    threads = [
        threading.Thread(
            target=client_loop, args=(script,), name=f"loadgen-{script.client_id}"
        )
        for script in scripts
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return report
