#!/usr/bin/env python3
"""The repo's end-to-end benchmark: SQL text in, checked result out.

    python3 benchmarks/e2e/run.py [--seed 11]            every workload
    python3 benchmarks/e2e/run.py --trace                per-layer run
    python3 benchmarks/e2e/run.py --smoke                1/10 size, <20 s
    python3 benchmarks/e2e/run.py --compare A.json B.json
    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

Without ``--workload`` each workload runs in its own fresh subprocess
(so ``peak_rss_mb`` and warm state are per workload) and one JSON
document is written.  With it, one workload runs in this process and the
last line of standard output is the driver's JSON object.  Metric
names, units, directions and bounds live in ``BENCHMARK.json``; the
README next to this file is the glossary.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

#: Switches that change how the program executes; the benchmark runs
#: the defaults, whatever the caller's shell has set.
SCRUBBED_ENV = (
    "REPRO_PARALLEL", "REPRO_SCAN_WORKERS", "REPRO_VALIDATE", "REPRO_LOCK_WITNESS",
)
#: Set-ups per run; ``setup_s`` is their median, the last one is used.
SETUP_REPEATS = 3
#: A traced run executes this share of the statements, twice (untraced
#: then traced, for ``bench.trace_overhead_share``).
TRACE_SHARE = 0.3
PINNED_SEEDS = (11, 12)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


# -- one workload, in this process ------------------------------------------------


@dataclass
class Outcome:
    """Everything one execution of a workload's statements produced."""

    clients: list  # program.Observed per client
    started: float  # perf_counter at the start of the timed section
    wall: float
    tail: Optional[object]  # program.Observed of the write tail
    after: list = field(default_factory=list)
    cache_bytes: int = 0
    cache_entries: int = 0
    final_tables: dict = field(default_factory=dict)
    # Deltas over the timed section, for the per-layer counters.
    cache_stats: Optional[object] = None
    reuse_serves: int = 0
    storage_stats: Optional[object] = None
    restart: Dict[str, float] = field(default_factory=dict)
    rejections: int = 0
    node_entries: List[int] = field(default_factory=list)
    journal_records: int = 0


def _import_program():
    """Import the benchmark's modules and ``repro`` from this checkout."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"e2e: no program to measure: {ROOT / 'src' / 'repro'} is missing")
    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import gen
    import layers
    import program
    import speed

    return gen, program, layers, speed


def _check_golden(gen, inputs, seed: int) -> None:
    if seed not in PINNED_SEEDS:
        return
    with open(HERE / "golden.json") as handle:
        pinned = json.load(handle)[str(seed)][inputs.workload]
    tables, statements = gen.digests(inputs)
    if (tables, statements) != (pinned["tables"], pinned["statements"]):
        sys.exit(
            f"e2e: gen.py drifted for seed {seed}, workload {inputs.workload}: "
            "later results would not compare with earlier ones. Restore gen.py, "
            "or re-pin golden.json in a PR that claims no gain."
        )


def _execute(program_module, prog, inputs, tick) -> Outcome:
    """Timed section, write tail and (served) restart step of one program."""
    from repro import ClusterCaches

    cache_before = prog.cache_stats()
    storage_before = prog.database.rms.stats.snapshot()
    journal_before = prog.store.journal_records if prog.store else 0
    started = time.perf_counter()
    if prog.server is not None:
        clients, wall = program_module.run_served(prog, inputs.scripts)
    else:
        clients = [program_module.run_direct(prog, inputs.scripts[0], tick)]
        wall = time.perf_counter() - started
    outcome = Outcome(clients, started, wall, None)
    outcome.cache_bytes = prog.cache.total_nbytes
    outcome.cache_entries = len(prog.cache)
    outcome.cache_stats = prog.cache_stats().delta(cache_before)
    outcome.storage_stats = prog.database.rms.stats.delta(storage_before)
    if isinstance(prog.cache, ClusterCaches):
        outcome.node_entries = prog.cache.per_node_entries()
        outcome.rejections = prog.server.admission.total_rejected
        outcome.journal_records = prog.store.journal_records - journal_before
    else:
        reuse = prog.cache.reuse_stats
        outcome.reuse_serves = reuse.composed_serves + reuse.subsumed_serves
    if inputs.tail:
        outcome.tail = program_module.run_direct(prog, inputs.tail, tick)
    if prog.server is not None:
        outcome.after, outcome.restart = program_module.restart_and_replay(
            prog, inputs.prefill
        )
    outcome.final_tables = program_module.table_checksums(prog.engine)
    return outcome


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _latencies(outcome: Outcome, probe, select: bool, section: str = "timed"):
    """Calibrated seconds of the SELECTs (or writes) of the timed
    section or of the tail."""
    groups = outcome.clients if section == "timed" else [outcome.tail]
    picked = []
    for seen in groups:
        if seen is not None:
            mask = [stmt.is_select == select for stmt in seen.script]
            picked.append(probe.calibrated(seen.started[mask], seen.seconds[mask]))
    return np.concatenate(picked) if picked else np.zeros(0)


def _end_to_end(outcome: Outcome, probe, setup_s: float, rss_mb: float,
                failed: int, attempted: int) -> Dict[str, float]:
    selects = _latencies(outcome, probe, True)
    writes = _latencies(outcome, probe, False)
    if not len(writes):
        writes = _latencies(outcome, probe, False, "tail")
    wall = probe.reference_seconds(outcome.started, outcome.started + outcome.wall)
    timed = sum(len(seen.script) for seen in outcome.clients)
    timed_errors = sum(len(seen.errors) for seen in outcome.clients)
    n = max(1, len(selects))
    return {
        "setup_s": setup_s,
        "stmt_per_s": (timed - timed_errors) / wall,
        "select_ms_p50": _percentile(selects, 50) * 1e3,
        "select_ms_p95": _percentile(selects, 95) * 1e3,
        "write_ms_p50": _percentile(writes, 50) * 1e3,
        "blocks_per_select": sum(s.blocks for s in outcome.clients) / n,
        "remote_fetches_per_select": sum(s.remote for s in outcome.clients) / n,
        "rows_scanned_per_select": sum(s.scanned for s in outcome.clients) / n,
        "cache_bytes": float(outcome.cache_bytes),
        "peak_rss_mb": rss_mb,
        "ok_share": (attempted - failed) / attempted,
    }


def _per_layer(outcome: Outcome, baseline: Outcome, probe, recorder, layers,
               calib_ms: float) -> Dict[str, float]:
    totals = recorder.totals()
    statements = recorder.statements()
    roots = max(1, len(statements))
    root_seconds = sum(seconds for _, seconds, _ in statements)
    # Self times are summed wall clock; one factor calibrates them all.
    quiet = probe.reference_seconds(
        outcome.started, outcome.started + outcome.wall
    ) / outcome.wall

    def total_ms(key: str) -> float:
        return totals[key][0] * 1e3 * quiet

    def per_statement_ms(key: str) -> float:
        return total_ms(key) / roots

    seen = outcome.clients
    selects = max(1, sum(s.is_select for c in seen for s in c.script))
    scanned = sum(c.scanned for c in seen)
    skipped = sum(c.skipped for c in seen)
    stats, storage = outcome.cache_stats, outcome.storage_stats
    queued = np.array([q for c in seen for q in c.queued])
    executing = np.array([e for c in seen for e in c.executing])
    traced_p50 = _percentile(_latencies(outcome, probe, True), 50)
    baseline_p50 = _percentile(_latencies(baseline, probe, True), 50)
    entries = outcome.node_entries
    values = {key + "_ms": per_statement_ms(key) for key in layers.LAYER_KEYS}
    for key in ("persist.snapshot", "persist.load", "persist.hydrate"):
        values[key + "_ms"] = total_ms(key)
    values.update({
        "predicates.rows_evaluated_per_row_out":
            scanned / max(1, sum(c.qualifying for c in seen)),
        "core.hit_rate": stats.hit_rate,
        "core.rows_skipped_share": skipped / max(1, skipped + scanned),
        "core.evictions": stats.evictions,
        "core.invalidations": stats.invalidations,
        "core.stale_installs": stats.stale_installs,
        "core.bytes_per_entry": outcome.cache_bytes / max(1, outcome.cache_entries),
        "reuse.served_share": outcome.reuse_serves / max(1, stats.lookups),
        "reuse.recheck_rows_per_select": sum(c.recheck for c in seen) / selects,
        "storage.read_block_calls_per_select":
            totals["storage.read_block"][1] / selects,
        "storage.local_hit_rate":
            storage.local_hits / max(1, storage.blocks_accessed),
        "storage.blocks_pruned_per_select": sum(c.pruned for c in seen) / selects,
        "engine.attributed_share":
            1.0 - totals[layers.ROOT_KEY][0] / root_seconds if root_seconds else 0.0,
        "persist.journal_bytes_per_install":
            recorder.bytes_framed / max(1, outcome.journal_records),
        "persist.snapshot_bytes_per_cache_byte":
            outcome.restart.get("snapshot_bytes_per_cache_byte", 0.0),
        "persist.warm_hit_retention": outcome.restart.get("warm_hit_retention", 0.0),
        "serve.queued_ms_p50": _percentile(queued, 50) * 1e3,
        "serve.queued_ms_p95": _percentile(queued, 95) * 1e3,
        "serve.exec_ms_p50": _percentile(executing, 50) * 1e3,
        "serve.rejections": outcome.rejections,
        "cluster.node_entry_skew":
            max(entries) / (sum(entries) / len(entries)) if sum(entries) else 0.0,
        "bench.calib_ms": calib_ms,
        "bench.trace_overhead_share":
            traced_p50 / baseline_p50 - 1.0 if baseline_p50 else 0.0,
    })
    values["engine.other_ms"] = values.pop(layers.ROOT_KEY + "_ms")
    return {name: float(value) for name, value in values.items()}


def _layer_table(recorder) -> List[Tuple[str, float, float]]:
    """(layer key, self ms per statement, calls per statement), largest first."""
    roots = max(1, len(recorder.statements()))
    rows = [
        (key, seconds / roots * 1e3, calls / roots)
        for key, (seconds, calls) in recorder.totals().items()
    ]
    return sorted(rows, key=lambda row: -row[1])


def run_one(args, spec: dict) -> int:
    gen, program, layers, speed = _import_program()
    seconds = spec["run_seconds"] / 10 if args.smoke else args.seconds
    scale = (seconds or spec["run_seconds"]) / spec["run_seconds"]
    if args.trace:
        scale *= TRACE_SHARE
    sample_every = 1 if args.smoke else program.ORACLE_SAMPLE
    store_dir = OUT / f"store-{os.getpid()}"
    OUT.mkdir(exist_ok=True)

    def set_up():
        started = time.perf_counter()
        full = gen.make_inputs(args.workload, args.seed)
        probe.tick()
        prog = program.build(full.truncated(scale), str(store_dir), probe.tick)
        return full, prog, (started, time.perf_counter())

    recorder = baseline = None
    setups: List[Tuple[float, float]] = []
    probe = speed.SpeedProbe()
    try:
        if args.trace:
            # Untraced pass first: the baseline of trace_overhead_share.
            full, prog, _ = set_up()
            _check_golden(gen, full, args.seed)
            baseline = _execute(program, prog, full.truncated(scale), probe.tick)
            prog.close()
            shutil.rmtree(store_dir, ignore_errors=True)
            recorder = layers.Recorder()
            recorder.install()
            full, prog, _ = set_up()
            recorder.enabled = True
        else:
            prog = None
            for _ in range(1 if args.smoke else SETUP_REPEATS):
                if prog is not None:
                    prog.close()
                    prog = None
                    shutil.rmtree(store_dir, ignore_errors=True)
                    gc.collect()
                full, prog, interval = set_up()
                setups.append(interval)
            _check_golden(gen, full, args.seed)
        inputs = full.truncated(scale)
        outcome = _execute(program, prog, inputs, probe.tick)
        probe.freeze()
        if recorder is not None:
            recorder.enabled = False
            recorder.uninstall()
        prog.close()
        # ru_maxrss is a high-water mark: read it before the oracle's
        # twin database doubles the footprint.
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        observed = list(outcome.clients) + ([outcome.tail] if outcome.tail else [])
        problems = [error for seen in observed for error in seen.errors]
        problems += program.check_against_oracle(
            inputs, observed, outcome.after, outcome.final_tables, sample_every
        )
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)

    attempted = sum(len(seen.script) for seen in observed) + len(outcome.after)
    failed = min(attempted, len(problems))
    for line in problems[:20]:
        print(f"FAILED {line}")
    selects = len(_latencies(outcome, probe, True))
    slow = outcome.wall / probe.reference_seconds(
        outcome.started, outcome.started + outcome.wall
    )
    print(
        f"{args.workload}: seed {args.seed}, {attempted} statements "
        f"({selects} SELECTs timed, p95 has {selects // 20} samples beyond it), "
        f"{len(outcome.clients)} closed-loop client(s), "
        f"timed section {outcome.wall:.2f} s at machine slowdown {slow:.3f} "
        f"(times are calibrated to it, see speed.py)"
        + (", CacheStore fsync=False" if args.workload == "served_mix" else "")
    )
    if recorder is None:
        setup_s = statistics.median(probe.reference_seconds(*span) for span in setups)
        metrics = _end_to_end(outcome, probe, setup_s, rss_mb, failed, attempted)
        declared = spec["end_to_end"]
    else:
        metrics = _per_layer(
            outcome, baseline, probe, recorder, layers, speed.calibration_ms()
        )
        declared = spec["per_layer"]
        with open(OUT / f"trace_{args.workload}.json", "w") as handle:
            json.dump(recorder.chrome_trace(), handle)
        print(f"trace: {OUT / f'trace_{args.workload}.json'} (chrome://tracing)")
        print(f"{'layer':24s} {'self ms/stmt':>12s} {'calls/stmt':>11s}")
        for key, self_ms, calls in _layer_table(recorder):
            print(f"{key:24s} {self_ms:12.4f} {calls:11.1f}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }
    for name, entry in result["metrics"].items():
        print(f"  {name:40s} {entry['value']:16.6f} {entry['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# -- every workload, each in its own subprocess -------------------------------------


def _metadata() -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    sys.path.insert(0, str(HERE))
    import speed

    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "bench.calib_ms": speed.calibration_ms(),
    }


def run_all(args, spec: dict) -> int:
    names = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    document = {
        "meta": _metadata(),
        "seed": args.seed,
        "seconds": spec["run_seconds"] / 10 if args.smoke else seconds,
        "trace": args.trace,
        "runs": args.runs,
        "workloads": {},
    }
    ok = True
    for run in range(args.runs):
        for name in names:
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(seconds),
                "--trace", str(args.trace),
            ] + (["--smoke"] if args.smoke else [])
            done = subprocess.run(command, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode not in (0, 1) or not lines:
                sys.stderr.write(done.stdout + done.stderr)
                sys.exit(f"e2e: workload {name} did not produce a result")
            result = json.loads(lines[-1])
            ok = ok and result["correct"] and done.returncode == 0
            print("\n".join(line for line in lines[:-1] if not line.startswith("  ")))
            entry = document["workloads"].setdefault(
                name, {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            )
            entry["correct"] = entry["correct"] and result["correct"]
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            for metric, measured in result["metrics"].items():
                slot = entry["metrics"].setdefault(
                    metric, {"unit": measured["unit"], "values": []}
                )
                slot["values"].append(measured["value"])
    print(f"\n{'workload':16s} {'metric':40s} {'median':>16s} unit")
    for name, entry in document["workloads"].items():
        for metric, slot in entry["metrics"].items():
            slot["median"] = statistics.median(slot["values"])
            print(f"{name:16s} {metric:40s} {slot['median']:16.6f} {slot['unit']}")
        print(f"{name:16s} {'correct':40s} {str(entry['correct']):>16s} "
              f"({entry['failed']} of {entry['attempted']} failed)")
    OUT.mkdir(exist_ok=True)
    target = Path(args.out) if args.out else OUT / (
        "e2e_layers.json" if args.trace else "e2e.json"
    )
    with open(target, "w") as handle:
        json.dump(document, handle, indent=1)
    print(f"\nwrote {target}")
    return 0 if ok else 1


# -- comparing two documents -----------------------------------------------------------


def _spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def compare(path_a: str, path_b: str, spec: dict) -> int:
    """One row per workload x end-to-end metric: B against A.

    ``unresolved`` when either side's run-to-run spread is wider than
    the metric's bound; otherwise B's median against A's, as a share of
    A's: ``worse`` / ``better`` beyond the bound, else ``within bound``.
    """
    with open(path_a) as handle:
        doc_a = json.load(handle)
    with open(path_b) as handle:
        doc_b = json.load(handle)
    verdicts: Dict[str, int] = {}
    print(f"{'workload':16s} {'metric':28s} {'A median':>14s} {'B median':>14s} "
          f"{'change':>8s} {'spread':>7s} {'bound':>6s}  verdict")
    for workload in doc_a["workloads"]:
        metrics_a = doc_a["workloads"][workload]["metrics"]
        metrics_b = doc_b["workloads"].get(workload, {}).get("metrics", {})
        for declared in spec["end_to_end"]:
            name, bound = declared["name"], declared["bound"]
            if name not in metrics_a or name not in metrics_b:
                continue
            a, b = metrics_a[name]["values"], metrics_b[name]["values"]
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse_by = (med_b - med_a) / abs(med_a) if med_a else 0.0
            if declared["better"] == "higher":
                worse_by = -worse_by
            spread = max(_spread(a), _spread(b))
            if spread > bound:
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = "worse"
            elif worse_by < -bound:
                verdict = "better"
            else:
                verdict = "within bound"
            verdicts[verdict] = verdicts.get(verdict, 0) + 1
            print(f"{workload:16s} {name:28s} {med_a:14.4f} {med_b:14.4f} "
                  f"{-worse_by:+8.2%} {spread:7.2%} {bound:6.2%}  {verdict}")
    print(", ".join(f"{count} {verdict}" for verdict, count in sorted(verdicts.items())))
    return 1 if verdicts.get("worse") or verdicts.get("unresolved") else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=11,
                        help="the only input argument (12 is the held-out seed)")
    parser.add_argument("--workload", help="run this one workload in-process")
    parser.add_argument("--seconds", type=float,
                        help="scale of the timed section (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer run (shorter, shimmed)")
    parser.add_argument("--smoke", action="store_true",
                        help="one tenth of the statements, oracle checks them all")
    parser.add_argument("--runs", type=int, default=1,
                        help="repeat every workload this often (for --compare)")
    parser.add_argument("--out", help="where to write the JSON document")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)
    if args.workload:
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            parser.error(f"unknown workload {args.workload!r}")
        return run_one(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
