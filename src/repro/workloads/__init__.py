"""Workloads: benchmark datasets, query sets, and workload simulators.

* :mod:`repro.workloads.tpch` — TPC-H dbgen (uniform and skewed [3])
  plus the 22-query set (simplified to the engine's SQL subset),
* :mod:`repro.workloads.ssb` — the Star Schema Benchmark,
* :mod:`repro.workloads.tpcds_lite` — a TPC-DS-shaped store-sales slice,
* :mod:`repro.workloads.fleet` — the fleet-of-clusters simulator behind
  the paper's Section 2 workload analysis,
* :mod:`repro.workloads.customer` — the paper's internal customer
  Workloads A and B (hit-rate and scan-repetition experiments).
"""

from . import customer, fleet, ssb, tpcds_lite, tpch

__all__ = [
    "customer",
    "fleet",
    "ssb",
    "tpch",
    "tpcds_lite",
]
