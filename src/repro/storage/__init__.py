"""Columnar storage engine substrate.

A laptop-scale analogue of Redshift's storage architecture (§4.2.1):

* relations are split into **data slices** by a distribution key,
* each slice stores columns as fixed-size **compressed blocks**
  (frame-of-reference, run-length, dictionary codecs),
* every block carries a **zone map** (min/max) for block pruning,
* visibility is **MVCC** with per-row creation/deletion transaction ids;
  deletes mark, **vacuum** physically reclaims and re-numbers rows,
* blocks live on **managed storage** (:mod:`repro.storage.rms`) and are
  fetched through a local block residency cache with per-fetch cost
  accounting; each column keeps its decoded values in one array.
"""

from .dtypes import DataType, date_to_days, days_to_date
from .table import ColumnSpec, Table, TableSchema
from .database import Database
from .rms import ManagedStorage, StorageStats

__all__ = [
    "ColumnSpec",
    "DataType",
    "Database",
    "ManagedStorage",
    "StorageStats",
    "Table",
    "TableSchema",
    "date_to_days",
    "days_to_date",
]
