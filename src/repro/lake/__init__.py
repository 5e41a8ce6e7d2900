"""Open-data-format support: predicate caching over a data lake (§4.5).

Cloud warehouses increasingly scan open formats — Parquet files grouped
into Iceberg/Delta tables — that the warehouse does not own: other
engines add and remove files, and the warehouse cannot reorganize the
layout.  The paper argues predicate caching is the *only* one of the
studied techniques that still works there, because it needs no
ownership: it only requires (a) stable row addressing, (b) infrequent
row-number changes, and (c) detectable changes for invalidation.

This package provides that substrate:

* :mod:`repro.lake.format` — a Parquet-shaped file format: immutable
  files of row groups, each group carrying per-column min/max
  statistics and compressed column chunks,
* :mod:`repro.lake.table` — an Iceberg-shaped table: snapshots that add
  or remove whole files, with time travel between snapshots,
* :mod:`repro.lake.scan` — a scanning engine on the shared
  :class:`~repro.core.cache.PredicateCache`, addressing row groups by
  their ordinal in commit order; appended files are the uncached tail,
  removed files invalidate nothing.
"""

from .format import ColumnChunk, LakeFile, RowGroup, write_file
from .scan import LakeScanner, LakeScanStats
from .table import LakeSnapshot, LakeTable

__all__ = [
    "ColumnChunk",
    "LakeFile",
    "LakeScanner",
    "LakeScanStats",
    "LakeSnapshot",
    "LakeTable",
    "RowGroup",
    "write_file",
]
