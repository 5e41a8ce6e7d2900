"""Column data types.

The engine supports four logical types, all backed by numpy arrays:

* ``INT64``   — 64-bit integers,
* ``FLOAT64`` — 64-bit floats (used for decimals; TPC-H prices etc.),
* ``STRING``  — strings, stored dictionary-encoded (codes + dictionary),
* ``DATE``    — days since 1970-01-01, stored as int64.

Dates are integers internally so that range predicates over dates are
ordinary integer comparisons, exactly like Redshift's date encoding.
"""

from __future__ import annotations

import datetime as _dt
from enum import Enum
from typing import Union

import numpy as np

__all__ = ["DataType", "date_to_days", "days_to_date", "EPOCH"]

EPOCH = _dt.date(1970, 1, 1)


class DataType(Enum):
    """Logical column type."""

    INT64 = "int64"
    FLOAT64 = "float64"
    STRING = "string"
    DATE = "date"

    @property
    def numpy_dtype(self) -> np.dtype:
        """Physical numpy dtype of the decoded column values."""
        if self in (DataType.INT64, DataType.DATE):
            return np.dtype(np.int64)
        if self is DataType.FLOAT64:
            return np.dtype(np.float64)
        # Strings decode to object arrays; most operations run on the
        # dictionary codes instead.
        return np.dtype(object)

    @property
    def is_numeric(self) -> bool:
        return self in (DataType.INT64, DataType.FLOAT64, DataType.DATE)


def date_to_days(value: Union[str, _dt.date, int]) -> int:
    """Convert a date (``'1995-01-31'``, date object, or days) to days.

    Example:
        >>> date_to_days("1970-01-11")
        10
    """
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        value = _dt.date.fromisoformat(value)
    return (value - EPOCH).days


def days_to_date(days: int) -> _dt.date:
    """Inverse of :func:`date_to_days`."""
    return EPOCH + _dt.timedelta(days=int(days))
