"""Campaign store: the unified results API and its named queries.

The package has four layers, importable a la carte:

* :mod:`repro.store.api` -- the :class:`RowSink` protocol every row
  store implements, plus :func:`write_rows`, the single
  export entry point behind the CLIs' ``--out`` flags.
* :mod:`repro.store.columnar` -- :class:`CampaignStore`, JSONL partitions
  published through an atomic manifest.
* :mod:`repro.store.queries` -- named pure-python queries over the stored
  records.
* :mod:`repro.store.validate` -- the paper's ratio bounds as validation
  rules; :mod:`repro.store.ingest` -- lands a CSV/JSONL/Parquet row
  export (any ``--out`` file) in a store.

Only the standard library and numpy are required; pyarrow is the optional
``[analytics]`` extra, needed only to export or import ``.parquet`` files.
"""

from repro.store.api import (
    FORMATS,
    RowSink,
    StoreUnavailableError,
    compose_row,
    infer_format,
    read_rows,
    union_columns,
    write_rows,
)
from repro.store.columnar import CampaignStore, Partition, StoreStats
from repro.store.queries import QUERIES, Query, QueryError, get_query, run_query
from repro.store.validate import RULES, RuleResult, ValidationRule, validate_store

__all__ = [
    "FORMATS",
    "QUERIES",
    "Query",
    "QueryError",
    "RULES",
    "RowSink",
    "RuleResult",
    "CampaignStore",
    "Partition",
    "StoreStats",
    "StoreUnavailableError",
    "ValidationRule",
    "compose_row",
    "get_query",
    "infer_format",
    "read_rows",
    "run_query",
    "union_columns",
    "validate_store",
    "write_rows",
]
