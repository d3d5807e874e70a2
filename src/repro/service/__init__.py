"""Serving layer: persisted strategies + privacy-accounted query traffic.

HDMM's economics (paper Section 3.6): SELECT is expensive but
data-independent — fit once, reuse forever; MEASURE spends privacy
budget — spend once, post-process forever.  This package turns those two
facts into a service:

* :mod:`~repro.service.fingerprint` — canonical workload keys, so
  semantically equal workloads resolve to the same strategy anywhere;
* :mod:`~repro.service.registry` — on-disk store (npz + JSON manifest)
  of fitted strategies, persisted with their solver factorizations;
* :mod:`~repro.service.accountant` — per-dataset epsilon ledger
  (sequential + parallel composition, hard caps, raises before noise);
* :mod:`~repro.service.ledger` — the accountant's durable half: an
  append-only checksummed write-ahead ledger, fsync'd before noise is
  drawn, replayed (torn tail truncated) by
  :meth:`PrivacyAccountant.recover`, with an ``flock``-serialized
  cross-process compare-and-debit;
* :mod:`~repro.service.engine` — the :class:`QueryService` front end:
  free answers from cached reconstructions, batched accounted
  measurement for everything else;
* :mod:`~repro.service.accelerator` — summed-area tables over cached
  reconstructions: box-decomposable hits (ranges, prefixes, marginals,
  totals, bucketizations) answer by an O(2^k) corner gather independent
  of domain size — the first route in the serving table (accelerator →
  cache → warm → direct → cold);
* both stores route every write/fsync/replace/load through the fault
  points of :mod:`repro.util.faults` (kill-points, bit flips, transient
  errnos), driven by the crash matrix in ``tests/test_faults.py``.
"""

from ..domain import SchemaMismatchError
from .accelerator import (
    AcceleratorTable,
    RangeSpec,
    range_spec_of,
    strategy_spans_everything,
)
from .accountant import BudgetExceededError, LedgerEntry, PrivacyAccountant
from .ledger import WriteAheadLedger
from .engine import (
    BatchResult,
    MissRoute,
    QueryAnswer,
    QueryMiss,
    QueryService,
    Reconstruction,
    ServeResult,
    in_measured_span,
)
from .fingerprint import canonical_config, config_digest, workload_fingerprint
from .registry import RegistryCorruptionError, StrategyRecord, StrategyRegistry

__all__ = [
    "AcceleratorTable",
    "BatchResult",
    "BudgetExceededError",
    "LedgerEntry",
    "MissRoute",
    "PrivacyAccountant",
    "QueryAnswer",
    "QueryMiss",
    "QueryService",
    "RangeSpec",
    "Reconstruction",
    "RegistryCorruptionError",
    "SchemaMismatchError",
    "ServeResult",
    "StrategyRecord",
    "StrategyRegistry",
    "WriteAheadLedger",
    "canonical_config",
    "config_digest",
    "in_measured_span",
    "range_spec_of",
    "strategy_spans_everything",
    "workload_fingerprint",
]
