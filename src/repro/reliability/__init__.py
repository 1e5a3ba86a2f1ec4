"""Fault tolerance for the incremental update pipeline.

The online-service regime the ROADMAP targets (ground -> patch -> relearn
batches behind live reads) assumes a process that survives: an exception
mid-update must not leave the compiled CSR substrate half-patched, and a
crash must leave a log the next process can replay.  This package supplies

- typed failure signals (:mod:`repro.reliability.errors`),
- a seeded retry/backoff policy (:mod:`repro.reliability.retry`),
- a deterministic fault-injection harness (:mod:`repro.reliability.faults`),
- a write-ahead delta log (:mod:`repro.reliability.wal`),
- bounded engine snapshots for commit-or-rollback updates
  (:mod:`repro.reliability.snapshots`), and
- a WAL-driven ground->patch->relearn orchestrator
  (:mod:`repro.reliability.pipeline`).
"""

from repro.reliability.errors import (
    FaultInjected,
    ProcessCrash,
    ReliabilityError,
    RollbackError,
    WALCorruptionError,
)
from repro.reliability.faults import (
    INJECTION_POINTS,
    Fault,
    FaultPlan,
    inject_faults,
    maybe_fire,
)
from repro.reliability.pipeline import ReliableUpdatePipeline, replay_payload
from repro.reliability.retry import RetryPolicy
from repro.reliability.wal import DeltaLog

__all__ = [
    "DeltaLog",
    "Fault",
    "FaultInjected",
    "FaultPlan",
    "INJECTION_POINTS",
    "ProcessCrash",
    "ReliabilityError",
    "ReliableUpdatePipeline",
    "RetryPolicy",
    "RollbackError",
    "WALCorruptionError",
    "inject_faults",
    "maybe_fire",
    "replay_payload",
]
