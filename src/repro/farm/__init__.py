"""Parallel tester-farm execution for characterization campaigns.

Real characterization floors get their throughput from two levers: making
each measurement cheaper (the paper's SUTP, section 4) and running many
testers at once over a lot.  This package is the second lever:

* :mod:`repro.farm.workunit` — deterministic, serializable shards of a
  campaign (one die x test set, one environmental-grid cell, one wafer
  site) with per-unit seeds derived from ``(campaign_seed, unit_key)``;
* :mod:`repro.farm.executor` — :class:`SerialExecutor` and the process-
  pool :class:`ParallelExecutor` behind one interface, with per-unit
  timeouts, bounded retry and order-deterministic result merge;
* :mod:`repro.farm.scheduler` — longest-first dispatch by each unit's
  static cost hint, plus the section-4 reference-trip-point broadcast;
* :mod:`repro.farm.checkpoint` — JSONL checkpoint store so an
  interrupted lot, wafer, sweep, screen or shmoo resumes without
  re-measuring finished units;
* :mod:`repro.farm.remote` — the distributed farm: a TCP broker with
  work-stealing dispatch, leases and heartbeats, elastic socket workers
  (``repro farm-worker``) and the :class:`~repro.farm.remote.
  RemoteExecutor` backend, all behind the same
  :class:`~repro.farm.executor.Executor` contract.

``LotCharacterizer``, ``EnvironmentalSweep``, ``WaferProber``,
``run_screen_farm`` and ``run_campaign`` always run as work units on the
one ``executor=`` they are given (a :class:`SerialExecutor` when it is
omitted).  The CLI's global ``--workers N``, ``--broker HOST:PORT`` and
``--resume FILE`` flags become that executor in
:func:`~repro.farm.executor.make_executor`.  See ``docs/parallelism.md``.
"""

from repro.farm.checkpoint import CheckpointMismatch, CheckpointStore
from repro.farm.executor import (
    Executor,
    FarmExecutionError,
    ParallelExecutor,
    SerialExecutor,
    make_executor,
)
from repro.farm.scheduler import RTPBroadcast
from repro.farm.workunit import (
    UnitOutcome,
    WorkResult,
    WorkUnit,
    derive_seed,
)

__all__ = [
    "CheckpointMismatch",
    "CheckpointStore",
    "Executor",
    "FarmExecutionError",
    "ParallelExecutor",
    "RTPBroadcast",
    "SerialExecutor",
    "UnitOutcome",
    "WorkResult",
    "WorkUnit",
    "derive_seed",
    "make_executor",
]
