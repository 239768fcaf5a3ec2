"""Serial and multi-process execution of work units behind one interface.

Every executor — serial, process pool, remote — is an :class:`Executor`
and keeps the same contract::

    executor.run(units, runner, rtp_broadcast=False, campaign="")
        -> List[WorkResult]   # one per unit, in submission order

where ``runner`` is a picklable module-level callable
``(WorkUnit) -> UnitOutcome``.  The guarantees:

* **Deterministic merge** — results come back ordered by the units'
  submission order regardless of scheduling, worker count or completion
  order.
* **Checkpoint/resume** — an executor built with ``checkpoint=`` (a
  :class:`~repro.farm.checkpoint.CheckpointStore`, or its path, opened
  for each run and closed after it) records completed units as they
  finish and skips them (result loaded, nothing re-measured) on a later
  run.
* **Bounded retry** — a unit that times out or whose worker dies is
  re-dispatched up to ``max_attempts`` times; a broken or stalled pool is
  recycled between passes.  Exhausted units raise
  :class:`FarmExecutionError` naming every casualty.
* **Pilot RTP broadcast** — with ``rtp_broadcast=True`` the first
  *submitted* unit runs alone first; the reference trip point it
  establishes is stamped onto every later unit as ``rtp_hint``
  (section 4).  Pinning the pilot to submission order (not completion
  order) keeps results identical for any worker count.

:class:`SerialExecutor` runs units in the parent process;
:class:`ParallelExecutor` fans them out over a
``ProcessPoolExecutor``.  Every executor runs a unit through the one
call :func:`~repro.obs.collector.run_unit`.  Telemetry crosses the
process boundary: when the parent's switchboard is enabled, every unit —
serial, pool or remote — runs under a :class:`~repro.obs.collector.
UnitCapture` that spools its events and metric observations, and the
parent replays all spools in submission order after the batch
(:class:`~repro.obs.collector.FarmCollector.merge`), so a 4-worker run's
merged trace and metric histograms are identical to the serial run's.
When the parent is profiling (``--profile``), the capture config ships
the :class:`~repro.obs.profile.ProfileConfig` too, so every unit runs
its own sampling profiler and resource sampler inside the executing
process and the profile/resource events merge with the rest.  Farm
lifecycle events (dispatch/complete/retry, pool lifecycle) stay live on
the parent's :mod:`repro.obs` bus in real completion order — they drive
progress reporting and the Perfetto timeline.

A pool gets its batch once: the pool initializer
(:func:`_install_batch`) keeps the batch's units in each worker, and a
dispatch sends only a unit's index into it.  Under ``fork`` the workers
inherit the batch and nothing is pickled; under ``spawn`` or
``forkserver`` the batch is pickled once per worker, and pickle's memo
sends a value the units share (a lot's deck) once.
"""

from __future__ import annotations

import concurrent.futures
import functools
import os
import threading
import weakref
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.farm.checkpoint import CheckpointStore
from repro.farm.scheduler import RTPBroadcast, dispatch_order
from repro.farm.workunit import UnitOutcome, WorkResult, WorkUnit
from repro.obs.collector import FarmCollector, WorkerCaptureConfig, run_unit
from repro.obs.events import event
from repro.obs.runtime import OBS

#: Seconds a terminated pool worker gets to exit before it is killed.
_TERMINATE_GRACE_S = 5.0

#: Manager threads of pools shut down without waiting, while they wind
#: their pools down; a finished thread drops out.  Process-wide, as the
#: interpreter exit it serves.
_RETIRED_MANAGERS: weakref.WeakSet[threading.Thread] = weakref.WeakSet()


def _join_retired_managers() -> None:
    """Join every retired manager thread before the interpreter exits.

    At exit, ``concurrent.futures.process`` wakes each live manager thread
    through its wakeup pipe, unlocked, while that thread may be closing the
    pipe: the write then fails with ``EBADF`` on stderr.  A joined thread
    has closed its pipe, and a closed pipe is skipped.
    """
    for thread in list(_RETIRED_MANAGERS):
        thread.join()


@functools.lru_cache(maxsize=None)
def _register_exit_hook() -> None:
    # Threading runs its exit hooks last-registered first.  Registered with
    # the first pool, this one runs before the hook that
    # ``concurrent.futures.process`` registered when it was imported.
    threading._register_atexit(_join_retired_managers)  # type: ignore[attr-defined]


#: A unit runner: executes one unit, returns its outcome.  Must be a
#: module-level callable so the process pool can pickle it by reference.
UnitRunner = Callable[[WorkUnit], UnitOutcome]

#: What ``checkpoint=`` accepts: no store, a store or its path.
Checkpoint = Union[None, str, "os.PathLike[str]", CheckpointStore]


class FarmExecutionError(RuntimeError):
    """One or more units failed every allowed attempt."""

    def __init__(self, failures: Sequence[Tuple[WorkUnit, str]]) -> None:
        self.failed_units = [unit for unit, _ in failures]
        detail = "; ".join(
            f"{unit.key}: {reason}" for unit, reason in failures
        )
        super().__init__(
            f"{len(self.failed_units)} work unit(s) failed after retries: "
            f"{detail}"
        )


def _observe_unit(result: WorkResult, kind: str) -> None:
    """Parent-side metrics for one completed unit."""
    metrics = OBS.metrics
    metrics.counter("farm.units").inc(label=kind)
    metrics.histogram(f"farm.unit_seconds.{kind}").observe(result.elapsed_s)
    metrics.histogram(f"farm.unit_measurements.{kind}").observe(
        result.measurements
    )


class Executor:
    """What every farm backend shares: checkpoint skip, pilot broadcast,
    merge.  Subclasses supply :meth:`_execute`; ``name`` identifies the
    backend in events and traces (``"serial"``/``"parallel"``/``"remote"``).
    """

    name = "farm"

    def __init__(
        self, max_attempts: int = 2, checkpoint: Checkpoint = None
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.max_attempts = max_attempts
        self.checkpoint = checkpoint

    def run(
        self,
        units: Sequence[WorkUnit],
        runner: UnitRunner,
        rtp_broadcast: bool = False,
        campaign: str = "",
    ) -> List[WorkResult]:
        """Execute every unit; results in submission order.

        ``campaign`` names the run for telemetry: it becomes the trace
        id stamped onto every worker-side event and the
        ``farm_run_started`` announcement.  A ``checkpoint`` given as a
        path (the CLI's ``--resume FILE``) is opened as the store of
        ``campaign`` for each run and closed when the run ends; a
        :class:`~repro.farm.checkpoint.CheckpointStore` stays open for
        its owner.
        """
        units = list(units)
        if not units:
            return []
        checkpoint = self.checkpoint
        opened: Optional[CheckpointStore] = None
        if checkpoint is not None and not isinstance(checkpoint, CheckpointStore):
            # Its append handle opens with the first record, inside the
            # ``try`` below, whose ``finally`` closes it.
            checkpoint = opened = CheckpointStore(checkpoint, campaign=campaign)
        results: Dict[str, WorkResult] = {}
        wanted = {unit.key for unit in units}

        collector: Optional[FarmCollector] = None
        if OBS.enabled:
            collector = FarmCollector(
                campaign=campaign, unit_keys=[unit.key for unit in units]
            )
            OBS.bus.emit(
                event(
                    "farm_run_started",
                    campaign=collector.campaign,
                    units=len(units),
                    executor=self.name,
                    workers=getattr(self, "workers", 1),
                )
            )

        if checkpoint is not None:
            for key, done in checkpoint.load().items():
                if key in wanted:
                    results[key] = done
                    if OBS.enabled:
                        OBS.metrics.counter("farm.units_skipped").inc()
                        OBS.bus.emit(event("farm_unit_skipped", key=key))
        pending = [unit for unit in units if unit.key not in results]

        broadcast = RTPBroadcast()
        try:
            if rtp_broadcast and pending:
                # Deterministic pilot: always the first *submitted* pending
                # unit, so the broadcast value cannot depend on scheduling.
                pilot, pending = pending[0], pending[1:]
                self._execute(
                    [pilot], runner, results, checkpoint, broadcast,
                    collector, campaign,
                )
            if pending:
                ordered = [
                    broadcast.apply(unit) for unit in dispatch_order(pending)
                ]
                self._execute(
                    ordered, runner, results, checkpoint, broadcast,
                    collector, campaign,
                )
        finally:
            # Merge even on FarmExecutionError: the units that did
            # complete flush their telemetry, in submission order.
            if collector is not None:
                collector.merge()
            if opened is not None:
                opened.close()
        return [results[unit.key] for unit in units]

    # -- template methods -----------------------------------------------------
    def _execute(
        self,
        units: Sequence[WorkUnit],
        runner: UnitRunner,
        results: Dict[str, WorkResult],
        checkpoint: Optional[CheckpointStore],
        broadcast: RTPBroadcast,
        collector: Optional[FarmCollector],
        campaign: str,
    ) -> None:
        """Run one batch (the pilot, or the rest) of the run ``campaign``."""
        raise NotImplementedError

    def _complete(
        self,
        unit: WorkUnit,
        outcome: UnitOutcome,
        attempts: int,
        elapsed_s: float,
        worker: str,
        results: Dict[str, WorkResult],
        checkpoint: Optional[CheckpointStore],
        broadcast: RTPBroadcast,
    ) -> None:
        result = WorkResult(
            unit_key=unit.key,
            index=unit.index,
            value=outcome.value,
            measurements=outcome.measurements,
            rtp=outcome.rtp,
            attempts=attempts,
            elapsed_s=elapsed_s,
            worker=worker,
        )
        results[unit.key] = result
        broadcast.offer(outcome.rtp)
        if checkpoint is not None:
            checkpoint.record(result)
        if OBS.enabled:
            _observe_unit(result, unit.kind)
            OBS.bus.emit(
                event(
                    "farm_unit_completed",
                    key=unit.key,
                    kind=unit.kind,
                    attempt=attempts,
                    elapsed_s=elapsed_s,
                    measurements=outcome.measurements,
                    worker=worker,
                )
            )

    def _note_dispatch(self, unit: WorkUnit, attempt: int) -> None:
        if OBS.enabled:
            OBS.bus.emit(
                event(
                    "farm_unit_dispatched",
                    key=unit.key,
                    kind=unit.kind,
                    attempt=attempt,
                    executor=self.name,
                )
            )

    def _note_retry(self, unit: WorkUnit, attempt: int, reason: str) -> None:
        if OBS.enabled:
            OBS.metrics.counter("farm.unit_retries").inc(label=unit.kind)
            OBS.bus.emit(
                event(
                    "farm_unit_retried",
                    key=unit.key, attempt=attempt, error=reason,
                )
            )


class SerialExecutor(Executor):
    """Runs every unit in the parent process, longest-first.

    The degenerate farm: same sharding, same merge, same checkpointing —
    and full in-process telemetry, since nothing crosses a process
    boundary.  ``ParallelExecutor(workers=1)`` and ``SerialExecutor()``
    produce identical results by construction.
    """

    name = "serial"

    def _execute(self, units, runner, results, checkpoint, broadcast,
                 collector, campaign):
        failures: List[Tuple[WorkUnit, str]] = []
        config = collector.worker_config() if collector is not None else None
        for unit in units:
            reason = ""
            for attempt in range(1, self.max_attempts + 1):
                self._note_dispatch(unit, attempt)
                try:
                    # The pool worker's call, so the merged trace cannot
                    # depend on the worker count.
                    outcome, elapsed, telemetry = run_unit(
                        runner, unit, config, "serial", attempt
                    )
                except Exception as error:  # noqa: BLE001 — retried below
                    reason = f"{type(error).__name__}: {error}"
                    if attempt < self.max_attempts:
                        self._note_retry(unit, attempt, reason)
                    continue
                if collector is not None:
                    collector.collect(telemetry)
                self._complete(
                    unit, outcome, attempt, elapsed, "serial",
                    results, checkpoint, broadcast,
                )
                break
            else:
                failures.append((unit, reason))
        if failures:
            raise FarmExecutionError(failures)


#: This pool worker's batch (see :func:`_install_batch`).
_BATCH: Tuple[WorkUnit, ...] = ()


def _install_batch(units: Tuple[WorkUnit, ...]) -> None:
    """Pool initializer: keep the batch, detach the inherited switchboard.

    Each dispatch then names its unit by index into the batch.  Under
    ``fork`` the worker inherits the parent's enabled switchboard and its
    open trace files; :meth:`Observability.detach <repro.obs.runtime.
    Observability.detach>` drops them once, for every unit the worker
    runs.
    """
    global _BATCH
    _BATCH = units
    OBS.detach()


def _worker_call(
    runner: UnitRunner,
    index: int,
    config: Optional[WorkerCaptureConfig],
    attempt: int,
):
    """Per-unit entry point inside a pool worker: run unit ``index`` of
    the batch through :func:`~repro.obs.collector.run_unit`."""
    import multiprocessing

    worker = multiprocessing.current_process().name
    outcome, elapsed_s, telemetry = run_unit(
        runner, _BATCH[index], config, worker, attempt
    )
    return outcome, elapsed_s, worker, telemetry


class ParallelExecutor(Executor):
    """Fans units out over a ``concurrent.futures.ProcessPoolExecutor``.

    Parameters
    ----------
    workers:
        Worker process count.
    timeout_s:
        Per-unit result deadline; a unit still running when its deadline
        expires counts as a failed attempt and the pool is recycled so
        the stalled worker cannot starve the retry pass.  ``None`` (the
        default) waits indefinitely.
    max_attempts:
        Total dispatches allowed per unit (first try + retries).
    checkpoint:
        Store (or path) that records finished units and skips them on a
        re-run.
    """

    name = "parallel"

    def __init__(
        self,
        workers: int,
        timeout_s: Optional[float] = None,
        max_attempts: int = 2,
        checkpoint: Checkpoint = None,
    ) -> None:
        super().__init__(max_attempts=max_attempts, checkpoint=checkpoint)
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        self.workers = workers
        self.timeout_s = timeout_s

    def _pool(
        self, batch: Tuple[WorkUnit, ...]
    ) -> concurrent.futures.ProcessPoolExecutor:
        if OBS.enabled:
            OBS.bus.emit(
                event(
                    "farm_worker_pool", status="started", workers=self.workers
                )
            )
        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_install_batch,
            initargs=(batch,),
        )
        _register_exit_hook()
        return pool

    def _shutdown(self, pool, status: str = "stopped",
                  terminate: bool = False) -> None:
        # shutdown() cannot stop a task that is already running, so a
        # stalled worker would outlive the run; ``terminate`` stops and
        # reaps the pool's processes.
        processes = list((pool._processes or {}).values()) if terminate else []
        manager = pool._executor_manager_thread
        # Waiting here would time the pool's wind-down into every run; the
        # exit hook joins the manager thread instead.
        pool.shutdown(wait=False, cancel_futures=True)
        if manager is not None:
            _RETIRED_MANAGERS.add(manager)
        for process in processes:
            process.terminate()
        for process in processes:
            process.join(_TERMINATE_GRACE_S)
            if process.is_alive():
                process.kill()
                process.join()
        if processes and manager is not None:
            # The manager thread reaps the same processes, and one it reaped
            # first reads as alive here until it stores the exit code.
            manager.join(_TERMINATE_GRACE_S)
        if OBS.enabled:
            OBS.bus.emit(
                event("farm_worker_pool", status=status, workers=self.workers)
            )

    def _execute(self, units, runner, results, checkpoint, broadcast,
                 collector, campaign):
        batch = tuple(units)
        pending: Sequence[int] = range(len(batch))
        failures: List[Tuple[int, str]] = []
        config = collector.worker_config() if collector is not None else None
        pool = self._pool(batch)
        clean = False
        try:
            for attempt in range(1, self.max_attempts + 1):
                failures = []
                recycle = False
                futures = []
                for index in pending:
                    self._note_dispatch(batch[index], attempt)
                    try:
                        futures.append(
                            (
                                index,
                                # `attempt` rides along so retried units
                                # stamp attempt=2... on their trace
                                # context instead of replaying as a
                                # second attempt=1.
                                pool.submit(
                                    _worker_call, runner, index, config,
                                    attempt,
                                ),
                            )
                        )
                    except concurrent.futures.process.BrokenProcessPool:
                        # An earlier unit already killed the pool; count
                        # this one as failed without a future.
                        failures.append((index, "worker process died"))
                        recycle = True
                for index, future in futures:
                    try:
                        outcome, elapsed, worker, telemetry = future.result(
                            timeout=self.timeout_s
                        )
                    except concurrent.futures.TimeoutError:
                        failures.append(
                            (index, f"timed out after {self.timeout_s}s")
                        )
                        recycle = True
                        continue
                    except concurrent.futures.process.BrokenProcessPool:
                        failures.append((index, "worker process died"))
                        recycle = True
                        continue
                    except Exception as error:  # noqa: BLE001 — retried
                        failures.append(
                            (index, f"{type(error).__name__}: {error}")
                        )
                        continue
                    if collector is not None:
                        collector.collect(telemetry)
                    self._complete(
                        batch[index], outcome, attempt, elapsed, worker,
                        results, checkpoint, broadcast,
                    )
                pending = []
                if failures:
                    if recycle:
                        # Stalled or dead workers poison the pool; start a
                        # fresh one, with the same batch, for the retry pass.
                        self._shutdown(pool, status="recycled", terminate=True)
                        pool = self._pool(batch)
                    if attempt < self.max_attempts:
                        for index, reason in failures:
                            self._note_retry(batch[index], attempt, reason)
                        pending = [index for index, _ in failures]
                if not pending:
                    break
            clean = not failures
        finally:
            self._shutdown(pool, terminate=not clean)
        if failures:
            raise FarmExecutionError(
                [(batch[index], reason) for index, reason in failures]
            )


def available_cpus() -> int:
    """CPUs this process may run on (its affinity set where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _pool_size(workers: int) -> int:
    """``workers`` clamped to :func:`available_cpus`: more pool processes
    than CPUs only timeshare them and pay the unit pickling on top."""
    cpus = available_cpus()
    if workers <= cpus:
        return workers
    if OBS.enabled:
        OBS.bus.emit(
            event("farm_workers_clamped", requested=workers, workers=cpus)
        )
    return cpus


def make_executor(
    workers: Optional[int] = None,
    broker: Optional[str] = None,
    checkpoint: Checkpoint = None,
) -> Executor:
    """The executor the farm flags ``--workers``, ``--broker`` and
    ``--resume`` name.

    ``broker="host:port"`` builds a
    :class:`~repro.farm.remote.executor.RemoteExecutor` whatever
    ``workers`` says; otherwise ``workers`` > 1 builds a
    :class:`ParallelExecutor` and anything else a :class:`SerialExecutor`.
    ``workers`` < 1 raises :class:`ValueError`.  ``checkpoint`` goes to
    the executor as is.

    A process pool gets at most :func:`available_cpus` workers; a smaller
    pool than asked for emits a ``farm_workers_clamped`` event.  Build a
    :class:`ParallelExecutor` directly to choose the size regardless.
    """
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if broker is not None:
        # Imported lazily: repro.farm.remote imports this module.
        from repro.farm.remote.executor import RemoteExecutor

        return RemoteExecutor(broker=broker, checkpoint=checkpoint)
    if workers is not None and workers > 1:
        return ParallelExecutor(
            workers=_pool_size(workers), checkpoint=checkpoint
        )
    return SerialExecutor(checkpoint=checkpoint)
