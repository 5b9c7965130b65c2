"""Executor backends: in-process serial, supervised persistent workers.

Both backends share one contract — ``map(units)`` yields a
:class:`UnitResult` per unit **in submission order**, and ``close()``
(or leaving the ``with`` block, on *any* exit path including
``KeyboardInterrupt``) terminates and joins every worker process.
Failures never escape ``map`` as exceptions: a unit that raises, times
out, or takes its worker down with it resolves to a result whose
``error`` field is populated, so a campaign always runs to completion
and reports per-unit outcomes instead of aborting mid-flight.

Backends:

:class:`SerialExecutor`
    In-process loop.  The only backend that accepts unpicklable units
    (perf-harness closures); exceptions are still captured as error
    results for lifecycle uniformity.

:class:`PersistentWorkerExecutor`
    Long-lived worker processes with per-unit timeouts and crash
    isolation: a worker that dies mid-unit is respawned and the unit
    retried with bounded backoff; on exhaustion (or timeout, which is
    never retried — the same unit would just time out again) the unit
    resolves to an error result.  This is the supervised backend the
    future ``repro serve`` daemon builds on.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import signal
import time
import traceback
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .events import EmitFn, ExecEvent
from .units import WorkUnit

__all__ = [
    "UnitResult",
    "Executor",
    "SerialExecutor",
    "PersistentWorkerExecutor",
    "execute_unit",
]


@dataclass
class UnitResult:
    """Outcome of executing one work unit.

    Attributes:
        index: Submission position (results are yielded in this order).
        unit: The unit that ran.
        record: The computed record, or ``None`` on failure.
        seconds: Wall-clock seconds spent executing (includes the failed
            attempt for errors; excludes queueing/backoff).
        cpu_s: Process CPU seconds for the same span (serial backend
            only measures meaningfully; worker backends report the
            worker's own measurement).
        error: ``None`` on success, else ``{"type", "message",
            "traceback"}`` describing why the unit failed.
        attempts: Execution attempts consumed (> 1 after crash retries).
    """

    index: int
    unit: WorkUnit
    record: Optional[Dict[str, object]]
    seconds: float = 0.0
    cpu_s: float = 0.0
    error: Optional[Dict[str, str]] = None
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.error is None


def execute_unit(
    unit: WorkUnit,
) -> Tuple[Optional[Dict[str, object]], float, float, Optional[Dict[str, str]]]:
    """Run one unit, capturing any exception as structured error info.

    This is the single execution wrapper every backend funnels through
    (in-process for serial, inside the worker process for workers), so
    timing and error capture are identical everywhere.
    """
    start = time.perf_counter()
    cpu_start = time.process_time()
    try:
        record = unit.run()
        error = None
    except KeyboardInterrupt:
        raise
    except BaseException as exc:  # noqa: BLE001 - captured, reported per unit
        record = None
        error = {
            "type": type(exc).__name__,
            "message": str(exc),
            "traceback": traceback.format_exc(),
        }
    return record, time.perf_counter() - start, time.process_time() - cpu_start, error


class Executor:
    """Backend interface: ``map`` + guaranteed-cleanup ``close``."""

    #: Optional structured-event sink (set by the lifecycle) for
    #: supervision events (retry/respawn/timeout) that happen *during*
    #: ``map`` rather than per finished unit.
    emit: Optional[EmitFn] = None

    def map(self, units: Sequence[WorkUnit]) -> Iterator[UnitResult]:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - overridden where stateful
        pass

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _note(self, event: ExecEvent) -> None:
        if self.emit is not None:
            self.emit(event)


class SerialExecutor(Executor):
    """Run every unit in-process, in order."""

    def map(self, units: Sequence[WorkUnit]) -> Iterator[UnitResult]:
        for index, unit in enumerate(units):
            record, seconds, cpu_s, error = execute_unit(unit)
            yield UnitResult(
                index=index,
                unit=unit,
                record=record,
                seconds=seconds,
                cpu_s=cpu_s,
                error=error,
            )


def _worker_main(tasks: "multiprocessing.Queue", results: "multiprocessing.Queue") -> None:
    """Persistent worker loop: pull tasks until the ``None`` sentinel."""
    # Ctrl-C is the parent's to handle: it closes the executor, which
    # terminates this process.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        task = tasks.get()
        if task is None:
            return
        index, unit = task
        results.put((os.getpid(), (index, *execute_unit(unit))))


@dataclass
class _Worker:
    """Parent-side handle for one persistent worker process."""

    process: multiprocessing.Process
    tasks: "multiprocessing.Queue"
    #: In-flight task, or None when idle: (index, unit, deadline, attempt).
    busy: Optional[Tuple[int, WorkUnit, Optional[float], int]] = None

    @property
    def alive(self) -> bool:
        return self.process.is_alive()


@dataclass
class _Pending:
    """A unit awaiting dispatch (fresh, or re-enqueued after a crash)."""

    index: int
    unit: WorkUnit
    attempt: int = 1
    spent_s: float = 0.0


class PersistentWorkerExecutor(Executor):
    """Long-lived supervised workers: timeout, crash isolation, retry.

    Args:
        jobs: Worker-process count (capped at the unit count per map).
        timeout: Per-unit wall-clock budget in seconds; an overrunning
            unit's worker is killed and the unit resolves to a timeout
            error **without retry**.  ``None`` disables the deadline.
        retries: Crash retries per unit.  A unit whose worker dies gets
            re-enqueued (after ``backoff_s * attempt``) up to this many
            extra attempts before resolving to a crash error.
        backoff_s: Base backoff between crash retries.
    """

    #: How long the supervision loop blocks on the result queue per tick.
    _POLL_S = 0.05

    def __init__(
        self,
        jobs: int,
        timeout: Optional[float] = None,
        retries: int = 2,
        backoff_s: float = 0.05,
    ) -> None:
        self.jobs = max(1, int(jobs))
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff_s = backoff_s
        self._workers: List[_Worker] = []
        self._results: Optional[multiprocessing.Queue] = None

    # -- worker management -------------------------------------------------
    def _spawn_worker(self) -> _Worker:
        tasks: multiprocessing.Queue = multiprocessing.Queue()
        process = multiprocessing.Process(
            target=_worker_main, args=(tasks, self._results), daemon=True
        )
        process.start()
        return _Worker(process=process, tasks=tasks)

    def _kill_worker(self, worker: _Worker) -> None:
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(timeout=1.0)
            if worker.process.is_alive():  # pragma: no cover - hard hang
                worker.process.kill()
                worker.process.join(timeout=1.0)
        worker.tasks.cancel_join_thread()
        worker.tasks.close()

    def _replace(self, slot: int) -> _Worker:
        self._kill_worker(self._workers[slot])
        fresh = self._spawn_worker()
        self._workers[slot] = fresh
        self._note(ExecEvent(kind="respawn", detail=str(fresh.process.pid)))
        return fresh

    # -- supervision loop ---------------------------------------------------
    def map(self, units: Sequence[WorkUnit]) -> Iterator[UnitResult]:
        if not units:
            return
        self._results = multiprocessing.Queue()
        count = min(self.jobs, len(units))
        self._workers = [self._spawn_worker() for _ in range(count)]

        pending: List[_Pending] = [
            _Pending(index=i, unit=u) for i, u in enumerate(units)
        ]
        resolved: Dict[int, UnitResult] = {}
        done: set = set()
        next_yield = 0
        total = len(units)

        def dispatch() -> None:
            for slot, worker in enumerate(self._workers):
                if not pending:
                    return
                if worker.busy is not None:
                    continue
                if not worker.alive:
                    worker = self._replace(slot)
                task = pending.pop(0)
                deadline = (
                    time.monotonic() + self.timeout
                    if self.timeout is not None
                    else None
                )
                worker.busy = (task.index, task.unit, deadline, task.attempt)
                worker.tasks.put((task.index, task.unit))

        def resolve(result: UnitResult) -> None:
            if result.index in done:
                return
            done.add(result.index)
            resolved[result.index] = result

        def slot_of(index: int) -> Optional[int]:
            for slot, worker in enumerate(self._workers):
                if worker.busy is not None and worker.busy[0] == index:
                    return slot
            return None

        def drain(block: bool) -> bool:
            try:
                _pid, payload = self._results.get(
                    timeout=self._POLL_S if block else 0
                )
            except queue.Empty:
                return False
            index, record, seconds, cpu_s, error = payload
            slot = slot_of(index)
            attempt = 1
            if slot is not None:
                attempt = self._workers[slot].busy[3]
                self._workers[slot].busy = None
            resolve(
                UnitResult(
                    index=index,
                    unit=units[index],
                    record=record,
                    seconds=seconds,
                    cpu_s=cpu_s,
                    error=error,
                    attempts=attempt,
                )
            )
            return True

        def supervise() -> None:
            """Handle deadline overruns and crashed workers."""
            for slot, worker in enumerate(self._workers):
                if worker.busy is None:
                    continue
                index, unit, deadline, attempt = worker.busy
                if index in done:
                    # Result already arrived via the queue; free the slot.
                    worker.busy = None
                    continue
                now = time.monotonic()
                if deadline is not None and now > deadline:
                    self._note(
                        ExecEvent(
                            kind="timeout",
                            description=unit.describe(),
                            unit_key=unit.key(),
                            index=index + 1,
                            total=total,
                            seconds=float(self.timeout or 0.0),
                        )
                    )
                    self._replace(slot).busy = None
                    resolve(
                        UnitResult(
                            index=index,
                            unit=unit,
                            record=None,
                            seconds=float(self.timeout or 0.0),
                            error={
                                "type": "Timeout",
                                "message": (
                                    f"unit exceeded the {self.timeout}s "
                                    "per-unit timeout and was killed"
                                ),
                                "traceback": "",
                            },
                            attempts=attempt,
                        )
                    )
                    continue
                if not worker.alive:
                    exitcode = worker.process.exitcode
                    self._replace(slot).busy = None
                    if attempt <= self.retries:
                        self._note(
                            ExecEvent(
                                kind="retry",
                                description=unit.describe(),
                                unit_key=unit.key(),
                                attempt=attempt + 1,
                                detail=f"worker died with exit code {exitcode}",
                            )
                        )
                        time.sleep(self.backoff_s * attempt)
                        pending.insert(
                            0, _Pending(index=index, unit=unit, attempt=attempt + 1)
                        )
                    else:
                        resolve(
                            UnitResult(
                                index=index,
                                unit=unit,
                                record=None,
                                error={
                                    "type": "WorkerCrash",
                                    "message": (
                                        f"worker died with exit code {exitcode} "
                                        f"({attempt} attempts)"
                                    ),
                                    "traceback": "",
                                },
                                attempts=attempt,
                            )
                        )

        try:
            while len(done) < total:
                dispatch()
                progressed = drain(block=True)
                while drain(block=False):
                    progressed = True
                if not progressed:
                    supervise()
                while next_yield in resolved:
                    yield resolved.pop(next_yield)
                    next_yield += 1
            while next_yield in resolved:
                yield resolved.pop(next_yield)
                next_yield += 1
        finally:
            self.close()

    def close(self) -> None:
        for worker in self._workers:
            if worker.alive:
                try:
                    worker.tasks.put_nowait(None)
                except (queue.Full, ValueError):  # pragma: no cover
                    pass
        for worker in self._workers:
            worker.process.join(timeout=0.5)
            self._kill_worker(worker)
        self._workers = []
        if self._results is not None:
            self._results.cancel_join_thread()
            self._results.close()
            self._results = None
