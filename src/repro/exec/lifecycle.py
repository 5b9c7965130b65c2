"""The one execution lifecycle every campaign path runs through.

:func:`run_units` is the shared pipeline behind ``Runner.run``
(synthesis jobs), ``Runner._campaign`` (the ``verify``, ``fuzz`` and
``faults`` campaigns, soak batches included) and the perf harness:

    dedupe by key → cache replay → execute → cache put

with one :class:`~repro.exec.events.ExecEvent` emitted per scheduling
decision.  Schema validation rides the cache boundary exactly as
before: :meth:`ResultCache.put` packs records through the
``repro.schema`` envelope (rejecting non-wire-safe values) and
:meth:`ResultCache.get` validates/migrates/quarantines on the way back
in.

Failure containment: a unit whose execution fails — worker exception,
crash, timeout — resolves to a ``status: "error"`` record that carries
the unit's own identity payload plus structured error info.  Error
records flow into the campaign report (so a run always completes and
accounts for every unit) but are **never** written to the result cache,
so a rerun recomputes exactly the failed units from scratch while
replaying every healthy record from cache.  By the status rule of
:mod:`repro.exec.status`, one error record fails its campaign.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from .events import EmitFn, ExecEvent
from .executors import Executor, PersistentWorkerExecutor, SerialExecutor, UnitResult
from .status import ERROR, error_detail
from .units import WorkUnit

__all__ = [
    "ExecOutcome",
    "EXECUTOR_NAMES",
    "executor_name",
    "resolve_executor",
    "run_units",
]

#: Valid ``--executor`` choices, in CLI order.
EXECUTOR_NAMES = ("serial", "workers")


@dataclass
class ExecOutcome:
    """Everything one :func:`run_units` invocation resolved.

    Attributes:
        records: Final record per unit key — cache replays, fresh
            computations, and ``status: "error"`` placeholders alike.
        seconds: Wall-clock seconds per *computed* unit key (cache
            replays and error units are absent).
        computed: Units executed this run (cache misses, incl. errors).
        cached: Units replayed from the result cache.
        errors: The ``status: "error"`` records, in completion order.
    """

    records: Dict[str, Dict[str, object]] = field(default_factory=dict)
    seconds: Dict[str, float] = field(default_factory=dict)
    computed: int = 0
    cached: int = 0
    errors: List[Dict[str, object]] = field(default_factory=list)


def executor_name(
    executor: Optional[str], jobs: int, unit_timeout: Optional[float] = None
) -> str:
    """The backend a campaign runs on, validated against its settings.

    ``None`` picks the default from the inputs: ``"serial"`` for one job
    with no unit timeout, ``"workers"`` otherwise — a timeout is only
    enforceable by a supervisor, so asking for one selects it.  Naming
    ``"serial"`` together with a timeout is an error rather than a
    silently dropped deadline.
    """
    if executor is None:
        return "serial" if jobs == 1 and unit_timeout is None else "workers"
    if executor not in EXECUTOR_NAMES:
        raise ValueError(
            f"unknown executor {executor!r}; choose from {', '.join(EXECUTOR_NAMES)}"
        )
    if executor == "serial" and unit_timeout is not None:
        raise ValueError(
            "the serial executor cannot enforce a unit timeout; "
            "use the workers executor"
        )
    return executor


def resolve_executor(
    executor: Optional[str],
    jobs: int,
    pending: int,
    unit_timeout: Optional[float] = None,
) -> Executor:
    """Build the backend for a batch of ``pending`` units.

    ``"workers"`` always supervises, even for one unit — that is the
    point of choosing it (timeouts and crash isolation apply).  See
    :func:`executor_name` for the ``None`` default.
    """
    if executor_name(executor, jobs, unit_timeout) == "serial":
        return SerialExecutor()
    return PersistentWorkerExecutor(
        min(max(1, jobs), max(1, pending)), timeout=unit_timeout
    )


def _error_record(result: UnitResult) -> Dict[str, object]:
    """Build the ``status: "error"`` placeholder for a failed unit."""
    record: Dict[str, object] = {}
    spec = getattr(result.unit, "spec", None)
    if spec is not None and hasattr(spec, "to_dict"):
        record.update(spec.to_dict())
    record["status"] = ERROR
    record["error"] = dict(result.error or {})
    record["attempts"] = result.attempts
    record["seconds"] = result.seconds
    return record


def run_units(
    units: Sequence[WorkUnit],
    cache=None,
    executor: Union[str, Executor, None] = None,
    jobs: int = 1,
    emit: Optional[EmitFn] = None,
    verb: str = "verified",
    noun: str = "verification",
    unit_timeout: Optional[float] = None,
) -> ExecOutcome:
    """Run a unit batch through the shared lifecycle.

    Args:
        units: Work units in campaign order (duplicates by key are
            executed once; every occurrence resolves to the one record).
        cache: Optional :class:`~repro.eval.engine.ResultCache`.
        executor: Backend name (``serial``/``workers``), ``None`` for
            the default of :func:`executor_name`, or a ready
            :class:`Executor` instance.  Named backends are created per
            call and closed on every exit path; an instance is used
            as-is and left open for its owner.
        jobs: Worker width for the ``workers`` backend.
        emit: Structured-event sink (``None`` drops events).
        verb: Past-tense verb for per-unit ``computed`` events.
        noun: Job noun for the batch ``schedule`` event
            (``"verification"``, ``"synthesis"``).
        unit_timeout: Per-unit wall-clock budget (``workers`` only).

    Returns:
        An :class:`ExecOutcome`; ``records`` covers every distinct key.
    """
    note: EmitFn = emit if emit is not None else (lambda event: None)
    outcome = ExecOutcome()
    pending: List[WorkUnit] = []
    seen = set()
    for unit in units:
        key = unit.key()
        if key in seen:
            continue
        seen.add(key)
        cached = cache.get(unit) if cache is not None else None
        if cached is not None:
            outcome.records[key] = dict(cached)
            note(
                ExecEvent(
                    kind="cached", description=unit.describe(), unit_key=key
                )
            )
        else:
            pending.append(unit)

    outcome.computed = len(pending)
    outcome.cached = len(seen) - len(pending)
    if not pending:
        return outcome

    if isinstance(executor, Executor):
        backend, owned = executor, False
    else:
        backend = resolve_executor(executor, jobs, len(pending), unit_timeout)
        owned = True
    backend.emit = note
    if not isinstance(backend, SerialExecutor) and len(pending) > 1:
        note(
            ExecEvent(
                kind="schedule",
                description=noun,
                total=len(pending),
                detail=str(jobs),
            )
        )
    try:
        for result in backend.map(pending):
            unit = result.unit
            key = unit.key()
            index = result.index + 1
            if result.error is not None:
                record = _error_record(result)
                outcome.records[key] = record
                outcome.errors.append(record)
                note(
                    ExecEvent(
                        kind="error",
                        description=unit.describe(),
                        unit_key=key,
                        index=index,
                        total=len(pending),
                        status="error",
                        seconds=result.seconds,
                        attempt=result.attempts,
                        detail=error_detail(record),
                    )
                )
                continue
            record = dict(result.record or {})
            outcome.records[key] = record
            outcome.seconds[key] = result.seconds
            if cache is not None:
                cache.put(unit, record)
            note(
                ExecEvent(
                    kind="computed",
                    description=unit.describe(),
                    unit_key=key,
                    index=index,
                    total=len(pending),
                    status=str(record.get("status") or ""),
                    seconds=result.seconds,
                    attempt=result.attempts,
                    verb=verb,
                )
            )
    finally:
        if owned:
            backend.close()
    return outcome
