"""repro.exec — unified execution core for every campaign path.

One :class:`WorkUnit` lifecycle (dedupe → cache replay → execute →
schema-validate → cache put) over two executor backends (in-process
serial, supervised persistent workers), emitting
structured :class:`ExecEvent`\\ s instead of per-campaign progress
f-strings, and one status rule (:mod:`repro.exec.status`) deciding
which records pass, fail or errored.  ``Runner.run`` / ``verify`` /
``fuzz`` / ``faults`` / ``soak`` and the perf harness are thin
compositions over this package; the future ``repro serve`` daemon plugs
into the same substrate.
"""

from .events import EmitFn, ExecEvent, render_event
from .executors import (
    Executor,
    PersistentWorkerExecutor,
    SerialExecutor,
    UnitResult,
    execute_unit,
)
from .lifecycle import (
    EXECUTOR_NAMES,
    ExecOutcome,
    executor_name,
    resolve_executor,
    run_units,
)
from .units import CallableUnit, ProbeUnit, SpecUnit, WorkUnit, spec_units

__all__ = [
    "ExecEvent",
    "EmitFn",
    "render_event",
    "WorkUnit",
    "SpecUnit",
    "CallableUnit",
    "ProbeUnit",
    "spec_units",
    "Executor",
    "SerialExecutor",
    "PersistentWorkerExecutor",
    "UnitResult",
    "execute_unit",
    "ExecOutcome",
    "EXECUTOR_NAMES",
    "executor_name",
    "resolve_executor",
    "run_units",
]
