"""Parallel experiment orchestration: specs, executors, cache, reports.

This is the operator-facing engine behind the ``repro`` CLI.  Every table
and figure of the paper's evaluation is registered here as a declarative
:class:`ExperimentSpec`: a name, a human title, the assembler function
from :mod:`repro.eval.experiments`, and an enumerator of the
:class:`~repro.eval.engine.SynthesisJob` units the assembler will need.

The :class:`Runner` schedules those jobs through the shared
:mod:`repro.exec` lifecycle (in-process, or across supervised worker
processes), memoises every record in a content-addressed
:class:`~repro.eval.engine.ResultCache`, then hands the records to the
assembler — so a warm cache reproduces any table with zero
re-synthesis, and a cold run is limited by the slowest single circuit
rather than the sum of all of them.  :class:`RunReport` carries the
assembled :class:`~repro.eval.experiments.ExperimentResult` together
with per-job timings and cache statistics, and can be emitted as JSON or
CSV for downstream tooling.  An experiment with an errored job is not
assembled: its report carries the error records instead.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence

from . import experiments
from ..exec import ExecEvent, SpecUnit, executor_name, render_event, run_units, spec_units
from ..exec.status import classify
from ..gen.fuzz import FuzzCampaign, FuzzReport, FuzzUnit, shrink_unit
from ..schema import atomic_write_json, canonical_json
from ..verify.campaign import (
    VerificationReport,
    VerificationSpec,
    verification_record,
)
from .engine import ResultCache, SynthesisJob, synthesis_record
from .experiments import ExperimentResult, Records

ProgressFn = Callable[[str], None]


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one schedulable experiment.

    Attributes:
        name: CLI identifier (``"table4"``, ``"figure7"``, ...).
        title: Human-readable description of what the paper artefact shows.
        run: Assembler ``(records, scale, effort[, circuits]) -> ExperimentResult``,
            a pure function of the jobs' records (job key → record).
        jobs: Enumerator of the synthesis jobs the assembler will request;
            ``None`` for experiments with no catalogued-circuit synthesis.
        default_effort: AIG effort used when the caller does not choose one.
        supports_circuits: Whether ``run``/``jobs`` accept a circuit subset.
    """

    name: str
    title: str
    run: Callable[..., ExperimentResult]
    jobs: Optional[Callable[..., List[SynthesisJob]]] = None
    default_effort: str = "medium"
    supports_circuits: bool = False

    def enumerate_jobs(
        self,
        scale: str = "quick",
        effort: Optional[str] = None,
        circuits: Optional[Sequence[str]] = None,
    ) -> List[SynthesisJob]:
        if self.jobs is None:
            return []
        effort = effort or self.default_effort
        if self.supports_circuits:
            return self.jobs(scale, effort, circuits)
        return self.jobs(scale, effort)

    def assemble(
        self,
        records: Records,
        scale: str = "quick",
        effort: Optional[str] = None,
        circuits: Optional[Sequence[str]] = None,
    ) -> ExperimentResult:
        effort = effort or self.default_effort
        if self.supports_circuits:
            return self.run(records, scale=scale, effort=effort, circuits=circuits)
        return self.run(records, scale=scale, effort=effort)


def _fixed(fn: Callable[[], ExperimentResult]) -> Callable[..., ExperimentResult]:
    """Adapt a no-argument experiment to the uniform assembler signature."""

    def run(records: Records, scale: str = "quick", effort: str = "medium"):
        return fn()

    run.__doc__ = fn.__doc__
    return run


def _figure7(records: Records, scale: str = "quick", effort: str = "medium"):
    return experiments.run_figure7(effort=effort)


EXPERIMENTS: Dict[str, ExperimentSpec] = {}


def _register(spec: ExperimentSpec) -> None:
    EXPERIMENTS[spec.name] = spec


_register(ExperimentSpec(
    "table1", "LA/FA cell responses to alternating input sequences",
    _fixed(experiments.run_table1),
))
_register(ExperimentSpec(
    "table2", "The xSFQ cell library (delays and JJ counts, both interconnects)",
    _fixed(experiments.run_table2),
))
_register(ExperimentSpec(
    "figure1", "Alternating dual-rail encoding of a bit stream",
    _fixed(experiments.run_figure1),
))
_register(ExperimentSpec(
    "figure2_3", "Analog (RCSJ) characterisation of JTL/LA/FA/DROC cells",
    _fixed(experiments.run_figure2_3),
))
_register(ExperimentSpec(
    "figure4_5", "Full-adder mapping walk-through (Section 3.1 progression)",
    _fixed(experiments.run_figure4_5),
))
_register(ExperimentSpec(
    "table3", "Duplication penalty on the EPFL control circuits",
    experiments.run_table3, experiments.table3_jobs,
))
_register(ExperimentSpec(
    "table4", "Combinational circuits vs the PBMap-like RSFQ baseline",
    experiments.run_table4, experiments.table4_jobs, supports_circuits=True,
))
_register(ExperimentSpec(
    "table5", "Pipelining study on the c6288-class multiplier",
    experiments.run_table5, experiments.table5_jobs,
))
_register(ExperimentSpec(
    "table6", "Sequential ISCAS89-class circuits vs the qSeq-like baseline",
    experiments.run_table6, experiments.table6_jobs, supports_circuits=True,
))
_register(ExperimentSpec(
    "figure7", "Pulse-level simulation of the 2-bit xSFQ counter",
    _figure7,
))
_register(ExperimentSpec(
    "ablation", "Contribution of each flow ingredient (opt, polarity, PTL, retime)",
    experiments.run_ablation, experiments.ablation_jobs,
))
_register(ExperimentSpec(
    "headline", "The abstract's claim: >80% average JJ reduction",
    experiments.run_headline, experiments.headline_jobs,
    default_effort="low",
))


@dataclass
class RunReport:
    """Everything one :meth:`Runner.run` invocation produced.

    Attributes:
        result: The assembled experiment result; empty (no rows, text or
            summary) when a job errored and the experiment was not
            assembled.
        scale: Circuit scale used.
        effort: AIG effort used.
        jobs: Worker processes requested (``-j``).
        total_jobs: Synthesis jobs the experiment needed.
        computed_jobs: Jobs run this run (cache misses, errored jobs included).
        cached_jobs: Jobs served from the result cache.
        job_timings: Seconds per computed job, keyed by a job label.
        stage_timings: Per-stage aggregate over every record the run
            touched: ``{stage: {"runs", "cached", "total_s", "mean_s"}}``.
            ``runs``/``total_s`` cover only stages executed this run;
            stage-cache hits and records replayed from the result cache
            count under ``cached``.  Rendered by ``repro run --stage-timing``.
        elapsed_s: Wall-clock for the whole run (synthesis + assembly).
        errors: The ``status: "error"`` records of jobs that raised,
            crashed or timed out, each with its job label as ``unit``.
    """

    result: ExperimentResult
    scale: str = "quick"
    effort: str = "medium"
    jobs: int = 1
    total_jobs: int = 0
    computed_jobs: int = 0
    cached_jobs: int = 0
    job_timings: Dict[str, float] = field(default_factory=dict)
    stage_timings: Dict[str, Dict[str, float]] = field(default_factory=dict)
    elapsed_s: float = 0.0
    errors: List[Dict[str, object]] = field(default_factory=list)

    @property
    def experiment(self) -> str:
        return self.result.experiment

    def to_dict(self) -> Dict[str, object]:
        return {
            "experiment": self.result.experiment,
            "scale": self.scale,
            "effort": self.effort,
            "jobs": self.jobs,
            "total_jobs": self.total_jobs,
            "computed_jobs": self.computed_jobs,
            "cached_jobs": self.cached_jobs,
            "job_timings": dict(self.job_timings),
            "stage_timings": {k: dict(v) for k, v in self.stage_timings.items()},
            "elapsed_s": self.elapsed_s,
            "rows": self.result.rows,
            "summary": self.result.summary,
            "text": self.result.text,
        }


def _aggregate_stage_timings(
    records_by_key: Mapping[str, Mapping[str, object]],
    computed_keys: Iterable[str],
) -> Dict[str, Dict[str, float]]:
    """Fold the per-record stage timing rows into one per-stage summary.

    Only records computed *this run* (``computed_keys``) count as executed
    stages; rows from records replayed out of the disk cache are folded
    into the ``cached`` column so the table matches the run's own
    "N synthesised" summary instead of echoing historical timings.
    """
    live = set(computed_keys)
    totals: Dict[str, Dict[str, float]] = {}
    for key, record in records_by_key.items():
        for row in record.get("stages") or []:
            entry = totals.setdefault(
                str(row.get("stage")),
                {"runs": 0, "cached": 0, "total_s": 0.0, "mean_s": 0.0},
            )
            if key in live and not row.get("cached"):
                entry["runs"] += 1
                entry["total_s"] += float(row.get("seconds") or 0.0)
            else:
                entry["cached"] += 1
    for entry in totals.values():
        executed = entry["runs"] or 1
        entry["mean_s"] = entry["total_s"] / executed
    return totals


def render_stage_timings(stage_timings: Mapping[str, Mapping[str, float]]) -> str:
    """Text table for ``repro run --stage-timing`` (and saved JSON reports)."""
    from ..core import format_table

    rows = [
        [
            stage,
            int(entry.get("runs", 0)),
            int(entry.get("cached", 0)),
            f"{entry.get('total_s', 0.0):.3f}",
            f"{entry.get('mean_s', 0.0):.4f}",
        ]
        for stage, entry in stage_timings.items()
    ]
    return format_table(["Stage", "Runs", "Cached", "Total (s)", "Mean (s)"], rows)


def _spec(unit):
    """The spec a campaign unit schedules (a verification spec is its own)."""
    return getattr(unit, "spec", unit)


def _describe(unit) -> str:
    flow = getattr(unit, "flow_name", None)
    return _spec(unit).label() + (f" flow={flow}" if flow else "")


def annotate(record: Mapping[str, object], unit) -> Dict[str, object]:
    """A campaign unit's record plus the unit's own context.

    Fuzz and fault units add their ``flow_variant``; a fuzz unit also
    adds its circuit's generation metadata (``family``, ``gen_params``,
    ``gen_seed``).  A bare verification spec adds nothing.
    """
    merged = dict(record)
    flow = getattr(unit, "flow_name", None)
    if flow is not None:
        merged["flow_variant"] = flow
    gen = getattr(unit, "gen", None)
    if gen is not None:
        merged["family"] = gen.family
        merged["gen_params"] = dict(gen.params)
        merged["gen_seed"] = gen.seed
    return merged


def _job_label(job: SynthesisJob) -> str:
    if job.options:
        tweaks = {
            key: value
            for key, value in job.options
            if value != getattr(experiments.FlowOptions(), key)
        }
        suffix = "".join(f" {k}={v}" for k, v in sorted(tweaks.items()))
    else:
        # Hand-composed flow: identify it by its stage sequence.
        suffix = " flow=" + ">".join(name for name, _ in job.signature())
    return f"{job.circuit}@{job.scale}{suffix}"


class Runner:
    """Schedules an experiment's synthesis jobs across an executor backend.

    All scheduling is delegated to :func:`repro.exec.run_units`; the
    runner only adapts campaign specs into work units, assembles the
    reports, and renders :class:`~repro.exec.ExecEvent`\\ s onto the
    ``progress`` callback.

    Args:
        jobs: Worker processes; more than one selects the ``workers``
            backend when ``executor`` is not named.
        cache: Shared result cache; ``None`` (the default) disables
            caching, so every unit is computed.
        progress: Callback receiving one line per scheduling event.
        executor: Backend name — ``"serial"`` (in-process) or
            ``"workers"`` (supervised long-lived workers with crash
            isolation and timeouts).  ``None`` picks ``serial`` for one
            job without a unit timeout and ``workers`` otherwise.
        unit_timeout: Per-unit wall-clock budget in seconds, enforced by
            the ``workers`` backend; combining it with ``"serial"``
            raises ``ValueError``.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        progress: Optional[ProgressFn] = None,
        executor: Optional[str] = None,
        unit_timeout: Optional[float] = None,
    ) -> None:
        self.jobs = max(1, int(jobs))
        self.cache = cache
        self.progress = progress or (lambda line: None)
        self.executor = executor_name(executor, self.jobs, unit_timeout)
        self.unit_timeout = unit_timeout

    def emit(self, event: ExecEvent) -> None:
        """Render one structured execution event onto ``progress``."""
        line = render_event(event)
        if line is not None:
            self.progress(line)

    def run(
        self,
        experiment: str,
        scale: str = "quick",
        effort: Optional[str] = None,
        circuits: Optional[Sequence[str]] = None,
    ) -> RunReport:
        """Execute one registered experiment end to end."""
        spec = EXPERIMENTS.get(experiment)
        if spec is None:
            known = ", ".join(sorted(EXPERIMENTS))
            raise KeyError(f"unknown experiment {experiment!r}; known: {known}")
        effort = effort or spec.default_effort
        started = time.perf_counter()

        job_list = spec.enumerate_jobs(scale, effort, circuits)
        labels = {job.key(): _job_label(job) for job in job_list}
        outcome = self._run_units(
            spec_units(job_list, synthesis_record, _job_label), "synthesised", "synthesis"
        )
        errors = [
            dict(record, unit=labels[key])
            for key, record in outcome.records.items()
            if classify(record) == "error"
        ]
        if errors:
            result = ExperimentResult(experiment, scale=scale)
        else:
            result = spec.assemble(outcome.records, scale, effort, circuits)

        elapsed = time.perf_counter() - started
        report = RunReport(
            result=result,
            scale=scale,
            effort=effort,
            jobs=self.jobs,
            total_jobs=len(job_list),
            computed_jobs=outcome.computed,
            cached_jobs=outcome.cached,
            job_timings={labels[key]: s for key, s in outcome.seconds.items()},
            stage_timings=_aggregate_stage_timings(outcome.records, outcome.seconds),
            elapsed_s=elapsed,
            errors=errors,
        )
        self.progress(
            f"[{experiment}] done in {elapsed:.2f}s "
            f"({report.cached_jobs} cached, {report.computed_jobs} synthesised)"
        )
        return report

    def _campaign(self, report, units, verb, compute=verification_record, finish=None):
        """The one scheduler behind :meth:`verify`, :meth:`fuzz` and :meth:`faults`.

        ``units`` are verification specs, or fuzz/fault units pairing a
        spec with a flow variant.  Each spec runs as a
        :class:`~repro.exec.SpecUnit` around the module-level
        ``compute`` through :func:`repro.exec.run_units`: cached records
        replay for free, the rest run on the executor and are cached.  A
        unit that raises, crashes or times out resolves to a ``status:
        "error"`` record (never cached) instead of aborting the
        campaign.  The records land in ``report`` in unit order (see
        :func:`annotate`); ``finish(report, units)`` runs before the
        clock stops.
        """
        started = time.perf_counter()
        outcome = self._run_units(
            [SpecUnit(_spec(u), compute, _describe(u)) for u in units], verb, "verification"
        )
        report.records = [annotate(outcome.records[_spec(u).key()], u) for u in units]
        report.jobs, report.computed, report.cached = self.jobs, outcome.computed, outcome.cached
        if finish is not None:
            finish(report, units)
        report.elapsed_s = time.perf_counter() - started
        self.progress(
            f"[{report.experiment}] done in {report.elapsed_s:.2f}s "
            f"({report.cached} cached, {report.computed} {verb}, "
            f"{len(report.failures)} failures, {len(report.errors)} errors)"
        )
        return report

    def verify(self, specs: Sequence[VerificationSpec]) -> VerificationReport:
        """Run a verification campaign (synthesis + batched pulse
        verification per spec) through :meth:`_campaign`."""
        report = VerificationReport(
            scale=specs[0].scale if specs else "quick",
            patterns=specs[0].patterns if specs else 0,
            seed=specs[0].seed if specs else 0,
        )
        return self._campaign(report, list(specs), "verified")

    def fuzz(
        self,
        campaign: FuzzCampaign,
        units: Optional[Sequence[FuzzUnit]] = None,
        shrink: bool = True,
    ) -> FuzzReport:
        """Run a differential fuzzing campaign through :meth:`_campaign`.

        Every :class:`~repro.gen.fuzz.FuzzUnit` — one generated circuit
        under one flow variant — verifies a
        :class:`~repro.verify.campaign.VerificationSpec`; workers rebuild
        generated circuits from their self-describing names.  Units with
        a verdict failure are then shrunk **in-process** to 1-minimal
        reproducers (``shrink=False`` skips that, e.g. for pure triage
        runs); errored units never are, since re-running a unit that
        timed out could hang the campaign.

        Args:
            campaign: The campaign identity (also determines the units
                when ``units`` is omitted).
            units: Pre-built unit list overriding ``campaign.units()``
                (used by ``repro fuzz --replay``).
            shrink: Minimise failing circuits after the campaign.
        """
        unit_list = list(units) if units is not None else campaign.units()
        return self._campaign(
            FuzzReport(campaign=campaign),
            unit_list,
            "fuzzed",
            finish=self._shrink if shrink else None,
        )

    def _shrink(self, report: FuzzReport, units: Sequence[FuzzUnit]) -> None:
        """Attach a minimal reproducer to every counterexample of ``report``."""
        for unit, record in zip(units, report.records):
            if classify(record) != "fail":
                continue
            self.progress(f"  shrinking {unit.spec.circuit} flow={unit.flow_name} ...")
            result = shrink_unit(
                unit.gen,
                unit.flow_name,
                patterns=unit.spec.patterns,
                stimulus_seed=unit.spec.seed,
                sequence_length=unit.spec.sequence_length,
            )
            if result is not None:
                report.attach_shrink(record, result)
                self.progress(f"    {result.summary()}")

    def faults(self, campaign, units=None):
        """Run a fault-injection campaign through :meth:`_campaign`.

        Every :class:`~repro.faults.FaultUnit` — one circuit under one
        flow variant with one fault scenario (optionally margin-swept) —
        runs :func:`repro.faults.campaign.fault_record`.

        Args:
            campaign: A :class:`repro.faults.FaultCampaign`.
            units: Pre-built unit list overriding ``campaign.units()``.

        Returns:
            A :class:`repro.faults.FaultReport`, records in unit order.
        """
        from ..faults.campaign import FaultReport, fault_record

        unit_list = list(units) if units is not None else campaign.units()
        return self._campaign(
            FaultReport(campaign=campaign), unit_list, "probed", compute=fault_record
        )

    def soak(self, campaign, checkpoint_dir, max_batches: Optional[int] = None):
        """Run (or resume) one shard of a checkpointed soak campaign.

        Thin delegation to :func:`repro.cov.soak.run_soak` with this
        runner supplying scheduling, caching and progress; see
        :mod:`repro.cov.soak` for the determinism contract.

        Args:
            campaign: A :class:`repro.cov.soak.SoakCampaign`.
            checkpoint_dir: Directory the shard checkpoint lives in.
            max_batches: Stop (resumably) after this many batches.

        Returns:
            The shard's final :class:`repro.cov.soak.SoakState`.
        """
        from ..cov.soak import run_soak

        return run_soak(campaign, self, checkpoint_dir, max_batches=max_batches)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _run_units(self, units, verb: str, noun: str):
        """:func:`repro.exec.run_units` with this runner's settings."""
        return run_units(
            units,
            cache=self.cache,
            executor=self.executor,
            jobs=self.jobs,
            emit=self.emit,
            verb=verb,
            noun=noun,
            unit_timeout=self.unit_timeout,
        )


def run_experiment(
    experiment: str,
    scale: str = "quick",
    effort: Optional[str] = None,
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
    circuits: Optional[Sequence[str]] = None,
    progress: Optional[ProgressFn] = None,
    executor: Optional[str] = None,
    unit_timeout: Optional[float] = None,
) -> RunReport:
    """One-call convenience wrapper around :class:`Runner`.

    ``repro.run_experiment("table4", jobs=4)`` reproduces Table 4 on
    four supervised worker processes, reusing (and growing) the on-disk
    result cache.
    """
    cache = ResultCache(cache_dir) if use_cache else None
    runner = Runner(
        jobs=jobs,
        cache=cache,
        progress=progress,
        executor=executor,
        unit_timeout=unit_timeout,
    )
    return runner.run(experiment, scale=scale, effort=effort, circuits=circuits)


# ---------------------------------------------------------------------------
# Structured emission
# ---------------------------------------------------------------------------


def write_json(report: RunReport, path: Path) -> Path:
    """Write the full run report (rows, summary, timings) as JSON.

    Atomic and strict: the shared schema-layer writer rejects
    non-wire-safe values instead of ``default=str``-stringifying them.
    """
    return atomic_write_json(Path(path), report.to_dict())


def _flatten(value: object) -> object:
    if isinstance(value, (dict, list, tuple)):
        return canonical_json(value)
    return value


def write_csv(report: RunReport, path: Path) -> Path:
    """Write the experiment's per-row results as CSV (one row per table row)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = report.result.rows
    headers: List[str] = []
    for row in rows:
        for key in row:
            if key not in headers:
                headers.append(key)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=headers)
        writer.writeheader()
        for row in rows:
            writer.writerow({key: _flatten(value) for key, value in row.items()})
    return path


def load_report(path: Path) -> Dict[str, object]:
    """Load a JSON report previously written by :func:`write_json`."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def render_report(data: Mapping[str, object]) -> str:
    """Render a loaded JSON report back into the CLI's text format."""
    lines = [
        f"[{data.get('experiment', '?')}] scale={data.get('scale', '?')} "
        f"effort={data.get('effort', '?')} elapsed={data.get('elapsed_s', 0.0):.2f}s "
        f"({data.get('cached_jobs', 0)} cached, {data.get('computed_jobs', 0)} synthesised)",
        str(data.get("text", "")),
    ]
    summary = data.get("summary") or {}
    if summary:
        lines.append("summary:")
        for key in sorted(summary):
            lines.append(f"  {key}: {summary[key]}")
    return "\n".join(lines)
