"""Catalog-wide verification campaigns on the eval execution engine.

A :class:`VerificationSpec` is the verification analogue of
:class:`repro.eval.engine.SynthesisJob`: a declarative, picklable unit —
circuit name, scale, the flow's canonical signature, and the stimulus
parameters (pattern budget, seed, trajectory length).  Its
content-addressed :meth:`~VerificationSpec.key` is what the shared
:class:`repro.eval.engine.ResultCache` stores verdict records under, so a
warm cache replays an entire catalog campaign with zero re-synthesis and
zero re-simulation, and the ``serial`` or ``workers`` backend of
:meth:`repro.eval.runner.Runner.verify` never computes the same spec
twice.

:func:`verification_record` is the worker-process entry point: build the
catalogued circuit, run the flow (reusing the in-process stage cache),
verify the mapped netlist against the *source network* — an end-to-end
check of the whole synthesis stack — and flatten the verdict to JSON.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import ClassVar, Dict, List, Mapping, Optional, Sequence

from ..circuits import build as build_circuit
from ..circuits import info as circuit_info
from ..circuits import names as circuit_names
from ..core import Flow, get_stage_cache
from ..core.flowgraph import StageSignature
from ..core.report import format_table
from ..exec.status import CampaignReport, classify, error_detail, verified_patterns
from ..schema import spec_key
from .equivalence import VerificationVerdict, verify_result

__all__ = [
    "VerificationReport",
    "VerificationSpec",
    "catalog_specs",
    "verification_record",
]

@dataclass(frozen=True)
class VerificationSpec:
    """One schedulable, cacheable verification unit.

    Attributes:
        circuit: Name from :mod:`repro.circuits.registry`.
        scale: ``"quick"`` or ``"paper"`` circuit dimensions.
        stages: Canonical flow signature of the synthesis under test.
        patterns: Stimulus pattern budget.
        seed: Stimulus seed.
        sequence_length: Cycles per trajectory (sequential circuits).
    """

    #: Message kind this spec's records are stored under (see ``repro.schema``).
    schema_kind: ClassVar[str] = "verify"

    circuit: str
    scale: str = "quick"
    stages: StageSignature = ()
    patterns: int = 256
    seed: int = 0
    sequence_length: int = 8

    @classmethod
    def create(
        cls,
        circuit: str,
        scale: str = "quick",
        flow: Optional[Flow] = None,
        patterns: int = 256,
        seed: int = 0,
        sequence_length: int = 8,
    ) -> "VerificationSpec":
        """Build a spec for a circuit under an arbitrary flow (default flow when omitted)."""
        flow = flow if flow is not None else Flow.default()
        return cls(
            circuit=circuit,
            scale=scale,
            stages=flow.signature(),
            patterns=int(patterns),
            seed=int(seed),
            sequence_length=int(sequence_length),
        )

    def flow(self) -> Flow:
        """Reconstruct the runnable flow this spec verifies."""
        return Flow.from_signature(self.stages) if self.stages else Flow.default()

    def key(self) -> str:
        """Content-addressed cache key: flow signature + stimulus identity.

        :meth:`to_dict` fields, with the flow as its canonical signature,
        through :func:`repro.schema.spec_key` — a non-JSON-native value
        in the signature raises instead of destabilising the key.
        """
        flow = self.stages or Flow.default().signature()
        return spec_key(self.schema_kind, {**self.to_dict(), "flow": flow})

    def label(self) -> str:
        return f"{self.circuit}@{self.scale} n={self.patterns} seed={self.seed}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "circuit": self.circuit,
            "scale": self.scale,
            "flow": [[name, dict(options)] for name, options in self.stages],
            "patterns": self.patterns,
            "seed": self.seed,
            "sequence_length": self.sequence_length,
        }


def catalog_specs(
    circuits: Optional[Sequence[str]] = None,
    scale: str = "quick",
    flow: Optional[Flow] = None,
    patterns: int = 256,
    seed: int = 0,
    sequence_length: int = 8,
) -> List[VerificationSpec]:
    """Specs for a circuit subset (default: the whole registry catalog)."""
    names = list(circuits) if circuits else circuit_names()
    return [
        VerificationSpec.create(
            name,
            scale=scale,
            flow=flow,
            patterns=patterns,
            seed=seed,
            sequence_length=sequence_length,
        )
        for name in names
    ]


def verification_record(spec: VerificationSpec) -> Dict[str, object]:
    """Worker-process entry: synthesise, verify, flatten to a JSON record."""
    info = circuit_info(spec.circuit)
    network = build_circuit(spec.circuit, spec.scale)
    synth_started = time.perf_counter()
    result = spec.flow().run(network, stage_cache=get_stage_cache())
    synth_seconds = time.perf_counter() - synth_started
    verdict = verify_result(
        result,
        golden=network,
        patterns=spec.patterns,
        seed=spec.seed,
        sequence_length=spec.sequence_length,
    )
    record = verdict.to_dict()
    spec_fields = spec.to_dict()
    # The verdict's "patterns" is the count actually verified (exhaustive
    # suites finish in fewer than requested); keep it, and store the
    # request under its own key instead of clobbering it.
    record["requested_patterns"] = spec_fields.pop("patterns")
    record.update(spec_fields)
    record["kind"] = info.kind
    record["suite"] = info.suite
    record["synth_seconds"] = synth_seconds
    record["cell_counts"] = _cell_counts(result)
    return record


def _cell_counts(result) -> Dict[str, int]:
    """Histogram of mapped cell families, sorted by family name.

    The coverage subsystem (:mod:`repro.cov`) buckets these into
    flow x cell-family features; sorting keeps records canonical.
    """
    counts: Dict[str, int] = {}
    netlist = getattr(result, "netlist", None)
    for cell in getattr(netlist, "cells", ()) or ():
        family = cell.kind.value
        counts[family] = counts.get(family, 0) + 1
    return dict(sorted(counts.items()))


@dataclass
class VerificationReport(CampaignReport):
    """Everything one campaign produced (mirrors ``RunReport`` for verify).

    Besides the :class:`~repro.exec.status.CampaignReport` bookkeeping:

    Attributes:
        scale: Circuit scale used.
        patterns: Requested pattern budget.
        seed: Stimulus seed.
    """

    experiment: ClassVar[str] = "verify"

    scale: str = "quick"
    patterns: int = 256
    seed: int = 0

    def table(self) -> str:
        """The ``repro verify`` table, one row per record."""
        rows = [
            [
                record.get("circuit", "?"),
                record.get("kind", "?"),
                record.get("status", "?").upper(),
                verified_patterns(record),
                int(record.get("elaborations") or 0),
                f"{float(record.get('seconds') or 0.0):.2f}",
                verdict_detail(record),
            ]
            for record in self.records
        ]
        return format_table(
            ["Circuit", "Kind", "Status", "Patterns", "Elab", "Sim (s)", "Detail"],
            rows,
        )

    def summary(self) -> Dict[str, object]:
        return {
            "circuits": len(self.records),
            "equivalent": self.count("equivalent"),
            "counterexamples": len(self.failures),
            "skipped": self.count("skipped"),
            "total_patterns": self.total_patterns(),
            "all_equivalent": self.all_equivalent,
        }

    def to_dict(self) -> Dict[str, object]:
        return {
            "experiment": self.experiment,
            "scale": self.scale,
            "patterns": self.patterns,
            "seed": self.seed,
            "jobs": self.jobs,
            "computed": self.computed,
            "cached": self.cached,
            "elapsed_s": self.elapsed_s,
            "rows": self.records,
            # Rendered table, so `repro report` re-renders saved campaigns.
            "text": self.table(),
            "summary": self.summary(),
        }


def verdict_detail(record: Mapping[str, object]) -> str:
    """A record's verdict summary, or ``<type>: <message>`` if it errored."""
    if classify(record) == "error":
        return error_detail(record)
    return VerificationVerdict.from_dict(record).summary()
