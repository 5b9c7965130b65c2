"""The benchmark's campaign workloads and the checks run on their outputs.

Each workload is one campaign a user of the repository waits on, driven
through the public :class:`repro.eval.runner.Runner` API exactly as the
``repro`` CLI drives it.  :func:`prepare` does everything that happens
before the campaign starts (imports, registries, flow construction,
spec enumeration) so that set-up and campaign time are measured apart;
the campaign it returns is then timed on its own, and
:func:`check_records` checks the records it produced.

Why each workload is in the benchmark is written down in ``README.md``
next to this file.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Sequence

from repro.circuits import names as circuit_names
from repro.core import Flow, FlowOptions
from repro.core.cells import CellKind, default_library
from repro.eval.engine import ResultCache
from repro.eval.runner import Runner
from repro.faults import FaultCampaign
from repro.gen import FuzzCampaign
from repro.schema import canonical_json
from repro.verify import catalog_specs

#: The ISCAS89 sequential circuits plus the five smallest ISCAS85 ones.
#: ``sin`` is left out: alone it is about a quarter of a full-catalog
#: margin search and would swamp every other circuit.
FAULT_CIRCUITS = tuple(
    name for name in circuit_names() if name.startswith("s") and name != "sin"
) + ("c432", "c499", "c880", "c1355", "c1908")

#: Reduced inputs used by the benchmark's own tests (``--tiny``): every
#: layer is still exercised (a sequential and a combinational circuit,
#: margin search, both executor paths) in a few seconds.
TINY_CIRCUITS = ("dec", "s27")
TINY_FUZZ_BUDGET = 4

#: Record fields that hold wall-clock measurements; they are stripped
#: before records are digested so that digests compare results only.
WALL_CLOCK_FIELDS = frozenset({"seconds", "synth_seconds", "sim_seconds"})


@dataclass
class CampaignCheck:
    """What the output check found in one campaign's records.

    Attributes:
        units: Records checked (one per unit).
        failed_units: Indices of error records, non-equivalent verdicts
            and nominal miscompares (digest mismatches are found by the
            caller, which holds the reference digests).
        unit_digests: One digest per record, in unit order.
        digest: Digest of the whole record list.
        jj_total: Summed JJ count of every mapped netlist.
        patterns: Patterns actually verified, over every simulation.
        statuses: Count of each record status.
    """

    units: int
    failed_units: List[int]
    unit_digests: List[str]
    digest: str
    jj_total: int
    patterns: int
    statuses: Dict[str, int]


#: Workloads whose units run in two worker processes; the others run
#: serially in the campaign's own process.
WORKER_WORKLOADS = ("fuzz-200-workers2",)


def _runner(workload: str, cache_dir: Path) -> Runner:
    if workload in WORKER_WORKLOADS:
        return Runner(jobs=2, cache=ResultCache(cache_dir), executor="workers")
    return Runner(jobs=1, cache=ResultCache(cache_dir), executor="serial")


def prepare(
    workload: str, seed: int, cache_dir: Path, tiny: bool = False
) -> Callable[[], List[Dict[str, object]]]:
    """Build the runner and the units of ``workload`` at ``seed``.

    Returns the campaign, ready to start: calling it runs the campaign
    and returns its records.
    """
    runner = _runner(workload, cache_dir)
    if workload == "catalog-verify":
        specs = catalog_specs(
            circuits=TINY_CIRCUITS if tiny else None,
            scale="quick",
            flow=Flow.from_options(FlowOptions(effort="medium")),
            patterns=256,
            seed=seed,
        )
        return lambda: runner.verify(specs).records
    if workload == "faults-margin":
        campaign = FaultCampaign(
            circuits=TINY_CIRCUITS if tiny else FAULT_CIRCUITS,
            kinds=("jitter", "skew"),
            seed=seed,
            patterns=64,
            margin=True,
        )
        units = campaign.units()
        return lambda: runner.faults(campaign, units=units).records
    if workload not in ("fuzz-200", "fuzz-200-workers2"):
        raise ValueError(f"unknown workload {workload!r}")
    campaign = FuzzCampaign(budget=TINY_FUZZ_BUDGET if tiny else 200, seed=seed)
    units = campaign.units()
    return lambda: runner.fuzz(campaign, units=units, shrink=False).records


def strip_wall_clock(record: Mapping[str, object]) -> Dict[str, object]:
    """The record without its wall-clock fields."""
    return {
        key: value
        for key, value in record.items()
        if key not in WALL_CLOCK_FIELDS and not key.endswith("_seconds")
    }


def _digest(value: object) -> str:
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()[:16]


def _failed(workload: str, record: Mapping[str, object]) -> bool:
    status = record.get("status")
    if workload == "faults-margin":
        # Margin search only resolves to "tolerated" once the nominal
        # (fault-free) check passed; anything else is a failure.
        return status != "tolerated"
    return status != "equivalent"


def _verified_patterns(record: Mapping[str, object]) -> int:
    patterns = int(record.get("patterns") or 0)
    # A margin search verifies the nominal suite plus one suite per probe.
    probes = record.get("margin_probes") or ()
    return patterns * (1 + len(probes))


def _jj_count(record: Mapping[str, object], library) -> int:
    counts = record.get("cell_counts") or {}
    return sum(library.jj_count(CellKind(family)) * int(n) for family, n in counts.items())


def check_records(workload: str, records: Sequence[Mapping[str, object]]) -> CampaignCheck:
    """Check every record and digest the campaign's outputs."""
    library = default_library()
    stripped = [strip_wall_clock(record) for record in records]
    statuses: Dict[str, int] = {}
    for record in records:
        status = str(record.get("status"))
        statuses[status] = statuses.get(status, 0) + 1
    return CampaignCheck(
        units=len(records),
        failed_units=[i for i, record in enumerate(records) if _failed(workload, record)],
        unit_digests=[_digest(record) for record in stripped],
        digest=_digest(stripped),
        jj_total=sum(_jj_count(record, library) for record in records),
        patterns=sum(_verified_patterns(record) for record in records),
        statuses=dict(sorted(statuses.items())),
    )
