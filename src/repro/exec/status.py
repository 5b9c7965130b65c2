"""The one status rule, and the report bookkeeping every campaign shares.

:func:`classify` sorts a record's ``status`` into one of three outcomes:

* ``"error"`` — the unit produced no verdict: it raised, its worker
  crashed or it timed out (see :mod:`repro.exec.lifecycle`);
* ``"fail"`` — a verdict failure, i.e. a flow bug: a ``counterexample``,
  or a ``nominal-miscompare`` in a fault campaign;
* ``"pass"`` — anything else, e.g. ``equivalent``, ``skipped``,
  ``tolerated`` or a ``miscompare`` under an injected fault.

A campaign passes only with neither failures nor errors.  The
``verify``, ``fuzz`` and ``faults`` reports, soak checkpoints, the
synthesis jobs of ``repro run`` and the CLI exit codes all read this
rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Mapping

#: Status of the placeholder record of a unit that produced no verdict.
ERROR = "error"

#: Record statuses that fail a campaign as a verdict.
VERDICT_FAILURES = frozenset({"counterexample", "nominal-miscompare"})


def classify(record: Mapping[str, object]) -> str:
    """``"error"``, ``"fail"`` or ``"pass"`` for one record."""
    status = record.get("status")
    if status == ERROR:
        return "error"
    return "fail" if status in VERDICT_FAILURES else "pass"


def verified_patterns(record: Mapping[str, object]) -> int:
    """Patterns a record verified; an error placeholder verified none."""
    return 0 if classify(record) == "error" else int(record.get("patterns") or 0)


def error_detail(record: Mapping[str, object]) -> str:
    """``<type>: <message>`` of an error record."""
    error = record.get("error") or {}
    return f"{error.get('type', 'Error')}: {error.get('message', '')}"


class RecordTally:
    """Status views over ``self.records``, by the rule of :func:`classify`."""

    records: List[Dict[str, object]]

    @property
    def failures(self) -> List[Dict[str, object]]:
        return [r for r in self.records if classify(r) == "fail"]

    @property
    def errors(self) -> List[Dict[str, object]]:
        return [r for r in self.records if classify(r) == "error"]

    @property
    def results(self) -> List[Dict[str, object]]:
        """Every record that carries a verdict (errors left out)."""
        return [r for r in self.records if classify(r) != "error"]

    @property
    def passed(self) -> bool:
        return all(classify(r) == "pass" for r in self.records)

    #: What the ``verify`` and ``fuzz`` summaries call :attr:`passed`.
    all_equivalent = passed

    def count(self, status: str) -> int:
        return sum(1 for r in self.records if r.get("status") == status)

    def total_patterns(self) -> int:
        return sum(verified_patterns(r) for r in self.records)


@dataclass
class CampaignReport(RecordTally):
    """What every campaign run records besides its own identity.

    Attributes:
        records: One record per unit, in unit order.
        jobs: Worker processes requested (``-j``).
        computed: Units computed this run (cache misses, errors included).
        cached: Units replayed from the result cache.
        elapsed_s: Wall clock for the whole campaign.
    """

    #: Name in the ``[<experiment>] done in ...`` progress line.
    experiment: ClassVar[str] = "campaign"

    records: List[Dict[str, object]] = field(default_factory=list)
    jobs: int = 1
    computed: int = 0
    cached: int = 0
    elapsed_s: float = 0.0
