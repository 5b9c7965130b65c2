"""Pulse-accurate verification: does the mapped netlist actually work?

The subsystem answers that question at three granularities:

* :func:`verify_result` — one synthesis result, one reproducible
  stimulus suite, one batched pulse-simulation run cross-checked against
  word-parallel golden AIG simulation, one machine-checkable
  :class:`VerificationVerdict` (counterexample pattern + first
  divergence net on failure);
* the ``verify`` **flow stage** (registered on import, see
  :mod:`repro.verify.flowstage`) — any composed
  :class:`~repro.core.flowgraph.Flow` can end in a verdict;
* :class:`VerificationSpec` **campaigns** — declarative, cacheable,
  picklable units scheduled through :mod:`repro.exec` by
  :meth:`repro.eval.runner.Runner.verify` and surfaced as
  ``repro verify [--catalog|--circuit NAME]`` on the CLI.

See ``docs/verification.md`` for the stimulus model, the batching
strategy and how to read counterexamples.
"""

from .stimulus import StimulusSuite, stimulus_suite
from .equivalence import (
    Counterexample,
    VerificationError,
    VerificationVerdict,
    verify_result,
)
from .campaign import (
    VerificationReport,
    VerificationSpec,
    catalog_specs,
    verification_record,
)
from . import flowstage  # noqa: F401  - registers the 'verify' stage

__all__ = [
    "StimulusSuite",
    "stimulus_suite",
    "Counterexample",
    "VerificationError",
    "VerificationVerdict",
    "verify_result",
    "VerificationReport",
    "VerificationSpec",
    "catalog_specs",
    "verification_record",
]
