"""Poisoned work units for executor fault-injection tests.

Module-level (hence picklable) units whose ``run`` misbehaves on
demand: raise an exception, hard-kill the worker process, sleep past a
timeout, or crash exactly once and then succeed (via a filesystem
marker visible across processes).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from repro.schema import content_key


@dataclass(frozen=True)
class PoisonUnit:
    """A unit whose behaviour is selected by ``mode``.

    Modes: ``ok`` (return a record), ``raise`` (throw RuntimeError),
    ``exit`` (``os._exit(3)`` — kills the worker), ``sleep`` (block for
    ``sleep_s`` seconds), ``crash_once`` (``os._exit(5)`` on the first
    execution, success afterwards; needs ``marker`` pointing at a
    scratch path shared by all attempts).
    """

    index: int
    mode: str = "ok"
    marker: str = ""
    sleep_s: float = 30.0

    schema_kind = "record"

    def key(self) -> str:
        return content_key(
            {"poison-unit": self.index, "mode": self.mode, "marker": self.marker}
        )

    def describe(self) -> str:
        return f"poison#{self.index}:{self.mode}"

    def run(self):
        if self.mode == "raise":
            raise RuntimeError(f"poisoned unit {self.index}")
        if self.mode == "exit":
            os._exit(3)
        if self.mode == "sleep":
            time.sleep(self.sleep_s)
        if self.mode == "crash_once" and not os.path.exists(self.marker):
            with open(self.marker, "w", encoding="utf-8"):
                pass
            os._exit(5)
        # Carries the `record` message type's required fields so healthy
        # poison results are cacheable like real synthesis records.
        return {
            "status": "ok",
            "index": self.index,
            "circuit": f"poison{self.index}",
            "scale": "quick",
            "flow": [],
        }


def sleep_record(spec):
    """Module-level ``spec -> record`` compute that never finishes in time."""
    time.sleep(30.0)
    return {"status": "ok"}
