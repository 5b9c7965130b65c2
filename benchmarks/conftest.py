"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  Two
environment variables control the fidelity/runtime trade-off:

* ``REPRO_SCALE``  — ``quick`` (default) or ``paper`` benchmark-circuit scale;
* ``REPRO_EFFORT`` — AIG optimisation effort (``low`` default, ``medium``,
  ``high``).

``REPRO_SCALE=paper REPRO_EFFORT=medium pytest benchmarks/ --benchmark-only``
reproduces the closest approximation of the paper's setup (expect a long
runtime in pure Python).

Table benchmarks run through one session-wide :class:`repro.eval.Runner`
backed by the content-addressed result cache of :mod:`repro.eval.engine`,
so experiments that share circuits (e.g. the headline ablation re-running
Tables 4 and 6) synthesise each (circuit, scale, options) combination only
once.  Set ``REPRO_CACHE_DIR`` to persist the cache across pytest sessions,
or ``REPRO_NO_CACHE=1`` to time every synthesis from scratch.
"""

import os
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


@pytest.fixture(scope="session")
def scale() -> str:
    return os.environ.get("REPRO_SCALE", "quick")


@pytest.fixture(scope="session")
def effort() -> str:
    return os.environ.get("REPRO_EFFORT", "low")


@pytest.fixture(scope="session")
def runner(tmp_path_factory):
    """One runner whose result cache serves repeated synthesis jobs."""
    from repro.eval import ResultCache, Runner

    if os.environ.get("REPRO_NO_CACHE"):
        # No result cache: every benchmark times from-scratch synthesis.
        return Runner(cache=None)
    cache_dir = os.environ.get("REPRO_CACHE_DIR") or tmp_path_factory.mktemp(
        "repro-cache"
    )
    return Runner(cache=ResultCache(cache_dir))


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
