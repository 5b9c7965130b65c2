"""Runner/engine tests: cache behaviour, parallel-serial equality, emission."""

import json

import pytest

from repro.core import Flow, FlowOptions, StageCache, set_stage_cache
from repro.eval import ResultCache, Runner, SynthesisJob, synthesis_record
from repro.eval.runner import EXPERIMENTS, load_report, write_csv, write_json
from repro.exec import SpecUnit, run_units

# Small, fast circuits: the point of these tests is the engine, not the flow.
FAST_CIRCUITS = ["ctrl", "int2float"]
FAST_OPTIONS = {"effort": "none"}


def fast_job(circuit="ctrl", scale="quick", **overrides):
    options = dict(FAST_OPTIONS)
    options.update(overrides)
    return SynthesisJob.create(circuit, scale, options)


def run_jobs(cache, *jobs):
    """Resolve ``jobs`` through the execution lifecycle against ``cache``."""
    return run_units([SpecUnit(job, synthesis_record) for job in jobs], cache=cache)


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------


def test_cache_miss_then_hit(tmp_path):
    cache = ResultCache(tmp_path)
    job = fast_job()

    record = run_jobs(cache, job).records[job.key()]
    assert cache.misses == 1 and cache.puts == 1 and cache.hits == 0
    assert record["circuit"] == "ctrl" and record["jj"] > 0

    # A second cache on the same directory must hit, not recompute.
    fresh = ResultCache(tmp_path)
    replay = run_jobs(fresh, job)
    assert fresh.hits == 1 and fresh.misses == 0
    assert replay.computed == 0
    assert replay.records[job.key()] == json.loads(json.dumps(record))  # JSON-roundtripped equal


def test_cache_key_distinguishes_jobs():
    from repro import FlowOptions

    base = fast_job()
    assert base.key() == fast_job().key()
    # Partial option mappings canonicalise to the same key as FlowOptions.
    assert base.key() == SynthesisJob.create("ctrl", "quick", FlowOptions(effort="none")).key()
    assert base.key() != fast_job(scale="paper").key()
    assert base.key() != fast_job(circuit="int2float").key()
    assert base.key() != fast_job(effort="low").key()
    assert base.key() != fast_job(optimize_polarity=False).key()


def test_cache_clear_and_len(tmp_path):
    cache = ResultCache(tmp_path)
    run_jobs(cache, fast_job())
    assert len(cache) == 1 and cache.contains(fast_job())
    assert cache.clear() == 1
    assert len(cache) == 0 and not cache.contains(fast_job())


def test_cache_keys_on_flow_signature():
    # The record cache is addressed by the staged flow signature, so an
    # options-built job and the equivalent Flow-built job are one record.
    by_options = fast_job()
    by_flow = SynthesisJob.from_flow(
        "ctrl", "quick", Flow.from_options(FlowOptions(effort="none"))
    )
    assert by_options.key() == by_flow.key()
    # A hand-composed flow with a different stage list is a different record.
    custom = SynthesisJob.from_flow(
        "ctrl",
        "quick",
        Flow.from_script(
            ["frontend", ("aig-opt", {"effort": "none"}),
             ("polarity", {"mode": "positive"}), "map", "sequential", "report"]
        ),
    )
    assert custom.key() != by_options.key()
    assert custom.flow().stage_names()[0] == "frontend"
    with pytest.raises(ValueError, match="hand-composed"):
        custom.flow_options()


def test_record_carries_flow_signature_and_stage_timings():
    record = synthesis_record(fast_job())
    assert [entry[0] for entry in record["flow"]] == [
        "frontend", "aig-opt", "pipeline", "polarity", "map", "sequential", "report",
    ]
    stage_rows = record["stages"]
    assert [row["stage"] for row in stage_rows] == [e[0] for e in record["flow"]]
    assert all(row["seconds"] >= 0.0 for row in stage_rows)


# ---------------------------------------------------------------------------
# Stage-level memoisation across flow variants
# ---------------------------------------------------------------------------


def test_polarity_sweep_reuses_cached_aig_opt_stage():
    """Acceptance: a two-variant polarity sweep reuses the post-aig-opt AIG."""
    from repro.core import get_stage_cache

    previous = set_stage_cache(StageCache())
    try:
        stage_cache = get_stage_cache()
        synthesis_record(fast_job(effort="low", optimize_polarity=True))
        hits_before = stage_cache.hits
        second = synthesis_record(fast_job(effort="low", optimize_polarity=False))
        assert stage_cache.hits == hits_before + 1
        # The reused prefix is exactly the post-aig-opt boundary: the second
        # record shows frontend/aig-opt served from the stage cache.
        cached_stages = [r["stage"] for r in second["stages"] if r["cached"]]
        assert cached_stages == ["frontend", "aig-opt"]
    finally:
        set_stage_cache(previous)


def test_stage_cache_does_not_change_results():
    previous = set_stage_cache(StageCache())
    try:
        plain = fast_job("int2float", effort="low")
        positive = fast_job("int2float", effort="low", optimize_polarity=False)
        first = synthesis_record(plain)
        second = synthesis_record(positive)
        set_stage_cache(StageCache())  # cold cache, same jobs
        assert _metrics_only(synthesis_record(plain)) == _metrics_only(first)
        assert _metrics_only(synthesis_record(positive)) == _metrics_only(second)
    finally:
        set_stage_cache(previous)


def _metrics_only(record):
    """Strip the timing rows (the only legitimately nondeterministic part)."""
    return {k: v for k, v in record.items() if k != "stages"}


# ---------------------------------------------------------------------------
# Parallel vs serial
# ---------------------------------------------------------------------------


def test_parallel_run_matches_serial_assembly(tmp_path):
    serial = Runner(jobs=1).run("table4", effort="none", circuits=FAST_CIRCUITS).result

    runner = Runner(jobs=2, cache=ResultCache(tmp_path / "cache"))
    report = runner.run("table4", effort="none", circuits=FAST_CIRCUITS)

    assert report.result.rows == serial.rows
    assert report.result.summary == serial.summary
    assert report.result.text == serial.text
    assert report.total_jobs == len(FAST_CIRCUITS)
    assert report.computed_jobs == len(FAST_CIRCUITS)
    assert report.cached_jobs == 0

    # Second invocation: everything from cache, zero re-synthesis.
    replay = Runner(jobs=2, cache=ResultCache(tmp_path / "cache")).run(
        "table4", effort="none", circuits=FAST_CIRCUITS
    )
    assert replay.computed_jobs == 0
    assert replay.cached_jobs == len(FAST_CIRCUITS)
    assert replay.result.rows == serial.rows
    assert replay.result.summary == serial.summary


def test_runner_rejects_unknown_experiment():
    with pytest.raises(KeyError, match="unknown experiment"):
        Runner().run("table99")


def test_every_spec_enumerates_consistently():
    # Specs must enumerate declaratively (no synthesis) at both scales.
    for name, spec in EXPERIMENTS.items():
        jobs = spec.enumerate_jobs("quick")
        assert isinstance(jobs, list), name
        for job in jobs:
            assert isinstance(job, SynthesisJob)
            # Every enumerated option must round-trip through FlowOptions.
            job.flow_options()


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def test_json_and_csv_emission(tmp_path):
    runner = Runner(jobs=1, cache=ResultCache(tmp_path / "cache"))
    report = runner.run("table4", effort="none", circuits=["ctrl"])

    json_path = write_json(report, tmp_path / "out" / "table4.json")
    data = load_report(json_path)
    assert data["experiment"] == "table4"
    assert data["rows"] == json.loads(json.dumps(report.result.rows))
    assert data["total_jobs"] == 1
    assert "text" in data and "summary" in data

    csv_path = write_csv(report, tmp_path / "out" / "table4.csv")
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 1 + len(report.result.rows)
    assert lines[0].startswith("circuit,")
