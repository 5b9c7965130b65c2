"""Tests of the campaign benchmark itself, on reduced (``--tiny``) inputs.

Every campaign runs in a subprocess, exactly as the benchmark runs it,
so the wrappers installed by a traced run never touch this process.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def traced(tmp_path_factory) -> dict:
    """One traced tiny campaign of every workload, by workload name."""
    tmp_path = tmp_path_factory.mktemp("traced")
    results = {}
    for workload in ("catalog-verify", "fuzz-200", "faults-margin", "fuzz-200-workers2"):
        out = tmp_path / f"{workload}.json"
        subprocess.run(
            [sys.executable, str(HERE / "campaign.py"), "--workload", workload,
             "--seed", "3", "--mode", "trace", "--tiny",
             "--cache-dir", str(tmp_path / workload), "--out", str(out),
             "--trace-dir", str(tmp_path / "traces")],
            check=True, cwd=str(ROOT), stdout=subprocess.DEVNULL, timeout=120,
        )
        results[workload] = json.loads(out.read_text())
    return results


def _run(tmp_root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(tmp_root / "perfbench" / "run.py"), *args],
        cwd=str(tmp_root), capture_output=True, text=True, timeout=170,
    )


def test_every_wrapper_fires_and_every_layer_reads_nonzero(traced):
    fired, wrapped = set(), set()
    layer_seconds = {layer: 0.0 for layer in tracing.LAYERS.values()}
    for workload in ("catalog-verify", "fuzz-200", "faults-margin"):
        result = traced[workload]
        assert result["failed_units"] == []
        trace = json.loads(Path(result["trace_file"]).read_text())
        wrapped.update(trace["otherData"]["wrapped"])
        events = trace["traceEvents"]
        fired.update(event["name"] for event in events)
        for event in events:
            assert event["ph"] == "X" and event["dur"] >= 0
            assert event["args"]["unit"] or event["name"] == "exec.run_units"
            layer_seconds[event["cat"]] += event["dur"]
    assert wrapped - fired == set()
    assert [layer for layer, seconds in layer_seconds.items() if seconds <= 0] == []


def test_workers_run_traces_parent_side_exec(traced):
    metrics = traced["fuzz-200-workers2"]["layer_metrics"]
    assert metrics["exec.attempts"] == 3 * workloads.TINY_FUZZ_BUDGET
    assert metrics["engine.cache_puts"] == 3 * workloads.TINY_FUZZ_BUDGET
    assert metrics["exec.parallel_efficiency"] > 0


def test_workers_and_serial_fuzz_records_are_identical(traced):
    serial, workers = traced["fuzz-200"], traced["fuzz-200-workers2"]
    assert workers["failed_units"] == []
    assert workers["unit_digests"] == serial["unit_digests"]
    assert workers["jj_total"] == serial["jj_total"]


def test_sampler_times_the_kernel_and_restores_the_alarm_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with speed.Sampler(0.01) as sampler:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 3
    assert 0 < sampler.spent_s == pytest.approx(sum(sampler.samples))
    assert sampler.factor() == pytest.approx(
        speed.REFERENCE_KERNEL_S / speed.typical(sampler.samples))


def test_typical_drops_the_outer_tenths():
    assert speed.typical([1.0] * 9 + [100.0]) == 1.0
    assert speed.typical([1.0, 3.0]) == 2.0


def test_campaign_times_are_rescaled_except_on_workers(traced):
    for workload, result in traced.items():
        factor = result["speed_factor"]
        assert result["campaign_s"] == pytest.approx(result["wall_s"] * factor)
        assert result["campaign_cpu_s"] == pytest.approx(result["cpu_s"] * factor)
        assert result["setup_factor"] > 0 and result["setup_overhead_s"] > 0
        if workload == "fuzz-200-workers2":
            assert factor == 1.0 and result["calibration_s"] == 0.0
        else:
            assert factor > 0 and result["calibration_s"] >= 0.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        tracing.Span("exec.run_units", 0.0, 10.0),
        tracing.Span("flowgraph.aig-opt", 1.0, 7.0, parent=0),
        tracing.Span("aig.refactor", 2.0, 6.0, parent=1),
    ]
    assert tracing.self_times(spans) == [4.0, 2.0, 4.0]
    layers = tracing.layer_self_times(spans)
    assert (layers["exec"], layers["core.flowgraph"], layers["aig"]) == (4.0, 2.0, 4.0)


def test_digest_ignores_wall_clock_fields_only():
    record = {"circuit": "c17", "status": "equivalent", "patterns": 32,
              "cell_counts": {"LA": 3}, "seconds": 0.5, "synth_seconds": 1.5}
    slower = dict(record, seconds=9.0, synth_seconds=9.0)
    first = workloads.check_records("catalog-verify", [record])
    assert first.unit_digests == workloads.check_records("catalog-verify", [slower]).unit_digests
    broken = dict(record, status="counterexample")
    second = workloads.check_records("catalog-verify", [broken])
    assert second.unit_digests != first.unit_digests
    assert second.failed_units == [0]


@pytest.fixture
def checkout(tmp_path):
    """A copy of the files the benchmark needs, outside the repository."""
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    return tmp_path


def test_refuses_to_run_without_the_package(checkout):
    done = _run(checkout, "--workload", "fuzz-200", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_names_every_metric_with_its_unit(checkout, trace):
    shutil.copytree(ROOT / "src" / "repro", checkout / "src" / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(checkout, "--workload", "catalog-verify", "--seed", "5",
                "--seconds", "1", "--trace", trace, "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = spec["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    assert "seed 5" in done.stdout
