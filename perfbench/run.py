"""Campaign benchmark of the xSFQ synthesis and verification flow.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload catalog-verify --seed 1 --seconds 30 --trace 0

Every campaign runs in a fresh interpreter (``campaign.py``) with a fresh
result-cache directory under ``.perfbench/``.  With ``--trace 0`` the
script repeats the campaign while another one would likely end within
``--seconds`` (at least once), times set-up separately in further fresh
interpreters, and reports the end-to-end metrics of ``BENCHMARK.json``
as medians.  Times are reported at a reference host speed, measured
with a calibration kernel during each campaign (``speed.py``).  With
``--trace 1`` it runs the campaign once untraced and once with every
layer wrapped, and reports the per-layer metrics, the tracing overhead
and the share of wall time no span covers; the Chrome trace-event file
and the self-time table are kept in ``.perfbench/traces/``.

Every campaign's records are checked: each verdict must be equivalent
(fault campaigns: tolerated, i.e. no nominal miscompare), no record may
be an error, and each record's digest (wall-clock fields stripped) must
equal the digest recorded by the first campaign at that seed in this
checkout -- shared by ``fuzz-200`` and ``fuzz-200-workers2``, whose
records must be identical.  Failed units are reported in ``failed``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

#: Every workload ``campaign.py`` knows.  ``BENCHMARK.json`` lists the
#: ones timed on every change; ``fuzz-200-workers2`` is run by hand (see
#: README.md).
WORKLOADS = ("catalog-verify", "fuzz-200", "faults-margin", "fuzz-200-workers2")

#: Fresh interpreters timed for ``setup_s`` besides each campaign's own.
SETUP_SAMPLES = 3

#: A single campaign process is killed after this long.
CAMPAIGN_TIMEOUT_S = 150.0

#: Seed that later performance claims must also hold on; it is not one
#: of the seeds the benchmark was tuned with.
HELD_OUT_SEED = 7919


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a failed check)."""


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="reduced inputs, for the benchmark's own tests")
    return parser.parse_args(argv)


class Session:
    """One benchmark invocation: its scratch directory and child processes."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.dir = WORK / f"run-{os.getpid()}"
        self.count = 0
        self.env = dict(os.environ)
        self.env["TMPDIR"] = str(self.dir / "tmp")

    def __enter__(self) -> "Session":
        (self.dir / "tmp").mkdir(parents=True, exist_ok=True)
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def campaign(self, mode: str) -> tuple:
        """Start ``campaign.py``; return (set-up seconds, result or None).

        The set-up seconds are rescaled to the reference speed with the
        calibration the process made during set-up (``speed.py``).
        """
        self.count += 1
        cache_dir = self.dir / f"cache{self.count}"
        out = self.dir / f"result{self.count}.json"
        command = [
            sys.executable, str(HERE / "campaign.py"),
            "--workload", self.args.workload, "--seed", str(self.args.seed),
            "--mode", mode, "--cache-dir", str(cache_dir), "--out", str(out),
            "--trace-dir", str(WORK / "traces"),
        ]
        if self.args.tiny:
            command.append("--tiny")
        started = time.perf_counter()
        child = subprocess.Popen(command, stdout=subprocess.PIPE, env=self.env,
                                 cwd=str(ROOT), text=True)
        try:
            line = child.stdout.readline()
            setup_s = time.perf_counter() - started
            child.communicate(timeout=CAMPAIGN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            raise BenchError(f"campaign process ({mode}) timed out")
        code = child.returncode
        if line.strip() != "ready" or code != 0:
            raise BenchError(f"campaign process ({mode}) failed with exit code {code}")
        shutil.rmtree(cache_dir, ignore_errors=True)
        result = json.loads(out.read_text())
        # Set-up time without the calibration, at the reference speed.
        setup_s = (setup_s - result["setup_overhead_s"]) * result["setup_factor"]
        return setup_s, (None if mode == "setup" else result)


def _digest_key(workload: str, seed: int, tiny: bool) -> str:
    group = "fuzz-200" if workload.startswith("fuzz-200") else workload
    return f"{group}{'-tiny' if tiny else ''}:s{seed}"


def count_failures(results: list, workload: str, seed: int, tiny: bool) -> int:
    """Failed units over all campaigns, digest mismatches included.

    The first campaign at a seed in this checkout records its per-unit
    digests in ``.perfbench/digests.json``; every later campaign at that
    seed, of this workload or of its digest partner, must match them.
    """
    store_path = WORK / "digests.json"
    store = json.loads(store_path.read_text()) if store_path.is_file() else {}
    key = _digest_key(workload, seed, tiny)
    failed = 0
    for result in results:
        reference = store.setdefault(key, {"units": result["unit_digests"]})
        bad = set(result["failed_units"])
        digests = result["unit_digests"]
        expected = reference["units"]
        bad.update(i for i in range(len(digests))
                   if i >= len(expected) or digests[i] != expected[i])
        failed += len(bad) + max(0, len(expected) - len(digests))
    tmp = store_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    os.replace(tmp, store_path)
    return failed


def measure(session: Session) -> tuple:
    """``--trace 0``: campaigns for ``--seconds``, then set-up samples."""
    args = session.args
    setups, results = [], []
    started = time.perf_counter()
    while True:
        began = time.perf_counter()
        setup_s, result = session.campaign("run")
        setups.append(setup_s)
        results.append(result)
        elapsed = time.perf_counter() - started
        # Start no campaign that would likely end after ``--seconds``.
        if elapsed + (time.perf_counter() - began) > args.seconds:
            break
    for _ in range(SETUP_SAMPLES):
        setups.append(session.campaign("setup")[0])

    def median(key):
        return statistics.median(key(r) for r in results)

    metrics = {
        "campaign_s": median(lambda r: r["campaign_s"]),
        "campaign_cpu_s": median(lambda r: r["campaign_cpu_s"]),
        "units_per_s": median(lambda r: r["units"] / r["campaign_s"]),
        "patterns_per_s": median(lambda r: r["patterns"] / r["campaign_s"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": median(lambda r: r["peak_rss_mb"]),
        "jj_total": results[0]["jj_total"],
    }
    print(f"perfbench: {len(results)} campaign(s), campaign_s "
          f"{[round(r['campaign_s'], 3) for r in results]} at the reference "
          f"speed, {[round(r['wall_s'], 3) for r in results]} as measured "
          f"(speed factors {[round(r['speed_factor'], 3) for r in results]}), "
          f"statuses {results[0]['statuses']}")
    return metrics, results


def measure_traced(session: Session) -> tuple:
    """``--trace 1``: one untraced and one traced campaign."""
    _, untraced = session.campaign("run")
    _, traced = session.campaign("trace")
    metrics = dict(traced["layer_metrics"])
    metrics["bench.traced_campaign_s"] = traced["campaign_s"]
    metrics["bench.tracing_overhead_s"] = traced["campaign_s"] - untraced["campaign_s"]
    print(traced["table"])
    if session.args.workload == "fuzz-200-workers2":
        print("perfbench: units ran in worker processes; only the parent-side "
              "exec and eval.engine layers are traced")
    print(f"perfbench: trace written to {traced['trace_file']}")
    return metrics, [untraced, traced]


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    try:
        with Session(args) as session:
            metrics, results = (measure_traced if args.trace else measure)(session)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    failed = count_failures(results, args.workload, args.seed, args.tiny)
    attempted = sum(r["units"] for r in results)
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"perfbench: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    print(f"perfbench: workload {args.workload}, seed {args.seed} "
          f"(held-out seed for claims: {HELD_OUT_SEED}), trace {args.trace}, "
          f"{failed}/{attempted} units failed")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
