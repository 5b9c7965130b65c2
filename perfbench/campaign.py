"""Run one benchmark campaign in a fresh interpreter.

``run.py`` starts this script once per measured campaign, because a user
pays a cold process on every ``repro`` call: a fresh in-memory stage
cache, empty ``aig.sop`` memos and an empty on-disk result cache (the
``--cache-dir`` it is given).  The script prints ``ready`` on standard
output as soon as set-up is done (imports, registries, flow
construction, unit enumeration), so the parent can time set-up apart
from the campaign; then it runs the campaign, checks the records, and
writes a JSON summary to ``--out``.

Modes:

* ``setup``  -- exit right after ``ready`` (set-up samples).
* ``run``    -- the untraced campaign.
* ``trace``  -- the campaign with every layer wrapped (``tracing.py``);
  also writes a Chrome trace-event file and a self-time table.
* ``repeat`` -- the campaign twice in one process, the second time with
  a fresh stage cache and result cache but warm ``aig.sop`` memos: the
  gap between the two is what a fresh process pays for the memo fill.

In every mode the script times a calibration kernel during set-up and
during the campaign, and reports the speed factors it found next to the
times as measured (``speed.py``).

Example::

    python3 perfbench/campaign.py --workload fuzz-200 --seed 0 \\
        --mode repeat --cache-dir .perfbench/c --out .perfbench/r.json
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

MODES = ("setup", "run", "trace", "repeat")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=MODES, default="run")
    parser.add_argument("--cache-dir", required=True, type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace-dir", type=Path, default=ROOT / ".perfbench" / "traces")
    parser.add_argument("--tiny", action="store_true",
                        help="reduced inputs (the benchmark's own tests)")
    return parser.parse_args(argv)


def _cpu_seconds() -> float:
    """CPU time of this process plus every child it has waited for."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _memo_stats() -> dict:
    from repro.aig import sop

    info = sop.factored_form_cost.cache_info()
    return {"hits": info.hits, "misses": info.misses}


def _timed(campaign, workload: str) -> dict:
    """Run the campaign, check it, and time it at the reference speed.

    ``wall_s`` and ``cpu_s`` are the times as measured, less the
    calibration kernel's calls; ``campaign_s`` and ``campaign_cpu_s``
    are the same times rescaled by ``speed_factor`` (see ``speed.py``;
    1 for ``workloads.WORKER_WORKLOADS``).
    """
    import speed
    import workloads

    # Where units run in worker processes, a calibration kernel in this
    # process would share a core with a worker and measure that
    # contention instead of the host's speed: report times as measured.
    sampler = None if workload in workloads.WORKER_WORKLOADS else speed.Sampler()
    cpu_before = _cpu_seconds()
    started = time.perf_counter()
    with sampler or contextlib.nullcontext():
        records = campaign()
    wall_s = time.perf_counter() - started
    cpu_s = _cpu_seconds() - cpu_before
    calibration_s, factor = 0.0, 1.0
    if sampler is not None:
        calibration_s = sampler.spent_s
        wall_s -= sampler.spent_s
        cpu_s -= sampler.spent_cpu_s
        factor = sampler.factor()
    check = workloads.check_records(workload, records)
    return {
        "campaign_s": wall_s * factor,
        "campaign_cpu_s": cpu_s * factor,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "speed_factor": factor,
        "calibration_s": calibration_s,
        "units": check.units,
        "failed_units": check.failed_units,
        "unit_digests": check.unit_digests,
        "digest": check.digest,
        "jj_total": check.jj_total,
        "patterns": check.patterns,
        "statuses": check.statuses,
    }


def _write_trace(args, tracer, origin: float, result: dict) -> None:
    import tracing
    from repro.sim.pulse import total_events_processed

    # Spans hold times as measured, the calibration kernel's calls
    # included, so they are compared with the wall time as measured.
    wall_s = result["wall_s"] + result["calibration_s"]
    result["layer_metrics"] = tracing.layer_metrics(
        tracer, wall_s, total_events_processed()
    )
    result["table"] = tracing.self_time_table(tracer, wall_s)
    args.trace_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}"
    metadata = {"workload": args.workload, "seed": args.seed,
                "campaign_s": result["campaign_s"], "wrapped": sorted(tracer.wrapped)}
    trace_path = args.trace_dir / f"{stem}.trace.json"
    trace_path.write_text(json.dumps(tracing.chrome_trace(tracer, origin, metadata)))
    (args.trace_dir / f"{stem}.selftime.txt").write_text(result["table"] + "\n")
    result["trace_file"] = str(trace_path)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Set-up is timed by the parent, from spawn to ``ready``; the
    # calibration kernel runs through it too, and its cost is reported
    # so that the parent can take it off again (see ``speed.py``).
    started = time.perf_counter()
    import speed

    with speed.Sampler(speed.SETUP_INTERVAL_S) as sampler:
        import_s = time.perf_counter() - started
        import workloads

        campaign = workloads.prepare(args.workload, args.seed, args.cache_dir,
                                     tiny=args.tiny)
        tracer = None
        if args.mode == "trace":
            import tracing

            tracer = tracing.install()
    print("ready", flush=True)
    setup = {"setup_factor": sampler.factor(),
             "setup_overhead_s": import_s + sampler.spent_s}
    if args.mode == "setup":
        args.out.write_text(json.dumps(setup))
        return 0

    origin = time.perf_counter()
    result = _timed(campaign, args.workload)
    if args.mode == "trace":
        _write_trace(args, tracer, origin, result)
    if args.mode == "repeat":
        from repro.core import set_stage_cache

        result["memo_first"] = _memo_stats()
        set_stage_cache(None)
        again = workloads.prepare(args.workload, args.seed,
                                  args.cache_dir / "repeat", tiny=args.tiny)
        result["repeat"] = _timed(again, args.workload)
        result["memo_repeat"] = _memo_stats()
    result.update(setup)
    result["peak_rss_mb"] = _peak_rss_mb()
    args.out.write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
