"""Benchmark for Table 3: duplication penalty of the EPFL control circuits."""

from conftest import run_once


def test_table3_duplication_penalty(benchmark, runner, scale, effort):
    result = run_once(benchmark, runner.run, "table3", scale=scale, effort=effort).result
    print(f"\n[Table 3] Duplication penalty (scale={scale}, effort={effort})\n" + result.text)
    # Shape checks: every circuit beats the 100% penalty of direct mapping,
    # the voter stays the pathological case, and decoders stay near zero.
    assert result.summary["all_below_direct_mapping"]
    penalties = {row["circuit"]: row["duplication"] for row in result.rows}
    assert penalties["voter"] == max(penalties.values())
    assert penalties["dec"] <= 0.1
    assert result.summary["mean_duplication"] < 0.6
