"""Benchmark for Table 4: ISCAS85 + EPFL combinational circuits vs the PBMap-like baseline."""

from conftest import run_once

from repro.eval.paper_data import TABLE4_ROWS


def test_table4_combinational_savings(benchmark, runner, scale, effort):
    result = run_once(benchmark, runner.run, "table4", scale=scale, effort=effort).result
    print(f"\n[Table 4] Combinational circuits vs PBMap-like baseline (scale={scale}, effort={effort})")
    print(result.text)
    print(
        f"mean savings: {result.summary['mean_savings']:.1f}x / "
        f"{result.summary['mean_savings_with_clock']:.1f}x "
        f"(paper: {result.summary['paper_mean_savings']}x / {result.summary['paper_mean_savings_with_clock']}x)"
    )
    # Shape checks from the paper: xSFQ wins everywhere, clock-free designs
    # contain no storage cells, and the average savings are well above 1x.
    assert result.summary["xsfq_always_wins"]
    assert result.summary["no_storage_cells"]
    assert result.summary["mean_savings"] > 1.5
    assert result.summary["mean_savings_with_clock"] > result.summary["mean_savings"]
    # Every circuit evaluated here is one the paper also evaluated.
    assert all(row["circuit"] in TABLE4_ROWS for row in result.rows)
