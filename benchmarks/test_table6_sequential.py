"""Benchmark for Table 6: ISCAS89-class sequential circuits vs the qSeq-like baseline."""

from conftest import run_once

from repro.eval.paper_data import TABLE6_ROWS


def test_table6_sequential_savings(benchmark, runner, scale, effort):
    result = run_once(benchmark, runner.run, "table6", scale=scale, effort=effort).result
    print(f"\n[Table 6] Sequential circuits vs qSeq-like baseline (scale={scale}, effort={effort})")
    print(result.text)
    print(
        f"mean savings: {result.summary['mean_savings']:.1f}x "
        f"(paper: {result.summary['paper_mean_savings']}x)"
    )
    # Shape checks: xSFQ wins on every circuit, every logical flip-flop has a
    # preloaded DROC, and the mean savings are well above 1x.
    assert result.summary["xsfq_always_wins"]
    assert result.summary["preloaded_matches_flipflops"]
    assert result.summary["mean_savings"] > 1.5
    assert all(row["circuit"] in TABLE6_ROWS for row in result.rows)
