"""Benchmark for Table 5: pipelining the c6288-class multiplier."""

from conftest import run_once


def test_table5_pipelining(benchmark, runner, scale, effort):
    result = run_once(benchmark, runner.run, "table5", scale=scale, effort=effort).result
    print(f"\n[Table 5] Pipelined multiplier (scale={scale}, effort={effort})\n" + result.text)
    # Shape checks from the paper: pipeline stages add JJs monotonically but
    # sub-linearly in the added DROCs, depth per stage shrinks and the clock
    # frequency grows; the architectural frequency is half the circuit one.
    assert result.summary["jj_growth_monotonic"]
    assert result.summary["depth_shrinks"]
    assert result.summary["frequency_grows"]
    assert result.summary["jj_growth_sublinear_vs_droc"]
    for row in result.rows:
        assert row["clock_arch_ghz"] * 2 == row["clock_circuit_ghz"]
        if row["stages"] > 0:
            assert row["droc_plain"] + row["droc_preloaded"] > 0
