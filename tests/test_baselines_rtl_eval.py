"""Tests for the RSFQ baselines, the RTL eDSL and the experiment harness."""

import pytest

from repro.baselines import (
    CLOCK_SPLITTING_OVERHEAD,
    BaselineOptions,
    RsfqCellKind,
    clock_splitter_count,
    default_rsfq_library,
    map_rsfq_path_balanced,
    pbmap_like,
    qseq_like,
    rsfq_clock_period_ps,
)
from repro.circuits import ripple_carry_adder, traffic_light_controller
from repro.core import FlowOptions, synthesize_xsfq
from repro.eval import (
    full_adder_network,
    run_figure1,
    run_figure4_5,
    run_figure7,
    run_experiment,
    run_table1,
    run_table2,
)
from repro.netlist import NetworkBuilder
from repro.rtl import RtlModule, Word


class TestRsfqBaseline:
    def test_every_logic_gate_is_clocked(self):
        result = pbmap_like(full_adder_network())
        assert result.num_logic_cells > 0
        assert result.num_clocked_cells >= result.num_logic_cells

    def test_path_balancing_inserts_dffs_on_unbalanced_paths(self):
        b = NetworkBuilder("unbalanced")
        a, c, d = b.input("a"), b.input("c"), b.input("d")
        deep = b.and_(b.and_(a, c), d)
        b.output(b.or_(deep, a), "y")  # 'a' reaches the OR through 0 and 2 levels
        result = map_rsfq_path_balanced(b.finish())
        assert result.num_balancing_dffs >= 2

    def test_balanced_tree_needs_no_balancing_dffs(self):
        b = NetworkBuilder("balanced")
        x = [b.input(f"x{i}") for i in range(4)]
        b.output(b.and_(b.and_(x[0], x[1]), b.and_(x[2], x[3])), "y")
        result = map_rsfq_path_balanced(b.finish(), include_io_balancing=False)
        assert result.num_balancing_dffs == 0

    def test_clock_tree_costs(self):
        assert clock_splitter_count(1) == 0
        assert clock_splitter_count(10) == 9
        result = pbmap_like(ripple_carry_adder(4))
        assert result.num_clock_splitters == result.num_clocked_cells - 1
        assert result.jj_count(include_clock_tree=True) > result.jj_count(include_clock_tree=False)
        assert result.jj_count_with_clock_overhead() == round(
            result.jj_count(include_clock_tree=False) * (1 + CLOCK_SPLITTING_OVERHEAD)
        )

    def test_qseq_counts_state_flipflops(self):
        net = traffic_light_controller(num_ff=9)
        result = qseq_like(net)
        assert result.num_state_dffs == 9

    def test_pbmap_rejects_sequential(self):
        with pytest.raises(ValueError):
            pbmap_like(traffic_light_controller(num_ff=9))

    def test_optimised_baseline_variant_runs(self):
        # Pre-optimising through the AIG is supported but can *hurt* the RSFQ
        # baseline (XOR structure is lost to AND/NOT decomposition), so only
        # the mechanics are checked here; the evaluation uses the raw netlist.
        optimised = pbmap_like(ripple_carry_adder(6), BaselineOptions(optimize_logic=True))
        assert optimised.jj_count() > 0
        assert optimised.num_balancing_dffs >= 0

    def test_clock_period_positive(self):
        assert rsfq_clock_period_ps(pbmap_like(full_adder_network())) > 0

    def test_xsfq_beats_rsfq_on_adders(self):
        """The paper's headline direction: xSFQ needs far fewer JJs."""
        net = ripple_carry_adder(8)
        rsfq = pbmap_like(net)
        xsfq = synthesize_xsfq(net, FlowOptions(effort="low"))
        assert xsfq.jj_count(False) < rsfq.jj_count(include_clock_tree=False)

    def test_library_data_accessible(self):
        lib = default_rsfq_library()
        assert lib.jj_count(RsfqCellKind.DFF) == 6
        assert lib.is_clocked(RsfqCellKind.AND2)
        assert not lib.is_clocked(RsfqCellKind.SPLITTER)
        assert len(lib.cells()) == len(RsfqCellKind)


class TestRtlDsl:
    def test_combinational_expressions(self):
        m = RtlModule("logic")
        a, b = m.input("a"), m.input("b")
        m.output("f", (a & b) | (~a ^ b))
        net = m.elaborate()
        assert net.output_vector({"a": 1, "b": 0}) == (0,)
        assert net.output_vector({"a": 0, "b": 0}) == (1,)

    def test_word_arithmetic_and_mux(self):
        m = RtlModule("datapath")
        x = m.input_word("x", 4)
        y = m.input_word("y", 4)
        select = m.input("sel")
        total = x + y
        m.output_word("z", Word.mux(select, total, x ^ y))
        net = m.elaborate()
        vector = {f"x[{i}]": (5 >> i) & 1 for i in range(4)}
        vector.update({f"y[{i}]": (6 >> i) & 1 for i in range(4)})
        outputs, _ = net.evaluate({**vector, "sel": 0})
        assert sum(outputs[f"z[{i}]"] << i for i in range(4)) == (5 + 6) & 0xF
        outputs, _ = net.evaluate({**vector, "sel": 1})
        assert sum(outputs[f"z[{i}]"] << i for i in range(4)) == 5 ^ 6

    def test_register_accumulator(self):
        m = RtlModule("acc")
        enable = m.input("enable")
        data = m.input_word("data", 4)
        acc = m.register_word("acc", 4)
        acc.next_value(Word.mux(enable, acc, acc + data))
        m.output_word("total", acc)
        net = m.elaborate()
        stimulus = [{"enable": 1, **{f"data[{i}]": (3 >> i) & 1 for i in range(4)}}] * 3
        trace = net.simulate_sequence(stimulus)
        totals = [sum(t[f"total[{i}]"] << i for i in range(4)) for t in trace]
        assert totals == [0, 3, 6]

    def test_rtl_to_xsfq_flow(self):
        m = RtlModule("rtl_flow")
        a = m.input_word("a", 4)
        b = m.input_word("b", 4)
        m.output("eq", a.equals(b))
        result = synthesize_xsfq(m.elaborate(), FlowOptions(effort="medium"))
        assert result.num_la_fa > 0
        result.netlist.validate()


class TestExperimentRunners:
    def test_table1_properties(self):
        summary = run_table1().summary
        assert summary["la_matches_and"] and summary["fa_matches_or"] and summary["all_reinitialised"]

    def test_figure1_roundtrip(self):
        assert run_figure1().summary["roundtrip_ok"]

    def test_table2_lists_library(self):
        assert run_table2().summary["num_cells"] >= 5

    def test_figure4_5_matches_paper_exactly(self):
        result = run_figure4_5()
        assert result.summary["min_aig_nodes"] == result.summary["paper_min_aig_nodes"] == 7
        assert result.summary["matches_paper"]

    def test_table3_shape(self):
        result = run_experiment("table3", effort="low", use_cache=False).result
        assert result.summary["all_below_direct_mapping"]
        penalties = {row["circuit"]: row["duplication"] for row in result.rows}
        assert penalties["voter"] > 0.5  # the paper's pathological case
        assert penalties["dec"] <= 0.1

    def test_table4_shape_on_subset(self):
        result = run_experiment(
            "table4", effort="low", circuits=["c880", "dec", "priority"], use_cache=False
        ).result
        assert result.summary["xsfq_always_wins"]
        assert result.summary["no_storage_cells"]
        assert result.summary["mean_savings"] > 1.5

    def test_table5_shape(self):
        result = run_experiment("table5", effort="low", use_cache=False).result
        assert result.summary["depth_shrinks"]
        assert result.summary["frequency_grows"]
        assert result.summary["jj_growth_monotonic"]

    def test_table6_shape_on_subset(self):
        result = run_experiment(
            "table6", effort="low", circuits=["s27", "s298", "s386"], use_cache=False
        ).result
        assert result.summary["xsfq_always_wins"]
        assert result.summary["preloaded_matches_flipflops"]

    def test_figure7_counter(self):
        result = run_figure7(num_cycles=6, effort="low")
        assert result.summary["matches_expected"]
        assert result.summary["trigger_used"]
        assert result.summary["wraps_around"]
