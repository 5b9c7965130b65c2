"""Ablation benchmarks for the design choices called out in DESIGN.md.

These are not paper tables; they quantify how much each ingredient of the
flow contributes on a mid-size combinational circuit and on a sequential
one: AIG optimisation, polarity optimisation (vs. all-positive and vs. full
dual-rail), PTL vs. abutted interconnect, DROC-pair vs. legacy DRO-quad
flip-flops, and retiming of the second DROC rank.
"""

from conftest import run_once

from repro.circuits import build
from repro.core import CellKind, FlowOptions, default_library, legacy_dro_flipflop_cost, synthesize_xsfq


def _ablate_combinational(name: str, scale: str, effort: str):
    network = build(name, scale)
    variants = {
        "direct (no AIG opt, dual rail)": FlowOptions(effort="none", direct_mapping=True),
        "AIG opt only (dual rail)": FlowOptions(effort=effort, direct_mapping=True),
        "+ positive-only outputs": FlowOptions(effort=effort, optimize_polarity=False),
        "+ output phase assignment": FlowOptions(effort=effort, optimize_polarity=True),
    }
    return {label: synthesize_xsfq(network, options) for label, options in variants.items()}


def test_ablation_polarity_and_optimisation(benchmark, scale, effort):
    results = run_once(benchmark, _ablate_combinational, "c880", scale, effort)
    print(f"\n[Ablation] c880-class ALU (scale={scale}, effort={effort})")
    jj = {}
    for label, result in results.items():
        jj[label] = result.jj_count(False)
        print(f"  {label:<32} LA/FA={result.num_la_fa:5d}  JJ={jj[label]:6d}  dupl={result.duplication_penalty*100:.0f}%")
    ordered = list(jj.values())
    # Every successive optimisation must not hurt, and the full flow must
    # clearly beat the direct mapping (the paper's Section 3.1 progression).
    assert ordered[1] <= ordered[0]
    assert ordered[2] <= ordered[1]
    assert ordered[3] <= ordered[2]
    assert ordered[3] < ordered[0]


def test_ablation_ptl_cost_model(benchmark, scale, effort):
    result = run_once(
        benchmark, synthesize_xsfq, build("c1908", scale), FlowOptions(effort=effort)
    )
    no_ptl = result.jj_count(False)
    with_ptl = result.jj_count(True)
    print(f"\n[Ablation] PTL interfaces on c1908-class: {no_ptl} JJ -> {with_ptl} JJ")
    assert with_ptl > no_ptl
    # LA/FA cells triple in cost (4 -> 12 JJ) while splitters stay at 3 JJ.
    assert with_ptl < 3 * no_ptl


def _sequential_variants(scale: str, effort: str):
    network = build("s298", scale)
    retimed = synthesize_xsfq(network, FlowOptions(effort=effort, retime=True))
    paired = synthesize_xsfq(network, FlowOptions(effort=effort, retime=False))
    return retimed, paired


def test_ablation_flipflop_style_and_retiming(benchmark, scale, effort):
    retimed, paired = run_once(benchmark, _sequential_variants, scale, effort)
    lib = default_library(False)
    num_ff = len(build("s298", scale).latches)
    splitter_jj = lib.jj_count(CellKind.SPLITTER)
    # The DROC pair needs 2 clocked cells per logical flip-flop; the legacy
    # style needs 4, i.e. 2 extra clock-splitter connections per flip-flop.
    droc_pair_jj = lib.jj_count(CellKind.DROC) + lib.jj_count(CellKind.DROC_PRELOAD) + 2 * splitter_jj
    legacy_jj = legacy_dro_flipflop_cost(1, lib) + 4 * splitter_jj
    print(
        f"\n[Ablation] s298-class flip-flops (incl. clock splitting): DROC pair = {droc_pair_jj} JJ, "
        f"legacy 4xDRO = {legacy_jj} JJ per logical flip-flop"
    )
    print(
        f"  retimed: stage depths {retimed.sequential_info.stage_depths}, "
        f"back-to-back: stage depths {paired.sequential_info.stage_depths}"
    )
    # Including its clock tree, the DROC pair beats the legacy DRO-quad.
    assert droc_pair_jj < legacy_jj
    # Both mappings keep one preloaded DROC per logical flip-flop.
    assert retimed.droc_counts[1] == paired.droc_counts[1] == num_ff
    # Retiming balances the pipeline: the worst stage gets shorter (or equal).
    assert max(retimed.sequential_info.stage_depths) <= max(paired.sequential_info.stage_depths)


def test_headline_claim(benchmark, runner, scale, effort):
    result = run_once(benchmark, runner.run, "headline", scale=scale, effort=effort).result
    print(f"\n[Headline] Average JJ reduction across suites (scale={scale}, effort={effort})\n" + result.text)
    # The abstract claims >80% average reduction (4.3x); the reduced-scale
    # reproduction must at least show a large, consistent reduction.
    assert result.summary["mean_reduction"] > 0.4
    assert result.summary["max_savings"] > 3.0
