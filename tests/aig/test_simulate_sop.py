"""Tests for bit-parallel simulation and the ISOP/factoring machinery."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig import (
    Aig,
    cone_truth_table,
    exhaustive_truth_tables,
    lit_node,
    make_lit,
    simulate_random,
)
from repro.aig.cuts import cone_nodes, mffc_size, reconvergence_cut
from repro.aig.rework import refactor
from repro.aig.simulate import lit_values, output_signatures, simulate_patterns
from repro.aig.sop import (
    build_factor_into_aig,
    cofactor,
    cost_lower_bound,
    cover_table,
    factor_cover,
    factor_table,
    factored_form_cost,
    isop,
    support,
    table_mask,
    var_table,
)


def xor_aig():
    aig = Aig("xor3")
    a, b, c = (aig.add_pi(n) for n in "abc")
    aig.add_po(aig.add_xor(aig.add_xor(a, b), c), "y")
    return aig


class TestSimulation:
    def test_exhaustive_truth_table_xor3(self):
        tables = exhaustive_truth_tables(xor_aig())
        assert tables[0] == 0b10010110

    def test_simulate_patterns_matches_exhaustive(self):
        aig = xor_aig()
        patterns = {node: var_table(k, 3) for k, node in enumerate(aig.pi_nodes)}
        values = simulate_patterns(aig, patterns, 8)
        assert lit_values(values, aig.po_lits[0], 8) == 0b10010110

    def test_random_simulation_is_deterministic(self):
        aig = xor_aig()
        assert output_signatures(aig, 64, seed=3) == output_signatures(aig, 64, seed=3)
        assert simulate_random(aig, 64, seed=1) == simulate_random(aig, 64, seed=1)

    def test_cone_truth_table(self):
        aig = Aig()
        a, b, c = (aig.add_pi(n) for n in "abc")
        ab = aig.add_and(a, b)
        y = aig.add_and(ab, c)
        leaves = [aig.pi_nodes[0], aig.pi_nodes[1], aig.pi_nodes[2]]
        table = cone_truth_table(aig, y, leaves)
        assert table == 1 << 7
        # Complemented root literal gives the complement table.
        from repro.aig import lit_not

        assert cone_truth_table(aig, lit_not(y), leaves) == (~(1 << 7)) & 0xFF

    def test_cone_truth_table_rejects_external_nodes(self):
        aig = Aig()
        a, b, c = (aig.add_pi(n) for n in "abc")
        y = aig.add_and(aig.add_and(a, b), c)
        with pytest.raises(ValueError):
            cone_truth_table(aig, y, [aig.pi_nodes[0], aig.pi_nodes[1]])


class TestTruthTableOps:
    def test_var_table_and_cofactor(self):
        num_vars = 3
        table = var_table(1, num_vars)
        assert cofactor(table, 1, 1, num_vars) == table_mask(num_vars)
        assert cofactor(table, 1, 0, num_vars) == 0

    def test_support(self):
        f = var_table(0, 3) & var_table(2, 3)
        assert support(f, 3) == [0, 2]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**16 - 1))
    def test_isop_covers_exactly(self, table):
        cover, cover_tt = isop(table, table, 4)
        assert cover_tt == table
        assert cover_table(cover, 4) == table

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**16 - 1))
    def test_factoring_preserves_function(self, table):
        factor = factor_table(table, 4)
        aig = Aig()
        leaves = [aig.add_pi(f"x{i}") for i in range(4)]
        from repro.aig import lit_not

        lit = build_factor_into_aig(factor, leaves, aig.add_and, lit_not)
        aig.add_po(lit, "y")
        assert exhaustive_truth_tables(aig)[0] == table

    def test_factored_form_cost_prefers_cheaper_polarity(self):
        # f = majority complement is as expensive as majority; an OR of all
        # inputs has a much cheaper complement-free form than its inverse.
        or_table = 0
        for i in range(1, 16):
            or_table |= 1 << i
        cost, _, complemented = factored_form_cost(or_table, 4)
        assert cost <= 3

    def test_factor_cover_single_cube(self):
        factor = factor_cover([{0: 1, 2: 0}])
        assert factor.num_ops() == 1
        assert "x0" in str(factor) and "x2" in str(factor)


@st.composite
def sized_tables(draw):
    num_vars = draw(st.integers(2, 10))
    return draw(st.integers(0, table_mask(num_vars))), num_vars


@st.composite
def literal_terms(draw):
    """An AND or OR of distinct literals, with the variable count."""
    num_vars = draw(st.integers(2, 10))
    chosen = draw(st.lists(st.integers(0, num_vars - 1), min_size=1, unique=True))
    mask = table_mask(num_vars)
    literals = [
        var_table(v, num_vars) ^ (mask if draw(st.booleans()) else 0) for v in chosen
    ]
    if draw(st.booleans()):
        table = mask
        for lit in literals:
            table &= lit
    else:
        table = 0
        for lit in literals:
            table |= lit
    return table, num_vars, len(chosen)


class TestCostLowerBound:
    @settings(max_examples=80, deadline=None)
    @given(sized_tables())
    def test_bound_never_exceeds_factored_cost(self, case):
        table, num_vars = case
        assert cost_lower_bound(table, num_vars) <= factored_form_cost(table, num_vars)[0]

    @pytest.mark.parametrize("num_vars", [2, 5, 10])
    def test_bound_is_exact_on_constants_and_literals(self, num_vars):
        mask = table_mask(num_vars)
        tables = [0, mask]
        for var in range(num_vars):
            tables += [var_table(var, num_vars), ~var_table(var, num_vars) & mask]
        for table in tables:
            assert cost_lower_bound(table, num_vars) == 0
            assert factored_form_cost(table, num_vars)[0] == 0

    @settings(max_examples=80, deadline=None)
    @given(literal_terms())
    def test_bound_is_exact_on_and_or_of_literals(self, case):
        table, num_vars, width = case
        assert cost_lower_bound(table, num_vars) == width - 1
        assert factored_form_cost(table, num_vars)[0] == width - 1


def test_refactor_skips_cones_the_bound_rejects():
    # root = (x & y) & (y & z) with both inner ANDs also driving outputs:
    # the root's cut is {x, y, z} (support 3, bound 2) but only the root
    # itself would be freed, so no factoring can pay.
    aig = Aig("shared")
    x, y, z = (aig.add_pi(n) for n in "xyz")
    a, b = aig.add_and(x, y), aig.add_and(y, z)
    root = aig.add_and(a, b)
    for lit, name in ((root, "root"), (a, "a"), (b, "b")):
        aig.add_po(lit, name)
    node = lit_node(root)
    leaves = reconvergence_cut(aig, node)
    assert leaves == list(aig.pi_nodes)
    cone = cone_nodes(aig, node, leaves)
    assert mffc_size(aig, node, cone, aig.fanout_counts()) == 1
    assert cost_lower_bound(cone_truth_table(aig, root, leaves), len(leaves)) == 2

    before = factored_form_cost.cache_info()
    for zero_gain in (False, True):
        assert refactor(aig, zero_gain=zero_gain) is aig
    after = factored_form_cost.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)
