"""Exhaustive truth-table utilities for small combinational networks.

These helpers are used throughout the test-suite to check that netlist
transformations (AIG optimisation, dual-rail mapping, polarity optimisation)
preserve functionality.  The AIG resynthesis passes do not use them: they
compute cone functions with :func:`repro.aig.simulate.cone_truth_table` and
factor them with :mod:`repro.aig.sop`.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

from .network import LogicNetwork, NetworkError


def truth_tables(network: LogicNetwork, max_inputs: int = 16) -> Dict[str, int]:
    """Compute the truth table of every primary output of a combinational network.

    The table for an output is returned as an integer bitmask with
    ``2**len(inputs)`` bits; bit ``i`` holds the output value for the input
    assignment where input ``k`` (in ``network.inputs`` order) takes the value
    of bit ``k`` of ``i``.

    Raises :class:`NetworkError` for sequential networks or when the number of
    inputs exceeds ``max_inputs``.
    """
    if not network.is_combinational():
        raise NetworkError("truth_tables requires a combinational network")
    n = len(network.inputs)
    if n > max_inputs:
        raise NetworkError(f"network has {n} inputs, exceeding the limit of {max_inputs}")
    tables: Dict[str, int] = {out: 0 for out in network.outputs}
    for assignment in range(1 << n):
        vector = {name: (assignment >> k) & 1 for k, name in enumerate(network.inputs)}
        outputs, _ = network.evaluate(vector)
        for out, value in outputs.items():
            if value:
                tables[out] |= 1 << assignment
    return tables


def networks_equivalent(a: LogicNetwork, b: LogicNetwork, max_inputs: int = 14) -> bool:
    """Exhaustively check that two combinational networks are equivalent.

    The networks must have identical primary-input and primary-output name
    lists (order-insensitive for inputs, order-sensitive for outputs).
    """
    if sorted(a.inputs) != sorted(b.inputs):
        return False
    if list(a.outputs) != list(b.outputs):
        return False
    n = len(a.inputs)
    if n > max_inputs:
        raise NetworkError(f"too many inputs ({n}) for exhaustive comparison")
    for assignment in range(1 << n):
        vector = {name: (assignment >> k) & 1 for k, name in enumerate(sorted(a.inputs))}
        if a.output_vector(vector) != b.output_vector(vector):
            return False
    return True


def sequential_traces_equal(
    a: LogicNetwork,
    b: LogicNetwork,
    input_sequence: Sequence[Mapping[str, int]],
) -> bool:
    """Compare the output traces of two sequential networks on a stimulus."""
    trace_a = a.simulate_sequence(input_sequence)
    trace_b = b.simulate_sequence(input_sequence)
    if len(trace_a) != len(trace_b):
        return False
    for out_a, out_b in zip(trace_a, trace_b):
        if out_a != out_b:
            return False
    return True


def input_assignment(network: LogicNetwork, index: int) -> Dict[str, int]:
    """Return the input vector corresponding to truth-table bit ``index``."""
    return {name: (index >> k) & 1 for k, name in enumerate(network.inputs)}


def format_truth_table(network: LogicNetwork) -> str:
    """Render the full truth table of a small network as text (for examples)."""
    n = len(network.inputs)
    header = " ".join(network.inputs) + " | " + " ".join(network.outputs)
    rows: List[str] = [header, "-" * len(header)]
    for assignment in range(1 << n):
        vector = {name: (assignment >> k) & 1 for k, name in enumerate(network.inputs)}
        outputs, _ = network.evaluate(vector)
        rows.append(
            " ".join(str(vector[name]) for name in network.inputs)
            + " | "
            + " ".join(str(outputs[o]) for o in network.outputs)
        )
    return "\n".join(rows)
