"""AND-Inverter Graphs (AIGs) with structural hashing.

The paper's central observation (Section 3.1.3) is that a dual-rail xSFQ
circuit built from LA-FA cell pairs is *isomorphic* to an AND-Inverter graph:
each AIG node corresponds to one LA/FA pair and each complemented edge to a
"twist" of the dual-rail wires.  Minimising AIG nodes therefore directly
minimises LA/FA cells, which is why the paper can use off-the-shelf ABC.

This module implements the AIG data structure itself — the substrate on which
the optimisation passes in :mod:`repro.aig.balance`, :mod:`repro.aig.rework`
(rewriting and refactoring) and :mod:`repro.aig.retime` operate.  Literals are
encoded as ``2 * node_id + complement`` exactly as in ABC/AIGER; node 0 is
the constant-false node, so literal ``0`` is constant false and literal ``1``
constant true.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple


# ---------------------------------------------------------------------------
# Literal helpers
# ---------------------------------------------------------------------------

FALSE = 0
TRUE = 1


def make_lit(node: int, complement: bool = False) -> int:
    """Build a literal from a node id and a complement flag."""
    return (node << 1) | int(bool(complement))


def lit_node(lit: int) -> int:
    """Node id referenced by a literal."""
    return lit >> 1


def lit_is_complemented(lit: int) -> bool:
    """True when the literal carries an inversion."""
    return bool(lit & 1)


def lit_not(lit: int) -> int:
    """Complement a literal."""
    return lit ^ 1


def lit_regular(lit: int) -> int:
    """Strip the complement bit from a literal."""
    return lit & ~1


class NodeType(enum.Enum):
    """Kind of an AIG node."""

    CONST = "const"
    PI = "pi"
    LATCH = "latch"
    AND = "and"


class AigError(Exception):
    """Raised for invalid AIG operations."""


@dataclass
class Latch:
    """Sequential element of an AIG.

    Attributes:
        node: Node id of the latch output (used combinationally like a PI).
        name: Latch name (usually the present-state signal name).
        next_lit: Literal of the next-state function (``None`` until set).
        init: Initial value of the latch, 0 or 1.
    """

    node: int
    name: str
    next_lit: Optional[int] = None
    init: int = 0


class Aig:
    """AND-Inverter graph with structural hashing and constant propagation.

    Node ids are assigned in creation order; because an AND node can only be
    created after its fanins exist, iterating ids in increasing order is a
    valid topological order.  All optimisation passes construct fresh AIGs,
    preserving this invariant.
    """

    def __init__(self, name: str = "aig") -> None:
        self.name = name
        self._type: List[NodeType] = [NodeType.CONST]
        self._fanin0: List[int] = [FALSE]
        self._fanin1: List[int] = [FALSE]
        self.pi_nodes: List[int] = []
        self.pi_names: List[str] = []
        self.po_names: List[str] = []
        self.po_lits: List[int] = []
        self.latches: List[Latch] = []
        self._latch_by_node: Dict[int, Latch] = {}
        self._strash: Dict[Tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    # Structure creation
    # ------------------------------------------------------------------
    def _new_node(self, node_type: NodeType, f0: int = FALSE, f1: int = FALSE) -> int:
        self._type.append(node_type)
        self._fanin0.append(f0)
        self._fanin1.append(f1)
        return len(self._type) - 1

    def add_pi(self, name: Optional[str] = None) -> int:
        """Create a primary input and return its (non-complemented) literal."""
        node = self._new_node(NodeType.PI)
        self.pi_nodes.append(node)
        self.pi_names.append(name if name is not None else f"pi{len(self.pi_nodes)}")
        return make_lit(node)

    def add_latch(self, name: Optional[str] = None, init: int = 0) -> int:
        """Create a latch (sequential element) and return its output literal.

        The next-state function must be assigned later with
        :meth:`set_latch_next`.
        """
        node = self._new_node(NodeType.LATCH)
        latch = Latch(node, name if name is not None else f"latch{len(self.latches)}", None, init)
        self.latches.append(latch)
        self._latch_by_node[node] = latch
        return make_lit(node)

    def set_latch_next(self, latch_lit: int, next_lit: int) -> None:
        """Assign the next-state literal of the latch referenced by ``latch_lit``."""
        node = lit_node(latch_lit)
        if node not in self._latch_by_node:
            raise AigError(f"node {node} is not a latch")
        if lit_is_complemented(latch_lit):
            raise AigError("latch output literal must not be complemented here")
        self._latch_by_node[node].next_lit = next_lit

    def add_po(self, lit: int, name: Optional[str] = None) -> int:
        """Register ``lit`` as a primary output; returns the output index."""
        self.po_lits.append(lit)
        self.po_names.append(name if name is not None else f"po{len(self.po_lits)}")
        return len(self.po_lits) - 1

    def add_and(self, a: int, b: int) -> int:
        """Return the literal of ``a AND b``, reusing existing structure.

        Applies the standard trivial simplifications (constants, idempotence,
        complementation) and structural hashing.
        """
        # Constant and trivial cases.
        if a == FALSE or b == FALSE:
            return FALSE
        if a == TRUE:
            return b
        if b == TRUE:
            return a
        if a == b:
            return a
        if a == lit_not(b):
            return FALSE
        if a > b:
            a, b = b, a
        key = (a, b)
        existing = self._strash.get(key)
        if existing is not None:
            return make_lit(existing)
        node = self._new_node(NodeType.AND, a, b)
        self._strash[key] = node
        return make_lit(node)

    # Derived operators -------------------------------------------------
    def add_or(self, a: int, b: int) -> int:
        """Literal of ``a OR b``."""
        return lit_not(self.add_and(lit_not(a), lit_not(b)))

    def add_nand(self, a: int, b: int) -> int:
        """Literal of ``NOT (a AND b)``."""
        return lit_not(self.add_and(a, b))

    def add_nor(self, a: int, b: int) -> int:
        """Literal of ``NOT (a OR b)``."""
        return self.add_and(lit_not(a), lit_not(b))

    def add_xor(self, a: int, b: int) -> int:
        """Literal of ``a XOR b`` (two-level AND/OR construction)."""
        return self.add_or(self.add_and(a, lit_not(b)), self.add_and(lit_not(a), b))

    def add_xnor(self, a: int, b: int) -> int:
        """Literal of ``NOT (a XOR b)``."""
        return lit_not(self.add_xor(a, b))

    def add_mux(self, sel: int, d0: int, d1: int) -> int:
        """Literal of ``sel ? d1 : d0``."""
        return self.add_or(self.add_and(sel, d1), self.add_and(lit_not(sel), d0))

    def add_and_multi(self, lits: Sequence[int]) -> int:
        """Conjunction of an arbitrary number of literals (balanced tree)."""
        lits = list(lits)
        if not lits:
            return TRUE
        while len(lits) > 1:
            nxt = [self.add_and(lits[i], lits[i + 1]) for i in range(0, len(lits) - 1, 2)]
            if len(lits) % 2:
                nxt.append(lits[-1])
            lits = nxt
        return lits[0]

    def add_or_multi(self, lits: Sequence[int]) -> int:
        """Disjunction of an arbitrary number of literals (balanced tree)."""
        return lit_not(self.add_and_multi([lit_not(l) for l in lits]))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def node_type(self, node: int) -> NodeType:
        return self._type[node]

    def is_and(self, node: int) -> bool:
        return self._type[node] is NodeType.AND

    def is_pi(self, node: int) -> bool:
        return self._type[node] is NodeType.PI

    def is_latch(self, node: int) -> bool:
        return self._type[node] is NodeType.LATCH

    def is_const(self, node: int) -> bool:
        return node == 0

    def fanin0(self, node: int) -> int:
        """First fanin literal of an AND node."""
        return self._fanin0[node]

    def fanin1(self, node: int) -> int:
        """Second fanin literal of an AND node."""
        return self._fanin1[node]

    def fanins(self, node: int) -> Tuple[int, int]:
        return self._fanin0[node], self._fanin1[node]

    def latch_of(self, node: int) -> Latch:
        return self._latch_by_node[node]

    @property
    def num_nodes(self) -> int:
        """Total number of nodes, including the constant node."""
        return len(self._type)

    @property
    def num_ands(self) -> int:
        """Number of AND nodes (the paper's "AIG node" count)."""
        return sum(1 for t in self._type if t is NodeType.AND)

    @property
    def num_pis(self) -> int:
        return len(self.pi_nodes)

    @property
    def num_pos(self) -> int:
        return len(self.po_lits)

    @property
    def num_latches(self) -> int:
        return len(self.latches)

    def is_combinational(self) -> bool:
        return not self.latches

    def nodes(self) -> Iterator[int]:
        """Iterate all node ids in topological order (including const/PIs/latches)."""
        return iter(range(self.num_nodes))

    def and_nodes(self) -> Iterator[int]:
        """Iterate AND node ids in topological order."""
        return (n for n in range(self.num_nodes) if self._type[n] is NodeType.AND)

    def combinational_roots(self) -> List[int]:
        """Literals that must be preserved: POs and latch next-state functions."""
        roots = list(self.po_lits)
        for latch in self.latches:
            if latch.next_lit is None:
                raise AigError(f"latch {latch.name!r} has no next-state function")
            roots.append(latch.next_lit)
        return roots

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def fanout_counts(self) -> List[int]:
        """Number of combinational fanouts of every node (POs/latch-nexts included)."""
        counts = [0] * self.num_nodes
        for node in self.and_nodes():
            counts[lit_node(self._fanin0[node])] += 1
            counts[lit_node(self._fanin1[node])] += 1
        for lit in self.combinational_roots():
            counts[lit_node(lit)] += 1
        return counts

    def levels(self) -> List[int]:
        """Logic level of every node (PIs, latches and the constant are level 0)."""
        level = [0] * self.num_nodes
        for node in self.and_nodes():
            level[node] = 1 + max(level[lit_node(self._fanin0[node])], level[lit_node(self._fanin1[node])])
        return level

    def depth(self) -> int:
        """Maximum logic level over all combinational roots."""
        level = self.levels()
        roots = self.combinational_roots() if (self.po_lits or self.latches) else []
        if not roots:
            return 0
        return max(level[lit_node(lit)] for lit in roots)

    def reachable_nodes(self) -> List[bool]:
        """Mark nodes reachable (in the transitive fanin sense) from the roots."""
        marked = [False] * self.num_nodes
        marked[0] = True
        stack = [lit_node(lit) for lit in self.combinational_roots()]
        while stack:
            node = stack.pop()
            if marked[node]:
                continue
            marked[node] = True
            if self.is_and(node):
                stack.append(lit_node(self._fanin0[node]))
                stack.append(lit_node(self._fanin1[node]))
        for pi in self.pi_nodes:
            marked[pi] = True
        for latch in self.latches:
            marked[latch.node] = True
        return marked

    def num_dangling(self) -> int:
        """Number of AND nodes not reachable from any root."""
        marked = self.reachable_nodes()
        return sum(1 for node in self.and_nodes() if not marked[node])

    def stats(self) -> Dict[str, int]:
        """Summary statistics: pis, pos, latches, ands, depth."""
        return {
            "pis": self.num_pis,
            "pos": self.num_pos,
            "latches": self.num_latches,
            "ands": self.num_ands,
            "depth": self.depth(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats()
        return (
            f"<Aig {self.name!r}: {s['pis']} PI, {s['pos']} PO, {s['latches']} latch, "
            f"{s['ands']} AND, depth {s['depth']}>"
        )

    # ------------------------------------------------------------------
    # Copying / cleanup
    # ------------------------------------------------------------------
    def copy_dag_into(
        self,
        dest: "Aig",
        lit_map: Dict[int, int],
        roots: Iterable[int],
    ) -> None:
        """Copy the transitive fanin of ``roots`` into ``dest``.

        ``lit_map`` maps *literals of this AIG* to literals of ``dest``;
        it must already contain entries for the constant, all PIs and all
        latch outputs that the roots depend on.  New entries for internal
        nodes are added as they are copied.
        """

        def copy_lit(lit: int) -> int:
            reg = lit_regular(lit)
            if reg in lit_map:
                out = lit_map[reg]
                return lit_not(out) if lit_is_complemented(lit) else out
            node = lit_node(lit)
            if not self.is_and(node):
                raise AigError(f"literal {lit} has no mapping and is not an AND node")
            f0 = copy_lit(self._fanin0[node])
            f1 = copy_lit(self._fanin1[node])
            out = dest.add_and(f0, f1)
            lit_map[reg] = out
            return lit_not(out) if lit_is_complemented(lit) else out

        # Iterative pre-pass to avoid deep recursion on large circuits.
        for root in roots:
            stack = [lit_node(root)]
            post: List[int] = []
            seen = set()
            while stack:
                node = stack.pop()
                if node in seen or make_lit(node) in lit_map or not self.is_and(node):
                    continue
                seen.add(node)
                post.append(node)
                stack.append(lit_node(self._fanin0[node]))
                stack.append(lit_node(self._fanin1[node]))
            for node in sorted(post):
                if make_lit(node) not in lit_map:
                    f0 = copy_lit(self._fanin0[node])
                    f1 = copy_lit(self._fanin1[node])
                    lit_map[make_lit(node)] = dest.add_and(f0, f1)
            copy_lit(root)

    def cleanup(self) -> "Aig":
        """Return a copy without dangling AND nodes (ABC's ``sweep``/``cleanup``)."""
        dest = Aig(self.name)
        lit_map: Dict[int, int] = {FALSE: FALSE}
        for node, name in zip(self.pi_nodes, self.pi_names):
            lit_map[make_lit(node)] = dest.add_pi(name)
        latch_out_map: Dict[int, int] = {}
        for latch in self.latches:
            new_lit = dest.add_latch(latch.name, latch.init)
            lit_map[make_lit(latch.node)] = new_lit
            latch_out_map[latch.node] = new_lit
        self.copy_dag_into(dest, lit_map, self.combinational_roots())

        def mapped(lit: int) -> int:
            out = lit_map[lit_regular(lit)]
            return lit_not(out) if lit_is_complemented(lit) else out

        for name, lit in zip(self.po_names, self.po_lits):
            dest.add_po(mapped(lit), name)
        for latch in self.latches:
            dest.set_latch_next(latch_out_map[latch.node], mapped(latch.next_lit))
        return dest

    def copy(self) -> "Aig":
        """Deep copy (identical structure, including dangling nodes)."""
        dup = Aig(self.name)
        dup._type = list(self._type)
        dup._fanin0 = list(self._fanin0)
        dup._fanin1 = list(self._fanin1)
        dup.pi_nodes = list(self.pi_nodes)
        dup.pi_names = list(self.pi_names)
        dup.po_names = list(self.po_names)
        dup.po_lits = list(self.po_lits)
        dup.latches = [Latch(l.node, l.name, l.next_lit, l.init) for l in self.latches]
        dup._latch_by_node = {l.node: l for l in dup.latches}
        dup._strash = dict(self._strash)
        return dup
