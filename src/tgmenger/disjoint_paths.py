"""Snapshot-disjoint path packing via a product digraph over edge tuples.

To decide whether k pairwise snapshot-disjoint temporal s,z-paths exist,
walk a digraph whose vertices are k-tuples over the edge set extended by
two sentinels (a source token before all edges, a sink token after all of
them).  A tuple is admissible when its entries carry pairwise distinct
labels, except that several coordinates may sit on the same sentinel.
One move advances a single coordinate — one holding the minimum label —
along the relation "shares an endpoint, label does not decrease"; source
moves onto edges at s, and edges at z may move onto the sink.

The all-source tuple reaches the all-sink tuple iff the k-family exists;
the per-coordinate move sequences then carry pairwise disjoint label sets,
and restricting the graph to one coordinate's edges and re-running
reachability extracts an actual path per coordinate.

One breadth-first search over the tuples serves both the decision, which
stops at the first sight of the all-sink tuple, and the full exploration
behind ``build_product``, which stops only when nothing new is reached.
Tuples are generated lazily, but the worst-case count (m+2)^k is checked
against the caller's budget before any work happens.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .core import TemporalGraph, TemporalWalk, check_terminals, reachable
from .errors import DEFAULT_BUDGET, BudgetExceeded, LimitExceeded, MalformedInput

DOT_VERTEX_LIMIT = 500


class _Sentinel:
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self):
        return self.name


SOURCE = _Sentinel("src")
SINK = _Sentinel("snk")


class ProductDigraph:
    """The k-tuple digraph for one (graph, s, z, k) question.

    Construction validates the inputs and precomputes the per-member move
    lists; tuples themselves are generated on demand.  ``explore()``
    materializes everything reachable from the all-source tuple (for
    inspection and DOT dumps); :func:`max_snapshot_disjoint` runs the same
    search but stops at the all-sink tuple.
    """

    def __init__(self, g: TemporalGraph, s, z, k: int, budget: int = DEFAULT_BUDGET):
        if k < 1:
            raise MalformedInput("k must be at least 1")
        check_terminals(g, s, z)
        self.graph = g
        self.s = s
        self.z = z
        self.k = k
        edges = g.sorted_edges()
        m = len(edges)
        self.tuple_bound = (m + 2) ** k
        self.budget = budget
        if self.tuple_bound > budget:
            raise BudgetExceeded(self.tuple_bound, budget, "product tuple space")
        # Member 0 is the source token, members 1..m the edges in id order,
        # member m+1 the sink token.
        self.members: tuple = (SOURCE, *edges, SINK)
        self.lam: tuple = (0, *(e.t for e in edges), g.lifetime + 1)
        self.src_ix = 0
        self.snk_ix = m + 1
        succ: list = [[] for _ in self.members]
        succ[0] = [i for i, e in enumerate(edges, start=1) if e.touches(s)]
        for i, e in enumerate(edges, start=1):
            moves = [
                j
                for j, f in enumerate(edges, start=1)
                if j != i and f.t >= e.t and (f.touches(e.u) or f.touches(e.v))
            ]
            if e.touches(z):
                moves.append(self.snk_ix)
            succ[i] = moves
        self.succ: tuple = tuple(tuple(v) for v in succ)
        self.start: tuple = (0,) * k
        self.goal: tuple = (self.snk_ix,) * k
        self.reachable_tuples: Optional[frozenset] = None
        self.arcs: Optional[tuple] = None

    # -- tuple-level structure ------------------------------------------------

    def member_index(self, token) -> int:
        """Index of an edge id or of the SOURCE/SINK sentinel."""
        if token is SOURCE:
            return self.src_ix
        if token is SINK:
            return self.snk_ix
        for i, mem in enumerate(self.members):
            if not isinstance(mem, _Sentinel) and mem.eid == token:
                return i
        raise MalformedInput(f"no product member for token {token!r}")

    def tuple_of(self, tokens) -> tuple:
        vt = tuple(self.member_index(t) for t in tokens)
        if len(vt) != self.k:
            raise MalformedInput(f"expected a {self.k}-tuple")
        return vt

    def is_valid(self, vt: tuple) -> bool:
        """Pairwise distinct labels, except repeated sentinels."""
        seen: dict = {}
        for ix in vt:
            lab = self.lam[ix]
            if lab in seen:
                if seen[lab] != ix or ix not in (self.src_ix, self.snk_ix):
                    return False
            seen[lab] = ix
        return True

    def successors(self, vt: tuple) -> list:
        """Admissible one-move extensions, advancing only coordinates that
        hold the minimum label, in (coordinate, move) order."""
        labs = [self.lam[ix] for ix in vt]
        mu = min(labs)
        out = []
        for pos, ix in enumerate(vt):
            if labs[pos] != mu:
                continue
            for j in self.succ[ix]:
                new_lab = self.lam[j]
                ok = True
                for q, other in enumerate(vt):
                    if q == pos:
                        continue
                    if self.lam[other] == new_lab and (
                        other != j or j not in (self.src_ix, self.snk_ix)
                    ):
                        ok = False
                        break
                if ok:
                    out.append((pos, j, vt[:pos] + (j,) + vt[pos + 1 :]))
        return out

    # -- full materialization ---------------------------------------------------

    def explore(self) -> None:
        parents, arcs = _search(self)
        self.reachable_tuples = frozenset(parents)
        self.arcs = tuple(arcs)

    def contains(self, tokens) -> bool:
        """Is the token tuple a vertex reachable from the all-source
        tuple?  (``explore()`` runs on first use.)"""
        if self.reachable_tuples is None:
            self.explore()
        try:
            vt = self.tuple_of(tokens)
        except MalformedInput:
            return False
        return vt in self.reachable_tuples

    def _token_name(self, ix: int) -> str:
        mem = self.members[ix]
        return mem.name if isinstance(mem, _Sentinel) else str(mem.eid)

    def to_dot(self, max_vertices: int = DOT_VERTEX_LIMIT) -> str:
        """DOT dump of the reachable part; refuses oversized graphs."""
        if self.reachable_tuples is None:
            self.explore()
        if len(self.reachable_tuples) > max_vertices:
            raise LimitExceeded(max_vertices, "product tuples in DOT dump")

        def name(vt):
            return '"(' + ",".join(self._token_name(ix) for ix in vt) + ')"'

        order = sorted(self.reachable_tuples)
        lines = ["digraph product {"]
        for vt in order:
            shape = ""
            if vt == self.start:
                shape = ' [shape=box, label="start"]'
            elif vt == self.goal:
                shape = ' [shape=box, label="goal"]'
            lines.append(f"  {name(vt)}{shape};")
        for a, b in self.arcs:
            lines.append(f"  {name(a)} -> {name(b)};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _search(product: ProductDigraph, goal: Optional[tuple] = None) -> tuple:
    """Breadth-first search from the all-source tuple, stopping right after
    *goal* is first reached (or after everything, without a goal).

    Returns ``(parents, arcs)``: ``parents`` maps every reached tuple, in
    the order it was reached, to its ``(previous tuple, coordinate, new
    member)`` move (``None`` for the start), and ``arcs`` lists every
    explored arc, repeats to already reached tuples included.
    """
    parents: dict = {product.start: None}
    arcs: list = []
    queue = deque([product.start])
    while queue:
        cur = queue.popleft()
        for pos, j, nxt in product.successors(cur):
            arcs.append((cur, nxt))
            if nxt in parents:
                continue
            parents[nxt] = (cur, pos, j)
            if nxt == goal:
                return parents, arcs
            queue.append(nxt)
    return parents, arcs


def build_product(
    g: TemporalGraph, s, z, k: int, budget: int = DEFAULT_BUDGET
) -> ProductDigraph:
    """Build and fully explore the product digraph (for inspection; the
    decision procedure explores lazily instead)."""
    product = ProductDigraph(g, s, z, k, budget)
    product.explore()
    return product


@dataclass(frozen=True, slots=True)
class PathsResult:
    """Outcome of the snapshot-disjoint packing decision."""

    found: bool
    family: tuple
    k: int
    tuple_bound: int
    tuples_materialized: int
    arcs_explored: int


def _extract_family(product: ProductDigraph, parents: dict) -> tuple:
    """Recover one temporal path per coordinate from the goal's ancestry.

    Coordinate moves along the walk have non-decreasing labels and the
    admissibility invariant keeps the k coordinates' label sets pairwise
    disjoint, so restricting the graph to one coordinate's edges and
    asking for any time-respecting path yields the required family.
    """
    g = product.graph
    trail = []
    cur = product.goal
    while cur != product.start:
        prev, pos, new_ix = parents[cur]
        trail.append((pos, new_ix))
        cur = prev
    trail.reverse()
    chains: list = [{} for _ in range(product.k)]
    for pos, ix in trail:
        if ix not in (product.src_ix, product.snk_ix):
            # A coordinate may revisit an edge; the restricted graph only
            # cares about the set.
            chains[pos][ix] = product.members[ix]
    family = []
    for chain in chains:
        sub = TemporalGraph(chain.values(), vertices=g.vertices)
        path = reachable(sub, product.s, product.z)
        assert path is not None, "coordinate chain must connect the terminals"
        family.append(path)
    seen_labels: set = set()
    for path in family:
        assert not (path.label_set & seen_labels), "family must be snapshot disjoint"
        seen_labels |= path.label_set
    return tuple(family)


def max_snapshot_disjoint(
    g: TemporalGraph, s, z, k: int, budget: int = DEFAULT_BUDGET
) -> PathsResult:
    """Decide whether k pairwise snapshot-disjoint temporal s,z-paths
    exist; on success the result carries such a family.

    Breadth-first search over the product digraph, stopping at the first
    sight of the all-sink tuple.
    """
    product = ProductDigraph(g, s, z, k, budget)
    parents, arcs = _search(product, product.goal)
    found = product.goal in parents
    family = _extract_family(product, parents) if found else ()
    return PathsResult(found, family, k, product.tuple_bound, len(parents), len(arcs))
