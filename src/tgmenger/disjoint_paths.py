"""Snapshot-disjoint path packing via a product digraph over edge tuples.

To decide whether k pairwise snapshot-disjoint temporal s,z-paths exist,
walk a digraph whose vertices are k-tuples over the edge set extended by
two sentinels (a source token before all edges, a sink token after all of
them).  A tuple is admissible when its entries carry pairwise distinct
labels, except that several coordinates may sit on the same sentinel.
One move advances a single coordinate — one holding the minimum label —
along the relation "shares an endpoint, label does not decrease"; source
moves onto edges at s, and edges at z may move onto the sink.  Each
member's moves come from the incidence lists of its endpoints, and a move
is admissible when no other coordinate holds its label.

The all-source tuple reaches the all-sink tuple iff the k-family exists;
the per-coordinate move sequences then carry pairwise disjoint label sets,
and one pass over each coordinate's moves, keeping the edge that first
reaches each vertex, reads off an actual path per coordinate.

Every move rule depends only on which members a tuple holds, not on their
order, so the decision searches sorted tuples, one per permutation class
(orbit) of ordered tuples: symmetry reduction, which reaches the all-sink
tuple iff the ordered search does.  ``build_product``, ``contains`` and
the DOT dump stay on ordered tuples, the paper's construction.

One breadth-first search, given the move generator, serves the decision
over orbits, which stops at the first sight of the all-sink tuple, the
full exploration behind ``build_product``, and the DOT dump, which stops
at its vertex limit.  It keeps each reached tuple with the tuple it came
from and only counts arcs.  Tuples are generated lazily, one budget unit
each, and the search raises :class:`BudgetExceeded` as soon as it holds
more tuples than the budget.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Optional

from .core import TemporalGraph, _walk_back, check_family, check_integer, check_terminals
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


def check_question(g: TemporalGraph, s, z, k: int, budget: int) -> None:
    """The input rule of every packing question: the terminal rule, an
    integer k of at least 1 and an integer budget of at least 0
    (:class:`MalformedInput`)."""
    if check_integer("k", k) < 1:
        raise MalformedInput("k must be at least 1")
    if check_integer("budget", budget) < 0:
        raise MalformedInput("budget must be at least 0")
    check_terminals(g, s, z)


def _moves(view) -> tuple:
    """The tables of the product for a pair's view, the same for every k:
    its members, their labels, the member index of each token and each
    member's moves.

    Member 0 is the source token, members 1..m the edges in id order,
    member m+1 the sink token.  The sentinels' labels, 0 and lifetime + 1,
    belong to them alone.  A member moves onto the edges that share an
    endpoint with it and carry no smaller label, in member order; an edge
    at z also onto the sink.
    """
    g, s, z = view.graph, view.s, view.z
    edges = g.sorted_edges()
    m = len(edges)
    members = (SOURCE, *edges, SINK)
    lam = (0, *(e.t for e in edges), g.lifetime + 1)
    index = {SOURCE: 0, SINK: m + 1}
    index.update((e.eid, i) for i, e in enumerate(edges, start=1))
    succ = [tuple(sorted(index[e.eid] for e in g.incident(s)))]
    for i, e in enumerate(edges, start=1):
        near = {index[f.eid] for f in g.incident(e.u) + g.incident(e.v) if f.t >= e.t}
        near.discard(i)
        succ.append(tuple(sorted(near)) + ((m + 1,) if e.touches(z) else ()))
    succ.append(())
    return members, lam, index, tuple(succ)


class ProductDigraph:
    """The k-tuple digraph for one (graph, s, z, k) question.

    Construction validates the inputs and reads the per-member move lists
    from the graph's view of the terminal pair, built once for every k;
    tuples are generated on demand, one unit of *budget* each.
    ``explore()`` materializes every ordered tuple reachable from the
    all-source tuple (for inspection); :func:`max_snapshot_disjoint` runs
    the same search over sorted tuples, one per orbit, and stops at the
    all-sink tuple.  ``tuple_bound`` is the ordered count ``(m+2)^k``,
    which also bounds the orbits.
    """

    def __init__(self, g: TemporalGraph, s, z, k: int, budget: int = DEFAULT_BUDGET):
        check_question(g, s, z, k, budget)
        self.graph = g
        self.s = s
        self.z = z
        self.k = k
        self.budget = budget
        self.members, self.lam, self._index, self.succ = g._pair(s, z).derived(_moves)
        self.snk_ix = len(self.members) - 1
        self.tuple_bound = (self.snk_ix + 1) ** k
        self.start: tuple = (0,) * k
        self.goal: tuple = (self.snk_ix,) * k
        self.reachable_tuples: Optional[frozenset] = None
        self.arcs: Optional[tuple] = None

    # -- tuple-level structure ------------------------------------------------

    def member_index(self, token) -> int:
        """Index of an edge id or of the SOURCE/SINK sentinel."""
        try:
            return self._index[token]
        except (KeyError, TypeError):
            raise MalformedInput(f"no product member for token {token!r}") from None

    def tuple_of(self, tokens) -> tuple:
        vt = tuple(self.member_index(t) for t in tokens)
        if len(vt) != self.k:
            raise MalformedInput(f"expected a {self.k}-tuple")
        return vt

    def is_valid(self, vt: tuple) -> bool:
        """The edges' labels are pairwise distinct (sentinels may repeat)."""
        labs = [self.lam[ix] for ix in vt if 0 < ix < self.snk_ix]
        return len(set(labs)) == len(labs)

    def successors(self, vt: tuple) -> list:
        """Admissible one-move extensions, advancing only coordinates that
        hold the minimum label, in (coordinate, move) order.  A move is
        admissible when it lands on the sink or on a label no other
        coordinate holds."""
        lam = self.lam
        labs = [lam[ix] for ix in vt]
        mu = min(labs)
        out = []
        for pos, ix in enumerate(vt):
            if labs[pos] != mu:
                continue
            others = labs[:pos] + labs[pos + 1 :]
            for j in self.succ[ix]:
                if j == self.snk_ix or lam[j] not in others:
                    out.append((pos, j, vt[:pos] + (j,) + vt[pos + 1 :]))
        return out

    def orbit_successors(self, vt: tuple) -> list:
        """The sorted one-move extensions of the sorted tuple *vt*, in move
        order.  Its minimum-label member is unique, or a repeated sentinel
        whose copies all make the same moves, so one member advances and
        each result is re-sorted: the orbits of :meth:`successors`."""
        lam, snk = self.lam, self.snk_ix
        ix = min(vt, key=lam.__getitem__)
        pos = vt.index(ix)
        rest = vt[:pos] + vt[pos + 1 :]
        taken = {lam[o] for o in rest}
        return [
            tuple(sorted(rest + (j,)))
            for j in self.succ[ix]
            if j == snk or lam[j] not in taken
        ]

    def _ordered_moves(self, vt: tuple) -> list:
        return [nxt for _, _, nxt in self.successors(vt)]

    # -- full materialization ---------------------------------------------------

    def _reach(self, limit=float("inf")) -> tuple:
        """The reached tuples and the arcs out of them, in search order."""
        parents, _ = _search(self, self._ordered_moves, limit=limit)
        return parents, [(a, b) for a in parents for _, _, b in self.successors(a)]

    def explore(self) -> None:
        parents, arcs = self._reach()
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
        """DOT dump of the reachable part; its search raises
        :class:`LimitExceeded` once it reaches more than *max_vertices*."""
        parents, arcs = self._reach(max_vertices)

        def name(vt):
            return '"(' + ",".join(self._token_name(ix) for ix in vt) + ')"'

        order = sorted(parents)
        lines = ["digraph product {"]
        for vt in order:
            shape = ""
            if vt == self.start:
                shape = ' [shape=box, label="start"]'
            elif vt == self.goal:
                shape = ' [shape=box, label="goal"]'
            lines.append(f"  {name(vt)}{shape};")
        for a, b in arcs:
            lines.append(f"  {name(a)} -> {name(b)};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _search(
    product: ProductDigraph, moves, goal: Optional[tuple] = None, limit=float("inf")
) -> tuple:
    """Breadth-first search from the all-source tuple along *moves* (a
    tuple's successor tuples), stopping right after *goal* is first reached
    (or after everything, without a goal).

    Returns ``(parents, arcs)``: ``parents`` maps every reached tuple, in
    the order it was reached, to the tuple it was reached from (``None``
    for the start), and ``arcs`` counts every explored arc, repeats to
    already reached tuples included.  Every reached tuple, the start
    included, costs one unit of the product's budget; :class:`BudgetExceeded`
    is raised once more than that is spent, :class:`LimitExceeded` once
    more than *limit* tuples are reached.
    """
    if product.budget < 1:
        raise BudgetExceeded(1, product.budget, "product search")
    parents: dict = {product.start: None}
    arcs = 0
    queue = deque([product.start])
    while queue:
        cur = queue.popleft()
        for nxt in moves(cur):
            arcs += 1
            if nxt in parents:
                continue
            parents[nxt] = cur
            if len(parents) > product.budget:
                raise BudgetExceeded(len(parents), product.budget, "product search")
            if len(parents) > limit:
                raise LimitExceeded(limit, "product tuples in DOT dump")
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
    """Outcome of the snapshot-disjoint packing decision.

    ``tuples_materialized`` counts the sorted tuples (orbits) the search
    reached and ``arcs_explored`` every arc it followed, repeats to reached
    tuples included; ``tuple_bound`` is the ordered-tuple bound ``(m+2)^k``."""

    found: bool
    family: tuple
    k: int
    tuple_bound: int
    tuples_materialized: int
    arcs_explored: int


def _extract_family(product: ProductDigraph, parents: dict) -> tuple:
    """Recover one temporal path per chain from the goal's ancestry.

    The moves are replayed on k chains, all starting at the source.  A move
    is read off a sorted tuple and its parent as a multiset difference:
    one member leaves and one arrives, and the arriving member extends the
    first chain that holds the leaving one.  Real members carry pairwise
    distinct labels, so only chains still at the source can tie, and those
    are interchangeable.

    A chain's labels never decrease, and each move lands on an edge sharing
    an endpoint with the one before, so replaying a chain's edges in order
    is the label sweep of :func:`reachable` over the graph of that chain's
    edges: each edge already has a reached endpoint, and the edge that
    first reaches a vertex is its parent.  A chain moves onto the sink only
    from an edge at z, and the admissibility invariant keeps the k chains'
    label sets pairwise disjoint, so the paths walked back from z form the
    required family; :func:`check_family` confirms it before it is returned.
    """
    s, z = product.s, product.z
    trail = []
    cur = product.goal
    while cur != product.start:
        prev = parents[cur]
        trail.append((prev, cur))
        cur = prev
    held = list(product.start)
    reached_by: list = [{s: None} for _ in range(product.k)]
    for prev, cur in reversed(trail):
        (leaving,) = Counter(prev) - Counter(cur)
        (arrived,) = Counter(cur) - Counter(prev)
        chain = held.index(leaving)
        held[chain] = arrived
        if arrived == product.snk_ix:
            continue
        e = product.members[arrived]
        via = reached_by[chain]
        for a, b in ((e.u, e.v), (e.v, e.u)):
            if a in via and b not in via:
                via[b] = e
    family = tuple(_walk_back(via, s, z) for via in reached_by)
    check_family(product.graph, s, z, family, lambda path: path.label_set)
    return family


def max_snapshot_disjoint(
    g: TemporalGraph, s, z, k: int, budget: int = DEFAULT_BUDGET
) -> PathsResult:
    """Decide whether k pairwise snapshot-disjoint temporal s,z-paths
    exist; on success the result carries such a family.

    Breadth-first search over the sorted tuples of the product digraph,
    one per orbit of ordered tuples, stopping at the first sight of the
    all-sink tuple.
    """
    product = ProductDigraph(g, s, z, k, budget)
    parents, arcs = _search(product, product.orbit_successors, product.goal)
    found = product.goal in parents
    family = _extract_family(product, parents) if found else ()
    return PathsResult(found, family, k, product.tuple_bound, len(parents), arcs)
