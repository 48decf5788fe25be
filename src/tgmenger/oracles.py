"""Brute-force reference implementations and exhaustive searches.

Everything here is deliberately simple and slow: path enumeration plus
set packing / set covering over bitmasks.  One exact packing search
(:func:`max_disjoint_masks`) and one exact covering search
(:func:`min_hitting_set`) give every optimum the module reports: the
brute-force packing and cut values, the independent-set and vertex-cover
ground truth, and the semantic sweep's gap test.  The fast engines
elsewhere in the package are always cross-checked against these in the
test suite.

The second half of the module implements the semantic side of the
Mengerian question for untimed multigraphs: sweep *every* order type of
timefunction (weak orders over the edge set), compute the packing and
covering numbers for each, and report a violating labeling if one exists.
Parallel copies of a link are interchangeable, so the sweep visits one
pattern per orbit of permuting a link's copies, the one whose copy labels
strictly increase; it generates those patterns directly.
This is the independent instrument the recognition routine is judged
against, so it deliberately shares no code with it: of the package it
imports only the graph types and the errors.  Gap verdicts are cached per
family of realizable label masks for the life of the process.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

from .core import (
    MGraph,
    TemporalGraph,
    check_terminals,
    enumerate_paths,
    has_m_topological_minor,
    link_key,
    pair_key,
    token_key,
)
from .errors import MalformedInput, PatternTooLarge, UnknownVertex

DEFAULT_PATH_LIMIT = 100_000


@dataclass(frozen=True)
class OracleValue:
    """A brute-forced optimum together with its witness."""

    value: int
    witness: object


# -- bitmask set packing / covering helpers -----------------------------------


def max_disjoint_masks(masks: Sequence[int]) -> tuple:
    """Maximum number of pairwise-disjoint masks; returns (size, indices).

    Depth-first with include-first branching, so among maximum families the
    one preferring earliest indices is found first — deterministic given
    the input order.
    """
    n = len(masks)
    best: tuple = ()
    chosen: list = []
    # Exclude branches still to visit: (index, union, number chosen).  The
    # include branch is taken at once, so the stack pops them in the order
    # the recursive search would return to them.
    stack = [(0, 0, 0)]
    while stack:
        i, union, depth = stack.pop()
        del chosen[depth:]
        while True:
            if len(chosen) > len(best):
                best = tuple(chosen)
            if i == n or len(chosen) + (n - i) <= len(best):
                break
            if not masks[i] & union:
                stack.append((i + 1, union, len(chosen)))
                chosen.append(i)
                union |= masks[i]
            i += 1
    return len(best), best


def _disjoint_lower_bound(masks: list) -> int:
    union = 0
    count = 0
    for m in masks:
        if not m & union:
            count += 1
            union |= m
    return count


def min_hitting_set(masks: Sequence[int], universe: Sequence) -> tuple:
    """Lexicographically least minimum hitting set over ``universe``.

    ``universe`` lists the candidate elements in the order that defines
    "lex least"; masks are bit-indexed by position in ``universe``.
    Returns ``(size, chosen elements)``.
    """
    need = [m for m in masks if m]
    if not need:
        return 0, ()

    k = len(universe)

    def options(start: int, slots: int, remaining: list):
        if slots == 0 or _disjoint_lower_bound(remaining) > slots:
            return iter(())
        return iter(range(start, k - slots + 1))

    for size in range(1, k + 1):
        chosen: list = []
        # frame: (index iterator, masks unhit); one frame per chosen index
        # below the root, so any size of set fits the stack.
        stack = [(options(0, size, need), need)]
        while stack:
            indices, remaining = stack[-1]
            i = next(indices, None)
            if i is None:
                stack.pop()
                if chosen:
                    chosen.pop()
                continue
            bit = 1 << i
            rest = [m for m in remaining if not m & bit]
            if not rest:
                return size, tuple(universe[j] for j in chosen + [i])
            chosen.append(i)
            stack.append((options(i + 1, size - len(chosen), rest), rest))
    raise MalformedInput("some mask cannot be hit from the given universe")


def _masks_over(universe: Sequence, sets: Iterable[frozenset]) -> list:
    pos = {x: i for i, x in enumerate(universe)}
    out = []
    for s in sets:
        m = 0
        for x in s:
            m |= 1 << pos[x]
        out.append(m)
    return out


# -- path-enumeration oracles --------------------------------------------------


def _path_masks(g: TemporalGraph, s, z, limit: int, items, key) -> tuple:
    """Every temporal s,z-path and the item set ``items(path)`` of each, as
    ``(paths, universe, masks)``: the universe of items sorted by *key*,
    and one bitmask over it per path."""
    check_terminals(g, s, z)
    paths = enumerate_paths(g, s, z, limit=limit)
    sets = [items(p) for p in paths]
    universe = sorted(frozenset().union(*sets), key=key)
    return paths, universe, _masks_over(universe, sets)


def _packing(g: TemporalGraph, s, z, limit: int, items, key) -> OracleValue:
    """Most paths with pairwise disjoint item sets, the family as witness."""
    paths, _, masks = _path_masks(g, s, z, limit, items, key)
    size, idx = max_disjoint_masks(masks)
    return OracleValue(size, tuple(paths[i] for i in idx))


def _covering(g: TemporalGraph, s, z, limit: int, items, key) -> OracleValue:
    """Fewest items meeting every path's item set, the lexicographically
    least such set (in *key* order) as witness."""
    _, universe, masks = _path_masks(g, s, z, limit, items, key)
    size, chosen = min_hitting_set(masks, universe)
    return OracleValue(size, frozenset(chosen))


def brute_force_p(g: TemporalGraph, s, z, limit: int = DEFAULT_PATH_LIMIT) -> OracleValue:
    """Maximum number of pairwise snapshot-disjoint temporal s,z-paths,
    with a maximum family as witness (paths considered in lexicographic
    order)."""
    return _packing(g, s, z, limit, lambda p: p.label_set, None)


def brute_force_c(g: TemporalGraph, s, z, limit: int = DEFAULT_PATH_LIMIT) -> OracleValue:
    """Minimum number of labels whose removal leaves *z* unreachable from
    *s*, with the lexicographically least minimum label set as witness."""
    return _covering(g, s, z, limit, lambda p: p.label_set, None)


def brute_force_edge_disjoint(
    g: TemporalGraph, s, z, limit: int = DEFAULT_PATH_LIMIT
) -> OracleValue:
    """Maximum family of pairwise edge-disjoint temporal s,z-paths."""
    return _packing(g, s, z, limit, lambda p: frozenset(p.edge_ids), token_key)


def brute_force_multiedge_disjoint(
    g: TemporalGraph, s, z, limit: int = DEFAULT_PATH_LIMIT
) -> OracleValue:
    """Maximum family of temporal s,z-paths no two of which share a
    multiedge (an underlying vertex pair)."""
    return _packing(g, s, z, limit, lambda p: p.multiedge_pairs, pair_key)


def brute_force_multiedge_cut(
    g: TemporalGraph, s, z, limit: int = DEFAULT_PATH_LIMIT
) -> OracleValue:
    """Minimum set of multiedges whose removal leaves *z* unreachable."""
    return _covering(g, s, z, limit, lambda p: p.multiedge_pairs, pair_key)


# -- source-problem solvers (ground truth for the reductions) ------------------


def max_independent_set(vertices: Sequence, edges: Iterable[tuple]) -> OracleValue:
    """Maximum independent set of a simple graph, by branch and bound.

    Vertices are independent exactly when their incident-edge masks are
    disjoint, so :func:`max_disjoint_masks` runs the search.
    """
    verts = list(vertices)
    pos = {v: i for i, v in enumerate(verts)}
    masks = [0] * len(verts)
    for bit, (u, v) in enumerate(edges):
        if u == v:
            raise MalformedInput(f"loop at {u!r}")
        for w in (u, v):
            if w not in pos:
                raise UnknownVertex(w)
            masks[pos[w]] |= 1 << bit
    size, chosen = max_disjoint_masks(masks)
    return OracleValue(size, frozenset(verts[i] for i in chosen))


def min_vertex_cover(vertices: Sequence, edges: Iterable[tuple]) -> OracleValue:
    """Minimum vertex cover, via the independent-set complement."""
    vertices = list(vertices)
    mis = max_independent_set(vertices, edges)
    return OracleValue(len(vertices) - mis.value, frozenset(vertices) - mis.witness)


def find_multicolored_clique(coloring: dict, edges: Iterable[tuple]) -> Optional[frozenset]:
    """One vertex per color class, pairwise adjacent — or ``None``.

    ``coloring`` maps each vertex to its class.  Classes are combined in
    sorted order and vertices tried in sorted order, so the witness is the
    lexicographically first multicolored clique when one exists.
    """
    adj = set()
    for u, v in edges:
        adj.add(frozenset((u, v)))
    classes: dict = {}
    for v, c in coloring.items():
        classes.setdefault(c, []).append(v)
    groups = [sorted(classes[c], key=token_key) for c in sorted(classes, key=token_key)]
    for combo in itertools.product(*groups):
        if all(
            frozenset((a, b)) in adj for a, b in itertools.combinations(combo, 2)
        ):
            return frozenset(combo)
    return None


# -- label-pattern sweep (semantic Mengerian test) ------------------------------


def all_label_patterns(m: int) -> tuple:
    """Every order type of an m-edge timefunction: all weak orders of m
    slots, encoded as label tuples over 1..q for some q <= m.

    The count is the m-th Fubini number (1, 1, 3, 13, 75, 541, 4683,
    47293, ...), which is why the sweep is capped at 8 edges.  These are
    the patterns of m single links; the sweep itself visits one pattern
    per orbit of permuting a link's parallel copies
    (:func:`_label_patterns`).
    """
    return _label_patterns((1,) * m)


@lru_cache(maxsize=None)
def _label_patterns(mults: tuple) -> tuple:
    """The sweep's patterns for links of multiplicities *mults*, whose
    copies take consecutive slots: the weak orders of the slots in which
    each link's copy labels strictly increase, one per orbit of permuting
    a link's copies (the labels must differ for snapshots to stay simple,
    and p and c see only label sets).  They come in the order of
    :func:`all_label_patterns`: set partitions of the slots by the
    recursion below, each with its block orders in lexicographic order.
    """
    m = sum(mults)
    if m > 8:
        raise PatternTooLarge("label-pattern sweep supports at most 8 edges")
    if m == 0:
        return ((),)
    first = []  # per slot, the first slot of its link
    for mult in mults:
        first += [len(first)] * mult
    block_of = [0] * m
    out = []

    def partitions(i: int, blocks: list):
        if i == m:
            orders(blocks)
            return
        for j, b in enumerate(blocks):
            # A block holding a copy of slot i's link ends in one, as a
            # link's slots are consecutive.
            if b[-1] < first[i]:
                block_of[i] = j
                b.append(i)
                partitions(i + 1, blocks)
                b.pop()
        block_of[i] = len(blocks)
        blocks.append([i])
        partitions(i + 1, blocks)
        blocks.pop()

    def orders(blocks: list):
        k = len(blocks)
        # before[b]: the blocks holding the previous copy of a copy in b.
        before = [0] * k
        for slot in range(m):
            if first[slot] < slot:
                before[block_of[slot]] |= 1 << block_of[slot - 1]
        pattern = [0] * m
        order: list = []
        placed = 0
        tries = [0]  # per rank, the next block to try there
        while tries:
            b = tries[-1]
            while b < k and (placed >> b & 1 or before[b] & ~placed):
                b += 1
            if b == k:
                tries.pop()
                if order:
                    placed ^= 1 << order.pop()
                continue
            tries[-1] = b + 1
            for slot in blocks[b]:
                pattern[slot] = len(tries)
            if len(tries) == k:
                out.append(tuple(pattern))
            else:
                order.append(b)
                placed |= 1 << b
                tries.append(0)

    partitions(0, [])
    return tuple(out)


@dataclass(frozen=True)
class SemanticViolation:
    """A timefunction witnessing that a multigraph is not Mengerian."""

    s: object
    z: object
    labeling: TemporalGraph
    packing: int
    covering: int


def _structural_paths(mg: MGraph, link_index: dict, s, z) -> list:
    """The structural s,z-paths of the underlying graph, as tuples of link
    indices, in depth-first order over token-ordered neighbours."""
    paths: list = []
    trail_v = {s}
    trail_l: list = []

    def go(cur):
        for w in mg.neighbors(cur):
            if w == z:
                paths.append(tuple(trail_l + [link_index[link_key(cur, w)]]))
                continue
            if w in trail_v:
                continue
            trail_v.add(w)
            trail_l.append(link_index[link_key(cur, w)])
            go(w)
            trail_v.discard(w)
            trail_l.pop()

    go(s)
    return paths


def _realizable_masks(path_links: tuple, link_labels: list) -> set:
    """All label sets realizable by time-respecting traversals of one
    structural path, given each link's available labels."""
    states = {(0, 0)}
    for li in path_links:
        nxt = set()
        for last, mask in states:
            for t in link_labels[li]:
                if t >= last:
                    nxt.add((t, mask | (1 << t)))
        if not nxt:
            return set()
        states = nxt
    return {mask for _, mask in states}


@lru_cache(maxsize=None)
def _gap_open(masks: frozenset) -> bool:
    """Is packing below covering for a pair whose realizable label sets
    are *masks*?  Masks are bitmasks over labels 1..8, so bit positions
    serve as the covering universe and the module's own packing and
    covering searches decide the gap.  Families recur across patterns,
    pairs and graphs: each is decided once per process."""
    family = sorted(masks)
    positions = range(family[-1].bit_length())
    return min_hitting_set(family, positions)[0] > max_disjoint_masks(family)[0]


def _automorphism_pair_reps(mg: MGraph) -> list:
    """One unordered terminal pair per automorphism orbit.

    Sound for the sweep because reversing all labels swaps the roles of
    the two terminals while staying inside the pattern set, so an
    unordered pair either has a violating pattern in both directions or in
    neither.
    """
    verts = sorted(mg.vertices, key=token_key)
    autos = []
    for perm in itertools.permutations(verts):
        fmap = dict(zip(verts, perm))
        if all(mg.multiplicity(fmap[u], fmap[v]) == m for (u, v), m in mg.links.items()):
            autos.append(fmap)
    seen: set = set()
    reps = []
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            pair = frozenset((verts[i], verts[j]))
            if pair in seen:
                continue
            reps.append((verts[i], verts[j]))
            for f in autos:
                seen.add(frozenset((f[verts[i]], f[verts[j]])))
    return reps


def _sweep(mg: MGraph) -> Optional[tuple]:
    """Pattern sweep on a connected multigraph; returns the first violating
    ``(s, z, labels per link)`` triple in pattern, then pair, order or
    ``None``.  Gap tests go through the cached :func:`_gap_open`."""
    links = mg.sorted_links()
    slot_of: list = []
    base = 0
    for _, mult in links:
        slot_of.append(tuple(range(base, base + mult)))
        base += mult
    link_index = {pair: i for i, (pair, _) in enumerate(links)}
    sweeps = [
        (s, z, paths)
        for s, z in _automorphism_pair_reps(mg)
        for paths in (_structural_paths(mg, link_index, s, z),)
        if paths
    ]
    if not sweeps:
        return None
    for pattern in _label_patterns(tuple(mult for _, mult in links)):
        link_labels = [tuple(pattern[i] for i in slots) for slots in slot_of]
        for s, z, paths in sweeps:
            masks: set = set()
            for path in paths:
                masks |= _realizable_masks(path, link_labels)
            if masks and _gap_open(frozenset(masks)):
                return (s, z, link_labels)
    return None


_VERDICT_MEMO: dict = {}


def _labeling_graph(mg: MGraph, link_labels: list) -> TemporalGraph:
    links = mg.sorted_links()
    edges = []
    for (pair, _), labels in zip(links, link_labels):
        for t in labels:
            edges.append((len(edges), pair[0], pair[1], t))
    return TemporalGraph(edges, vertices=mg.vertices)


def semantic_is_mengerian(mg: MGraph) -> bool:
    """Does packing equal covering for *every* timefunction and terminal
    pair?  Decided by exhaustive sweep over label order types.

    Verdicts are memoized by isomorphism class, and the sweep's gap
    verdicts per family of realizable label masks, for the life of the
    process; disconnected graphs are answered component-wise.
    """
    for comp in mg.components():
        if not comp.links:
            continue
        key = comp.canonical_form()
        if key not in _VERDICT_MEMO:
            _VERDICT_MEMO[key] = _sweep(comp) is None
        if not _VERDICT_MEMO[key]:
            return False
    return True


def find_semantic_violation(mg: MGraph) -> Optional[SemanticViolation]:
    """A concrete bad timefunction for a non-Mengerian multigraph, or
    ``None`` when the sweep certifies every labeling tight."""
    for comp in mg.components():
        if not comp.links:
            continue
        key = comp.canonical_form()
        if _VERDICT_MEMO.get(key) is True:
            continue
        found = _sweep(comp)
        _VERDICT_MEMO[key] = found is None
        if found is not None:
            s, z, link_labels = found
            g = _labeling_graph(comp, link_labels)
            p = brute_force_p(g, s, z)
            c = brute_force_c(g, s, z)
            return SemanticViolation(s, z, g, p.value, c.value)
    return None


# -- exhaustive graph generation ------------------------------------------------


def enumerate_simple_graphs(n: int) -> list:
    """All non-isomorphic simple graphs on exactly *n* vertices (labeled
    0..n-1; isolated vertices allowed)."""
    pairs = list(itertools.combinations(range(n), 2))
    seen = set()
    out = []
    for bits in range(1 << len(pairs)):
        g = MGraph(
            {pairs[i]: 1 for i in range(len(pairs)) if bits >> i & 1},
            vertices=range(n),
        )
        key = g.canonical_form()
        if key not in seen:
            seen.add(key)
            out.append(g)
    return out


def enumerate_connected_multigraphs(max_vertices: int, max_edges: int) -> list:
    """All non-isomorphic connected multigraphs within the given order and
    size bounds (size counts multiplicities).  Brute-force canonical forms
    settle isomorphism, so the bounds must stay small."""
    out = []
    seen = set()
    for n in range(1, max_vertices + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            links = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            if len(links) > max_edges or (n > 1 and len(links) < n - 1):
                continue
            base = MGraph({p: 1 for p in links}, vertices=range(n))
            if not base.is_connected():
                continue
            for extra in _spread(max_edges - len(links), len(links)):
                mg = MGraph(
                    {p: 1 + extra[i] for i, p in enumerate(links)}, vertices=range(n)
                )
                key = mg.canonical_form()
                if key not in seen:
                    seen.add(key)
                    out.append(mg)
    out.sort(key=lambda g: (g.order(), g.size(), g.canonical_form()))
    return out


def _spread(budget: int, parts: int):
    """All tuples of ``parts`` non-negative ints with sum at most
    ``budget``, in lexicographic order."""
    return (
        c for c in itertools.product(range(budget + 1), repeat=parts) if sum(c) <= budget
    )


def search_minimal_non_mengerian(max_vertices: int, max_edges: int) -> list:
    """Every connected multigraph within the bounds that is not Mengerian
    and contains no smaller non-Mengerian multigraph as a
    multiplicity-respecting topological minor.

    This is the exhaustive search that independently recovers the
    forbidden-shape catalog.  It is expensive — the semantic sweep runs on
    every candidate."""
    graphs = enumerate_connected_multigraphs(max_vertices, max_edges)
    bad = [g for g in graphs if not semantic_is_mengerian(g)]
    keys = [g.canonical_form() for g in bad]
    minimal = []
    for i, g in enumerate(bad):
        if not any(
            keys[j] != keys[i] and has_m_topological_minor(g, h)
            for j, h in enumerate(bad)
        ):
            minimal.append(g)
    return minimal
