"""Snapshot cuts and multiedge cuts by bounded exhaustive search.

A *snapshot cut* is a set of time labels whose removal (all edges at those
labels) leaves the target unreachable; a *multiedge cut* removes whole
parallel classes instead.  Both questions are decided exactly, which is
exponential in the cut size — the point of these routines is careful
pruning, deterministic witnesses, and honest work accounting, not speed.

Two engines produce provably identical answers:

* subset enumeration in (size, lex) order over the pruned candidate list,
  checking reachability after each removal;
* a minimum-hitting-set search over the label sets of *all* s,z-paths,
  explored in the same (size, lex) order.

A subset cuts the graph iff it hits every path, and minimal cuts only use
candidate labels, so both engines return the lexicographically least
minimum-size witness.  The hitting search picks candidates in increasing
index order, so a path mask whose highest bit lies below the index just
chosen can never be hit again: each branch loop ends at the lowest
highest bit among the masks still unhit.  It also skips a subtree when
more masks than it may still choose have pairwise disjoint bits among the
indices left to it.  Both rules drop only subtrees without a hitting set,
so the surviving (size, lex) order finds the same witness.

The enumeration engine is preferred while its subset count stays small
and within the caller's budget; otherwise the hitting engine takes over
when paths are enumerable, and enumeration runs anyway if it fits in the
budget.  ``budget`` caps both engines: a subset count above it is refused
before enumeration starts, each listed path costs one unit, and the
hitting engine stops once the listed paths plus its search nodes exceed
it.  Either way :class:`BudgetExceeded` is raised.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

from .core import (
    TemporalGraph,
    earliest_arrival,
    enumerate_paths,
    latest_departure,
    reachable,
    token_key,
)
from .errors import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    LimitExceeded,
    MalformedInput,
    UnknownVertex,
)

ENUMERATION_THRESHOLD = 50_000
PATH_LIMIT = 200_000


@dataclass(frozen=True)
class CutResult:
    """Outcome of a bounded snapshot-cut search."""

    found: bool
    labels: Optional[frozenset]
    size_bound: int
    candidates: tuple
    subsets_checked: int
    subset_bound: int
    engine: str


@dataclass(frozen=True)
class MinCutResult:
    value: int
    labels: frozenset
    candidates: tuple
    subsets_checked: int
    subset_bound: int
    engine: str


@dataclass(frozen=True)
class MultiedgeCutResult:
    found: bool
    multiedges: Optional[frozenset]
    size_bound: int
    candidates: tuple
    subsets_checked: int
    subset_bound: int
    engine: str


@dataclass(frozen=True)
class MinMultiedgeCutResult:
    value: int
    multiedges: frozenset
    candidates: tuple
    subsets_checked: int
    subset_bound: int
    engine: str


def _check_terminals(g: TemporalGraph, s, z):
    if s not in g.vertices:
        raise UnknownVertex(s)
    if z not in g.vertices:
        raise UnknownVertex(z)
    if s == z:
        raise MalformedInput("terminals must be distinct")


def _useful_edges(g: TemporalGraph, s, z) -> list:
    """Edges that lie on some temporal s,z-walk, hence the only edges a
    minimal cut can use.

    An edge uv at time t lies on such a walk iff one endpoint is reachable
    from s by time t and the other can still reach z from time t on.
    """
    _check_terminals(g, s, z)
    ea = earliest_arrival(g, s)
    ld = latest_departure(g, z)
    useful = []
    for e in g.edges:
        for a, b in ((e.u, e.v), (e.v, e.u)):
            if ea.get(a, math.inf) <= e.t and ld.get(b, -math.inf) >= e.t:
                useful.append(e)
                break
    return useful


def candidate_labels(g: TemporalGraph, s, z) -> tuple:
    """Labels that can appear on some temporal s,z-walk, hence the only
    labels a minimal cut can use."""
    return tuple(sorted({e.t for e in _useful_edges(g, s, z)}))


def is_snapshot_cut(g: TemporalGraph, s, z, labels) -> bool:
    """Does removing every edge at the given labels separate z from s?"""
    _check_terminals(g, s, z)
    return reachable(g.without_labels(labels), s, z) is None


def candidate_multiedges(g: TemporalGraph, s, z) -> tuple:
    """Multiedges (as canonical vertex pairs) that can appear on some
    temporal s,z-walk."""
    useful = {e.pair for e in _useful_edges(g, s, z)}
    return tuple(sorted(useful, key=lambda pr: (token_key(pr[0]), token_key(pr[1]))))


def is_multiedge_cut(g: TemporalGraph, s, z, pairs) -> bool:
    """Does removing the given multiedges separate z from s?"""
    _check_terminals(g, s, z)
    return reachable(g.without_multiedges(pairs), s, z) is None


def _subset_bound(n: int, h: int) -> int:
    return sum(math.comb(n, i) for i in range(min(n, h) + 1))


# -- the two engines ------------------------------------------------------------


def _enumerate_engine(candidates, sizes, is_cut):
    """(size, lex)-ordered subset enumeration; returns (witness or None,
    subsets checked)."""
    checked = 0
    for size in sizes:
        for combo in itertools.combinations(candidates, size):
            checked += 1
            if is_cut(combo):
                return frozenset(combo), checked
    return None, checked


def _path_masks(paths, candidates) -> list:
    pos = {c: i for i, c in enumerate(candidates)}
    masks = set()
    for p in paths:
        m = 0
        for value in p:
            m |= 1 << pos[value]
        masks.add(m)
    # Keep only inclusion-minimal masks: a set hits every path iff it hits
    # every minimal one.
    return [m for m in masks if not any(o != m and o & m == o for o in masks)]


def _branches(n: int, start: int, left: int, remaining: list) -> range:
    """Candidate indices worth trying next, once indices below *start* are
    settled and *left* more may be chosen to hit the *remaining* masks.

    Every later choice has an index at least the current one, so choosing
    index ``i`` or beyond leaves unhit, for good, each mask whose highest
    bit lies below ``i``: the loop stops at the lowest such highest bit.
    The subtree is empty, too, when more than *left* of the remaining
    masks have pairwise disjoint live bits (bits at or above *start*).
    """
    # A smaller positive int never has a longer bit length, so the least
    # mask has the lowest highest bit.
    stop = min(n - left + 1, min(remaining).bit_length())
    if left == 0 or stop <= start:
        return range(0)
    union = 0
    disjoint = 0
    floor = -1 << start
    for m in remaining:
        live = m & floor
        if not live & union:
            disjoint += 1
            if disjoint > left:
                return range(0)
            union |= live
    return range(start, stop)


def _hitting_engine(candidates, sizes, masks, budget):
    """Lexicographically least minimum hitting set among the given sizes;
    returns (witness or None, nodes visited).  Raises
    :class:`BudgetExceeded` once more than *budget* nodes are visited.

    For each size, a depth-first search picks candidate indices in
    increasing order, so it meets the subsets of that size in lex order.
    :func:`_branches` drops only subtrees that hold no hitting set, so the
    first one found is still the lexicographically least of the smallest
    size.  The search keeps an explicit stack, one frame per chosen index,
    so a cut of any size cannot exhaust the interpreter's recursion limit.
    """
    if not masks:
        return frozenset(), 0
    n = len(candidates)
    visited = 0
    for size in sizes:
        if size == 0:
            continue
        chosen: list = []
        # frame: (index iterator, choices left after this one, masks unhit)
        stack = [(iter(_branches(n, 0, size, masks)), size - 1, masks)]
        while stack:
            indices, left, remaining = stack[-1]
            i = next(indices, None)
            if i is None:
                stack.pop()
                if chosen:
                    chosen.pop()
                continue
            visited += 1
            if visited > budget:
                raise BudgetExceeded(visited, budget, "cut hitting-set search")
            bit = 1 << i
            rest = [m for m in remaining if not m & bit]
            if not rest:
                return frozenset(candidates[j] for j in chosen + [i]), visited
            chosen.append(i)
            stack.append((iter(_branches(n, i + 1, left, rest)), left - 1, rest))
    return None, visited


def _cut_search(g, s, z, h, budget, candidates_of, is_cut, path_set):
    """The steps all four cut searches share: validate, answer the empty
    cut when *z* is already unreachable, then pick an engine and run it
    over the candidates.  ``h=None`` asks for a minimum cut.

    Returns (witness or None, candidates, checked, subset_bound, engine).
    """
    if h is not None and h < 0:
        raise MalformedInput("cut size bound must be >= 0")
    _check_terminals(g, s, z)
    if reachable(g, s, z) is None:
        return frozenset(), (), 0, 1, "enumeration"
    cand = candidates_of(g, s, z)
    max_size = len(cand) if h is None else h
    sizes = range(0, min(max_size, len(cand)) + 1)
    bound = _subset_bound(len(cand), max_size)

    def separates(combo) -> bool:
        return is_cut(g, s, z, combo)

    paths = None
    if bound > min(ENUMERATION_THRESHOLD, budget):
        # Too many subsets to enumerate cheaply: hit the s,z-paths instead
        # if there are few enough of them to list.  Each listed path is
        # charged against the budget.
        try:
            paths = enumerate_paths(g, s, z, limit=min(PATH_LIMIT, budget))
        except LimitExceeded:
            pass
    if paths is not None:
        masks = _path_masks((path_set(p) for p in paths), cand)
        try:
            witness, checked = _hitting_engine(cand, sizes, masks, budget - len(paths))
        except BudgetExceeded as exc:
            raise BudgetExceeded(
                len(paths) + exc.required, budget, "cut path listing and hitting-set search"
            ) from None
        engine = "hitting"
    elif bound <= budget:
        witness, checked = _enumerate_engine(cand, sizes, separates)
        engine = "enumeration"
    else:
        raise BudgetExceeded(bound, budget, "cut subset enumeration")
    assert h is not None or witness is not None, "the full candidate set must be a cut"
    return witness, cand, checked, bound, engine


# -- public operations -----------------------------------------------------------


def snapshot_cut_at_most(
    g: TemporalGraph, s, z, h: int, budget: int = DEFAULT_BUDGET
) -> CutResult:
    """Is there a snapshot cut of size at most *h*?  Witness is the
    lexicographically least minimum-size one if so."""
    witness, *work = _cut_search(
        g, s, z, h, budget, candidate_labels, is_snapshot_cut, lambda p: p.label_set
    )
    return CutResult(witness is not None, witness, h, *work)


def min_snapshot_cut(
    g: TemporalGraph, s, z, budget: int = DEFAULT_BUDGET
) -> MinCutResult:
    """Exact minimum snapshot cut with the lexicographically least witness.

    Always terminates: the candidate label set itself is a cut.
    """
    witness, *work = _cut_search(
        g, s, z, None, budget, candidate_labels, is_snapshot_cut, lambda p: p.label_set
    )
    return MinCutResult(len(witness), witness, *work)


def multiedge_cut_at_most(
    g: TemporalGraph, s, z, h: int, budget: int = DEFAULT_BUDGET
) -> MultiedgeCutResult:
    """Is there a multiedge cut of size at most *h*?"""
    witness, *work = _cut_search(
        g, s, z, h, budget, candidate_multiedges, is_multiedge_cut,
        lambda p: p.multiedge_pairs,
    )
    return MultiedgeCutResult(witness is not None, witness, h, *work)


def min_multiedge_cut(
    g: TemporalGraph, s, z, budget: int = DEFAULT_BUDGET
) -> MinMultiedgeCutResult:
    """Exact minimum multiedge cut with deterministic witness."""
    witness, *work = _cut_search(
        g, s, z, None, budget, candidate_multiedges, is_multiedge_cut,
        lambda p: p.multiedge_pairs,
    )
    return MinMultiedgeCutResult(len(witness), witness, *work)
