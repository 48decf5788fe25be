"""Snapshot cuts and multiedge cuts by bounded exhaustive search.

A *snapshot cut* is a set of time labels whose removal (all edges at those
labels) leaves the target unreachable; a *multiedge cut* removes whole
parallel classes instead.  Both questions are decided exactly, which is
exponential in the cut size — the point of these routines is careful
pruning, deterministic witnesses, and honest work accounting, not speed.

Two engines produce provably identical answers:

* subset enumeration in (size, lex) order over the pruned candidate list,
  checking reachability after each removal with one sweep of the graph
  that skips the removed edges, so no check rebuilds the graph;
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

All four searches (at most *h* or minimum, snapshot or multiedge) return
one :class:`CutResult` shape: ``found``, ``value`` (the witness size),
the witness in ``labels`` or ``multiedges``, and the work accounting.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

from .core import (
    TemporalGraph,
    _walk_avoiding,
    check_terminals,
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
)

ENUMERATION_THRESHOLD = 50_000
PATH_LIMIT = 200_000


@dataclass(frozen=True, slots=True)
class CutResult:
    """Outcome of any of the four cut searches.

    ``labels`` holds a snapshot cut's witness and ``multiedges`` a multiedge
    cut's (the other stays ``None``); ``value`` is the witness size, ``None``
    when no cut within the bound exists.  A minimum-cut search always finds
    one.  The rest is work accounting: the candidate list searched, the
    subsets checked or search nodes visited, the number of subsets of the
    searched sizes, and the engine that ran.
    """

    found: bool
    value: Optional[int]
    labels: Optional[frozenset]
    multiedges: Optional[frozenset]
    candidates: tuple
    subsets_checked: int
    subset_bound: int
    engine: str


def _useful_edges(g: TemporalGraph, s, z) -> list:
    """Edges that lie on some temporal s,z-walk, hence the only edges a
    minimal cut can use.

    An edge uv at time t lies on such a walk iff one endpoint is reachable
    from s by time t and the other can still reach z from time t on.
    """
    check_terminals(g, s, z)
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
    """Does removing every edge at the given labels separate z from s?
    Labels not in the graph remove nothing."""
    check_terminals(g, s, z)
    removed = {e for t in set(labels) for e in g.snapshot(t)}
    return _walk_avoiding(g, s, z, removed) is None


def candidate_multiedges(g: TemporalGraph, s, z) -> tuple:
    """Multiedges (as canonical vertex pairs) that can appear on some
    temporal s,z-walk."""
    useful = {e.pair for e in _useful_edges(g, s, z)}
    return tuple(sorted(useful, key=lambda pr: (token_key(pr[0]), token_key(pr[1]))))


def is_multiedge_cut(g: TemporalGraph, s, z, pairs) -> bool:
    """Does removing the given multiedges separate z from s?  A pair may
    come in either orientation; one that is not a multiedge raises
    :class:`MissingMultiedge`."""
    check_terminals(g, s, z)
    removed = {e for pair in pairs for e in g.multiedge(*pair)}
    return _walk_avoiding(g, s, z, removed) is None


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
    """One bit mask per distinct candidate set, in increasing order.

    Masks that contain others are kept: whatever hits a mask hits every
    mask containing it, and the search's pruning rules hold for any mask.
    """
    pos = {c: i for i, c in enumerate(candidates)}
    masks = set()
    for p in paths:
        m = 0
        for value in p:
            m |= 1 << pos[value]
        masks.add(m)
    return sorted(masks)


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


def _cut_search(g, s, z, h, budget, multiedge: bool) -> CutResult:
    """The steps all four cut searches share: validate, answer the empty
    cut when *z* is already unreachable, then pick an engine and run it
    over the candidates.  ``h=None`` asks for a minimum cut.
    """
    if h is not None and h < 0:
        raise MalformedInput("cut size bound must be >= 0")
    check_terminals(g, s, z)
    if multiedge:
        candidates_of, is_cut = candidate_multiedges, is_multiedge_cut
    else:
        candidates_of, is_cut = candidate_labels, is_snapshot_cut
    if reachable(g, s, z) is None:
        witness, cand, checked, bound, engine = frozenset(), (), 0, 1, "enumeration"
    else:
        cand = candidates_of(g, s, z)
        max_size = len(cand) if h is None else h
        sizes = range(0, min(max_size, len(cand)) + 1)
        bound = _subset_bound(len(cand), max_size)
        paths = None
        if bound > min(ENUMERATION_THRESHOLD, budget):
            # Too many subsets to enumerate cheaply: hit the s,z-paths
            # instead if there are few enough of them to list.  Each listed
            # path is charged against the budget.
            try:
                paths = enumerate_paths(g, s, z, limit=min(PATH_LIMIT, budget))
            except LimitExceeded:
                pass
        if paths is not None:
            masks = _path_masks(
                (p.multiedge_pairs if multiedge else p.label_set for p in paths), cand
            )
            try:
                witness, checked = _hitting_engine(cand, sizes, masks, budget - len(paths))
            except BudgetExceeded as exc:
                raise BudgetExceeded(
                    len(paths) + exc.required, budget,
                    "cut path listing and hitting-set search",
                ) from None
            engine = "hitting"
        elif bound <= budget:
            witness, checked = _enumerate_engine(
                cand, sizes, lambda combo: is_cut(g, s, z, combo)
            )
            engine = "enumeration"
        else:
            raise BudgetExceeded(bound, budget, "cut subset enumeration")
        assert h is not None or witness is not None, "the full candidate set must be a cut"
    return CutResult(
        witness is not None,
        None if witness is None else len(witness),
        None if multiedge else witness,
        witness if multiedge else None,
        cand,
        checked,
        bound,
        engine,
    )


# -- public operations -----------------------------------------------------------


def snapshot_cut_at_most(
    g: TemporalGraph, s, z, h: int, budget: int = DEFAULT_BUDGET
) -> CutResult:
    """Is there a snapshot cut of size at most *h*?  Witness is the
    lexicographically least minimum-size one if so."""
    return _cut_search(g, s, z, h, budget, multiedge=False)


def min_snapshot_cut(g: TemporalGraph, s, z, budget: int = DEFAULT_BUDGET) -> CutResult:
    """Exact minimum snapshot cut with the lexicographically least witness.

    Always terminates: the candidate label set itself is a cut.
    """
    return _cut_search(g, s, z, None, budget, multiedge=False)


def multiedge_cut_at_most(
    g: TemporalGraph, s, z, h: int, budget: int = DEFAULT_BUDGET
) -> CutResult:
    """Is there a multiedge cut of size at most *h*?"""
    return _cut_search(g, s, z, h, budget, multiedge=True)


def min_multiedge_cut(g: TemporalGraph, s, z, budget: int = DEFAULT_BUDGET) -> CutResult:
    """Exact minimum multiedge cut with deterministic witness."""
    return _cut_search(g, s, z, None, budget, multiedge=True)
