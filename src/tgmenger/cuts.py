"""Snapshot cuts and multiedge cuts by bounded exhaustive search.

A *snapshot cut* is a set of time labels whose removal (all edges at those
labels) leaves the target unreachable; a *multiedge cut* removes whole
parallel classes instead.  Both questions are decided exactly, which is
exponential in the cut size — the point of these routines is careful
pruning, deterministic witnesses, and honest work accounting, not speed.

One engine answers all four searches: a minimum hitting set of the path
masks (the candidates each s,z-path uses), with the masks learnt lazily
from reachability checks instead of listed up front.  Minimal cuts only
use candidates, and a subset cuts the graph iff it hits every path mask.

* Seed: the candidates come from the graph's view of the terminal pair,
  built once for all questions on that pair, with a table of the edges
  on some s,z-walk: grouped by label in increasing order, each with its
  candidate's bit.  Each check is one sweep of that table that skips the
  picked candidates' bits and returns the bits along the s,z-path it
  finds, the path :func:`core.reachable` finds once those candidates'
  edges are removed, so no check rebuilds the graph or the path.
  Removing each found path's candidates in turn yields pairwise
  disjoint masks, a lower bound on the cut size; more than *h* of them
  answer no at once.  If every seed mask is a single candidate, their
  union is the only cut of that size.
* Decide: for each size from the lower bound up, a bounded search tree
  decides whether a cut of that size exists.  Each node branches on the
  known mask still unhit with the fewest live bits (bits not yet ruled
  out): child j picks that mask's j-th live bit and rules out the ones
  before it, so no subset is reached twice within a size.  A node is
  dropped when a mask has no live bit left, or when more masks than it
  may still pick have pairwise disjoint live bits.  One pass over the
  parent's unhit masks keeps those the new bit misses and finds the bits
  to branch on.  A subset that hits every known mask is checked; if it
  is no cut, the check's path gives a new mask that misses the subset
  and all its ancestors, so every open node learns it and the search
  goes on from the same node.
* Witness: only on a yes, by self-reduction at exactly that minimum
  size.  The candidate indices are taken in increasing order: each joins
  the prefix when some cut of that size holds the prefix and it but no
  index ruled out before, and is ruled out otherwise.  Each question is
  one decision search started from the prefix and the index as picked
  bits and the ruled-out indices as excluded ones, and a yes becomes the
  confirmed cut.  The confirmed cut holds the prefix and no ruled-out
  index, so its next index joins without a question.  Every question
  starts from all the masks learnt so far and learns more the same way.

The prefix is always the least cut's indices below the current one: an
index that cut holds is confirmed, and a cut holding any other index
would be lex-less than it.  So the prefix grows into the
lexicographically least minimum-size witness.  ``budget`` counts every
search node visited in either phase plus every reachability check after
the first; :class:`BudgetExceeded` is raised as soon as they exceed it.
The reported count is of distinct subsets reached, so it never exceeds
the number of subsets of the searched sizes.

The predicates :func:`is_snapshot_cut` and :func:`is_multiedge_cut` run
the same check on the bits of their items, so this check is the
package's one masked reachability question.

All four searches (at most *h* or minimum, snapshot or multiedge) return
one :class:`CutResult` shape: ``found``, ``value`` (the witness size),
the witness in ``labels`` or ``multiedges``, and the work accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

from .core import TemporalGraph, _get, check_integer, check_terminals, link_key, pair_key
from .errors import DEFAULT_BUDGET, BudgetExceeded, MalformedInput


@dataclass(frozen=True, slots=True)
class CutResult:
    """Outcome of any of the four cut searches.

    ``labels`` holds a snapshot cut's witness and ``multiedges`` a multiedge
    cut's (the other stays ``None``); ``value`` is the witness size, ``None``
    when no cut within the bound exists.  A minimum-cut search always finds
    one.  The rest is work accounting: the candidate list searched, the
    distinct subsets the search reached (``subsets_checked``, at most
    ``subset_bound``), the number of subsets of the searched sizes, and
    the engine that ran (always ``"hitting"``).
    """

    found: bool
    value: Optional[int]
    labels: Optional[frozenset]
    multiedges: Optional[frozenset]
    candidates: tuple
    subsets_checked: int
    subset_bound: int
    engine: str


def _candidate_table(view, key, order) -> tuple:
    """The candidates of a pair's view, the distinct ``key(e)`` of its
    useful edges sorted by *order*; the table its cut checks sweep: the
    useful edges grouped by label in increasing order, in construction
    order within a label, each as ``(u, v, bit of its candidate)``; and
    the map from candidate to bit."""
    keys = [key(e) for e in view.useful]
    cand = tuple(sorted(set(keys), key=order))
    pos = {c: 1 << i for i, c in enumerate(cand)}
    by_label: dict = {}
    for e, c in zip(view.useful, keys):
        by_label.setdefault(e.t, []).append((e.u, e.v, pos[c]))
    return cand, tuple(by_label[t] for t in sorted(by_label)), pos


def _label_candidates(view) -> tuple:
    """The candidate labels of a pair's view, in increasing order, with
    the table and map of their bits."""
    return _candidate_table(view, lambda e: e.t, None)


def _multiedge_candidates(view) -> tuple:
    """The candidate multiedges of a pair's view, as canonical vertex pairs
    in order, with the table and map of their bits."""
    return _candidate_table(view, lambda e: e.pair, pair_key)


def _escape(table, s, z, picked: int) -> Optional[int]:
    """The package's one masked reachability check: one sweep of a pair's
    *table* from *s*, in label order as :func:`core._sweep` runs, that
    skips the edges whose bit is in *picked* and stops at *z*.  Returns
    the OR of the bits along *z*'s parent chain back to *s*, or ``None``
    when *picked* is a cut.

    Each reached vertex keeps the bits of its own chain.  The chain is
    that of :func:`core.reachable` on the graph rebuilt without those
    candidates' edges: an edge outside the table reaches only vertices
    that cannot reach *z* from that label on, so it is never a parent on
    the chain.
    """
    chain = {s: 0}
    for snap in table:
        changed = True
        while changed:
            changed = False
            for u, v, bit in snap:
                if bit & picked:
                    continue
                if u in chain:
                    if v not in chain:
                        m = chain[v] = chain[u] | bit
                        if v == z:
                            return m
                        changed = True
                elif v in chain:
                    m = chain[u] = chain[v] | bit
                    if u == z:
                        return m
                    changed = True
    return None


def candidate_labels(g: TemporalGraph, s, z) -> tuple:
    """Labels that can appear on some temporal s,z-walk, hence the only
    labels a minimal cut can use."""
    check_terminals(g, s, z)
    return g._pair(s, z).derived(_label_candidates)[0]


def _collection(items, what: str):
    """An iterator over a predicate's *items*, which must be a collection
    and not a string (:class:`MalformedInput` naming them as *what*)."""
    if not isinstance(items, (str, bytes)):
        try:
            return iter(items)
        except TypeError:
            pass
    raise MalformedInput(f"{what} {items!r} is not a collection of items")


def is_snapshot_cut(g: TemporalGraph, s, z, labels) -> bool:
    """Does removing every edge at the given labels separate z from s?
    *labels* is a collection such as a set, list or tuple; a string or a
    non-iterable raises :class:`MalformedInput` naming it.  Labels not in
    the graph remove nothing; an unhashable one raises
    :class:`MalformedInput` naming it.  Only candidate labels can change
    the answer: a walk that survives a removal uses only edges on some
    s,z-walk.  So this is the search's own check, of their bits."""
    check_terminals(g, s, z)
    _, table, bit = g._pair(s, z).derived(_label_candidates)
    picked = 0
    for t in _collection(labels, "labels"):
        picked |= _get(bit, t, 0, "label")
    return _escape(table, s, z, picked) is None


def candidate_multiedges(g: TemporalGraph, s, z) -> tuple:
    """Multiedges (as canonical vertex pairs) that can appear on some
    temporal s,z-walk."""
    check_terminals(g, s, z)
    return g._pair(s, z).derived(_multiedge_candidates)[0]


def is_multiedge_cut(g: TemporalGraph, s, z, pairs) -> bool:
    """Does removing the given multiedges separate z from s?  *pairs* is
    a collection, as for :func:`is_snapshot_cut`.  A pair may come in
    either orientation; one that is not a multiedge raises
    :class:`MissingMultiedge`, and an item that is not two hashable
    vertices, a string included, raises :class:`MalformedInput` naming
    it.  As for :func:`is_snapshot_cut`, only candidates' bits are
    checked."""
    check_terminals(g, s, z)
    _, table, bit = g._pair(s, z).derived(_multiedge_candidates)
    picked = 0
    for pair in _collection(pairs, "multiedges"):
        try:
            if isinstance(pair, (str, bytes)):
                raise TypeError
            u, v = pair
            picked |= bit.get(link_key(u, v), 0)
        except (TypeError, ValueError):
            raise MalformedInput(f"multiedge item {pair!r} is not a pair of vertices") from None
        g.multiedge(u, v)
    return _escape(table, s, z, picked) is None


def _subset_bound(n: int, h: int) -> int:
    """The number of subsets of at most *h* of *n* candidates, each term
    built from the one before: C(n, i+1) = C(n, i)(n-i)/(i+1)."""
    total = term = 1
    for i in range(min(n, h)):
        term = term * (n - i) // (i + 1)
        total += term
    return total


# -- the lazy hitting-set engine -----------------------------------------------


def _branch(unhit: list, bit: int, excluded: int, left: int) -> tuple:
    """One search step over a node's *unhit* masks once the bits in *bit*
    are picked, with the *excluded* bits ruled out and *left* more picks
    allowed.  Returns the masks still unhit, ``rest``, and the bits to
    branch on: the live bits (those not excluded) of the first mask of
    ``rest`` with the fewest, or 0 when no extension hits every mask.
    That is so when a mask has no live bit, or when more than *left*
    masks, taken greedily in list order, have pairwise disjoint live
    bits.  ``rest`` is cut short once the answer is 0, but is empty only
    when every mask is hit.
    """
    rest = []
    best = 0
    fewest = math.inf
    union = 0
    disjoint = 0
    for m in unhit:
        if m & bit:
            continue
        rest.append(m)
        live = m & ~excluded
        if not live:
            return rest, 0
        if not live & union:
            disjoint += 1
            if disjoint > left:
                return rest, 0
            union |= live
        count = live.bit_count()
        if count < fewest:
            best, fewest = live, count
    return rest, best


class _HittingSearch:
    """The state one :func:`_hitting_search` call shares between its
    phases: the known masks, the budget spent and the distinct subsets
    reached."""

    def __init__(self, known: list, escape, budget: int):
        self.known = known
        self.escape = escape
        self.budget = budget
        self.spent = 0
        self.reached: set = set()

    def charge(self) -> None:
        self.spent += 1
        if self.spent > self.budget:
            raise BudgetExceeded(self.spent, self.budget, "cut hitting-set search")

    def visit(self, picked: int) -> None:
        self.charge()
        self.reached.add(picked)

    def check(self, picked: int) -> Optional[int]:
        self.charge()
        return self.escape(picked)

    def decide(self, size: int, picked: int = 0, excluded: int = 0) -> Optional[int]:
        """A cut of at most *size* candidates that holds the *picked* bits
        and none of the *excluded* ones, or ``None`` when there is none: a
        bounded search tree that branches on the bits of the unhit mask
        with the fewest live bits.  Child j picks bit b_j and excludes
        b_1..b_{j-1}, so no subset is reached twice.
        """
        known = self.known
        left = size - picked.bit_count()
        unhit, todo = _branch(known, picked, excluded, left)
        if not unhit:
            self.visit(picked)
            m = self.check(picked)
            if m is None:
                return picked
            known.append(m)
            unhit, todo = _branch([m], 0, excluded, left)
        # frame: [picked, excluded, picks left, masks unhit, bits to try]
        stack = [[picked, excluded, left, unhit, todo]]
        while stack:
            frame = stack[-1]
            picked, excluded, left, unhit, todo = frame
            if not todo:
                stack.pop()
                continue
            bit = todo & -todo
            frame[1] = excluded | bit
            frame[4] = todo ^ bit
            picked |= bit
            self.visit(picked)
            rest, todo = _branch(unhit, bit, excluded, left - 1)
            if not rest:
                m = self.check(picked)
                if m is None:
                    return picked
                # The path misses every ancestor's picked bits too, so every
                # open frame learns its mask, and so do later questions.
                known.append(m)
                for f in stack:
                    f[3].append(m)
                rest, todo = _branch([m], 0, excluded, left - 1)
            if todo:
                stack.append([picked, excluded, left - 1, rest, todo])
        return None

    def least(self, n: int, cut: int) -> int:
        """The lexicographically least cut of as many candidates as the
        confirmed *cut*, by self-reduction: each index in increasing order
        joins the prefix when some such cut holds the prefix and it but no
        index ruled out before, and is ruled out otherwise.  The last cut
        confirmed holds the prefix, so its next index is fixed unasked.
        """
        size = cut.bit_count()
        prefix = ruled = 0
        for i in range(n):
            if prefix == cut:
                break
            bit = 1 << i
            ahead = cut & ~prefix
            if ahead & -ahead == bit:
                prefix |= bit
            elif (found := self.decide(size, prefix | bit, ruled)) is None:
                ruled |= bit
            else:
                prefix, cut = prefix | bit, found
        return cut


def _hitting_search(n: int, most: int, first: int, escape, budget: int) -> tuple:
    """Lexicographically least minimum hitting set, of size at most *most*,
    of the masks over *n* candidates that *escape* reveals; returns
    (witness bits or None, distinct subsets reached).

    ``escape(picked)`` returns the mask of an s,z-path that uses none of
    the candidates in the bit set *picked*, or ``None`` when *picked* is a
    cut; for a pair of a graph that is :func:`_escape` over the pair's
    table.  *first* is ``escape(0)``, the mask of the path found with
    nothing removed, and is not charged.  Each search node visited and
    each later call of *escape* costs one unit, and
    :class:`BudgetExceeded` is raised once more than *budget* are spent.
    The count of distinct subsets is at most ``_subset_bound(n, most)``.
    Each decision keeps an explicit stack and the witness phase is a loop
    of decisions, so a cut of any size cannot exhaust the interpreter's
    recursion limit.
    """
    search = _HittingSearch([first], escape, budget)
    known = search.known
    removed = first
    while len(known) <= most:
        search.charge()
        m = escape(removed)
        if m is None:
            break
        known.append(m)
        removed |= m
    else:
        return None, 0
    if all(m & (m - 1) == 0 for m in known):
        search.charge()
        return removed, 1
    for size in range(len(known), most + 1):
        cut = search.decide(size)
        if cut is not None:
            return search.least(n, cut), len(search.reached)
    return None, len(search.reached)


def _cut_search(g, s, z, h, budget, multiedge: bool) -> CutResult:
    """The steps all four cut searches share: validate, answer the empty
    cut when *z* is already unreachable, then run the hitting-set search
    over the candidates.  ``h=None`` asks for a minimum cut; the two
    at-most searches check their *h*.  The first walk and the candidates
    come from the graph's view of the pair, so only the search itself is
    repeated when a pair is asked again.
    """
    check_integer("budget", budget, 0)
    check_terminals(g, s, z)
    view = g._pair(s, z)
    if view.walk is None:
        witness, cand, checked, bound = frozenset(), (), 0, 1
    else:
        cand, table, _ = view.derived(
            _multiedge_candidates if multiedge else _label_candidates
        )
        escape = partial(_escape, table, s, z)
        max_size = len(cand) if h is None else h
        bound = _subset_bound(len(cand), max_size)
        picked, checked = _hitting_search(
            len(cand), min(max_size, len(cand)), escape(0), escape, budget
        )
        witness = None if picked is None else frozenset(
            c for i, c in enumerate(cand) if picked >> i & 1
        )
        if h is None and witness is None:
            raise AssertionError("the full candidate set must be a cut")
    return CutResult(
        witness is not None,
        None if witness is None else len(witness),
        None if multiedge else witness,
        witness if multiedge else None,
        cand,
        checked,
        bound,
        "hitting",
    )


# -- public operations -----------------------------------------------------------


def snapshot_cut_at_most(
    g: TemporalGraph, s, z, h: int, budget: int = DEFAULT_BUDGET
) -> CutResult:
    """Is there a snapshot cut of size at most *h*?  Witness is the
    lexicographically least minimum-size one if so."""
    return _cut_search(g, s, z, check_integer("cut size bound", h, 0), budget, multiedge=False)


def min_snapshot_cut(g: TemporalGraph, s, z, budget: int = DEFAULT_BUDGET) -> CutResult:
    """Exact minimum snapshot cut with the lexicographically least witness.

    Always terminates: the candidate label set itself is a cut.
    """
    return _cut_search(g, s, z, None, budget, multiedge=False)


def multiedge_cut_at_most(
    g: TemporalGraph, s, z, h: int, budget: int = DEFAULT_BUDGET
) -> CutResult:
    """Is there a multiedge cut of size at most *h*?"""
    return _cut_search(g, s, z, check_integer("cut size bound", h, 0), budget, multiedge=True)


def min_multiedge_cut(g: TemporalGraph, s, z, budget: int = DEFAULT_BUDGET) -> CutResult:
    """Exact minimum multiedge cut with deterministic witness."""
    return _cut_search(g, s, z, None, budget, multiedge=True)
