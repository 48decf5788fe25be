"""Exception hierarchy shared across the package.

Everything raised on purpose derives from :class:`TemporalGraphError`, so
callers (and the command-line front end) can distinguish "the input is bad"
from "the computation refused to run" without string matching.
"""

from __future__ import annotations

# Work units a search may spend when the caller names no budget: product
# tuples held, or cut search nodes and reachability checks.
DEFAULT_BUDGET = 10_000_000


class TemporalGraphError(Exception):
    """Base class for all errors raised by this package."""


class MalformedInput(TemporalGraphError):
    """The input data violates a structural requirement (bad file, bad
    graph, bad argument combination)."""


class UnknownVertex(MalformedInput):
    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"unknown vertex: {vertex!r}")


class UnknownEdge(MalformedInput):
    def __init__(self, edge_id):
        self.edge_id = edge_id
        super().__init__(f"unknown edge id: {edge_id!r}")


class MissingMultiedge(MalformedInput):
    def __init__(self, pair):
        self.pair = pair
        super().__init__(f"no multiedge with endpoints {pair!r}")


class NonIncident(MalformedInput):
    """A walk step uses an edge that does not touch the current vertex."""

    def __init__(self, index, vertex, edge_id):
        self.index = index
        self.vertex = vertex
        self.edge_id = edge_id
        super().__init__(
            f"step {index}: edge {edge_id!r} does not join vertex {vertex!r}"
        )


class DecreasingLabel(MalformedInput):
    """A walk uses time labels that go backwards."""

    def __init__(self, index, previous, current):
        self.index = index
        self.previous = previous
        self.current = current
        super().__init__(
            f"step {index}: label {current} is smaller than previous label {previous}"
        )


class NotInjective(MalformedInput):
    """An operation restricted to injective timefunctions received a graph
    with a repeated label."""

    def __init__(self, label):
        self.label = label
        super().__init__(f"timefunction is not injective: label {label} repeats")


class ImproperColoring(MalformedInput):
    """A colored source graph has an edge inside one color class."""

    def __init__(self, edge):
        self.edge = edge
        super().__init__(f"edge {edge!r} joins two vertices of the same color")


class BudgetExceeded(TemporalGraphError):
    """An exhaustive search spent more than its work budget.

    Every search stops as soon as the units it has spent exceed the
    budget: the product search counts one unit per tuple it reaches, the
    cut search one per search node and per reachability check after the
    first.  *spent* is the count at that moment, budget + 1."""

    def __init__(self, spent, budget, what="search"):
        self.spent = spent
        self.budget = budget
        self.what = what
        super().__init__(f"{what} spent more than its budget of {budget} units")


class LimitExceeded(TemporalGraphError):
    """An enumeration produced more items than the caller allowed."""

    def __init__(self, limit, what="items"):
        self.limit = limit
        self.what = what
        super().__init__(f"more than {limit} {what}")


class PatternTooLarge(TemporalGraphError):
    """The minor matcher only handles small patterns by design."""

    def __init__(self, message):
        super().__init__(message)


class CatalogViolation(TemporalGraphError):
    """A stored catalog entry failed one of its certifying checks."""

    def __init__(self, entry, message):
        self.entry = entry
        super().__init__(f"catalog entry {entry}: {message}")
