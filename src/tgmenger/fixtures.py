"""Small named instances used in docs, demos, and tests.

Each fixture bundles a temporal graph with its distinguished terminals.
``get_fixture`` also resolves the five minimal non-Mengerian catalog
shapes (by code or by nickname) to their stored bad labelings, so the
command line can run on any of them by name.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import TemporalGraph
from .errors import MalformedInput
from .mengerian import catalog, catalog_entry


@dataclass(frozen=True)
class Fixture:
    name: str
    graph: TemporalGraph
    s: object
    z: object
    note: str


def demo_network() -> Fixture:
    """Five vertices, ten edges; the walkthrough instance.

    Both the maximum snapshot-disjoint family and the minimum snapshot cut
    have size 2, while three pairwise edge-disjoint s,z-paths exist.
    """
    g = TemporalGraph(
        [
            ("sw1", "s", "w", 1),
            ("wv1", "w", "v", 1),
            ("su2", "s", "u", 2),
            ("wz2", "w", "z", 2),
            ("vz2", "v", "z", 2),
            ("sw3", "s", "w", 3),
            ("wu3", "w", "u", 3),
            ("vz3", "v", "z", 3),
            ("uz3", "u", "z", 3),
            ("uz4", "u", "z", 4),
        ]
    )
    return Fixture("demo", g, "s", "z", demo_network.__doc__.strip().splitlines()[0])


def tight_gap_network() -> Fixture:
    """Four vertices on a doubled path; one disjoint path but cut size 2.

    The smallest instance where the packing/covering gap opens: every two
    of its four s,z-paths share a label, yet no single label hits all
    four.
    """
    g = TemporalGraph(
        [
            ("sa1", "s", "a", 1),
            ("sa2", "s", "a", 2),
            ("ab1", "a", "b", 1),
            ("ab3", "a", "b", 3),
            ("bz2", "b", "z", 2),
            ("bz3", "b", "z", 3),
        ]
    )
    return Fixture(
        "tight-gap", g, "s", "z", tight_gap_network.__doc__.strip().splitlines()[0]
    )


def two_route_network() -> Fixture:
    """Four vertices, five edges, exactly one snapshot-disjoint 2-family."""
    g = TemporalGraph(
        [
            ("sa1", "s", "a", 1),
            ("sb2", "s", "b", 2),
            ("az2", "a", "z", 2),
            ("az3", "a", "z", 3),
            ("bz4", "b", "z", 4),
        ]
    )
    return Fixture(
        "two-route", g, "s", "z", two_route_network.__doc__.strip().splitlines()[0]
    )


_BUILDERS = {
    "demo": demo_network,
    "tight-gap": tight_gap_network,
    "two-route": two_route_network,
}


def _catalog_names() -> list:
    """The catalog shapes' codes (lower case) and nicknames."""
    return [name for e in catalog() for name in (e.code.lower(), e.name)]


def fixture_names() -> list:
    return sorted(_BUILDERS) + sorted(_catalog_names())


def get_fixture(name: str) -> Fixture:
    key = name.lower()
    if key in _BUILDERS:
        return _BUILDERS[key]()
    if key in _catalog_names():
        entry = catalog_entry(key)
        return Fixture(
            key,
            entry.labeling,
            entry.s,
            entry.z,
            f"{entry.code} ({entry.name}) with its stored bad timefunction",
        )
    raise MalformedInput(
        f"unknown fixture {name!r}; available: {', '.join(fixture_names())}"
    )
