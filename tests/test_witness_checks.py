"""The package's own witness checks: what they reject, and that they hold
under ``python -O``, which strips ``assert`` statements."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tgmenger
from tgmenger.core import (
    Edge,
    MGraph,
    MinorEmbedding,
    TemporalWalk,
    check_embedding,
    check_family,
    find_m_topological_minor,
    validate_walk,
)
from tgmenger.disjoint_paths import max_snapshot_disjoint

PACKAGE = Path(tgmenger.__file__).parent


def test_no_module_has_an_assert_statement():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [(path.stem, n.lineno) for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert found == []


# A family walk-back that returns something other than the chain's path:
# a walk along an edge the graph does not have, or s alone.
BAD_WALK_BACKS = {
    "edge-not-in-graph": "lambda parent, s, z: TemporalWalk((s, z), (Edge('x', s, z, 1),))",
    "no-edges": "lambda parent, s, z: TemporalWalk((s,), ())",
}

OPTIMIZED_RUN = """
import sys
from tgmenger import disjoint_paths
from tgmenger.core import Edge, TemporalWalk
from tgmenger.fixtures import demo_network

if not sys.flags.optimize:
    sys.exit("not run under -O")
disjoint_paths._walk_back = {bad}
demo = demo_network()
try:
    res = disjoint_paths.max_snapshot_disjoint(demo.graph, "s", "z", 2)
except AssertionError:
    sys.exit(0)
sys.exit("returned " + repr([w.pretty() for w in res.family]))
"""


@pytest.mark.parametrize("bad", BAD_WALK_BACKS.values(), ids=BAD_WALK_BACKS.keys())
def test_a_broken_family_is_caught_under_python_O(bad):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_RUN.format(bad=bad)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr


class TestCheckFamily:
    def walk(self, demo, *sequence):
        return validate_walk(demo.graph, sequence)

    def test_accepts_a_solver_family(self, demo):
        res = max_snapshot_disjoint(demo.graph, "s", "z", 2)
        check_family(demo.graph, "s", "z", res.family, lambda w: w.label_set)

    @pytest.mark.parametrize(
        "walk",
        [
            TemporalWalk(("s", "z"), (Edge("x", "s", "z", 1),)),
            TemporalWalk(("s", "w", "z"), (Edge("sw1", "s", "w", 5), Edge("wz2", "w", "z", 2))),
            TemporalWalk(("s", "u", "z"), (Edge("sw1", "s", "w", 1), Edge("wz2", "w", "z", 2))),
        ],
        ids=["unknown-edge", "edge-with-another-label", "edge-off-its-ends"],
    )
    def test_rejects_a_walk_not_in_the_graph(self, demo, walk):
        with pytest.raises(AssertionError, match="not in the graph"):
            check_family(demo.graph, "s", "z", [walk], lambda w: w.label_set)

    def test_rejects_wrong_endpoints(self, demo):
        for walk in (self.walk(demo, "s", "sw1", "w"), self.walk(demo, "s")):
            with pytest.raises(AssertionError, match="not an s,z-path"):
                check_family(demo.graph, "s", "z", [walk], lambda w: w.label_set)
        back = self.walk(demo, "z", "wz2", "w")
        with pytest.raises(AssertionError, match="not an s,z-path"):
            check_family(demo.graph, "w", "z", [back], lambda w: w.label_set)

    def test_rejects_a_repeated_vertex(self, demo):
        walk = self.walk(demo, "s", "sw1", "w", "wv1", "v", "wv1", "w", "wz2", "z")
        with pytest.raises(AssertionError, match="not an s,z-path"):
            check_family(demo.graph, "s", "z", [walk], lambda w: w.label_set)

    def test_rejects_overlapping_items(self, demo):
        # The two paths share label 2 but no edge.
        family = [
            self.walk(demo, "s", "sw1", "w", "wz2", "z"),
            self.walk(demo, "s", "su2", "u", "uz3", "z"),
        ]
        check_family(demo.graph, "s", "z", family, lambda w: w.edge_ids)
        with pytest.raises(AssertionError, match="overlaps"):
            check_family(demo.graph, "s", "z", family, lambda w: w.label_set)


class TestCheckEmbedding:
    # A triangle in a 4-cycle a-b-c-d with a hub e joined to a, b and c.
    HOST = MGraph(
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "e"), ("e", "b"), ("e", "c")]
    )
    TRIANGLE = MGraph([(0, 1), (1, 2), (0, 2)])
    IMAGES = {0: "a", 1: "b", 2: "c"}
    PATHS = {(0, 1): ("a", "b"), (1, 2): ("b", "c"), (0, 2): ("a", "d", "c")}

    def check(self, pattern=TRIANGLE, images=IMAGES, paths=()):
        emb = MinorEmbedding(dict(images), {**self.PATHS, **dict(paths)})
        check_embedding(self.HOST, pattern, emb)

    def test_accepts_an_embedding(self):
        self.check()
        check_embedding(self.HOST, self.TRIANGLE, find_m_topological_minor(self.HOST, self.TRIANGLE))

    def test_rejects_shared_branch_images(self):
        with pytest.raises(AssertionError, match="share a branch image"):
            self.check(images={0: "a", 1: "b", 2: "b"})

    def test_rejects_a_path_off_its_ends(self):
        with pytest.raises(AssertionError, match="does not join its ends"):
            self.check(paths={(0, 2): ("a", "d")})

    def test_rejects_a_link_below_the_multiplicity(self):
        doubled = MGraph([(0, 1, 2), (1, 2), (0, 2)])
        with pytest.raises(AssertionError, match="below multiplicity 2"):
            self.check(pattern=doubled)

    def test_rejects_a_path_through_a_branch_image(self):
        with pytest.raises(AssertionError, match="runs through a branch image"):
            self.check(paths={(0, 2): ("a", "b", "c")})

    def test_rejects_paths_that_meet_inside(self):
        with pytest.raises(AssertionError, match="meets another path"):
            self.check(paths={(0, 1): ("a", "e", "b"), (0, 2): ("a", "e", "c")})
