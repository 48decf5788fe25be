"""The view a graph keeps of the last terminal pair it was asked about.

Questions on one pair share the view's sweeps, candidates and product
moves; none of it may change an answer, a witness or a work count, and a
graph keeps one pair's view at most, outside its copies and pickles.
"""

import ast
import copy
import inspect
import pickle
import random
from functools import partial
from pathlib import Path

import pytest

from conftest import random_temporal_graph, terminals
from tgmenger import core, cuts
from tgmenger.core import TemporalGraph, reachable
from tgmenger.disjoint_paths import max_snapshot_disjoint
from tgmenger.errors import BudgetExceeded
from tgmenger.injective_flow import injective_connectivity, max_edge_disjoint_paths

BUDGETS = (0, 1, 2, 3, 5, 8, 13, 21)


# The questions that take no budget.
UNBUDGETED = ("edp", "inj", "reach", "is-cut", "is-mcut")


def questions(g, rng) -> list:
    """The four cut searches, packing at k = 1-3, ``edp``, (on an injective
    graph) ``inj``, ``reachable`` and both cut predicates on seeded item
    sets, on up to four terminal pairs, interleaved: (name, function of a
    graph and an optional budget)."""
    pairs = terminals(g)
    labels = sorted(g.labels)
    multiedges = sorted(g.multiedges())
    out = []
    for s, z in rng.sample(pairs, min(4, len(pairs))):
        for h in range(4):
            out.append((f"cut {s},{z} h={h}", partial(cuts.snapshot_cut_at_most, s=s, z=z, h=h)))
            out.append((f"mcut {s},{z} h={h}", partial(cuts.multiedge_cut_at_most, s=s, z=z, h=h)))
        out.append((f"mincut {s},{z}", partial(cuts.min_snapshot_cut, s=s, z=z)))
        out.append((f"minmcut {s},{z}", partial(cuts.min_multiedge_cut, s=s, z=z)))
        for k in (1, 2, 3):
            out.append((f"paths {s},{z} k={k}", partial(max_snapshot_disjoint, s=s, z=z, k=k)))
        out.append((f"edp {s},{z}", partial(max_edge_disjoint_paths, s=s, z=z)))
        if len(g.labels) == len(g.edges):
            out.append((f"inj {s},{z}", partial(injective_connectivity, s=s, z=z)))
        out.append((f"reach {s},{z}", partial(reachable, s=s, z=z)))
        cut = rng.sample(labels, rng.randint(0, len(labels)))
        out.append((f"is-cut {s},{z} {cut}", partial(cuts.is_snapshot_cut, s=s, z=z, labels=cut)))
        mcut = rng.sample(multiedges, rng.randint(0, len(multiedges)))
        out.append(
            (f"is-mcut {s},{z} {mcut}", partial(cuts.is_multiedge_cut, s=s, z=z, pairs=mcut))
        )
    rng.shuffle(out)
    return out


def fresh(g: TemporalGraph) -> TemporalGraph:
    return TemporalGraph(g.edges, vertices=g.vertices)


def outcome(ask, g, budget=None):
    if budget is None:
        return ask(g)
    try:
        return ask(g, budget=budget)
    except BudgetExceeded:
        return "BudgetExceeded"


@pytest.mark.parametrize("seed", range(40))
def test_warm_and_cold_answers_agree(seed):
    rng = random.Random(seed)
    g = random_temporal_graph(rng)
    for name, ask in questions(g, rng):
        assert outcome(ask, g) == outcome(ask, fresh(g)), name
        if name.startswith(UNBUDGETED):
            continue
        for budget in BUDGETS:
            assert outcome(ask, g, budget) == outcome(ask, fresh(g), budget), (name, budget)


def test_a_graph_keeps_one_pair():
    g = random_temporal_graph(random.Random(7))
    pairs = terminals(g)
    for s, z in pairs:
        cuts.min_snapshot_cut(g, s, z)
        max_snapshot_disjoint(g, s, z, 2)
        views = [v for v in vars(g).values() if isinstance(v, core._PairView)]
        assert len(views) == 1 and (views[0].s, views[0].z) == (s, z)


def test_copies_and_pickles_leave_the_view_out():
    g = random_temporal_graph(random.Random(11))
    untouched = copy.deepcopy(g)
    s, z = terminals(g)[0]
    cuts.min_multiedge_cut(g, s, z)
    max_snapshot_disjoint(g, s, z, 2)
    max_edge_disjoint_paths(g, s, z)
    assert g._view is not None
    assert pickle.dumps(g) == pickle.dumps(untouched)
    clone = copy.deepcopy(g)
    assert clone._view is None and clone._sorted is None
    assert pickle.loads(pickle.dumps(g))._view is None


def test_packing_builds_no_sweep(monkeypatch, two_route):
    sweeps = []
    sweep = core._sweep

    def counting(*args, **kwargs):
        sweeps.append(args[2])
        return sweep(*args, **kwargs)

    monkeypatch.setattr(core, "_sweep", counting)
    g, s, z = two_route.graph, two_route.s, two_route.z
    for k in (1, 2, 3):
        max_snapshot_disjoint(g, s, z, k)
    assert sweeps == []
    # A cut then sweeps forward and backward once each, and asking again
    # adds only the search's own masked sweeps.
    cuts.min_snapshot_cut(g, s, z)
    first = list(sweeps)
    assert first[:2] == [True, False]
    cuts.min_snapshot_cut(g, s, z)
    assert len(sweeps) == 2 * len(first) - 2


# The masked walk the cut predicates used before they read the view, spelt
# in two parts so that a text search for its name finds no use of it.
GONE = "_walk" "_avoiding"


def test_one_masked_sweep():
    # Only core runs the graph's sweep, and only in full: a masked question
    # is cuts._escape over the view's table.  (oracles defines a _sweep of
    # its own, so outside core only imports and attribute reads count.)
    found = []
    for path in sorted(Path(core.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Name, ast.Attribute, ast.alias, ast.FunctionDef)):
                name = getattr(node, "id", None) or getattr(node, "attr", None) or node.name
                outside = path.stem != "core" and not isinstance(node, (ast.Name, ast.FunctionDef))
                if name == GONE or (name == "_sweep" and outside):
                    found.append((path.stem, name, node.lineno))
    assert found == []
    assert list(inspect.signature(core._sweep).parameters) == ["g", "root", "forward"]
