"""Flow-based routines: edge-disjoint packing and the injective shortcut."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_temporal_graph, terminals
from tgmenger import injective_flow
from tgmenger.core import TemporalGraph
from tgmenger.cuts import is_snapshot_cut
from tgmenger.errors import NotInjective
from tgmenger.injective_flow import (
    FlowResult,
    injective_connectivity,
    max_edge_disjoint_paths,
)
from tgmenger.oracles import (
    brute_force_c,
    brute_force_edge_disjoint,
    brute_force_p,
)


def relabel_injectively(g: TemporalGraph) -> TemporalGraph:
    """Spread labels out so each is used once, preserving their order."""
    fresh = {}
    edges = []
    for e in sorted(g.edges, key=lambda e: (e.t, str(e.eid))):
        fresh[e.eid] = len(fresh) + 1
        edges.append((e.eid, e.u, e.v, fresh[e.eid]))
    return TemporalGraph(edges, vertices=g.vertices)


def record_flow_networks(monkeypatch) -> list:
    """Wrap the module's ``nx.maximum_flow`` and collect every network it
    is handed."""
    seen = []
    solve = injective_flow.nx.maximum_flow

    def recording(net, *args, **kwargs):
        seen.append(net)
        return solve(net, *args, **kwargs)

    monkeypatch.setattr(injective_flow.nx, "maximum_flow", recording)
    return seen


class TestNetwork:
    def test_size_does_not_depend_on_the_lifetime(self, monkeypatch, demo):
        seen = record_flow_networks(monkeypatch)
        stretched = TemporalGraph(
            [(e.eid, e.u, e.v, 1000 * e.t) for e in demo.graph.edges]
        )
        short = max_edge_disjoint_paths(demo.graph, "s", "z")
        long = max_edge_disjoint_paths(stretched, "s", "z")
        assert short.value == long.value
        small, large = seen
        assert small.number_of_nodes() == large.number_of_nodes()
        assert small.number_of_nodes() <= 2 + 4 * len(demo.graph.edges)

    def test_one_flow_and_no_separate_cut(self, monkeypatch):
        seen = record_flow_networks(monkeypatch)

        def forbidden(*args, **kwargs):
            raise AssertionError("minimum_cut must not run")

        monkeypatch.setattr(injective_flow.nx, "minimum_cut", forbidden)
        g = TemporalGraph(
            [(0, "s", "a", 1), (1, "a", "z", 3), (2, "s", "b", 2), (3, "b", "z", 4)]
        )
        res = injective_connectivity(g, "s", "z")
        assert res.value == 2 and len(res.cut_labels) == 2
        assert len(seen) == 1

    def test_both_solvers_return_one_result_type(self, demo):
        packing = max_edge_disjoint_paths(demo.graph, "s", "z")
        assert isinstance(packing, FlowResult)
        assert packing.cut_labels is None
        g = TemporalGraph([(0, "s", "a", 1), (1, "a", "z", 2)])
        both = injective_connectivity(g, "s", "z")
        assert isinstance(both, FlowResult)
        assert both.cut_labels == frozenset({1})
        unreachable = max_edge_disjoint_paths(g, "z", "s")
        assert (unreachable.value, unreachable.cut_labels) == (0, None)


class TestEdgeDisjoint:
    def test_demo_value(self, demo):
        res = max_edge_disjoint_paths(demo.graph, "s", "z")
        assert res.value == 3
        used = [set(w.edge_ids) for w in res.family]
        assert len(used) == 3
        for i, a in enumerate(used):
            for b in used[i + 1 :]:
                assert a.isdisjoint(b)
        for w in res.family:
            assert w.first == "s" and w.last == "z" and w.is_path

    def test_deterministic(self, demo):
        runs = [max_edge_disjoint_paths(demo.graph, "s", "z") for _ in range(3)]
        seqs = [[w.sequence() for w in r.family] for r in runs]
        assert seqs[0] == seqs[1] == seqs[2]

    def test_unreachable(self):
        g = TemporalGraph([(0, "a", "b", 2), (1, "b", "c", 1)])
        res = max_edge_disjoint_paths(g, "a", "c")
        assert res.value == 0 and res.family == ()

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**6))
    def test_matches_oracle(self, seed):
        g = random_temporal_graph(random.Random(seed))
        rng = random.Random(seed + 1)
        pairs = terminals(g)
        for s, z in rng.sample(pairs, min(3, len(pairs))):
            res = max_edge_disjoint_paths(g, s, z)
            assert res.value == brute_force_edge_disjoint(g, s, z).value
            used = [set(w.edge_ids) for w in res.family]
            assert all(
                a.isdisjoint(b) for i, a in enumerate(used) for b in used[i + 1 :]
            )


class TestInjective:
    def test_rejects_repeated_labels(self, demo):
        with pytest.raises(NotInjective):
            injective_connectivity(demo.graph, "s", "z")

    def test_hand_instance(self):
        # two label-increasing routes plus a decoy edge that fires too late
        g = TemporalGraph(
            [
                (0, "s", "a", 1),
                (1, "a", "z", 3),
                (2, "s", "b", 2),
                (3, "b", "z", 4),
                (4, "a", "b", 6),
            ]
        )
        res = injective_connectivity(g, "s", "z")
        assert res.value == 2
        label_sets = [w.label_set for w in res.family]
        assert all(
            a.isdisjoint(b)
            for i, a in enumerate(label_sets)
            for b in label_sets[i + 1 :]
        )
        # the reported labels form a snapshot cut of matching size
        assert len(res.cut_labels) == 2
        assert is_snapshot_cut(g, "s", "z", res.cut_labels)

    def test_unreachable(self):
        g = TemporalGraph([(0, "a", "b", 2), (1, "b", "c", 1)])
        res = injective_connectivity(g, "a", "c")
        assert res.value == 0 and res.family == ()
        assert res.cut_labels == frozenset()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_duality_holds_exactly(self, seed):
        g = relabel_injectively(random_temporal_graph(random.Random(seed)))
        rng = random.Random(seed + 2)
        pairs = terminals(g)
        for s, z in rng.sample(pairs, min(3, len(pairs))):
            res = injective_connectivity(g, s, z)
            assert res.value == brute_force_p(g, s, z).value
            assert res.value == brute_force_c(g, s, z).value
            if res.value:
                assert is_snapshot_cut(g, s, z, res.cut_labels)
                assert len(res.cut_labels) == res.value
