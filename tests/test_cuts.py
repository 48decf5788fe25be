"""Snapshot and multiedge cut search, both engines."""

import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_temporal_graph, terminals
from tgmenger import cuts
from tgmenger.core import TemporalGraph, reachable
from tgmenger.errors import BudgetExceeded
from tgmenger.gadgets import vc_gadget
from tgmenger.oracles import brute_force_c, brute_force_multiedge_cut


class TestPredicatesAndCandidates:
    def test_is_snapshot_cut(self, demo):
        g, s, z = demo.graph, demo.s, demo.z
        assert cuts.is_snapshot_cut(g, s, z, {2, 3})
        assert not cuts.is_snapshot_cut(g, s, z, {2})
        assert not cuts.is_snapshot_cut(g, s, z, set())

    def test_is_multiedge_cut(self, demo):
        g, s, z = demo.graph, demo.s, demo.z
        assert cuts.is_multiedge_cut(g, s, z, {("s", "u"), ("s", "w")})
        assert cuts.is_multiedge_cut(g, s, z, {("u", "s"), ("w", "s")})  # unordered
        assert not cuts.is_multiedge_cut(g, s, z, {("s", "u")})

    def test_candidate_labels_only_useful_ones(self, demo):
        g, s, z = demo.graph, demo.s, demo.z
        cands = cuts.candidate_labels(g, s, z)
        assert set(cands) <= g.labels
        # removing all candidates at once must disconnect
        assert cuts.is_snapshot_cut(g, s, z, cands)

    def test_candidate_labels_drop_unusable_times(self):
        # the b-c edge fires before a can reach b, so label 1 is useless
        g = TemporalGraph([(0, "a", "b", 2), (1, "b", "c", 1), (2, "b", "c", 3)])
        assert cuts.candidate_labels(g, "a", "c") == (2, 3)

    def test_candidate_multiedges(self, demo):
        cands = cuts.candidate_multiedges(demo.graph, demo.s, demo.z)
        assert all(pair == tuple(sorted(pair)) for pair in cands)
        assert cuts.is_multiedge_cut(demo.graph, demo.s, demo.z, cands)


class TestSnapshotCut:
    def test_demo_witness(self, demo):
        res = cuts.snapshot_cut_at_most(demo.graph, demo.s, demo.z, 2)
        assert res.found and res.labels == frozenset({2, 3})
        assert cuts.is_snapshot_cut(demo.graph, demo.s, demo.z, res.labels)
        assert not cuts.snapshot_cut_at_most(demo.graph, demo.s, demo.z, 1).found

    def test_tight_gap_witness(self, tight_gap):
        res = cuts.min_snapshot_cut(tight_gap.graph, tight_gap.s, tight_gap.z)
        assert (res.value, res.labels) == (2, frozenset({1, 2}))

    def test_two_route_witness(self, two_route):
        res = cuts.min_snapshot_cut(two_route.graph, two_route.s, two_route.z)
        assert (res.value, res.labels) == (2, frozenset({1, 2}))

    def test_found_implies_minimum_size(self, demo):
        res = cuts.snapshot_cut_at_most(demo.graph, demo.s, demo.z, 4)
        assert res.found and len(res.labels) == 2  # smallest witness, not just <= h

    def test_unreachable_means_empty_cut(self):
        g = TemporalGraph([(0, "a", "b", 2), (1, "b", "c", 1)])
        res = cuts.snapshot_cut_at_most(g, "a", "c", 0)
        assert res.found and res.labels == frozenset()
        assert cuts.min_snapshot_cut(g, "a", "c").value == 0

    def test_accounting_fields(self, demo):
        res = cuts.snapshot_cut_at_most(demo.graph, demo.s, demo.z, 2)
        assert res.engine in ("enumeration", "hitting")
        assert 0 < res.subsets_checked <= res.subset_bound
        assert res.subset_bound == cuts._subset_bound(len(res.candidates), 2)

    def test_subset_bound_is_cumulative(self):
        # sum of C(5, i) for i <= 2
        assert cuts._subset_bound(5, 2) == 1 + 5 + 10
        assert cuts._subset_bound(3, 7) == 8
        assert cuts._subset_bound(0, 2) == 1


    def test_long_path_does_not_recurse(self):
        g = TemporalGraph([(i, i, i + 1, i + 1) for i in range(1200)])
        res = cuts.min_snapshot_cut(g, 0, 1200)
        assert res.value == 1
        assert res.labels == frozenset({1})


class TestMultiedgeCut:
    def test_demo(self, demo):
        res = cuts.min_multiedge_cut(demo.graph, demo.s, demo.z)
        assert res.value == 2
        assert res.multiedges == frozenset({("s", "u"), ("s", "w")})
        at = cuts.multiedge_cut_at_most(demo.graph, demo.s, demo.z, 2)
        assert at.found and at.multiedges == res.multiedges
        assert not cuts.multiedge_cut_at_most(demo.graph, demo.s, demo.z, 1).found

    def test_witness_cuts(self, two_route):
        res = cuts.min_multiedge_cut(two_route.graph, two_route.s, two_route.z)
        assert cuts.is_multiedge_cut(two_route.graph, two_route.s, two_route.z, res.multiedges)


class TestEngines:
    def test_hitting_set_engine_agrees(self, monkeypatch, demo, tight_gap, two_route):
        fixtures = [demo, tight_gap, two_route]
        defaults = [
            cuts.min_snapshot_cut(fx.graph, fx.s, fx.z) for fx in fixtures
        ]
        monkeypatch.setattr(cuts, "ENUMERATION_THRESHOLD", 0)
        for fx, base in zip(fixtures, defaults):
            forced = cuts.min_snapshot_cut(fx.graph, fx.s, fx.z)
            assert forced.engine == "hitting" != base.engine
            assert (forced.value, forced.labels) == (base.value, base.labels)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_engines_agree_on_randoms(self, seed):
        g = random_temporal_graph(random.Random(seed))
        pairs = terminals(g)[:6]
        for s, z in pairs:
            base = cuts.min_snapshot_cut(g, s, z)
            try:
                forced_threshold = cuts.ENUMERATION_THRESHOLD
                cuts.ENUMERATION_THRESHOLD = 0
                forced = cuts.min_snapshot_cut(g, s, z)
            finally:
                cuts.ENUMERATION_THRESHOLD = forced_threshold
            assert (forced.value, forced.labels) == (base.value, base.labels)

    def test_budget_exhaustion(self, monkeypatch, demo):
        monkeypatch.setattr(cuts, "ENUMERATION_THRESHOLD", 0)
        monkeypatch.setattr(cuts, "PATH_LIMIT", 0)
        with pytest.raises(BudgetExceeded):
            cuts.snapshot_cut_at_most(demo.graph, demo.s, demo.z, 2, budget=0)

    def test_budget_caps_both_engines(self):
        inst = vc_gadget(range(5), list(itertools.combinations(range(5), 2)))
        g, s, z = inst.graph, inst.s, inst.z
        # 27,776 subsets fit the enumeration threshold but not the budget,
        # so the hitting engine answers instead: listing K5's 30 paths and
        # the search both fit in the budget.
        res = cuts.multiedge_cut_at_most(g, s, z, 3, budget=100)
        assert not res.found
        assert res.engine == "hitting" and res.subsets_checked <= 100 - 30
        # The hitting engine needs 15,604 search nodes for h=8.
        assert cuts.multiedge_cut_at_most(g, s, z, 8).subsets_checked > 10_000
        with pytest.raises(BudgetExceeded):
            cuts.multiedge_cut_at_most(g, s, z, 8, budget=10_000)

    def test_path_listing_is_charged_to_the_budget(self):
        # s, four layers of 7 vertices, z; each layer pair is joined at two
        # labels, so far more than PATH_LIMIT paths run through 10 labels.
        layers = [["s"]] + [[f"{i}.{j}" for j in range(7)] for i in range(4)] + [["z"]]
        edges = []
        for i, (a, b) in enumerate(zip(layers, layers[1:])):
            for u, v, t in itertools.product(a, b, (2 * i + 1, 2 * i + 2)):
                edges.append((len(edges), u, v, t))
        g = TemporalGraph(edges)
        started = time.perf_counter()
        with pytest.raises(BudgetExceeded):
            cuts.snapshot_cut_at_most(g, "s", "z", 1, budget=1)
        assert time.perf_counter() - started < 0.5

    def test_large_cut_does_not_recurse(self):
        # 1,100 parallel two-hop routes, route i at label i+1: every label
        # must go, and the search goes 1,100 choices deep.
        edges = []
        for i in range(1100):
            edges += [(2 * i, "s", f"v{i}", i + 1), (2 * i + 1, f"v{i}", "z", i + 1)]
        res = cuts.min_snapshot_cut(TemporalGraph(edges), "s", "z")
        assert res.engine == "hitting"
        assert res.value == 1100
        assert res.labels == frozenset(range(1, 1101))


class TestHittingEngine:
    @staticmethod
    def brute_force(n, masks, sizes):
        for size in sizes:
            for combo in itertools.combinations(range(n), size):
                chosen = sum(1 << i for i in combo)
                if all(m & chosen for m in masks):
                    return frozenset(combo)
        return None

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_witness_is_lex_least_minimum(self, data):
        n = data.draw(st.integers(1, 12))
        raw = data.draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=10))
        masks = cuts._path_masks(
            ([i for i in range(n) if m >> i & 1] for m in raw), tuple(range(n))
        )
        sizes = range(data.draw(st.integers(0, n)) + 1)
        witness, _ = cuts._hitting_engine(tuple(range(n)), sizes, masks, 10**9)
        assert witness == self.brute_force(n, masks, sizes)

    def test_pruned_node_count(self):
        # Unpruned, this search visited 694,898 nodes.
        inst = vc_gadget(range(5), list(itertools.combinations(range(5), 2)))
        res = cuts.multiedge_cut_at_most(inst.graph, inst.s, inst.z, 8)
        assert not res.found and res.engine == "hitting"
        assert res.subsets_checked <= 30_000


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_min_cut_matches_oracle(seed):
    g = random_temporal_graph(random.Random(seed))
    rng = random.Random(seed + 1)
    pairs = terminals(g)
    for s, z in rng.sample(pairs, min(4, len(pairs))):
        res = cuts.min_snapshot_cut(g, s, z)
        assert res.value == brute_force_c(g, s, z).value
        if res.value:
            assert cuts.is_snapshot_cut(g, s, z, res.labels)
            assert len(res.labels) == res.value
        else:
            assert reachable(g, s, z) is None or s == z


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_min_multiedge_cut_matches_oracle(seed):
    g = random_temporal_graph(random.Random(seed))
    rng = random.Random(seed + 2)
    pairs = terminals(g)
    for s, z in rng.sample(pairs, min(3, len(pairs))):
        res = cuts.min_multiedge_cut(g, s, z)
        assert res.value == brute_force_multiedge_cut(g, s, z).value
        if res.value:
            assert cuts.is_multiedge_cut(g, s, z, res.multiedges)
