"""Snapshot and multiedge cut search."""

import hashlib
import itertools
import math
import random
import time
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_temporal_graph, terminals
from tgmenger import cuts
from tgmenger.core import TemporalGraph, _walk_avoiding, link_key, reachable
from tgmenger.disjoint_paths import max_snapshot_disjoint
from tgmenger.errors import BudgetExceeded, MalformedInput, MissingMultiedge
from tgmenger.gadgets import clique_gadget, vc_gadget
from tgmenger.injective_flow import injective_connectivity
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


class TestMaskedCheck:
    """The cut checks sweep the graph with the removed edges masked; they
    must answer as :func:`reachable` on the graph rebuilt without them."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_label_mask_matches_rebuilt_graph(self, seed):
        g = random_temporal_graph(random.Random(seed))
        rng = random.Random(seed + 3)
        for s, z in terminals(g):
            # labels 6 and 7 lie beyond max_label, so are never in the graph
            labels = set(rng.sample(range(1, 8), rng.randint(0, 7)))
            rebuilt = reachable(g.without_labels(labels), s, z)
            assert cuts.is_snapshot_cut(g, s, z, labels) == (rebuilt is None)
            removed = {e for e in g.edges if e.t in labels}
            assert _walk_avoiding(g, s, z, removed) == rebuilt

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_multiedge_mask_matches_rebuilt_graph(self, seed):
        g = random_temporal_graph(random.Random(seed))
        rng = random.Random(seed + 4)
        multiedges = sorted(g.multiedges())
        for s, z in terminals(g):
            pairs = rng.sample(multiedges, rng.randint(0, len(multiedges)))
            # either orientation names the same multiedge
            pairs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]
            rebuilt = reachable(g.without_multiedges(pairs), s, z)
            assert cuts.is_multiedge_cut(g, s, z, pairs) == (rebuilt is None)
            dropped = {link_key(u, v) for u, v in pairs}
            removed = {e for e in g.edges if e.pair in dropped}
            assert _walk_avoiding(g, s, z, removed) == rebuilt

    def test_labels_outside_the_graph_remove_nothing(self, demo):
        g, s, z = demo.graph, demo.s, demo.z
        assert not cuts.is_snapshot_cut(g, s, z, {99, 100})
        assert cuts.is_snapshot_cut(g, s, z, {2, 3, 99})

    def test_missing_multiedge_is_rejected(self, demo):
        g, s, z = demo.graph, demo.s, demo.z
        with pytest.raises(MissingMultiedge):
            cuts.is_multiedge_cut(g, s, z, [("s", "z")])
        with pytest.raises(MissingMultiedge):
            cuts.is_multiedge_cut(g, s, z, [("s", "u"), ("z", "s")])

    def test_no_cut_check_builds_a_graph(self, monkeypatch):
        triangle = [(0, 1), (1, 2), (0, 2)]
        clique = clique_gadget([0, 1, 2], triangle, {0: "a", 1: "b", 2: "c"})
        cover = vc_gadget([0, 1, 2], triangle)
        injective = TemporalGraph(
            [
                ("sa", "s", "a", 1),
                ("sb", "s", "b", 2),
                ("az", "a", "z", 3),
                ("bz", "b", "z", 4),
                ("ab", "a", "b", 6),
            ]
        )
        builds = []
        build = TemporalGraph.__init__

        def counting(self, *args, **kwargs):
            builds.append(1)
            build(self, *args, **kwargs)

        monkeypatch.setattr(TemporalGraph, "__init__", counting)
        h = clique.manifest["cut_threshold"]
        assert cuts.snapshot_cut_at_most(clique.graph, clique.s, clique.z, h).found
        assert cuts.min_snapshot_cut(clique.graph, clique.s, clique.z).value == 3
        assert not cuts.multiedge_cut_at_most(cover.graph, cover.s, cover.z, 3).found
        assert cuts.min_multiedge_cut(cover.graph, cover.s, cover.z).value == 5
        assert injective_connectivity(injective, "s", "z").value == 2
        assert builds == []


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
        assert res.engine == "hitting"
        assert 0 < res.subsets_checked <= res.subset_bound
        assert res.subset_bound == cuts._subset_bound(len(res.candidates), 2)

    def test_subset_bound_is_cumulative(self):
        # sum of C(5, i) for i <= 2
        assert cuts._subset_bound(5, 2) == 1 + 5 + 10
        assert cuts._subset_bound(3, 7) == 8
        assert cuts._subset_bound(0, 2) == 1
        for n, h in ((55, 12), (40, 7), (2000, 1000), (301, 300), (9, 9)):
            assert cuts._subset_bound(n, h) == sum(math.comb(n, i) for i in range(h + 1))

    @pytest.mark.parametrize(
        "solve, name",
        [
            (partial(cuts.snapshot_cut_at_most, h=1.5), "cut size bound"),
            (partial(cuts.snapshot_cut_at_most, h="2"), "cut size bound"),
            (partial(cuts.multiedge_cut_at_most, h=True), "cut size bound"),
            (partial(cuts.multiedge_cut_at_most, h=None), "cut size bound"),
            (partial(cuts.snapshot_cut_at_most, h=2, budget=1.5), "budget"),
            (partial(cuts.min_snapshot_cut, budget=None), "budget"),
            (partial(cuts.min_multiedge_cut, budget=True), "budget"),
        ],
    )
    def test_bounds_must_be_integers(self, demo, solve, name):
        with pytest.raises(MalformedInput, match=f"^{name} must be an integer"):
            solve(demo.graph, demo.s, demo.z)

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
    def test_hitting_set_engine_agrees(self, demo, tight_gap, two_route):
        for fx in (demo, tight_gap, two_route):
            g, s, z = fx.graph, fx.s, fx.z
            res = cuts.min_snapshot_cut(g, s, z)
            oracle = brute_force_c(g, s, z)
            assert res.engine == "hitting"
            assert (res.value, res.labels) == (oracle.value, oracle.witness)
            mres = cuts.min_multiedge_cut(g, s, z)
            oracle = brute_force_multiedge_cut(g, s, z)
            assert mres.engine == "hitting"
            assert (mres.value, mres.multiedges) == (oracle.value, oracle.witness)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_engines_agree_on_randoms(self, seed):
        g = random_temporal_graph(random.Random(seed))
        for s, z in terminals(g)[:6]:
            for search, oracle, field in (
                (cuts.snapshot_cut_at_most, brute_force_c, "labels"),
                (cuts.multiedge_cut_at_most, brute_force_multiedge_cut, "multiedges"),
            ):
                truth = oracle(g, s, z)
                for h in range(4):
                    res = search(g, s, z, h)
                    if truth.value <= h:
                        assert (res.value, getattr(res, field)) == (truth.value, truth.witness)
                    else:
                        assert (res.found, res.value, getattr(res, field)) == (False, None, None)

    def test_budget_exhaustion(self, demo):
        with pytest.raises(BudgetExceeded):
            cuts.snapshot_cut_at_most(demo.graph, demo.s, demo.z, 2, budget=0)

    def test_budget_caps_both_engines(self):
        # The budget caps both phases: the seed's reachability checks and
        # the search nodes.
        inst = vc_gadget(range(5), list(itertools.combinations(range(5), 2)))
        g, s, z = inst.graph, inst.s, inst.z
        # For h=3 the seed finds four multiedge-disjoint paths after three
        # checks beyond the first, so the answer is no before any search.
        res = cuts.multiedge_cut_at_most(g, s, z, 3, budget=3)
        assert not res.found
        assert res.engine == "hitting" and res.subsets_checked == 0
        with pytest.raises(BudgetExceeded):
            cuts.multiedge_cut_at_most(g, s, z, 3, budget=2)
        # For h=8 the search reaches 550 distinct subsets and spends 620
        # units on node visits and checks.
        res = cuts.multiedge_cut_at_most(g, s, z, 8, budget=620)
        assert not res.found and res.subsets_checked == 550
        with pytest.raises(BudgetExceeded):
            cuts.multiedge_cut_at_most(g, s, z, 8, budget=619)

    def test_path_listing_is_charged_to_the_budget(self):
        # s, four layers of 7 vertices, z; each layer pair is joined at two
        # labels, so more than 200,000 paths run through 10 labels.  The
        # search learns the few it needs from reachability checks.
        layers = [["s"]] + [[f"{i}.{j}" for j in range(7)] for i in range(4)] + [["z"]]
        edges = []
        for i, (a, b) in enumerate(zip(layers, layers[1:])):
            for u, v, t in itertools.product(a, b, (2 * i + 1, 2 * i + 2)):
                edges.append((len(edges), u, v, t))
        g = TemporalGraph(edges)
        started = time.perf_counter()
        res = cuts.min_snapshot_cut(g, "s", "z")
        assert time.perf_counter() - started < 0.5
        assert cuts.is_snapshot_cut(g, "s", "z", res.labels)
        assert len(res.labels) == res.value
        assert not cuts.snapshot_cut_at_most(g, "s", "z", res.value - 1).found
        # Two disjoint paths answer h=1 with one check beyond the first;
        # the minimum needs more.
        assert not cuts.snapshot_cut_at_most(g, "s", "z", 1, budget=1).found
        with pytest.raises(BudgetExceeded):
            cuts.min_snapshot_cut(g, "s", "z", budget=1)

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

    def test_deep_search_does_not_recurse(self):
        # 1,100 routes s-v_i-z at labels 2i+1 and 2i+2: each path mask has
        # two bits, so both phases of the search go 1,100 picks deep.
        edges = []
        for i in range(1100):
            edges += [(2 * i, "s", f"v{i}", 2 * i + 1), (2 * i + 1, f"v{i}", "z", 2 * i + 2)]
        res = cuts.min_snapshot_cut(TemporalGraph(edges), "s", "z")
        assert res.value == 1100
        assert res.labels == frozenset(range(1, 2200, 2))


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
        # A hidden mask family stands in for the paths: the callback
        # reveals one mask the picked bits miss, chosen by a drawn order.
        n = data.draw(st.integers(1, 12))
        hidden = data.draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=10))
        order = data.draw(st.permutations(hidden))
        most = data.draw(st.integers(0, n))

        def escape(picked):
            return next((m for m in order if not m & picked), None)

        bits, _ = cuts._hitting_search(n, most, escape(0), escape, 10**9)
        witness = None if bits is None else frozenset(i for i in range(n) if bits >> i & 1)
        assert witness == self.brute_force(n, hidden, range(most + 1))

    @staticmethod
    def revealing(order):
        """The callback for a hidden mask family: the first mask in *order*
        that the picked bits miss."""
        return lambda picked: next((m for m in order if not m & picked), None)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_witness_search_stops_at_the_confirmed_cut(self, data):
        # The cut the decision confirmed bounds the witness search: every
        # subset a question reaches holds the prefix plus an index below
        # the confirmed cut's next one, so none is lex-greater than that
        # cut, nor the cut itself.
        n = data.draw(st.integers(1, 10))
        hidden = data.draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=8))
        escape = self.revealing(data.draw(st.permutations(hidden)))
        search = cuts._HittingSearch([escape(0)], escape, 10**9)
        cut = next(c for c in map(search.decide, range(n + 1)) if c is not None)
        visited = []
        search.visit = visited.append

        def indices(bits):
            return [i for i in range(n) if bits >> i & 1]

        witness = search.least(n, cut)
        for prefix in visited:
            assert prefix != cut
            assert indices(prefix) <= indices(cut)[: len(indices(prefix))]
        size = cut.bit_count()
        assert frozenset(indices(witness)) == self.brute_force(n, hidden, [size])

    def test_distinct_subsets_within_bound(self):
        # Counting every node visit overran the bound on about 1 in 200 of
        # these families.
        rng = random.Random(9)
        for _ in range(4000):
            n = rng.randint(3, 5)
            order = [rng.randint(1, (1 << n) - 1) for _ in range(rng.randint(1, 12))]
            most = rng.randint(0, n)
            escape = self.revealing(order)
            _, reached = cuts._hitting_search(n, most, escape(0), escape, 10**9)
            assert reached <= cuts._subset_bound(n, most), (n, order, most)

    def test_bound_holds_where_counting_every_visit_overran(self):
        # The masks [4, 7, 5, 1, 1, 7, 3, 2, 4] revealed in this order:
        # counting every node visit reached 8 against a bound of 7.  No
        # two candidates hit the singletons 1, 2 and 4.
        escape = self.revealing([7, 3, 1, 4, 5, 2, 1, 4, 7])
        bits, reached = cuts._hitting_search(3, 2, escape(0), escape, 10**9)
        assert bits is None
        assert reached <= cuts._subset_bound(3, 2) == 7

    def test_pruned_node_count(self):
        # Unpruned, this search visited 694,898 nodes.
        inst = vc_gadget(range(5), list(itertools.combinations(range(5), 2)))
        res = cuts.multiedge_cut_at_most(inst.graph, inst.s, inst.z, 8)
        assert not res.found and res.engine == "hitting"
        assert res.subsets_checked <= 30_000

    @staticmethod
    def clique_cover_witness(k):
        """The witness the lexicographic witness search returned on the
        K_k vertex-cover gadget at h = n + tau = 2k - 1."""
        return frozenset(
            {("0+1", "0.1"), ("0.2", "0.3"), ("1.2", "1.3")}
            | {(f"{v}.1", f"{v}.2") for v in range(2, k)}
            | {(f"{v}.4", "z") for v in range(2, k)}
        )

    @pytest.mark.parametrize("k, most, budget", [(6, 5_000, 10**7), (7, 10_000, 100_000)])
    def test_witness_phase_work(self, k, most, budget):
        # The witness takes at most one decision per candidate.  The
        # lexicographic search it replaced reached 197,214 subsets on K6,
        # and on K7 it reached 3,344,247, past this budget.
        inst = vc_gadget(range(k), list(itertools.combinations(range(k), 2)))
        res = cuts.multiedge_cut_at_most(inst.graph, inst.s, inst.z, 2 * k - 1, budget=budget)
        assert res.multiedges == self.clique_cover_witness(k)
        assert res.subsets_checked <= most


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_min_cut_matches_oracle(seed):
    g = random_temporal_graph(random.Random(seed))
    rng = random.Random(seed + 1)
    pairs = terminals(g)
    for s, z in rng.sample(pairs, min(4, len(pairs))):
        res = cuts.min_snapshot_cut(g, s, z)
        oracle = brute_force_c(g, s, z)
        assert (res.found, res.value, res.labels) == (True, oracle.value, oracle.witness)
        at = cuts.snapshot_cut_at_most(g, s, z, res.value)
        assert (at.found, at.value, at.labels) == (True, res.value, res.labels)
        if res.value:
            assert cuts.is_snapshot_cut(g, s, z, res.labels)
            assert len(res.labels) == res.value
            below = cuts.snapshot_cut_at_most(g, s, z, res.value - 1)
            assert (below.found, below.value, below.labels) == (False, None, None)
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
        oracle = brute_force_multiedge_cut(g, s, z)
        assert (res.found, res.value, res.multiedges) == (True, oracle.value, oracle.witness)
        at = cuts.multiedge_cut_at_most(g, s, z, res.value)
        assert (at.found, at.value, at.multiedges) == (True, res.value, res.multiedges)
        if res.value:
            assert cuts.is_multiedge_cut(g, s, z, res.multiedges)
            below = cuts.multiedge_cut_at_most(g, s, z, res.value - 1)
            assert (below.found, below.value, below.multiedges) == (False, None, None)


# sha256 of the four cut searches' answers over the corpus below, recorded
# from the subset-enumeration and path-listing engines this search replaced.
ANSWER_DIGEST = "5cd1a0c6bf5b6b8e84257a13c248fbf127264fb39af70a169ce50c655e1d96e0"
# The distinct subsets the searches below reached in all, recorded before
# the witness search stopped at the decision's cut.  It must not grow.
SUBSETS_CHECKED = 9078


def corpus_answers():
    """(found, value, witness, candidates, subset_bound) of every cut search
    at h = 0-3 and at the minimum, over 300 seeded random graphs (every
    fifth one larger) and up to 4 terminal pairs each, with the result."""
    for i in range(300):
        rng = random.Random(i)
        if i % 5 == 4:
            g = random_temporal_graph(rng, max_vertices=7, max_edges=12, max_label=6)
        else:
            g = random_temporal_graph(rng)
        pairs = terminals(g)
        for s, z in rng.sample(pairs, min(4, len(pairs))):
            for field, at_most, minimum in (
                ("labels", cuts.snapshot_cut_at_most, cuts.min_snapshot_cut),
                ("multiedges", cuts.multiedge_cut_at_most, cuts.min_multiedge_cut),
            ):
                for res in [at_most(g, s, z, h) for h in range(4)] + [minimum(g, s, z)]:
                    witness = getattr(res, field)
                    key = (
                        res.found,
                        res.value,
                        None if witness is None else sorted(witness),
                        res.candidates,
                        res.subset_bound,
                    )
                    yield key, res


def test_answers_match_recorded_digest():
    digest = hashlib.sha256()
    checked = 0
    for key, res in corpus_answers():
        digest.update(repr(key).encode())
        assert res.subsets_checked <= res.subset_bound
        checked += res.subsets_checked
    assert digest.hexdigest() == ANSWER_DIGEST
    assert checked <= SUBSETS_CHECKED


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 60))
def test_budget_answers_in_full_or_raises(seed, budget):
    g = random_temporal_graph(random.Random(seed))
    rng = random.Random(seed + 5)
    pairs = terminals(g)
    h = rng.randint(0, 3)
    for s, z in rng.sample(pairs, min(3, len(pairs))):
        for search in (
            lambda **kw: cuts.snapshot_cut_at_most(g, s, z, h, **kw),
            lambda **kw: cuts.multiedge_cut_at_most(g, s, z, h, **kw),
            lambda **kw: cuts.min_snapshot_cut(g, s, z, **kw),
            lambda **kw: cuts.min_multiedge_cut(g, s, z, **kw),
            *(partial(max_snapshot_disjoint, g, s, z, k) for k in (1, 2, 3)),
        ):
            unbudgeted = search()
            try:
                res = search(budget=budget)
            except BudgetExceeded:
                continue
            assert res == unbudgeted
