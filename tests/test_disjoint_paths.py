"""Snapshot-disjoint path packing through the product digraph."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_temporal_graph, terminals
from tgmenger.core import TemporalGraph, reachable
from tgmenger.disjoint_paths import (
    SINK,
    SOURCE,
    ProductDigraph,
    _extract_family,
    _search,
    build_product,
    max_snapshot_disjoint,
)
from tgmenger.errors import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    LimitExceeded,
    MalformedInput,
    UnknownVertex,
)
from tgmenger.gadgets import indep_set_gadget
from tgmenger.oracles import brute_force_p, enumerate_simple_graphs


def assert_valid_family(g, s, z, family, k):
    assert len(family) == k
    label_sets = []
    for walk in family:
        assert walk.first == s and walk.last == z and walk.is_path
        label_sets.append(walk.label_set)
    for i, a in enumerate(label_sets):
        for b in label_sets[i + 1 :]:
            assert a.isdisjoint(b)


class TestConstruction:
    def test_validation(self, demo):
        g = demo.graph
        with pytest.raises(MalformedInput):
            ProductDigraph(g, "s", "z", 0)
        with pytest.raises(MalformedInput):
            ProductDigraph(g, "s", "s", 2)
        with pytest.raises(UnknownVertex):
            ProductDigraph(g, "s", "nope", 2)

    @pytest.mark.parametrize(
        "k, budget, name",
        [
            (2.5, DEFAULT_BUDGET, "k"),
            ("2", DEFAULT_BUDGET, "k"),
            (True, DEFAULT_BUDGET, "k"),
            (2, 1.5, "budget"),
            (2, None, "budget"),
            (2, True, "budget"),
        ],
    )
    def test_bounds_must_be_integers(self, demo, k, budget, name):
        with pytest.raises(MalformedInput, match=f"^{name} must be an integer"):
            max_snapshot_disjoint(demo.graph, "s", "z", k, budget)

    def test_tuple_bound(self, demo):
        prod = build_product(demo.graph, "s", "z", 2)
        assert prod.tuple_bound == (len(demo.graph.edges) + 2) ** 2

    def test_budget_caps_the_tuples_reached(self, demo):
        # One unit per tuple reached: a budget equal to the count answers in
        # full, one less raises, and the bound (m+2)^k is never consulted.
        # The decision reaches the 8 orbits of the 73 ordered tuples that
        # build_product reaches at k = 4.
        g = demo.graph
        assert max_snapshot_disjoint(g, "s", "z", 4).tuples_materialized == 8
        assert not max_snapshot_disjoint(g, "s", "z", 4, budget=8).found
        with pytest.raises(BudgetExceeded) as blown:
            max_snapshot_disjoint(g, "s", "z", 4, budget=7)
        assert blown.value.spent == 8
        assert len(build_product(g, "s", "z", 3, budget=40).reachable_tuples) == 40
        with pytest.raises(BudgetExceeded):
            build_product(g, "s", "z", 3, budget=39)
        with pytest.raises(BudgetExceeded):
            max_snapshot_disjoint(g, "s", "z", 1, budget=0)
        res = max_snapshot_disjoint(g, "s", "z", 7)
        assert res.tuple_bound == 12**7 > DEFAULT_BUDGET
        assert (res.found, res.tuples_materialized) == (False, 8)

    def test_validity_predicate(self, two_route):
        prod = build_product(two_route.graph, "s", "z", 2)
        assert prod.is_valid(prod.tuple_of(["sa1", "sb2"]))
        assert prod.is_valid(prod.tuple_of([SOURCE, SOURCE]))
        assert prod.is_valid(prod.tuple_of([SINK, SINK]))
        # both coordinates on the same edge, or on distinct edges sharing a
        # label, clash
        assert not prod.is_valid(prod.tuple_of(["sa1", "sa1"]))
        assert not prod.is_valid(prod.tuple_of(["sb2", "az2"]))


class TestReachableTuples:
    def test_two_route_membership(self, two_route):
        prod = build_product(two_route.graph, "s", "z", 2)
        assert prod.contains([SOURCE, SOURCE])
        assert prod.contains([SINK, SINK])  # the decision is YES
        assert prod.contains(["sa1", SOURCE])
        assert prod.contains(["az3", "sb2"])
        # (sa1, az2) is a conflict-free tuple but az2 kills route two,
        # so the goal is only reached through az3
        assert not prod.contains(["sb2", "az2"])
        assert not prod.contains(["nonsense", SOURCE])
        assert not prod.contains([["sa1"], SOURCE])

    def test_successors_advance_minimum_label_only(self, two_route):
        prod = build_product(two_route.graph, "s", "z", 2)
        vt = prod.tuple_of(["sa1", "sb2"])
        moved = {pos for pos, _, _ in prod.successors(vt)}
        assert moved == {0}  # label 1 < label 2

    def test_explore_counts(self, two_route):
        prod = build_product(two_route.graph, "s", "z", 2)
        prod.explore()
        assert 0 < len(prod.reachable_tuples) < prod.tuple_bound


class TestDecision:
    def test_two_route_unique_family(self, two_route):
        res = max_snapshot_disjoint(two_route.graph, "s", "z", 2)
        assert res.found
        assert_valid_family(two_route.graph, "s", "z", res.family, 2)
        assert sorted((w.label_set for w in res.family), key=sorted) == [
            frozenset({1, 3}),
            frozenset({2, 4}),
        ]

    def test_demo(self, demo):
        yes = max_snapshot_disjoint(demo.graph, "s", "z", 2)
        assert yes.found
        assert_valid_family(demo.graph, "s", "z", yes.family, 2)
        assert not max_snapshot_disjoint(demo.graph, "s", "z", 3).found

    def test_tight_gap_single(self, tight_gap):
        assert max_snapshot_disjoint(tight_gap.graph, "s", "z", 1).found
        res = max_snapshot_disjoint(tight_gap.graph, "s", "z", 2)
        assert not res.found and res.family == ()

    def test_accounting(self, demo):
        res = max_snapshot_disjoint(demo.graph, "s", "z", 2)
        assert res.k == 2
        assert res.tuple_bound == (len(demo.graph.edges) + 2) ** 2
        assert 0 < res.tuples_materialized < res.tuple_bound
        assert res.arcs_explored > 0

    def test_unreachable(self):
        g = TemporalGraph([(0, "a", "b", 2), (1, "b", "c", 1)])
        assert not max_snapshot_disjoint(g, "a", "c", 1).found

    def test_counts_match_the_full_exploration(self, demo, tight_gap, two_route):
        # A NO answer reaches one sorted tuple per orbit of the ordered
        # tuples build_product reaches; a YES answer stops early, so it
        # reaches at most that.  An orbit makes at most the moves of any
        # ordered tuple in it, so the arcs stay within the ordered ones.
        cases = [(demo, 2), (demo, 3), (demo, 4), (tight_gap, 1), (tight_gap, 2), (two_route, 2)]
        answers = set()
        for fx, k in cases:
            res = max_snapshot_disjoint(fx.graph, fx.s, fx.z, k)
            full = build_product(fx.graph, fx.s, fx.z, k)
            orbits = len({tuple(sorted(vt)) for vt in full.reachable_tuples})
            if res.found:
                assert res.tuples_materialized <= orbits
            else:
                assert res.tuples_materialized == orbits
            assert res.arcs_explored <= len(full.arcs)
            answers.add(res.found)
        assert answers == {True, False}

    def test_demo_at_k50_stops_at_the_source(self, demo):
        # Every chain leaves the source before any advances; three edges
        # leave s, so the decision reaches their 2^3 subsets and stops.
        res = max_snapshot_disjoint(demo.graph, "s", "z", 50)
        assert (res.found, res.tuples_materialized) == (False, 8)

    def test_families_with_many_chains_at_the_source(self):
        # Four two-hop routes whose first hops leave s in label order 1..4
        # while their second hops arrive in reverse; a fifth route shares
        # label 2, so only one of the two may be used.
        edges = []
        for i, (first, second) in enumerate([(1, 8), (2, 7), (3, 6), (4, 5), (2, 9)]):
            edges += [(2 * i, "s", f"v{i}", first), (2 * i + 1, f"v{i}", "z", second)]
        g = TemporalGraph(edges)
        for k in (1, 2, 3, 4):
            res = max_snapshot_disjoint(g, "s", "z", k)
            assert res.found
            assert_valid_family(g, "s", "z", res.family, k)
        assert not max_snapshot_disjoint(g, "s", "z", 5).found

    def test_yes_answer_builds_no_graph(self, demo, two_route, monkeypatch):
        builds = []
        build = TemporalGraph.__init__

        def counting(self, *args, **kwargs):
            builds.append(1)
            build(self, *args, **kwargs)

        monkeypatch.setattr(TemporalGraph, "__init__", counting)
        assert max_snapshot_disjoint(demo.graph, "s", "z", 2).found
        assert max_snapshot_disjoint(two_route.graph, "s", "z", 2).found
        assert builds == []


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_k1_is_reachability(seed):
    g = random_temporal_graph(random.Random(seed))
    for s, z in terminals(g)[:8]:
        res = max_snapshot_disjoint(g, s, z, 1)
        assert res.found == (reachable(g, s, z) is not None)
        if res.found:
            assert_valid_family(g, s, z, res.family, 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_matches_oracle_and_is_monotone(seed):
    g = random_temporal_graph(random.Random(seed))
    rng = random.Random(seed + 1)
    pairs = terminals(g)
    for s, z in rng.sample(pairs, min(3, len(pairs))):
        truth = brute_force_p(g, s, z).value
        prev = True
        for k in (1, 2, 3, 4):
            res = max_snapshot_disjoint(g, s, z, k)
            assert res.found == (truth >= k)
            if res.found:
                assert_valid_family(g, s, z, res.family, k)
            assert prev or not res.found  # found at k implies found at k-1
            prev = res.found


class TestDot:
    def test_dot_marks_terminal_tuples(self, two_route):
        prod = build_product(two_route.graph, "s", "z", 2)
        dot = prod.to_dot()
        assert dot.startswith("digraph product {")
        assert '"(src,src)"' in dot
        assert '"(snk,snk)"' in dot
        assert "box" in dot

    def test_dot_vertex_limit(self, demo):
        prod = build_product(demo.graph, "s", "z", 2)
        with pytest.raises(LimitExceeded):
            prod.to_dot(max_vertices=5)

    def test_dot_stops_at_its_limit(self, petersen_gadget):
        # The dump's own search gives up at 501 tuples, before the budget
        # of 501 runs out; exploring everything first would exhaust it.
        g, s, z = petersen_gadget.graph, petersen_gadget.s, petersen_gadget.z
        prod = ProductDigraph(g, s, z, 3, budget=501)
        expanded = []
        successors = prod.successors
        prod.successors = lambda vt: expanded.append(vt) or successors(vt)
        with pytest.raises(LimitExceeded, match="more than 500 product tuples"):
            prod.to_dot()
        assert len(set(expanded)) == len(expanded) <= 501
        assert prod.reachable_tuples is None

    def test_dot_quotes_token_names(self):
        g = TemporalGraph([('s"a', "s", "a", 1), ("a\\z", "a", "z", 2)])
        dot = ProductDigraph(g, "s", "z", 1).to_dot()
        assert '  "(s\\"a)";' in dot
        assert '  "(a\\\\z)";' in dot
        assert '"(s"a)"' not in dot

    def test_dot_text_is_unchanged(self, demo, two_route):
        # sha256 of the k = 2 dumps as written when the dump read the arcs
        # stored by a full exploration.
        recorded = {
            "two-route": "feed1ec536ed1fe6073941b824f01843b4a4f397517b555ed73a2b11e5f1232e",
            "demo": "8320dd233e8677be1dd8f7ad96dc553ebed77f61dc3ab5d8e20afec5eaa14759",
        }
        for fx in (two_route, demo):
            text = ProductDigraph(fx.graph, fx.s, fx.z, 2).to_dot()
            assert hashlib.sha256(text.encode()).hexdigest() == recorded[fx.name]
            assert text == build_product(fx.graph, fx.s, fx.z, 2).to_dot()


def written_out_moves(prod, vt):
    """The move rule from its definition: a coordinate holding the least
    label steps onto a member it may follow (source onto an edge at s, an
    edge onto another edge sharing an endpoint with no smaller label, an
    edge at z onto the sink) whose label no other coordinate holds, unless
    that member is the sink; coordinates in order, members ascending."""
    g, s, z, mem = prod.graph, prod.s, prod.z, prod.members

    def label(ix):
        if mem[ix] is SOURCE:
            return 0
        if mem[ix] is SINK:
            return g.lifetime + 1
        return mem[ix].t

    def may_follow(a, b):
        x, y = mem[a], mem[b]
        if x is SINK or y is SOURCE:
            return False
        if x is SOURCE:
            return y is not SINK and y.touches(s)
        if y is SINK:
            return x.touches(z)
        return a != b and y.t >= x.t and (y.touches(x.u) or y.touches(x.v))

    low = min(label(ix) for ix in vt)
    out = []
    for pos, ix in enumerate(vt):
        if label(ix) != low:
            continue
        others = [label(o) for q, o in enumerate(vt) if q != pos]
        for j in range(len(mem)):
            if may_follow(ix, j) and (mem[j] is SINK or label(j) not in others):
                out.append((pos, j, vt[:pos] + (j,) + vt[pos + 1 :]))
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3))
def test_successors_follow_the_move_rule(seed, k):
    g = random_temporal_graph(random.Random(seed))
    rng = random.Random(seed + 3)
    s, z = rng.choice(terminals(g))
    prod = build_product(g, s, z, k)
    for vt in prod.reachable_tuples:
        assert prod.successors(vt) == written_out_moves(prod, vt)
        assert prod.is_valid(vt)
        # the orbit moves are the ordered moves of the same sorted tuple,
        # each sorted, in move order and without repeats: the search's
        # order, and so every witness, rests on this order
        orbit = tuple(sorted(vt))
        assert set(prod.orbit_successors(orbit)) == {
            tuple(sorted(nxt)) for _, _, nxt in prod.successors(vt)
        }
        assert prod.orbit_successors(orbit) == list(
            dict.fromkeys(tuple(sorted(nxt)) for _, _, nxt in prod.successors(orbit))
        )


def test_the_replay_reads_moves_that_share_a_repeated_sentinel():
    # Three label-disjoint routes: the search's trail starts with moves in
    # which one of several source copies leaves and ends with moves in
    # which one more sink copy arrives, the only moves whose two sorted
    # tuples share a repeated member.  Each chain must still get its route.
    routes = {"a": (1, 2), "b": (3, 4), "c": (5, 6)}
    edges = []
    for v, (t1, t2) in routes.items():
        edges += [(len(edges), "s", v, t1), (len(edges) + 1, v, "z", t2)]
    g = TemporalGraph(edges)
    prod = ProductDigraph(g, "s", "z", 3)
    parents, _ = _search(prod, prod.orbit_successors, prod.goal)
    src, snk = 0, prod.snk_ix
    assert parents[(src, src, 1)] == (src, src, src)
    assert parents[(src, 1, 3)] == (src, src, 1)
    assert parents[(5, snk, snk)] == (4, 5, snk)
    assert parents[(snk, snk, snk)] == (6, snk, snk)
    family = _extract_family(prod, parents)
    assert sorted(w.sequence() for w in family) == [
        ("s", 2 * i, v, 2 * i + 1, "z") for i, v in enumerate(routes)
    ]


def corpus():
    """300 seeded random graphs (every third one larger) and up to 3
    terminal pairs each, as ``(graph index, graph, s, z)``."""
    for i in range(300):
        rng = random.Random(i)
        if i % 3 == 2:
            g = random_temporal_graph(rng, max_vertices=7, max_edges=14, max_label=5)
        else:
            g = random_temporal_graph(rng)
        pairs = terminals(g)
        for s, z in rng.sample(pairs, min(3, len(pairs))):
            yield i, g, s, z


def test_decisions_match_the_ordered_search():
    # The ordered search over the paper's product is the reference: the
    # orbit search gives the same answer, and on a NO answer it reaches one
    # sorted tuple per orbit of the ordered tuples reached.
    answers = set()
    for _, g, s, z in corpus():
        for k in (1, 2, 3):
            res = max_snapshot_disjoint(g, s, z, k)
            product = ProductDigraph(g, s, z, k)
            reached, _ = _search(product, product._ordered_moves)
            assert res.found == (product.goal in reached)
            orbits = len({tuple(sorted(vt)) for vt in reached})
            if res.found:
                assert res.tuples_materialized <= orbits
            else:
                assert res.tuples_materialized == orbits
            answers.add(res.found)
    assert answers == {True, False}


# sha256 of the packing answers over the corpus, recorded from the orbit
# search after test_decisions_match_the_ordered_search and the oracle
# tests passed on it; every found flag and family equals the ordered
# search's, whose digest was 5fe1be83...cc99a18934, and only the counts
# changed.
ANSWER_DIGEST = "e49b18865e564bfe94cdec4d1ac2477877153aebfbfec90d07f38295e34b8bda"


def corpus_answers():
    """Every packing decision at k = 1-3 over the corpus, as the found
    flag, the family's edge sequences and the counts; every tenth graph
    adds its k = 2 product's sorted tuples and arcs."""
    for i, g, s, z in corpus():
        for k in (1, 2, 3):
            res = max_snapshot_disjoint(g, s, z, k)
            yield (
                res.found,
                [w.sequence() for w in res.family],
                res.tuple_bound,
                res.tuples_materialized,
                res.arcs_explored,
            )
        if i % 10 == 0:
            prod = build_product(g, s, z, 2)
            yield sorted(prod.reachable_tuples), sorted(prod.arcs)


def test_answers_match_recorded_digest():
    digest = hashlib.sha256()
    for key in corpus_answers():
        digest.update(repr(key).encode())
    assert digest.hexdigest() == ANSWER_DIGEST


# sha256 of the packing answers on the independent-set gadgets, recorded
# before the product search's per-step rewrite (moves from label-sorted
# suffixes, sorted insertion, one cap, the replay's merge) and held by it.
GADGET_ANSWER_DIGEST = "b73be71468c9486ea33953b3d87f08849890e5ca727a8b148baa6995e0207273"


def gadget_answers():
    """Every packing decision on the independent-set gadget of each simple
    graph on 5 vertices, at k = alpha (YES) and alpha + 1 (NO), as the
    found flag, the family's edge sequences and the counts."""
    for mg in enumerate_simple_graphs(5):
        inst = indep_set_gadget(sorted(mg.vertices), sorted(mg.links))
        alpha = inst.manifest["alpha"]
        for k in (alpha, alpha + 1):
            res = max_snapshot_disjoint(inst.graph, inst.s, inst.z, k)
            yield (
                res.found,
                [w.sequence() for w in res.family],
                res.tuples_materialized,
                res.arcs_explored,
            )


def test_gadget_answers_match_recorded_digest():
    digest = hashlib.sha256()
    for key in gadget_answers():
        digest.update(repr(key).encode())
    assert digest.hexdigest() == GADGET_ANSWER_DIGEST
