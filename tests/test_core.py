"""Temporal graph container, walks, traversal, and the multigraph layer."""

import ast
import hashlib
import random
import re
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_multigraphs_up_to_iso, random_mgraph, random_temporal_graph
from tgmenger import core, cuts, oracles
from tgmenger.core import (
    INF,
    MGraph,
    TemporalGraph,
    earliest_arrival,
    enumerate_paths,
    find_m_topological_minor,
    has_m_topological_minor,
    latest_departure,
    link_key,
    reachable,
    token_key,
    validate_walk,
    walk_from_labels,
)
from tgmenger.disjoint_paths import max_snapshot_disjoint
from tgmenger.errors import (
    DecreasingLabel,
    LimitExceeded,
    MalformedInput,
    MissingMultiedge,
    NonIncident,
    PatternTooLarge,
    UnknownEdge,
    UnknownVertex,
)
from tgmenger.injective_flow import injective_connectivity, max_edge_disjoint_paths
from tgmenger.mengerian import catalog, catalog_entry, recognize


def test_token_key_orders_ints_before_strings():
    assert sorted([10, "a", 2, "2"], key=token_key) == [2, 10, "2", "a"]
    assert link_key("b", "a") == ("a", "b")
    assert link_key(3, 1) == (1, 3)
    assert link_key(1, "a") == (1, "a")


class TestConstruction:
    def test_attributes(self, demo):
        g = demo.graph
        assert len(g.edges) == 10
        assert g.vertices == frozenset("suvwz")
        assert g.labels == frozenset({1, 2, 3, 4})
        assert g.lifetime == 4

    def test_duplicate_id_rejected(self):
        with pytest.raises(MalformedInput, match="duplicate edge id"):
            TemporalGraph([(0, "a", "b", 1), (0, "b", "c", 2)])

    @pytest.mark.parametrize("item", [(0, "a", "b"), 7, (0, ["a"], "b", 1), ([0], "a", "b", 1)])
    def test_malformed_item_rejected(self, item):
        with pytest.raises(MalformedInput, match="edge item"):
            TemporalGraph([item])

    def test_loop_rejected(self):
        with pytest.raises(MalformedInput, match="loops"):
            TemporalGraph([(0, "a", "a", 1)])

    @pytest.mark.parametrize("bad", [0, -3, "1", 1.5, True])
    def test_label_must_be_positive_int(self, bad):
        with pytest.raises(MalformedInput, match="positive integer"):
            TemporalGraph([(0, "a", "b", bad)])

    def test_snapshots_must_be_simple(self):
        with pytest.raises(MalformedInput, match="snapshots must be simple"):
            TemporalGraph([(0, "a", "b", 2), (1, "b", "a", 2)])

    def test_parallel_edges_with_distinct_labels_are_fine(self):
        g = TemporalGraph([(0, "a", "b", 1), (1, "a", "b", 2)])
        assert [e.t for e in g.multiedge("b", "a")] == [1, 2]

    def test_isolated_vertices_kept(self):
        g = TemporalGraph([(0, "a", "b", 1)], vertices=["c"])
        assert "c" in g.vertices
        assert g.incident("c") == ()

    def test_lookups_raise_on_unknowns(self, demo):
        with pytest.raises(UnknownEdge):
            demo.graph.edge("nope")
        with pytest.raises(UnknownVertex):
            demo.graph.incident("nope")
        with pytest.raises(MissingMultiedge):
            demo.graph.multiedge("s", "z")

    def test_incident_sorted_by_time_then_id(self, demo):
        assert [e.eid for e in demo.graph.incident("u")] == ["su2", "uz3", "wu3", "uz4"]

    def test_snapshot(self, demo):
        assert {e.eid for e in demo.graph.snapshot(3)} == {"sw3", "wu3", "vz3", "uz3"}
        assert demo.graph.snapshot(99) == ()

    def test_without_labels(self, demo):
        h = demo.graph.without_labels({2, 3})
        assert h.labels == frozenset({1, 4})
        assert h.vertices == demo.graph.vertices
        assert type(h) is TemporalGraph

    def test_without_multiedges(self, demo):
        h = demo.graph.without_multiedges([("z", "u")])
        assert all(e.pair != ("u", "z") for e in h.edges)
        with pytest.raises(MissingMultiedge):
            demo.graph.without_multiedges([("s", "z")])
        # An item that is not a pair is named, as is_multiedge_cut names it;
        # a string is not a pair even when its two characters name one.
        for item in (("s",), ("s", "u", "w"), 5, "su"):
            with pytest.raises(MalformedInput, match=f"^multiedge item {re.escape(repr(item))} "):
                demo.graph.without_multiedges([("s", "u"), item])


class TestWalks:
    def test_validate_walk(self, demo):
        w = validate_walk(demo.graph, ["s", "sw1", "w", "wz2", "z"])
        assert w.labels == (1, 2)
        assert w.is_path
        assert w.pretty() == "(s, 1, w, 2, z)"
        assert w.sequence() == ("s", "sw1", "w", "wz2", "z")

    def test_walk_may_repeat_vertices(self, demo):
        w = validate_walk(demo.graph, ["s", "sw1", "w", "sw3", "s"])
        assert not w.is_path
        assert len(w) == 2

    def test_non_incident_step(self, demo):
        with pytest.raises(NonIncident) as err:
            validate_walk(demo.graph, ["s", "vz2", "z"])
        assert err.value.index == 0

    def test_decreasing_label(self, demo):
        with pytest.raises(DecreasingLabel) as err:
            validate_walk(demo.graph, ["s", "su2", "u", "wu3", "w", "wv1", "v"])
        assert (err.value.previous, err.value.current) == (3, 1)

    def test_zero_length(self, demo):
        w = validate_walk(demo.graph, ["s"])
        assert len(w) == 0 and w.first == w.last == "s"

    def test_even_sequences_rejected(self, demo):
        with pytest.raises(MalformedInput):
            validate_walk(demo.graph, ["s", "sw1"])

    def test_walk_from_labels(self, demo):
        w = walk_from_labels(demo.graph, ["s", 1, "w", 3, "u", 3, "z"])
        assert w.edge_ids == ("sw1", "wu3", "uz3")
        with pytest.raises(MalformedInput, match="no edge"):
            walk_from_labels(demo.graph, ["s", 4, "w"])


class TestTraversal:
    def test_earliest_arrival(self, demo):
        assert earliest_arrival(demo.graph, "s") == {"s": 0, "w": 1, "v": 1, "u": 2, "z": 2}

    def test_latest_departure(self, demo):
        ld = latest_departure(demo.graph, "z")
        assert ld == {"z": INF, "u": 4, "v": 3, "w": 3, "s": 3}

    def test_same_label_hops_chain_within_snapshot(self):
        g = TemporalGraph([(0, "a", "b", 5), (1, "b", "c", 5)])
        assert earliest_arrival(g, "a")["c"] == 5
        assert latest_departure(g, "c")["a"] == 5

    def test_reachable_returns_a_path(self, demo):
        w = reachable(demo.graph, "s", "z")
        assert w.first == "s" and w.last == "z" and w.is_path

    def test_reachable_none(self):
        g = TemporalGraph([(0, "a", "b", 2), (1, "b", "c", 1)])
        assert reachable(g, "a", "c") is None

    def test_reachable_same_vertex(self, demo):
        assert len(reachable(demo.graph, "s", "s")) == 0

    def test_enumerate_paths_tight_gap(self, tight_gap):
        paths = enumerate_paths(tight_gap.graph, "s", "z")
        assert [p.labels for p in paths] == [(1, 1, 2), (1, 1, 3), (1, 3, 3), (2, 3, 3)]
        assert all(p.is_path for p in paths)

    def test_enumerate_paths_lex_by_edge_ids(self, demo):
        paths = enumerate_paths(demo.graph, "s", "z")
        ids = [p.edge_ids for p in paths]
        assert ids == sorted(ids)

    def test_enumerate_paths_limit(self, demo):
        with pytest.raises(LimitExceeded):
            enumerate_paths(demo.graph, "s", "z", limit=2)

    @pytest.mark.parametrize(
        "limit, message",
        [("x", "limit must be an integer"), (True, "limit must be an integer"),
         (-1, "limit must be at least 0")],
    )
    def test_enumerate_paths_limit_is_checked(self, demo, limit, message):
        with pytest.raises(MalformedInput, match=f"^{message}"):
            enumerate_paths(demo.graph, "s", "z", limit=limit)

    def test_enumerate_paths_in_documented_order(self):
        total = 0
        for seed in range(300):
            g = random_temporal_graph(random.Random(seed))
            for s in sorted(g.vertices):
                for z in sorted(g.vertices - {s}):
                    paths = enumerate_paths(g, s, z)
                    for p in paths:
                        assert validate_walk(g, p.sequence()) == p
                        assert p.first == s and p.last == z and p.is_path
                    keys = [tuple(map(token_key, p.edge_ids)) for p in paths]
                    assert keys == sorted(set(keys))
                    assert [(p.vertices, p.edges) for p in paths] == written_out_paths(g, s, z)
                    total += len(paths)
        assert total == 5134

    def test_enumerate_paths_long_path(self):
        # deeper than the interpreter's default recursion limit
        g = TemporalGraph([(i, i, i + 1, i + 1) for i in range(1200)])
        (path,) = enumerate_paths(g, 0, 1200)
        assert path.vertices == tuple(range(1201))
        assert path.labels == tuple(range(1, 1201))


def written_out_paths(g, s, z):
    """The documented order written out recursively: from the last vertex
    of a path, try its incident edges in edge-id order, skipping an earlier
    label or a vertex already on the path; a path ends on reaching z."""
    out = []

    def extend(vertices, edges):
        for e in sorted(g.incident(vertices[-1]), key=lambda e: token_key(e.eid)):
            nxt = e.other(vertices[-1])
            if nxt in vertices or (edges and e.t < edges[-1].t):
                continue
            if nxt == z:
                out.append((vertices + (z,), edges + (e,)))
            else:
                extend(vertices + (nxt,), edges + (e,))

    extend((s,), ())
    return out


# Every s,z entry point with the arguments it takes after the terminals.
SZ_ENTRY_POINTS = [
    (cuts.snapshot_cut_at_most, (1,)),
    (cuts.min_snapshot_cut, ()),
    (cuts.multiedge_cut_at_most, (1,)),
    (cuts.min_multiedge_cut, ()),
    (cuts.candidate_labels, ()),
    (cuts.candidate_multiedges, ()),
    (cuts.is_snapshot_cut, ({2, 3},)),
    (cuts.is_multiedge_cut, ({("s", "u")},)),
    (max_snapshot_disjoint, (1,)),
    (max_edge_disjoint_paths, ()),
    (injective_connectivity, ()),
    (oracles.brute_force_p, ()),
    (oracles.brute_force_c, ()),
    (oracles.brute_force_edge_disjoint, ()),
    (oracles.brute_force_multiedge_disjoint, ()),
    (oracles.brute_force_multiedge_cut, ()),
]


@pytest.mark.parametrize(
    "solver, extra", SZ_ENTRY_POINTS, ids=[f.__name__ for f, _ in SZ_ENTRY_POINTS]
)
def test_every_sz_solver_checks_its_terminals(demo, solver, extra):
    g = demo.graph
    # An unhashable terminal is unknown too, not a TypeError.
    for unknown in ("nowhere", ["s"], {}):
        with pytest.raises(UnknownVertex):
            solver(g, unknown, "z", *extra)
        with pytest.raises(UnknownVertex):
            solver(g, "s", unknown, *extra)
    with pytest.raises(MalformedInput):
        solver(g, "s", "s", *extra)


@pytest.mark.parametrize(
    "call",
    [
        lambda g, v: reachable(g, v, "z"),
        lambda g, v: reachable(g, "s", v),
        lambda g, v: enumerate_paths(g, v, "z"),
        lambda g, v: enumerate_paths(g, "s", v),
        earliest_arrival,
        latest_departure,
        lambda g, v: validate_walk(g, [v]),
        lambda g, v: validate_walk(g, ["s", "su2", v]),
    ],
)
def test_every_vertex_argument_is_checked(demo, call):
    for unknown in ("nowhere", ["s"], {}):
        with pytest.raises(UnknownVertex):
            call(demo.graph, unknown)


# Each accessor called with an unhashable key, and the class it raises for
# a key it does not hold; snapshot and multiplicity answer a missing key
# with () and 0, so they raise plain MalformedInput.
UNHASHABLE_KEYS = [
    pytest.param(lambda g, mg: g.edge(["su2"]), UnknownEdge, id="edge"),
    pytest.param(lambda g, mg: g.incident(["s"]), UnknownVertex, id="incident"),
    pytest.param(lambda g, mg: g.multiedge("s", ["u"]), MissingMultiedge, id="multiedge"),
    pytest.param(lambda g, mg: g.snapshot([2]), MalformedInput, id="snapshot"),
    pytest.param(lambda g, mg: mg.neighbors(["s"]), UnknownVertex, id="neighbors"),
    pytest.param(lambda g, mg: mg.multiplicity("s", ["u"]), MalformedInput, id="multiplicity"),
    pytest.param(lambda g, mg: mg.degree(["s"]), UnknownVertex, id="degree"),
    pytest.param(lambda g, mg: mg.drop_link("s", ["u"]), MissingMultiedge, id="drop_link"),
    pytest.param(lambda g, mg: mg.m_subdivide("s", ["u"]), MissingMultiedge, id="m_subdivide"),
    pytest.param(
        lambda g, mg: validate_walk(g, ["s", ["su2"], "u"]), UnknownEdge, id="validate_walk"
    ),
    pytest.param(
        lambda g, mg: walk_from_labels(g, ["s", 2, ["u"]]), MissingMultiedge, id="walk_from_labels"
    ),
    pytest.param(
        lambda g, mg: g.without_multiedges([("s", ["x"])]), MissingMultiedge, id="without_multiedges"
    ),
    pytest.param(lambda g, mg: g.without_labels([2, [3]]), MalformedInput, id="without_labels"),
]


@pytest.mark.parametrize("call, error", UNHASHABLE_KEYS)
def test_an_unhashable_key_raises_the_missing_key_class(demo, call, error):
    g = demo.graph
    with pytest.raises(error) as info:
        call(g, g.underlying())
    if error is MalformedInput:
        assert type(info.value) is MalformedInput
        assert "is unhashable" in str(info.value)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda g: TemporalGraph([], vertices=[["a"]]), id="TemporalGraph"),
        pytest.param(lambda g: MGraph([], vertices=["b", ["a"]]), id="MGraph"),
        pytest.param(
            lambda g: g.underlying().set_multiplicity("s", ["a"], 2), id="set_multiplicity"
        ),
    ],
)
def test_an_unhashable_vertex_is_named(demo, call):
    with pytest.raises(MalformedInput, match=r"^vertex \['a'\] is unhashable$"):
        call(demo.graph)


def _handlers_naming(path: Path, names: set) -> list:
    """The qualified names of the functions in *path* with an ``except``
    handler that names one of *names*, or a bare one."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}"
            if isinstance(child, ast.ExceptHandler):
                caught = {
                    getattr(n, "id", None) or getattr(n, "attr", None)
                    for n in ast.walk(child.type)
                } if child.type else names
                if caught & names:
                    found.append(scope)
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def test_one_lookup_rule():
    # Only core._lookup turns a missing key into an error.  _PairView.derived
    # catches a cache miss of its own table, not a key from the caller.
    found = []
    for path in sorted(Path(core.__file__).parent.glob("*.py")):
        found += _handlers_naming(path, {"KeyError", "LookupError"})
    assert sorted(found) == ["core._PairView.derived", "core._lookup"]


class TestMGraph:
    def test_accumulates_and_canonicalizes(self):
        mg = MGraph([("b", "a"), ("a", "b", 2), ("b", "c")])
        assert mg.multiplicity("a", "b") == 3
        assert mg.size() == 4
        assert mg.degree("b") == 4
        assert mg.underlying_degree("b") == 2
        assert mg.neighbors("b") == ("a", "c")

    def test_rejects_loops_and_bad_multiplicity(self):
        with pytest.raises(MalformedInput):
            MGraph([("a", "a")])
        with pytest.raises(MalformedInput):
            MGraph([("a", "b", 0)])
        for links in ([(["a"], "b")], [(1, 2, 3, 4)], [("a",)], [("a", "b", True)], {("a",): 1}):
            with pytest.raises(MalformedInput):
                MGraph(links)

    def test_underlying_of_temporal(self, demo):
        mg = demo.graph.underlying()
        assert mg.multiplicity("s", "w") == 2
        assert mg.multiplicity("u", "z") == 2
        assert mg.multiplicity("w", "v") == 1
        assert mg.size() == len(demo.graph.edges)

    def test_edits_are_persistent_copies(self):
        mg = MGraph([("a", "b", 2), ("b", "c")])
        assert mg.drop_link("a", "b").links == {("b", "c"): 1}
        assert mg.set_multiplicity("a", "b", 5).multiplicity("a", "b") == 5
        assert mg.set_multiplicity("a", "b", 0) == mg.drop_link("a", "b")
        assert mg.multiplicity("a", "b") == 2  # original untouched

    def test_m_subdivide(self):
        mg = MGraph([("a", "b", 3), ("b", "c")])
        sub = mg.m_subdivide("a", "b")
        mid = next(v for v in sub.vertices if v not in mg.vertices)
        assert sub.multiplicity("a", mid) == 3
        assert sub.multiplicity(mid, "b") == 3
        assert sub.multiplicity("a", "b") == 0
        assert sub.size() == mg.size() + 3

    def test_components(self):
        mg = MGraph([("a", "b"), ("c", "d", 2)], vertices=["e"])
        comps = mg.components()
        assert [sorted(c.vertices) for c in comps] == [["a", "b"], ["c", "d"], ["e"]]
        assert not mg.is_connected()

    def test_many_components_split_in_linear_time(self):
        # One search labels every vertex and one pass over the links fills
        # the components; filtering all links per component was quadratic.
        n = 16_000
        mg = MGraph([(2 * i, 2 * i + 1) for i in range(n)])
        started = time.perf_counter()
        comps = mg.components()
        assert time.perf_counter() - started < 3.0
        assert len(comps) == n
        assert comps[1].links == {(2, 3): 1} and comps[1].vertices == {2, 3}
        started = time.perf_counter()
        verdict = recognize(mg)
        assert time.perf_counter() - started < 3.0
        assert verdict.mengerian and verdict.witness is None

    def test_components_keep_the_link_order(self):
        mg = MGraph([("c", "d"), ("a", "b"), ("b", "e", 2), ("d", "f")])
        comps = mg.components()
        assert [list(c.links) for c in comps] == [
            [("a", "b"), ("b", "e")],
            [("c", "d"), ("d", "f")],
        ]

    def test_canonical_form_is_isomorphism_invariant(self):
        a = MGraph([("x", "y", 2), ("y", "w", 1)])
        b = MGraph([(7, 3, 1), (3, 5, 2)])
        assert a.canonical_form() == b.canonical_form()
        assert a.canonical_form() != MGraph([("x", "y", 2), ("y", "w", 2)]).canonical_form()

    def test_canonical_form_guard(self):
        big = MGraph([(i, i + 1) for i in range(9)])
        with pytest.raises(PatternTooLarge):
            big.canonical_form()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.permutations(list(range(6))))
def test_canonical_form_survives_relabeling(seed, perm):
    mg = random_mgraph(random.Random(seed), max_vertices=6)
    relabeled = MGraph(
        [(perm[u], perm[v], m) for (u, v), m in mg.links.items()],
        vertices=[perm[v] for v in mg.vertices],
    )
    assert relabeled.canonical_form() == mg.canonical_form()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_underlying_multiplicity_matches_multiedges(seed):
    g = random_temporal_graph(random.Random(seed))
    mg = g.underlying()
    for pair, es in g.multiedges().items():
        assert mg.multiplicity(*pair) == len(es)
    assert mg.size() == len(g.edges)


class TestMinorMatcher:
    def test_finds_heavy_path_pattern(self):
        host = MGraph([("a", "b", 2), ("b", "c", 3), ("c", "d", 2), ("d", "e", 1)])
        pattern = MGraph([("s", "x", 2), ("x", "y", 2), ("y", "z", 2)])
        emb = find_m_topological_minor(host, pattern)
        assert emb is not None
        assert set(emb.vertex_map) == {"s", "x", "y", "z"}
        # every pattern link must land on links of at least its multiplicity
        for (pu, pv), path in emb.link_paths.items():
            need = pattern.multiplicity(pu, pv)
            for x, y in zip(path, path[1:]):
                assert host.multiplicity(x, y) >= need

    def test_subdivision_is_still_a_minor(self):
        pattern = MGraph([("s", "x", 2), ("x", "y", 2), ("y", "z", 2)])
        host = pattern.m_subdivide("x", "y").m_subdivide("s", "x")
        assert has_m_topological_minor(host, pattern)

    def test_multiplicity_shortfall_blocks(self):
        host = MGraph([("a", "b", 2), ("b", "c", 1), ("c", "d", 2)])
        pattern = MGraph([("s", "x", 2), ("x", "y", 2), ("y", "z", 2)])
        assert not has_m_topological_minor(host, pattern)

    def test_no_diamond_in_plain_cycle(self):
        c4 = MGraph([(0, 1), (1, 2), (2, 3), (3, 0)])
        diamond = MGraph([("s", "a"), ("s", "b"), ("z", "a"), ("z", "b"), ("a", "b")])
        assert not has_m_topological_minor(c4, diamond)

    def test_long_host_path(self):
        cycle = MGraph([(i, (i + 1) % 1500) for i in range(1500)])
        triangle = MGraph([(0, 1), (1, 2), (0, 2)])
        emb = find_m_topological_minor(cycle, triangle)
        assert emb is not None
        assert sorted(len(p) for p in emb.link_paths.values()) == [2, 2, 1499]

    def test_multiplicity_degree_prunes_doubled_path(self):
        # M1's inner vertices each need two neighbours through doubled
        # links; a cycle with one doubled link offers at most one.  Without
        # that check the search took about 10 s at 40 vertices.
        links = {(i, (i + 1) % 40): 1 for i in range(40)}
        links[(0, 1)] = 2
        started = time.perf_counter()
        assert find_m_topological_minor(MGraph(links), catalog_entry("M1").shape) is None
        assert time.perf_counter() - started < 1.0

    def test_pattern_size_guard(self):
        host = MGraph([(0, 1)])
        with pytest.raises(PatternTooLarge):
            has_m_topological_minor(host, MGraph([(i, i + 1) for i in range(7)]))


# sha256 of the first embedding of each catalog shape, recorded before the
# matcher pruned by multiplicity degree: pruning drops only branches with no
# embedding and keeps the search order, so the first one found is unchanged.
EMBEDDING_DIGEST = "a47fb1d422e04057276deb89310b037d1f062caddbe152e721b099356224b1e7"


def test_embeddings_match_recorded_digest():
    """Over criterion 6's multigraphs and the underlying multigraphs of 320
    criterion-2 graphs (as the benchmark's random corpus draws them)."""
    shapes = [entry.shape for entry in catalog()]
    rng = random.Random(170043)
    hosts = list(all_multigraphs_up_to_iso())
    hosts += [random_temporal_graph(rng).underlying() for _ in range(320)]
    digest = hashlib.sha256()
    for host in hosts:
        for shape in shapes:
            emb = find_m_topological_minor(host, shape)
            key = None if emb is None else (
                sorted(emb.vertex_map.items(), key=repr),
                sorted(emb.link_paths.items(), key=repr),
            )
            digest.update(repr(key).encode())
    assert digest.hexdigest() == EMBEDDING_DIGEST
