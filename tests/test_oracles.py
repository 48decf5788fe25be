"""Exhaustive reference oracles and the semantic Mengerian sweep."""

import ast
import hashlib
import itertools
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tgmenger import oracles
from tgmenger.core import MGraph, TemporalGraph
from tgmenger.errors import LimitExceeded, MalformedInput, PatternTooLarge, UnknownVertex
from tgmenger.mengerian import catalog_entry
from tgmenger.oracles import (
    _gap_open,
    _masks_over,
    all_label_patterns,
    brute_force_c,
    brute_force_edge_disjoint,
    brute_force_multiedge_cut,
    brute_force_multiedge_disjoint,
    brute_force_p,
    enumerate_connected_multigraphs,
    enumerate_simple_graphs,
    find_multicolored_clique,
    find_semantic_violation,
    max_disjoint_masks,
    max_independent_set,
    min_hitting_set,
    min_vertex_cover,
    search_minimal_non_mengerian,
    semantic_is_mengerian,
)


class TestFixtureValues:
    def test_demo(self, demo):
        g, s, z = demo.graph, demo.s, demo.z
        assert brute_force_p(g, s, z).value == 2
        assert brute_force_c(g, s, z).value == 2
        assert brute_force_edge_disjoint(g, s, z).value == 3
        assert brute_force_multiedge_cut(g, s, z).value == 2

    def test_demo_witnesses_are_valid(self, demo):
        g, s, z = demo.graph, demo.s, demo.z
        packing = brute_force_p(g, s, z).witness
        used = [set(p.labels) for p in packing]
        assert used[0].isdisjoint(used[1])
        cut = brute_force_c(g, s, z).witness
        assert cut == frozenset({2, 3})
        mcut = brute_force_multiedge_cut(g, s, z).witness
        assert mcut == frozenset({("s", "u"), ("s", "w")})

    def test_tight_gap(self, tight_gap):
        g, s, z = tight_gap.graph, tight_gap.s, tight_gap.z
        assert brute_force_p(g, s, z).value == 1
        c = brute_force_c(g, s, z)
        assert (c.value, c.witness) == (2, frozenset({1, 2}))

    def test_two_route(self, two_route):
        g, s, z = two_route.graph, two_route.s, two_route.z
        p = brute_force_p(g, s, z)
        assert p.value == 2
        assert sorted(frozenset(w.labels) for w in p.witness) == [
            frozenset({1, 3}),
            frozenset({2, 4}),
        ]
        assert brute_force_c(g, s, z).value == 2

    def test_unreachable_pair(self):
        g = TemporalGraph([(0, "a", "b", 2), (1, "b", "c", 1)])
        assert brute_force_p(g, "a", "c").value == 0
        c = brute_force_c(g, "a", "c")
        assert (c.value, c.witness) == (0, frozenset())
        assert brute_force_multiedge_disjoint(g, "a", "c").value == 0

    def test_large_optima_do_not_recurse(self):
        # 1,100 parallel two-hop routes, route i at label i+1: every oracle
        # answers 1,100, far deeper than the interpreter's recursion limit.
        edges = []
        for i in range(1100):
            edges += [(2 * i, "s", f"v{i}", i + 1), (2 * i + 1, f"v{i}", "z", i + 1)]
        g = TemporalGraph(edges)
        for oracle in (
            brute_force_p,
            brute_force_c,
            brute_force_edge_disjoint,
            brute_force_multiedge_disjoint,
            brute_force_multiedge_cut,
        ):
            assert oracle(g, "s", "z").value == 1100, oracle.__name__
        assert brute_force_c(g, "s", "z").witness == frozenset(range(1, 1101))

    def test_path_limit(self, demo):
        with pytest.raises(LimitExceeded):
            brute_force_p(demo.graph, demo.s, demo.z, limit=2)


class TestSetHelpers:
    def test_max_disjoint_masks(self):
        assert max_disjoint_masks([0b011, 0b100, 0b101]) == (2, (0, 1))
        assert max_disjoint_masks([0b1, 0b1, 0b1]) == (1, (0,))
        assert max_disjoint_masks([]) == (0, ())

    def test_min_hitting_set(self):
        size, hitters = min_hitting_set([0b011, 0b110], ["a", "b", "c"])
        assert (size, hitters) == (1, ("b",))
        assert min_hitting_set([], ["a"]) == (0, ())
        # disjoint masks force one hitter each
        size, hitters = min_hitting_set([0b001, 0b010, 0b100], ["a", "b", "c"])
        assert size == 3 and set(hitters) == {"a", "b", "c"}

    def test_max_independent_set(self):
        # C5: alpha = 2
        res = max_independent_set(range(5), [(i, (i + 1) % 5) for i in range(5)])
        assert res.value == 2
        a, b = res.witness
        assert abs(a - b) not in (1, 4)
        assert max_independent_set([1, 2, 3], []).value == 3
        assert max_independent_set([], []).value == 0

    def test_max_independent_set_is_not_recursive(self):
        # The search goes one level deeper per vertex, and 1,100 levels
        # exceed the interpreter's default recursion limit.
        res = max_independent_set(range(1100), [])
        assert res.value == 1100 and res.witness == frozenset(range(1100))
        assert min_vertex_cover(range(1100), []).value == 0

    def test_unknown_endpoints_are_malformed(self):
        with pytest.raises(UnknownVertex) as info:
            max_independent_set(["a"], [("a", "b")])
        assert info.value.vertex == "b"
        assert isinstance(info.value, MalformedInput)
        with pytest.raises(UnknownVertex):
            min_vertex_cover([1, 2], [(3, 1)])

    def test_min_vertex_cover(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 0)]
        res = min_vertex_cover(range(4), edges)
        assert res.value == 2
        assert all(u in res.witness or v in res.witness for u, v in edges)
        assert min_vertex_cover([1, 2], []).value == 0
        # one pass over each argument, so iterators work as well as lists
        res = min_vertex_cover(iter([1, 2, 3]), iter([(1, 2)]))
        assert res.value == 1 and len(res.witness & {1, 2}) == 1

    def test_gallai_identity_on_small_graphs(self):
        for mg in enumerate_simple_graphs(5):
            vertices = sorted(mg.vertices)
            edges = sorted(mg.links)
            alpha = max_independent_set(vertices, edges).value
            tau = min_vertex_cover(vertices, edges).value
            assert alpha + tau == len(vertices)

    def test_find_multicolored_clique(self):
        coloring = {0: "r", 1: "r", 2: "g", 3: "b"}
        assert find_multicolored_clique(coloring, [(0, 2), (2, 3)]) is None
        found = find_multicolored_clique(coloring, [(0, 2), (2, 3), (0, 3)])
        assert found == frozenset({0, 2, 3})
        # intra-class edges never help: r-r here cannot complete an r/g pair
        split = {0: "r", 1: "r", 2: "g"}
        assert find_multicolored_clique(split, [(0, 1)]) is None


# sha256 of all_label_patterns(m) for m = 0..7, one repr line each,
# recorded from the version that generated every weak order and filtered.
LABEL_PATTERN_DIGEST = "4fceeb9a95ed0d37a5fc25855b1f3039cf532ae596ae9df108968c77712929e4"


def _multiplicity_tuples(total: int):
    """Every tuple of positive multiplicities summing to *total*."""
    if total == 0:
        yield ()
    for head in range(1, total + 1):
        for rest in _multiplicity_tuples(total - head):
            yield (head,) + rest


class TestLabelPatterns:
    def test_fubini_counts(self):
        # weak orderings of m items: 1, 1, 3, 13, 75, 541, 4683, 47293
        assert [len(all_label_patterns(m)) for m in range(8)] == [
            1, 1, 3, 13, 75, 541, 4683, 47293
        ]

    def test_patterns_match_recorded_digest(self):
        digest = hashlib.sha256()
        for m in range(8):
            digest.update(repr(all_label_patterns(m)).encode() + b"\n")
        assert digest.hexdigest() == LABEL_PATTERN_DIGEST

    def test_sweep_patterns_are_the_filtered_weak_orders(self):
        # For links of multiplicities mults (copies on consecutive slots),
        # the sweep's patterns are exactly the weak orders in which each
        # copy's label is below the next copy's, in the same order.
        tuples = 0
        for m in range(8):
            patterns = all_label_patterns(m)
            rises = [
                sum(1 << i for i in range(m - 1) if p[i] < p[i + 1]) for p in patterns
            ]
            for mults in _multiplicity_tuples(m):
                need, base = 0, 0
                for mult in mults:
                    need |= ((1 << (mult - 1)) - 1) << base
                    base += mult
                kept = tuple(p for p, r in zip(patterns, rises) if not need & ~r)
                assert oracles._label_patterns(mults) == kept, mults
                tuples += 1
        assert tuples == 128

    def test_patterns_cover_all_order_types(self):
        pats = all_label_patterns(2)
        assert sorted(pats) == [(1, 1), (1, 2), (2, 1)]

    def test_guard(self):
        with pytest.raises(PatternTooLarge):
            all_label_patterns(9)
        # Nine edges are too many however they split into links, even
        # when the copies leave a single canonical pattern.
        for mg in (
            MGraph([(0, 1, 9)]),
            MGraph([(0, 1, 3), (1, 2, 2), (2, 3, 2), (3, 0, 2)]),
        ):
            with pytest.raises(PatternTooLarge):
                semantic_is_mengerian(mg)


def _semantic_digest_pool() -> list:
    """The 90 multigraphs of the semantic digests: every connected one
    with at most 4 vertices and 6 edges, then each catalog shape followed
    by its copies with one link's multiplicity lowered by one."""
    graphs = list(enumerate_connected_multigraphs(4, 6))
    for code in ("M1", "M2", "M3", "M4", "M5"):
        shape = catalog_entry(code).shape
        graphs.append(shape)
        for (a, b), mult in shape.sorted_links():
            graphs.append(shape.set_multiplicity(a, b, mult - 1))
    return graphs


SEMANTIC_WITNESS_DIGEST = "bc2b0629114e800aa6c71a57d9b04a75268e9d496e6c3795796d8582a3888d27"


class TestSemanticSweep:
    def test_doubled_triangle_is_tight(self):
        mg = MGraph([("a", "b", 2), ("b", "c", 2), ("c", "a", 2)])
        assert semantic_is_mengerian(mg)
        assert find_semantic_violation(mg) is None

    def test_heavy_path_is_not(self):
        m1 = MGraph([("s", "a", 2), ("a", "b", 2), ("b", "z", 2)])
        assert not semantic_is_mengerian(m1)
        bad = find_semantic_violation(m1)
        assert bad is not None and bad.packing < bad.covering
        assert bad.labeling.underlying().canonical_form() == m1.canonical_form()
        assert brute_force_p(bad.labeling, bad.s, bad.z).value == bad.packing
        assert brute_force_c(bad.labeling, bad.s, bad.z).value == bad.covering

    def test_disconnected_graphs_combine_componentwise(self):
        good = MGraph([("a", "b", 2)])
        bad = MGraph([("s", "x", 2), ("x", "y", 2), ("y", "z", 2)])
        both = MGraph(
            [(("L", u), ("L", v), m) for (u, v), m in good.links.items()]
            + [(("R", u), ("R", v), m) for (u, v), m in bad.links.items()]
        )
        assert not semantic_is_mengerian(both)

    def test_catalog_shapes_all_fail(self):
        for code in ("M1", "M2", "M3", "M4", "M5"):
            shape = catalog_entry(code).shape
            assert not semantic_is_mengerian(shape), code

    def test_violations_match_recorded_digest(self):
        # sha256 of each sweep witness (terminals and sorted labeled edges)
        # or None, recorded before gap verdicts were cached per mask family.
        digest = hashlib.sha256()
        for mg in _semantic_digest_pool():
            bad = find_semantic_violation(mg)
            seen = None if bad is None else (bad.s, bad.z, sorted(bad.labeling.edges))
            digest.update(repr(seen).encode() + b"\n")
        assert digest.hexdigest() == SEMANTIC_WITNESS_DIGEST

    def test_sweep_work_matches_recorded_count(self, monkeypatch):
        # Calls of _realizable_masks over the digest pool from an empty
        # verdict memo, recorded from the version that generated every
        # weak order and filtered: the sweep meets the same canonical
        # patterns in the same order, so it does the same work.
        monkeypatch.setattr(oracles, "_VERDICT_MEMO", {})
        calls = []
        realizable = oracles._realizable_masks

        def counting(*args):
            calls.append(None)
            return realizable(*args)

        monkeypatch.setattr(oracles, "_realizable_masks", counting)
        for mg in _semantic_digest_pool():
            find_semantic_violation(mg)
        assert len(calls) == 91_311

    def test_gap_open_examples(self):
        # Three pairwise-meeting label sets: packing 1, covering 2.
        assert _gap_open(frozenset({0b110, 0b1100, 0b1010}))
        assert not _gap_open(frozenset({0b110}))
        assert not _gap_open(frozenset({0b110, 0b1110, 0b1000}))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10**6))
    def test_gap_open_matches_set_cover(self, seed):
        # Random families of label bitmasks over 1..8, single masks and
        # families with supersets (not antichains) included, against the
        # independent packing and covering searches.
        rng = random.Random(seed)
        family = {rng.randint(1, 255) << 1 for _ in range(rng.randint(1, 7))}
        if rng.random() < 0.5:
            family.add(rng.choice(sorted(family)) | rng.randint(1, 255) << 1)
        sets = [frozenset(t for t in range(1, 9) if m >> t & 1) for m in family]
        universe = sorted(frozenset().union(*sets))
        masks = _masks_over(universe, sets)
        gap = max_disjoint_masks(masks)[0] < min_hitting_set(masks, universe)[0]
        assert _gap_open(frozenset(family)) == gap
        assert _gap_open.__wrapped__(frozenset(family)) == gap
        # Exhaustive reference that shares nothing with the searches: the
        # largest pairwise-disjoint subfamily (at most 8 masks) and the
        # smallest set of labels 1..8 meeting every mask.
        masks = sorted(family)
        p = max(
            size
            for size in range(1, len(masks) + 1)
            for sub in itertools.combinations(masks, size)
            if all(not a & b for a, b in itertools.combinations(sub, 2))
        )
        c = min(
            size
            for size in range(1, 9)
            for labels in itertools.combinations(range(1, 9), size)
            if all(any(m >> t & 1 for t in labels) for m in masks)
        )
        assert _gap_open(frozenset(family)) == (p < c)


CANONICAL_FORM_DIGEST = "7540f2d476f5415f15358f8018abf186d6468e1ce97d74f8636478d90e65f664"


class TestEnumeration:
    def test_simple_graph_counts(self):
        # unlabeled simple graphs on n vertices: 1, 1, 2, 4, 11, 34
        assert [len(enumerate_simple_graphs(n)) for n in range(6)] == [1, 1, 2, 4, 11, 34]

    def test_connected_multigraph_sweep_is_canonical(self):
        graphs = enumerate_connected_multigraphs(3, 4)
        forms = [mg.canonical_form() for mg in graphs]
        assert len(forms) == len(set(forms))
        assert all(mg.is_connected() for mg in graphs)
        assert all(len(mg.vertices) <= 3 and mg.size() <= 4 for mg in graphs)
        # K2 with multiplicities 1..4 plus P3/triangle families; spot check
        assert any(mg.size() == 4 and len(mg.vertices) == 2 for mg in graphs)

    def test_canonical_forms_match_recorded_digest(self, monkeypatch):
        # sha256 of every value canonical_form returned during the two
        # sweeps, in call order, recorded from the version that compared
        # sorted (min, max, multiplicity) triples for each vertex order.
        forms = []
        canonical_form = MGraph.canonical_form

        def recording(self):
            forms.append(canonical_form(self))
            return forms[-1]

        monkeypatch.setattr(MGraph, "canonical_form", recording)
        enumerate_simple_graphs(5)
        enumerate_connected_multigraphs(4, 6)
        assert len(forms) == 1741
        digest = hashlib.sha256(repr(forms).encode()).hexdigest()
        assert digest == CANONICAL_FORM_DIGEST

    def test_minimal_bad_search_small(self):
        found = search_minimal_non_mengerian(4, 5)
        codes = set()
        for mg in found:
            for code in ("M1", "M2", "M3", "M4", "M5"):
                if mg.canonical_form() == catalog_entry(code).shape.canonical_form():
                    codes.add(code)
        assert codes == {"M2", "M4", "M5"}
        assert len(found) == 3

    def test_minimal_bad_search_finds_whole_catalog(self):
        found = {mg.canonical_form() for mg in search_minimal_non_mengerian(5, 6)}
        expected = {
            catalog_entry(code).shape.canonical_form()
            for code in ("M1", "M2", "M3", "M4", "M5")
        }
        assert found == expected


def test_weak_duality_on_fixtures(demo, tight_gap, two_route):
    for fx in (demo, tight_gap, two_route):
        p = brute_force_p(fx.graph, fx.s, fx.z).value
        c = brute_force_c(fx.graph, fx.s, fx.z).value
        assert p <= c


def test_the_referee_imports_no_engine_it_judges():
    # The oracles are the independent instrument the engines and
    # recognition are checked against, so of the package they may import
    # only the graph types and the errors.
    tree = ast.parse(Path(oracles.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == "tgmenger":
                    imported.add(rest.split(".")[0] or head)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                head, _, module = module.partition(".")
                if head != "tgmenger":
                    continue
            if module:
                imported.add(module.split(".")[0])
            else:
                imported.update(alias.name for alias in node.names)
    assert imported == {"core", "errors"}
