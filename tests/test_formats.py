"""Interchange formats: edge-list and JSON round-trips, sniffing, DOT."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_temporal_graph
from tgmenger import formats
from tgmenger.core import TemporalGraph, validate_walk
from tgmenger.errors import MalformedInput


def same_shape(a: TemporalGraph, b: TemporalGraph) -> bool:
    """Equality up to edge ids: vertex set plus (u, v, t) triple multiset."""
    return a.vertices == b.vertices and sorted(
        (e.pair, e.t) for e in a.edges
    ) == sorted((e.pair, e.t) for e in b.edges)


class TestEdgeList:
    def test_parse(self):
        g = formats.parse_edge_list("# demo\n a b 1 \n\nb c 2 # trailing\n1 2 3\n")
        assert g.vertices == {"a", "b", "c", 1, 2}
        assert [e.eid for e in g.edges] == [0, 1, 2]
        assert g.edge(2).pair == (1, 2)

    def test_round_trip(self, demo):
        text = formats.format_edge_list(demo.graph)
        assert same_shape(formats.parse_edge_list(text), demo.graph)

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("a b", "line 1"),
            ("a b 1\nc d one", "line 2"),
            ("a b 1 extra", "expected"),
            ("a a 1", "loops"),
        ],
    )
    def test_malformed(self, text, fragment):
        with pytest.raises(MalformedInput, match=fragment):
            formats.parse_edge_list(text)

    def test_whitespace_vertex_not_representable(self):
        # Each name would read back as a short line, a comment or an int.
        for name in ["a b", "a\tb", "a#b", "#", "", "7", "07", "-0"]:
            g = TemporalGraph([(0, name, "c", 1)])
            with pytest.raises(MalformedInput, match="does not read back"):
                formats.format_edge_list(g)


class TestJson:
    def test_document_shape(self, demo):
        doc = formats.graph_to_document(demo.graph)
        assert doc["vertices"] == ["s", "u", "v", "w", "z"]
        assert doc["edges"][0] == {"id": "sw1", "u": "s", "v": "w", "t": 1}

    def test_round_trip_preserves_ids_and_isolates(self):
        g = TemporalGraph([("e7", "a", "b", 2)], vertices=["lonely"])
        back = formats.loads_graph(formats.dumps_graph(g))
        assert back.edge("e7").pair == ("a", "b")
        assert "lonely" in back.vertices

    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {"vertices": []},
            {"edges": {}},
            {"edges": [{"u": "a", "v": "b"}]},
            {"edges": [], "vertices": "ab"},
        ],
    )
    def test_malformed_documents(self, doc):
        with pytest.raises(MalformedInput):
            formats.document_to_graph(doc)

    @pytest.mark.parametrize(
        "doc",
        [
            {"vertices": [["a"]], "edges": [{"u": "a", "v": "b", "t": 1}]},
            {"edges": [{"u": {"a": 1}, "v": "b", "t": 1}]},
            {"edges": [{"id": [0], "u": "a", "v": "b", "t": 1}]},
        ],
        ids=["vertex", "endpoint", "edge-id"],
    )
    def test_array_or_object_names(self, tmp_path, doc):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(MalformedInput, match="array or object"):
            formats.load_graph(path)

    def test_bad_json_text(self):
        with pytest.raises(MalformedInput, match="bad JSON"):
            formats.loads_graph("{not json")


class TestFiles:
    def test_load_sniffs_json(self, tmp_path, demo):
        path = tmp_path / "g.json"
        formats.save_graph(path, demo.graph)
        assert same_shape(formats.load_graph(path), demo.graph)

    def test_load_sniffs_edge_list(self, tmp_path, demo):
        path = tmp_path / "g.edges"
        formats.save_graph(path, demo.graph, fmt="edges")
        assert same_shape(formats.load_graph(path), demo.graph)

    def test_unknown_format(self, tmp_path, demo):
        with pytest.raises(MalformedInput, match="unknown graph format"):
            formats.save_graph(tmp_path / "g", demo.graph, fmt="yaml")

    def test_missing_file(self, tmp_path):
        with pytest.raises(MalformedInput, match="cannot read"):
            formats.load_graph(tmp_path / "absent")

    def test_unwritable_path(self, tmp_path, demo):
        with pytest.raises(MalformedInput, match="cannot write"):
            formats.save_graph(tmp_path / "absent" / "g.json", demo.graph)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_json_round_trip_random(seed):
    g = random_temporal_graph(random.Random(seed))
    back = formats.loads_graph(formats.dumps_graph(g))
    assert back.vertices == g.vertices
    assert [(e.eid, e.pair, e.t) for e in back.edges] == [
        (e.eid, e.pair, e.t) for e in g.edges
    ]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_edge_list_round_trip_random(seed):
    # The line format drops isolated vertices; everything else survives.
    g = random_temporal_graph(random.Random(seed))
    back = formats.parse_edge_list(formats.format_edge_list(g))
    assert sorted((e.pair, e.t) for e in back.edges) == sorted(
        (e.pair, e.t) for e in g.edges
    )
    assert back.vertices == {v for e in g.edges for v in e.pair}


def test_walk_document(demo):
    w = validate_walk(demo.graph, ["s", "sw1", "w", "wu3", "u", "uz3", "z"])
    doc = formats.walk_document(w)
    assert doc == {
        "vertices": ["s", "w", "u", "z"],
        "edge_ids": ["sw1", "wu3", "uz3"],
        "labels": [1, 3, 3],
        "pretty": "(s, 1, w, 3, u, 3, z)",
    }


class TestDot:
    def test_plain(self, demo):
        dot = formats.to_dot(demo.graph)
        assert dot.startswith('graph "tg" {')
        assert '"s" -- "w" [label="1"];' in dot
        assert dot.rstrip().endswith("}")

    def test_only_labels_filters(self, demo):
        dot = formats.to_dot(demo.graph, only_labels={1})
        assert 'label="1"' in dot
        assert 'label="3"' not in dot
        assert '"u";' in dot  # vertices stay even when their edges are filtered

    def test_highlighting(self, demo):
        dot = formats.to_dot(demo.graph, highlight_labels={2}, highlight_edges={"sw1"})
        hot = [ln for ln in dot.splitlines() if "red" in ln]
        assert len(hot) == 1 + len([e for e in demo.graph.edges if e.t == 2])
        assert all("penwidth=2" in ln for ln in hot)

    def test_quoting(self):
        g = TemporalGraph([(0, 'a"b', "c", 1)])
        assert '"a\\"b"' in formats.to_dot(g)
