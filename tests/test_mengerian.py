"""Recognition, the obstruction catalog, and lifted bad labelings."""

import hashlib
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_multigraphs_up_to_iso, random_mgraph
from tgmenger import mengerian
from tgmenger.core import MGraph, TemporalGraph, has_m_topological_minor
from tgmenger.errors import CatalogViolation, MalformedInput
from tgmenger.fixtures import fixture_names, get_fixture
from tgmenger.mengerian import (
    CatalogEntry,
    bad_labeling_for,
    catalog,
    catalog_entry,
    extend_bad_labeling,
    is_mengerian,
    recognize,
    verify_catalog,
)
from tgmenger.oracles import brute_force_c, brute_force_p


def open_gap(g: TemporalGraph, s, z) -> tuple:
    return (brute_force_p(g, s, z).value, brute_force_c(g, s, z).value)


class TestCatalog:
    def test_five_entries(self):
        entries = catalog()
        assert [e.code for e in entries] == ["M1", "M2", "M3", "M4", "M5"]
        assert len({e.name for e in entries}) == 5

    def test_lookup_by_code_or_name(self):
        assert catalog_entry("m3") is catalog_entry("M3")
        by_name = catalog_entry(catalog_entry("M4").name)
        assert by_name.code == "M4"
        with pytest.raises(MalformedInput):
            catalog_entry("M9")

    def test_codes_and_nicknames_are_fixtures(self):
        assert fixture_names() == [
            "demo", "tight-gap", "two-route",
            "bowtie", "diamond", "doubled-cycle", "doubled-path",
            "m1", "m2", "m3", "m4", "m5", "pendant-triangle",
        ]
        for entry in catalog():
            for key in (entry.code, entry.code.lower(), entry.name):
                fx = get_fixture(key)
                assert fx.name == key.lower()
                assert fx.graph is entry.labeling
                assert (fx.s, fx.z) == (entry.s, entry.z)

    def test_labelings_open_a_gap(self):
        for entry in catalog():
            p, c = open_gap(entry.labeling, entry.s, entry.z)
            assert (p, c) == (1, 2), entry.code
            assert entry.labeling.underlying().canonical_form() == (
                entry.shape.canonical_form()
            )

    def test_verify_catalog_passes(self):
        report = verify_catalog()
        assert len(report.checks) == 20
        for code in ("M1", "M2", "M3", "M4", "M5"):
            assert sum(check.startswith(code) for check in report.checks) == 4

    def test_verify_catalog_deep(self):
        report = verify_catalog(deep=True)
        assert len(report.checks) == 30
        assert any("one-step reduction" in check for check in report.checks)

    def test_tampered_labeling_is_caught(self):
        # an injective labeling of the M1 shape is tight (p = c = 2), so the
        # certificate check must fail
        bogus = CatalogEntry(
            code="M1",
            name="tampered",
            shape=catalog_entry("M1").shape,
            labeling=TemporalGraph(
                [
                    (0, "s", "a", 1),
                    (1, "s", "a", 2),
                    (2, "a", "b", 3),
                    (3, "a", "b", 4),
                    (4, "b", "z", 5),
                    (5, "b", "z", 6),
                ]
            ),
            s="s",
            z="z",
        )
        with pytest.raises(CatalogViolation):
            verify_catalog(entries=(bogus,))


NEGATIVE_HOSTS = [
    ("M1", MGraph([("s", "a", 2), ("a", "b", 2), ("b", "z", 2)])),
    ("M2", MGraph([("s", "c", 2), ("c", "b", 1), ("b", "a", 2), ("c", "a", 3)])),
    (
        "M3",
        MGraph(
            [("s", "a"), ("a", "c"), ("s", "c"), ("c", "b"), ("b", "z"), ("c", "z")]
        ),
    ),
    ("M4", MGraph([("s", "a"), ("a", "z", 2), ("z", "b"), ("b", "s")])),
    (
        "M5",
        MGraph([("s", "a"), ("a", "z"), ("z", "b"), ("b", "s"), ("a", "b")]),
    ),
]


class TestRecognize:
    @pytest.mark.parametrize("code, host", NEGATIVE_HOSTS)
    def test_catalog_shapes_blame_themselves(self, code, host):
        verdict = recognize(host)
        assert not verdict.mengerian
        assert verdict.witness.code == code

    def test_witness_embedding_is_checkable(self):
        host = MGraph(
            [("x", "y", 3), ("y", "q", 2), ("q", "r", 2), ("r", "t", 4), ("t", "u")]
        )
        verdict = recognize(host)
        assert not verdict.mengerian and verdict.witness.code == "M1"
        emb = verdict.witness.embedding
        pattern = catalog_entry("M1").shape
        for (pu, pv), path in emb.link_paths.items():
            need = pattern.multiplicity(pu, pv)
            for a, b in zip(path, path[1:]):
                assert host.multiplicity(a, b) >= need

    @pytest.mark.parametrize(
        "mg",
        [
            MGraph([("a", "b", 5)]),  # one fat link
            MGraph([("a", "b", 2), ("b", "c", 2), ("c", "a", 2)]),  # doubled C3
            MGraph([(i, (i + 1) % 6) for i in range(6)]),  # plain C6
            MGraph([("h", "a"), ("h", "b"), ("h", "c"), ("a", "x", 3)]),  # star+fat leaf
            MGraph([], vertices=["solo"]),
        ],
    )
    def test_positives(self, mg):
        verdict = recognize(mg)
        assert verdict.mengerian and verdict.witness is None
        assert is_mengerian(mg)

    def test_doubled_link_on_long_cycle_is_m4(self):
        c5 = MGraph([(0, 1, 2), (1, 2), (2, 3), (3, 4), (4, 0)])
        verdict = recognize(c5)
        assert not verdict.mengerian and verdict.witness.code == "M4"

    def test_accepts_temporal_graphs_via_underlying(self, demo, tight_gap):
        assert not is_mengerian(demo.graph)
        assert recognize(tight_gap.graph).witness.code == "M1"

    def test_disconnected_graphs_need_every_component_good(self):
        bad = MGraph(
            [("s", "a", 2), ("a", "b", 2), ("b", "z", 2), ("p", "q")],
        )
        verdict = recognize(bad)
        assert not verdict.mengerian and verdict.witness.code == "M1"
        good = MGraph([("a", "b", 3), ("p", "q")])
        assert is_mengerian(good)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_recognition_agrees_with_direct_minor_matching(seed):
    mg = random_mgraph(random.Random(seed), max_vertices=5, max_links=6)
    verdict = recognize(mg)
    hit = any(
        has_m_topological_minor(mg, entry.shape) for entry in catalog()
    )
    assert verdict.mengerian == (not hit)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_subdividing_preserves_rejection(seed):
    rng = random.Random(seed)
    mg = random_mgraph(rng, max_vertices=5, max_links=6)
    if is_mengerian(mg):
        return
    links = sorted(mg.links)
    u, v = rng.choice(links)
    assert not is_mengerian(mg.m_subdivide(u, v))


def test_subdividing_can_break_an_accepted_graph():
    # Rejection survives subdivision, acceptance need not: stretching a
    # triangle with a doubled side into a 4-cycle creates the doubled-cycle
    # obstruction, so the verdicts of a graph and its m-subdivision can
    # genuinely differ.
    tri = MGraph([("a", "b", 2), ("b", "c"), ("c", "a")])
    assert is_mengerian(tri)
    verdict = recognize(tri.m_subdivide("a", "b"))
    assert not verdict.mengerian and verdict.witness.code == "M4"


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_deleting_never_breaks_a_good_graph(seed):
    rng = random.Random(seed)
    mg = random_mgraph(rng, max_vertices=5, max_links=6)
    if not is_mengerian(mg):
        return
    for u, v in sorted(mg.links):
        assert is_mengerian(mg.drop_link(u, v))
        less = mg.multiplicity(u, v) - 1
        if less:
            assert is_mengerian(mg.set_multiplicity(u, v, less))


class TestLifts:
    @pytest.mark.parametrize("code, host", NEGATIVE_HOSTS)
    def test_bad_labeling_realizes_the_gap(self, code, host):
        witness = recognize(host).witness
        g, s, z = bad_labeling_for(host, witness)
        assert set(g.vertices) <= set(host.vertices)
        p, c = open_gap(g, s, z)
        assert p < c

    def test_extension_covers_the_whole_host(self):
        host = MGraph(
            [("s", "a", 2), ("a", "b", 2), ("b", "z", 2), ("s", "z"), ("z", "w")]
        )
        witness = recognize(host).witness
        base, s, z = bad_labeling_for(host, witness)
        full = extend_bad_labeling(host, base, s, z)
        assert full.underlying().canonical_form() == host.canonical_form()
        p, c = open_gap(full, s, z)
        assert p < c

    def test_extension_on_k4_keeps_full_gap(self):
        k4 = MGraph([(u, v) for u in range(4) for v in range(u + 1, 4)])
        witness = recognize(k4).witness
        base, s, z = bad_labeling_for(k4, witness)
        full = extend_bad_labeling(k4, base, s, z)
        assert full.underlying().canonical_form() == k4.canonical_form()
        p, c = open_gap(full, s, z)
        assert p < c


# -- witnesses pinned across refactors -------------------------------------------


def cored_host(rng: random.Random) -> MGraph:
    """A 2-connected core of 4-6 vertices (a cycle plus random chords) with
    a pendant tree hung off it, on shuffled string vertex names."""
    k = rng.randint(4, 6)
    names = [f"v{i}" for i in range(k + rng.randint(3, 10))]
    rng.shuffle(names)
    pairs = [(names[i], names[(i + 1) % k]) for i in range(k)]
    pairs += [
        (names[i], names[j])
        for i in range(k)
        for j in range(i + 2, k)
        if (i, j) != (0, k - 1) and rng.random() < 0.3
    ]
    pairs += [(names[rng.randrange(j)], names[j]) for j in range(k, len(names))]
    return MGraph([(u, v, rng.choice((1, 1, 2))) for u, v in pairs])


def witness_hosts() -> list:
    """Criterion 6's classes, every fixture's multigraph, 400 seeded hosts
    on up to 12 vertices and 300 seeded cored hosts."""
    hosts = list(all_multigraphs_up_to_iso())
    hosts += [get_fixture(name).graph.underlying() for name in fixture_names()]
    rng = random.Random(20261020)
    hosts += [random_mgraph(rng, max_vertices=12, max_links=16, max_mult=2) for _ in range(400)]
    hosts += [cored_host(rng) for _ in range(300)]
    return hosts


def witness_digest(hosts, skip=()) -> str:
    """sha256 over every host's verdict, and over the full embedding of
    each witness whose code is not in *skip*."""
    digest = hashlib.sha256()
    for mg in hosts:
        w = recognize(mg).witness
        line = ("yes",) if w is None else (w.code,)
        if w is not None and w.code not in skip:
            emb = w.embedding
            line += (sorted(emb.vertex_map.items()), sorted(emb.link_paths.items()))
        digest.update(repr(line).encode())
    return digest.hexdigest()


# Recorded while recognition still ran on networkx: verdicts everywhere,
# and every M1-M4 witness in full.
NON_M5_WITNESS_DIGEST = "89dbbebd3dbe75d2573cc94494de239ff84e6d321d39d61c11d207296fd6fad3"


# Recorded once recognition ran on its own block search: every witness,
# the diamonds (M5) grown from a cycle and one ear included.
WITNESS_DIGEST = "7b2544caa706d0628a1aab82a655089c037060c5eda7ef175febb9465fd872a5"


def test_witnesses_match_the_recorded_digests():
    hosts = witness_hosts()
    assert witness_digest(hosts, skip={"M5"}) == NON_M5_WITNESS_DIGEST
    assert witness_digest(hosts) == WITNESS_DIGEST


K4_WITH_TAIL = "a b 1\na c 1\na d 1\nb c 1\nb d 1\nc d 1\nd p1 1\n" + "".join(
    f"p{i} p{i + 1} 1\n" for i in range(1, 6)
)


def test_witness_does_not_depend_on_the_hash_seed(tmp_path):
    # The K4 block holds 4 of the component's 10 vertices, so a search
    # that walked a set of its string names would vary with the seed.
    path = tmp_path / "k4-tail.edges"
    path.write_text(K4_WITH_TAIL)
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = set()
    for seed in ("1", "2", "4", "5", "6"):
        paths = [src, os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(filter(None, paths)))
        proc = subprocess.run(
            [sys.executable, "-m", "tgmenger", "mengerian", "-g", str(path)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 1, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1, outputs


def test_long_doubled_cycle_answers_quickly():
    n = 20_000
    cycle = MGraph([(0, 1, 2)] + [(i, (i + 1) % n) for i in range(1, n)])
    started = time.perf_counter()
    verdict = recognize(cycle)
    assert time.perf_counter() - started < 10.0
    assert verdict.witness.code == "M4"
    assert verdict.witness.embedding.vertex_map == {"a": 0, "z": 1, "s": n - 1, "b": n - 2}


def test_recognition_runs_without_networkx():
    assert not hasattr(mengerian, "nx")
    origins = [
        getattr(value, "__module__", None) or getattr(value, "__name__", None)
        for value in vars(mengerian).values()
    ]
    assert not any(str(origin).startswith("networkx") for origin in origins)
