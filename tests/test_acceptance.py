"""Acceptance gate: one test per shipped guarantee, one [PASS]/[FAIL] line each.

Two guarantees are knowingly not attainable and their tests are left red on
purpose rather than weakened; each failure message carries the analysis:

* criterion 7 asserts that the Mengerian verdict is invariant under
  m-subdivision, but only the rejected->rejected direction is a theorem —
  subdividing can stretch a triangle into a 4-cycle and create the M4
  obstruction, so accepted graphs may flip;
* criterion 8 asserts the multicolored-clique reduction is faithful at
  k = 3, but the construction's winning-window cut already fits under the
  k = 3 threshold on every instance, so clique-free sources still decide
  YES (the reduction is two-sided only from k = 4 with two edges per pair,
  which is demonstrated green in test_gadgets.py).
"""

import itertools
import math
import random
import time
from contextlib import contextmanager

import pytest

from conftest import all_multigraphs_up_to_iso, random_mgraph, random_temporal_graph, terminals
from tgmenger.core import find_m_topological_minor
from tgmenger.cuts import (
    candidate_labels,
    is_multiedge_cut,
    min_snapshot_cut,
    multiedge_cut_at_most,
    snapshot_cut_at_most,
)
from tgmenger.disjoint_paths import max_snapshot_disjoint
from tgmenger.errors import MalformedInput
from tgmenger.gadgets import clique_gadget, indep_set_gadget, vc_gadget
from tgmenger.injective_flow import injective_connectivity
from tgmenger.mengerian import catalog, is_mengerian, recognize, verify_catalog
from tgmenger.oracles import (
    brute_force_c,
    brute_force_p,
    enumerate_simple_graphs,
    find_multicolored_clique,
    find_semantic_violation,
    max_independent_set,
    min_vertex_cover,
    semantic_is_mengerian,
)

CORPUS_SEED = 170043
CORPUS_SIZE = 500


@contextmanager
def criterion(capfd, number, text):
    try:
        yield
    except BaseException:
        with capfd.disabled():
            print(f"[FAIL] criterion {number}: {text}", flush=True)
        raise
    with capfd.disabled():
        print(f"[PASS] criterion {number}: {text}", flush=True)


@pytest.fixture(scope="module")
def corpus():
    """The shared random instances: (graph, s, z, brute p, brute c)."""
    rng = random.Random(CORPUS_SEED)
    records = []
    for _ in range(CORPUS_SIZE):
        g = random_temporal_graph(rng)
        for s, z in terminals(g):
            p = brute_force_p(g, s, z).value
            c = brute_force_c(g, s, z).value
            records.append((g, s, z, p, c))
    return records


def test_criterion_1_fixture_facts(capfd, demo, tight_gap, two_route):
    with criterion(capfd, 1, "fixture facts reproduce exactly, < 1 s each"):
        started = time.perf_counter()
        g, s, z = demo.graph, demo.s, demo.z
        assert max_snapshot_disjoint(g, s, z, 2).found
        res = snapshot_cut_at_most(g, s, z, 2)
        assert res.found and res.labels == frozenset({2, 3})
        assert is_multiedge_cut(g, s, z, {("s", "w"), ("s", "u")})
        mres = multiedge_cut_at_most(g, s, z, 2)
        assert mres.found and mres.multiedges == frozenset({("s", "u"), ("s", "w")})
        assert time.perf_counter() - started < 1.0

        started = time.perf_counter()
        g, s, z = tight_gap.graph, tight_gap.s, tight_gap.z
        assert brute_force_p(g, s, z).value == 1
        assert min_snapshot_cut(g, s, z).value == 2
        assert not max_snapshot_disjoint(g, s, z, 2).found
        assert not snapshot_cut_at_most(g, s, z, 1).found
        assert time.perf_counter() - started < 1.0

        started = time.perf_counter()
        g, s, z = two_route.graph, two_route.s, two_route.z
        res = max_snapshot_disjoint(g, s, z, 2)
        assert res.found
        assert sorted((w.label_set for w in res.family), key=sorted) == [
            frozenset({1, 3}),
            frozenset({2, 4}),
        ]
        assert time.perf_counter() - started < 1.0


def test_criterion_2_oracle_equivalence(capfd, corpus):
    text = (
        f"paths(k<=3) and cut(h<=3) match brute force on {CORPUS_SIZE} "
        "seeded graphs, all vertex pairs, exactly"
    )
    with criterion(capfd, 2, text):
        started = time.perf_counter()
        decisions = 0
        for g, s, z, p, c in corpus:
            for k in (1, 2, 3):
                assert max_snapshot_disjoint(g, s, z, k).found == (p >= k)
            for h in (0, 1, 2, 3):
                assert snapshot_cut_at_most(g, s, z, h).found == (c <= h)
            decisions += 7
        elapsed = time.perf_counter() - started
        assert decisions >= 7 * len(corpus)
        assert elapsed < 300.0


def test_criterion_3_weak_duality(capfd, corpus):
    with criterion(capfd, 3, "p <= c on every criterion-2 instance"):
        for _, _, _, p, c in corpus:
            assert p <= c


def test_criterion_4_injective_collapse(capfd, corpus):
    text = "flow value == p == c on every injective criterion-2 instance"
    with criterion(capfd, 4, text):
        checked = 0
        for g, s, z, p, c in corpus:
            if len(g.labels) != len(g.edges):
                continue
            value = injective_connectivity(g, s, z).value
            assert value == p == c
            checked += 1
        assert checked > 0


def test_criterion_5_catalog(capfd):
    text = "verify_catalog passes and each stored labeling opens p < c, < 10 s"
    with criterion(capfd, 5, text):
        started = time.perf_counter()
        report = verify_catalog()
        assert len(report.checks) == 20
        for entry in catalog():
            p = brute_force_p(entry.labeling, entry.s, entry.z).value
            c = brute_force_c(entry.labeling, entry.s, entry.z).value
            assert p < c, entry.code
        assert time.perf_counter() - started < 10.0


def test_criterion_6_recognition_soundness(capfd):
    text = (
        "recognize == direct minor matching == semantic sweep on all "
        "multigraphs <= 5 vertices / <= 7 edges, < 30 min"
    )
    with criterion(capfd, 6, text):
        started = time.perf_counter()
        shapes = [entry.shape for entry in catalog()]
        graphs = all_multigraphs_up_to_iso()
        assert len(graphs) > 400
        for mg in graphs:
            verdict = recognize(mg).mengerian
            minor_free = not any(
                find_m_topological_minor(mg, shape) for shape in shapes
            )
            semantic = semantic_is_mengerian(mg)
            assert verdict == minor_free == semantic, dict(mg.links)
        assert time.perf_counter() - started < 1800.0


def test_criterion_7_closure_properties(capfd):
    text = (
        "on 200 seeded graphs: verdict invariant under m_subdivide and "
        "monotone under deletion"
    )
    with criterion(capfd, 7, text):
        rng = random.Random(20260814)
        graphs = [random_mgraph(rng, max_vertices=5, max_links=6) for _ in range(200)]
        flips_up = []  # rejected -> accepted (would break soundness)
        flips_down = []  # accepted -> rejected (breaks the claimed invariance)
        monotonicity_violations = []
        subdivisions = 0
        for mg in graphs:
            accepted = is_mengerian(mg)
            for u, v in sorted(mg.links):
                sub_accepted = is_mengerian(mg.m_subdivide(u, v))
                subdivisions += 1
                if accepted and not sub_accepted:
                    flips_down.append((mg, (u, v)))
                elif not accepted and sub_accepted:
                    flips_up.append((mg, (u, v)))
            if accepted:
                for u, v in sorted(mg.links):
                    if not is_mengerian(mg.drop_link(u, v)):
                        monotonicity_violations.append((mg, (u, v), "drop"))
                    less = mg.multiplicity(u, v) - 1
                    if less and not is_mengerian(mg.set_multiplicity(u, v, less)):
                        monotonicity_violations.append((mg, (u, v), "decrement"))

        # the directions that are actually theorems hold everywhere
        assert monotonicity_violations == []
        assert flips_up == []

        # the two-sided invariance does not: subdividing can create an
        # obstruction.  Keep the assertion faithful and let it fail with
        # the analysis attached.
        if flips_down:
            host, link = min(flips_down, key=lambda fl: fl[0].size())
            sub = host.m_subdivide(*link)
            blamed = recognize(sub).witness.code
            sweep = (
                find_semantic_violation(host) is None
                if host.size() <= 8
                else None
            )
            detail = (
                f"{len(flips_down)} of {subdivisions} m-subdivisions across "
                f"200 graphs flipped an accepted graph to rejected "
                f"(0 flips rejected->accepted; deletion monotonicity clean). "
                f"Smallest counterexample: links {dict(host.links)} — "
                f"gap-free by exhaustive labeling sweep: {sweep} — yet "
                f"m-subdividing {link} creates the {blamed} obstruction. "
                f"Subdividing stretches paths and cycles, so it can complete "
                f"a forbidden shape (a triangle with one doubled side becomes "
                f"a 4-cycle with a doubled multiedge, which is M4). "
                f"Acceptance is NOT closed under m-subdivision; only "
                f"rejection is, so the asserted invariance is unattainable."
            )
            assert len(flips_down) == 0, detail


def _proper_three_colorings(vertices, edges):
    """Partitions into exactly three nonempty independent classes."""
    adj = {v: set() for v in vertices}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = set()
    out = []
    for assign in itertools.product(range(3), repeat=len(vertices)):
        if len(set(assign)) != 3:
            continue
        classes = [
            frozenset(v for v, c in zip(vertices, assign) if c == i)
            for i in range(3)
        ]
        key = frozenset(classes)
        if key in seen:
            continue
        seen.add(key)
        if any(u in adj[w] for cl in classes for u in cl for w in cl if u != w):
            continue
        out.append({v: f"c{c}" for v, c in zip(vertices, assign)})
    return out


def test_criterion_8_reduction_faithfulness(capfd):
    text = (
        "gadget decisions by the main algorithms match source ground truth "
        "(independent set, vertex cover exhaustive <= 5v; clique k=3), < 20 min"
    )
    with criterion(capfd, 8, text):
        started = time.perf_counter()

        # independent set: packing equals alpha on every source up to 5 vertices
        for n in range(0, 6):
            for mg in enumerate_simple_graphs(n):
                vertices = sorted(mg.vertices)
                edges = sorted(mg.links)
                alpha = max_independent_set(vertices, edges).value
                inst = indep_set_gadget(vertices, edges)
                if alpha:
                    assert max_snapshot_disjoint(
                        inst.graph, inst.s, inst.z, alpha
                    ).found
                assert not max_snapshot_disjoint(
                    inst.graph, inst.s, inst.z, alpha + 1
                ).found

        # vertex cover: multiedge cut threshold n + k crosses exactly at tau
        for n in range(1, 6):
            for mg in enumerate_simple_graphs(n):
                vertices = sorted(mg.vertices)
                edges = sorted(mg.links)
                tau = min_vertex_cover(vertices, edges).value
                inst = vc_gadget(vertices, edges)
                for k in range(0, n + 1):
                    found = multiedge_cut_at_most(
                        inst.graph, inst.s, inst.z, n + k
                    ).found
                    assert found == (tau <= k), (dict(mg.links), k)

        # multicolored clique at k = 3: collect decisions on every proper
        # 3-coloring of every source up to 5 vertices
        mismatches = []
        instances = 0
        for n in (3, 4, 5):
            for mg in enumerate_simple_graphs(n):
                vertices = sorted(mg.vertices)
                edges = sorted(mg.links)
                for coloring in _proper_three_colorings(vertices, edges):
                    truth = find_multicolored_clique(coloring, edges) is not None
                    try:
                        inst = clique_gadget(vertices, edges, coloring)
                    except MalformedInput:
                        # no edges cross any class pair: outside the
                        # generator's domain, and certainly clique-free
                        assert not truth
                        continue
                    instances += 1
                    h = inst.manifest["cut_threshold"]
                    decided = snapshot_cut_at_most(
                        inst.graph, inst.s, inst.z, h
                    ).found
                    if truth:
                        # one-sidedness must never fail: a real clique
                        # always yields a small cut
                        assert decided, (dict(mg.links), coloring)
                    elif decided:
                        mismatches.append((mg, coloring))

        elapsed = time.perf_counter() - started
        assert elapsed < 1200.0

        # Faithfulness at k = 3 is structurally impossible for this
        # construction: any two snapshots of one pair window cut every
        # path through that pair's gadget, giving an unconditional cut of
        # 2 * C(3,2) = 6 <= C(3,2) + 3 — under the threshold whether or
        # not a clique exists.  Keep the assertion faithful and let it
        # fail with the analysis attached.
        if mismatches:
            detail = (
                f"independent-set and vertex-cover parts passed exhaustively; "
                f"clique k=3 decided YES on all {instances} gadget instances, "
                f"but {len(mismatches)} sources are clique-free (one-sided: "
                f"every true YES was decided YES). Any two snapshots of one "
                f"pair window cut all of that pair's paths, so 2*C(k,2) "
                f"snapshots always suffice, and 2*C(k,2) <= C(k,2)+k exactly "
                f"when k <= 3: the k=3 threshold cannot separate YES from NO. "
                f"From k >= 4 with two candidate edges per pair the reduction "
                f"is two-sided (see test_gadgets.py)."
            )
            assert len(mismatches) == 0, detail


def test_criterion_9_reported_bounds(capfd, demo, tight_gap, two_route):
    text = (
        "paths reports tuple counts within (m+2)^k and visits strictly "
        "fewer; cut checks at most the cumulative subset bound over <= tau "
        "candidates"
    )
    with criterion(capfd, 9, text):
        for fx in (two_route, demo, tight_gap):
            g, s, z = fx.graph, fx.s, fx.z
            m = len(g.edges)
            for k in (1, 2, 3):
                res = max_snapshot_disjoint(g, s, z, k)
                assert res.tuple_bound == (m + 2) ** k
                assert 0 < res.tuples_materialized <= res.tuple_bound
                if k >= 2:
                    # laziness pays off once the product has real blow-up
                    assert res.tuples_materialized < res.tuple_bound
            for h in (1, 2):
                cres = snapshot_cut_at_most(g, s, z, h)
                cand = candidate_labels(g, s, z)
                assert len(cand) <= g.lifetime
                expected_bound = sum(
                    math.comb(len(cand), i) for i in range(min(h, len(cand)) + 1)
                )
                assert cres.subset_bound == expected_bound
                assert cres.subsets_checked <= cres.subset_bound
