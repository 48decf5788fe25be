"""Correctness gate and answer digest.

Every YES witness is checked independently of the solver that produced it,
every answer is compared with ground truth (gadget manifests, brute-force
oracles, or the other two Mengerian instruments on the same graph), and the
answers plus the canonical cut witnesses are hashed into a digest that pins
them across runs and refactors.
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections import defaultdict

import networkx as nx
import tgmenger
from tgmenger import oracles
from tgmenger.core import link_key


def canonical(value):
    """A structure with the same content whose ``repr`` does not depend on
    set iteration order (which varies with string hashing between
    processes)."""
    if isinstance(value, (frozenset, set)):
        return ("set", tuple(sorted((canonical(v) for v in value), key=repr)))
    if isinstance(value, dict):
        return ("dict", tuple(sorted(((canonical(k), canonical(v)) for k, v in value.items()), key=repr)))
    if isinstance(value, tgmenger.TemporalGraph):
        return ("graph", canonical(frozenset(value.edges)), canonical(value.vertices))
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__,) + tuple(
            canonical(getattr(value, f.name)) for f in dataclasses.fields(value)
        )
    if isinstance(value, (tuple, list)):
        return tuple(canonical(v) for v in value)
    return value


def fingerprint(outcome) -> str:
    """Hash of everything a call returned, witnesses included."""
    ok, _latency, value = outcome
    return hashlib.sha256(repr((ok, canonical(value))).encode()).hexdigest()


def answer(kind: str, outcome):
    """What the digest pins for one call: the answer and value, plus the
    witnesses the API promises to be canonical (the lexicographically
    least minimum cuts)."""
    ok, _latency, v = outcome
    if not ok:
        return ("error", v.split(":", 1)[0])
    if kind == "paths":
        return (kind, v.found)
    if kind == "cut":
        return (kind, v.found, canonical(v.labels))
    if kind == "mincut":
        return (kind, v.value, canonical(v.labels))
    if kind == "mcut":
        return (kind, v.found, canonical(v.multiedges))
    if kind in ("edp", "inj"):
        return (kind, v.value)
    if kind == "recognize":
        verdict = v[0]
        return (kind, verdict.mengerian, None if verdict.witness is None else verdict.witness.code)
    if kind == "minor":
        return (kind, v is not None)
    if kind == "semantic":
        return (kind, bool(v))
    raise ValueError(f"unknown call kind {kind!r}")


def step_digests(steps, outcomes) -> list:
    return [
        hashlib.sha256(repr(answer(step.kind, out)).encode()).hexdigest()[:16]
        for step, out in zip(steps, outcomes)
    ]


def digest(step_hashes) -> str:
    return hashlib.sha256("\n".join(step_hashes).encode()).hexdigest()


# -- witness checks ------------------------------------------------------------


def _walk_problem(g, walk, s, z):
    try:
        replay = tgmenger.validate_walk(g, walk.sequence())
    except tgmenger.TemporalGraphError as exc:
        return f"invalid walk: {exc}"
    if replay.edges != walk.edges:
        return "walk edges differ from the graph's edges"
    if walk.first != s or walk.last != z:
        return "walk does not join the terminals"
    if not walk.is_path:
        return "walk repeats a vertex"
    return None


def _family_problem(g, family, s, z, disjoint_by):
    seen: set = set()
    for walk in family:
        problem = _walk_problem(g, walk, s, z)
        if problem:
            return problem
        items = set(disjoint_by(walk))
        if items & seen:
            return "family is not pairwise disjoint"
        seen |= items
    return None


def _embedding_problem(host, pattern, emb):
    images = list(emb.vertex_map.values())
    if len(set(images)) != len(images) or not set(images) <= host.vertices:
        return "branch vertices are not distinct host vertices"
    used_inside: set = set()
    for (pu, pv), mult in pattern.links.items():
        path = emb.link_paths.get(link_key(pu, pv))
        if path is None or {path[0], path[-1]} != {emb.vertex_map[pu], emb.vertex_map[pv]}:
            return "link path does not join its branch vertices"
        if len(set(path)) != len(path):
            return "link path repeats a vertex"
        for a, b in zip(path, path[1:]):
            if host.multiplicity(a, b) < mult:
                return "link path uses a thinner host link"
        inner = set(path[1:-1])
        if inner & used_inside or inner & set(images):
            return "link paths are not internally disjoint"
        used_inside |= inner
    return None


def edge_disjoint_value(g, s, z) -> int:
    """Maximum number of pairwise edge-disjoint temporal s,z-paths, by a
    max flow built here and solved with networkx's default algorithm, so
    that it shares neither network nor flow routine with the solver.

    Each vertex gets one node per label at which it has an edge, chained by
    uncapacitated waiting arcs; each edge is a unit arc that both endpoints
    can enter and leave at its label."""
    times: dict = defaultdict(set)
    for e in g.edges:
        times[e.u].add(e.t)
        times[e.v].add(e.t)
    if not times[s] or not times[z]:
        return 0
    net = nx.DiGraph()
    for v, ts in times.items():
        ordered = sorted(ts)
        for a, b in zip(ordered, ordered[1:]):
            net.add_edge((v, a), (v, b))
    net.add_edge("source", (s, min(times[s])))
    for t in times[z]:
        net.add_edge((z, t), "sink")
    for e in g.edges:
        net.add_edge(("in", e.eid), ("out", e.eid), capacity=1)
        for x in (e.u, e.v):
            net.add_edge((x, e.t), ("in", e.eid))
            net.add_edge(("out", e.eid), (x, e.t))
    return nx.maximum_flow_value(net, "source", "sink")


# -- the gate --------------------------------------------------------------------


class Gate:
    """Judges the outcomes of one workload's calls; ground truth from the
    brute-force oracles is computed once and reused across passes."""

    def __init__(self, steps):
        self.steps = steps
        self._oracle: dict = {}

    def _truth(self, key, g, s, z):
        if key not in self._oracle:
            c = oracles.brute_force_c(g, s, z)
            mc = oracles.brute_force_multiedge_cut(g, s, z)
            self._oracle[key] = {
                "p": oracles.brute_force_p(g, s, z).value,
                "c": c.value,
                "c_witness": c.witness,
                "mc": mc.value,
                "mc_witness": mc.witness,
                "ed": oracles.brute_force_edge_disjoint(g, s, z).value,
            }
        return self._oracle[key]

    def check(self, outcomes) -> list:
        """One entry per call: ``None`` when the call is correct, else the
        reason it failed."""
        steps = self.steps
        problems = []
        for step, out in zip(steps, outcomes):
            ok, _latency, value = out
            if not ok:
                problems.append(f"raised {value}")
                continue
            try:
                problems.append(getattr(self, "_" + step.kind)(step, value))
            except tgmenger.TemporalGraphError as exc:
                problems.append(f"check raised {type(exc).__name__}: {exc}")
        self._mengerian_groups(steps, outcomes, problems)
        return problems

    def _paths(self, step, v):
        g, s, z, k = step.args
        if v.found:
            if len(v.family) != k:
                return "family size differs from k"
            problem = _family_problem(g, v.family, s, z, lambda w: w.label_set)
            if problem:
                return problem
        elif v.family:
            return "NO answer carries a family"
        if "alpha" in step.meta and v.found != (k <= step.meta["alpha"]):
            return f"packing answer disagrees with alpha = {step.meta['alpha']}"
        if "oracle" in step.meta:
            p = self._truth(step.meta["oracle"], g, s, z)["p"]
            if v.found != (p >= k):
                return f"packing answer disagrees with brute force p = {p}"
        return None

    def _cut(self, step, v):
        g, s, z, h = step.args
        if v.found and (
            v.labels is None or len(v.labels) > h or not tgmenger.is_snapshot_cut(g, s, z, v.labels)
        ):
            return "YES witness is not a snapshot cut within the bound"
        if step.meta.get("has_clique") and not v.found:
            return "clique source but no small cut (one-sided check)"
        if "oracle" in step.meta:
            truth = self._truth(step.meta["oracle"], g, s, z)
            if v.found != (truth["c"] <= h):
                return f"cut answer disagrees with brute force c = {truth['c']}"
            if v.found and v.labels != truth["c_witness"]:
                return "cut witness is not the lexicographically least minimum cut"
        return None

    def _mincut(self, step, v):
        g, s, z = step.args
        if len(v.labels) != v.value or not tgmenger.is_snapshot_cut(g, s, z, v.labels):
            return "minimum cut witness does not verify"
        threshold = step.meta["threshold"]
        if step.meta["has_clique"] != (v.value <= threshold):
            return f"minimum cut {v.value} on the wrong side of {threshold}"
        return None

    def _mcut(self, step, v):
        g, s, z, h = step.args
        if v.found and (
            v.multiedges is None
            or len(v.multiedges) > h
            or not tgmenger.is_multiedge_cut(g, s, z, v.multiedges)
        ):
            return "YES witness is not a multiedge cut within the bound"
        if "vc_tau" in step.meta and v.found != (step.meta["vc_tau"] <= step.meta["vc_k"]):
            return f"multiedge cut answer disagrees with tau = {step.meta['vc_tau']}"
        if "oracle" in step.meta:
            truth = self._truth(step.meta["oracle"], g, s, z)
            if v.found != (truth["mc"] <= h):
                return f"multiedge cut answer disagrees with brute force {truth['mc']}"
            if v.found and v.multiedges != truth["mc_witness"]:
                return "multiedge cut witness is not the lexicographically least minimum"
        return None

    def _edp(self, step, v):
        g, s, z = step.args
        if v.value != len(v.family):
            return "value differs from family size"
        problem = _family_problem(g, v.family, s, z, lambda w: w.edge_ids)
        if problem:
            return problem
        if "oracle" in step.meta:
            ed = self._truth(step.meta["oracle"], g, s, z)["ed"]
        else:
            ed = edge_disjoint_value(g, s, z)
        if v.value != ed:
            return f"edge-disjoint value disagrees with the reference {ed}"
        return None

    def _inj(self, step, v):
        g, s, z = step.args
        if v.value != len(v.family) or len(v.cut_labels) != v.value:
            return "value, family size and cut size differ"
        problem = _family_problem(g, v.family, s, z, lambda w: w.label_set)
        if problem:
            return problem
        if not tgmenger.is_snapshot_cut(g, s, z, v.cut_labels):
            return "cut labels do not separate the terminals"
        if "oracle" in step.meta:
            truth = self._truth(step.meta["oracle"], g, s, z)
            if not v.value == truth["p"] == truth["c"]:
                return "injective value disagrees with brute force p and c"
        return None

    def _recognize(self, step, v):
        verdict, lifted = v
        g = step.args[0]
        host = g.underlying() if isinstance(g, tgmenger.TemporalGraph) else g
        if verdict.mengerian:
            if lifted is not None or verdict.witness is not None:
                return "accepted graph carries a witness"
            if "corpus_graph" in step.meta:
                for s in g.vertices:
                    for z in g.vertices:
                        if s == z:
                            continue
                        truth = self._truth((step.meta["corpus_graph"], s, z), g, s, z)
                        if truth["p"] != truth["c"]:
                            return f"accepted, yet p < c at {s}->{z}"
            return None
        if verdict.witness.code not in {e.code for e in tgmenger.catalog()}:
            return "witness names no catalog shape"
        problem = _embedding_problem(
            host, tgmenger.catalog_entry(verdict.witness.code).shape, verdict.witness.embedding
        )
        if problem:
            return problem
        base, s, z, extended = lifted
        for lab in (base, extended):
            if not oracles.brute_force_p(lab, s, z).value < oracles.brute_force_c(lab, s, z).value:
                return "lifted labeling does not open the packing/covering gap"
        if extended.underlying() != host:
            return "extended labeling does not realise the host"
        return None

    def _minor(self, step, v):
        if v is None:
            return None
        return _embedding_problem(step.args[0], step.args[1], v)

    def _semantic(self, step, v):
        return None if isinstance(v, bool) else "verdict is not a bool"

    def _mengerian_groups(self, steps, outcomes, problems) -> None:
        """recognize == no catalog shape embeds == semantic sweep, per graph."""
        groups = defaultdict(list)
        for i, step in enumerate(steps):
            if "sweep_graph" in step.meta:
                groups[step.meta["sweep_graph"]].append(i)
        for members in groups.values():
            if any(not outcomes[i][0] for i in members):
                continue
            verdicts = set()
            minor_free = True
            for i in members:
                kind, value = steps[i].kind, outcomes[i][2]
                if kind == "recognize":
                    verdicts.add(value[0].mengerian)
                elif kind == "semantic":
                    verdicts.add(bool(value))
                elif value is not None:
                    minor_free = False
            verdicts.add(minor_free)
            if len(verdicts) > 1:
                for i in members:
                    problems[i] = problems[i] or "recognize, minor matching and sweep disagree"
