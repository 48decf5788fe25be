"""Layer spans recorded from outside the package.

The tracer wraps public ``tgmenger`` names where the calling modules bind
them, so no source file changes: every module attribute that is the
original function gets a wrapper that records a span (name, start, end,
parent span, id of the top-level call) and, for some layers, a few numbers
read from the arguments or the result.  Spans are recorded only between
``begin_call`` and ``end_call``; outside them the wrappers pass through.

A hooked name that no longer exists is listed in ``absent`` instead of
raising, so the benchmark keeps running while the package is refactored.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import defaultdict

perf_counter = time.perf_counter


def _cut_info(args, out):
    return (
        getattr(out, "engine", None),
        getattr(out, "subsets_checked", 0),
        getattr(out, "subset_bound", 0),
    )


def _paths_info(args, out):
    return (
        getattr(out, "tuples_materialized", 0),
        getattr(out, "arcs_explored", 0),
        getattr(out, "tuple_bound", 0),
    )


def _network_info(args, out):
    net = args[0] if args else None
    try:
        return (net.number_of_nodes(), net.number_of_edges())
    except AttributeError:
        return (0, 0)


# span name -> (public function names, reader of extra numbers)
FUNCTION_HOOKS = {
    "cuts": (
        ("snapshot_cut_at_most", "min_snapshot_cut", "multiedge_cut_at_most", "min_multiedge_cut"),
        _cut_info,
    ),
    "cuts.candidates": (("candidate_labels", "candidate_multiedges"), None),
    "paths": (("max_snapshot_disjoint",), _paths_info),
    "flow": (("max_edge_disjoint_paths", "injective_connectivity"), None),
    "core.reachable": (("reachable",), None),
    "core.sweeps": (("earliest_arrival", "latest_departure"), None),
    "core.enumerate_paths": (("enumerate_paths",), lambda args, out: len(out)),
    "core.minor_match": (("find_m_topological_minor", "has_m_topological_minor"), None),
    "mengerian.recognize": (("recognize",), lambda args, out: not out.mengerian),
    "mengerian.lift": (("bad_labeling_for", "extend_bad_labeling"), None),
    "oracles.semantic": (("semantic_is_mengerian",), None),
    "gadgets.build": (("indep_set_gadget", "vc_gadget", "clique_gadget"), None),
}

# span name -> (class name, method name)
METHOD_HOOKS = {
    "core.graph_build": ("TemporalGraph", "__init__"),
    "paths.product_build": ("ProductDigraph", "__init__"),
    "core.canonical_form": ("MGraph", "canonical_form"),
}

# span name -> networkx function, as bound through ``injective_flow``
FLOW_SOLVER_HOOKS = {
    "flow.maxflow": "maximum_flow",
    "flow.mincut": "minimum_cut",
}


class _ModuleProxy:
    """Stands in for a module inside one importing module: a few
    attributes are replaced, everything else is read from the module."""

    def __init__(self, module, overrides: dict):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        # [name, start, end, parent index, call id, extra]
        self.spans: list = []
        self._stack: list = []
        self._call = None
        self._restore: list = []
        self.absent: list = []

    # -- recording ---------------------------------------------------------

    def begin_call(self, call_id) -> None:
        self._call = call_id

    def end_call(self) -> None:
        self._call = None
        self._stack.clear()

    def wrap(self, name: str, fn, reader=None):
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            if self._call is None:
                return fn(*args, **kwargs)
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self._call, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if reader is not None:
                rec[5] = reader(args, out)
            return out

        return traced

    # -- installing --------------------------------------------------------

    @staticmethod
    def _modules():
        return [
            mod
            for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == "tgmenger" or key.startswith("tgmenger."))
        ]

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = self._modules()
        for span, (names, reader) in FUNCTION_HOOKS.items():
            found = False
            for fname in names:
                wrappers: dict = {}
                for mod in modules:
                    obj = getattr(mod, fname, None)
                    if not callable(obj) or not getattr(obj, "__module__", "").startswith("tgmenger"):
                        continue
                    if id(obj) not in wrappers:
                        wrappers[id(obj)] = self.wrap(span, obj, reader)
                    self._set(mod, fname, wrappers[id(obj)])
                    found = True
            if not found:
                self.absent.append(span)
        for span, (cls_name, method) in METHOD_HOOKS.items():
            classes = {
                id(c): c
                for c in (getattr(mod, cls_name, None) for mod in modules)
                if isinstance(c, type) and method in c.__dict__
            }
            for cls in classes.values():
                self._set(cls, method, self.wrap(span, cls.__dict__[method]))
            if not classes:
                self.absent.append(span)
        flow_mod = sys.modules.get("tgmenger.injective_flow")
        nx = getattr(flow_mod, "nx", None)
        overrides = {}
        for span, fname in FLOW_SOLVER_HOOKS.items():
            if callable(getattr(nx, fname, None)):
                reader = _network_info if span == "flow.maxflow" else None
                overrides[fname] = self.wrap(span, getattr(nx, fname), reader)
            else:
                self.absent.append(span)
        if overrides:
            self._set(flow_mod, "nx", _ModuleProxy(nx, overrides))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- reading -----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: outermost calls, summed self time (duration minus
        the time its direct children cover), and the ``(duration, extra)``
        of each outermost span that recorded extras."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                covered[rec[3]] += rec[2] - rec[1]
        out: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "extra": []})
        for i, (name, start, end, parent, _call, extra) in enumerate(spans):
            row = out[name]
            row["self_s"] += (end - start) - covered[i]
            if parent < 0 or spans[parent][0] != name:
                row["calls"] += 1
                if extra is not None:
                    row["extra"].append((end - start, extra))
        return dict(out)

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, call, _extra in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "call": call}
                    )
                    + "\n"
                )
