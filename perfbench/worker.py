"""Run one pass of a workload in a fresh interpreter.

Reads a pickled ``(calls, spans_path)`` payload from standard input, where
``calls`` is a list of ``(kind, args)``.  ``spans_path`` is ``None`` for an
untraced pass, ``""`` for a traced pass that keeps its spans in memory, and
otherwise the file a traced pass writes its spans to.  Runs the calls in order, one after the other, and writes
a pickled report to standard output: per-call outcome and latency, the
wall time of the loop, the import time of the package and the peak
resident set of this process, plus the layer summary of a traced pass.

Every pass runs in its own process so that no pass sees what an earlier
one cached: the semantic Mengerian sweep memoises verdicts by isomorphism
class for the life of the process, and a later change may cache per graph.
"""

from __future__ import annotations

import gc
import pickle
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _recognize(g):
    """``recognize``; on rejection also lift the forbidden shape's bad
    labeling to the host and extend it to every host edge."""
    verdict = tgmenger.recognize(g)
    if verdict.mengerian:
        return verdict, None
    host = g.underlying() if isinstance(g, tgmenger.TemporalGraph) else g
    base, s, z = tgmenger.bad_labeling_for(host, verdict.witness)
    return verdict, (base, s, z, tgmenger.extend_bad_labeling(host, base, s, z))


# Names are looked up on the package at call time, so the tracer's wrappers
# are the ones called in a traced pass.
CALLS = {
    "paths": lambda g, s, z, k: tgmenger.max_snapshot_disjoint(g, s, z, k),
    "cut": lambda g, s, z, h: tgmenger.snapshot_cut_at_most(g, s, z, h),
    "mincut": lambda g, s, z: tgmenger.min_snapshot_cut(g, s, z),
    "mcut": lambda g, s, z, h: tgmenger.multiedge_cut_at_most(g, s, z, h),
    "edp": lambda g, s, z: tgmenger.max_edge_disjoint_paths(g, s, z),
    "inj": lambda g, s, z: tgmenger.injective_connectivity(g, s, z),
    "recognize": _recognize,
    "minor": lambda host, shape: tgmenger.find_m_topological_minor(host, shape),
    "semantic": lambda mg: tgmenger.oracles.semantic_is_mengerian(mg),
}


def run_pass(calls, tracer=None) -> tuple:
    outcomes = []
    started = time.perf_counter()
    for i, (kind, args) in enumerate(calls):
        fn = CALLS[kind]
        if tracer is not None:
            tracer.begin_call(i)
        t0 = time.perf_counter()
        try:
            out = (True, fn(*args))
        except Exception as exc:  # a raising call is a failed call, not a crash
            out = (False, f"{type(exc).__name__}: {exc}")
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_call()
        outcomes.append((out[0], latency, out[1]))
    return outcomes, time.perf_counter() - started


def main() -> int:
    # Imported here, not at the top, so that the import can be timed.
    global tgmenger
    t0 = time.perf_counter()
    import tgmenger

    import_s = time.perf_counter() - t0
    calls, spans_path = pickle.load(sys.stdin.buffer)
    # The inputs live for the whole pass.  Freezing them keeps the cyclic
    # collector from rescanning them during the calls, so a collection's
    # pause depends on what the calls allocate and not on how many inputs
    # the workload holds.
    gc.collect()
    gc.freeze()
    tracer = None
    if spans_path is not None:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    outcomes, wall = run_pass(calls, tracer)
    layers = absent = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.summary()
        absent = tracer.absent
        if spans_path:
            tracer.write_spans(spans_path)
    report = {
        "outcomes": outcomes,
        "wall_s": wall,
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": layers,
        "absent": absent,
    }
    sys.stdout.buffer.write(pickle.dumps(report, protocol=pickle.HIGHEST_PROTOCOL))
    sys.stdout.buffer.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
